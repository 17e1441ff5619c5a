"""Chi-squared, KS, Renyi divergence, and the audit wrapper."""

import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, kolmogorov

from caserisk.bias import (
    NEGATIVE,
    POSITIVE,
    ContingencyTable,
    FeatureSpec,
    TestResult,
    _kolmogorov_sf,
    audit,
    bonferroni,
    chi_squared_p_value,
    chi_squared_test,
    contingency,
    group_counts,
    ks_two_sample,
    renyi_divergence,
)
from caserisk.clustering import Cluster
from caserisk.corpus import Corpus, Document
from caserisk.errors import DegenerateTableError, EmptyInputError, InputError
from caserisk.sampling import SOURCE_EXPERT, SOURCE_SAMPLED, LabeledCluster
from caserisk.synth import table2_fixture


def closed_form_2x2(a, b, c, d):
    n = a + b + c + d
    return n * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))


def make_labeled_corpus(spec):
    """spec: list of (label, domain, n_docs) cluster descriptions."""
    documents = []
    labeled = []
    for ci, (label, domain, n_docs) in enumerate(spec):
        ids = []
        for di in range(n_docs):
            doc_id = f"c{ci:03d}-d{di:03d}"
            documents.append(Document(id=doc_id, source_domain=domain, text=f"text {doc_id}"))
            ids.append(doc_id)
        cluster = Cluster(id=min(ids), members=frozenset(ids))
        source = SOURCE_EXPERT if label == "positive" else SOURCE_SAMPLED
        labeled.append(LabeledCluster(cluster, label, source))
    return Corpus(documents), labeled


class TestChiSquared:
    def test_table2_statistic_and_p(self):
        result = chi_squared_test(table2_fixture(), alpha=0.05)
        expected = closed_form_2x2(165686, 125467, 155271, 154627)
        assert result.degrees_of_freedom == 1
        assert abs(result.statistic - expected) < 1e-6
        assert result.p_value < 0.00001
        assert result.rejected

    def test_balanced_table_stat_zero(self):
        table = ContingencyTable(("g1", "g2"), ("positive", "negative"), ((10, 10), (10, 10)))
        result = chi_squared_test(table)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.rejected

    def test_closed_form_on_random_2x2(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b, c, d = (rng.randrange(1, 500) for _ in range(4))
            table = ContingencyTable(("r1", "r2"), ("positive", "negative"), ((a, b), (c, d)))
            result = chi_squared_test(table)
            expected = closed_form_2x2(a, b, c, d)
            assert result.statistic == pytest.approx(expected, rel=1e-9)

    def test_p_monotone_in_statistic(self):
        for df in (1, 2, 5, 10):
            previous = 1.1
            for stat in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]:
                p = chi_squared_p_value(stat, df)
                assert p <= previous + 1e-15
                previous = p

    def test_row_and_column_permutation_invariance(self):
        table = ContingencyTable(("r1", "r2"), ("positive", "negative"), ((30, 5), (12, 40)))
        swapped_rows = ContingencyTable(("r2", "r1"), ("positive", "negative"), ((12, 40), (30, 5)))
        swapped_cols = ContingencyTable(("r1", "r2"), ("negative", "positive"), ((5, 30), (40, 12)))
        base = chi_squared_test(table).statistic
        assert chi_squared_test(swapped_rows).statistic == pytest.approx(base, rel=1e-12)
        assert chi_squared_test(swapped_cols).statistic == pytest.approx(base, rel=1e-12)

    def test_zero_expected_cell_rejected(self):
        table = ContingencyTable(("r1", "r2"), ("positive", "negative"), ((0, 0), (5, 5)))
        with pytest.raises(DegenerateTableError):
            chi_squared_test(table)

    def test_single_row_table_rejected(self):
        with pytest.raises(DegenerateTableError):
            ContingencyTable(("only",), ("positive", "negative"), ((5, 5),))

    def test_rxc_degrees_of_freedom(self):
        table = ContingencyTable(
            ("r1", "r2", "r3"), ("a", "b", "c", "d"),
            ((5, 6, 7, 8), (9, 8, 7, 6), (4, 4, 4, 4)),
        )
        assert chi_squared_test(table).degrees_of_freedom == 6


class TestChiSquaredTail:
    """The closed-form tail against scipy's regularized upper incomplete
    gamma function, Q(df/2, statistic/2)."""

    # Results under 1e-300 are compared to 1e-300 absolute: scipy flushes
    # some of them to zero, and a subnormal double carries fewer than 12
    # significant digits.
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(1, 300), st.floats(0.0, 1e5))
    def test_matches_gammaincc(self, df, statistic):
        expected = float(gammaincc(df / 2.0, statistic / 2.0))
        assert math.isclose(chi_squared_p_value(statistic, df), expected, rel_tol=1e-12, abs_tol=1e-300)

    # Each term's last bits move with the statistic, so the tail is
    # monotone to within rounding (and 1e-300 among subnormals).
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 300), st.floats(0.0, 1e5), st.floats(0.0, 1e5))
    def test_one_at_zero_and_monotone(self, df, a, b):
        assert chi_squared_p_value(0.0, df) == 1.0
        lo, hi = sorted((a, b))
        assert chi_squared_p_value(hi, df) <= chi_squared_p_value(lo, df) * (1.0 + 1e-12) + 1e-300

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10_000),
        st.floats(1e6, 1.7976931348623157e308) | st.just(math.inf),
        st.sampled_from([float, np.float64]),
    )
    def test_huge_statistic_is_zero_without_warning(self, df, statistic, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi_squared_p_value(kind(statistic), df) == 0.0

    def test_nan_statistic_rejected(self):
        with pytest.raises(InputError):
            chi_squared_p_value(math.nan, 3)

    @pytest.mark.parametrize("df", [2.5, math.nan, "2"])
    def test_non_integer_df_rejected(self, df):
        with pytest.raises(InputError):
            chi_squared_p_value(1.0, df)

    def test_numpy_integer_df_accepted(self):
        assert chi_squared_p_value(3.0, np.int64(2)) == pytest.approx(math.exp(-1.5), rel=1e-15)


class TestBonferroni:
    def result(self, p):
        return TestResult(1.0, 1, p, 0.05, p < 0.05)

    def test_single_test_unchanged_decision(self):
        out = bonferroni([self.result(0.03)], 0.05)
        assert out[0].rejected and out[0].alpha == 0.05

    def test_two_tests_at_0_03_not_rejected(self):
        out = bonferroni([self.result(0.03), self.result(0.03)], 0.05)
        assert not any(r.rejected for r in out)
        assert all(r.alpha == 0.025 for r in out)

    def test_ten_tests_exactly_one_rejected(self):
        results = [self.result(0.004)] + [self.result(0.5)] * 9
        out = bonferroni(results, 0.05)
        assert sum(r.rejected for r in out) == 1

    def test_statistic_and_p_unchanged(self):
        out = bonferroni([self.result(0.2)], 0.05)
        assert out[0].statistic == 1.0 and out[0].p_value == 0.2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            bonferroni([], 0.05)


class TestKolmogorovSmirnov:
    def test_identical_samples(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_supports(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert result.statistic == 1.0

    def test_hand_counted_statistic(self):
        assert ks_two_sample([1.0, 2.0], [1.0, 3.0]).statistic == 0.5

    def test_symmetry(self):
        rng = random.Random(5)
        a = [rng.gauss(0, 1) for _ in range(40)]
        b = [rng.gauss(0.4, 1.2) for _ in range(25)]
        assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic

    def test_monotone_transform_invariance(self):
        rng = random.Random(6)
        a = [rng.random() for _ in range(30)]
        b = [rng.random() ** 2 for _ in range(20)]
        d1 = ks_two_sample(a, b).statistic
        d2 = ks_two_sample([math.exp(x) for x in a], [math.exp(x) for x in b]).statistic
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_p_value_sane_under_null(self):
        rng = random.Random(7)
        a = [rng.gauss(0, 1) for _ in range(200)]
        b = [rng.gauss(0, 1) for _ in range(200)]
        result = ks_two_sample(a, b)
        assert result.p_value > 0.05

    # One of 2n values moved: D = 1/(2n) at effective size n, so lambda =
    # 1/(2 sqrt(n)) = 1e-3, where a 100-term alternating series gives 0.020.
    def test_large_nearly_identical_samples_not_rejected(self):
        n = 250_000
        a = [0.0] * n + [1.0] * n
        b = [0.0] * (n + 1) + [1.0] * (n - 1)
        result = ks_two_sample(a, b)
        assert result.statistic == pytest.approx(1.0 / (2 * n))
        assert result.p_value == 1.0 and not result.rejected

    @settings(max_examples=500, deadline=None)
    @given(st.floats(1e-8, 5.0))
    def test_kolmogorov_sf_matches_scipy(self, lam):
        assert abs(_kolmogorov_sf(lam) - float(kolmogorov(lam))) <= 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyInputError):
            ks_two_sample([], [1.0])

    def test_degrees_of_freedom_absent(self):
        assert ks_two_sample([1.0], [2.0]).degrees_of_freedom is None


class TestRenyiDivergence:
    def test_identical_distributions_zero(self):
        for order in (0.5, 2.0, 3.0):
            assert renyi_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5], order) == 0.0

    def test_hand_computed_ln2(self):
        assert renyi_divergence([1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(math.log(2))

    def test_support_violation_infinite(self):
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], 2.0) == math.inf

    def test_nonnegative_random(self):
        rng = random.Random(8)
        for _ in range(100):
            k = rng.randrange(2, 6)
            p = [rng.random() + 1e-3 for _ in range(k)]
            q = [rng.random() + 1e-3 for _ in range(k)]
            p = [x / sum(p) for x in p]
            q = [x / sum(q) for x in q]
            for order in (0.5, 2.0):
                assert renyi_divergence(p, q, order) >= 0.0

    def test_strictly_positive_when_different(self):
        assert renyi_divergence([0.8, 0.2], [0.3, 0.7], 2.0) > 1e-3
        assert renyi_divergence([0.8, 0.2], [0.3, 0.7], 0.5) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            renyi_divergence([1.0], [0.5, 0.5], 2.0)

    def test_invalid_order(self):
        with pytest.raises(InputError):
            renyi_divergence([1.0], [1.0], 1.0)
        with pytest.raises(InputError):
            renyi_divergence([1.0], [1.0], -2.0)

    def test_not_a_distribution(self):
        with pytest.raises(InputError):
            renyi_divergence([0.9, 0.3], [0.5, 0.5], 2.0)


class TestContingency:
    def test_document_counts_by_group(self):
        corpus, labeled = make_labeled_corpus(
            [
                ("positive", "g1", 10),
                ("negative", "g1", 10),
                ("positive", "g2", 10),
                ("negative", "g2", 10),
            ]
        )
        table = contingency(corpus, labeled, FeatureSpec("domain"))
        assert table.row_labels == ("g1", "g2")
        assert table.counts == ((10, 10), (10, 10))

    def test_single_group_degenerate(self):
        corpus, labeled = make_labeled_corpus([("positive", "only", 5), ("negative", "only", 5)])
        with pytest.raises(DegenerateTableError):
            contingency(corpus, labeled, FeatureSpec("domain"))

    def test_grouping_maps_unmapped_to_other(self):
        corpus, labeled = make_labeled_corpus(
            [("positive", "backpage.com", 3), ("negative", "foo.org", 2), ("negative", "bar.net", 2)]
        )
        feature = FeatureSpec("domain", grouping={"backpage.com": "backpage.com"})
        table = contingency(corpus, labeled, feature)
        assert table.row_labels == ("backpage.com", "other")
        assert table.counts == ((3, 0), (0, 4))

    def test_empty_labeled_rejected(self):
        corpus, _ = make_labeled_corpus([("positive", "g1", 1)])
        with pytest.raises(EmptyInputError):
            contingency(corpus, [], FeatureSpec("domain"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([POSITIVE, NEGATIVE]),
                st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_equals_a_per_document_count(self, spec):
        documents, labeled, per_doc = [], [], Counter()
        for ci, (label, domains) in enumerate(spec):
            ids = [f"c{ci:02d}-d{di}" for di in range(len(domains))]
            documents.extend(Document(id=i, source_domain=d, text="t") for i, d in zip(ids, domains))
            labeled.append(LabeledCluster(Cluster(id=ids[0], members=frozenset(ids)), label, SOURCE_EXPERT))
            per_doc.update((d, label) for d in domains)
        rows = sorted({g for g, _ in per_doc})
        try:
            table = contingency(Corpus(documents), labeled, FeatureSpec("domain"))
        except DegenerateTableError:
            assert len(rows) < 2
            return
        assert table.row_labels == tuple(rows)
        assert table.counts == tuple((per_doc[g, POSITIVE], per_doc[g, NEGATIVE]) for g in rows)

    def test_missing_member_rejected(self):
        corpus = Corpus([Document(id="a", source_domain="x", text="t")])
        cluster = Cluster(id="a", members=frozenset("ab"))
        with pytest.raises(InputError, match="'b' not in corpus"):
            group_counts([cluster], corpus, FeatureSpec("domain"))


class TestAudit:
    def test_planted_skew_flagged(self):
        corpus, labeled = make_labeled_corpus(
            [("positive", "g1", 40), ("negative", "g2", 35), ("negative", "g1", 5)]
        )
        report = audit(corpus, labeled, [FeatureSpec("domain")])
        assert report.flagged_features == ("domain",)

    def test_balanced_not_flagged(self):
        corpus, labeled = make_labeled_corpus(
            [("positive", "g1", 20), ("negative", "g1", 20), ("positive", "g2", 20), ("negative", "g2", 20)]
        )
        report = audit(corpus, labeled, [FeatureSpec("domain")])
        assert report.flagged_features == ()

    def test_constant_feature_trivially_independent(self):
        corpus, labeled = make_labeled_corpus([("positive", "g1", 10), ("negative", "g1", 10)])
        report = audit(corpus, labeled, [FeatureSpec("domain")])
        assert report.flagged_features == ()
        assert report.results["domain"].p_value == 1.0
        assert report.notes

    def test_empty_feature_list_rejected(self):
        corpus, labeled = make_labeled_corpus([("positive", "g1", 1), ("negative", "g2", 1)])
        with pytest.raises(EmptyInputError):
            audit(corpus, labeled, [])

    def test_bonferroni_applied_across_features(self):
        corpus, labeled = make_labeled_corpus(
            [("positive", "g1", 40), ("negative", "g2", 40)]
        )
        report = audit(corpus, labeled, [FeatureSpec("domain"), FeatureSpec("location")], alpha=0.05)
        assert report.results["domain"].alpha == pytest.approx(0.025)
