"""Synthetic corpus generator: determinism, planted structure, bias knobs."""

import pytest

from caserisk.bias import FeatureSpec, chi_squared_test, contingency
from caserisk.clustering import GraphConfig, adjusted_rand, build_graph, kwikcluster
from caserisk.corpus import write_corpus
from caserisk.errors import DegenerateTableError, InputError
from caserisk.sampling import SOURCE_EXPERT, LabeledCluster, random_negatives
from caserisk.synth import SynthConfig, generate, table2_fixture, write_artifacts


def labeled_from_truth(result):
    return [
        LabeledCluster(result.clustering.get(cid), label, SOURCE_EXPERT)
        for cid, label in sorted(result.labels.items())
    ]


class TestGenerate:
    def test_counts_and_partition(self):
        result = generate(SynthConfig(num_clusters=50, seed=3))
        assert len(result.clustering) == 50
        assert sum(result.clustering.sizes()) == len(result.corpus)
        assert set(result.labels) == {c.id for c in result.clustering}

    def test_deterministic_bytes(self, tmp_path):
        config = SynthConfig(num_clusters=40, domain_skew=0.5, duplication_rate=0.2, seed=9)
        a = generate(config)
        b = generate(config)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(a.corpus, path_a)
        write_corpus(b.corpus, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_shared_phone_per_cluster(self):
        result = generate(SynthConfig(num_clusters=20, seed=1))
        for cluster in result.clustering:
            phones = {result.corpus.get(d).phones for d in cluster.members}
            assert len(phones) == 1

    def test_full_duplication_copies_text(self):
        result = generate(SynthConfig(num_clusters=20, duplication_rate=1.0, seed=2))
        for cluster in result.clustering:
            texts = {result.corpus.get(d).text for d in cluster.members}
            assert len(texts) == 1

    def test_validation_names_field(self):
        with pytest.raises(InputError) as err:
            generate(SynthConfig(num_clusters=1))
        assert "num_clusters" in str(err.value)
        with pytest.raises(InputError) as err:
            generate(SynthConfig(domain_skew=1.5))
        assert "domain_skew" in str(err.value)

    def test_recovery_by_phone_blocking(self):
        result = generate(SynthConfig(num_clusters=60, seed=4))
        graph = build_graph(result.corpus, GraphConfig(use_text=False))
        recovered = kwikcluster(graph, 17)
        assert adjusted_rand(recovered, result.clustering) == pytest.approx(1.0)

    def test_total_skew_rejects_hard(self):
        result = generate(
            SynthConfig(num_clusters=150, positive_fraction=0.3, domain_skew=1.0, seed=5)
        )
        labeled = labeled_from_truth(result)
        assert len(result.corpus) >= 1000
        table = contingency(result.corpus, labeled, FeatureSpec("domain"))
        assert chi_squared_test(table).p_value < 1e-5

    def test_no_skew_null_rejection_rate(self):
        # Under beta=0 the chi-squared false-positive rate stays near alpha.
        # Singleton clusters (size_rho=1) make documents the sampling unit;
        # with multi-document clusters the document-level test is inflated
        # by intra-cluster correlation, which is the i.i.d. failure the
        # cluster-level pipeline exists to avoid.
        rejections = 0
        runs = 120
        for seed in range(runs):
            result = generate(
                SynthConfig(num_clusters=60, domain_skew=0.0, size_rho=1.0, seed=seed)
            )
            positives = [
                LabeledCluster(result.clustering.get(cid), "positive", SOURCE_EXPERT)
                for cid in result.positive_ids()
            ]
            negatives = random_negatives(
                result.clustering, {lc.cluster.id for lc in positives},
                len(positives), seed + 1000,
            )
            try:
                table = contingency(result.corpus, positives + negatives, FeatureSpec("domain"))
                if chi_squared_test(table, alpha=0.05).rejected:
                    rejections += 1
            except DegenerateTableError:
                pass
        # alpha fraction plus ~2.5 binomial standard errors of slack
        assert rejections <= runs * 0.05 + 2.5 * (runs * 0.05 * 0.95) ** 0.5

    def test_cluster_level_signal_flag(self):
        result = generate(
            SynthConfig(
                num_clusters=30,
                cluster_level_signal=True,
                signal_tokens={"marker": (1.0, 0.0)},
                duplication_rate=0.0,
                seed=6,
            )
        )
        for cid, label in result.labels.items():
            cluster = result.clustering.get(cid)
            hits = ["marker" in result.corpus.get(d).text.split() for d in cluster.members]
            if label == "positive":
                assert all(hits)
            else:
                assert not any(hits)


class TestTable2Fixture:
    def test_exact_counts(self):
        table = table2_fixture()
        assert table.counts == ((165686, 125467), (155271, 154627))

    def test_totals(self):
        table = table2_fixture()
        assert table.total() == 601051
        assert table.col_totals() == [320957, 280094]
        assert table.row_totals() == [291153, 309898]


class TestWriteArtifacts:
    def test_files_and_expert_labels(self, tmp_path):
        result = generate(SynthConfig(num_clusters=20, seed=7))
        paths = write_artifacts(result, tmp_path)
        for path in paths.values():
            assert path.exists()
        expert_lines = paths["expert_labels"].read_text().strip().splitlines()
        assert expert_lines[0] == "cluster_id,label,source"
        assert len(expert_lines) - 1 == len(result.positive_ids())
        domains = paths["domain_lexicon"].read_text().split()
        assert set(domains) == set(result.config.domains)
