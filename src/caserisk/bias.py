"""Statistical bias diagnostics.

Independence of a suspect feature and the class label is checked with
Pearson's chi-squared test on a contingency table of document counts,
optionally Bonferroni-corrected across features.  Distribution similarity
between classes can additionally be measured with a two-sample
Kolmogorov-Smirnov test and the Renyi divergence.  Documents are
counted by feature group in one ``group_counts`` array per cluster
sequence and feature: ``column_sums`` sums its rows into tables, and
``majority_groups`` gives the sampling strata and fold cells.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from ._sparse import CSR, summed
from .corpus import Corpus, Document, write_json
from .errors import DegenerateTableError, EmptyInputError, InputError

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class FeatureSpec:
    """A document attribute plus an optional value-to-group mapping.

    Without a grouping, each observed value is its own group; with one,
    unmapped values fall into the group "other".
    """

    name: str
    grouping: Optional[Mapping[str, str]] = None

    def group_of(self, doc: Document) -> str:
        value = self.value_of(doc)
        if self.grouping is None:
            return value
        return self.grouping.get(value, "other")

    def value_of(self, doc: Document) -> str:
        if self.name == "domain":
            return doc.source_domain
        if self.name == "location":
            return doc.locations[0] if doc.locations else "(none)"
        return doc.extras.get(self.name, "(none)")


@dataclass(frozen=True)
class ContingencyTable:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r, c = len(self.row_labels), len(self.col_labels)
        if r < 2 or c < 2:
            raise DegenerateTableError(f"need at least a 2x2 table, got {r}x{c}")
        if len(self.counts) != r or any(len(row) != c for row in self.counts):
            raise InputError("counts shape does not match labels")
        if any(v < 0 for row in self.counts for v in row):
            raise InputError("negative count")
        if self.total() == 0:
            raise DegenerateTableError("empty table")

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_totals(self) -> list[int]:
        return [sum(row) for row in self.counts]

    def col_totals(self) -> list[int]:
        return [sum(row[j] for row in self.counts) for j in range(len(self.col_labels))]


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class despite the name

    statistic: float
    degrees_of_freedom: Optional[int]
    p_value: float
    alpha: float
    rejected: bool

    def at_alpha(self, alpha: float) -> "TestResult":
        return replace(self, alpha=alpha, rejected=self.p_value < alpha)


# Below this z = statistic / 2, exp(-z) is a normal double, so the tail is
# summed in linear space; past it, in log space.
_LINEAR_Z = 700.0


def _erfcx(y: float) -> float:
    """exp(y**2) * erfc(y) for y**2 >= _LINEAR_Z, by its asymptotic series
    (A&S 7.1.23); its terms fall below 1e-17 of the sum by the seventh."""
    total = term = 1.0
    m = 0
    while abs(term) > 1e-17 * total:
        m += 1
        term *= -(2 * m - 1) / (2.0 * y * y)
        total += term
    return total / (y * math.sqrt(math.pi))


def chi_squared_p_value(statistic: float, df: int) -> float:
    """Upper-tail chi-squared probability, Q(df/2, statistic/2), in closed
    form for integer df (Abramowitz & Stegun 26.4.4-26.4.5).

    With z = statistic/2, h = 1/2 for odd df (else 0) and n = df // 2,
    Q = [erfc(sqrt(z)) if df is odd] + sum_{j<n} exp(-z) z^(j+h) / Gamma(j+h+1).
    The terms are summed in linear space while exp(-z) is a normal double,
    and in log space past that, where the result is 0.0 once it leaves the
    double range.
    """
    try:
        df = operator.index(df)
    except TypeError:
        raise InputError(f"degrees of freedom must be an integer, got {df!r}") from None
    if df < 1:
        raise InputError("degrees of freedom must be >= 1")
    if math.isnan(statistic):
        raise InputError("statistic is NaN")
    if statistic < 0:
        raise InputError("statistic must be nonnegative")
    z = float(statistic) / 2.0
    if z == 0.0:
        return 1.0
    if math.isinf(z):
        return 0.0
    n, h = divmod(df, 2)
    h /= 2.0
    if z < _LINEAR_Z:
        total = math.erfc(math.sqrt(z)) if h else 0.0
        term = math.exp(-z) * z**h / math.gamma(h + 1.0)
        for j in range(n):
            total += term
            term *= z / (j + h + 1.0)
        return min(1.0, total)
    log_z = math.log(z)
    logs = [(j + h) * log_z - math.lgamma(j + h + 1.0) for j in range(n)]
    if h:
        logs.append(math.log(_erfcx(math.sqrt(z))))
    top = max(logs)
    return min(1.0, math.exp(top - z + math.log(math.fsum(math.exp(v - top) for v in logs))))


def chi_squared_test(table: ContingencyTable, alpha: float = 0.05) -> TestResult:
    """Pearson's chi-squared test of independence on an r x c table.

    Expected counts come from the product of the margins; any zero
    expected cell makes the table degenerate.
    """
    row_totals = table.row_totals()
    col_totals = table.col_totals()
    grand = table.total()
    statistic = 0.0
    for i, row in enumerate(table.counts):
        for j, observed in enumerate(row):
            expected = row_totals[i] * col_totals[j] / grand
            if expected == 0:
                raise DegenerateTableError(
                    f"zero expected count in cell ({table.row_labels[i]}, {table.col_labels[j]})"
                )
            diff = abs(observed - expected)
            statistic += diff * diff / expected
    df = (len(table.row_labels) - 1) * (len(table.col_labels) - 1)
    p = chi_squared_p_value(statistic, df)
    return TestResult(statistic, df, p, alpha, p < alpha)


def bonferroni(results: Sequence[TestResult], family_alpha: float) -> list[TestResult]:
    """Re-decide each test at the per-test level family_alpha / m."""
    if not results:
        raise EmptyInputError("no test results to correct")
    per_test = family_alpha / len(results)
    return [r.at_alpha(per_test) for r in results]


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the limiting Kolmogorov distribution.

    From lam = 1 up, the alternating series 2 sum (-1)^(j-1) exp(-2 j^2 lam^2);
    below it, where that series converges slowly, its theta-function form
    1 - (sqrt(2 pi) / lam) sum exp(-(2j-1)^2 pi^2 / (8 lam^2)).  Both have
    converged to double precision by their tenth term.  Below lam = 0.1
    the theta sum is under 1e-50, so the result is 1.0.
    """
    if lam < 0.1:
        return 1.0
    if lam < 1.0:
        total = sum(math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * lam * lam)) for j in range(1, 11))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * total
    total = sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 11))
    return 2.0 * total


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float], alpha: float = 0.05) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the sup-distance between empirical CDFs evaluated at every pooled
    sample point; the p-value uses the asymptotic Kolmogorov distribution
    at effective size n_a * n_b / (n_a + n_b).
    """
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise EmptyInputError("both samples must be non-empty")
    a = sorted(sample_a)
    b = sorted(sample_b)
    na, nb = len(a), len(b)
    d = 0.0
    for x in sorted(set(a) | set(b)):
        fa = bisect.bisect_right(a, x) / na
        fb = bisect.bisect_right(b, x) / nb
        d = max(d, abs(fa - fb))
    effective = na * nb / (na + nb)
    p = _kolmogorov_sf(math.sqrt(effective) * d)
    return TestResult(d, None, p, alpha, p < alpha)


def renyi_divergence(p: Sequence[float], q: Sequence[float], order: float) -> float:
    """Renyi divergence D_order(P || Q) between discrete distributions.

    Conventions: terms with p_i = 0 contribute nothing; p_i > 0 on q_i = 0
    yields infinity for order > 1 (and an empty overlap yields infinity
    for order < 1).
    """
    if len(p) != len(q):
        raise InputError("distributions differ in length")
    if order <= 0 or order == 1:
        raise InputError("order must be positive and != 1")
    for name, vec in (("p", p), ("q", q)):
        if any(v < 0 for v in vec):
            raise InputError(f"{name} has a negative entry")
        if abs(sum(vec) - 1.0) > 1e-9:
            raise InputError(f"{name} does not sum to 1")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            if order > 1:
                return math.inf
            continue
        total += pi**order * qi ** (1.0 - order)
    if total == 0.0:
        return math.inf
    value = math.log(total) / (order - 1.0)
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def group_counts(clusters: Sequence, corpus: Corpus, feature: FeatureSpec) -> tuple[list[str], CSR]:
    """Each cluster's documents counted by their group of ``feature``: the
    groups, sorted, and a clusters x groups ``CSR`` of int64 counts.
    Every member id must exist in the corpus."""
    rows, ptr = corpus.cluster_rows(cluster.members for cluster in clusters)
    values = [feature.group_of(corpus.documents[k]) for k in rows.tolist()]
    groups = sorted(set(values))  # not np.unique: numpy's fixed-width strings drop trailing NULs
    code = {group: j for j, group in enumerate(groups)}
    indices = np.array([code[value] for value in values], dtype=np.int32)
    return groups, summed([CSR(ptr, indices, np.ones(len(values), dtype=np.int64), (len(ptr) - 1, len(groups)))])


def majority_groups(groups: Sequence[str], counts: CSR) -> list[str]:
    """Each row's group with the most documents; ties break to the
    lexicographically smallest group, the first of them in the row."""
    first = np.lexsort((counts.indices, -counts.data, counts.row_of_entry()))[counts.indptr[:-1]]
    return [groups[j] for j in counts.indices[first].tolist()]


def column_sums(
    groups: Sequence[str], counts: CSR, columns: Sequence[Optional[str]], col_labels: Sequence[str]
) -> dict[str, list[int]]:
    """Each group's documents summed per column, by group in sorted order:
    ``counts`` row i is summed into ``columns[i]``, one of ``col_labels``
    (which give the order of the sums), or left out where it is None.
    Groups no summed row holds are left out."""
    index = {label: j for j, label in enumerate(col_labels)}
    column = np.array([-1 if c is None else index[c] for c in columns], dtype=np.int64)
    sums = np.zeros((len(groups), len(index) + 1), dtype=np.int64)  # rows left out go to the last
    np.add.at(sums, (counts.indices, np.repeat(column, counts.lengths())), counts.data)
    return {group: row[:-1] for group, row in zip(groups, sums.tolist()) if any(row[:-1])}


def group_table(
    groups: Sequence[str], counts: CSR, columns: Sequence[Optional[str]], col_labels: Sequence[str]
) -> ContingencyTable:
    """The ``column_sums`` as a table of group x column."""
    sums = column_sums(groups, counts, columns, col_labels)
    return ContingencyTable(tuple(sums), tuple(col_labels), tuple(map(tuple, sums.values())))


def contingency(
    corpus: Corpus,
    labeled: Sequence,
    feature: FeatureSpec,
) -> ContingencyTable:
    """Document counts of feature group x class over the labeled clusters:
    their ``group_counts``, summed per class.

    `labeled` is a sequence of LabeledCluster.
    """
    if not labeled:
        raise EmptyInputError("no labeled clusters")
    groups, counts = group_counts([lc.cluster for lc in labeled], corpus, feature)
    return group_table(groups, counts, [lc.label for lc in labeled], (POSITIVE, NEGATIVE))


@dataclass(frozen=True)
class BiasReport:
    results: Mapping[str, TestResult]
    flagged_features: tuple[str, ...]
    correction: str
    notes: tuple[str, ...] = ()
    mitigation_successful: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "correction": self.correction,
            "flagged_features": list(self.flagged_features),
            "mitigation_successful": self.mitigation_successful,
            "notes": list(self.notes),
            "results": {
                name: asdict(r) for name, r in sorted(self.results.items())
            },
        }


def audit(
    corpus: Corpus,
    labeled: Sequence,
    features: Sequence[FeatureSpec],
    alpha: float = 0.05,
    correction: str = "bonferroni",
) -> BiasReport:
    """Test each feature for independence from the class label.

    A feature whose observed groups collapse to one (constant over the
    labeled set) carries no class information; it is recorded as trivially
    independent rather than an error so that fully-aligned post-mitigation
    sets can be audited.
    """
    if not features:
        raise EmptyInputError("no features to audit")
    if correction not in ("none", "bonferroni"):
        raise InputError(f"unknown correction {correction!r}")
    names = []
    raw_results = []
    notes = []
    for feature in features:
        names.append(feature.name)
        try:
            table = contingency(corpus, labeled, feature)
            raw_results.append(chi_squared_test(table, alpha))
        except DegenerateTableError:
            notes.append(f"{feature.name}: constant over labeled set; trivially independent")
            raw_results.append(TestResult(0.0, 1, 1.0, alpha, False))
    if correction == "bonferroni":
        raw_results = bonferroni(raw_results, alpha)
    results = dict(zip(names, raw_results))
    flagged = tuple(n for n in names if results[n].rejected)
    return BiasReport(results, flagged, correction, tuple(notes))


def write_report(report: BiasReport, json_path: str | Path, text_path: str | Path) -> None:
    write_json(json_path, report.to_json())
    lines = [f"bias audit (correction={report.correction})", ""]
    for name, r in sorted(report.results.items()):
        verdict = "FLAGGED" if r.rejected else "ok"
        df = "-" if r.degrees_of_freedom is None else str(r.degrees_of_freedom)
        lines.append(
            f"  {name:<20} stat={r.statistic:<12.4f} df={df:<3} p={r.p_value:.6g} "
            f"alpha={r.alpha:.6g} {verdict}"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    if report.mitigation_successful is not None:
        lines.append("")
        lines.append(f"mitigation successful: {report.mitigation_successful}")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
