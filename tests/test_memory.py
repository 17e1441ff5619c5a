"""Peak-memory regression: the import floor, which holds no scipy module,
and the graph build, the n-gram counts (all of them, and those that can
reach a min_df of 2) and cross-validation on 10k documents.

Each measurement runs in a fresh interpreter, which reports how far the
measured step raised ``ru_maxrss``, the peak resident set.  Peak RSS is
what the operating system charges, so it sees the allocations that
tracemalloc does not (numpy's hash tables, the allocator's free lists).
The last tests check in process that cross-validation's folds count
and featurize without copies, and get the same results as with them, and
what an ingested corpus and a fitted vocabulary hold.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from sparse_rows import from_scipy, membership_means, scipy_rows

from caserisk import evaluate, synth
from caserisk._sparse import ranges
from caserisk.clustering import Clustering, read_clustering
from caserisk.corpus import Corpus, ingest
from caserisk.evaluate import make_folds
from caserisk.model import (
    ClusterTerms,
    _document_frequency,
    _document_rows,
    _fit_vocabulary,
    _idf,
    _stacked,
    _unit_rows,
)
from caserisk.sampling import read_labels

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = 10_000

# Each bound was set at about 1.3 times the rise first measured.  On a
# 2-core x86-64 machine (Python 3.11, numpy 2.4, scipy 1.17, five runs
# each) the rises are now build_graph 12.7-12.9 MB, ClusterTerms
# 22.2 MB and ClusterTerms counted at min_df 2, as the pipeline counts
# them, 18.6-18.8 MB.  cross_validate rose 7.8-7.9 MB, where
# counting each fold's document frequency over one int64 copy of its
# column indices rose 10.6-12.0 MB; its bound lies between the two.  A
# fold's copy of its training rows does not show in this rise;
# test_folds_train_on_views_of_the_feature_rows guards that.
BOUNDS_MB = {"build_graph": 15.0, "cluster_terms": 24.0, "pruned_terms": 24.0, "cross_validate": 9.0}
# About 1.3 times the rise of importing caserisk.cli over numpy alone,
# 3.8-3.9 MB on the same machine (five runs); importing scipy.sparse as
# well made the import's peak 52 MB where it is now 31 MB.
IMPORT_BOUND_MB = 5.0
# What a fitted 50,000-gram vocabulary may hold, as tracemalloc counts it.
VOCABULARY_BOUND_MB = 4.0
# What the ingested 10k corpus may hold, as tracemalloc counts it: about 1.3
# times the 4.5 MB measured on the same machine, where documents that each
# held their own domain, phones, locations, date and extras held 7.9 MB.
CORPUS_BOUND_MB = 5.9

CHILD = """
import json, resource, sys
from caserisk.clustering import Cluster, GraphConfig, build_graph, read_clustering
from caserisk.corpus import ingest
from caserisk.evaluate import cross_validate, make_folds
from caserisk.model import ClusterTerms
from caserisk.sampling import LabeledCluster, read_labels

call, corpus_path, clusters_path, labels_path = sys.argv[1:5]
corpus, _ = ingest(corpus_path)
clustering = read_clustering(clusters_path)
if call == "build_graph":
    config = GraphConfig(use_location_date=True)
    step = lambda: build_graph(corpus, config)
elif call == "cluster_terms":
    clusters = list(clustering)
    step = lambda: ClusterTerms(clusters, corpus, orders=(1, 2))
elif call == "pruned_terms":
    # As the pipeline counts them: only grams that can reach model.min_df.
    clusters = list(clustering)
    step = lambda: ClusterTerms(clusters, corpus, orders=(1, 2), min_df=2)
else:
    # Every document its own cluster, and at most 3,000 grams, so that the
    # feature rows, not the vocabulary, set each fold's peak.
    labeled = [
        LabeledCluster(Cluster(id=doc_id, members=frozenset([doc_id])), lc.label, lc.source)
        for lc in read_labels(labels_path, clustering)[0]
        for doc_id in sorted(lc.cluster.members)
    ]
    plan = make_folds(corpus, labeled, 5, seed=7)
    terms = ClusterTerms([lc.cluster for lc in labeled], corpus, orders=(1, 2))
    step = lambda: cross_validate(terms, labeled, plan, min_df=2, max_vocab=3000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
step()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rise_mb": (after - before) / 1024}))
"""

IMPORT_CHILD = """
import json, resource, sys
import numpy
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import caserisk.cli
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"rise_mb": (after - before) / 1024, "scipy": scipy}))
"""

PIPELINE_CHILD = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now fails
from caserisk.cli import main
from caserisk.clustering import read_clustering
from caserisk.corpus import ingest
from caserisk.model import _stacked, build_vocabulary, train, vectorize_cluster, vectorize_document
from caserisk.sampling import read_labels

conf, out = sys.argv[1:3]
rc = main(["pipeline", "--export-graph", "--config", conf, "--out", out])
corpus, _ = ingest(f"{out}/corpus_clean.jsonl")
labeled, _ = read_labels(f"{out}/labels.csv", read_clustering(f"{out}/clusters.csv"))
vocab = build_vocabulary(corpus.documents, (1, 2))
x = _stacked([vectorize_cluster(lc.cluster, corpus, vocab) for lc in labeled], len(vocab))
model = train((x, [lc.label for lc in labeled]), vocab)
scores = model.scores(vectorize_document(corpus.documents[0], vocab))
print(json.dumps({"rc": rc, "scored": len(scores)}))
"""


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter and return its last line as JSON.

    The interpreter is forked from a shell, not from this process: Linux
    carries a process's peak RSS across exec, so a child spawned from
    pytest would start with pytest's peak as its own.  The ``exit`` after
    the command keeps the shell from exec-ing it in its own place.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A link-heavy corpus: a small vocabulary and duplicated texts make
    many shared shingles; every document has a phone, a location and a
    date."""
    out = tmp_path_factory.mktemp("memory")
    config = synth.SynthConfig(
        num_clusters=DOCS // 7 + 20, seed=303, vocab_size=800, duplication_rate=0.3
    )
    result = synth.generate(config)
    kept = result.corpus.documents[:DOCS]
    ids = {doc.id for doc in kept}
    clustering = Clustering.from_member_sets(
        c.members & ids for c in result.clustering if c.members & ids
    )
    result = synth.SynthResult(
        corpus=Corpus(kept),
        clustering=clustering,
        labels={c.id: result.labels[c.id] for c in clustering},
        config=config,
    )
    paths = synth.write_artifacts(result, out)
    assert len(kept) == DOCS
    return paths["corpus"], paths["clusters"], paths["labels"]


@pytest.fixture(scope="module")
def import_probe():
    return run_child(IMPORT_CHILD)


def test_import_leaves_out_scipy(import_probe):
    assert import_probe["scipy"] == []


def test_pipeline_runs_without_scipy(tmp_path):
    """Every stage, with bigrams, location-date links, consensus, a
    gazetteer, a removal lexicon and rules, and then ``vectorize_document``,
    ``vectorize_cluster``, ``train`` and ``RiskModel.scores`` run where
    every import of scipy fails."""
    config = synth.SynthConfig(num_clusters=40, seed=3, positive_fraction=0.4)
    paths = synth.write_artifacts(synth.generate(config), tmp_path / "in")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"name": "contacts", "kind": "min_distinct_phones", "k": 2}]))
    conf = tmp_path / "p.conf"
    conf.write_text(
        f"paths.corpus = {paths['corpus']}\npaths.labels = {paths['expert_labels']}\n"
        f"paths.gazetteer = {paths['gazetteer']}\npaths.remove_lexicon = {paths['domain_lexicon']}\n"
        f"paths.rules = {rules}\nmodel.orders = 1,2\nmodel.min_df = 1\neval.folds = 3\n"
        "clustering.use_location_date = true\nclustering.consensus_runs = 3\nclustering.refine_passes = 1\n"
    )
    probe = run_child(PIPELINE_CHILD, conf, tmp_path / "run")
    assert probe == {"rc": 0, "scored": 1}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_import_rss_rise_bounded(import_probe):
    rise = import_probe["rise_mb"]
    assert rise <= IMPORT_BOUND_MB, f"import caserisk.cli raised peak RSS by {rise:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize("call", sorted(BOUNDS_MB))
def test_peak_rss_rise_bounded(inputs, call):
    rise = run_child(CHILD, call, *inputs)["rise_mb"]
    assert rise <= BOUNDS_MB[call], f"{call} raised peak RSS by {rise:.1f} MB"


def fold_world(inputs):
    corpus, _ = ingest(inputs[0])
    clustering = read_clustering(inputs[1])
    labeled, _ = read_labels(inputs[2], clustering)
    plan = make_folds(corpus, labeled, 5, seed=7)
    folds = np.array([plan.assignment[lc.cluster.id] for lc in labeled])
    return corpus, labeled, plan, folds, ClusterTerms([lc.cluster for lc in labeled], corpus, orders=(1, 2))


def test_split_featurization_matches_copies(inputs):
    """Each fold's subtracted document frequencies equal a direct bincount
    over its training rows, and its fit-first rows equal, bit for bit,
    ``x[train_idx]`` and ``x[test_idx]`` of the rows in sequence order."""
    _, _, _, folds, terms = fold_world(inputs)
    counts, sizes = terms.counts, np.diff(terms.doc_ptr)
    for fold in range(5):
        fit = folds != fold
        train_idx, test_idx = np.flatnonzero(fit), np.flatnonzero(~fit)
        in_fit = np.repeat(fit, sizes)
        direct = np.bincount(counts.indices[np.repeat(in_fit, np.diff(counts.indptr))], minlength=counts.shape[1])
        np.testing.assert_array_equal(terms.df - _document_frequency(counts, ~in_fit), direct)

        vocab, x = terms.featurize(2, None, "tfidf", fit=fit)
        expected, cols, df = _fit_vocabulary(direct, int(in_fit.sum()), terms.grams, terms.orders, 2, None)
        assert vocab.terms == expected.terms and vocab.df == expected.df
        columns = from_scipy(scipy_rows(counts)[:, cols])
        means = membership_means(_document_rows(columns, _idf(df, vocab.n_docs)), terms.doc_ptr)
        whole = _unit_rows(_stacked([means], len(cols)))
        for part, (start, stop) in ((train_idx, (0, len(train_idx))), (test_idx, (len(train_idx), x.shape[0]))):
            view, lengths = x.row_view(start, stop), whole.lengths()[part]
            copy = ranges(whole.indptr[part], lengths)  # the entries of rows ``part``
            np.testing.assert_array_equal(view.indptr, np.concatenate(([0], np.cumsum(lengths))))
            np.testing.assert_array_equal(view.indices, whole.indices[copy])
            assert view.data.tobytes() == whole.data[copy].tobytes()


def test_ingested_corpus_shares_repeated_values(inputs):
    """Ingest keeps one object per repeated domain, phone tuple, location
    tuple and date, and one empty extras mapping, so the corpus costs about
    its texts and ids."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus, _ = ingest(inputs[0])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == DOCS
    assert held <= CORPUS_BOUND_MB * 2**20, f"the ingested corpus holds {held / 2**20:.1f} MB"


def test_vocabulary_holds_its_columns_compactly(inputs):
    """A fitted vocabulary is a tuple of grams and a tuple of counts: on a
    2-core x86-64 machine (Python 3.11) 50,000 unigrams and bigrams hold
    3.7 MB, where gram-keyed index and df dicts held 7.9 MB.  It builds
    no gram-to-column map until one is looked up."""
    corpus, _ = ingest(inputs[0])
    terms = ClusterTerms(list(read_clustering(inputs[1])), corpus, orders=(1, 2))
    df = terms.df
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vocab = _fit_vocabulary(df, DOCS, terms.grams, terms.orders, 1, 50_000)[0]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(vocab) == 50_000 and "index" not in vars(vocab)
    assert held <= VOCABULARY_BOUND_MB * 2**20, f"the vocabulary holds {held / 2**20:.1f} MB"


def test_folds_train_on_views_of_the_feature_rows(inputs, monkeypatch):
    """Every fold model is trained on rows that share memory with the
    matrix ``featurize`` returned: no fold copies its training rows."""
    corpus, labeled, plan, folds, terms = fold_world(inputs)
    matrices, trained_on = [], []
    featurize, fit_model = ClusterTerms.featurize, evaluate.train

    def recording_featurize(self, *args, **kwargs):
        vocab, x = featurize(self, *args, **kwargs)
        matrices.append(x)
        return vocab, x

    def recording_train(examples, *args, **kwargs):
        trained_on.append(examples[0])
        return fit_model(examples, *args, **kwargs)

    monkeypatch.setattr(ClusterTerms, "featurize", recording_featurize)
    monkeypatch.setattr(evaluate, "train", recording_train)
    evaluate.cross_validate(terms, labeled, plan, min_df=2)
    assert len(trained_on) == len(matrices) == 5
    for x, rows, fold in zip(matrices, trained_on, range(5)):
        assert rows.shape[0] == np.count_nonzero(folds != fold)
        assert np.shares_memory(rows.data, x.data) and np.shares_memory(rows.indices, x.indices)
