"""Peak-memory regression: the graph build and the n-gram counts on 10k documents.

Each call runs in a fresh interpreter, which ingests the corpus first and
then reports how far the call raised ``ru_maxrss``, the peak resident set.
Peak RSS is what the operating system charges, so it sees the allocations
that tracemalloc does not (numpy's hash tables, the allocator's free lists).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from caserisk import synth
from caserisk.clustering import Clustering
from caserisk.corpus import Corpus

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = 10_000

# Each bound is 1.3 to 1.5 times the rise measured on a 2-core x86-64
# machine (Python 3.11, numpy 2.4, scipy 1.17): build_graph 9.9-10.2 MB
# and ClusterTerms 12.5-12.8 MB, where the np.unique-based counting they
# replaced rose 22.6 MB and 45.3 MB.
BOUNDS_MB = {"build_graph": 15.0, "cluster_terms": 17.0}

CHILD = """
import json, resource, sys
from caserisk.clustering import GraphConfig, build_graph, read_clustering
from caserisk.corpus import ingest
from caserisk.model import ClusterTerms

call, corpus_path, clusters_path = sys.argv[1:4]
corpus, _ = ingest(corpus_path)
clusters = list(read_clustering(clusters_path))
config = GraphConfig(use_location_date=True, all_pairs_cutoff=1000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if call == "build_graph":
    build_graph(corpus, config)
else:
    ClusterTerms(clusters, corpus, orders=(1, 2))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rise_mb": (after - before) / 1024}))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A link-heavy corpus: a small vocabulary and duplicated texts make
    dense rare-shingle blocks; every document has a phone, a location and
    a date."""
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
    return paths["corpus"], paths["clusters"]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
@pytest.mark.parametrize("call", sorted(BOUNDS_MB))
def test_peak_rss_rise_bounded(inputs, call):
    corpus_path, clusters_path = inputs
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, call, str(corpus_path), str(clusters_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rise = json.loads(proc.stdout.splitlines()[-1])["rise_mb"]
    assert rise <= BOUNDS_MB[call], f"{call} raised peak RSS by {rise:.1f} MB"
