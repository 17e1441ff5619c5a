"""Per-layer tracing of ``caserisk`` from outside the package.

``Tracer.install`` replaces public functions with wrappers in every loaded
``caserisk`` module that binds them, so a name imported with ``from .model
import train`` is traced as well as one reached as ``model_mod.train``.
Timed wrappers record a span (name, start, end, parent); hot functions get
count-only wrappers, so tracing does not swamp what it measures.  Spans are
kept in memory and written once, after the pipeline has finished.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> public functions recorded as spans.  Metric names drop the
# module prefix's "stage_" so that cli.stage_train reports as cli.train_s.
TIMED = {
    "cli": (
        "stage_ingest",
        "stage_cluster",
        "stage_sample",
        "stage_diagnose",
        "stage_train",
        "stage_evaluate",
    ),
    "corpus": ("ingest", "write_corpus", "remove_tokens"),
    "clustering": ("build_graph", "kwikcluster", "consensus", "refine", "disagreement_cost"),
    "sampling": ("read_labels", "conditioned_negatives"),
    "bias": ("audit",),
    "model": ("build_vocabulary", "vectorize_cluster", "train"),
    "evaluate": ("make_folds", "cross_validate"),
}
# Called once per document or more: counted, never timed.
COUNTED = {"clustering": ("shingles",), "model": ("vectorize_document",)}


def _metric_base(module: str, func: str) -> str:
    return f"{module}.{func.removeprefix('stage_')}"


def _observe_ingest(values: Counter, result) -> None:
    _, stats = result
    values["corpus.ingest_docs"] += stats.ingested
    values["corpus.ingest_skipped"] += stats.skipped


def _observe_graph(values: Counter, graph) -> None:
    from caserisk.clustering import SIGNAL_LOCATION_DATE, SIGNAL_PHONE, SIGNAL_TEXT

    values["clustering.edges"] += graph.edge_count()
    by_signal = Counter(signal for provenance in graph.edges.values() for signal in provenance)
    values["clustering.edges_phone"] += by_signal[SIGNAL_PHONE]
    values["clustering.edges_text"] += by_signal[SIGNAL_TEXT]
    values["clustering.edges_location_date"] += by_signal[SIGNAL_LOCATION_DATE]


def _observe_clusters(values: Counter, clustering) -> None:
    values["clustering.clusters"] = len(clustering)


def _observe_cost(values: Counter, cost) -> None:
    values["clustering.disagreement_cost"] = cost


def _observe_sampling(values: Counter, result) -> None:
    _, plan = result
    values["sampling.deficit"] += plan.reallocated()


def _observe_labeled(values: Counter, labeled) -> None:
    values["labeled_docs"] = sum(lc.cluster.size() for lc in labeled)


def _observe_train(values: Counter, model) -> None:
    values["model.solver_epochs"] += model.metadata["epochs"]


def _observe_stage_train(values: Counter, model) -> None:
    values["model.vocab_size"] = len(model.vocabulary)


def _observe_folds(values: Counter, plan) -> None:
    values["evaluate.fold_attempts"] += plan.attempts


# (module, function) -> reads a count from what the call returned.
OBSERVERS = {
    ("corpus", "ingest"): _observe_ingest,
    ("clustering", "build_graph"): _observe_graph,
    ("cli", "stage_cluster"): _observe_clusters,
    ("clustering", "disagreement_cost"): _observe_cost,
    ("sampling", "conditioned_negatives"): _observe_sampling,
    ("cli", "stage_sample"): _observe_labeled,
    ("model", "train"): _observe_train,
    ("cli", "stage_train"): _observe_stage_train,
    ("evaluate", "make_folds"): _observe_folds,
}


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.values: Counter = Counter()
        self._open: list[dict] = []

    def install(self) -> None:
        """Wrap the traced functions wherever a caserisk module binds them."""
        import caserisk.cli  # noqa: F401  (loads every traced module)

        wrappers = {}  # id of the original function -> its wrapper
        for module, funcs in TIMED.items():
            for func in funcs:
                original = getattr(sys.modules[f"caserisk.{module}"], func)
                observe = OBSERVERS.get((module, func))
                wrappers[id(original)] = self._timed(original, _metric_base(module, func), observe)
        for module, funcs in COUNTED.items():
            for func in funcs:
                original = getattr(sys.modules[f"caserisk.{module}"], func)
                wrappers[id(original)] = self._counted(original, _metric_base(module, func))
        for name, mod in list(sys.modules.items()):
            if name == "caserisk" or name.startswith("caserisk."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        setattr(mod, attr, wrappers[id(value)])

    def _timed(self, func, base, observe):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "name": base,
                "start": time.perf_counter() - self.t0,
                "parent": self._open[-1]["id"] if self._open else None,
                "id": len(self.spans),
                "children_s": 0.0,
            }
            self.spans.append(span)
            self._open.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter() - self.t0
                duration = span["end"] - span["start"]
                if self._open:
                    self._open[-1]["children_s"] += duration
                self.counts[base] += 1
            if observe is not None:
                observe(self.values, result)
            return result

        return wrapper

    def _counted(self, func, base):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[base] += 1
            return func(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Inclusive seconds and call counts per traced function, plus the
        counts read from return values and the ratios built from them."""
        out: dict[str, float] = {}
        for table in (TIMED, COUNTED):
            for module, funcs in table.items():
                for func in funcs:
                    base = _metric_base(module, func)
                    out[f"{base}_calls"] = self.counts[base]
        for module, funcs in TIMED.items():
            for func in funcs:
                base = _metric_base(module, func)
                out[f"{base}_s"] = sum(
                    s["end"] - s["start"] for s in self.spans if s["name"] == base
                )
        out["evaluate.cross_validate_self_s"] = sum(
            s["end"] - s["start"] - s["children_s"]
            for s in self.spans
            if s["name"] == "evaluate.cross_validate"
        )
        out.update(self.values)
        docs = self.values["corpus.ingest_docs"]
        labeled_docs = out.pop("labeled_docs", 0)
        out["clustering.shingles_per_doc"] = out["clustering.shingles_calls"] / docs if docs else 0.0
        out["model.tokenizations_per_labeled_doc"] = (
            out["model.vectorize_document_calls"] / labeled_docs if labeled_docs else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        spans = [
            {k: s[k] for k in ("id", "name", "start", "end", "parent")} for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")
