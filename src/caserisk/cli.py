"""Command-line pipeline driver.

Each stage subcommand reads its declared inputs, writes machine-readable
artifacts into the output directory, and prints a one-line summary.
``pipeline`` runs the same stage functions in order over one shared
``Run``, so it writes exactly the bytes that the stages run one at a time
write.  Outputs are deterministic: rerunning with the same config and
inputs reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from . import bias as bias_mod
from . import clustering as clustering_mod
from . import corpus as corpus_mod
from . import evaluate as evaluate_mod
from . import model as model_mod
from . import sampling as sampling_mod
from . import synth as synth_mod
from .config import PipelineConfig, config_help, load_config, require_paths, validate
from .errors import ConfigError, PipelineError


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _features_from_names(names: Sequence[str]) -> list[bias_mod.FeatureSpec]:
    return [bias_mod.FeatureSpec(name) for name in names]


def _load_gazetteer(config: PipelineConfig) -> Optional[corpus_mod.Gazetteer]:
    if config.gazetteer_path is None:
        return None
    return corpus_mod.Gazetteer.from_file(config.gazetteer_path)


class Run:
    """The state the stages share within one ``--out`` directory.

    Each value is what its stage stored on the run earlier in this
    process, or, on first use, what was read back from that stage's
    artifact; so a stage reads the same values whether ``pipeline`` ran
    the stages before it or they ran as separate commands.
    """

    def __init__(self, config: PipelineConfig, out: Path, export_graph: bool = False):
        self.config = config
        self.out = out
        self.export_graph = export_graph

    def _artifact(self, name: str, stage: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise ConfigError(f"{path} not found; run the {stage} stage first")
        return path

    @cached_property
    def corpus(self) -> corpus_mod.Corpus:
        corpus, _ = corpus_mod.ingest(self._artifact("corpus_clean.jsonl", "ingest"))
        return corpus

    @cached_property
    def clustering(self) -> clustering_mod.Clustering:
        return clustering_mod.read_clustering(self._artifact("clusters.csv", "cluster"))

    @cached_property
    def labeled(self) -> list[sampling_mod.LabeledCluster]:
        """Labeled clusters sorted by cluster id, as ``read_labels`` returns them."""
        labeled, _ = sampling_mod.read_labels(self._artifact("labels.csv", "sample"), self.clustering)
        return labeled

    @cached_property
    def model(self) -> model_mod.RiskModel:
        return model_mod.load_model(self._artifact("model.json", "train"))

    @cached_property
    def working(self) -> corpus_mod.Corpus:
        """The corpus that train and evaluate featurize: with
        ``paths.remove_lexicon`` set, the labeled clusters' documents (the
        only ones they read) with the lexicon removed."""
        lexicon_path = self.config.remove_lexicon_path
        if lexicon_path is None:
            return self.corpus
        with open(lexicon_path, "r", encoding="utf-8") as fh:
            lexicon = [line.strip().lower() for line in fh if line.strip()]
        ids = sorted({doc_id for lc in self.labeled for doc_id in lc.cluster.members})
        # A member missing from the corpus is left for ClusterTerms to report.
        labeled_docs = corpus_mod.Corpus([self.corpus.get(d) for d in ids if d in self.corpus])
        return corpus_mod.remove_tokens(labeled_docs, lexicon)

    @cached_property
    def terms(self) -> model_mod.ClusterTerms:
        """The labeled clusters' documents in ``working``, tokenized once
        for both train and evaluate."""
        clusters = [lc.cluster for lc in self.labeled]
        return model_mod.ClusterTerms(clusters, self.working, self.config.vocab_orders)


# --- stages -------------------------------------------------------------


def stage_ingest(run: Run) -> corpus_mod.Corpus:
    config, out = run.config, run.out
    gazetteer = _load_gazetteer(config)
    corpus, stats = corpus_mod.ingest(config.corpus_path, config.ingest_limit, gazetteer)
    run.corpus = corpus
    corpus_mod.write_corpus(corpus, out / "corpus_clean.jsonl")
    _write_json(
        out / "ingest_summary.json",
        {
            "documents": stats.ingested,
            "skipped": stats.skipped,
            "total_lines": stats.total_lines,
            "schema": sorted(corpus.schema),
        },
    )
    print(f"ingest: {stats.ingested} documents, {stats.skipped} skipped -> {out / 'corpus_clean.jsonl'}")
    return corpus


def stage_cluster(run: Run) -> clustering_mod.Clustering:
    config, out, corpus = run.config, run.out, run.corpus
    graph = clustering_mod.build_graph(corpus, config.graph)
    if config.consensus_runs == 1:
        clustering = clustering_mod.kwikcluster(graph, config.seed)
    else:
        runs = [
            clustering_mod.kwikcluster(graph, config.seed + i)
            for i in range(config.consensus_runs)
        ]
        clustering = clustering_mod.consensus(runs, config.consensus_threshold)
    if config.refine_passes > 0:
        clustering = clustering_mod.refine(clustering, graph, config.refine_passes)
    run.clustering = clustering
    clustering_mod.write_clustering(clustering, out / "clusters.csv")
    if run.export_graph:
        clustering_mod.write_graph(graph, out / "graph.csv")
    cost = clustering_mod.disagreement_cost(clustering, graph)
    _write_json(
        out / "cluster_summary.json",
        {
            "clusters": len(clustering),
            "edges": graph.edge_count(),
            "disagreement_cost": cost,
            "largest_cluster": max(clustering.sizes(), default=0),
        },
    )
    print(
        f"cluster: {len(clustering)} clusters over {len(corpus)} documents "
        f"({graph.edge_count()} edges, cost {cost}) -> {out / 'clusters.csv'}"
    )
    return clustering


def stage_sample(run: Run) -> list[sampling_mod.LabeledCluster]:
    config, out, clustering = run.config, run.out, run.clustering
    expert, missing = sampling_mod.read_labels(config.labels_path, clustering)
    positives = [lc for lc in expert if lc.label == bias_mod.POSITIVE]
    negatives = [lc for lc in expert if lc.label == bias_mod.NEGATIVE]
    if not positives:
        raise ConfigError("paths.labels: no positive clusters resolved against the clustering")
    want = max(0, round(config.sampling_ratio * len(positives)) - len(negatives))
    plan_blob: dict = {"mode": config.sampling_mode, "requested": want}
    sampled: list[sampling_mod.LabeledCluster] = []
    if want > 0:
        exclude = {lc.cluster.id for lc in expert}
        if config.sampling_mode == "random":
            sampled = sampling_mod.random_negatives(clustering, exclude, want, config.seed + 1)
        else:
            features = _features_from_names(config.sampling_features)
            sampled, plan = sampling_mod.conditioned_negatives(
                clustering,
                run.corpus,
                positives,
                features,
                want,
                config.seed + 1,
                config.size_buckets,
                exclude=exclude,
            )
            plan_blob["plan"] = plan.to_json()
    # In the order read_labels gives labels.csv back: sorted by cluster id.
    labeled = sorted(expert + sampled, key=lambda lc: lc.cluster.id)
    run.labeled = labeled
    sampling_mod.write_labels(labeled, out / "labels.csv")
    plan_blob["unresolved_label_ids"] = sorted(missing)
    plan_blob["positives"] = len(positives)
    plan_blob["negatives"] = len(negatives) + len(sampled)
    _write_json(out / "sample_summary.json", plan_blob)
    print(
        f"sample: {len(positives)} positive, {len(negatives) + len(sampled)} negative clusters "
        f"({config.sampling_mode}, {len(missing)} unresolved label ids) -> {out / 'labels.csv'}"
    )
    return labeled


def stage_diagnose(run: Run) -> bias_mod.BiasReport:
    config, out, corpus, labeled = run.config, run.out, run.corpus, run.labeled
    features = _features_from_names(config.bias_features)
    report = bias_mod.audit(corpus, labeled, features, config.alpha, config.correction)
    bias_mod.write_report(report, out / "bias_report.json", out / "bias_report.txt")

    extras: dict = {}
    pos_sizes = [float(lc.cluster.size()) for lc in labeled if lc.label == bias_mod.POSITIVE]
    neg_sizes = [float(lc.cluster.size()) for lc in labeled if lc.label == bias_mod.NEGATIVE]
    if pos_sizes and neg_sizes:
        ks = bias_mod.ks_two_sample(pos_sizes, neg_sizes, config.alpha)
        extras["cluster_size_ks"] = {
            "statistic": ks.statistic,
            "p_value": ks.p_value,
            "rejected": ks.rejected,
        }
        extras["domain_renyi_order2"] = _domain_renyi(corpus, labeled)
    _write_json(
        out / "diagnose_summary.json",
        {"flagged": list(report.flagged_features), "extras": extras},
    )
    flagged = ", ".join(report.flagged_features) or "(none)"
    print(f"diagnose: flagged features: {flagged} -> {out / 'bias_report.json'}")
    return report


def _domain_renyi(corpus, labeled) -> float:
    """Order-2 Renyi divergence of positive vs negative domain mixes."""
    pos: Counter[str] = Counter()
    neg: Counter[str] = Counter()
    for lc in labeled:
        side = pos if lc.label == bias_mod.POSITIVE else neg
        for doc_id in lc.cluster.members:
            side[corpus.get(doc_id).source_domain] += 1
    domains = sorted(set(pos) | set(neg))
    p_total, q_total = sum(pos.values()), sum(neg.values())
    p = [pos.get(d, 0) / p_total for d in domains]
    q = [neg.get(d, 0) / q_total for d in domains]
    value = bias_mod.renyi_divergence(p, q, 2.0)
    return value if value != float("inf") else -1.0  # -1 encodes infinity in JSON


def stage_train(run: Run) -> model_mod.RiskModel:
    """Train on every labeled cluster of the mitigated ``run.working``."""
    config, out, labeled = run.config, run.out, run.labeled
    vocab, x = run.terms.featurize(config.min_df, config.max_vocab, config.weighting)
    risk_model = model_mod.train((x, [lc.label for lc in labeled]), vocab, config.train)
    run.model = risk_model
    model_mod.save_model(risk_model, out / "model.json")
    ranking = model_mod.feature_importance(risk_model, config.top_k)
    with open(out / "feature_importance.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token", "weight"])
        for token, weight in ranking:
            writer.writerow([token, weight])
    fit = risk_model.metadata
    _write_json(
        out / "train_summary.json",
        {
            "examples": len(labeled),
            "vocabulary": len(vocab),
            "final_objective": fit["final_objective"],
            "epochs": fit["epochs"],
            "converged": fit["converged"],
            "grad_norm": fit["grad_norm"],
        },
    )
    if fit["converged"]:
        solver = f"converged in {fit['epochs']} iterations"
    else:
        solver = f"stopped unconverged after {fit['epochs']} iterations, gradient {fit['grad_norm']:.2e}"
    print(
        f"train: {len(labeled)} cluster examples, vocab {len(vocab)}, "
        f"objective {fit['final_objective']:.5f} ({solver}) -> {out / 'model.json'}"
    )
    return risk_model


def stage_evaluate(run: Run) -> evaluate_mod.EvalReport:
    """Cross-validate on the mitigated ``run.working``; the top features
    are those of the train stage's model."""
    config, out, labeled = run.config, run.out, run.labeled
    risk_model = run.model  # before the folds, so a missing model.json fails fast
    working = run.working
    features = _features_from_names(config.bias_features)
    plan = evaluate_mod.make_folds(
        working,
        labeled,
        config.folds,
        features,
        config.alpha,
        config.seed + 2,
    )
    _write_json(out / "fold_plan.json", plan.to_json())
    report = evaluate_mod.cross_validate(
        working,
        labeled,
        plan,
        config.vocab_orders,
        config.min_df,
        config.max_vocab,
        config.weighting,
        config.train,
        features,
        config.alpha,
        top_k=0,
        terms=run.terms,
    )
    report.top_features = tuple(model_mod.feature_importance(risk_model, config.top_k))
    evaluate_mod.write_report(
        report, out / "eval_report.json", out / "roc.csv", out / "eval_report.txt", plan
    )
    fold_aucs = ", ".join(f"{a:.3f}" for a in report.fold_aucs)
    rejected = ", ".join(plan.flagged()) or "none"
    print(
        f"evaluate: pooled AUC {report.auc:.4f} (folds: {fold_aucs}; "
        f"{report.converged_folds} of {plan.k} fits converged; "
        f"homogeneity rejected: {rejected}) -> {out / 'eval_report.json'}"
    )
    return report


def stage_indicators(run: Run) -> int:
    config, out, corpus, clustering = run.config, run.out, run.corpus, run.clustering
    rules = model_mod.load_rules(config.rules_path)
    rule_names = [r.name for r in rules]
    with open(out / "indicators.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id"] + rule_names)
        for cluster in clustering:
            flags = model_mod.apply_indicators(cluster, corpus, rules)
            writer.writerow([cluster.id] + [str(flags[n]).lower() for n in rule_names])
    print(f"indicators: {len(rule_names)} rules over {len(clustering)} clusters -> {out / 'indicators.csv'}")
    return len(rule_names)


# --- commands -----------------------------------------------------------


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = PipelineConfig()
    for attr in ("corpus_path", "labels_path", "gazetteer_path", "rules_path"):
        flag = attr.replace("_path", "")
        value = getattr(args, flag, None)
        if value:
            setattr(config, attr, value)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "mode", None):
        config.sampling_mode = args.mode
    validate(config)
    return config


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args: argparse.Namespace) -> int:
    config = synth_mod.SynthConfig(
        num_clusters=args.num_clusters,
        positive_fraction=args.positive_fraction,
        domain_skew=args.domain_skew,
        duplication_rate=args.duplication,
        vocab_size=args.vocab_size,
        doc_tokens=args.doc_tokens,
        seed=args.seed if args.seed is not None else 0,
    )
    result = synth_mod.generate(config)
    paths = synth_mod.write_artifacts(result, _out_dir(args))
    n_pos = len(result.positive_ids())
    print(
        f"synth: {len(result.corpus)} documents in {len(result.clustering)} clusters "
        f"({n_pos} positive) -> {paths['corpus']}"
    )
    return 0


# The stages in pipeline order, by name: each stage function is looked up in
# this module when it runs, so a wrapper bound over ``stage_<name>`` after
# import (as bench/tracer.py binds one) is the function that runs.
STAGES = ("ingest", "cluster", "sample", "diagnose", "train", "evaluate", "indicators")
# The path keys each stage reads: (required, read only when set).
STAGE_PATHS = {
    "ingest": (("paths.corpus",), ("paths.gazetteer",)),
    "sample": (("paths.labels",), ()),
    "train": ((), ("paths.remove_lexicon",)),
    "evaluate": ((), ("paths.remove_lexicon",)),
    "indicators": (("paths.rules",), ()),
}


def _require_stage_paths(config: PipelineConfig, names: Sequence[str]) -> None:
    """Fail with ``ConfigError`` before any of the named stages runs when a
    path one of them reads is missing."""
    paths = [STAGE_PATHS.get(name, ((), ())) for name in names]
    required = [key for keys, _ in paths for key in keys]
    optional = tuple(key for _, keys in paths for key in keys)
    require_paths(config, *required, optional=optional)


def _run_stage(name: str, run: Run) -> None:
    globals()[f"stage_{name}"](run)


def cmd_stage(args: argparse.Namespace) -> int:
    """Run the one stage named by the subcommand."""
    if getattr(args, "table2", False):
        table = synth_mod.table2_fixture()
        result = bias_mod.chi_squared_test(table, 0.05)
        print(
            f"diagnose: table2 chi-squared statistic {result.statistic:.1f}, "
            f"df {result.degrees_of_freedom}, p {result.p_value:.3g} "
            f"({'rejected' if result.rejected else 'not rejected'} at alpha 0.05)"
        )
        return 0
    config = _build_config(args)
    _require_stage_paths(config, [args.command])
    run = Run(config, _out_dir(args), getattr(args, "export_graph", False))
    _run_stage(args.command, run)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run every stage in order over one run; ``indicators`` only with
    ``paths.rules`` set.  Every path the stages read is checked before the
    first one runs.  A ``ConfigError`` exits 2, as from a single stage."""
    config = _build_config(args)
    names = [name for name in STAGES if name != "indicators" or config.rules_path is not None]
    _require_stage_paths(config, names)
    run = Run(config, _out_dir(args), args.export_graph)
    for name in names:
        try:
            _run_stage(name, run)
        except (PipelineError, OSError) as exc:
            print(f"pipeline failed at stage {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ConfigError) else 1
    print(f"pipeline: all stages complete -> {run.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caserisk",
        description="Bias-aware cluster-level risk scoring pipeline",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config file")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    common(p)
    p.add_argument("--num-clusters", type=int, default=200)
    p.add_argument("--positive-fraction", type=float, default=0.3)
    p.add_argument("--domain-skew", type=float, default=0.0)
    p.add_argument("--duplication", type=float, default=0.0)
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--doc-tokens", type=int, default=30)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="ingest and normalize a corpus file")
    common(p)
    p.add_argument("--corpus", help="override paths.corpus")
    p.add_argument("--gazetteer", help="override paths.gazetteer")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("cluster", help="build the similarity graph and cluster it")
    common(p)
    p.add_argument("--export-graph", action="store_true", help="also write graph.csv")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("sample", help="draw noisy negative labels")
    common(p)
    p.add_argument("--labels", help="override paths.labels")
    p.add_argument("--mode", choices=["random", "conditioned"], help="override sampling.mode")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("diagnose", help="audit labeled data for feature-class dependence")
    common(p)
    p.add_argument("--table2", action="store_true", help="run the built-in 2x2 fixture instead")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("train", help="train the risk model on all labeled clusters")
    common(p)
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("evaluate", help="conditioned cross-validation with pooled AUC")
    common(p)
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("indicators", help="evaluate indicator rules per cluster")
    common(p)
    p.add_argument("--rules", help="override paths.rules")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("pipeline", help="run every stage in order")
    common(p)
    p.add_argument("--export-graph", action="store_true", help="also write graph.csv")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error [{args.command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
