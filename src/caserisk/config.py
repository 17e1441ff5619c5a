"""Pipeline configuration.

Config files are flat ``key = value`` lines with dotted section keys
(blank lines and ``#`` comments ignored).  Every key is registered below
with its type and default; unknown keys and malformed values fail
validation with the offending key named.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


@dataclass
class PipelineConfig:
    # paths
    corpus_path: Optional[str] = None
    labels_path: Optional[str] = None
    gazetteer_path: Optional[str] = None
    rules_path: Optional[str] = None
    remove_lexicon_path: Optional[str] = None
    # ingest
    ingest_limit: Optional[int] = None
    # clustering
    tau_text: float = 0.5
    shingle_len: int = 2
    use_phones: bool = True
    use_text: bool = True
    use_location_date: bool = False
    date_window_days: int = 7
    rare_shingle_df_cap: int = 10
    all_pairs_cutoff: int = 1000
    consensus_runs: int = 1
    consensus_threshold: float = 0.5
    refine_passes: int = 0
    # sampling
    sampling_mode: str = "conditioned"  # random | conditioned
    sampling_ratio: float = 1.0  # negatives per positive cluster
    sampling_features: tuple[str, ...] = ("domain",)
    size_buckets: tuple[int, ...] = (1, 2, 5, 17, 65)
    # bias
    bias_features: tuple[str, ...] = ("domain",)
    alpha: float = 0.05
    correction: str = "bonferroni"
    # model
    vocab_orders: tuple[int, ...] = (1,)
    min_df: int = 2
    max_vocab: int = 50000
    weighting: str = "tf"
    loss: str = "logistic"
    penalty: str = "l2"
    lam: float = 1e-4
    epochs: int = 300
    learning_rate: float = 0.5
    # eval
    folds: int = 5
    max_retries: int = 50
    top_k: int = 25
    # global
    seed: int = 0


# config-file key -> (attribute, parser)
KEY_REGISTRY: dict[str, tuple[str, object, str]] = {
    "paths.corpus": ("corpus_path", str, "line-delimited corpus file"),
    "paths.labels": ("labels_path", str, "expert labels CSV (cluster_id,label[,source])"),
    "paths.gazetteer": ("gazetteer_path", str, "location lexicon, one lowercase term per line"),
    "paths.rules": ("rules_path", str, "indicator rules JSON"),
    "paths.remove_lexicon": ("remove_lexicon_path", str, "tokens to delete before featurization"),
    "ingest.limit": ("ingest_limit", int, "cap on ingested records"),
    "clustering.tau_text": ("tau_text", float, "text similarity edge threshold in [0,1]"),
    "clustering.shingle_len": ("shingle_len", int, "word shingle length"),
    "clustering.use_phones": ("use_phones", _parse_bool, "enable shared-phone signal"),
    "clustering.use_text": ("use_text", _parse_bool, "enable text-shingle signal"),
    "clustering.use_location_date": ("use_location_date", _parse_bool, "enable location+date signal"),
    "clustering.date_window_days": ("date_window_days", int, "date window for location signal"),
    "clustering.rare_shingle_df_cap": ("rare_shingle_df_cap", int, "max document frequency for a blocking shingle"),
    "clustering.all_pairs_cutoff": ("all_pairs_cutoff", int, "corpus size above which blocking replaces all-pairs"),
    "clustering.consensus_runs": ("consensus_runs", int, "KWIKCLUSTER runs combined by consensus (1 = single run)"),
    "clustering.consensus_threshold": ("consensus_threshold", float, "co-association fraction in (0,1]"),
    "clustering.refine_passes": ("refine_passes", int, "local-search passes (0 = off)"),
    "sampling.mode": ("sampling_mode", str, "random | conditioned"),
    "sampling.ratio": ("sampling_ratio", float, "negative clusters per positive cluster"),
    "sampling.features": ("sampling_features", _parse_str_list, "attributes to condition on"),
    "sampling.size_buckets": ("size_buckets", _parse_int_list, "cluster-size bucket lower bounds"),
    "bias.features": ("bias_features", _parse_str_list, "attributes audited for class dependence"),
    "bias.alpha": ("alpha", float, "significance level"),
    "bias.correction": ("correction", str, "none | bonferroni"),
    "model.orders": ("vocab_orders", _parse_int_list, "n-gram orders, subset of 1,2,3"),
    "model.min_df": ("min_df", int, "min document frequency for vocabulary"),
    "model.max_vocab": ("max_vocab", int, "vocabulary size cap"),
    "model.weighting": ("weighting", str, "tf | tfidf"),
    "model.loss": ("loss", str, "logistic | hinge"),
    "model.penalty": ("penalty", str, "l2 | l1"),
    "model.lambda": ("lam", float, "penalty strength"),
    "model.epochs": ("epochs", int, "gradient descent epochs"),
    "model.learning_rate": ("learning_rate", float, "initial learning rate"),
    "eval.folds": ("folds", int, "cross-validation fold count"),
    "eval.max_retries": ("max_retries", int, "fold reshuffle budget"),
    "eval.top_k": ("top_k", int, "features reported by importance"),
    "seed": ("seed", int, "master seed"),
}


def load_config(path: str | Path) -> PipelineConfig:
    config = PipelineConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in KEY_REGISTRY:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            attr, parser, _ = KEY_REGISTRY[key]
            try:
                setattr(config, attr, parser(raw))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    validate(config)
    return config


def _key_for_attr(attr: str) -> str:
    for key, (name, _, _) in KEY_REGISTRY.items():
        if name == attr:
            return key
    return attr


def validate(config: PipelineConfig) -> None:
    checks = [
        ("tau_text", 0.0 <= config.tau_text <= 1.0),
        ("shingle_len", config.shingle_len >= 1),
        ("rare_shingle_df_cap", config.rare_shingle_df_cap >= 1),
        ("all_pairs_cutoff", config.all_pairs_cutoff >= 0),
        ("consensus_runs", config.consensus_runs >= 1),
        ("consensus_threshold", 0.0 < config.consensus_threshold <= 1.0),
        ("refine_passes", config.refine_passes >= 0),
        ("sampling_mode", config.sampling_mode in ("random", "conditioned")),
        ("sampling_ratio", config.sampling_ratio > 0),
        ("size_buckets", bool(config.size_buckets) and min(config.size_buckets) == 1),
        ("alpha", 0.0 < config.alpha < 1.0),
        ("correction", config.correction in ("none", "bonferroni")),
        ("vocab_orders", bool(config.vocab_orders) and set(config.vocab_orders) <= {1, 2, 3}),
        ("min_df", config.min_df >= 1),
        ("max_vocab", config.max_vocab >= 1),
        ("weighting", config.weighting in ("tf", "tfidf")),
        ("loss", config.loss in ("logistic", "hinge")),
        ("penalty", config.penalty in ("l2", "l1")),
        ("lam", config.lam >= 0),
        ("epochs", config.epochs >= 1),
        ("learning_rate", config.learning_rate > 0),
        ("folds", config.folds >= 2),
        ("max_retries", config.max_retries >= 0),
        ("top_k", config.top_k >= 0),
        ("ingest_limit", config.ingest_limit is None or config.ingest_limit >= 0),
    ]
    for attr, ok in checks:
        if not ok:
            raise ConfigError(f"invalid value for {_key_for_attr(attr)}")


def require_paths(config: PipelineConfig, *attrs: str) -> None:
    """Fail with the config key name when a required path is missing."""
    for attr in attrs:
        value = getattr(config, attr)
        if value is None:
            raise ConfigError(f"missing required path {_key_for_attr(attr)}")
        if not Path(value).exists():
            raise ConfigError(f"{_key_for_attr(attr)}: no such file {value!r}")


def config_help() -> str:
    lines = ["configuration keys (key = value per line, # comments):"]
    for key in sorted(KEY_REGISTRY):
        attr, _, description = KEY_REGISTRY[key]
        default = getattr(PipelineConfig(), attr)
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {key:<34} {description} (default: {default})")
    return "\n".join(lines)
