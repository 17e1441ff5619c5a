"""Pipeline configuration.

Config files are flat ``key = value`` lines with dotted section keys
(blank lines and ``#`` comments ignored).  ``KEY_REGISTRY`` is the one
table of keys: each row names the attribute the key sets, its parser,
its validity check and its help line, and ``load_config``, ``validate``
and ``config_help`` all read it.  Every float key must also be finite.
Unknown keys and malformed or invalid values fail with the offending key
named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .clustering import GraphConfig
from .corpus import text_lines
from .errors import ConfigError
from .model import TrainConfig
from .sampling import DEFAULT_SIZE_BUCKETS


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
    # clustering: the graph's signals, then how the graph is clustered
    graph: GraphConfig = field(default_factory=GraphConfig)
    consensus_runs: int = 1
    consensus_threshold: float = 0.5
    refine_passes: int = 0
    # sampling
    sampling_mode: str = "conditioned"  # random | conditioned
    sampling_ratio: float = 1.0  # negatives per positive cluster
    sampling_features: tuple[str, ...] = ("domain",)
    size_buckets: tuple[int, ...] = DEFAULT_SIZE_BUCKETS
    # bias
    bias_features: tuple[str, ...] = ("domain",)
    alpha: float = 0.05
    correction: str = "bonferroni"
    # model: featurization, then the solver
    vocab_orders: tuple[int, ...] = (1,)
    min_df: int = 2
    max_vocab: int = 50000
    weighting: str = "tf"
    train: TrainConfig = field(default_factory=TrainConfig)
    # eval
    folds: int = 5
    top_k: int = 25
    # global
    seed: int = 0


def _at_least(low: int) -> Callable[[Any], bool]:
    return lambda v: v >= low


def _one_of(*choices: str) -> Callable[[Any], bool]:
    return lambda v: v in choices


class Key(NamedTuple):
    attr: str  # attribute path on PipelineConfig: "seed", "graph.tau_text"
    parse: Callable[[str], Any]
    check: Optional[Callable[[Any], bool]]  # None: every parsed value is valid
    help: str


KEY_REGISTRY: dict[str, Key] = {
    "paths.corpus": Key("corpus_path", str, None, "line-delimited corpus file"),
    "paths.labels": Key("labels_path", str, None, "expert labels CSV (cluster_id,label[,source])"),
    "paths.gazetteer": Key("gazetteer_path", str, None, "location lexicon, one lowercase term per line"),
    "paths.rules": Key("rules_path", str, None, "indicator rules JSON"),
    "paths.remove_lexicon": Key("remove_lexicon_path", str, None, "tokens to delete before featurization"),
    "clustering.tau_text": Key("graph.tau_text", float, lambda v: 0.0 < v <= 1.0, "text similarity edge threshold in (0,1]"),
    "clustering.shingle_len": Key("graph.shingle_len", int, _at_least(1), "word shingle length"),
    "clustering.use_phones": Key("graph.use_phones", _parse_bool, None, "enable shared-phone signal"),
    "clustering.use_text": Key("graph.use_text", _parse_bool, None, "enable text-shingle signal"),
    "clustering.use_location_date": Key("graph.use_location_date", _parse_bool, None, "enable location+date signal (also needs text similarity >= tau_text/2)"),
    "clustering.date_window_days": Key("graph.date_window_days", int, _at_least(0), "date window for location signal"),
    "clustering.consensus_runs": Key("consensus_runs", int, _at_least(1), "KWIKCLUSTER runs combined by consensus (1 = single run)"),
    "clustering.consensus_threshold": Key("consensus_threshold", float, lambda v: 0.0 < v <= 1.0, "co-association fraction in (0,1]"),
    "clustering.refine_passes": Key("refine_passes", int, _at_least(0), "local-search passes (0 = off)"),
    "sampling.mode": Key("sampling_mode", str, _one_of("random", "conditioned"), "random | conditioned"),
    "sampling.ratio": Key("sampling_ratio", float, lambda v: v > 0, "negative clusters per positive cluster"),
    "sampling.features": Key("sampling_features", _parse_str_list, None, "attributes to condition on"),
    "sampling.size_buckets": Key("size_buckets", _parse_int_list, lambda v: bool(v) and min(v) == 1, "cluster-size bucket lower bounds"),
    "bias.features": Key("bias_features", _parse_str_list, None, "attributes audited for class dependence"),
    "bias.alpha": Key("alpha", float, lambda v: 0.0 < v < 1.0, "significance level"),
    "bias.correction": Key("correction", str, _one_of("none", "bonferroni"), "none | bonferroni"),
    "model.orders": Key("vocab_orders", _parse_int_list, lambda v: bool(v) and set(v) <= {1, 2, 3}, "n-gram orders, subset of 1,2,3"),
    "model.min_df": Key("min_df", int, _at_least(1), "min document frequency for vocabulary"),
    "model.max_vocab": Key("max_vocab", int, _at_least(1), "vocabulary size cap"),
    "model.weighting": Key("weighting", str, _one_of("tf", "tfidf"), "tf | tfidf"),
    "model.loss": Key("train.loss", str, _one_of("logistic", "hinge"), "logistic | hinge (squared)"),
    "model.penalty": Key("train.penalty", str, _one_of("l2", "l1"), "l2 | l1"),
    "model.lambda": Key("train.lam", float, _at_least(0), "penalty strength"),
    "model.epochs": Key("train.epochs", int, _at_least(1), "solver iteration cap"),
    "eval.folds": Key("folds", int, _at_least(2), "cross-validation fold count"),
    "eval.top_k": Key("top_k", int, _at_least(0), "features reported by importance"),
    "seed": Key("seed", int, None, "master seed"),
}


def _value(config: PipelineConfig, key: str) -> Any:
    return attrgetter(KEY_REGISTRY[key].attr)(config)


def load_config(path: str | Path) -> PipelineConfig:
    config = PipelineConfig()
    for lineno, line in enumerate(text_lines(path, error=ConfigError), 1):
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
        parent, _, name = KEY_REGISTRY[key].attr.rpartition(".")
        try:
            value = KEY_REGISTRY[key].parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        setattr(attrgetter(parent)(config) if parent else config, name, value)
    validate(config)
    return config


def validate(config: PipelineConfig) -> None:
    """Every float key must be finite and every key pass its check."""
    for key, entry in KEY_REGISTRY.items():
        value = _value(config, key)
        if entry.parse is float and not math.isfinite(value):
            raise ConfigError(f"invalid value for {key}: must be finite")
        if entry.check is not None and not entry.check(value):
            raise ConfigError(f"invalid value for {key}")


def require_paths(config: PipelineConfig, *keys: str, optional: tuple[str, ...] = ()) -> None:
    """Fail with the config key name when a required path is missing, or
    when any path under ``keys`` or a set one under ``optional`` names no
    file."""
    for key in keys:
        if _value(config, key) is None:
            raise ConfigError(f"missing required path {key}")
    for key in keys + optional:
        value = _value(config, key)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"{key}: no such file {value!r}")


def config_help() -> str:
    defaults = PipelineConfig()
    lines = ["configuration keys (key = value per line, # comments):"]
    for key in sorted(KEY_REGISTRY):
        default = _value(defaults, key)
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {key:<34} {KEY_REGISTRY[key].help} (default: {default})")
    return "\n".join(lines)
