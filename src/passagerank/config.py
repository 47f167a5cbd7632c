"""Experiment configuration: defaults, flat key=value files, overrides.

The config file format is one `key = value` pair per line; blank lines
and `#` comments are ignored; no includes, no sections. Command-line
flags override file values, which override the built-in defaults. The
fingerprint of a resolved configuration (everything except storage
locations) goes into run tags for provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from ._accel import FilterSpec, parse_filters
from .evaluation import numbered_lines
from .features import ScoreSettings, feature_names
from .retrieval import SmoothingConfig
from .training import TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str | None = None
    index: str | None = None
    topics: str | None = None
    qrels: str | None = None
    stoplist: str | None = None
    text_tags: tuple[str, ...] = ("TEXT",)
    filters: tuple[FilterSpec, ...] = (
        FilterSpec.window(50),
        FilterSpec.window(150),
        FilterSpec.whole_document(),
    )
    lambda_c: float = SmoothingConfig.lambda_c
    top_k: int = 2000
    feature_set: str = "doc+query"
    passage_size: int = 50
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    folds: int = TrainConfig.folds
    permutations: int = 100_000
    seed: int = TrainConfig.seed

    def fingerprint(self) -> str:
        """Short hash over every knob that can affect computed outputs.

        Storage locations are excluded: the same experiment run against
        the same data in a different directory must keep its tag.
        """
        skip = {"corpus", "index", "topics", "qrels", "stoplist"}
        lines = []
        for f in fields(self):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if f.name in _LIST_KEYS:
                value = format_value(f.name, value)
            lines.append(f"{f.name}={value!r}")
        digest = hashlib.sha1("\n".join(sorted(lines)).encode("utf-8"))
        return digest.hexdigest()[:10]

    def run_tag(self, mode: str) -> str:
        return f"{mode}-{self.fingerprint()}"

    def smoothing(self) -> SmoothingConfig:
        """The collection model settings; SmoothingConfig checks them."""
        return SmoothingConfig(self.lambda_c)

    def score_settings(self) -> ScoreSettings:
        """The candidate scoring settings that train records in each model."""
        return ScoreSettings(self.filters, self.smoothing(), self.feature_set, self.top_k)

    def train_config(self) -> TrainConfig:
        """The training settings; TrainConfig checks their ranges."""
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in fields(TrainConfig)})


# the comma-separated keys: (parse, format); every other key is read
# with the type of its ExperimentConfig annotation
_LIST_KEYS = {
    "filters": (parse_filters, lambda v: ",".join(f.label for f in v)),
    "text_tags": (lambda raw: tuple(t.strip() for t in raw.split(",") if t.strip()),
                  ",".join),
}
_TYPES = {key: next((a for a in get_args(hint) if a is not type(None)), hint)
          for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_value(key: str, raw: str):
    """The typed value of one key given as text, in a file or a flag."""
    if key in _LIST_KEYS:
        return _LIST_KEYS[key][0](raw)
    if key not in _TYPES:
        raise ValueError(f"unknown config key {key!r}")
    kind = _TYPES[key]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key} must be of type {kind.__name__}, got {raw!r}") from None


def format_value(key: str, value) -> str:
    """The text form of a key's value, which ``parse_value`` reads back."""
    return _LIST_KEYS[key][1](value) if key in _LIST_KEYS else str(value)


def read_config_file(path: str | Path) -> dict:
    """Parse a key=value config file into typed values; a key may be set
    once."""
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in numbered_lines(path):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = parse_value(key, raw)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return values


def build_config(
    config_path: str | Path | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Defaults, overlaid by the config file, overlaid by CLI overrides."""
    cfg = ExperimentConfig()
    if config_path is not None:
        cfg = replace(cfg, **read_config_file(config_path))
    if overrides:
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Reject bad values before any input is read; the scoring code owns
    the feature-set rules, SmoothingConfig the lambda_c rule,
    TrainConfig the training rules."""
    cfg.smoothing()
    feature_names(cfg.feature_set)
    cfg.train_config()
    for name in ("filters", "text_tags"):
        if not getattr(cfg, name):
            raise ValueError(f"{name} must not be empty")
    for name in ("top_k", "permutations"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    try:
        FilterSpec.window(cfg.passage_size)
    except ValueError as e:
        raise ValueError(f"passage_size: {e}") from None


def require_set(cfg: ExperimentConfig, *keys: str) -> None:
    """Fail fast with an actionable message when required keys are unset."""
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ValueError(
            "missing required configuration: "
            + ", ".join(f"--{k.replace('_', '-')}" for k in missing)
        )


def require(cfg: ExperimentConfig, *keys: str) -> None:
    """require_set plus an existence check (for input paths)."""
    require_set(cfg, *keys)
    for k in keys:
        p = Path(getattr(cfg, k))
        if not p.exists():
            raise ValueError(f"{k} path does not exist: {p}")
