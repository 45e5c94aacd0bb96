"""Run configuration: one flat dataclass, file form `key = value` per line.

Lists are comma-separated, booleans are true/false, '#' starts a comment.
Every key can be overridden from the command line; the file form
round-trips losslessly (floats are written with repr).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ParameterError
from .experiment import DEFAULT_BETA_GRID, DEFAULT_K_GRID
from .scoring import ALL_KINDS


@dataclass(frozen=True)
class RunConfig:
    dataset: tuple[str, ...] = ()
    methods: tuple[str, ...] = ALL_KINDS
    alpha: tuple[float, ...] = (0.2, 0.5, 0.8)
    fakes_per_missing: int = 3
    rho: tuple[float, ...] = (0.8,)
    trials: int = 10
    seed: int = 0
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    folds: int = 5
    out: str = "results"
    threads: int = 0  # 0 = all available cores
    min_cardinality: int = 2
    label_mode: bool = False

    def validate(self) -> "RunConfig":
        if not self.dataset:
            raise ParameterError("at least one dataset path is required")
        for kind in self.methods:
            if kind not in ALL_KINDS:
                raise ParameterError(f"unknown method {kind!r}; choose from {ALL_KINDS}")
        for a in self.alpha:
            if not 0.0 < a < 1.0:
                raise ParameterError(f"alpha {a} outside (0, 1)")
        for r in self.rho:
            if not 0.0 < r < 1.0:
                raise ParameterError(f"rho {r} outside (0, 1)")
        if self.fakes_per_missing < 1:
            raise ParameterError("lambda must be >= 1")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.folds < 2:
            raise ParameterError("folds must be >= 2")
        if self.threads < 0:
            raise ParameterError("threads must be >= 0 (0 = all cores)")
        if any(k < 1 for k in self.k_grid) or not self.k_grid:
            raise ParameterError("k-grid must be nonempty positive integers")
        if any(b <= 0 for b in self.beta_grid) or not self.beta_grid:
            raise ParameterError("beta-grid must be nonempty positive reals")
        if self.min_cardinality < 2:
            raise ParameterError("min-cardinality must be >= 2")
        return self


# file/flag key -> (field name, element parser, is_list)
_KEYS: dict[str, tuple[str, type, bool]] = {
    "dataset": ("dataset", str, True),
    "methods": ("methods", str, True),
    "alpha": ("alpha", float, True),
    "lambda": ("fakes_per_missing", int, False),
    "rho": ("rho", float, True),
    "trials": ("trials", int, False),
    "seed": ("seed", int, False),
    "k-grid": ("k_grid", int, True),
    "beta-grid": ("beta_grid", float, True),
    "folds": ("folds", int, False),
    "out": ("out", str, False),
    "threads": ("threads", int, False),
    "min-cardinality": ("min_cardinality", int, False),
    "label-mode": ("label_mode", bool, False),
}
_FIELD_TO_KEY = {f: k for k, (f, _, _) in _KEYS.items()}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str):
    field_name, elem, is_list = _KEYS[key]
    if elem is bool:
        low = text.strip().lower()
        if low not in ("true", "false"):
            raise ParameterError(f"{key}: expected true/false, got {text!r}")
        return low == "true"
    if is_list:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            return tuple(elem(p) for p in parts)
        except ValueError:
            raise ParameterError(f"{key}: cannot parse list {text!r}") from None
    try:
        return elem(text.strip())
    except ValueError:
        raise ParameterError(f"{key}: cannot parse {text!r}") from None


def _write_text(cfg: RunConfig, skipped: tuple[str, ...]) -> str:
    """File form of every field of ``cfg`` not named in ``skipped``."""
    names = [f.name for f in fields(RunConfig) if f.name not in skipped]
    return "".join(f"{_FIELD_TO_KEY[n]} = {_format_value(getattr(cfg, n))}\n" for n in names)


def to_text(cfg: RunConfig) -> str:
    return _write_text(cfg, ())


def from_text(text: str) -> RunConfig:
    updates = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {number}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ParameterError(f"config line {number}: unknown key {key!r}")
        updates[_KEYS[key][0]] = _parse_value(key, value)
    return RunConfig(**updates)


def load_config(path) -> RunConfig:
    return from_text(Path(path).read_text(encoding="utf-8"))


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(to_text(cfg), encoding="utf-8")


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields from a {field_name: value} dict, skipping Nones."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg


# Fields that affect execution but not results; excluded from the hash so
# reruns with different worker counts or output paths stay comparable.
_EXECUTION_FIELDS = ("out", "threads")


def canonical_text(cfg: RunConfig) -> str:
    return _write_text(cfg, _EXECUTION_FIELDS)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
