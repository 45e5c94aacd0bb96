"""Run configuration: one flat dataclass, file form `key = value` per line.

Lists are comma-separated, booleans are true/false, '#' starts a comment.
Every key is also the command-line flag ``--<key>`` (see ``_KEYS``, which
holds each key's field, parser and flag help); the file form
round-trips losslessly (floats are written with repr).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from . import experiment
from .errors import ParameterError, _check_count
from .scoring import ALL_KINDS, HKATZ, LRW, MethodSpec


@dataclass(frozen=True)
class RunConfig:
    dataset: tuple[str, ...] = ()
    methods: tuple[str, ...] = ALL_KINDS
    alpha: tuple[float, ...] = (0.2, 0.5, 0.8)
    fakes_per_missing: int = experiment.SamplingSpec.fakes_per_missing
    rho: tuple[float, ...] = (experiment.SplitSpec.observed_fraction,)
    trials: int = experiment.SplitSpec.trials
    seed: int = experiment.SplitSpec.seed
    k_grid: tuple[int, ...] = experiment.DEFAULT_K_GRID
    beta_grid: tuple[float, ...] = experiment.DEFAULT_BETA_GRID
    folds: int = experiment.DEFAULT_FOLDS
    out: str = "results"
    threads: int = 0  # 0 = all available cores
    min_cardinality: int = 2
    label_mode: bool = False

    def validate(self) -> "RunConfig":
        """Check every setting: a list setting needs at least one value,
        folds, threads and min-cardinality are checked here, and every
        other value must build the library object that will carry it."""
        for key, (name, _, is_list, _) in _KEYS.items():
            if is_list and not getattr(self, name):
                raise ParameterError(f"{key} needs at least one value")
        _check_count("folds", self.folds, 2)
        _check_count("threads", self.threads, 0)  # 0 = all cores
        _check_count("min-cardinality", self.min_cardinality, 2)
        experiment.resolve_methods(self.methods)
        for rho in self.rho:
            experiment.SplitSpec(rho, self.trials, self.seed)
        for alpha in self.alpha:
            experiment.SamplingSpec(alpha, self.fakes_per_missing)
        for k in self.k_grid:
            MethodSpec(LRW, k=k)
        for beta in self.beta_grid:
            MethodSpec(HKATZ, beta=beta)
        return self


# file/flag key -> (field name, element parser, is_list, flag help)
_KEYS: dict[str, tuple[str, type, bool, str | None]] = {
    "dataset": ("dataset", str, True, "hyperedge-list file (repeatable)"),
    "methods": ("methods", str, True, "comma list from: " + ",".join(ALL_KINDS)),
    "alpha": ("alpha", float, True, "comma list of kept-vertex fractions in (0,1)"),
    "lambda": ("fakes_per_missing", int, False, "fake hyperedges per missing one"),
    "rho": ("rho", float, True, "comma list of observed fractions in (0,1)"),
    "trials": ("trials", int, False, None),
    "seed": ("seed", int, False, None),
    "k-grid": ("k_grid", int, True, "comma list of walk lengths"),
    "beta-grid": ("beta_grid", float, True, "comma list of Katz damping factors"),
    "folds": ("folds", int, False, None),
    "out": ("out", str, False, "output directory"),
    "threads": ("threads", int, False, "worker processes for run and sweep (default: all cores)"),
    "min-cardinality": ("min_cardinality", int, False, None),
    "label-mode": ("label_mode", bool, False, "treat vertex tokens as opaque strings"),
}
_FIELD_TO_KEY = {f: k for k, (f, _, _, _) in _KEYS.items()}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str):
    _, elem, is_list, _ = _KEYS[key]
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


# Fields that affect execution but not results; excluded from the hash so
# reruns with different worker counts or output paths stay comparable.
_EXECUTION_FIELDS = ("out", "threads")


def canonical_text(cfg: RunConfig) -> str:
    return _write_text(cfg, _EXECUTION_FIELDS)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
