"""End-to-end evaluation protocol.

A run repeats, per trial: randomly split hyperedges into observed and
missing sets, sample fake hyperedges for each missing one, pick each
method's hyperparameter by k-fold cross-validation on the observed set,
score the candidate set, and measure AUROC plus F1 at cutoff |missing|.
All randomness derives from the master seed through fixed spawn keys, so a
run is reproducible regardless of worker count.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from . import scoring
from .errors import (
    HyperwalkError,
    MetricUndefinedError,
    ParameterError,
    SamplingError,
    TrialDegenerateError,
    _check_count,
    _is_number,
)
from .hypergraph import Edge, Hypergraph, components
from .scoring import HKATZ, WALK_KINDS, MethodSpec

logger = logging.getLogger(__name__)

DEFAULT_K_GRID = (2, 3, 4, 5)
DEFAULT_BETA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)
DEFAULT_FOLDS = 5

# spawn_key tags for deriving per-trial generators from the master seed
_SPLIT, _NEGATIVES, _CV_WALK, _CV_KATZ = 0, 1, 2, 3


def _check_fraction(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is a real number in (0, 1)."""
    if not (_is_number(value, numbers.Real) and 0.0 < value < 1.0):
        raise ParameterError(f"{name}={value!r} is not a real number in (0, 1)")


@dataclass(frozen=True)
class SplitSpec:
    observed_fraction: float = 0.8
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_fraction("observed fraction rho", self.observed_fraction)
        _check_count("trials", self.trials)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class SamplingSpec:
    alpha: float = 0.5
    fakes_per_missing: int = 3

    def __post_init__(self):
        _check_fraction("kept-vertex fraction alpha", self.alpha)
        _check_count("fakes per missing edge lambda", self.fakes_per_missing)


@dataclass(frozen=True)
class CandidateSet:
    """Missing hyperedges plus sampled fakes, with ground-truth labels."""

    positives: tuple[Edge, ...]
    negatives: tuple[Edge, ...]
    collisions: int = 0  # fakes accepted despite duplicating a known set

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.positives + self.negatives

    @property
    def labels(self) -> np.ndarray:
        return np.concatenate(
            [np.ones(len(self.positives), dtype=np.int64),
             np.zeros(len(self.negatives), dtype=np.int64)]
        )


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def split(g: Hypergraph, spec: SplitSpec, trial: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Partition hyperedges into ceil(rho*m) observed plus the pruned rest.

    Missing edges touching a vertex with zero observed degree are dropped.
    A split whose missing set prunes to nothing is retried with a fresh
    derived seed, up to 100 attempts.  Both edge tuples keep the order of
    ``g.edges``.
    """
    n_obs = math.ceil(spec.observed_fraction * g.m - 1e-9)
    if n_obs >= g.m:
        raise TrialDegenerateError(
            f"observed fraction {spec.observed_fraction} leaves no missing edges (m={g.m})"
        )
    for attempt in range(100):
        rng = _rng(spec.seed, _SPLIT, trial, attempt)
        perm = rng.permutation(g.m)
        in_observed = np.zeros(g.m, dtype=bool)
        in_observed[perm[:n_obs]] = True
        covered = np.zeros(g.n, dtype=bool)
        covered[g.members[np.repeat(in_observed, g.cardinalities)]] = True
        usable = ~in_observed & _all_marked(g.members, g.cardinalities, covered)
        pruned = tuple(compress(g.edges, usable.tolist()))
        if pruned:
            observed = tuple(compress(g.edges, in_observed.tolist()))
            if attempt:
                logger.info("trial %d: split usable after %d retries", trial, attempt)
            return observed, pruned
    raise TrialDegenerateError("no usable split in 100 attempts")


def _all_marked(flat: np.ndarray, sizes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether ``mask`` marks every vertex of each edge, for edges given
    as their vertices ``flat``, concatenated edge by edge, and ``sizes``."""
    misses = np.concatenate(([0], np.cumsum(~mask[flat])))
    ends = np.cumsum(sizes)
    return misses[ends] == misses[ends - sizes]


def replacement_count(edge_size: int, alpha: float) -> int:
    """Vertices to swap out of a true edge: round-half-up((1-alpha)*|e|),
    clamped so at least one and at most |e|-1 are replaced."""
    return min(max(math.floor((1.0 - alpha) * edge_size + 0.5), 1), edge_size - 1)


def sample_negatives(
    edge: Edge,
    g: Hypergraph,
    observed: Sequence[Edge],
    spec: SamplingSpec,
    rng: np.random.Generator,
    forbidden: set[Edge] | None = None,
    active: np.ndarray | None = None,
) -> tuple[list[Edge], int]:
    """Fake hyperedges for one missing edge, by replacing vertices.

    Replacements are drawn from vertices outside the edge that are not
    isolated in the observed set: those of the mask ``active``, which by
    default is computed from ``observed``.  A fake equal (as a set) to an
    observed, missing, or previously sampled edge is resampled up to 100
    times, then accepted with the collision counted.  Returns (fakes,
    collisions).

    Random-number contract: every attempt makes exactly two calls on
    ``rng``, first ``rng.choice(len(edge), size=r, replace=False)`` for
    the edge slots to replace, then ``rng.choice(len(eligible), size=r,
    replace=False)`` for positions in the ascending array of eligible
    vertices (the same draws as ``rng.choice(eligible, ...)``), with r from
    :func:`replacement_count`.  Nothing else reads the generator.
    """
    if forbidden is None:
        forbidden = set(observed)
    if active is None:
        active = g.with_edges(observed).degrees > 0
    members = [int(v) for v in edge]
    size = len(members)
    r = replacement_count(size, spec.alpha)
    mask = active.copy()
    mask[members] = False
    eligible = np.flatnonzero(mask)
    pool = len(eligible)
    if pool < r:
        raise SamplingError(f"edge {edge}: need {r} replacement vertices, only {pool} eligible")
    fakes: list[Edge] = []
    collisions = 0
    for _ in range(spec.fakes_per_missing):
        for attempt in range(100):
            drop = rng.choice(size, size=r, replace=False).tolist()
            repl = eligible[rng.choice(pool, size=r, replace=False)].tolist()
            fake = tuple(sorted([v for k, v in enumerate(members) if k not in drop] + repl))
            if fake not in forbidden:
                break
        else:
            collisions += 1
            logger.warning("edge %s: accepted colliding fake %s after 100 attempts", edge, fake)
        forbidden.add(fake)
        fakes.append(fake)
    return fakes, collisions


def build_candidates(
    observed_g: Hypergraph,
    missing: Sequence[Edge],
    spec: SamplingSpec,
    rng: np.random.Generator,
) -> CandidateSet:
    """Candidate set: the missing edges plus fakes_per_missing fakes each,
    sampled against the observed hypergraph."""
    forbidden: set[Edge] = set(observed_g.edges) | set(missing)
    active = observed_g.degrees > 0
    negatives: list[Edge] = []
    collisions = 0
    for e in missing:
        fakes, c = sample_negatives(e, observed_g, observed_g.edges, spec, rng, forbidden, active)
        negatives.extend(fakes)
        collisions += c
    return CandidateSet(tuple(missing), tuple(negatives), collisions)


def _check_labels(labels, count: int) -> np.ndarray:
    labels = np.asarray(labels)
    if len(labels) != count:
        raise ParameterError(f"{len(labels)} labels for {count} scored candidates")
    bad = ~((labels == 0) | (labels == 1))
    if bad.any():
        raise ParameterError(f"labels must be 0 or 1, not {labels[bad].tolist()[0]!r}")
    return labels


def _finite_scores(scores) -> np.ndarray:
    """``scores`` as a float array; a NaN or infinite score raises ParameterError."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = ~np.isfinite(scores)
    if bad.any():
        first = np.argwhere(bad)[0]  # candidate index last, after a row index if 2-D
        raise ParameterError(f"score {scores[tuple(first)]} of candidate {first[-1]} is not finite")
    return scores


def auroc(scores, labels):
    """Probability a random positive outscores a random negative (ties 0.5).

    ``scores`` may also be a 2-D score array, one row per scoring of the
    same labelled candidates; then one AUROC per row is returned, each the
    same float as scoring that row alone.  A score that is NaN or infinite
    raises ParameterError.
    """
    scores = _finite_scores(scores)
    labels = _check_labels(labels, scores.shape[-1])
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUROC needs at least one positive and one negative")
    # ranks are half-integers, so their sums are exact in any order
    ranks = rankdata(scores, method="average", axis=-1)
    values = (ranks[..., pos].sum(axis=-1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(values) if scores.ndim == 1 else values


def select_top(edges: Sequence[Edge], scores, cutoff: int) -> list[int]:
    """Indices of the cutoff best candidates: score descending, then
    canonical edge encoding ascending.

    One ``lexsort`` over the negated scores and the edges' vertex columns,
    padded below every vertex id so that an edge sorts before the edges it
    is a prefix of, as tuples do.  A score that is NaN or infinite raises
    ParameterError.
    """
    scores = _finite_scores(scores)
    if len(edges) != len(scores):
        raise ParameterError(f"{len(scores)} scores for {len(edges)} candidate edges")
    _check_count("cutoff", cutoff, 0)
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=int(sizes.sum()))
    columns = np.full((len(edges), sizes.max(initial=0)), flat.min(initial=0) - 1)
    columns[np.arange(columns.shape[1]) < sizes[:, None]] = flat
    return np.lexsort((*columns.T[::-1], -scores))[:cutoff].tolist()


def f1_at_cutoff(edges: Sequence[Edge], scores, labels, cutoff: int) -> float:
    """F1 of predicting the top-cutoff candidates as missing hyperedges,
    ranked by :func:`select_top` over canonical ``edges`` and their ``scores``.

    When cutoff equals the number of positives, precision, recall, and F1
    all collapse to TP / cutoff.
    """
    labels = _check_labels(labels, len(scores))
    _check_count("cutoff", cutoff)
    if cutoff > len(labels):
        raise ParameterError(f"cutoff {cutoff} outside 1..{len(labels)}")
    top = select_top(edges, scores, cutoff)
    tp = int(labels[top].sum())
    n_pos = int((labels == 1).sum())
    if tp == 0:
        return 0.0
    # 2PR/(P+R) with P = tp/cutoff, R = tp/n_pos simplifies to an integer
    # ratio, which keeps the cutoff == n_pos case exactly equal to TP/n_pos.
    return 2.0 * tp / (cutoff + n_pos)


def cross_validate(
    methods: Sequence[MethodSpec],
    g: Hypergraph,
    candidates: Sequence[Edge],
    folds: int,
    grid: Sequence,
    rng: np.random.Generator,
) -> dict[str, object]:
    """Pick each method's parameter by k-fold CV on the edges of the
    observed hypergraph ``g``.

    ``methods`` are walk methods, tuned over walk lengths, or hkatz alone,
    tuned over damping factors; a Katz grid first loses the factors that
    diverge on ``g`` (see :func:`~hyperwalk.scoring.converging_betas`).
    Each fold once serves as the validation missing set; the full candidate
    set acts as negatives in every fold.  In a trial that set is the whole
    trial candidate set, so the trial's own missing edges are labelled 0
    during tuning, like its fakes.  Candidates or validation edges
    touching a vertex isolated in a fold's training edges are excluded from
    that fold.  Each fold scores the whole grid with one
    :func:`~hyperwalk.scoring.score_grid` call.  Returns the grid value
    with the highest mean validation AUROC per method; ties go to the
    smaller value.
    """
    observed = g.edges
    _check_count("folds", folds, 2)
    if len(observed) < folds:
        raise ParameterError(f"{len(observed)} observed edges cannot fill {folds} folds")
    kinds = [m.kind for m in methods]
    if not (kinds and set(kinds) <= set(WALK_KINDS)) and kinds != [HKATZ]:
        raise ParameterError(f"cannot tune method kinds {kinds} together")
    # each value as the method takes it: checked, and an int k or a float beta
    grid = sorted({methods[0].with_param(value).param for value in grid})
    if len(grid) == 1:
        return {k: grid[0] for k in kinds}
    if kinds == [HKATZ]:
        grid = scoring.converging_betas(g, grid)

    totals = {k: np.zeros(len(grid)) for k in kinds}
    used_folds = 0
    cand_sizes = np.fromiter(map(len, candidates), dtype=np.int64, count=len(candidates))
    cand_flat = np.fromiter(chain.from_iterable(candidates), dtype=np.int64)
    for part in np.array_split(rng.permutation(len(observed)), folds):
        in_part = np.zeros(len(observed), dtype=bool)
        in_part[part] = True
        # a subsequence of g's edges is canonical already
        train_g = Hypergraph(g.n, list(compress(observed, (~in_part).tolist())), g.labels)
        active = train_g.degrees > 0
        in_part &= _all_marked(g.members, g.cardinalities, active)
        val_pos = list(compress(observed, in_part.tolist()))
        val_neg = list(compress(candidates, _all_marked(cand_flat, cand_sizes, active).tolist()))
        if not val_pos or not val_neg:
            logger.warning("cross-validation fold skipped: no usable positives or negatives")
            continue
        used_folds += 1
        labels = np.concatenate([np.ones(len(val_pos)), np.zeros(len(val_neg))])
        scores = scoring.score_grid(kinds, train_g, val_pos + val_neg, grid)
        for kind in kinds:
            totals[kind] += auroc(np.array(scores[kind]), labels)
    if used_folds == 0:
        raise TrialDegenerateError("cross-validation had no usable folds")
    # argmax takes the first maximum: the smaller value
    return {kind: grid[int(np.argmax(totals[kind] / used_folds))] for kind in kinds}


@dataclass(frozen=True)
class MethodOutcome:
    kind: str
    param: object
    auroc: float
    f1: float
    seconds: float


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    n_observed: int
    n_missing: int
    n_negatives: int
    collisions: int
    outcomes: tuple[MethodOutcome, ...]


@dataclass(frozen=True)
class ExperimentResult:
    rho: float
    alpha: float
    fakes_per_missing: int
    trials: int
    seed: int
    method_kinds: tuple[str, ...]
    records: tuple[TrialRecord, ...]

    def mean_auroc(self, kind: str) -> float:
        return float(np.mean([o.auroc for r in self.records for o in r.outcomes if o.kind == kind]))

    def mean_f1(self, kind: str) -> float:
        return float(np.mean([o.f1 for r in self.records for o in r.outcomes if o.kind == kind]))

    def param_mode(self, kind: str):
        """Most frequently chosen parameter; ties go to the smaller value."""
        params = [o.param for r in self.records for o in r.outcomes if o.kind == kind]
        if not params or params[0] is None:
            return None
        uniq = sorted(set(params))
        return max(uniq, key=lambda v: (params.count(v), -uniq.index(v)))

    def to_json_dict(self, include_timings: bool = False) -> dict:
        """Deterministic JSON form: per-trial records plus an aggregate block."""
        per_trial = []
        for r in self.records:
            methods = {}
            for o in r.outcomes:
                entry = {"param": o.param, "auroc": o.auroc, "f1": o.f1}
                if include_timings:
                    entry["seconds"] = o.seconds
                methods[o.kind] = entry
            per_trial.append(
                {
                    "trial": r.trial,
                    "observed": r.n_observed,
                    "missing": r.n_missing,
                    "negatives": r.n_negatives,
                    "collisions": r.collisions,
                    "methods": methods,
                }
            )
        aggregate = {
            kind: {
                "auroc_mean": self.mean_auroc(kind),
                "f1_mean": self.mean_f1(kind),
                "chosen_param_mode": self.param_mode(kind),
            }
            for kind in self.method_kinds
        }
        return {
            "config": {
                "rho": self.rho,
                "alpha": self.alpha,
                "lambda": self.fakes_per_missing,
                "trials": self.trials,
                "seed": self.seed,
                "methods": list(self.method_kinds),
            },
            "trials": per_trial,
            "aggregate": aggregate,
        }


def resolve_methods(methods) -> list[MethodSpec]:
    out = []
    for m in methods:
        out.append(m if isinstance(m, MethodSpec) else MethodSpec(kind=str(m)))
    if len({m.kind for m in out}) != len(out):
        raise ParameterError("duplicate method kinds in one run")
    return out


def trial_candidates(
    g: Hypergraph, split_spec: SplitSpec, sampling_spec: SamplingSpec, trial: int
) -> tuple[Hypergraph, CandidateSet]:
    """Observed hypergraph and candidate set for one trial (derived seeds).

    The observed hypergraph is built once here; every later step of the
    trial reads it.
    """
    observed, missing = split(g, split_spec, trial)
    # a subsequence of g's edges is canonical already
    observed_g = Hypergraph(g.n, observed, g.labels)
    parts = len(np.unique(components(observed_g)[observed_g.degrees > 0]))
    if parts > 1:
        logger.warning("trial %d: observed hypergraph splits into %d components", trial, parts)
    rng_neg = _rng(split_spec.seed, _NEGATIVES, trial)
    return observed_g, build_candidates(observed_g, missing, sampling_spec, rng_neg)


@contextmanager
def naming_trial(trial: int):
    """Prefix ``trial N: `` to the message of a library error raised inside."""
    try:
        yield
    except HyperwalkError as exc:
        exc.args = (f"trial {trial}: {exc}",) + exc.args[1:]
        raise


def tune_trial(
    g: Hypergraph,
    split_spec: SplitSpec,
    sampling_spec: SamplingSpec,
    methods: Sequence[MethodSpec],
    trial: int,
    folds: int,
    k_grid: Sequence[int],
    beta_grid: Sequence[float],
) -> tuple[Hypergraph, CandidateSet, dict[str, object]]:
    """Observed hypergraph and candidate set of one trial (see
    :func:`trial_candidates`), plus the cross-validated parameter of every
    method that still needs one: the walk methods share one cross-validation
    over ``k_grid`` and hkatz has its own over ``beta_grid``, each on its
    own derived generator."""
    observed_g, cand = trial_candidates(g, split_spec, sampling_spec, trial)
    chosen: dict[str, object] = {}
    for family, grid, key in ((WALK_KINDS, k_grid, _CV_WALK), ((HKATZ,), beta_grid, _CV_KATZ)):
        todo = [m for m in methods if m.kind in family and m.param is None]
        if todo:
            rng = _rng(split_spec.seed, key, trial)
            chosen.update(cross_validate(todo, observed_g, cand.edges, folds, grid, rng))
    return observed_g, cand, chosen


def run_trial(
    g: Hypergraph,
    split_spec: SplitSpec,
    sampling_spec: SamplingSpec,
    methods: Sequence[MethodSpec],
    trial: int,
    folds: int,
    k_grid: Sequence[int],
    beta_grid: Sequence[float],
) -> TrialRecord:
    """One full trial: split, sample, cross-validate, score, measure."""
    methods = resolve_methods(methods)
    with naming_trial(trial):
        observed_g, cand, chosen = tune_trial(
            g, split_spec, sampling_spec, methods, trial, folds, k_grid, beta_grid
        )
        edges, labels = cand.edges, cand.labels

        outcomes = []
        for m in methods:
            spec_m = m.with_param(chosen[m.kind]) if m.kind in chosen else m
            t0 = time.perf_counter()
            # the scored list dies here, before the next method scores
            scores = np.array(
                [s.score for s in scoring.score_candidates(spec_m, observed_g, edges)],
                dtype=np.float64,
            )
            res_auroc = auroc(scores, labels)
            res_f1 = f1_at_cutoff(edges, scores, labels, cutoff=len(cand.positives))
            outcomes.append(
                MethodOutcome(m.kind, spec_m.param, res_auroc, res_f1, time.perf_counter() - t0)
            )
    return TrialRecord(
        trial=trial,
        n_observed=observed_g.m,
        n_missing=len(cand.positives),
        n_negatives=len(cand.negatives),
        collisions=cand.collisions,
        outcomes=tuple(outcomes),
    )


def run_experiment(
    g: Hypergraph,
    split_spec: SplitSpec,
    sampling_spec: SamplingSpec,
    methods,
    folds: int = DEFAULT_FOLDS,
    k_grid: Sequence[int] = DEFAULT_K_GRID,
    beta_grid: Sequence[float] = DEFAULT_BETA_GRID,
    threads: int = 1,
) -> ExperimentResult:
    """All trials of one (rho, alpha, lambda) configuration.

    Trials are independent and may run in parallel processes; records come
    back in trial order either way, so the result does not depend on the
    worker count.
    """
    methods = resolve_methods(methods)
    _check_count("threads", threads, 0)
    args = [
        (g, split_spec, sampling_spec, methods, t, folds, tuple(k_grid), tuple(beta_grid))
        for t in range(split_spec.trials)
    ]
    if threads > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run_trial, *zip(*args)))
    else:
        records = [run_trial(*a) for a in args]
    return ExperimentResult(
        rho=split_spec.observed_fraction,
        alpha=sampling_spec.alpha,
        fakes_per_missing=sampling_spec.fakes_per_missing,
        trials=split_spec.trials,
        seed=split_spec.seed,
        method_kinds=tuple(m.kind for m in methods),
        records=tuple(records),
    )
