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
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from typing import Sequence

import numpy as np

from . import scoring
from .errors import (
    CandidateError,
    HyperwalkError,
    MetricUndefinedError,
    ParameterError,
    SamplingError,
    TrialDegenerateError,
    _check_count,
    _is_number,
)
from .hypergraph import Edge, Hypergraph, _all_marked, _tuple_order, components
from .scoring import HKATZ, LRW, MethodSpec

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
    ``g.edges``.  Raises ParameterError unless ``trial`` is an integer >= 0.
    """
    _check_count("trial", trial, 0)
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


def replacement_count(edge_size: int, alpha: float) -> int:
    """Vertices to swap out of a true edge: round-half-up((1-alpha)*|e|),
    clamped so at least one and at most |e|-1 are replaced."""
    return min(max(math.floor((1.0 - alpha) * edge_size + 0.5), 1), edge_size - 1)


# Generator.choice(pop, r, replace=False) shuffles the tail of
# arange(pop) instead of running Floyd's algorithm when pop > _TAIL_POP
# and r > pop // 50.
_TAIL_POP = 10000
# Most fakes whose draws one rng.integers call takes.
CHUNK_FAKES = 4096


def _tail_shuffled(pop, r):
    """Whether ``Generator.choice(pop, r, replace=False)`` shuffles a tail
    rather than run Floyd's algorithm; elementwise on arrays."""
    return (pop > _TAIL_POP) & (r > pop // 50)


def _choice_bounds(pop: int, r: int) -> np.ndarray:
    """Inclusive upper bounds of the draws, in order, that
    ``Generator.choice(pop, r, replace=False)`` makes: Floyd's algorithm
    and then a shuffle of its r picks, or a shuffle of the last r entries
    of ``arange(pop)``.  ``rng.integers(0, bounds, endpoint=True)`` takes
    the same draws, value for value."""
    if _tail_shuffled(pop, r):
        return np.arange(pop - 1, max(pop - r, 1) - 1, -1)
    return np.concatenate([np.arange(pop - r, pop), np.arange(r - 1, 0, -1)])


def _picks(pop: int, r: int, draws: np.ndarray) -> np.ndarray:
    """The picks of ``Generator.choice(pop, r, replace=False)``, one row
    per row of ``draws``, each row the draws whose bounds
    :func:`_choice_bounds` gives: Floyd's algorithm and its shuffle,
    vectorised over the rows, or the tail shuffle, row by row."""
    if _tail_shuffled(pop, r):
        picks = np.empty((len(draws), r), dtype=np.int64)
        for row, steps in zip(picks, draws.tolist()):
            moved: dict[int, int] = {}  # the entries of arange(pop) that a swap changed
            for i, k in zip(range(pop - 1, 0, -1), steps):
                moved[i], moved[k] = moved.get(k, k), moved.get(i, i)
            row[:] = [moved.get(i, i) for i in range(pop - r, pop)]
        return picks
    picks = draws[:, :r].copy()
    for c in range(1, r):
        seen = (picks[:, :c] == picks[:, c, None]).any(axis=1)
        picks[:, c] = np.where(seen, pop - r + c, picks[:, c])
    rows = np.arange(len(picks))
    for c, i in zip(range(r, 2 * r - 1), range(r - 1, 0, -1)):
        k = draws[:, c]
        picks[rows, i], picks[rows, k] = picks[rows, k], picks[rows, i]
    return picks


class _EdgeGroup:
    """The missing edges of one cardinality, as the rows of ``members``,
    each edge's vertices ascending, whose fakes resolve together.  Every
    edge of the group replaces r vertices from a pool of equal size, so
    they share one attempt's draw bounds ``bounds``: those of
    :func:`_choice_bounds` for the edge slots, the first ``split``, then
    for the pool positions.

    An edge's pool is the ascending array ``vertices`` of the vertices a
    fake may take, without the edge's own.  Pool position q is vertex
    ``vertices[q + b]``, where b counts the edge's shifted ranks at most
    q: the ranks in ``vertices`` of its members, each less its index.
    """

    def __init__(self, members: np.ndarray, r: int, vertices: np.ndarray):
        self.members, self.r, self.vertices = members, r, vertices
        size = members.shape[1]
        self.shifted = np.searchsorted(vertices, members) - np.arange(size)
        self.pool = len(vertices) - size
        drop = _choice_bounds(size, r)
        self.split = len(drop)
        self.bounds = np.concatenate([drop, _choice_bounds(self.pool, r)])

    def fakes(self, rows: np.ndarray, draws: np.ndarray) -> list[Edge]:
        """The fakes of the group's edges ``rows``, one per row of
        ``draws``, each row one attempt's draws."""
        size, r, split = self.members.shape[1], self.r, self.split
        drop = _picks(size, r, draws[:, :split])
        picks = _picks(self.pool, r, draws[:, split:])
        # rows lifted apart, so that one searchsorted counts within each row
        lift = np.arange(len(rows))[:, None]
        stride = len(self.vertices) + 1
        below = np.searchsorted((self.shifted[rows] + lift * stride).ravel(),
                                (picks + lift * stride).ravel(), side="right")
        repl = self.vertices[picks + below.reshape(picks.shape) - lift * size]
        keep = np.ones((len(rows), size), dtype=bool)
        keep[lift, drop] = False
        kept = self.members[rows][keep].reshape(len(rows), size - r)
        return list(map(tuple, np.sort(np.hstack([kept, repl]), axis=1).tolist()))


def build_candidates(
    observed_g: Hypergraph,
    missing: Sequence[Edge],
    spec: SamplingSpec,
    rng: np.random.Generator,
) -> CandidateSet:
    """Candidate set: the missing edges plus fakes_per_missing fakes each,
    sampled against the observed hypergraph ``observed_g``.

    Each missing edge must be a candidate of ``observed_g``, as
    :func:`split` guarantees: a set of at least 2 integer vertex ids, each
    with an observed edge.  It is read in canonical form, its vertices
    ascending.  A fake replaces vertices of its missing edge with vertices
    outside that edge that are not isolated in ``observed_g``.  A fake
    equal to an observed edge, to the canonical form of a missing edge, or
    to a previously sampled fake is resampled up to 100 times, then
    accepted with the collision counted.  The first missing edge, in input
    order, that fails a check raises, once the fakes of the edges before
    it are drawn: CandidateError, worded as scoring's candidate checks
    word it (see :class:`~hyperwalk.scoring._Candidates`), for a vertex
    that is not an integer, then for an edge that is not a set of at
    least 2 vertices, then for a vertex isolated in or outside
    ``observed_g``; SamplingError for an edge with fewer eligible
    vertices than it needs.

    Random-number contract: the values drawn and the generator's end state
    are exactly those of two ``rng.choice(..., replace=False)`` calls per
    attempt, first ``rng.choice(len(edge), size=r, replace=False)`` for
    the slots of the ascending edge to replace, then
    ``rng.choice(len(eligible), size=r, replace=False)`` for positions in
    the ascending array of eligible vertices (the same draws as
    ``rng.choice(eligible, ...)``), with r from
    :func:`replacement_count`.  The draws of a window of at most
    :data:`CHUNK_FAKES` fakes are taken in one ``rng.integers`` call, one
    bounded draw per step of numpy's ``Generator.choice``: Floyd's
    algorithm and a shuffle of its picks, or, when pop > 10000 and
    r > pop // 50, a shuffle of the tail of ``arange(pop)``.  A rejected
    fake rewinds the generator to the end of its attempt's draws and opens
    the next window at its retry.
    """
    batch = scoring._Candidates(missing, observed_g, "missing edge", strict=False)
    forbidden: set[Edge] = set(observed_g.edges) | set(batch)
    vertices = np.flatnonzero(observed_g.degrees > 0)
    stop, error = batch.stop, batch.error
    groups: list[_EdgeGroup] = []  # one per block; only the edges before stop are drawn
    group_of, row_of = np.zeros(len(batch), dtype=np.int64), np.zeros(len(batch), dtype=np.int64)
    for t, idx, ranks in batch.blocks:
        r, pool = replacement_count(t, spec.alpha), len(vertices) - t
        if idx[0] < stop and pool < r:
            stop = int(idx[0])
            error = SamplingError(
                f"edge {missing[stop]}: need {r} replacement vertices, only {pool} eligible"
            )
        group_of[idx], row_of[idx] = len(groups), np.arange(len(idx))
        groups.append(_EdgeGroup(batch.vertices[ranks], r, vertices))
    widths = np.array([len(g.bounds) for g in groups], dtype=np.int64)

    lam = spec.fakes_per_missing
    total = stop * lam
    negatives: list[Edge] = []
    collisions = 0
    first, attempt, width = 0, 0, CHUNK_FAKES
    while first < total:
        owner = np.arange(first, min(first + width, total)) // lam  # each fake's edge
        in_group = group_of[owner]
        ends = np.cumsum(widths[in_group])
        bounds = np.empty(int(ends[-1]), dtype=np.int64)
        parts = []
        for g in np.unique(in_group).tolist():
            js = np.flatnonzero(in_group == g)
            cols = (ends[js] - widths[g])[:, None] + np.arange(widths[g])
            bounds[cols] = groups[g].bounds
            parts.append((js, groups[g], row_of[owner[js]], cols))
        saved = rng.bit_generator.state
        draws = rng.integers(0, bounds, endpoint=True)
        fakes: list = [None] * len(owner)
        for js, group, rows, cols in parts:
            for j, fake in zip(js.tolist(), group.fakes(rows, draws[cols])):
                fakes[j] = fake
        for j, fake in enumerate(fakes):
            if fake in forbidden:
                if attempt < 99:
                    if ends[j] < len(bounds):  # draw again only through this attempt
                        rng.bit_generator.state = saved
                        rng.integers(0, bounds[: ends[j]], endpoint=True)
                    first, attempt, width = first + j, attempt + 1, j + 1
                    break
                collisions += 1
                logger.warning(
                    "edge %s: accepted colliding fake %s after 100 attempts",
                    missing[owner[j]],
                    fake,
                )
            forbidden.add(fake)
            negatives.append(fake)
            attempt = 0
        else:
            first, width = first + len(owner), min(2 * width, CHUNK_FAKES)
    if error is not None:
        raise error
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

    This is the Mann-Whitney U over n_pos * n_neg.  Against its row's
    sorted negatives each positive counts the negatives below it (wins)
    and those not above it, which sum to 2 * wins + ties, twice its U.
    The total is an integer, so U is an exact half-integer and one
    division gives the float of the mid-rank sum formula.  -0.0 ties 0.0.

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
    rows = scores.reshape(-1, len(labels))
    twice_u = [
        sum(int(np.searchsorted(neg, row[pos], side).sum()) for side in ("left", "right"))
        for row, neg in zip(rows, np.sort(rows[:, ~pos], axis=-1))
    ]
    values = (np.array(twice_u) / 2.0 / (n_pos * n_neg)).reshape(scores.shape[:-1])
    return float(values) if scores.ndim == 1 else values


def select_top(edges: Sequence[Edge], scores, cutoff: int) -> list[int]:
    """Indices of the cutoff best candidates: score descending, then
    canonical edge encoding ascending, as tuples compare.

    The edges are put in tuple order by the loader's
    :func:`~hyperwalk.hypergraph._tuple_order`, then one stable sort of the
    negated scores over that order breaks score ties by it.  A score that
    is NaN or infinite raises ParameterError, and a vertex that is not an
    integer in int64 CandidateError; a negative id is ordered as it is.
    """
    scores = _finite_scores(scores)
    if len(edges) != len(scores):
        raise ParameterError(f"{len(scores)} scores for {len(edges)} candidate edges")
    _check_count("cutoff", cutoff, 0)
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    listed = list(chain.from_iterable(edges))
    if not all(issubclass(t, numbers.Integral) for t in set(map(type, listed))):
        raise scoring._candidate_error(
            next(e for e in edges if not all(isinstance(v, numbers.Integral) for v in e)), None
        )
    try:
        flat = np.array(listed, dtype=np.int64)
    except OverflowError:
        e, v = next((e, v) for e in edges for v in e if not -(2**63) <= v < 2**63)
        raise CandidateError(f"candidate {tuple(e)!r} has the vertex {v}, outside int64") from None
    order = _tuple_order(flat, np.cumsum(sizes) - sizes, sizes)
    return order[np.argsort(-scores[order], kind="stable")][:cutoff].tolist()


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

    ``methods`` are kinds tuned by one field of
    :data:`~hyperwalk.scoring.TUNED`: walk methods, tuned over walk
    lengths, or hkatz, tuned over damping factors; a Katz grid first
    loses the factors that diverge on ``g`` (see
    :func:`~hyperwalk.scoring.converging_betas`).
    Each fold once serves as the validation missing set; the full candidate
    set acts as negatives in every fold.  In a trial that set is the whole
    trial candidate set, so the trial's own missing edges are labelled 0
    during tuning, like its fakes.  Candidates or validation edges
    touching a vertex isolated in a fold's training edges are excluded from
    that fold.  The candidates are checked once, as
    :func:`~hyperwalk.scoring.score_candidates` checks them on ``g``: the
    first that fails raises CandidateError.  Each fold scores the whole
    grid with one :func:`~hyperwalk.scoring.score_grid` call.  Returns the
    grid value with the highest mean validation AUROC per method; ties go
    to the smaller value.  A grid value that the methods do not take, or
    an empty grid, raises ParameterError.
    """
    observed = g.edges
    _check_count("folds", folds, 2)
    if len(observed) < folds:
        raise ParameterError(f"{len(observed)} observed edges cannot fill {folds} folds")
    kinds = [m.kind for m in methods]
    fields = {scoring.TUNED.get(kind) for kind in kinds}
    if len(fields) != 1 or None in fields:
        raise ParameterError(f"cannot tune method kinds {kinds} together")
    cands = scoring._candidates(candidates, g)
    grid = sorted(set(scoring._tuned_values(kinds, grid)))
    if len(grid) == 1:
        return {k: grid[0] for k in kinds}
    if fields == {"beta"}:
        grid = scoring.converging_betas(g, grid)

    totals = {k: np.zeros(len(grid)) for k in kinds}
    used_folds = 0
    for part in np.array_split(rng.permutation(len(observed)), folds):
        in_part = np.zeros(len(observed), dtype=bool)
        in_part[part] = True
        # a subsequence of g's edges is canonical already
        train_g = Hypergraph(g.n, list(compress(observed, (~in_part).tolist())), g.labels)
        active = train_g.degrees > 0
        in_part &= _all_marked(g.members, g.cardinalities, active)
        val_pos = list(compress(observed, in_part.tolist()))
        val_neg = list(compress(cands, cands.within(active).tolist()))
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
    split_spec: SplitSpec
    sampling_spec: SamplingSpec
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

    def to_json_dict(self) -> dict:
        """Deterministic JSON form: per-trial records plus an aggregate block."""
        per_trial = []
        for r in self.records:
            methods = {o.kind: {"param": o.param, "auroc": o.auroc, "f1": o.f1} for o in r.outcomes}
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
                "rho": self.split_spec.observed_fraction,
                "alpha": self.sampling_spec.alpha,
                "lambda": self.sampling_spec.fakes_per_missing,
                "trials": self.split_spec.trials,
                "seed": self.split_spec.seed,
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


def check_run_settings(folds: int, threads: int, k_grid: Sequence, beta_grid: Sequence) -> None:
    """Raise ParameterError unless ``folds`` >= 2, ``threads`` >= 0 and
    each grid holds at least one value, each of which its methods take
    (see :meth:`~hyperwalk.scoring.MethodSpec.with_param`)."""
    _check_count("folds", folds, 2)
    _check_count("threads", threads, 0)
    for name, kind, grid in (("k_grid", LRW, k_grid), ("beta_grid", HKATZ, beta_grid)):
        if len(grid) == 0:
            raise ParameterError(f"{name} needs at least one value")
        for value in grid:
            MethodSpec(kind).with_param(value)


def trial_candidates(
    g: Hypergraph, split_spec: SplitSpec, sampling_spec: SamplingSpec, trial: int
) -> tuple[Hypergraph, CandidateSet]:
    """Observed hypergraph and candidate set for one trial (derived seeds).

    The observed hypergraph is built once here; every later step of the
    trial reads it.  ``trial`` is checked by :func:`split`.
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
) -> tuple[Hypergraph, CandidateSet, scoring._Candidates, dict[str, object]]:
    """Observed hypergraph and candidate set of one trial (see
    :func:`trial_candidates`), the candidates checked against the observed
    hypergraph as one batch, which every later step of the trial scores,
    plus the cross-validated parameter of every method that still needs
    one: the methods tuned by one field of
    :data:`~hyperwalk.scoring.TUNED` share one cross-validation, over
    ``k_grid`` for k (the walk methods) and over ``beta_grid`` for beta
    (hkatz), each on its own derived generator."""
    observed_g, cand = trial_candidates(g, split_spec, sampling_spec, trial)
    batch = scoring._Candidates(cand.edges, observed_g)
    chosen: dict[str, object] = {}
    for field, grid, key in (("k", k_grid, _CV_WALK), ("beta", beta_grid, _CV_KATZ)):
        todo = [m for m in methods if scoring.TUNED.get(m.kind) == field and m.param is None]
        if todo:
            rng = _rng(split_spec.seed, key, trial)
            chosen.update(cross_validate(todo, observed_g, batch, folds, grid, rng))
    return observed_g, cand, batch, chosen


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
    with naming_trial(trial):
        observed_g, cand, batch, chosen = tune_trial(
            g, split_spec, sampling_spec, methods, trial, folds, k_grid, beta_grid
        )
        edges, labels = cand.edges, cand.labels

        outcomes = []
        for m in methods:
            spec_m = m.with_param(chosen[m.kind]) if m.kind in chosen else m
            # the scored list dies here, before the next method scores
            scores = np.array(
                [s.score for s in scoring.score_candidates(spec_m, observed_g, batch)],
                dtype=np.float64,
            )
            res_auroc = auroc(scores, labels)
            res_f1 = f1_at_cutoff(edges, scores, labels, cutoff=len(cand.positives))
            outcomes.append(MethodOutcome(m.kind, spec_m.param, res_auroc, res_f1))
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

    Trials are independent and may run in parallel processes, ``threads``
    of them, or one per core when ``threads`` is 0; records come back in
    trial order either way, so the result does not depend on the worker
    count.  Every setting is checked before any trial runs (see
    :func:`check_run_settings`), whether or not a method is tuned.
    """
    methods = resolve_methods(methods)
    check_run_settings(folds, threads, k_grid, beta_grid)
    threads = threads or os.cpu_count() or 1
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
        split_spec=split_spec,
        sampling_spec=sampling_spec,
        method_kinds=tuple(m.kind for m in methods),
        records=tuple(records),
    )
