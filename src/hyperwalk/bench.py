"""Timing harness for the walk and divergence kernels.

The walk-row cost should scale like d^K in the mean clique-expansion degree
d: each propagation step touches roughly (support size) * d transition
entries, and the support grows by a factor d per step until it saturates.
The harness times batched row computation across a degree grid at fixed K
and reports the log-log slope, plus per-phase timings for pairwise and
generalized divergences and a whole-method runtime comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import divergence, localwalk, projection, scoring, synthetic
from .errors import ParameterError, _check_count, _check_positive

# Random source pairs (and as many triples) per divergence timing, and
# timed calls per measurement, of which the fastest counts.
PAIRS = 200
REPEATS = 3
# The shared workload of method_runtimes.
RUNTIME_VERTICES = 2000
RUNTIME_DEGREE = 12.0
RUNTIME_K = 3
RUNTIME_CANDIDATES = 400
RUNTIME_CARDINALITY = 4


@dataclass(frozen=True)
class BenchPoint:
    mean_degree: float  # measured clique-expansion degree
    seconds_row: float  # per walk row
    seconds_js: float  # per pairwise divergence
    seconds_gjs: float  # per generalized divergence (triples)


def _time(*fns) -> list[float]:
    """Fastest of REPEATS calls of each function.  Each round calls every
    function once in turn, so a burst of load on the machine falls on all
    of them alike rather than on one function's block of calls."""
    best = [np.inf] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def walk_cost_curve(
    n: int,
    degree_grid,
    k: int,
    cardinality: int = 3,
    batch_rows: int = 512,
    seed: int = 0,
) -> list[BenchPoint]:
    """Per-row, per-JS and per-GJS seconds across a degree grid at fixed K.

    Divergences are timed as one batched kernel call over PAIRS random
    source pairs and one over as many triples.  Raises ParameterError
    unless the seed is an integer >= 0, batch_rows one >= 3 and every
    degree a finite real number > 0; the graph generator checks n and the
    cardinality, and the walk k.
    """
    _check_count("seed", seed, 0)
    _check_count("batch_rows", batch_rows, 3)  # divergences are timed on triples of rows
    degree_grid = list(degree_grid)
    for d in degree_grid:
        _check_positive("degree", d)
    points = []
    for d in degree_grid:
        rng = np.random.default_rng([seed, int(d * 1000), k])
        g = synthetic.regular_cardinality_hypergraph(n, cardinality, d, rng)
        if g.n < 3:  # divergences are timed on triples of rows
            raise ParameterError(f"at degree {d} the largest component has {g.n} < 3 vertices")
        p = projection.transition(g)
        sources = rng.choice(g.n, size=min(batch_rows, g.n), replace=False).tolist()

        (secs_batch,) = _time(lambda: localwalk.walk_matrix_rows(p, sources, k))
        rows = localwalk.walk_matrix_rows(p, sources, k)

        pos = rows.positions(sources)
        secs_div = []
        for t in (2, 3):
            picks = [rng.choice(len(sources), size=t, replace=False) for _ in range(PAIRS)]
            groups = pos[np.array(picks)]
            secs_div.extend(_time(lambda: divergence.divergences(rows.matrix, groups)))
        secs_js, secs_gjs = secs_div

        points.append(
            BenchPoint(
                mean_degree=projection.adjacency(g).nnz / g.n,
                seconds_row=secs_batch / len(sources),
                seconds_js=secs_js / PAIRS,
                seconds_gjs=secs_gjs / PAIRS,
            )
        )
    return points


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def row_cost_slope(points) -> float:
    """Fitted exponent of per-row seconds versus mean degree."""
    return loglog_slope([p.mean_degree for p in points], [p.seconds_row for p in points])


def method_runtimes(seed: int = 0) -> dict[str, float]:
    """Wall-clock of score_candidates per method on one shared workload,
    the fastest of REPEATS calls, so no method pays for a cold first call;
    the methods take turns within each round (see :func:`_time`).  Raises
    ParameterError unless the seed is an integer >= 0."""
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = synthetic.regular_cardinality_hypergraph(
        RUNTIME_VERTICES, RUNTIME_CARDINALITY, RUNTIME_DEGREE, rng
    )
    cand = [
        tuple(sorted(rng.choice(g.n, size=RUNTIME_CARDINALITY, replace=False).tolist()))
        for _ in range(RUNTIME_CANDIDATES)
    ]
    kinds = (scoring.LRW, scoring.LRW_JS, scoring.LRW_GJS)
    calls = [partial(scoring.score_candidates, scoring.MethodSpec(kind, k=RUNTIME_K), g, cand)
             for kind in kinds]
    return dict(zip(kinds, _time(*calls)))
