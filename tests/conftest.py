"""Shared fixtures, hypothesis strategies, and independent oracles.

The oracles here deliberately avoid the library's own code paths: dense
matrix powers for walk rows, pair enumeration for metrics, scalar
formulas for divergences, and per-edge loops for negative sampling,
top-k selection and candidate checks, so tests compare two independent
routes.
"""

from __future__ import annotations

import math
import numbers
import os
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import sparse

from hyperwalk import divergence
from hyperwalk.errors import (
    CandidateError,
    EmptyHypergraphError,
    ParameterError,
    ParseError,
    SamplingError,
)
from hyperwalk.hypergraph import Hypergraph, from_label_edges, largest_component

DATA_DIR = Path(os.environ.get("HYPERWALK_DATA", Path(__file__).parent.parent / "data"))


# Module constants that force each executor of divergence.divergences.
DIVERGENCE_EXECUTORS = {
    "dense": {"DENSE_MIN_FILL": 0.0},
    "sorted cells": {"DENSE_MIN_FILL": math.inf, "DIRECT_CELLS_PER_ENTRY": 0},
    "direct cells": {"DENSE_MIN_FILL": math.inf, "DIRECT_CELLS_PER_ENTRY": 1 << 40},
}


@contextmanager
def divergence_constants(**constants):
    """Set module constants of ``hyperwalk.divergence`` for the block."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(divergence, name, value)
        yield


@pytest.fixture
def t1() -> Hypergraph:
    """The worked micro-example: edges {1,2,3} and {3,4}."""
    return from_label_edges([[1, 2, 3], [3, 4]])


@st.composite
def hypergraphs(draw, max_n: int = 12, max_m: int = 10, connected: bool = False):
    n = draw(st.integers(4, max_n))
    m = draw(st.integers(1, max_m))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(4, n)))
        edges.append(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
    g = from_label_edges(edges)
    return largest_component(g) if connected else g


@st.composite
def distributions(draw, max_support: int = 12, universe: int = 20):
    support = sorted(draw(st.sets(st.integers(0, universe - 1), min_size=1, max_size=max_support)))
    raw = [draw(st.floats(1e-3, 1.0, allow_nan=False)) for _ in support]
    total = sum(raw)
    dense = np.zeros(universe)
    dense[support] = np.array(raw) / total
    return dense


def dense_walk_oracle(p_dense: np.ndarray, k: int) -> np.ndarray:
    """(1/K) * sum of the first K dense matrix powers."""
    acc = np.zeros_like(p_dense)
    power = np.eye(p_dense.shape[0])
    for _ in range(k):
        power = power @ p_dense
        acc += power
    return acc / k


def walk_rows_oracle(P, sources, ks, drop_tol: float, renorm_tol: float) -> dict:
    """{K: (indptr, indices, data)} of walk-row snapshots, by the original
    extraction: per-entry row ids, masked copies of every entry, row sums
    and kept counts by ``bincount``, and a per-entry factor for every row.

    The sweep is the library's (same products and sums in the same order),
    so the floats it yields are the reference for bit-identity tests.
    """
    src = sorted(set(int(s) for s in sources))
    ks = sorted(set(ks))
    x = sparse.csr_matrix(
        (np.ones(len(src)), (np.arange(len(src)), np.array(src))), shape=(len(src), P.shape[0])
    )
    acc = sparse.csr_matrix((len(src), P.shape[0]))
    out = {}
    for k in range(1, ks[-1] + 1):
        x = x @ P
        acc = acc + x
        if k not in ks:
            continue
        acc.sort_indices()
        vals = acc.data * (1.0 / k)
        keep = vals > drop_tol
        row_of = np.repeat(np.arange(len(src)), np.diff(acc.indptr))[keep]
        idx = acc.indices[keep]
        vals = vals[keep]
        sums = np.bincount(row_of, weights=vals, minlength=len(src))
        needs_fix = np.abs(sums - 1.0) > renorm_tol
        if needs_fix.any():
            factor = np.where(needs_fix & (sums > 0), 1.0 / np.where(sums > 0, sums, 1.0), 1.0)
            vals = vals * factor[row_of]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=len(src)))))
        out[k] = (indptr, idx, vals)
    return out


def transition_oracle(g: Hypergraph) -> np.ndarray:
    """Walk probabilities from the two-step choice process: pick an incident
    hyperedge uniformly, then a different member uniformly."""
    p = np.zeros((g.n, g.n))
    for e in g.edges:
        for i in e:
            for j in e:
                if i != j:
                    p[i, j] += (1.0 / g.degrees[i]) * (1.0 / (len(e) - 1))
    return p


def adjacency_oracle(g: Hypergraph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for e in g.edges:
        for i, j in combinations(e, 2):
            a[i, j] += 1
            a[j, i] += 1
    return a


def pair_enumeration(edge, pair_value) -> float:
    """Mean over the edge's vertex pairs, one scalar pair at a time."""
    verts = sorted(edge)
    t = len(verts)
    total = 0.0
    for i, j in combinations(verts, 2):
        total += pair_value(i, j)
    return total * 2.0 / (t * (t - 1))


def katz_dense_oracle(a: np.ndarray, beta: float) -> np.ndarray:
    """Closed-form Katz matrix sum_{l>=1} beta^l A^l = (I - beta A)^-1 - I,
    by a dense linear solve (no eigendecomposition)."""
    eye = np.eye(a.shape[0])
    return np.linalg.solve(eye - beta * a, eye) - eye


def katz_series_oracle(a: np.ndarray, beta: float, l_max: int = 8) -> np.ndarray:
    """Truncated Katz matrix sum_{l=1}^{l_max} beta^l A^l, from dense
    matrix powers (no sparse products)."""
    return sum(beta**l * np.linalg.matrix_power(a, l) for l in range(1, l_max + 1))


def js_scalar_oracle(p, q) -> float:
    """Direct scalar evaluation of the base-2 pairwise divergence."""
    total = 0.0
    for pi, qi in zip(p, q):
        r = (pi + qi) / 2.0
        if pi > 0:
            total += 0.5 * pi * math.log2(pi / r)
        if qi > 0:
            total += 0.5 * qi * math.log2(qi / r)
    return total


def gjs_scalar_oracle(dists) -> float:
    """Direct scalar evaluation of the base-2 generalized divergence, each
    distribution weighing 1/t in the mixture."""
    w = 1.0 / len(dists)
    total = 0.0
    for column in zip(*dists):
        mix = sum(w * pi for pi in column)
        for pi in column:
            if pi > 0:
                total += w * pi * math.log2(pi / mix)
    return total


def load_oracle(text: str, label_mode: bool, min_cardinality) -> tuple[int, tuple, tuple]:
    """The reference loader: ``(n, edges, labels)`` of ``loads(text, label_mode,
    min_cardinality)``, raising the same errors with the same messages.

    Each line is parsed on its own and each edge is a frozenset; the labels
    are numbered by ``sorted`` and the edges ordered by ``sorted`` on tuples.
    """
    edges = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in (line.split(",") if "," in line else line.split())]
        tokens = [t for t in tokens if t]
        if not label_mode:
            for i, t in enumerate(tokens):
                try:
                    tokens[i] = int(t)
                except ValueError:
                    raise ParseError(number, f"non-integer vertex token {t!r}") from None
        edges.append(frozenset(tokens))
    if not (
        isinstance(min_cardinality, numbers.Integral)
        and not isinstance(min_cardinality, bool)
        and min_cardinality >= 2
    ):
        raise ParameterError(f"min_cardinality={min_cardinality!r} is not an integer >= 2")
    kept = {e for e in edges if len(e) >= min_cardinality}
    if not kept:
        raise EmptyHypergraphError("no hyperedges remain after filtering")
    labels = sorted({v for e in kept for v in e})
    index = {label: i for i, label in enumerate(labels)}
    return len(labels), tuple(sorted(tuple(sorted(index[v] for v in e)) for e in kept)), tuple(labels)


def components_oracle(g: Hypergraph) -> list[int]:
    """Component of every vertex by union-find over the hyperedges, always
    keeping the smaller root, so each root is its component's smallest vertex."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        r = find(e[0])
        for v in e[1:]:
            s = find(v)
            if s < r:
                parent[r] = s
                r = s
            elif s > r:
                parent[s] = r
    return [find(v) for v in range(g.n)]


def auroc_pairs_oracle(scores, labels) -> float:
    """All positive-negative pairs; wins count 1, ties 0.5."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def select_top_oracle(edges, scores, cutoff: int) -> list[int]:
    """The cutoff best indices by Python's tuple order on (-score, edge)."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], edges[i]))[:cutoff]


def f1_set_oracle(edges, scores, labels, cutoff: int) -> float:
    """Top-set enumeration with the (score desc, edge asc) order.

    The harmonic mean is evaluated in exact rational arithmetic so the
    oracle is correct to the last float bit.
    """
    from fractions import Fraction

    order = select_top_oracle(edges, scores, cutoff)
    tp = sum(labels[i] for i in order)
    n_pos = sum(labels)
    if tp == 0:
        return 0.0
    precision = Fraction(tp, cutoff)
    recall = Fraction(tp, n_pos)
    return float(2 * precision * recall / (precision + recall))


def negatives_oracle(edge, g, spec, rng, forbidden, active):
    """Fakes for one missing edge by the per-fake loop: a fresh eligibility
    mask per edge, ``np.delete`` of the dropped slots, and ``rng.choice``
    over the eligible vertices themselves.  ``forbidden`` is the set of
    edges a fake must avoid, which the fakes join; ``active`` marks the
    vertices a fake may take.  Returns (fakes, collisions)."""
    size = len(edge)
    r = min(max(math.floor((1.0 - spec.alpha) * size + 0.5), 1), size - 1)
    in_edge = np.zeros(g.n, dtype=bool)
    in_edge[list(edge)] = True
    eligible = np.flatnonzero(active & ~in_edge)
    if len(eligible) < r:
        raise SamplingError(
            f"edge {edge}: need {r} replacement vertices, only {len(eligible)} eligible"
        )
    edge_arr = np.asarray(edge)
    fakes = []
    collisions = 0
    for _ in range(spec.fakes_per_missing):
        fake = ()
        for attempt in range(100):
            drop = rng.choice(size, size=r, replace=False)
            keep = np.delete(edge_arr, drop)
            repl = rng.choice(eligible, size=r, replace=False)
            fake = tuple(sorted(np.concatenate([keep, repl]).tolist()))
            if fake not in forbidden:
                break
        else:
            collisions += 1
        forbidden.add(fake)
        fakes.append(fake)
    return fakes, collisions


def candidate_checks_oracle(g: Hypergraph, candidates) -> list:
    """Canonical candidates by the per-edge loop, raising the
    CandidateError of the first candidate that fails a check."""
    degrees = g.degrees
    out = []
    for e in candidates:
        for v in e:
            if not isinstance(v, numbers.Integral):
                raise CandidateError(f"candidate {tuple(e)!r} has the non-integer vertex {v!r}")
        edge = tuple(sorted(int(v) for v in e))
        if len(edge) < 2 or len(set(edge)) != len(edge):
            raise CandidateError(f"candidate {edge} is not a set of >= 2 vertices")
        for v in edge:
            if v < 0 or v >= g.n or degrees[v] == 0:
                raise CandidateError(
                    f"candidate {edge} uses vertex {v} absent from the training hypergraph"
                )
        out.append(edge)
    return out


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS: {message}")
