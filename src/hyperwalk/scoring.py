"""Candidate-hyperedge scoring under the six similarity methods.

Pairwise similarity indices (walk mass, 1 - JS, common neighbors, Katz,
resource allocation) are averaged over all unordered vertex pairs of a
candidate edge; the generalized-divergence index scores the edge's vertex
set directly.  Every scorer sorts the candidate's vertices first, so scores
are identical under any reordering of the input edge.

:func:`score_grid` is the one place that turns a method family, a graph,
candidate edges and parameter values into scores; cross-validation calls
it with a whole grid per fold, and :func:`score_candidates` with the one
chosen value.  :func:`converging_betas` is the one Katz convergence
pre-check on an observed graph.

Scoring is batched.  :func:`score_grid` expands its candidates once, and
every walk length and method of the call shares that expansion: the
sorted union of the candidates' vertices, each cardinality's vertex
matrix as ranks in that union, and, built only when a method reads them,
the vertex pairs in ``combinations`` order (one ``triu_indices`` block
per cardinality) and the distinct pairs.  The candidate checks of
:func:`score_candidates` run on the same cardinality blocks.  A walk method maps the ranks
onto one K's walk rows with a single row lookup.  Each method computes
all pair values at once: exact gathers from the walk-row CSR matrix
(lrw), from the sparse resource-allocation product (hpra) or from the
Katz table (hkatz); row products of the binary adjacency (hcn); or one
batched divergence kernel call over the distinct pairs (lrw-js).
lrw-gjs passes each candidate's rows to the kernel as one group.  One
helper, :func:`_pair_means`, then averages the pair values of every
candidate, adding them slot by slot in pair order so each mean is the same
float as a one-pair-at-a-time loop.  The divergence kernel bounds its
temporaries with a fixed per-chunk entry budget (see
:mod:`hyperwalk.divergence`).

The closed-form Katz table decomposes the adjacency once per connected
component (a dense symmetric eigendecomposition), so one table serves
every damping factor of a grid: each factor only reweights the spectrum.
Only the eigenvector rows of the table's vertices are kept; a pair's
similarity is one dot product of its two rows, and pairs in different
components read exactly 0.0 without any arithmetic.  Above
KATZ_CLOSED_MAX_N vertices the truncated series takes over.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import eigsh

from . import divergence, localwalk, projection
from .errors import CandidateError, ContractViolation, KatzDivergenceError, ParameterError
from .errors import _check_count, _is_number
from .hypergraph import Edge, Hypergraph, components, vertex_rows

LRW = "lrw"
LRW_JS = "lrw-js"
LRW_GJS = "lrw-gjs"
HCN = "hcn"
HKATZ = "hkatz"
HPRA = "hpra"

WALK_KINDS = (LRW, LRW_JS, LRW_GJS)
ALL_KINDS = (HCN, HKATZ, HPRA, LRW, LRW_JS, LRW_GJS)

# Above this size, the closed form (one eigendecomposition per connected
# component) gives way to a truncated series.
KATZ_CLOSED_MAX_N = 20_000
# Powers of the adjacency summed by the truncated Katz series.
KATZ_LMAX = 8
# Eigenvector-row entries multiplied at a time for closed-form Katz pairs.
KATZ_CHUNK_ENTRIES = 2**16
# Walk scores within this distance of [0, 1] are rounding and get clipped.
SCORE_TOL = 1e-12


@dataclass(frozen=True)
class MethodSpec:
    """A scoring method plus its hyperparameters.

    ``k`` is the maximum walk length for the three walk methods; ``beta``
    the Katz damping factor.  How Katz similarities are computed follows
    from the graph size alone (see :func:`katz_pair_table`).
    """

    kind: str
    k: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ParameterError(f"unknown method kind {self.kind!r}; choose from {ALL_KINDS}")
        if self.k is not None:
            _check_count("walk length k", self.k)
        if self.beta is not None and not (
            _is_number(self.beta, numbers.Real) and 0 < self.beta < math.inf
        ):
            raise ParameterError(f"Katz damping beta={self.beta!r} is not a finite real number > 0")

    def with_param(self, value) -> "MethodSpec":
        """Copy with the method's tunable parameter set.

        An integer of any type becomes an ``int`` and a real damping factor
        a ``float``, so results hold Python numbers; any other value goes
        to the constructor's checks as it is.
        """
        if _is_number(value, numbers.Integral):
            value = operator.index(value)
        if self.kind in WALK_KINDS:
            return replace(self, k=value)
        if self.kind == HKATZ:
            return replace(self, beta=float(value) if _is_number(value, numbers.Real) else value)
        return self

    @property
    def param(self):
        if self.kind in WALK_KINDS:
            return self.k
        if self.kind == HKATZ:
            return self.beta
        return None


@dataclass(frozen=True)
class ScoredEdge:
    edge: Edge
    score: float
    method: MethodSpec


class _Pairs(NamedTuple):
    """Vertex pairs of a batch of candidates.

    Pair p of candidate c is ``(i[slots[c, p]], j[slots[c, p]])``, with
    i < j and pairs listed in ``combinations`` order; ``slots`` is -1 past
    a candidate's last pair.  ``ri`` and ``rj`` are the ranks of i and j
    among the candidates' vertices, and ``sizes`` holds the candidates'
    cardinalities.
    """

    i: np.ndarray
    j: np.ndarray
    ri: np.ndarray
    rj: np.ndarray
    slots: np.ndarray
    sizes: np.ndarray


class _Candidates(Sequence):
    """A checked batch of candidate edges and their expansion, shared by
    every method and parameter value that scores the batch.

    As a sequence it yields each candidate in canonical form, a sorted
    tuple of vertex ids, in input order.  ``vertices`` is the sorted union
    of their vertices, and ``blocks`` holds, for each cardinality t, the
    indices of the candidates of size t and their sorted vertices as ranks
    in ``vertices``.  Because ranks ascend with vertex ids, they order
    pairs and groups exactly as the vertex ids do.  The vertex pairs and
    the distinct pairs are built on first use only.

    Every candidate must be a set of at least two integer vertex ids and,
    when the graph ``g`` is given, use only vertices present in it.  The
    checks run on the blocks, and the first failing candidate in input
    order raises its :class:`CandidateError`.
    """

    def __init__(self, edges, g: Hypergraph | None = None):
        self._edges = edges if isinstance(edges, Sequence) else list(edges)
        self.sizes = np.fromiter(map(len, self._edges), dtype=np.int64, count=len(self._edges))
        flat = list(chain.from_iterable(self._edges))
        kinds = set(map(type, flat))
        starts = np.cumsum(self.sizes) - self.sizes
        self.vertices, inverse = np.unique(_vertex_ids(flat, kinds), return_inverse=True)
        absent = self.vertices < 0  # negative, or not an integer (see _vertex_ids)
        if g is not None:
            absent |= self.vertices >= g.n
            absent[~absent] = g.degrees[self.vertices[~absent]] == 0
        bad = self.sizes < 2
        # a candidate given as an ascending tuple of ints is its own canonical form
        self._as_given = np.full(
            len(self), kinds <= {int} and set(map(type, self._edges)) <= {tuple}
        )
        self.blocks = []
        for t in np.unique(self.sizes).tolist():
            idx = np.flatnonzero(self.sizes == t)
            given = inverse[starts[idx, None] + np.arange(t)]
            ranks = np.sort(given)
            bad[idx] |= (ranks[:, 1:] == ranks[:, :-1]).any(axis=1) | absent[ranks].any(axis=1)
            self._as_given[idx] &= (given == ranks).all(axis=1)
            self.blocks.append((t, idx, ranks))
        if bad.any():
            raise _candidate_error(self._edges[int(np.argmax(bad))], g)

    @cached_property
    def _canonical(self) -> list[Edge]:
        out = list(self._edges)
        for _, idx, ranks in self.blocks:
            redo = ~self._as_given[idx]
            for k, edge in zip(idx[redo].tolist(), map(tuple, self.vertices[ranks[redo]].tolist())):
                out[k] = edge
        return out

    def __getitem__(self, k):
        return self._canonical[k]

    def __iter__(self):
        return iter(self._canonical)

    def __len__(self) -> int:
        return len(self.sizes)

    @cached_property
    def pairs(self) -> _Pairs:
        width = max((t * (t - 1) // 2 for t, _, _ in self.blocks), default=0)
        slots = np.full((len(self), width), -1, dtype=np.int64)
        first, second = [], []
        base = 0
        for t, idx, ranks in self.blocks:
            iu, ju = np.triu_indices(t, 1)
            first.append(ranks[:, iu].ravel())
            second.append(ranks[:, ju].ravel())
            slots[idx, : len(iu)] = base + np.arange(len(idx) * len(iu)).reshape(len(idx), len(iu))
            base += len(idx) * len(iu)
        empty = np.zeros(0, dtype=np.int64)
        ri, rj = np.concatenate(first or [empty]), np.concatenate(second or [empty])
        return _Pairs(self.vertices[ri], self.vertices[rj], ri, rj, slots, self.sizes)

    @cached_property
    def distinct_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rank pairs in ascending order, as a (U, 2) array,
        and the row of each pair of ``pairs`` in it."""
        n = len(self.vertices)
        keys, inverse = np.unique(self.pairs.ri * n + self.pairs.rj, return_inverse=True)
        return np.stack([keys // n, keys % n], axis=1), inverse


def _vertex_ids(flat: list, kinds: set[type]) -> np.ndarray:
    """Vertex ids ``flat``, of the types ``kinds``, as int64; -1 stands in
    for any that is not a nonnegative int64 integer."""
    if all(issubclass(t, numbers.Integral) for t in kinds):
        try:
            return np.array(flat, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(
        [v if isinstance(v, numbers.Integral) and 0 <= v < 2**63 else -1 for v in flat],
        dtype=np.int64,
    )


def _candidate_error(edge, g: Hypergraph | None) -> CandidateError:
    """The error of one failing candidate, from its first failing check."""
    for v in edge:
        if not isinstance(v, numbers.Integral):
            return CandidateError(f"candidate {tuple(edge)!r} has the non-integer vertex {v!r}")
    edge = tuple(sorted(int(v) for v in edge))
    if len(edge) < 2 or len(set(edge)) != len(edge):
        return CandidateError(f"candidate {edge} is not a set of >= 2 vertices")
    limit = g.n if g is not None else 2**63
    for v in edge:
        if v < 0 or v >= limit or (g is not None and g.degrees[v] == 0):
            return CandidateError(
                f"candidate {edge} uses vertex {v} absent from the training hypergraph"
            )
    raise ContractViolation(f"candidate {edge} was rejected but passes every check")


def _candidates(edges, g: Hypergraph | None = None) -> _Candidates:
    return edges if isinstance(edges, _Candidates) else _Candidates(edges, g)


def _pair_means(pairs: _Pairs, values: np.ndarray) -> np.ndarray:
    """Mean of per-pair ``values`` over each candidate's pairs.

    Pair terms are added slot by slot, left to right, then scaled by
    2 / (t(t - 1)), so each mean is the same float as summing the
    candidate's pairs one by one in ``combinations`` order.
    """
    padded = np.append(np.asarray(values, dtype=np.float64), 0.0)  # slot -1 reads 0.0
    total = np.zeros(len(pairs.slots))
    for col in pairs.slots.T:
        total += padded[col]
    return total * 2.0 / (pairs.sizes * (pairs.sizes - 1))


def _unit_interval(scores: np.ndarray, edges) -> np.ndarray:
    """Clip rounding excursions of at most SCORE_TOL back into [0, 1].

    A score farther outside (or NaN) means the walk rows were not
    probability distributions, and is a contract violation.
    """
    bad = ~((scores >= -SCORE_TOL) & (scores <= 1.0 + SCORE_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise ContractViolation(
            f"candidate {tuple(edges[k])} scored {scores[k]!r}, outside [0, 1]: "
            "its walk rows are not probability distributions"
        )
    return np.clip(scores, 0.0, 1.0)


def _gather(mat: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stored entries mat[rows[k], cols[k]] (0.0 where nothing is stored)."""
    return np.asarray(mat[rows, cols]).ravel()


def score_edges_from_rows(kind: str, edges, rows: localwalk.WalkRows) -> np.ndarray:
    """Score many edges under one walk method from precomputed walk rows,
    which hold a row for every vertex of the edges.

    ``edges`` is a list of edges, or the expanded batch that
    :func:`score_grid` shares among its calls; either way the candidates'
    vertices are looked up in ``rows`` once.  lrw averages the symmetrized
    walk mass s_ij + s_ji, read by exact gathers; lrw-js evaluates the
    divergence of each distinct vertex pair once, in one batched kernel
    call; lrw-gjs passes every candidate's rows as one group, normalized
    by log2 t.
    """
    if kind not in WALK_KINDS:
        raise ParameterError(f"{kind!r} is not a walk method")
    cands = _candidates(edges)
    if not len(cands):
        return np.zeros(0)
    pos = rows.positions(cands.vertices)
    mat = rows.matrix
    if kind == LRW_GJS:
        scores = np.empty(len(cands))
        for t, idx, ranks in cands.blocks:
            scores[idx] = 1.0 - divergence.divergences(mat, pos[ranks]) / math.log2(t)
        return _unit_interval(scores, cands)
    pairs = cands.pairs
    if kind == LRW:
        return _pair_means(
            pairs, _gather(mat, pos[pairs.ri], pairs.j) + _gather(mat, pos[pairs.rj], pairs.i)
        )
    distinct, inverse = cands.distinct_pairs
    values = divergence.divergences(mat, pos[distinct])[inverse]
    return _unit_interval(1.0 - _pair_means(pairs, values), cands)


def spectral_radius(a: sparse.csr_matrix) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix."""
    n = a.shape[0]
    if n <= 200:
        return float(np.linalg.eigvalsh(a.toarray())[-1])
    v0 = np.ones(n) / math.sqrt(n)
    vals = eigsh(a.astype(np.float64), k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(vals[0])


def katz_closed_form(n: int) -> bool:
    """Whether Katz similarities on n vertices come from the closed form
    (up to KATZ_CLOSED_MAX_N vertices) rather than the truncated series."""
    return n <= KATZ_CLOSED_MAX_N


def converging_betas(g: Hypergraph, betas) -> list:
    """The damping factors of ``betas`` whose closed-form Katz series
    converges on g's adjacency: beta * spectral radius < 1.

    A subgraph of g has an entrywise-smaller adjacency, hence no larger
    spectral radius, so a factor kept here also converges on every
    cross-validation fold of g.  The truncated series converges for every
    factor.  Raises KatzDivergenceError when none is left.
    """
    if not katz_closed_form(g.n):
        return list(betas)
    rho = spectral_radius(projection.adjacency(g))
    kept = [beta for beta in betas if beta * rho < 1.0]
    if not kept:
        raise KatzDivergenceError(
            f"no damping factor in {betas} converges on the observed structure "
            f"(spectral radius {rho:.3g})"
        )
    return kept


def katz_pair_table(g: Hypergraph, vertices) -> KatzSpectra | KatzSeries:
    """Katz similarities K_beta = sum_{l>=1} beta^l A^l among ``vertices``
    of g, for any damping factor beta, where A is g's adjacency.

    Where :func:`katz_closed_form` holds this is a :class:`KatzSpectra`:
    one dense eigendecomposition per connected component of g serves a
    whole beta grid, and pairs in different components read exactly 0.0.
    Beyond, it is a :class:`KatzSeries`, which sums KATZ_LMAX powers of A
    for each beta asked for.  Raises ParameterError for a vertex that is
    not an integer id in 0..n-1.
    """
    if katz_closed_form(g.n):
        return KatzSpectra(g, vertices)
    return KatzSeries(g, vertices)


class KatzSpectra:
    """Closed-form Katz similarities from the spectrum of each component.

    For a component with adjacency A_c = U diag(lam) U^T,
    K_beta[i, j] = sum_k U[i, k] U[j, k] beta lam_k / (1 - beta lam_k).
    Only the rows of U at the table's vertices are kept, and K_beta is
    never formed: each asked-for pair is one dot product of two rows,
    taken KATZ_CHUNK_ENTRIES row entries at a time.  Components without
    a table vertex contribute only their largest eigenvalue, to
    ``lambda_max``; isolated vertices contribute nothing.
    """

    def __init__(self, g: Hypergraph, vertices):
        a = projection.adjacency(g)
        wanted = np.zeros(g.n, dtype=bool)
        wanted[vertex_rows(vertices, g.n)[0]] = True
        self.lambda_max = 0.0
        self._spectra: list[tuple[np.ndarray, np.ndarray]] = []
        self._part = np.full(g.n, -1, dtype=np.int64)  # spectrum of each table vertex
        self._row = np.zeros(g.n, dtype=np.int64)  # its row of that spectrum's U
        # components come in order of their smallest vertex
        comp = components(g)
        order = np.argsort(comp, kind="stable")
        for members in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
            if len(members) == 1:
                continue
            dense = a[members][:, members].toarray()
            mask = wanted[members]
            keep = members[mask]
            if len(keep):
                # divide and conquer, as numpy's eigh; overwriting the dense
                # copy spares LAPACK a second n_c x n_c buffer
                lam, u = linalg.eigh(dense, overwrite_a=True, check_finite=False, driver="evd")
                self._part[keep] = len(self._spectra)
                self._row[keep] = np.arange(len(keep))
                self._spectra.append((lam, u[mask]))
            else:
                lam = np.linalg.eigvalsh(dense)
            self.lambda_max = max(self.lambda_max, float(lam[-1]))

    def check(self, beta: float) -> None:
        """Raise KatzDivergenceError unless beta * lambda_max < 1."""
        rho = self.lambda_max
        if beta * rho >= 1.0:
            raise KatzDivergenceError(
                f"beta={beta} >= 1/spectral_radius={1.0 / rho if rho else math.inf:.6g}; "
                "Katz series diverges in closed form"
            )

    def values(self, beta: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """K_beta[i[k], j[k]] for pairs of table vertices."""
        self.check(beta)
        out = np.zeros(len(i))  # pairs across components keep this 0.0
        part = self._part[i]
        same = np.flatnonzero((part == self._part[j]) & (part >= 0))
        same = same[np.argsort(part[same], kind="stable")]
        groups = np.split(same, np.searchsorted(part[same], np.arange(1, len(self._spectra))))
        for (lam, u), sel in zip(self._spectra, groups):
            damped = beta * lam
            scaled = u * (damped / (1.0 - damped))
            step = max(1, KATZ_CHUNK_ENTRIES // u.shape[1])
            for lo in range(0, len(sel), step):
                k = sel[lo : lo + step]
                out[k] = np.einsum("pk,pk->p", scaled[self._row[i[k]]], u[self._row[j[k]]])
        return out


class KatzSeries:
    """Katz similarities summed over the first KATZ_LMAX powers of A,
    recomputed for each damping factor."""

    def __init__(self, g: Hypergraph, vertices):
        self.a = projection.adjacency(g)
        self.verts, self._select = vertex_rows(vertices, g.n)

    def values(self, beta: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Truncated K_beta[i[k], j[k]], with every j[k] a table vertex,
        read from the dense rows sum_{l<=KATZ_LMAX} beta^l (A^l)[v, :] of
        the table's vertices."""
        damped = (beta * self.a).tocsr()
        x = acc = self._select @ damped
        for _ in range(KATZ_LMAX - 1):
            x = x @ damped
            acc = acc + x
        return np.asarray(acc.todense())[np.searchsorted(self.verts, j), i]


def neighbor_sets(g: Hypergraph) -> sparse.csr_matrix:
    """Clique-expansion neighborhoods as a 0/1 matrix: row v marks v's neighbors."""
    a = projection.adjacency(g)
    a.data[:] = 1.0
    return a


def hpra_pair_table(g: Hypergraph, vertices) -> sparse.csr_matrix:
    """Resource-allocation rows (W + W D^-1 W)[v, :], one sparse row per
    distinct vertex of ``vertices`` in ascending order.  Raises
    ParameterError for a vertex that is not an integer id in 0..n-1."""
    w = projection.weighted_projection(g)
    dinv = np.divide(1.0, g.degrees, out=np.zeros(g.n), where=g.degrees > 0)
    xw = vertex_rows(vertices, g.n)[1] @ w
    return (xw + (xw @ sparse.diags(dinv)) @ w).tocsr()


def score_grid(kinds, g: Hypergraph, edges, grid) -> dict[str, list[np.ndarray]]:
    """Scores of canonical candidate ``edges`` on ``g`` under each method
    of one family, one score array per value of ``grid``, in grid order.

    A family is any set of walk methods, whose grid holds walk lengths K;
    hkatz, whose grid holds damping factors; or hcn or hpra alone, whose
    grid is ``[None]``.  Walk rows, the Katz table and resource-allocation
    rows are computed once, for the union of the edges' vertices: the walk
    methods share one propagation sweep up to the largest K, and hkatz one
    table for every damping factor.
    """
    kinds, grid = list(kinds), list(grid)
    if not kinds or (len(kinds) > 1 and not set(kinds) <= set(WALK_KINDS)):
        raise ParameterError(f"method kinds {kinds} are not one family")
    cands = _candidates(edges, g)
    if kinds[0] in WALK_KINDS:
        p = projection.transition(g, allow_isolated=True)
        rows_by_k = localwalk.walk_matrix_rows_multi(p, cands.vertices, grid)
        return {
            kind: [score_edges_from_rows(kind, cands, rows_by_k[k]) for k in grid]
            for kind in kinds
        }
    (kind,) = kinds
    pairs = cands.pairs
    if kind == HKATZ:
        table = katz_pair_table(g, cands.vertices)
        return {kind: [_pair_means(pairs, table.values(beta, pairs.i, pairs.j)) for beta in grid]}
    if grid != [None]:
        raise ParameterError(f"{kind} has no parameter; its grid is [None], not {grid}")
    if kind == HCN:
        nbrs = neighbor_sets(g)
        values = np.asarray(nbrs[pairs.i].multiply(nbrs[pairs.j]).sum(axis=1)).ravel()
    else:
        table = hpra_pair_table(g, cands.vertices)  # row r is vertex cands.vertices[r]
        values = _gather(table, pairs.rj, pairs.i)
    return {kind: [_pair_means(pairs, values)]}


def score_candidates(method: MethodSpec, g: Hypergraph, candidates) -> list[ScoredEdge]:
    """Score every candidate edge; output order matches input order.

    The candidates are checked and put in canonical form, then scored in
    one batch by :func:`score_grid` at the method's own parameter.
    """
    cands = _Candidates(candidates, g)
    if not len(cands):
        return []
    if method.kind in WALK_KINDS and method.k is None:
        raise ParameterError(f"{method.kind} requires the walk length k")
    if method.kind == HKATZ and method.beta is None:
        raise ParameterError("hkatz requires the damping factor beta")
    vals = score_grid([method.kind], g, cands, [method.param])[method.kind][0]
    return [ScoredEdge(e, v, method) for e, v in zip(cands, vals.tolist())]
