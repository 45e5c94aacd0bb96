"""Candidate-hyperedge scoring under the six similarity methods.

Pairwise similarity indices (walk mass, 1 - JS, common neighbors, Katz,
resource allocation) are averaged over all unordered vertex pairs of a
candidate edge; the generalized-divergence index scores the edge's vertex
set directly.  Every scorer sorts the candidate's vertices first, so scores
are identical under any reordering of the input edge.

:func:`score_grid` is the one place that turns a method family, a graph,
candidate edges and parameter values into scores; cross-validation calls
it with a whole grid per fold, and :func:`score_candidates` with the one
chosen value.  ``TUNED`` is the one table of which :class:`MethodSpec`
field each method kind tunes (k for the walk methods, beta for hkatz);
it decides the families, the parameter a method must be given, and what
cross-validation tunes.  :func:`converging_betas` is the one Katz
convergence pre-check on an observed graph.

Scoring is batched.  The batch, :class:`_Candidates`, is the one form of
a candidate list: the only code that checks an edge list and puts it in
canonical arrays.  A trial builds it once, for its missing edges and
fakes on the observed graph; cross-validation and every method's final
:func:`score_candidates` call read that batch, and a batch is checked
again only when it is scored on another graph.  The sampler reads its
missing edges through a batch as well.  :func:`score_grid` expands its
candidates once, and every walk length and method of the call shares
that expansion: the sorted union of the candidates' vertices, each
cardinality's vertex matrix as ranks in that union, and, built only
when a method reads them, one pair list: the distinct vertex pairs, and
the row among them of each candidate pair in ``combinations`` order (one
``triu_indices`` block per cardinality, so no candidate is padded to the
largest).  Every pair index evaluates each distinct pair once.  The
candidate checks run on the same cardinality blocks.  A walk method
maps the ranks onto one K's walk rows with a single row lookup.
lrw alone reads its walk rows through the pair sweep,
:func:`_pair_sweep`, the one block loop of both power series: it sweeps
the sources in blocks of at most WALK_BLOCK_ENTRIES row cells, n a
source, skips a block that no pair reads, takes each smaller K's rows
as the sweep reaches it, gathers them as the sparse products stored
them, without sorting, and computes the largest K's last step only at
the block's pairs; a row whose renormalization the pairs alone cannot
settle is computed whole (see :mod:`hyperwalk.localwalk`).
lrw keeps only each pair's s_ij + s_ji, so its memory grows with the
candidate pairs and the block; any other walk family shares one full
sweep of sorted rows, as lrw-js and lrw-gjs need both rows of a pair at
once.  hcn and hpra share one loop over the same partition of the
sources (:func:`_pair_blocks`), each pair under its larger vertex: a
pair (i, j) sums the entrywise product of row j of one matrix and row i
of another, the binary adjacency twice for hcn's common neighbours, or
W D^-1 and W^T for the shared-neighbour term of hpra's resource
allocation W + W D^-1 W, to which hpra adds W's own entry.  A mat-vec
adds each product row from 0.0 in ascending column order, as scipy's
product adds the terms of W D^-1 W, and W^T is read because W is not
bitwise symmetric, so each value is the float of
:func:`hpra_pair_table`.  A block is sized by the row entries its two
gathers copy, against WALK_BLOCK_ENTRIES // 16, so their memory, too,
grows with the block and the pairs.  Each method computes the values of
all distinct pairs: exact gathers from the walk-row CSR matrix (lrw) or
from the Katz table (hkatz); sums of row products (hcn, hpra); or one
batched divergence kernel call (lrw-js).  lrw-gjs passes each
candidate's rows to the kernel as one group.  One helper,
:func:`_pair_means`, then spreads the values over the candidate pairs
and averages them per candidate, one cardinality block at a time, adding
each candidate's pairs left to right so each mean is the same float as a
one-pair-at-a-time loop.  The divergence kernel bounds its temporaries
with a fixed per-chunk entry budget (see :mod:`hyperwalk.divergence`).

The closed-form Katz table decomposes the adjacency once per connected
component (a dense symmetric eigendecomposition), so one table serves
every damping factor of a grid: each factor only reweights the spectrum.
Only the eigenvector rows of the table's vertices are kept; a pair's
similarity is one dot product of its two rows, and pairs in different
components read exactly 0.0 without any arithmetic.  Above
KATZ_CLOSED_MAX_N vertices the truncated series takes over; it is the
same pair sweep run over beta * A, with its last power computed only at
the pairs, so its memory too grows with the block and the pairs.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import eigsh

from . import divergence, localwalk, projection
from .errors import CandidateError, ContractViolation, KatzDivergenceError, ParameterError
from .errors import _check_count, _check_positive, _is_number
from .hypergraph import Edge, Hypergraph, components, vertex_rows

LRW = "lrw"
LRW_JS = "lrw-js"
LRW_GJS = "lrw-gjs"
HCN = "hcn"
HKATZ = "hkatz"
HPRA = "hpra"

WALK_KINDS = (LRW, LRW_JS, LRW_GJS)
ALL_KINDS = (HCN, HKATZ, HPRA, LRW, LRW_JS, LRW_GJS)
# The MethodSpec field that cross-validation tunes, per method kind; kinds
# tuned by one field form one family, and a kind absent here is not tuned.
TUNED = {LRW: "k", LRW_JS: "k", LRW_GJS: "k", HKATZ: "beta"}

# Above this size, the closed form (one eigendecomposition per connected
# component) gives way to a truncated series.
KATZ_CLOSED_MAX_N = 20_000
# Powers of the adjacency summed by the truncated Katz series.
KATZ_LMAX = 8
# Walk scores within this distance of [0, 1] are rounding and get clipped.
SCORE_TOL = 1e-12
# Walk-row cells (sources x n) that lrw sweeps at a time when scored alone.
# On the score-wide benchmark graph (n = 5983, 2-core VM), 2^21 cells (350
# sources a block) cut the run's peak RSS from 186 to 130 MB with run_s flat.
# Smaller blocks cost lrw CPU time; with unsorted block rows, the median of
# 11 trial-0 scores against one block was 2^21: +3%, 2^20: +14%, 2^19: +38%
# (0.278, 0.308 and 0.372 s against 0.270 s), and 2^22 saved none measurably.
# hcn and hpra take a sixteenth of it in the row entries that their
# pairs gather (see _pair_blocks): on score-wide's trial 0 (5694 sources,
# about 100 entries each) that makes 5 blocks of about 1140 sources, and
# cuts the tracemalloc peak of a call from 16.6 to 6.2 MB (hpra; hcn: 15.2
# to 4.8 MB) with time flat; a sixty-fourth costs about 1 ms more a call.
# Closed-form Katz sizes its chunks of pairs by the same sixteenth, at the
# 2 n_c eigenvector-row entries a pair gathers (see KatzSpectra).
WALK_BLOCK_ENTRIES = 2**21


@dataclass(frozen=True)
class MethodSpec:
    """A scoring method plus its hyperparameters.

    ``k`` is the maximum walk length for the three walk methods; ``beta``
    the Katz damping factor.  How Katz similarities are computed follows
    from the graph size alone (see :func:`katz_pair_table`).  This is the
    one check of a parameter: an integer ``k`` of any type is stored as an
    ``int`` and a real ``beta`` as a ``float``, so results hold Python
    numbers, and then each is checked; any other value is checked as it is.
    """

    kind: str
    k: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ParameterError(f"unknown method kind {self.kind!r}; choose from {ALL_KINDS}")
        if _is_number(self.k, numbers.Integral):
            object.__setattr__(self, "k", operator.index(self.k))
        if _is_number(self.beta, numbers.Real):
            object.__setattr__(self, "beta", float(self.beta))
        if self.k is not None:
            _check_count("walk length k", self.k)
        if self.beta is not None:
            _check_positive("Katz damping beta", self.beta)

    def with_param(self, value) -> "MethodSpec":
        """Copy with the method's tuned field (see TUNED) set to ``value``,
        normalized and checked as the constructor does; an untuned method
        is returned as it is."""
        field = TUNED.get(self.kind)
        return replace(self, **{field: value}) if field else self

    @property
    def param(self):
        """The value of the method's tuned field (see TUNED); None for an
        untuned method."""
        return getattr(self, TUNED[self.kind]) if self.kind in TUNED else None


@dataclass(frozen=True, slots=True)
class ScoredEdge:
    edge: Edge
    score: float
    method: MethodSpec


class _Candidates(Sequence):
    """A checked batch of candidate edges and their expansion, shared by
    every method and parameter value that scores the batch.

    As a sequence it yields each candidate in canonical form, a sorted
    tuple of vertex ids, in input order.  ``vertices`` is the sorted union
    of their vertices, and ``blocks`` holds, for each cardinality t, the
    indices of the candidates of size t and their sorted vertices as ranks
    in ``vertices``.  Because ranks ascend with vertex ids, they order
    pairs and groups exactly as the vertex ids do.  The vertex pairs are
    built on first use only.

    Every candidate must be a set of at least two integer vertex ids and,
    when the graph ``g`` is given, use only vertices present in it.  The
    checks run on the blocks, and the first failing candidate in input
    order raises its :class:`CandidateError`, worded with ``noun``.  With
    ``strict`` false nothing raises: ``stop`` is the index of that
    candidate (``len(self)`` when none fails) and ``error`` its error, and
    a failing candidate reads as its ids as :func:`_vertex_ids` reads
    them, sorted.  ``g`` is kept, so that a batch is checked once per
    graph (see :func:`_candidates`).
    """

    def __init__(self, edges, g: Hypergraph | None = None, noun: str = "candidate",
                 strict: bool = True):
        self._edges = edges if isinstance(edges, Sequence) else list(edges)
        self.g = g
        self.sizes = np.fromiter(map(len, self._edges), dtype=np.int64, count=len(self._edges))
        flat = list(chain.from_iterable(self._edges))
        kinds = set(map(type, flat))
        starts = np.cumsum(self.sizes) - self.sizes
        self.vertices, flat_ranks = np.unique(_vertex_ids(flat, kinds), return_inverse=True)
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
            given = flat_ranks[starts[idx, None] + np.arange(t)]
            ranks = np.sort(given)
            bad[idx] |= (ranks[:, 1:] == ranks[:, :-1]).any(axis=1) | absent[ranks].any(axis=1)
            self._as_given[idx] &= (given == ranks).all(axis=1)
            self.blocks.append((t, idx, ranks))
        self.stop = int(np.argmax(bad)) if bad.any() else len(self)
        self.error = _candidate_error(self._edges[self.stop], g, noun) if bad.any() else None
        if self.error is not None and strict:
            raise self.error

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

    def within(self, mask: np.ndarray) -> np.ndarray:
        """Whether ``mask``, one flag per vertex id, marks every vertex of
        each candidate, read from each block's ranks."""
        marked = mask[self.vertices]
        out = np.empty(len(self), dtype=bool)
        for _, idx, ranks in self.blocks:
            out[idx] = marked[ranks].all(axis=1)
        return out

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rank pairs (i < j) in ascending order, as a (U, 2)
        array, and the row in it of each candidate pair.  The candidate
        pairs are listed block by block as in ``blocks`` and, within a
        block of cardinality t, candidate by candidate, each candidate's
        t(t - 1)/2 pairs in ``combinations`` order."""
        n = len(self.vertices)
        keys = [np.zeros(0, dtype=np.int64)]
        for t, _, ranks in self.blocks:
            iu, ju = np.triu_indices(t, 1)
            keys.append((ranks[:, iu] * n + ranks[:, ju]).ravel())
        keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        return np.stack(np.divmod(keys, n), axis=1), inverse


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


def _candidate_error(edge, g: Hypergraph | None, noun: str = "candidate") -> CandidateError:
    """The error of one failing edge, from its first failing check, naming
    the edge by ``noun``: a "candidate" uses a vertex absent from ``g``,
    and a "missing edge" (the sampler's input) has one."""
    for v in edge:
        if not isinstance(v, numbers.Integral):
            return CandidateError(f"{noun} {tuple(edge)!r} has the non-integer vertex {v!r}")
    edge = tuple(sorted(int(v) for v in edge))
    if len(edge) < 2 or len(set(edge)) != len(edge):
        return CandidateError(f"{noun} {edge} is not a set of >= 2 vertices")
    limit = g.n if g is not None else 2**63
    verb = "uses" if noun == "candidate" else "has a"
    for v in edge:
        if v < 0 or v >= limit or (g is not None and g.degrees[v] == 0):
            return CandidateError(
                f"{noun} {edge} {verb} vertex {v} absent from the training hypergraph"
            )
    raise ContractViolation(f"{noun} {edge} was rejected but passes every check")


def _candidates(edges, g: Hypergraph | None = None) -> _Candidates:
    """``edges`` as a checked batch.  A batch is reused when no graph is
    given or ``g`` is the graph it was checked against; anything else is
    checked against ``g`` anew."""
    if isinstance(edges, _Candidates) and (g is None or g is edges.g):
        return edges
    return _Candidates(edges, g)


def _pair_means(cands: _Candidates, values: np.ndarray) -> np.ndarray:
    """Mean of per-pair ``values``, one per distinct pair of
    ``cands.pairs``, over each candidate's pairs.

    The values are first spread over the candidate pairs.  Each
    cardinality block's pairs are then one (candidates, t(t - 1)/2) slice;
    its columns are added left to right from 0.0, then scaled by
    2 / (t(t - 1)), so each mean is the same float as summing the
    candidate's pairs one by one in ``combinations`` order.
    """
    values = values[cands.pairs[1]]
    means = np.empty(len(cands))
    start = 0
    for t, idx, _ in cands.blocks:
        block = values[start : start + len(idx) * t * (t - 1) // 2].reshape(len(idx), -1)
        start += block.size
        total = np.zeros(len(idx))
        for col in block.T:
            total += col
        means[idx] = total * 2.0 / (t * (t - 1))
    return means


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


def _directed_pairs(cands: _Candidates) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct pair (i, j) of ``cands.pairs`` read both ways, as the
    rank of a walk row's vertex and the vertex id of its column: U pairs
    (i, j), then the same U pairs as (j, i)."""
    ranks = cands.pairs[0].T
    return ranks.ravel(), cands.vertices[ranks[::-1]].ravel()


def _walk_mass(directed: np.ndarray) -> np.ndarray:
    """lrw's s_ij + s_ji of each distinct pair, from the walk mass of its
    two directed pairs (see :func:`_directed_pairs`)."""
    half = len(directed) // 2
    return directed[:half] + directed[half:]


def score_edges_from_rows(kind: str, edges, rows: localwalk.WalkRows) -> np.ndarray:
    """Score many edges under one walk method from precomputed walk rows,
    which hold a row for every vertex of the edges.

    ``edges`` is a list of edges, or the expanded batch that
    :func:`score_grid` shares among its calls.  lrw averages the
    symmetrized walk mass s_ij + s_ji, read by exact gathers, and lrw-js
    the pair divergences of one batched kernel call, each distinct vertex
    pair evaluated once; lrw-gjs passes every candidate's rows as one
    group, normalized by log2 t.
    """
    if kind not in WALK_KINDS:
        raise ParameterError(f"{kind!r} is not a walk method")
    cands = _candidates(edges)
    if not len(cands):
        return np.zeros(0)
    pos = rows.positions(cands.vertices)
    mat = rows.matrix
    if kind == LRW:
        ranks, cols = _directed_pairs(cands)
        return _pair_means(cands, _walk_mass(localwalk.gather(mat, pos[ranks], cols)))
    if kind == LRW_GJS:
        scores = np.empty(len(cands))
        for t, idx, ranks in cands.blocks:
            scores[idx] = 1.0 - divergence.divergences(mat, pos[ranks]) / math.log2(t)
        return _unit_interval(scores, cands)
    values = divergence.divergences(mat, pos[cands.pairs[0]])
    return _unit_interval(1.0 - _pair_means(cands, values), cands)


def spectral_radius(a: sparse.csr_matrix) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix."""
    n = a.shape[0]
    if n <= 200:
        return float(np.linalg.eigvalsh(a.toarray())[-1])
    v0 = np.ones(n) / math.sqrt(n)
    vals = eigsh(a.astype(np.float64), k=1, which="LA", v0=v0, return_eigenvectors=False)
    return float(vals[0])


def converging_betas(g: Hypergraph, betas) -> list:
    """The damping factors of ``betas`` whose closed-form Katz series
    converges on g's adjacency: beta * spectral radius < 1.

    A subgraph of g has an entrywise-smaller adjacency, hence no larger
    spectral radius, so a factor kept here also converges on every
    cross-validation fold of g.  The truncated series converges for every
    factor.  Raises KatzDivergenceError when none is left.
    """
    if g.n > KATZ_CLOSED_MAX_N:
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

    Up to KATZ_CLOSED_MAX_N vertices this is a :class:`KatzSpectra`: one
    dense eigendecomposition per connected component of g serves a whole
    beta grid, and pairs in different components read exactly 0.0.
    Beyond, it is a :class:`KatzSeries`, which sums KATZ_LMAX powers of A
    for each beta asked for.  Raises ParameterError for a vertex that is
    not an integer id in 0..n-1.
    """
    if g.n <= KATZ_CLOSED_MAX_N:
        return KatzSpectra(g, vertices)
    return KatzSeries(g, vertices)


class KatzSpectra:
    """Closed-form Katz similarities from the spectrum of each component.

    For a component with adjacency A_c = U diag(lam) U^T,
    K_beta[i, j] = sum_k U[i, k] U[j, k] beta lam_k / (1 - beta lam_k).
    Only the rows of U at the table's vertices are kept, and K_beta is
    never formed: each asked-for pair is one dot product of two rows.
    The pairs go in chunks sized as hcn's and hpra's blocks are, by the
    row entries that the two gathers copy, 2 n_c a pair for a component of
    n_c vertices, against WALK_BLOCK_ENTRIES // 16.  Components without
    a table vertex contribute only their largest eigenvalue, to
    ``lambda_max``; isolated vertices contribute nothing.
    """

    def __init__(self, g: Hypergraph, vertices):
        a = projection.adjacency(g)
        self.verts = vertex_rows(vertices, g.n)[0]
        wanted = np.isin(np.arange(g.n), self.verts)
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
        """K_beta[i[k], j[k]] for pairs of table vertices; any other
        vertex is a contract violation."""
        localwalk.check_present(self.verts, np.concatenate([i, j]), "Katz table row")
        self.check(beta)
        out = np.zeros(len(i))  # pairs across components keep this 0.0
        part = self._part[i]
        same = np.flatnonzero((part == self._part[j]) & (part >= 0))
        same = same[np.argsort(part[same], kind="stable")]
        groups = np.split(same, np.searchsorted(part[same], np.arange(1, len(self._spectra))))
        for (lam, u), sel in zip(self._spectra, groups):
            damped = beta * lam
            scaled = u * (damped / (1.0 - damped))
            step = max(1, WALK_BLOCK_ENTRIES // 16 // (2 * u.shape[1]))
            for lo in range(0, len(sel), step):
                k = sel[lo : lo + step]
                out[k] = np.einsum("pk,pk->p", scaled[self._row[i[k]]], u[self._row[j[k]]])
        return out


class KatzSeries:
    """Katz similarities summed over the first KATZ_LMAX powers of A,
    recomputed for each damping factor by the pair sweep of
    :func:`_pair_sweep` over beta * A."""

    def __init__(self, g: Hypergraph, vertices):
        self.a = projection.adjacency(g)
        self.verts, self._select = vertex_rows(vertices, g.n)

    def values(self, beta: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Truncated K_beta[i[k], j[k]], with every j[k] a table vertex
        (any other is a contract violation): entry i[k] of the sparse row
        sum_{l<=KATZ_LMAX} beta^l (A^l)[j[k], :].

        The table's rows are swept in blocks, and the last power is
        computed only at the pairs, each entry the float that the whole
        last running sum holds there."""
        damped = (beta * self.a).tocsr()
        pt = damped.T.tocsr()

        def finish(acc, step, r, c):
            return localwalk.gather(acc, r, c) + localwalk.step_entries(step, pt, r, c)

        localwalk.check_present(self.verts, j, "Katz table row")
        rows = np.searchsorted(self.verts, j)
        return _pair_sweep(damped, self._select, [KATZ_LMAX], rows, np.asarray(i), finish)[0]


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
    xw = vertex_rows(vertices, g.n)[1] @ w
    # W has no column of a vertex without edges: 1 spares a division by 0
    return (xw + (xw @ sparse.diags(1.0 / np.maximum(g.degrees, 1.0))) @ w).tocsr()


def _pair_blocks(rows: np.ndarray, costs: np.ndarray, budget: int):
    """Yield ``(lo, hi, at)`` for each block of sources lo..hi-1 that some
    pair reads: ``at`` holds the indices of the pairs whose source
    ``rows[q]`` lies in the block, in order.  A block that no pair reads
    is skipped.

    Blocks run over consecutive sources, and each costs at most
    ``budget``, plus its last source; ``costs`` holds the cost of each
    source, the entries it makes: its walk-row cells for the pair sweep,
    or the row entries that hcn and hpra gather for its pairs.  Sources
    after the last that a pair reads may be left out.
    """
    block = (np.cumsum(costs) - costs) // max(1, budget)
    bounds = np.append(np.flatnonzero(np.diff(block, prepend=-1)), len(costs))
    # below 2^16 sources numpy's stable sort is a radix sort, which gives
    # the same order
    order = np.argsort(rows.astype(np.min_scalar_type(len(costs))), kind="stable")
    cuts = np.searchsorted(rows[order], bounds[1:-1])
    for lo, hi, at in zip(bounds[:-1].tolist(), bounds[1:].tolist(), np.split(order, cuts)):
        if len(at):
            yield lo, hi, at


def _pair_sweep(p: sparse.csr_matrix, x: sparse.csr_matrix, ks: list[int],
                rows: np.ndarray, cols: np.ndarray, finish) -> list[np.ndarray]:
    """Entries (rows[q], cols[q]) of the sums x P + ... + x P^k of the
    power series of ``p``, one array per k of ``ks``, which ascend.

    The sources, the rows of ``x``, are swept in blocks of at most
    WALK_BLOCK_ENTRIES row cells, n a source (at least one source a
    block), and a block that no pair reads is skipped (see
    :func:`_pair_blocks`).  A row of a sum depends only on its source, so
    a block's rows are those of one full sweep.  Each smaller k's sum is
    extracted as walk rows, as stored, unsorted, and gathered at the
    block's pairs: a gather reads one stored value wherever it lies, and
    the extraction renormalizes by column-order row sums (see
    :mod:`hyperwalk.localwalk`).  The sweep stops one step short of the
    largest k, and ``finish(acc, step, r, c)`` gives that k's entries at
    the block's pairs (r, c), from the running sum and the step there (see
    :func:`~hyperwalk.localwalk.walk_sums`).
    """
    out = [np.zeros(len(rows)) for _ in ks]
    cells = np.full(x.shape[0], p.shape[0])
    for lo, hi, at in _pair_blocks(rows, cells, WALK_BLOCK_ENTRIES):
        r, c = rows[at] - lo, cols[at]
        sums = localwalk.walk_sums(p, x[lo:hi], ks, lambda acc, s: finish(acc, s, r, c))
        for values, (k, s) in zip(out, sums):
            if k < ks[-1]:
                s = localwalk.gather(localwalk.extract_rows(s, 1.0 / k), r, c)
            values[at] = s
    return out


def _lrw_grid(p: sparse.csr_matrix, cands: _Candidates, grid: list) -> list[np.ndarray]:
    """lrw scores of ``cands`` for each walk length of ``grid``, from the
    walk mass of each directed pair that one pair sweep gathers (see
    :func:`_pair_sweep`); the largest K's mass is computed only at the
    pairs (see :func:`~hyperwalk.localwalk.last_walk_entries`).  The means
    are the floats that one full sweep gives.  The checks that read P
    alone run once per call.
    """
    ks = localwalk.walk_lengths(grid)
    _, x = localwalk.source_rows(p, cands.vertices)
    pt = p.T.tocsr()

    def finish(acc, step, r, c):
        return localwalk.last_walk_entries(p, pt, acc, step, ks[-1], r, c)

    mass = dict(zip(ks, _pair_sweep(p, x, ks, *_directed_pairs(cands), finish)))
    return [_pair_means(cands, _walk_mass(mass[k])) for k in grid]


def _tuned_values(kinds: list[str], grid) -> list:
    """Each value of ``grid`` as the tuned field of ``kinds`` takes it, in
    grid order: normalized and checked by :class:`MethodSpec`, an int k or
    a float beta.  This is the one check of a family and its grid.  Kinds
    that do not share one TUNED field, an empty grid, a None value or a
    value the field refuses raise ParameterError."""
    fields = {TUNED.get(kind) for kind in kinds}
    if len(fields) != 1 or None in fields:
        raise ParameterError(f"method kinds {kinds} do not share one tuned parameter")
    field = fields.pop()
    if len(grid) == 0:
        raise ParameterError(f"no {field} given for {', '.join(kinds)}")
    if any(value is None for value in grid):
        raise ParameterError(f"{kinds[0]} requires its parameter {field}")
    return [MethodSpec(kinds[0]).with_param(value).param for value in grid]


def score_grid(kinds, g: Hypergraph, edges, grid) -> dict[str, list[np.ndarray]]:
    """Scores of canonical candidate ``edges`` on ``g`` under each method
    of one family, one score array per value of ``grid``, in grid order.

    A family is any set of kinds that TUNED maps to one field: walk
    methods, whose grid holds walk lengths K, or hkatz, whose grid holds
    damping factors; or hcn or hpra alone, whose grid is ``[None]``.  A
    kind given twice has one entry in the result.  Walk rows and the Katz
    table are computed once, for the union of the edges' vertices: the
    walk methods share one propagation sweep up to the largest K, and
    hkatz one table for every damping factor.  lrw alone sweeps that union
    in blocks of sources and gathers each block's walk mass before the
    next (see :func:`_pair_sweep`), and hcn and hpra take each block's
    pair values before the next (see :func:`_pair_blocks`); the scores are
    the same floats.  Anything but an untuned kind with ``[None]`` is
    checked by :func:`_tuned_values` before the candidates: a family or a
    grid value it refuses, or an empty grid, raises ParameterError.
    """
    kinds, grid = list(kinds), list(grid)
    if not (len(set(kinds)) == 1 and kinds[0] not in TUNED and grid == [None]):
        grid = _tuned_values(kinds, grid)
    cands = _candidates(edges, g)
    if kinds[0] in WALK_KINDS:
        p = projection.transition(g)
        if set(kinds) == {LRW}:
            return {LRW: _lrw_grid(p, cands, grid)}
        rows_by_k = localwalk.walk_matrix_rows_multi(p, cands.vertices, grid)
        return {
            kind: [score_edges_from_rows(kind, cands, rows_by_k[k]) for k in grid]
            for kind in kinds
        }
    kind = kinds[0]
    ranks = cands.pairs[0].T
    i, j = cands.vertices[ranks]
    if kind == HKATZ:
        table = katz_pair_table(g, cands.vertices)
        return {kind: [_pair_means(cands, table.values(beta, i, j)) for beta in grid]}
    if kind == HCN:
        left = right = neighbor_sets(g)
    else:
        w = projection.weighted_projection(g)
        # W D^-1 with W's sorted indices, each entry the float of the
        # product in hpra_pair_table; and W^T, as W is not bitwise symmetric
        left = w.multiply(1.0 / np.maximum(g.degrees, 1.0)).tocsr()
        right = w.T.tocsr()
    # a pair (i, j) adds row j of `left` times row i of `right` from 0.0 in
    # ascending column order, in the mat-vec, as the product adds its terms;
    # a block costs the row entries its two gathers copy
    costs = np.bincount(ranks[1], np.diff(left.indptr)[j] + np.diff(right.indptr)[i])
    values = np.zeros(len(i))
    for _, _, at in _pair_blocks(ranks[1], costs, WALK_BLOCK_ENTRIES // 16):
        values[at] = left[j[at]].multiply(right[i[at]]) @ np.ones(g.n)
    if kind == HPRA:
        values += localwalk.gather(w, j, i)
    return {kind: [_pair_means(cands, values)]}


def score_candidates(method: MethodSpec, g: Hypergraph, candidates) -> list[ScoredEdge]:
    """Score every candidate edge; output order matches input order.

    The candidates are checked and put in canonical form, then scored in
    one batch by :func:`score_grid` at the method's own parameter, which
    a tuned method must be given (see :func:`_tuned_values`).  A batch
    already checked against ``g`` is scored as it is, so a trial checks
    its candidates once for all its methods.
    """
    cands = _candidates(candidates, g)
    if not len(cands):
        return []
    vals = score_grid([method.kind], g, cands, [method.param])[method.kind][0]
    return [ScoredEdge(e, v, method) for e, v in zip(cands, vals.tolist())]
