"""Superposed local random walks.

The walk matrix averages the first K powers of the transition matrix P.
Row i is the stop distribution of a walker that starts at vertex i, picks a
length uniformly from 1..K, and takes that many steps.  Rows are computed
only for requested source vertices, by propagating one-hot rows through P,
so nothing of size n x n is ever materialized.

One propagation sweep (:func:`walk_sums`) serves every requested K: it
yields the running sum of propagated rows as it reaches each K, and
:func:`extract_rows` turns that sum into the K's walk rows.  A row
depends only on its source, so sweeping the sources in blocks gives the
same rows as one sweep over all of them.  The sweep reads P as any
sparse matrix, so it also sums the truncated Katz series
sum_l beta^l A^l over the adjacency A: scoring's one pair sweep
(``scoring._pair_sweep``) runs it in blocks of sources for lrw and for
``scoring.KatzSeries``.  A walk starts only from a vertex with outgoing
transitions: :func:`source_rows` refuses any other source, such as a
vertex without edges, whose row of P is empty.
:func:`walk_matrix_rows_multi` keeps each K snapshot as a single CSR
matrix, one row per source (:class:`WalkRows`); the batched scorers and
divergence kernels read it directly, and indexing it by a source vertex
yields that row as a 1 x n CSR matrix.

Besides the snapshots it has taken, a sweep holds at its peak the running
sum, the last propagated step and the values of the snapshot being taken.
A snapshot shares the running sum's indices and row pointers unless
entries are pruned, and the last step is released before the last
snapshot is taken.

Which rows are sorted: :func:`walk_matrix_rows_multi` sorts each running
sum's row indices in place before extracting it, so every
:class:`WalkRows` is canonical.  The pair sweep
(``scoring._pair_sweep``) only gathers single entries, so it extracts each
sum as the sparse products stored it and skips that sort.  The rows'
values are the same floats either way: ``x @ P`` never reads the running
sum, and the sum, the scaling and the pruning act entry by entry.  Only a
row's sum depends on the order of its entries, and it decides whether
the row is renormalized and by what factor.  Two summation orders of c
nonnegative terms differ by at most about c * eps * sum, so a row whose
stored-order sum s has |s - 1| <= RENORM_TOL - 2 c eps s lies on the same
side of the threshold in either order, with a factor-2 margin, and is
not renormalized.  Any other row of an unsorted sum is sorted alone and
takes its column-order sum, as a sorted sweep would.  On a row-stochastic
P, which pruning changes by at most DROP_TOL an entry, no row comes near.

The last step at the pairs only: a caller that reads one entry per pair
of the last K's rows, as lrw and the Katz series do, can stop the sweep
one step short (``walk_sums(..., tail)``).  :func:`step_entries` then
gives each pair's entry of the next product as the float scipy stores,
adding the same terms in the same order, and :func:`last_walk_entries`
sums, scales and prunes it as :func:`extract_rows` would.  Only the
renormalization needs a whole row: its sum is estimated from the step
before, and a row whose estimate is not clearly within RENORM_TOL of 1
(a row of a P that is not row-stochastic, or any row at a tolerance of
0 or a large DROP_TOL) is computed whole and extracted alone.  The
running step is read, never sorted: the next product, and a whole row
recomputed from it, add their terms in its stored order.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from .errors import ContractViolation, ParameterError, _check_count
from .hypergraph import vertex_rows

DROP_TOL = 1e-15
RENORM_TOL = 1e-10


class WalkRows(Mapping):
    """Walk rows of one K: ``matrix`` row r is the row of ``sources[r]``.

    ``matrix`` is a canonical CSR matrix (sorted indices, no duplicates)
    and ``sources`` strictly ascends, one per matrix row.  As a mapping it
    yields each source's row as a 1 x n CSR matrix.  The sweep sorts a
    running sum before it extracts a WalkRows from it; lrw's block sweep,
    which extracts unsorted rows, builds none (see the module docstring).
    """

    def __init__(self, matrix: sparse.csr_matrix, sources):
        self.matrix = matrix
        self.sources = np.asarray(sources, dtype=np.int64)
        if self.sources.shape != (matrix.shape[0],) or np.any(np.diff(self.sources) <= 0):
            raise ParameterError("walk-row sources must strictly ascend, one per matrix row")

    def positions(self, vertices) -> np.ndarray:
        """Matrix row of each vertex; a vertex without a row is a contract violation."""
        check_present(self.sources, vertices, "walk row")
        return np.searchsorted(self.sources, vertices)

    def __getitem__(self, source: int) -> sparse.csr_matrix:
        r = int(np.searchsorted(self.sources, source))
        if r == len(self.sources) or self.sources[r] != source:
            raise KeyError(source)
        return self.matrix[r]

    def __iter__(self):
        return iter(self.sources.tolist())

    def __len__(self) -> int:
        return len(self.sources)


def check_present(ids: np.ndarray, vertices, noun: str) -> None:
    """Raise ContractViolation unless every one of ``vertices`` is among
    ``ids``, naming the first that is not as missing a ``noun``."""
    missing = np.asarray(vertices)[~np.isin(vertices, ids)]
    if len(missing):
        raise ContractViolation(f"missing {noun} for vertex {int(missing[0])}")


def extract_rows(mat: sparse.csr_matrix, scale: float) -> sparse.csr_matrix:
    """The walk rows of a running sum ``mat``: it is scaled, pruned and
    renormalized as a whole.

    When no value falls to ``DROP_TOL``, the only full-size array allocated
    is the scaled values: the snapshot shares ``mat``'s ``indices`` and
    ``indptr``, in their stored order.  Row sums come from one mat-vec,
    which adds each row from 0.0 in stored order; where ``mat`` is unsorted,
    a row whose sum may fall on the other side of RENORM_TOL in column
    order is summed again, sorted, so every row gets the factor its
    column-order sum gives.  A factor is expanded only over the entries
    of rows that need it.
    """
    vals = mat.data * scale
    idx, indptr = mat.indices, mat.indptr
    if vals.size and not vals.min() > DROP_TOL:  # also true for a NaN
        keep = vals > DROP_TOL
        idx, vals = idx[keep], vals[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    out = sparse.csr_matrix((vals, idx, indptr), shape=mat.shape)
    sums = out @ np.ones(mat.shape[1])
    counts = np.diff(out.indptr)
    if not mat.has_sorted_indices:
        near = np.abs(sums - 1.0) > RENORM_TOL - 2 * counts * np.finfo(float).eps * sums
        sums[near] = out[near].sorted_indices() @ np.ones(mat.shape[1])
    fix = (np.abs(sums - 1.0) > RENORM_TOL) & (sums > 0)
    if fix.any():
        out.data[np.repeat(fix, counts)] *= np.repeat(1.0 / sums[fix], counts[fix])
    return out


def walk_lengths(ks) -> list[int]:
    """The distinct walk lengths of ``ks`` in ascending order, as ints.

    Raises ParameterError for an empty ``ks`` or a K that is not an
    integer >= 1 (a bool is not one).
    """
    if len(ks) == 0:
        raise ParameterError("no walk length given")
    for k in ks:
        _check_count("walk length K", k)
    return sorted(set(map(int, ks)))


def walk_matrix_rows(P: sparse.csr_matrix, sources, K: int) -> WalkRows:
    """Rows of (1/K) * (P + P^2 + ... + P^K) for the given source vertices."""
    return walk_matrix_rows_multi(P, sources, [K])[K]


def source_rows(P: sparse.csr_matrix, sources) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The distinct ``sources`` in ascending order and the 0/1 matrix
    whose row r selects ``sources[r]`` (see
    :func:`~hyperwalk.hypergraph.vertex_rows`), each source a vertex of P
    with outgoing transitions.

    Raises ParameterError for a source that is not a vertex id of P and
    ContractViolation, naming the vertex, for one whose row of P is empty,
    as the row of a vertex without edges is.
    """
    src, x = vertex_rows(sources, P.shape[0])
    stuck = src[(P @ np.ones(P.shape[1]))[src] == 0.0]
    if len(stuck):
        raise ContractViolation(f"vertex {stuck[0]} has no outgoing transitions")
    return src, x


def walk_sums(P: sparse.csr_matrix, x: sparse.csr_matrix, ks, tail=None):
    """Yield ``(k, S)`` for each k of ``ks``, in the ascending order that
    :func:`walk_lengths` puts and checks them, as the sweep reaches it: S
    is the running sum x P + x P^2 + ... + x P^k of the one-hot rows
    ``x``.  With beta * A as P, S holds the truncated Katz series of
    ``x``'s vertices.

    Given ``tail``, a function, the last sum is never formed: the sweep
    stops one step short of the largest k, at the running sum S and the
    step X = x P^(k-1) there (an empty sum and ``x`` itself for k = 1), and
    yields ``(k, tail(S, X))`` last.

    S keeps its indices in the order the sparse products leave them.  The
    next step builds a new running sum, so a caller may sort S in place.
    """
    ks = walk_lengths(ks)
    stop = ks[-1] - (tail is not None)
    acc = sparse.csr_matrix(x.shape)
    for k in range(1, stop + 1):
        x = x @ P
        acc = acc + x
        if k == ks[-1]:
            del x  # the last step is summed: free it before the last snapshot
        if k in ks:
            yield k, acc
    if tail is not None:
        yield ks[-1], tail(acc, x)


def gather(mat: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stored entries mat[rows[q], cols[q]] (0.0 where nothing is stored);
    ``mat`` is read as stored, never sorted."""
    return np.asarray(mat[rows, cols]).ravel() if len(rows) else np.zeros(0)


def step_entries(x: sparse.csr_matrix, pt: sparse.csr_matrix, rows, cols) -> np.ndarray:
    """Entries (x @ P)[rows[q], cols[q]], with ``pt`` the transpose of P
    as a CSR matrix: each the float that scipy's product stores there, or
    0.0 where it stores nothing.  Like any sparse product, ``x`` stores an
    entry at most once.

    The product starts every cell at 0.0 and adds x[r, k] * P[k, j] over
    the k of x's row r in the order that row is stored.  So a pair's terms
    are the stored entries of x's row r whose column k is stored in row j
    of ``pt``.  Transposed, x's entries and the pairs' terms both list
    their keys (k, r) in order, so one sorted search matches them.  Sorted
    by stored position in x, the matches go to ``np.bincount``, which adds
    its weights from 0.0 in input order.  Memory follows x's stored
    entries and the pairs' terms, and ``x`` is read, never reordered.
    Pairs as many as an eighth of the product's largest output (its rows
    times n, or its term count at P's mean row length) are gathered from
    the product itself, which is then the cheaper way to the same floats.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, n = x.shape
    if 8 * len(rows) >= min(m * n, x.nnz * pt.nnz / n):
        return gather(x @ pt.T, rows, cols)
    # column k of each: the rows of x storing k, with their stored positions,
    # and the pairs whose column j has P[k, j] stored, with that entry
    at = sparse.csr_matrix((np.arange(x.nnz), x.indices, x.indptr), shape=x.shape).tocsc()
    terms = pt[cols].tocsc()
    starts = np.arange(n, dtype=np.int64) * m
    keys = np.append(np.repeat(starts, np.diff(at.indptr)) + at.indices, n * m)  # and a sentinel
    want = np.repeat(starts, np.diff(terms.indptr)) + rows[terms.indices]
    pos = np.searchsorted(keys, want)
    hit = np.flatnonzero(keys[pos] == want)
    stored = at.data[pos[hit]]
    first = np.argsort(stored, kind="stable")
    hit = hit[first]
    weights = x.data[stored[first]] * terms.data[hit]
    return np.bincount(terms.indices[hit], weights=weights, minlength=len(rows))


def last_walk_entries(P, pt, acc, x, k: int, rows, cols) -> np.ndarray:
    """Entries at (rows[q], cols[q]) of ``extract_rows(acc + x @ P, 1 / k)``,
    the walk rows of a sweep's last step, without forming that step: the
    running sum ``acc`` and the step ``x`` stand one step short of it (see
    :func:`walk_sums`), ``pt`` is the transpose of P as a CSR matrix, and
    P is nonnegative, as a transition matrix is.

    Each entry (acc[r, j] + (x @ P)[r, j]) / k is summed, scaled and
    pruned as the extraction does it (see :func:`step_entries`).  Whether
    a row is renormalized depends on its whole sum, which is estimated as
    (rowsum(acc) + x @ rowsum(P)) / k.  The row has at most u = min(n,
    nnz(acc[r]) + the P-degrees of x[r]'s columns) entries, so rounding
    moves the sum by less than (4 u + 8) eps times it, and pruning drops
    at most u * DROP_TOL of it.  A row whose estimate lies within
    RENORM_TOL of 1 by twice that bound is not renormalized in any order
    of summation; any other row is computed whole and extracted alone,
    which gives it the floats a full extraction does.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = (gather(acc, rows, cols) + step_entries(x, pt, rows, cols)) * (1.0 / k)
    vals[~(vals > DROP_TOL)] = 0.0
    ones = np.ones(P.shape[1])
    est = (acc @ ones + x @ (P @ ones)) / k
    degrees = np.concatenate(([0], np.cumsum(np.diff(P.indptr)[x.indices])))
    u = np.minimum(P.shape[1], np.diff(acc.indptr) + degrees[x.indptr[1:]] - degrees[x.indptr[:-1]])
    bound = (4 * u + 8) * np.finfo(float).eps * est + u * DROP_TOL
    whole = ~(np.abs(est - 1.0) <= RENORM_TOL - 2 * bound)  # also true for a NaN
    redo = whole[rows]
    if redo.any():
        sub = extract_rows(acc[whole] + x[whole] @ P, 1.0 / k)
        vals[redo] = gather(sub, (np.cumsum(whole) - 1)[rows[redo]], cols[redo])
    return vals


def walk_matrix_rows_multi(P: sparse.csr_matrix, sources, ks) -> dict[int, WalkRows]:
    """Walk rows for several maximum lengths in one propagation pass.

    Returns ``{K: rows}`` for each K in ``ks``, where ``rows`` maps each
    source to its row, held in a canonical CSR matrix.  The running sum of
    propagated rows is snapshotted at every requested K, so the cost is a
    single sweep up to max(ks).  Raises ParameterError for walk lengths
    that :func:`walk_lengths` rejects or a source that is not a vertex id
    of P, and ContractViolation for a source without outgoing transitions
    (see :func:`source_rows`).
    """
    ks = walk_lengths(ks)
    src, x = source_rows(P, sources)
    out: dict[int, WalkRows] = {}
    for k, acc in walk_sums(P, x, ks):
        acc.sort_indices()
        out[k] = WalkRows(extract_rows(acc, 1.0 / k), src)
    return out
