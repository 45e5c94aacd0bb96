"""Superposed local random walks.

The walk matrix averages the first K powers of the transition matrix P.
Row i is the stop distribution of a walker that starts at vertex i, picks a
length uniformly from 1..K, and takes that many steps.  Rows are computed
only for requested source vertices, by propagating one-hot rows through P,
so nothing of size n x n is ever materialized.

One propagation sweep serves every requested K.  A row depends only on
its source, so sweeping the sources in blocks gives the same rows as one
sweep over all of them.  Each K snapshot is kept
as a single CSR matrix, one row per source (:class:`WalkRows`); the batched
scorers and divergence kernels read it directly, and indexing it by a
source vertex yields that row as a 1 x n CSR matrix.

Besides the snapshots it has taken, a sweep holds at its peak the running
sum, the last propagated step and the values of the snapshot being taken.
A snapshot shares the running sum's sorted indices and row pointers unless
entries are pruned, and the last step is released before the last
snapshot is taken.
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
    yields each source's row as a 1 x n CSR matrix.
    """

    def __init__(self, matrix: sparse.csr_matrix, sources):
        self.matrix = matrix
        self.sources = np.asarray(sources, dtype=np.int64)
        if self.sources.shape != (matrix.shape[0],) or np.any(np.diff(self.sources) <= 0):
            raise ParameterError("walk-row sources must strictly ascend, one per matrix row")

    def positions(self, vertices) -> np.ndarray:
        """Matrix row of each vertex; a vertex without a row is a contract violation."""
        v = np.asarray(vertices, dtype=np.int64)
        pos = np.searchsorted(self.sources, v)
        found = pos < len(self.sources)
        found[found] = self.sources[pos[found]] == v[found]
        if not found.all():
            raise ContractViolation(f"missing walk row for vertex {int(v[~found][0])}")
        return pos

    def __getitem__(self, source: int) -> sparse.csr_matrix:
        r = int(np.searchsorted(self.sources, source))
        if r == len(self.sources) or self.sources[r] != source:
            raise KeyError(source)
        return self.matrix[r]

    def __iter__(self):
        return iter(self.sources.tolist())

    def __len__(self) -> int:
        return len(self.sources)


def _extract_rows(mat: sparse.csr_matrix, sources: np.ndarray, scale: float) -> WalkRows:
    """Scale, prune and renormalize a whole snapshot at once.

    When no value falls to ``DROP_TOL``, the only full-size array allocated
    is the scaled values: the snapshot shares ``mat``'s sorted ``indices``
    and ``indptr``.  Row sums come from one mat-vec, which adds each row
    from 0.0 in stored order, and a renormalization factor is expanded only
    over the entries of rows that need it.
    """
    mat.sort_indices()
    vals = mat.data * scale
    idx, indptr = mat.indices, mat.indptr
    if vals.size and not vals.min() > DROP_TOL:  # also true for a NaN
        keep = vals > DROP_TOL
        idx, vals = idx[keep], vals[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    out = sparse.csr_matrix((vals, idx, indptr), shape=mat.shape)
    sums = out @ np.ones(mat.shape[1])
    fix = (np.abs(sums - 1.0) > RENORM_TOL) & (sums > 0)
    if fix.any():
        counts = np.diff(out.indptr)
        out.data[np.repeat(fix, counts)] *= np.repeat(1.0 / sums[fix], counts[fix])
    return WalkRows(out, sources)


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


def walk_matrix_rows_multi(P: sparse.csr_matrix, sources, ks) -> dict[int, WalkRows]:
    """Walk rows for several maximum lengths in one propagation pass.

    Returns ``{K: rows}`` for each K in ``ks``, where ``rows`` maps each
    source to its row.  The running sum of propagated rows is snapshotted
    at every requested K, so the cost is a single sweep up to max(ks).
    Raises ParameterError for walk lengths that :func:`walk_lengths`
    rejects or a source that is not a vertex id of P (see
    :func:`~hyperwalk.hypergraph.vertex_rows`).
    """
    ks = walk_lengths(ks)
    src, x = vertex_rows(sources, P.shape[0])
    stuck = src[(P @ np.ones(P.shape[1]))[src] == 0.0]
    if len(stuck):
        raise ContractViolation(f"vertex {stuck[0]} has no outgoing transitions")
    out: dict[int, WalkRows] = {}
    acc = sparse.csr_matrix(x.shape)
    for k in range(1, ks[-1] + 1):
        x = x @ P
        acc = acc + x
        if k == ks[-1]:
            del x  # the last step is summed: free it before the last snapshot
        if k in ks:
            out[k] = _extract_rows(acc, src, 1.0 / k)
    return out
