"""Clique-expansion matrices of a hypergraph.

Three sparse n x n matrices are derived from the hyperedge list:

* adjacency ``A``: a_ij = number of hyperedges containing both i and j,
* weighted projection ``W``: w_ij = sum over shared edges of 1/(|e|-1),
* transition ``P``: p_ij = w_ij / d_i, the vertex -> incident-edge ->
  other-vertex random walk.

All diagonals are zero.  Row sums of W equal the vertex hyperdegrees, so
every row of P sums to 1, except the row of a vertex without edges, which
is empty.  No walk starts there: :func:`hyperwalk.localwalk.source_rows`
refuses such a source.  Everything is built by accumulating per-edge vertex
pairs into COO triplets and converting to CSR.  The triplets are built
one cardinality t at a time, t(t-1) ordered pairs per edge, so the cost
is the sum of c(c-1) over the edges' cardinalities c.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph


def _pair_triplets(g: Hypergraph, row_scale: np.ndarray | None):
    """COO arrays with one entry per ordered vertex pair per edge.

    The value of pair (i, j) in an edge of cardinality c is 1/(c-1), further
    divided by ``row_scale[i]`` when given.  The entries come edge by edge,
    each edge's c(c-1) ordered pairs in row-major order without the
    diagonal.  They are built one cardinality t at a time: the (edges x t)
    matrix of those edges' vertices is read at the t(t-1) pair columns and
    scattered into edge order.
    """
    sizes = g.cardinalities
    starts = np.cumsum(sizes) - sizes
    counts = sizes * (sizes - 1)
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    rows, cols = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)
    vals = np.empty(total)
    for t in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == t)
        members = g.members[starts[at, None] + np.arange(t)]
        a, b = np.nonzero(~np.eye(t, dtype=bool))
        slots = offsets[at, None] + np.arange(t * (t - 1))
        rows[slots] = members[:, a]
        cols[slots] = members[:, b]
        vals[slots] = 1.0 / (t - 1)
    if row_scale is not None:
        vals /= row_scale[rows]
    return rows, cols, vals


def _clique_matrix(g: Hypergraph, rows, cols, vals) -> sparse.csr_matrix:
    """Canonical n x n CSR of pair values ``vals``, summed per pair."""
    m = sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    m.sum_duplicates()
    m.sort_indices()
    return m


def adjacency(g: Hypergraph) -> sparse.csr_matrix:
    """Shared-hyperedge counts between vertex pairs; zero diagonal."""
    rows, cols, vals = _pair_triplets(g, None)
    return _clique_matrix(g, rows, cols, np.ones_like(vals))


def weighted_projection(g: Hypergraph) -> sparse.csr_matrix:
    """Projection with pair weight 1/(|e|-1); row sums equal hyperdegrees."""
    rows, cols, vals = _pair_triplets(g, None)
    return _clique_matrix(g, rows, cols, vals)


def transition(g: Hypergraph) -> sparse.csr_matrix:
    """Walk matrix p_ij = (1/d_i) * sum_e 1/(|e|-1) over shared edges.

    The row of a vertex without edges is empty; every other row sums to 1.
    """
    # a vertex without edges has no pairs to scale; 1 spares a division by 0
    return _clique_matrix(g, *_pair_triplets(g, np.maximum(g.degrees, 1.0)))
