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
pairs into COO triplets (cost proportional to the sum of squared edge
cardinalities) and converting to CSR.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph


def _pair_triplets(g: Hypergraph, row_scale: np.ndarray | None):
    """COO arrays with one entry per ordered vertex pair per edge.

    The value of pair (i, j) in an edge of cardinality c is 1/(c-1), further
    divided by ``row_scale[i]`` when given.  Fully vectorized: each edge of
    cardinality c contributes a c*c index block from which the diagonal is
    masked out.
    """
    sizes = g.cardinalities
    flat = g.members
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    blocks = sizes * sizes
    total = int(blocks.sum())
    block_starts = np.concatenate(([0], np.cumsum(blocks)[:-1]))
    edge_of = np.repeat(np.arange(g.m, dtype=np.int64), blocks)
    pos = np.arange(total, dtype=np.int64) - block_starts[edge_of]
    c = sizes[edge_of]
    base = starts[edge_of]
    rows = flat[base + pos // c]
    cols = flat[base + pos % c]
    off = rows != cols
    rows, cols, c = rows[off], cols[off], c[off]
    vals = 1.0 / (c - 1)
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
