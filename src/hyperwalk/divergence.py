"""Jensen-Shannon divergence between sparse probability distributions.

All logarithms are base 2, so the pairwise divergence lies in [0, 1] and the
generalized divergence over t distributions lies in [0, log2 t].  Terms with
zero probability contribute nothing (0 * log 0 := 0), and the mixture is
never zero where any compared distribution has mass, because the mixture
includes that distribution with positive weight.

One batched kernel, :func:`divergences`, evaluates many groups of rows of a
CSR matrix R at once.  With C the group-by-row matrix of mixture weights,
the mixtures are the sparse product C·R, accumulated over the members'
stored entries into (group, column) cells.  Each member row's terms
p * log2(p / mix) are taken on that row's own support only and summed per
row, then weighted per group.  Groups are processed in chunks of about
``CHUNK_ENTRIES`` stored member entries, which bounds the temporaries; a
group's value depends only on its own rows, so it is bit-identical
whichever chunk or batch it lands in.

A chunk of G groups over n columns numbers its cells in one of two ways.
When its G·n possible cells are at most ``DIRECT_CELLS_PER_ENTRY`` times
its stored member entries, as for walk rows that cover much of the vertex
universe, a cell is numbered by its key group·n + column directly.
Otherwise a stable sort of the keys numbers only the cells that occur.
The sort stays because on sparse rows direct numbering allocates and
clears far more cells than there are entries, so its time and memory grow
with the size of the universe; with the sort they scale with the members'
support sizes.  On random rows (n = 20k and 100k, t = 2..5, a 2-core Xeon
VM) direct numbering was faster up to about 24 cells per entry and slower
from about 32 to 48 (25 times slower at 1000), so the bound of 16 keeps a
margin below that crossover.  Either way ``bincount`` adds each cell's
terms in entry order, member by member, so both numberings give the same
floats.

:func:`js` and :func:`js_generalized` are thin wrappers that score one group
of dense vectors or 1 x n sparse rows, all over the same n vertices.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ParameterError

WEIGHT_TOL = 1e-12
# Stored member-row entries evaluated per chunk of groups.
CHUNK_ENTRIES = 1 << 14
# Cell numbering rule: see the module docstring.
DIRECT_CELLS_PER_ENTRY = 16


def _divergence_chunk(rows: sparse.csr_matrix, groups: np.ndarray, w: np.ndarray) -> np.ndarray:
    g, t = groups.shape
    starts = rows.indptr[groups.ravel()]
    lens = rows.indptr[groups.ravel() + 1] - starts
    member = np.repeat(np.arange(g * t), lens)  # member slot of every stored entry
    entry = np.arange(len(member)) + np.repeat(starts - np.cumsum(lens) + lens, lens)
    p = rows.data[entry]
    # Keys arrive as sorted runs, one per member, which the stable sort
    # merges cheaply.
    key = (member // t) * rows.shape[1] + rows.indices[entry]
    if g * rows.shape[1] <= DIRECT_CELLS_PER_ENTRY * len(key):
        cell = key
    else:
        order = np.argsort(key, kind="stable")
        opens_cell = np.ones(len(key), dtype=bool)
        opens_cell[1:] = key[order[1:]] != key[order[:-1]]
        cell = np.empty(len(key), dtype=np.int64)
        cell[order] = np.cumsum(opens_cell) - 1
    # mix = C·R
    mix = np.bincount(cell, weights=np.repeat(np.tile(w, g), lens) * p)
    terms = p * np.log2(p / mix[cell])
    rel = np.bincount(member, weights=terms, minlength=g * t).reshape(g, t)
    total = np.zeros(g)
    for r in range(t):
        total += w[r] * rel[:, r]
    return total


def divergences(rows: sparse.csr_matrix, groups, weights=None) -> np.ndarray:
    """Generalized divergence sum_r w_r KL(R[g_r] || sum_r w_r R[g_r]) per group.

    ``groups`` is a (G, t) array of row indices into ``rows``; ``weights``
    (default uniform 1/t; nonnegative, summing to 1) applies to every group.
    Zero-weight members are left out of the mixture and of the sum.
    """
    groups = np.asarray(groups, dtype=np.int64)
    if len(groups) == 0:  # an empty list has no t: the weights give it
        if weights is not None:
            validate_weights(weights, groups.shape[1] if groups.ndim == 2 else np.size(weights))
        return np.zeros(0)
    t = groups.shape[1]
    w = np.full(t, 1.0 / t) if weights is None else validate_weights(weights, t)
    active = w > 0.0
    groups, w = groups[:, active], w[active]
    cost = np.diff(rows.indptr)[groups].sum(axis=1)
    chunk_of = (np.cumsum(cost) - cost) // CHUNK_ENTRIES
    bounds = np.flatnonzero(np.diff(chunk_of)) + 1
    return np.concatenate([_divergence_chunk(rows, part, w) for part in np.split(groups, bounds)])


def _stack(dists) -> sparse.csr_matrix:
    """CSR matrix whose row r holds ``dists[r]``, a dense vector or a 1 x n
    sparse row; every row must have the same length n."""
    rows = []
    for d in dists:
        d = d if sparse.issparse(d) else np.atleast_2d(np.asarray(d, dtype=np.float64))
        if d.ndim != 2 or d.shape[0] != 1:
            raise ParameterError("a distribution is a dense vector or a 1 x n sparse row")
        rows.append(sparse.csr_matrix(d))
    lengths = sorted({r.shape[1] for r in rows})
    if len(lengths) > 1:
        raise ParameterError(f"distributions over different vertex counts {lengths}")
    stacked = sparse.vstack(rows, format="csr")
    stacked.sum_duplicates()  # a repeated column would count as its own mass
    return stacked


def js(p, q) -> float:
    """Pairwise Jensen-Shannon divergence, symmetric and in [0, 1]."""
    return float(divergences(_stack([p, q]), [[0, 1]])[0])


def validate_weights(weights, t: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (t,):
        raise ParameterError(f"expected {t} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ParameterError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ParameterError("mixture weights must sum to 1")
    return w


def js_generalized(dists, weights=None) -> float:
    """Generalized Jensen-Shannon divergence of t >= 2 weighted distributions.

    With uniform weights (the default) the t = 2 case reduces exactly to
    :func:`js`.  The result is bounded above by log2(t).
    """
    dists = list(dists)
    t = len(dists)
    if t < 2:
        raise ParameterError("generalized divergence needs at least two distributions")
    return float(divergences(_stack(dists), [list(range(t))], weights)[0])
