"""Jensen-Shannon divergence between sparse probability distributions.

All logarithms are base 2, so the pairwise divergence lies in [0, 1] and the
generalized divergence over t distributions lies in [0, log2 t].  Terms with
zero probability contribute nothing (0 * log 0 := 0), and the mixture is
never zero where any compared distribution has mass, because the mixture
includes that distribution with positive weight.

One batched kernel, :func:`divergences`, evaluates many groups of rows of a
CSR matrix R at once.  With C the group-by-row matrix of mixture weights,
the mixtures are the product C·R, accumulated member by member into
(group, column) cells.  Each member row's terms p * log2(p / mix) are
taken where p != 0 only, so a stored zero adds nothing, and summed per
row, then weighted per group.  A group's value depends only on its own
rows, so it is bit-identical whichever block or batch it lands in.

Three executors, a dense one and a chunk kernel with two cell numberings,
share that arithmetic and its order of additions, so they return the same
floats.  Sparse rows go to the chunk kernel, which works on the members'
stored entries in chunks of about ``CHUNK_ENTRIES`` of them, numbering
each chunk's cells in one of two ways.  When a chunk's G·n possible cells
are at most ``DIRECT_CELLS_PER_ENTRY`` times its stored member entries,
as for walk rows that cover much of the vertex universe, a cell is
numbered by its key group·n + column directly.
Otherwise a stable sort of the keys numbers only the cells that occur.
The sort stays because on sparse rows direct numbering allocates and
clears far more cells than there are entries, so its time and memory grow
with the size of the universe; with the sort they scale with the members'
support sizes.  On random rows (n = 20k and 100k, t = 2..5, a 2-core Xeon
VM) direct numbering was faster up to about 24 cells per entry and slower
from about 32 to 48 (25 times slower at 1000), so the bound of 16 keeps a
margin below that crossover.  Either way ``bincount`` adds each cell's
terms in entry order, member by member.

Saturated rows go to a dense executor, which copies R to a dense array
once per call and evaluates blocks of about ``CHUNK_ENTRIES`` cells, with
no per-entry index arrays.  The mixture adds w_r * p_r member by member
from 0.0 (an absent cell adds exactly 0.0), and ``np.add.accumulate``
adds each row's terms in ascending column order, which is the stored
order of a canonical row (sorted indices, no duplicates; R is made
canonical first), so it runs when R stores at least ``DENSE_MIN_FILL`` of
its cells.  On rows with random zeros (n = 60, 200 and 2000, t = 2 and 4, a
2-core Xeon VM) the dense executor was 0.57-0.99 times as fast as the
chunk kernel at fill 0.5, 0.76-1.21 times at 0.67, 0.94-1.47 times at
0.75, 1.11-1.61 times at 0.8 and 2.1-2.6 times at 1.0, so the bound is
0.8, the lowest fill at which it won every case.  The dense copy takes 8
bytes a cell and the CSR matrix 12 bytes a stored entry, so above a fill
of 2/3 the copy is never larger than R.

:func:`js` and :func:`js_generalized` are thin wrappers that score one group
of dense vectors or 1 x n sparse rows, all over the same n vertices.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ParameterError

WEIGHT_TOL = 1e-12
# Stored member-row entries per chunk of groups (chunk kernel), and cells
# per block of groups (dense executor).
CHUNK_ENTRIES = 1 << 14
# Cell numbering rule: see the module docstring.
DIRECT_CELLS_PER_ENTRY = 16
# Executor rule: the dense executor runs on rows that store at least this
# fraction of their cells (see the module docstring).
DENSE_MIN_FILL = 0.8


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
    rel = np.bincount(member, weights=_terms(p, mix[cell]), minlength=g * t).reshape(g, t)
    return _weighted_sum(rel, w)


def _divergence_dense(dense: np.ndarray, groups: np.ndarray, w: np.ndarray) -> np.ndarray:
    g, t = groups.shape
    step = max(1, CHUNK_ENTRIES // (t * dense.shape[1]))
    total = np.empty(g)
    for lo in range(0, g, step):
        p = dense[groups[lo : lo + step]]  # (block, t, n)
        mix = np.zeros((len(p), dense.shape[1]))
        for r in range(t):
            mix += w[r] * p[:, r]
        # accumulate adds each row's terms left to right, in column order,
        # as bincount adds a sparse row's stored entries
        rel = np.add.accumulate(_terms(p, mix[:, None, :]), axis=2)[:, :, -1]
        total[lo : lo + step] = _weighted_sum(rel, w)
    return total


def _terms(p: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """p * log2(p / mix), exactly 0.0 where p == 0 (0 * log 0 := 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / mix
        ratio[p == 0.0] = 1.0
        return p * np.log2(ratio)


def _weighted_sum(rel: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_r w_r rel[:, r] per group, added member by member from 0.0."""
    total = np.zeros(len(rel))
    for r in range(len(w)):
        total += w[r] * rel[:, r]
    return total


def divergences(rows: sparse.csr_matrix, groups, weights=None) -> np.ndarray:
    """Generalized divergence sum_r w_r KL(R[g_r] || sum_r w_r R[g_r]) per group.

    ``groups`` is a (G, t) array of row indices into ``rows``; ``weights``
    (default uniform 1/t; nonnegative, summing to 1) applies to every group.
    Zero-weight members are left out of the mixture and of the sum.  Rows
    may store a column more than once or out of order: a copy with the
    repeats summed and the columns sorted is evaluated then.
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
    if not rows.has_canonical_format:  # a repeated column would count as its own mass
        rows = rows.copy()
        rows.sum_duplicates()  # also sorts each row's columns
    if rows.nnz and rows.nnz >= DENSE_MIN_FILL * rows.shape[0] * rows.shape[1]:
        return _divergence_dense(rows.toarray(), groups, w)
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
    return sparse.vstack(rows, format="csr")


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
