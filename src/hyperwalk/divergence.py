"""Jensen-Shannon divergence between sparse probability distributions.

All logarithms are base 2, so the pairwise divergence lies in [0, 1] and the
generalized divergence over t distributions lies in [0, log2 t].  Terms with
zero probability contribute nothing (0 * log 0 := 0), and the mixture is
never zero where any compared distribution has mass, because the mixture
includes that distribution with positive weight.

One batched kernel, :func:`divergences`, evaluates many groups of rows of a
CSR matrix R at once.  The t members of a group weigh equally: its mixture
is the mean of its member rows, accumulated member by member into
(group, column) cells as (1/t) * p.  Each member row's terms
p * log2(p / mix) are taken where p != 0 only, so a stored zero adds
nothing, and summed per row, then averaged per group.  A group's value
depends only on its own rows, so it is bit-identical whichever block or
batch it lands in.  Every weighting multiplies by the float 1.0 / t, never
divides by t, so all three executors round alike.

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
no per-entry index arrays.  The mixture adds (1/t) * p_r member by member
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

Each block's or chunk's terms are computed in one buffer, which holds the
ratios p / mix, then their logs, then the terms and, in the dense
executor, last their running sums.  Blocks of the dense executor at small
n are near glibc's 128 KiB heap trim threshold (a t = 2 block at n = 60
is 130,560 bytes), so freeing several arrays of a block's size per block
would return the top of the heap to the OS, to be faulted back in by the
next block.

:func:`js` and :func:`js_generalized` are thin wrappers that score one group
of dense vectors or 1 x n sparse rows, all over the same n vertices; each
must be a distribution: finite, >= 0 and summing to 1 within ``SUM_TOL``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ParameterError

# Stored member-row entries per chunk of groups (chunk kernel), and cells
# per block of groups (dense executor).
CHUNK_ENTRIES = 1 << 14
# Cell numbering rule: see the module docstring.
DIRECT_CELLS_PER_ENTRY = 16
# Executor rule: the dense executor runs on rows that store at least this
# fraction of their cells (see the module docstring).
DENSE_MIN_FILL = 0.8
# How far from 1 the sum of a distribution given to js or js_generalized
# may lie.
SUM_TOL = 1e-9


def _divergence_chunk(rows: sparse.csr_matrix, groups: np.ndarray) -> np.ndarray:
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
    mix = np.bincount(cell, weights=(1.0 / t) * p)
    rel = np.bincount(member, weights=_terms(p, mix[cell]), minlength=g * t).reshape(g, t)
    return _member_mean(rel)


def _divergence_dense(dense: np.ndarray, groups: np.ndarray) -> np.ndarray:
    g, t = groups.shape
    step = max(1, CHUNK_ENTRIES // (t * dense.shape[1]))
    total = np.empty(g)
    for lo in range(0, g, step):
        p = dense[groups[lo : lo + step]]  # (block, t, n)
        mix = np.zeros((len(p), dense.shape[1]))
        for r in range(t):
            mix += (1.0 / t) * p[:, r]
        # accumulate adds each row's terms left to right, in column order,
        # as bincount adds a sparse row's stored entries
        terms = _terms(p, mix[:, None, :])
        rel = np.add.accumulate(terms, axis=2, out=terms)[:, :, -1]
        total[lo : lo + step] = _member_mean(rel)
    return total


def _terms(p: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """p * log2(p / mix), exactly 0.0 where p == 0 (0 * log 0 := 0), in a
    new array that holds the ratio, then its log, then the terms."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / mix
        ratio[p == 0.0] = 1.0
        np.log2(ratio, out=ratio)
        return np.multiply(p, ratio, out=ratio)


def _member_mean(rel: np.ndarray) -> np.ndarray:
    """(1/t) * rel[:, r] summed over the t members, added member by member from 0.0."""
    total = np.zeros(len(rel))
    for column in rel.T:
        total += (1.0 / rel.shape[1]) * column
    return total


def divergences(rows: sparse.csr_matrix, groups) -> np.ndarray:
    """Generalized divergence (1/t) sum_r KL(R[g_r] || M) per group, where
    M = (1/t) sum_r R[g_r] is the equal-weight mixture of its t members.

    ``groups`` is a (G, t) array of integer row indices into ``rows``, each
    in 0..rows.shape[0]-1; anything else raises ParameterError, and an
    empty list gives an empty array.  Rows may store a column more than
    once or out of order: a copy with the repeats summed and the columns
    sorted is evaluated then.
    """
    try:
        groups = np.asarray(groups)
    except ValueError:
        raise ParameterError("groups of different sizes do not make a 2-D array") from None
    if groups.shape[:1] == (0,):  # no groups
        return np.zeros(0)
    if not (groups.ndim == 2 and groups.size and groups.dtype.kind in "iu"
            and groups.min() >= 0 and groups.max() < rows.shape[0]):
        raise ParameterError(f"groups are not a 2-D array of row indices in 0..{rows.shape[0] - 1}")
    groups = groups.astype(np.int64, copy=False)
    if not rows.has_canonical_format:  # a repeated column would count as its own mass
        rows = rows.copy()
        rows.sum_duplicates()  # also sorts each row's columns
    if rows.nnz and rows.nnz >= DENSE_MIN_FILL * rows.shape[0] * rows.shape[1]:
        return _divergence_dense(rows.toarray(), groups)
    cost = np.diff(rows.indptr)[groups].sum(axis=1)
    chunk_of = (np.cumsum(cost) - cost) // CHUNK_ENTRIES
    bounds = np.flatnonzero(np.diff(chunk_of)) + 1
    return np.concatenate([_divergence_chunk(rows, part) for part in np.split(groups, bounds)])


def _stack(dists) -> sparse.csr_matrix:
    """CSR matrix whose row r holds ``dists[r]``, a dense vector or a 1 x n
    sparse row; every row must have the same length n and be a
    distribution: finite, >= 0 and summing to 1 within ``SUM_TOL``."""
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
    if not (np.isfinite(stacked.data).all() and (stacked.data >= 0.0).all()):
        raise ParameterError("a distribution holds a negative or non-finite value")
    sums = np.asarray(stacked.sum(axis=1)).ravel()
    off = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL)
    if off.size:
        raise ParameterError(f"distribution {off[0]} sums to {float(sums[off[0]])!r}, not 1")
    return stacked


def js(p, q) -> float:
    """Pairwise Jensen-Shannon divergence, symmetric and in [0, 1]."""
    return float(divergences(_stack([p, q]), [[0, 1]])[0])


def js_generalized(dists) -> float:
    """Generalized Jensen-Shannon divergence of t >= 2 distributions, each
    weighing 1/t in the mixture.

    The t = 2 case reduces exactly to :func:`js`.  The result is bounded
    above by log2(t).
    """
    dists = list(dists)
    t = len(dists)
    if t < 2:
        raise ParameterError("generalized divergence needs at least two distributions")
    return float(divergences(_stack(dists), [list(range(t))])[0])
