import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyperwalk import localwalk, synthetic
from hyperwalk.errors import ContractViolation, ParameterError
from hyperwalk.hypergraph import Hypergraph
from hyperwalk.localwalk import WalkRows, walk_matrix_rows, walk_matrix_rows_multi
from hyperwalk.projection import transition

from conftest import dense_walk_oracle, hypergraphs, walk_rows_oracle


def test_k1_reduces_to_transition_row(t1):
    p = transition(t1)
    rows = walk_matrix_rows(p, [0], 1)
    np.testing.assert_allclose(rows[0].toarray().ravel(), [0, 0.5, 0.5, 0], atol=0)


def test_toy_k2_row(t1):
    p = transition(t1)
    row = walk_matrix_rows(p, [0], 2)[0]
    np.testing.assert_allclose(
        row.toarray().ravel(), [3 / 16, 5 / 16, 3 / 8, 1 / 8], atol=1e-12
    )
    oracle = dense_walk_oracle(p.toarray(), 2)
    np.testing.assert_allclose(row.toarray().ravel(), oracle[0], atol=1e-12)


def test_rejects_k_zero(t1):
    with pytest.raises(ParameterError):
        walk_matrix_rows(transition(t1), [0], 0)


def test_rejects_bad_source(t1):
    with pytest.raises(ParameterError):
        walk_matrix_rows(transition(t1), [99], 2)


@pytest.mark.parametrize("ks", [[2.5], ["3"], [2, 3.0], [0], [-1], [True, 0], [], [True]])
def test_rejects_walk_lengths_that_are_not_integers_from_1(t1, ks):
    with pytest.raises(ParameterError):
        walk_matrix_rows_multi(transition(t1), [0], ks)


def test_single_k_rejects_a_fractional_length(t1):
    with pytest.raises(ParameterError):
        walk_matrix_rows(transition(t1), [0], 2.5)
    rows = walk_matrix_rows(transition(t1), [0], np.int64(2))
    assert rows.matrix.shape == (1, t1.n)


def test_no_sources_sweep_to_empty_snapshots(t1):
    for k, rows in walk_matrix_rows_multi(transition(t1), [], [1, 3]).items():
        assert rows.matrix.shape == (0, t1.n) and len(rows) == 0
        assert rows.sources.dtype == np.int64


def test_source_without_transitions_is_named(t1):
    p = transition(Hypergraph(5, [(0, 1)]))
    with pytest.raises(ContractViolation, match="^vertex 2 has no outgoing"):
        walk_matrix_rows(p, [4, 0, 2], 1)


def test_only_requested_rows_returned(t1):
    rows = walk_matrix_rows(transition(t1), [1, 3], 3)
    assert sorted(rows) == [1, 3]


@given(hypergraphs(connected=True))
@settings(max_examples=40, deadline=None)
def test_matches_dense_power_oracle(g):
    p = transition(g)
    dense = p.toarray()
    sources = list(range(g.n))
    for k in range(1, 6):
        oracle = dense_walk_oracle(dense, k)
        rows = walk_matrix_rows(p, sources, k)
        for s in sources:
            np.testing.assert_allclose(rows[s].toarray().ravel(), oracle[s], atol=1e-10)


@given(hypergraphs(connected=True))
@settings(max_examples=40, deadline=None)
def test_rows_sum_to_one_and_support_grows(g):
    p = transition(g)
    by_k = walk_matrix_rows_multi(p, range(g.n), [1, 2, 3, 4, 5])
    for s in range(g.n):
        previous = frozenset()
        for k in (1, 2, 3, 4, 5):
            row = by_k[k][s]
            assert abs(row.data.sum() - 1.0) <= 1e-10
            assert (row.data > 0).all()
            assert set(row.indices.tolist()) >= previous
            previous = set(row.indices.tolist())


def test_multi_k_matches_single_runs(t1):
    p = transition(t1)
    multi = walk_matrix_rows_multi(p, [0, 2], [1, 3])
    for k in (1, 3):
        single = walk_matrix_rows(p, [0, 2], k)
        for s in (0, 2):
            np.testing.assert_array_equal(multi[k][s].toarray().ravel(), single[s].toarray().ravel())


def test_support_contained_in_k_hop_ball(t1):
    p = transition(t1)
    rows = walk_matrix_rows(p, [3], 1)
    assert set(rows[3].indices.tolist()) == {2}  # vertex 4's only neighbor is vertex 3


@given(g=hypergraphs(connected=True))
@settings(max_examples=30, deadline=None)
def test_support_within_bfs_ball(g):
    from hyperwalk.projection import adjacency

    a = adjacency(g)
    neighbors = {
        v: set(a.indices[a.indptr[v] : a.indptr[v + 1]].tolist()) for v in range(g.n)
    }
    p = transition(g)
    for k in (1, 2, 3):
        rows = walk_matrix_rows(p, range(g.n), k)
        for s in range(g.n):
            ball = {s}
            frontier = {s}
            for _ in range(k):
                frontier = set().union(*(neighbors[v] for v in frontier)) - set()
                ball |= frontier
            assert set(rows[s].indices.tolist()) <= ball


def test_sources_must_ascend_one_per_row():
    m = sparse.csr_matrix(np.eye(3))
    for sources in ([2, 0, 1], [0, 0, 1], [0, 1], [0, 1, 2, 3]):
        with pytest.raises(ParameterError):
            WalkRows(m, sources)
    assert WalkRows(m, [0, 2, 5]).positions([5, 0, 2]).tolist() == [2, 0, 1]


@given(g=hypergraphs(connected=True), data=st.data())
@settings(max_examples=30, deadline=None)
def test_rows_by_source_match_the_matrix(g, data):
    # What a consumer reading the rows by source sees: one 1 x n row per
    # source, together holding every stored entry of the matrix.
    sources = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    for rows in walk_matrix_rows_multi(transition(g), sources, [1, 3]).values():
        assert len(rows) == len(sources)
        assert sum(len(r.indices) for r in rows.values()) == rows.matrix.nnz
        for s in sources:
            want = rows.matrix[rows.positions([s])]
            assert rows[s].shape == (1, g.n)
            assert np.array_equal(rows[s].indices, want.indices)
            assert np.array_equal(rows[s].data, want.data)
        for s in [-1, g.n, *sorted(set(range(g.n)) - set(sources))]:
            with pytest.raises(KeyError):
                rows[s]


@given(g=hypergraphs(connected=True), data=st.data())
@settings(max_examples=30, deadline=None)
def test_snapshots_are_canonical(g, data):
    ks = data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    for rows in walk_matrix_rows_multi(transition(g), sources, ks).values():
        assert rows.matrix.has_canonical_format


def _assert_same_snapshots(got, want):
    for k, arrays in want.items():
        m = got[k].matrix
        for a, b in zip((m.indptr, m.indices, m.data), arrays):
            assert np.array_equal(a, b)


@given(g=hypergraphs(connected=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_snapshots_equal_original_extraction_bit_for_bit(g, data):
    ks = data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    drop_tol = data.draw(st.sampled_from([localwalk.DROP_TOL, 0.01, 0.05, 0.2, 1.0]))
    renorm_tol = data.draw(st.sampled_from([localwalk.RENORM_TOL, 1e-17, 0.0]))
    p = transition(g)
    with mock.patch.multiple(localwalk, DROP_TOL=drop_tol, RENORM_TOL=renorm_tol):
        got = walk_matrix_rows_multi(p, sources, ks)
    _assert_same_snapshots(got, walk_rows_oracle(p, sources, ks, drop_tol, renorm_tol))


def test_pruned_rows_are_renormalized(t1):
    # Vertex 0's K=2 row is [3/16, 5/16, 3/8, 1/8]: a bound of 0.15 prunes
    # the 1/8 and leaves a row summing to 7/8.
    p = transition(t1)
    with mock.patch.object(localwalk, "DROP_TOL", 0.15):
        rows = walk_matrix_rows(p, range(4), 2)
    assert rows[0].indices.tolist() == [0, 1, 2]
    np.testing.assert_allclose(rows[0].data, np.array([3, 5, 6]) / 14, atol=1e-15)
    _assert_same_snapshots({2: rows}, walk_rows_oracle(p, range(4), [2], 0.15, localwalk.RENORM_TOL))


def test_sweep_peak_memory_within_3x_snapshot():
    g = synthetic.random_hypergraph(2000, 4000, np.random.default_rng(0), max_size=4, connected=True)
    p = transition(g)
    tracemalloc.start()
    try:
        m = walk_matrix_rows_multi(p, range(g.n), [3])[3].matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def test_walk_sums_sweep_to_the_largest_length_in_any_order(t1):
    p = transition(t1)
    _, x = localwalk.source_rows(p, range(t1.n))
    sums = dict(localwalk.walk_sums(p, x, [3, 2, 3]))
    assert list(sums) == [2, 3]
    expected = dict(localwalk.walk_sums(p, x, [2, 3]))
    for k in (2, 3):
        assert np.array_equal(sums[k].toarray(), expected[k].toarray())
    with pytest.raises(ParameterError):
        next(localwalk.walk_sums(p, x, [2, 0]))


def _swept(g, data):
    """A transition matrix, one-hot rows of some sources and the step
    x P^s, s >= 1, an earlier product left unsorted, with drawn (row,
    column) pairs of it, some repeated."""
    p = transition(g)
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    _, x = localwalk.source_rows(p, sorted(sources))
    for _ in range(data.draw(st.integers(1, 3))):
        x = x @ p
    pair = st.tuples(st.integers(0, x.shape[0] - 1), st.integers(0, g.n - 1))
    drawn = data.draw(st.lists(pair, max_size=40))
    rows, cols = np.array(drawn + drawn[:3], dtype=np.int64).reshape(-1, 2).T
    return p, x, rows, cols


@given(seed=st.integers(0, 20), data=st.data())
@settings(max_examples=40, deadline=None)
def test_step_entries_are_the_products_floats_and_leave_x_as_stored(seed, data):
    rng = np.random.default_rng(seed)
    g = synthetic.random_hypergraph(60, 150, rng, max_size=4, connected=True)
    p, x, rows, cols = _swept(g, data)
    before = x.indices.copy(), x.data.copy()
    got = localwalk.step_entries(x, p.T.tocsr(), rows, cols)
    # the running step keeps its order: the next product adds in that order
    assert np.array_equal(x.indices, before[0]) and np.array_equal(x.data, before[1])
    assert np.array_equal(got, localwalk.gather(x @ p, rows, cols))


@pytest.mark.parametrize("cells", [50, None])  # a few pairs, then every cell
def test_step_entries_read_an_unsorted_step(cells):
    g = synthetic.random_hypergraph(60, 150, np.random.default_rng(0), max_size=4, connected=True)
    p = transition(g)
    _, x = localwalk.source_rows(p, range(g.n))
    x = x @ p @ p
    assert not x.has_sorted_indices
    picked = np.random.default_rng(1).choice(g.n * g.n, cells or g.n * g.n, replace=False)
    rows, cols = np.divmod(picked, g.n)
    got = localwalk.step_entries(x, p.T.tocsr(), rows, cols)
    assert not x.has_sorted_indices
    assert np.array_equal(got, (x @ p).toarray().ravel()[picked])


@given(seed=st.integers(0, 20), data=st.data())
@settings(max_examples=60, deadline=None)
def test_last_walk_entries_equal_the_whole_extraction(seed, data):
    # a few rows of P scaled, so the walk rows that reach them need
    # renormalizing and take the whole-row path, next to rows that need none
    g = synthetic.random_hypergraph(40, 45, np.random.default_rng(seed), max_size=3, connected=True)
    scale = np.ones(g.n)
    scaled = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3))
    scale[scaled] = data.draw(st.sampled_from([0.5, 1 + 1e-11]))
    p = (sparse.diags(scale) @ transition(g)).tocsr()
    k = data.draw(st.integers(1, 4))
    sources = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    drop_tol = data.draw(st.sampled_from([localwalk.DROP_TOL] * 3 + [0.01, 0.2]))
    renorm_tol = data.draw(st.sampled_from([localwalk.RENORM_TOL] * 3 + [1e-17, 0.0]))
    _, x = localwalk.source_rows(p, sources)
    picked = np.arange(len(sources) * g.n)[:: data.draw(st.sampled_from([1, 7, 41]))]  # every cell, or a few
    rows, cols = np.divmod(picked, g.n)
    pt = p.T.tocsr()

    def tail(acc, step):
        return localwalk.last_walk_entries(p, pt, acc, step, k, rows, cols)

    with mock.patch.multiple(localwalk, DROP_TOL=drop_tol, RENORM_TOL=renorm_tol):
        (_, got), = localwalk.walk_sums(p, x, [k], tail)
        (_, acc), = localwalk.walk_sums(p, x, [k])
        whole = localwalk.extract_rows(acc, 1.0 / k)
    assert np.array_equal(got, whole.toarray().ravel()[picked])
