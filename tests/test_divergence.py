import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyperwalk import divergence
from hyperwalk.divergence import divergences, js, js_generalized
from hyperwalk.errors import ParameterError

from conftest import DIVERGENCE_EXECUTORS, distributions, divergence_constants, js_scalar_oracle


def test_identical_distributions():
    assert js([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0


def test_disjoint_supports_hit_upper_bound():
    assert js([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_half_vs_point_mass():
    # Independent scalar evaluation frozen: 1/4*(1 - log2(3/2)) + 1/4*log2(4/3) + 1/4
    expected = js_scalar_oracle([0.5, 0.5], [1.0, 0.0])
    assert expected == pytest.approx(0.31127812445913283, abs=1e-15)
    assert js([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-14)


@given(p=distributions(), q=distributions())
def test_symmetry_is_exact(p, q):
    assert js(p, q) == js(q, p)


@given(p=distributions(), q=distributions())
def test_bounds_and_scalar_oracle(p, q):
    val = js(p, q)
    assert -1e-12 <= val <= 1.0 + 1e-12
    assert val == pytest.approx(js_scalar_oracle(p, q), abs=1e-12)


@given(p=distributions(), q=distributions())
def test_sparse_equals_dense_evaluation(p, q):
    sparse_val = js(sparse.csr_matrix(p), sparse.csr_matrix(q))
    dense_val = js_scalar_oracle(p, q)
    assert sparse_val == pytest.approx(dense_val, abs=1e-12)
    assert js(sparse.csr_matrix(p), q) == js(p, q) == sparse_val


def test_repeated_sparse_columns_are_summed():
    row = sparse.csr_matrix(([0.25, 0.25, 0.5], [1, 1, 0], [0, 3]), shape=(1, 3))
    assert js(row, [0.5, 0.5, 0.0]) == 0.0
    assert js_generalized([row, row, [0.5, 0.5, 0.0]]) == 0.0
    assert row.indices.tolist() == [1, 1, 0]  # the caller's row is left as given


def test_repeated_entries_are_summed_before_the_divergence():
    # row 0 is [0.5, 0.5], stored out of column order as 0.5 + 0.25 + 0.25
    rows = sparse.csr_matrix(([0.5, 0.25, 0.25, 1.0], [1, 0, 0, 0], [0, 3, 4]), shape=(2, 2))
    expected = js([0.5, 0.5], [1.0, 0.0])
    assert expected == pytest.approx(0.31127812445913283, abs=1e-15)
    for executor in DIVERGENCE_EXECUTORS.values():
        with divergence_constants(**executor):
            assert divergences(rows, [[0, 1]]).tolist() == [expected]
    assert rows.indices.tolist() == [1, 0, 0, 0]  # the caller's matrix is left as given


def test_rows_over_different_vertex_counts_raise():
    with pytest.raises(ParameterError):
        js([0.5, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        js_generalized([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        js(sparse.csr_matrix([0.5, 0.5]), sparse.csr_matrix([1.0, 0.0, 0.0]))
    with pytest.raises(ParameterError):  # two rows, not one
        js(sparse.csr_matrix(np.eye(2)), [1.0, 0.0])


@pytest.mark.parametrize("p", [
    [-1.0, 2.0],  # sums to 1, but negative
    [2.0, 0.0],
    [0.0, 5.0],
    [np.inf, 0.0],
    [np.nan, 1.0],
    [0.5, 0.5 + 1e-6],
    sparse.csr_matrix([[0.5, -0.5]]),
    sparse.csr_matrix(([0.5, 0.25], [0, 0], [0, 2]), shape=(1, 2)),  # repeats sum to 0.75
])
def test_js_needs_distributions(p):
    with pytest.raises(ParameterError, match="distribution"):
        js(p, [0.5, 0.5])
    with pytest.raises(ParameterError, match="distribution"):
        js([0.5, 0.5], p)
    with pytest.raises(ParameterError, match="distribution"):
        js_generalized([[0.5, 0.5], [1.0, 0.0], p])


def test_js_takes_sums_within_the_tolerance():
    off = divergence.SUM_TOL / 2
    assert js([0.5 + off, 0.5], [0.5, 0.5]) == js([0.5, 0.5], [0.5 + off, 0.5])
    assert 0.0 <= js_generalized([[1.0 - off, 0.0], [0.0, 1.0], [0.5, 0.5]]) <= 1.0


def test_generalized_identical_is_zero():
    d = [0.25, 0.25, 0.5]
    assert js_generalized([d, d, d]) == pytest.approx(0.0, abs=1e-15)


@given(p=distributions(), q=distributions())
def test_generalized_t2_uniform_reduces_to_pairwise(p, q):
    assert abs(js_generalized([p, q]) - js(p, q)) <= 1e-12


def test_generalized_disjoint_point_masses_hit_log2_t():
    for t in (2, 3, 4, 8):
        dists = [np.eye(t)[i] for i in range(t)]
        assert js_generalized(dists) == pytest.approx(math.log2(t), abs=1e-12)


@given(p=distributions(), q=distributions(), r=distributions())
@settings(max_examples=50)
def test_generalized_bound_and_permutation_invariance(p, q, r):
    base = js_generalized([p, q, r])
    assert -1e-12 <= base <= math.log2(3) + 1e-12
    assert js_generalized([r, p, q]) == pytest.approx(base, abs=1e-12)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        js_generalized([[1.0, 0.0]])
    # saturated rows take the dense executor, sparse ones the chunk kernel
    for rows in (sparse.csr_matrix(np.full((3, 3), 1 / 3)), sparse.csr_matrix(np.eye(3))):
        for groups in ([[0, -1]], [[0, 3]], [[0, 1.7]], [0, 1], [[True, False]], [[]], 0):
            with pytest.raises(ParameterError, match="2-D array of row indices in 0..2"):
                divergences(rows, groups)
        with pytest.raises(ParameterError, match="2-D array"):
            divergences(rows, [[0, 1], [2]])


def test_empty_group_list_gives_empty_scores():
    rows = sparse.csr_matrix(np.eye(2))
    for groups in ([], np.zeros((0, 2), dtype=int)):
        assert divergences(rows, groups).shape == (0,)


def test_stored_zeros_add_nothing():
    # p stores an explicit 0.0 in column 2; 0 * log 0 counts as 0
    p = sparse.csr_matrix(([0.5, 0.5, 0.0], [0, 1, 2], [0, 3]), shape=(1, 3))
    q = [1.0, 0.0, 0.0]
    expected = js_scalar_oracle([0.5, 0.5, 0.0], q)
    for executor in DIVERGENCE_EXECUTORS.values():
        with divergence_constants(**executor):
            assert js(p, q) == pytest.approx(expected, abs=1e-15)
            assert js(p, q) == js([0.5, 0.5, 0.0], q)
            assert js_generalized([p, q, q]) == js_generalized([[0.5, 0.5, 0.0], q, q])


@st.composite
def grouped_rows(draw):
    """Random CSR distributions, some storing zeros and some with their
    entries out of column order, and (G, t) groups of them."""
    n = draw(st.integers(1, 12))
    data, indices, indptr = [], [], [0]
    for _ in range(draw(st.integers(1, 8))):
        support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        raw = np.array([draw(st.sampled_from([0.0, 0.5]) | st.floats(1e-3, 1.0)) for _ in support])
        raw[draw(st.integers(0, len(support) - 1))] = 1.0  # some mass
        order = slice(None, None, -1 if draw(st.booleans()) else 1)
        data.extend((raw / raw.sum())[order])
        indices.extend(support[order])
        indptr.append(len(indices))
    rows = sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n))
    t = draw(st.integers(2, 5))
    member = st.integers(0, rows.shape[0] - 1)
    groups = draw(st.lists(st.lists(member, min_size=t, max_size=t), min_size=1, max_size=20))
    return rows, groups


@given(case=grouped_rows(), chunk=st.integers(1, 64))
@settings(max_examples=200)
def test_executors_agree_bit_for_bit(case, chunk):
    # The dense executor and both cell numberings of the chunk kernel, in
    # blocks and chunks down to one group, must give the same floats.  Rows
    # out of column order are evaluated from a sorted copy, by any executor.
    expected = divergences(*case)
    assert not np.isnan(expected).any()
    for executor in DIVERGENCE_EXECUTORS.values():
        for chunk_entries in (chunk, divergence.CHUNK_ENTRIES):
            with divergence_constants(**executor, CHUNK_ENTRIES=chunk_entries):
                assert np.array_equal(divergences(*case), expected)


@given(case=grouped_rows())
@settings(max_examples=100)
def test_divergences_leave_the_input_rows_unchanged(case):
    # every executor computes its terms in place, in buffers of its own
    rows, groups = case
    before = rows.copy()
    for executor in DIVERGENCE_EXECUTORS.values():
        for chunk_entries in (1, divergence.CHUNK_ENTRIES):
            with divergence_constants(**executor, CHUNK_ENTRIES=chunk_entries):
                divergences(rows, groups)
            for name in ("data", "indices", "indptr"):
                assert getattr(rows, name).tobytes() == getattr(before, name).tobytes()
