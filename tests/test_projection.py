import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from hyperwalk.errors import ContractViolation
from hyperwalk.hypergraph import Hypergraph, from_label_edges, largest_component
from hyperwalk.localwalk import walk_matrix_rows
from hyperwalk.projection import _pair_triplets, adjacency, transition, weighted_projection

from conftest import adjacency_oracle, hypergraphs, transition_oracle


def test_adjacency_toy(t1):
    a = adjacency(t1).toarray()
    np.testing.assert_allclose(a, adjacency_oracle(t1), atol=0)
    expected = np.array(
        [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    np.testing.assert_array_equal(a, expected)


def test_adjacency_counts_multiple_shared_edges():
    g = from_label_edges([[1, 2, 3], [1, 2]])
    a = adjacency(g).toarray()
    np.testing.assert_allclose(a, adjacency_oracle(g))
    assert a[0, 1] == 2


def test_adjacency_single_edge():
    a = adjacency(from_label_edges([[1, 2]])).toarray()
    np.testing.assert_array_equal(a, [[0, 1], [1, 0]])


def test_weighted_projection_toy(t1):
    w = weighted_projection(t1).toarray()
    expected = np.array(
        [[0, 0.5, 0.5, 0], [0.5, 0, 0.5, 0], [0.5, 0.5, 0, 1], [0, 0, 1, 0]]
    )
    np.testing.assert_allclose(w, expected, atol=1e-15)
    assert w[2].sum() == pytest.approx(2.0)  # row sum at the shared vertex = degree


def test_weighted_projection_single_edge():
    w = weighted_projection(from_label_edges([[1, 2]])).toarray()
    np.testing.assert_array_equal(w, [[0, 1], [1, 0]])


def test_transition_toy(t1):
    p = transition(t1).toarray()
    np.testing.assert_allclose(p, transition_oracle(t1), atol=1e-15)
    assert p[0, 2] == pytest.approx(0.5)
    assert p[2, 0] == pytest.approx(0.25)
    assert p[2, 3] == pytest.approx(0.5)
    assert p[3, 2] == pytest.approx(1.0)


def test_transition_single_edge():
    p = transition(from_label_edges([[1, 2]])).toarray()
    np.testing.assert_array_equal(p, [[0, 1], [1, 0]])


def test_transition_rejects_isolated_vertex():
    g = from_label_edges([[1, 2], [3, 4]]).with_edges([(0, 1)])
    with pytest.raises(ContractViolation):
        walk_matrix_rows(transition(g), [2], 1)
    p = transition(g)
    assert p[2].nnz == 0 and p[3].nnz == 0
    np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel()[:2], 1.0)


@given(hypergraphs())
@settings(max_examples=60)
def test_symmetry_zero_diagonal_and_shared_pattern(g):
    a = adjacency(g)
    w = weighted_projection(g)
    assert abs(a - a.T).max() <= 1e-12
    assert abs(w - w.T).max() <= 1e-12
    assert a.diagonal().sum() == 0
    assert w.diagonal().sum() == 0
    pattern_a = set(zip(*a.nonzero()))
    pattern_w = set(zip(*w.nonzero()))
    assert pattern_a == pattern_w


@given(hypergraphs(connected=True))
@settings(max_examples=60)
def test_row_sums_and_stochasticity(g):
    w = weighted_projection(g)
    p = transition(g)
    np.testing.assert_allclose(
        np.asarray(w.sum(axis=1)).ravel(), g.degrees.astype(float), atol=1e-12
    )
    np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-12)
    assert p.data.min() >= 0


@given(hypergraphs(connected=True))
@settings(max_examples=60)
def test_transition_equals_scaled_projection(g):
    # Two construction routes: per-pair accumulation vs D^-1 W matrix form.
    p = transition(g)
    dinv = sparse.diags(1.0 / g.degrees.astype(float))
    assert abs(p - dinv @ weighted_projection(g)).max() <= 1e-12


def test_stationary_distribution_reached():
    # Connected and non-bipartite (a 3-edge yields an odd clique cycle).
    rng = np.random.default_rng(42)
    for _ in range(20):
        edges = [rng.choice(10, size=rng.integers(2, 4), replace=False).tolist() for _ in range(12)]
        edges.append(rng.choice(10, size=3, replace=False).tolist())
        g = largest_component(from_label_edges(edges))
        p = transition(g).toarray()
        target = g.degrees / g.degrees.sum()
        pk = np.linalg.matrix_power(p, 64)
        assert np.abs(pk - target[None, :]).max() < 1e-6


@pytest.mark.parametrize("scaled", [False, True])
def test_pair_triplets_match_a_per_edge_loop(scaled):
    # cardinalities 2-6 in mixed order; vertex 9 has no edges
    rng = np.random.default_rng(5)
    edges = {tuple(sorted(rng.choice(9, size=t, replace=False).tolist()))
             for t in rng.integers(2, 7, size=40)}
    g = Hypergraph(10, sorted(edges))
    assert set(g.cardinalities.tolist()) == {2, 3, 4, 5, 6} and g.degrees[9] == 0
    row_scale = np.maximum(g.degrees, 1.0) if scaled else None
    rows, cols, vals = [], [], []
    for e in g.edges:  # each edge's ordered pairs row-major, the diagonal dropped
        for i in e:
            for j in e:
                if i != j:
                    rows.append(i)
                    cols.append(j)
                    vals.append(1.0 / (len(e) - 1) / (row_scale[i] if scaled else 1.0))
    got = _pair_triplets(g, row_scale)
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    for a, expected in zip(got, (rows, cols, vals)):
        assert np.array_equal(a, expected)
