import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyperwalk import localwalk, projection, scoring
from hyperwalk.errors import (
    CandidateError,
    ContractViolation,
    KatzDivergenceError,
    ParameterError,
)
from hyperwalk.hypergraph import Hypergraph, components, from_label_edges
from hyperwalk.localwalk import WalkRows, walk_matrix_rows
from hyperwalk.projection import adjacency, transition
from hyperwalk.scoring import (
    HCN,
    HKATZ,
    HPRA,
    KATZ_LMAX,
    LRW,
    LRW_GJS,
    LRW_JS,
    WALK_KINDS,
    KatzSeries,
    KatzSpectra,
    MethodSpec,
    converging_betas,
    hpra_pair_table,
    katz_pair_table,
    score_candidates,
    score_edges_from_rows,
    score_grid,
    spectral_radius,
)
from hyperwalk.synthetic import random_hypergraph

from conftest import (
    adjacency_oracle,
    candidate_checks_oracle,
    hypergraphs,
    katz_dense_oracle,
    katz_series_oracle,
    pair_enumeration,
    select_top_oracle,
)


def score(kind, edge, rows) -> float:
    return float(score_edges_from_rows(kind, [edge], rows)[0])


def candidate_scores(kind, g, candidates) -> list[float]:
    return [s.score for s in score_candidates(MethodSpec(kind), g, candidates)]


@pytest.fixture
def t1_rows_k1(t1):
    return walk_matrix_rows(transition(t1), range(4), 1)


def test_lrw_adjacent_pair(t1_rows_k1):
    # s_12 + s_21 = 1/2 + 1/2
    assert score(LRW, (0, 1), t1_rows_k1) == pytest.approx(1.0)


def test_lrw_disconnected_pair(t1_rows_k1):
    assert score(LRW, (0, 3), t1_rows_k1) == 0.0


def test_lrw_pair_is_plain_sum(t1_rows_k1):
    rows = t1_rows_k1
    expected = rows[0][0, 2] + rows[2][0, 0]
    assert score(LRW, (0, 2), rows) == pytest.approx(expected)


def test_lrw_js_identical_rows_score_one():
    rows = WalkRows(sparse.csr_matrix([[0.25, 0.25, 0.5]] * 2), range(2))
    assert score(LRW_JS, (0, 1), rows) == 1.0


def test_lrw_js_disjoint_rows_score_zero():
    rows = WalkRows(sparse.csr_matrix(np.eye(2)), range(2))
    assert score(LRW_JS, (0, 1), rows) == pytest.approx(0.0, abs=1e-15)


def test_lrw_js_toy_pair(t1_rows_k1):
    # rows (0,1/2,1/2,0) and (1/2,0,1/2,0) have divergence exactly 1/2
    assert score(LRW_JS, (0, 1), t1_rows_k1) == pytest.approx(0.5, abs=1e-14)


def test_lrw_gjs_identical_and_disjoint():
    same = WalkRows(sparse.csr_matrix([[0.5, 0.5, 0.0]] * 3), range(3))
    assert score(LRW_GJS, (0, 1, 2), same) == pytest.approx(1.0, abs=1e-14)
    rows = WalkRows(sparse.csr_matrix(np.eye(3)), range(3))
    assert score(LRW_GJS, (0, 1, 2), rows) == pytest.approx(0.0, abs=1e-14)


@given(g=hypergraphs(connected=True))
@settings(max_examples=40, deadline=None)
def test_size2_reduction_identity(g):
    rows = walk_matrix_rows(transition(g), range(g.n), 3)
    for i in range(min(g.n, 4)):
        for j in range(i + 1, min(g.n, 5)):
            assert abs(score(LRW_JS, (i, j), rows) - score(LRW_GJS, (i, j), rows)) <= 1e-12


def test_hcn_toy(t1):
    hcn = candidate_scores(HCN, t1, [(0, 3), (0, 1, 2)])
    assert hcn[0] == 1.0  # N(1)={2,3}, N(4)={3}
    assert hcn[1] == pytest.approx(1.0)
    g2 = from_label_edges([[1, 2], [3, 4], [2, 3]])
    assert candidate_scores(HCN, g2, [(0, 3)]) == [0.0]


def katz_pair(table, beta, pair) -> float:
    """A Katz table's similarity of one vertex pair."""
    i, j = pair
    return float(table.values(beta, np.array([i]), np.array([j]))[0])


def test_hkatz_truncated_toy(t1, monkeypatch):
    monkeypatch.setattr(scoring, "KATZ_LMAX", 2)
    table = KatzSeries(t1, [0, 3])
    # beta*a_14 + beta^2*(A^2)_14 = 0 + 0.01*1
    assert katz_pair(table, 0.1, (0, 3)) == pytest.approx(0.01, abs=1e-15)


def test_hkatz_leading_term_is_adjacency(t1):
    beta = 1e-8
    table = KatzSpectra(t1, [0, 1, 2])
    assert katz_pair(table, beta, (0, 1)) / beta == pytest.approx(1.0, abs=1e-5)


def test_hkatz_disconnected_pair_zero_closed_form():
    g = from_label_edges([[1, 2], [3, 4]])
    table = KatzSpectra(g, [0, 2])
    assert katz_pair(table, 0.2, (0, 2)) == 0.0


def test_hkatz_closed_rejects_divergent_beta(t1):
    a = adjacency(t1).astype(float)
    rho = spectral_radius(a)
    with pytest.raises(KatzDivergenceError):
        KatzSpectra(t1, [0]).check(1.01 / rho)


def test_hkatz_truncated_converges_monotonically_to_closed(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(5):
        edges = [rng.choice(10, size=rng.integers(2, 4), replace=False).tolist() for _ in range(8)]
        g = from_label_edges(edges)
        pair = (0, min(1, g.n - 1))
        closed = katz_pair(KatzSpectra(g, pair), 0.01, pair)
        previous = -np.inf
        for l_max in (1, 2, 4, 8, 16):
            monkeypatch.setattr(scoring, "KATZ_LMAX", l_max)
            trunc = katz_pair(KatzSeries(g, pair), 0.01, pair)
            assert trunc >= previous
            assert trunc <= closed + 1e-12
            previous = trunc
        assert previous == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_katz_pair_table_picks_form_by_graph_size(t1, monkeypatch):
    a = adjacency(t1).astype(float)
    beta = 1.01 / spectral_radius(a)  # diverges in closed form
    with pytest.raises(KatzDivergenceError):
        score_grid([HKATZ], t1, [(0, 3)], [beta])
    monkeypatch.setattr(scoring, "KATZ_CLOSED_MAX_N", t1.n - 1)
    table = katz_pair_table(t1, [0, 3])
    expected = KatzSeries(t1, [0, 3])
    assert list(table.verts) == list(expected.verts) == [0, 3]
    everyone = np.arange(t1.n)
    oracle = katz_series_oracle(a.toarray(), beta, KATZ_LMAX)
    for v in expected.verts:
        column = np.full(t1.n, v)
        got = table.values(beta, everyone, column)
        assert np.array_equal(got, expected.values(beta, everyone, column))
        assert np.abs(got - oracle[:, v]).max() <= 1e-12 * np.abs(oracle).max()


def test_katz_series_gathers_what_its_dense_rows_hold():
    # a path 0 - 1 - ... - 11: vertices 0 and 11 are 11 > KATZ_LMAX hops apart
    g = from_label_edges([[v, v + 1] for v in range(11)])
    table = KatzSeries(g, [0, 3, 11])
    beta = 0.2
    damped = (beta * table.a).tocsr()
    x = acc = table._select @ damped
    for _ in range(KATZ_LMAX - 1):
        x = x @ damped
        acc = acc + x
    dense = acc.toarray()  # row r holds the series of table vertex verts[r]
    i = np.tile(np.arange(g.n), 3)
    j = np.repeat(table.verts, g.n)
    got = table.values(beta, i, j)
    assert np.array_equal(got, dense[np.searchsorted(table.verts, j), i])
    assert table.values(beta, np.array([0]), np.array([11]))[0] == 0.0
    assert got[(i == 3) & (j == 0)][0] > 0.0


def test_katz_tables_refuse_a_vertex_outside_the_table():
    # the whole table gives the pair (1, 2) 0.0124, which a table of the
    # vertices 0, 3 and 30 holds no row for
    g = random_hypergraph(30, 60, np.random.default_rng(2), max_size=4, connected=True)
    g = Hypergraph(g.n + 1, g.edges)  # vertex 30 has no edges
    beta, verts = 0.01, [0, 3, 30]
    spectra, series = KatzSpectra(g, verts), KatzSeries(g, verts)
    for table, i, j, named in [(spectra, 1, 2, 1), (spectra, 0, 2, 2), (spectra, 2, 0, 2),
                               (series, 1, 2, 2), (series, 0, 2, 2)]:
        message = rf"^missing Katz table row for vertex {named}$"
        with pytest.raises(ContractViolation, match=message):
            table.values(beta, np.array([0, i]), np.array([3, j]))
    # pairs of table vertices keep the whole table's floats, and the
    # isolated table vertex reads 0.0
    i, j = np.array([0, 3, 0, 30, 3]), np.array([3, 0, 0, 3, 30])
    got = spectra.values(beta, i, j)
    assert np.array_equal(got, KatzSpectra(g, range(g.n)).values(beta, i, j))
    assert got[0] > 0.0 and got[3] == got[4] == 0.0
    # a series row is read at any vertex i
    everyone = np.tile(np.arange(g.n), 3)
    column = np.repeat(verts, g.n)
    whole = KatzSeries(g, range(g.n)).values(beta, everyone, column)
    assert np.array_equal(series.values(beta, everyone, column), whole)


@pytest.mark.parametrize("kind", [LRW, LRW_JS, LRW_GJS, HCN, HKATZ, HPRA])
def test_each_distinct_pair_is_evaluated_once(kind, monkeypatch):
    g = from_label_edges([[0, 1, 2], [1, 3], [2, 3, 4], [0, 4]])
    edges = [(0, 1, 2), (0, 1, 3), (0, 1)]  # 7 candidate pairs, 5 distinct
    param = 2 if kind in WALK_KINDS else 0.01 if kind == HKATZ else None
    asked = []
    values = KatzSpectra.values

    def counted(table, beta, i, j):
        asked.append(len(i))
        return values(table, beta, i, j)

    monkeypatch.setattr(KatzSpectra, "values", counted)
    batch = score_grid([kind], g, edges, [param])[kind][0]
    if kind == HKATZ:
        assert asked == [5]
    alone = [score_grid([kind], g, [e], [param])[kind][0][0] for e in edges]
    assert np.array_equal(batch, alone)


@st.composite
def shuffled_unions(draw):
    """Disjoint union of two random hypergraphs and one isolated vertex,
    vertex ids shuffled, so components interleave in id order."""
    first, second = draw(hypergraphs(max_n=9, max_m=7)), draw(hypergraphs(max_n=9, max_m=7))
    n = first.n + second.n + 1
    perm = draw(st.permutations(range(n)))
    edges = list(first.edges) + [tuple(v + first.n for v in e) for e in second.edges]
    return Hypergraph(n, sorted({tuple(sorted(perm[v] for v in e)) for e in edges}))


@given(g=shuffled_unions(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_katz_table_matches_dense_oracle(g, data):
    a = adjacency(g).astype(float)
    dense = a.toarray()
    rho = float(np.linalg.eigvalsh(dense)[-1])
    verts = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=2, max_size=g.n)))
    edges = list(combinations(verts, 2)) + [tuple(verts)]
    table = katz_pair_table(g, verts)
    i, j = np.array(edges[:-1]).T
    comp = components(g)
    grid = [f / rho for f in (0.01, 0.25, 0.5, 0.9, 0.99)]
    for beta in grid:
        oracle = katz_dense_oracle(dense, beta)
        got = table.values(beta, i, j)
        assert np.abs(got - oracle[i, j]).max() <= 1e-12 * np.abs(oracle).max()
        assert np.all(got[comp[i] != comp[j]] == 0.0)
    assert table.lambda_max == pytest.approx(rho, rel=1e-12)
    scored = [e for e in edges if g.degrees[list(e)].all()]  # candidates avoid isolated vertices
    for beta in (1.001 / rho, 2.0 / rho):
        with pytest.raises(KatzDivergenceError):
            table.check(beta)
        with pytest.raises(KatzDivergenceError):
            score_grid([HKATZ], g, scored, [grid[0], beta])
    together = score_grid([HKATZ], g, scored, grid)[HKATZ]
    for beta, scores in zip(grid, together):
        alone = katz_pair_table(g, verts)
        assert np.array_equal(alone.values(beta, i, j), table.values(beta, i, j))
        assert np.array_equal(score_grid([HKATZ], g, scored, [beta])[HKATZ][0], scores)


def test_converging_betas_drops_divergent_factors(t1, monkeypatch):
    rho = spectral_radius(adjacency(t1).astype(float))
    betas = [0.1 / rho, 0.99 / rho, 1.0 / rho, 2.0 / rho]
    assert converging_betas(t1, betas) == betas[:2]
    with pytest.raises(KatzDivergenceError, match="no damping factor in"):
        converging_betas(t1, betas[2:])
    monkeypatch.setattr(scoring, "KATZ_CLOSED_MAX_N", t1.n - 1)
    assert converging_betas(t1, betas) == betas  # the truncated series always converges


@given(g=hypergraphs(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_score_grid_matches_score_candidates(g, data):
    present = np.flatnonzero(g.degrees > 0).tolist()
    drawn = data.draw(
        st.lists(st.sets(st.sampled_from(present), min_size=2, max_size=4), min_size=1, max_size=8)
    )
    edges = [tuple(sorted(e)) for e in drawn]
    rho = spectral_radius(adjacency(g).astype(float))
    families = [
        (WALK_KINDS, [2, 3, 5]),
        ([HKATZ], [f / rho for f in (0.05, 0.5, 0.95)]),
        ([HCN], [None]),
        ([HPRA], [None]),
    ]
    for kinds, grid in families:
        got = score_grid(kinds, g, edges, grid)
        assert sorted(got) == sorted(kinds)
        for kind in kinds:
            assert len(got[kind]) == len(grid)
            for value, scores in zip(grid, got[kind]):
                alone = score_candidates(MethodSpec(kind).with_param(value), g, edges)
                assert np.array_equal(scores, [s.score for s in alone])


@given(g=hypergraphs(max_n=14, max_m=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_score_grid_walk_kinds_match_each_k_alone(g, data):
    present = np.flatnonzero(g.degrees > 0).tolist()
    candidate = st.sets(st.sampled_from(present), min_size=2, max_size=min(5, len(present)))
    drawn = data.draw(st.lists(candidate.map(lambda e: tuple(sorted(e))), min_size=1, max_size=12))
    edges = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=4))  # repeated candidates
    grid = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))  # any order, repeats
    got = score_grid(WALK_KINDS, g, edges, grid)
    p = transition(g)
    vertices = sorted({v for e in edges for v in e})
    for k, column in zip(grid, zip(*(got[kind] for kind in WALK_KINDS))):
        rows = walk_matrix_rows(p, vertices, k)
        for kind, scores in zip(WALK_KINDS, column):
            assert np.array_equal(scores, score_edges_from_rows(kind, edges, rows))


@given(g=hypergraphs(max_n=14, max_m=14), data=st.data(), block=st.sampled_from([1, 2, 7]))
@settings(max_examples=40, deadline=None)
def test_score_grid_lrw_blocks_match_one_full_sweep(g, data, block):
    present = np.flatnonzero(g.degrees > 0).tolist()
    candidate = st.sets(st.sampled_from(present), min_size=2, max_size=min(5, len(present)))
    drawn = data.draw(st.lists(candidate.map(lambda e: tuple(sorted(e))), min_size=1, max_size=12))
    edges = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=4))  # repeated candidates
    grid = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))  # any order, repeats
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "WALK_BLOCK_ENTRIES", block * g.n)  # `block` sources per sweep
        got = score_grid([LRW], g, edges, grid)[LRW]
    p = transition(g)
    vertices = sorted({v for e in edges for v in e})
    for k, scores in zip(grid, got):
        rows = walk_matrix_rows(p, vertices, k)
        assert np.array_equal(scores, score_edges_from_rows(LRW, edges, rows))


@given(g=hypergraphs(max_n=14, max_m=14), data=st.data(), block=st.sampled_from([1, 2, 7]))
@settings(max_examples=40, deadline=None)
def test_score_grid_lrw_blocks_match_one_full_sweep_at_any_tolerance(g, data, block):
    # RENORM_TOL 0 and 1e-17 renormalize nearly every row, so nearly every
    # unsorted block row takes its column-order sum
    present = np.flatnonzero(g.degrees > 0).tolist()
    candidate = st.sets(st.sampled_from(present), min_size=2, max_size=min(5, len(present)))
    edges = data.draw(st.lists(candidate.map(lambda e: tuple(sorted(e))), min_size=1, max_size=12))
    grid = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    drop_tol = data.draw(st.sampled_from([localwalk.DROP_TOL, 0.01, 0.05, 0.2, 1.0]))
    renorm_tol = data.draw(st.sampled_from([localwalk.RENORM_TOL, 1e-17, 0.0]))
    p = transition(g)
    vertices = sorted({v for e in edges for v in e})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "WALK_BLOCK_ENTRIES", block * g.n)  # `block` sources per sweep
        mp.setattr(localwalk, "DROP_TOL", drop_tol)
        mp.setattr(localwalk, "RENORM_TOL", renorm_tol)
        got = score_grid([LRW], g, edges, grid)[LRW]
        for k, scores in zip(grid, got):
            rows = walk_matrix_rows(p, vertices, k)
            assert np.array_equal(scores, score_edges_from_rows(LRW, edges, rows))


def test_unsorted_block_rows_take_column_order_sums(monkeypatch):
    # On this graph a block's running sums are stored out of column order
    # and some stored-order row sums differ from the column-order ones, so
    # with RENORM_TOL = 0, which renormalizes every row not summing to
    # exactly 1.0, those rows' factors depend on the summation order.
    g = random_hypergraph(200, 500, np.random.default_rng(3), max_size=4, connected=True)
    edges = list(g.edges)
    p = transition(g)
    _, x = localwalk.source_rows(p, range(16))
    for k, acc in localwalk.walk_sums(p, x, [2, 3]):
        assert not acc.has_sorted_indices
        scaled, ones = acc * (1.0 / k), np.ones(g.n)
        assert np.any(scaled @ ones != scaled.sorted_indices() @ ones)
    monkeypatch.setattr(localwalk, "RENORM_TOL", 0.0)
    monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", 16 * g.n)
    got = score_grid([LRW], g, edges, [2, 3])[LRW]
    for k, scores in zip([2, 3], got):
        rows = walk_matrix_rows(p, range(g.n), k)
        assert np.array_equal(scores, score_edges_from_rows(LRW, edges, rows))


def test_lrw_blocks_check_p_once_and_name_a_stuck_source(monkeypatch):
    g = random_hypergraph(40, 80, np.random.default_rng(1), max_size=3, connected=True)
    edges = list(g.edges)
    monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", 4 * g.n)  # ten blocks
    calls = {"source_rows": 0, "walk_sums": 0}

    def counted(name):
        real = getattr(localwalk, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(localwalk, name, call)

    counted("source_rows")
    counted("walk_sums")
    score_grid([LRW], g, edges, [2, 3])
    assert calls == {"source_rows": 1, "walk_sums": 10}
    # the last vertex loses its transitions: it is a source of the last block
    keep = np.ones(g.n)
    keep[-1] = 0.0
    stuck = (sparse.diags(keep) @ transition(g)).tocsr()
    monkeypatch.setattr(projection, "transition", lambda g: stuck)
    calls.update(source_rows=0, walk_sums=0)
    with pytest.raises(ContractViolation, match=f"^vertex {g.n - 1} has no outgoing"):
        score_grid([LRW], g, edges, [2, 3])
    assert calls == {"source_rows": 1, "walk_sums": 0}  # raised before any sweep


def test_lrw_memory_grows_with_the_block_not_the_sources(monkeypatch):
    g = random_hypergraph(400, 1600, np.random.default_rng(0), max_size=4, connected=True)
    edges = list(g.edges)  # every vertex of a connected graph is in some candidate

    def peak(sources):
        monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", sources * g.n)
        tracemalloc.start()
        try:
            score_grid([LRW], g, edges, [2, 3])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) < peak(g.n) / 2


@given(g=hypergraphs(max_n=14, max_m=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_hcn_and_hpra_blocks_match_one_block(g, data):
    # vertex `lone` has no edges: its rows of W and of the neighbour sets
    # are empty, and its inverse degree is 0
    lone = data.draw(st.integers(0, g.n))
    g = Hypergraph(g.n + 1, [tuple(v + (v >= lone) for v in e) for e in g.edges])
    present = np.flatnonzero(g.degrees > 0).tolist()
    candidate = st.sets(st.sampled_from(present), min_size=2, max_size=min(5, len(present)))
    drawn = data.draw(st.lists(candidate.map(lambda e: tuple(sorted(e))), min_size=1, max_size=12))
    edges = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=4))  # repeated candidates
    # the blocks partition each pair's larger vertex
    sources = {j for e in edges for _, j in combinations(e, 2)}
    a = adjacency_oracle(g) > 0
    ra = hpra_pair_table(g, range(g.n)).toarray()
    oracle = {HCN: lambda i, j: float(np.sum(a[i] & a[j])), HPRA: lambda i, j: ra[j, i]}
    real = scoring._pair_blocks
    for kind in (HCN, HPRA):
        blocks = []

        def counted(*args):
            found = list(real(*args))
            blocks.append(len(found))
            return iter(found)

        got = []
        for entries in (1, 16 * 64, 2**62):  # one source a block, a few blocks, one block
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scoring, "WALK_BLOCK_ENTRIES", entries)
                mp.setattr(scoring, "_pair_blocks", counted)
                got.append(score_grid([kind], g, edges, [None])[kind][0])
        assert blocks[0] == len(sources) >= blocks[1] >= blocks[2] == 1
        for scores in got:
            assert np.array_equal(scores, got[-1])
        assert got[-1].tolist() == [pair_enumeration(e, oracle[kind]) for e in edges]


def test_hpra_keeps_the_floats_of_its_pair_table_where_w_is_not_symmetric():
    # many repeated pairs: W sums each pair's triplets in another order than
    # its mirror's, so reading W's rows for W^T, or adding a product row in
    # any order but ascending columns, moves hpra's scores
    g = random_hypergraph(40, 2000, np.random.default_rng(5), max_size=6, connected=True)
    w = projection.weighted_projection(g)
    assert (w != w.T).nnz > 0
    rng = np.random.default_rng(6)
    edges = list(g.edges[:200]) + [
        tuple(sorted(rng.choice(g.n, size, replace=False).tolist()))
        for size in rng.integers(2, 7, 200)
    ]
    ra = hpra_pair_table(g, range(g.n)).toarray()
    scores = score_grid([HPRA], g, edges, [None])[HPRA][0]
    assert scores.tolist() == [pair_enumeration(e, lambda i, j: ra[j, i]) for e in edges]


def test_hcn_and_hpra_memory_grow_with_the_block_not_the_sources(monkeypatch):
    # the pair work sets the one-block peak: the neighbour rows of W D^-1
    # and W^T, or of the neighbour sets, that hpra or hcn gathers for every
    # pair hold several times the clique expansion's triplets
    g = random_hypergraph(400, 1600, np.random.default_rng(0), max_size=4, connected=True)
    edges = list(g.edges)

    def peak(kind, entries):
        monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", entries)
        tracemalloc.start()
        try:
            scores = score_grid([kind], g, edges, [None])[kind][0]
            return scores, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracemalloc.start()
    try:
        adjacency(g)
        clique_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for kind in (HCN, HPRA):
        # the budget that sweeps lrw 16 sources at a time, and one block
        (small, small_peak), (whole, whole_peak) = peak(kind, 16 * g.n), peak(kind, 2**62)
        assert clique_peak < whole_peak / 4
        assert np.array_equal(small, whole)
        assert small_peak < whole_peak / 2


def test_katz_series_memory_grows_with_the_block_not_the_table(monkeypatch):
    g = random_hypergraph(400, 1600, np.random.default_rng(0), max_size=4, connected=True)
    monkeypatch.setattr(scoring, "KATZ_CLOSED_MAX_N", g.n - 1)
    table = katz_pair_table(g, range(g.n))
    assert isinstance(table, KatzSeries)
    rng = np.random.default_rng(1)
    i, j = rng.integers(0, g.n, 2000), rng.integers(0, g.n, 2000)

    def peak(sources):
        monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", sources * g.n)
        tracemalloc.start()
        try:
            return table.values(0.01, i, j), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (small, small_peak), (whole, whole_peak) = peak(16), peak(g.n)
    assert np.array_equal(small, whole)
    assert small_peak < whole_peak / 4


@pytest.mark.parametrize("sources", [1, 2])
def test_katz_series_skips_a_block_that_no_pair_reads(monkeypatch, sources):
    g = random_hypergraph(30, 60, np.random.default_rng(2), max_size=4, connected=True)
    table = KatzSeries(g, range(g.n))
    # every pair reads a row of table vertex 0, 7, 8 or 21, so most blocks
    # of one or two sources are read by no pair
    i = np.tile(np.arange(g.n), 4)
    j = np.repeat([0, 7, 8, 21], g.n)
    beta = 0.05
    monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", g.n * g.n)
    whole = table.values(beta, i, j)
    sweeps = []
    real = localwalk.walk_sums

    def counted(p, x, *args):
        sweeps.append(x.shape[0])
        return real(p, x, *args)

    monkeypatch.setattr(localwalk, "walk_sums", counted)
    monkeypatch.setattr(scoring, "WALK_BLOCK_ENTRIES", sources * g.n)
    got = table.values(beta, i, j)
    assert len(sweeps) == len({v // sources for v in (0, 7, 8, 21)})
    assert np.array_equal(got, whole)
    oracle = katz_series_oracle(adjacency(g).toarray(), beta, KATZ_LMAX)
    assert np.abs(got - oracle[j, i]).max() <= 1e-12 * np.abs(oracle).max()


def test_one_large_candidate_pads_no_other():
    # 3000 triples and one candidate of 100 vertices: a layout padded to the
    # largest candidate would hold 3001 x 4950 pair slots (119 MB) and
    # 3001 x 100 vertex columns (2.4 MB)
    from hyperwalk.experiment import select_top

    rng = np.random.default_rng(0)
    g = random_hypergraph(3000, 1500, rng, max_size=3)
    used = np.flatnonzero(g.degrees)
    edges = [tuple(sorted(rng.choice(used, 3, replace=False).tolist())) for _ in range(3000)]
    edges.append(tuple(used[:100].tolist()))
    pair_bytes = 8 * sum(len(e) * (len(e) - 1) // 2 for e in edges)
    token_bytes = 8 * sum(map(len, edges))
    scores = rng.random(len(edges))

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    got, cn_peak = peak(lambda: score_grid([HCN], g, edges, [None])[HCN][0])
    assert cn_peak < 64 * pair_bytes
    assert got[-1] == score_grid([HCN], g, edges[-1:], [None])[HCN][0][0]
    top, top_peak = peak(lambda: select_top(edges, scores, len(edges)))
    assert top_peak < 16 * token_bytes
    assert top == select_top_oracle(edges, scores, len(edges))


def test_score_grid_rejects_mixed_families_and_grids(t1):
    with pytest.raises(ParameterError):
        score_grid([LRW, HKATZ], t1, [(0, 1)], [2])
    with pytest.raises(ParameterError):
        score_grid([HCN, HPRA], t1, [(0, 1)], [None])
    with pytest.raises(ParameterError):
        score_grid([HCN], t1, [(0, 1)], [2, 3])
    with pytest.raises(ParameterError):
        score_grid([], t1, [(0, 1)], [2])
    with pytest.raises(ParameterError):
        score_grid([LRW, HCN], t1, [(0, 1)], [2])


@pytest.mark.parametrize("kind", [*WALK_KINDS, HKATZ, HCN, HPRA])
def test_score_grid_of_a_kind_given_twice_is_that_kind_alone(kind):
    g = random_hypergraph(20, 40, np.random.default_rng(3), max_size=4, connected=True)
    edges = [(0, 1), (2, 5, 7), (1, 3, 4, 6)]
    grid = {HKATZ: [0.005, 0.01], HCN: [None], HPRA: [None]}.get(kind, [2, 3])
    twice, alone = score_grid([kind, kind], g, edges, grid), score_grid([kind], g, edges, grid)
    assert list(twice) == [kind]
    assert all(np.array_equal(a, b) for a, b in zip(twice[kind], alone[kind], strict=True))


def test_score_edges_from_rows_takes_walk_kinds_and_any_number_of_edges(t1):
    rows = walk_matrix_rows(transition(t1), [0, 1, 2, 3], 2)
    with pytest.raises(ParameterError, match="^'hcn' is not a walk method$"):
        score_edges_from_rows(HCN, [(0, 1)], rows)
    for kind in WALK_KINDS:
        assert np.array_equal(score_edges_from_rows(kind, [], rows), np.zeros(0))


@pytest.mark.parametrize("kind, value", [(HKATZ, -0.1), (HKATZ, float("nan")), (HKATZ, True),
                                         (HKATZ, "0.1"), (LRW, 0), (LRW, 2.5)])
def test_score_grid_checks_each_grid_value(t1, kind, value):
    with pytest.raises(ParameterError, match=r"^(Katz damping beta|walk length [kK])="):
        score_grid([kind], t1, [(0, 1)], [0.01 if kind == HKATZ else 2, value])


def test_hpra_toy(t1):
    # single two-step path 1 -> 3 -> 4 with w=1/2, w=1, d_3=2
    assert candidate_scores(HPRA, t1, [(0, 3)])[0] == pytest.approx(0.25)
    single = from_label_edges([[1, 2]])
    assert candidate_scores(HPRA, single, [(0, 1)])[0] == pytest.approx(1.0)


def test_hpra_distance_beyond_two_is_zero():
    g = from_label_edges([[1, 2], [2, 3], [3, 4], [4, 5]])
    assert candidate_scores(HPRA, g, [(0, 4)]) == [0.0]


def test_all_scorers_permutation_invariant(t1):
    candidates = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    for kind in (LRW, LRW_JS, LRW_GJS, HCN, HPRA):
        spec = MethodSpec(kind, k=2)
        scores = [s.score for s in score_candidates(spec, t1, candidates)]
        assert scores[0] == scores[1] == scores[2]
    spec = MethodSpec(HKATZ, k=None, beta=0.05)
    scores = [s.score for s in score_candidates(spec, t1, candidates)]
    assert scores[0] == scores[1] == scores[2]


def test_score_candidates_empty(t1):
    assert score_candidates(MethodSpec(LRW, k=2), t1, []) == []


def test_score_candidates_duplicate_listing_deterministic(t1):
    out = score_candidates(MethodSpec(LRW_JS, k=2), t1, [(0, 1), (0, 1)])
    assert out[0].score == out[1].score


def test_score_candidates_rejects_unknown_vertex(t1):
    with pytest.raises(CandidateError):
        score_candidates(MethodSpec(LRW, k=2), t1, [(0, 9)])


def test_score_candidates_rejects_isolated_vertex(t1):
    observed = t1.with_edges([(0, 1, 2)])  # vertex 3 now isolated
    with pytest.raises(CandidateError) as err:
        score_candidates(MethodSpec(LRW, k=2), observed, [(2, 3)])
    assert "(2, 3)" in str(err.value)


def test_score_candidates_rejects_non_integer_vertices(t1):
    for bad in ((0, 1.7), (0, "1"), (0, np.float64(1.0)), (0, None)):
        with pytest.raises(CandidateError, match="non-integer vertex"):
            score_candidates(MethodSpec(HCN), t1, [(1, 2), bad])
    scored = score_candidates(MethodSpec(HCN), t1, [(np.int64(1), 0), [True, 2]])
    assert [s.edge for s in scored] == [(0, 1), (1, 2)]


def test_a_batch_is_checked_again_on_another_graph(monkeypatch, t1):
    batch = scoring._Candidates([(0, 1), (2, 3)], t1)
    observed = t1.with_edges([(0, 1, 2)])  # vertex 3 now isolated
    with pytest.raises(CandidateError, match=r"^candidate \(2, 3\) uses vertex 3 absent"):
        scoring.score_grid([HCN], observed, batch, [None])
    with pytest.raises(CandidateError, match=r"^candidate \(2, 3\) uses vertex 3 absent"):
        score_candidates(MethodSpec(HCN), observed, batch)
    # on the graph it was checked against, or with no graph, it is reused as it is
    init, built = scoring._Candidates.__init__, []

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scoring._Candidates, "__init__", counted)
    assert scoring._candidates(batch) is batch and scoring._candidates(batch, t1) is batch
    score_candidates(MethodSpec(HCN), t1, batch)
    assert built == []


@given(g=hypergraphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_candidate_checks_match_per_edge_loop(g, data):
    # drop some edges, so some vertices are isolated in the scored graph
    g = g.with_edges(g.edges[: data.draw(st.integers(1, g.m))])
    present = np.flatnonzero(g.degrees > 0).tolist()
    good = st.lists(st.sampled_from(present), min_size=2, max_size=4, unique=True).flatmap(
        lambda e: st.sampled_from([e, sorted(e), [np.int64(v) for v in sorted(e)]])
    )
    vertex = st.integers(-1, g.n) | st.sampled_from(
        [1.5, "1", np.float64(2.0), None, True, np.int64(1), 2**70, -(2**70)]
    )
    bad = st.lists(vertex, max_size=4) | good.map(lambda e: (*e, e[0]))  # a repeated vertex
    candidates = data.draw(st.lists(good | bad, max_size=10))
    if data.draw(st.booleans()):  # ascending tuples of ints are kept as given
        candidates = [tuple(e) for e in candidates]
    try:
        expected = candidate_checks_oracle(g, candidates)
    except CandidateError as exc:
        with pytest.raises(CandidateError) as info:
            score_candidates(MethodSpec(HCN), g, candidates)
        assert str(info.value) == str(exc)
    else:
        scored = score_candidates(MethodSpec(HCN), g, candidates)
        assert [s.edge for s in scored] == expected
        assert all(type(v) is int for s in scored for v in s.edge)


VERTEX_TABLES = {
    "walk rows": lambda g, vertices: walk_matrix_rows(transition(g), vertices, 2),
    "hpra": hpra_pair_table,
    "katz": katz_pair_table,
    "katz spectra": KatzSpectra,
    "katz series": KatzSeries,
}


@pytest.mark.parametrize("table", sorted(VERTEX_TABLES))
@pytest.mark.parametrize("bad", [0.7, "1", -1, "n"])
def test_vertex_tables_reject_anything_but_vertex_ids(t1, table, bad):
    with pytest.raises(ParameterError):
        VERTEX_TABLES[table](t1, [0, t1.n if bad == "n" else bad])


def test_missing_walk_row_is_contract_violation(t1):
    rows = walk_matrix_rows(transition(t1), [0], 1)
    with pytest.raises(ContractViolation):
        score(LRW, (0, 1), rows)


def test_walk_methods_require_k(t1):
    with pytest.raises(ParameterError, match=r"^lrw requires its parameter k$"):
        score_candidates(MethodSpec(LRW), t1, [(0, 1)])
    with pytest.raises(ParameterError, match=r"^hkatz requires its parameter beta$"):
        score_candidates(MethodSpec(HKATZ), t1, [(0, 1)])


def test_method_spec_validation():
    with pytest.raises(ParameterError):
        MethodSpec("nope")
    with pytest.raises(ParameterError):
        MethodSpec(LRW, k=0)
    with pytest.raises(ParameterError):
        MethodSpec(HKATZ, beta=-1.0)
    for beta in (float("inf"), float("nan"), True):
        with pytest.raises(ParameterError, match="damping"):
            MethodSpec(HKATZ, beta=beta)
    for value in (2.5, "3", True):
        with pytest.raises(ParameterError, match="walk length"):
            MethodSpec(LRW).with_param(value)
    spec = MethodSpec(LRW_JS).with_param(4)
    assert spec.k == 4 and spec.param == 4
    spec = MethodSpec(HKATZ).with_param(0.01)
    assert spec.beta == 0.01
    for kind in (HCN, HPRA):
        spec = MethodSpec(kind)
        assert spec.with_param(3) is spec and spec.param is None


def test_with_param_keeps_python_numbers():
    spec = MethodSpec(LRW).with_param(np.int64(3))
    assert spec.k == 3 and type(spec.k) is int
    spec = MethodSpec(HKATZ).with_param(np.float64(0.05))
    assert spec.beta == 0.05 and type(spec.beta) is float
    assert type(MethodSpec(HKATZ).with_param(1).beta) is float
    with pytest.raises(ParameterError, match="damping"):
        MethodSpec(HKATZ).with_param("0.1")


def test_js_vs_gjs_identical_vectors_on_pair_candidates(t1):
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    js_scores = [s.score for s in score_candidates(MethodSpec(LRW_JS, k=3), t1, pairs)]
    gjs_scores = [s.score for s in score_candidates(MethodSpec(LRW_GJS, k=3), t1, pairs)]
    np.testing.assert_allclose(js_scores, gjs_scores, atol=1e-12)


def test_scaling_scores_preserves_selection(t1):
    from hyperwalk.experiment import select_top

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    scored = score_candidates(MethodSpec(LRW, k=2), t1, pairs)
    scores = np.array([s.score for s in scored])
    base = select_top(pairs, scores, 3)
    assert select_top(pairs, 7.5 * scores, 3) == base
