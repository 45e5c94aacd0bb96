"""The batched scoring engine against independent per-pair and scalar oracles."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyperwalk import divergence
from hyperwalk.errors import ContractViolation
from hyperwalk.localwalk import WalkRows, walk_matrix_rows
from hyperwalk.projection import transition
from hyperwalk.scoring import (
    HCN,
    HPRA,
    LRW,
    LRW_GJS,
    LRW_JS,
    MethodSpec,
    hpra_pair_table,
    score_candidates,
    score_edges_from_rows,
)
from hyperwalk.synthetic import random_hypergraph

from conftest import (
    DIVERGENCE_EXECUTORS,
    adjacency_oracle,
    dense_walk_oracle,
    divergence_constants,
    gjs_scalar_oracle,
    hypergraphs,
    js_scalar_oracle,
    pair_enumeration,
    transition_oracle,
)


@st.composite
def graph_and_candidates(draw):
    g = draw(hypergraphs(connected=True))
    size = st.integers(2, min(5, g.n))
    cands = draw(
        st.lists(
            size.flatmap(lambda t: st.sets(st.integers(0, g.n - 1), min_size=t, max_size=t)),
            min_size=1,
            max_size=12,
        )
    )
    return g, [tuple(sorted(c)) for c in cands], draw(st.integers(1, 4))


@given(graph_and_candidates())
@settings(max_examples=60, deadline=None)
def test_batched_walk_divergences_match_scalar_oracles(case):
    g, cands, k = case
    dense = dense_walk_oracle(transition_oracle(g), k)
    rows = WalkRows(sparse.csr_matrix(dense), range(g.n))
    js_scores = score_edges_from_rows(LRW_JS, cands, rows)
    gjs_scores = score_edges_from_rows(LRW_GJS, cands, rows)
    for e, js_score, gjs_score in zip(cands, js_scores, gjs_scores):
        expected_js = 1.0 - pair_enumeration(e, lambda i, j: js_scalar_oracle(dense[i], dense[j]))
        assert js_score == pytest.approx(expected_js, abs=1e-12)
        gjs = gjs_scalar_oracle([dense[v] for v in e])
        assert gjs_score == pytest.approx(1.0 - gjs / math.log2(len(e)), abs=1e-12)


@given(graph_and_candidates())
@settings(max_examples=60, deadline=None)
def test_batched_pair_scores_equal_pair_enumeration(case):
    g, cands, k = case
    dense = dense_walk_oracle(transition_oracle(g), k)
    rows = WalkRows(sparse.csr_matrix(dense), range(g.n))
    lrw = score_edges_from_rows(LRW, cands, rows)
    for e, s in zip(cands, lrw):
        assert s == pair_enumeration(e, lambda i, j: dense[i, j] + dense[j, i])

    a = adjacency_oracle(g) > 0
    hcn = [s.score for s in score_candidates(MethodSpec(HCN), g, cands)]
    for e, s in zip(cands, hcn):
        assert s == pair_enumeration(e, lambda i, j: float(np.sum(a[i] & a[j])))

    # resource allocation: exact against per-pair reads of (W + W D^-1 W)[j, i],
    # and that matrix within rounding of a scalar two-step evaluation
    ra = hpra_pair_table(g, range(g.n)).toarray()
    hpra = [s.score for s in score_candidates(MethodSpec(HPRA), g, cands)]
    for e, s in zip(cands, hpra):
        assert s == pair_enumeration(e, lambda i, j: ra[j, i])
    w = np.zeros((g.n, g.n))
    for edge in g.edges:
        for i, j in combinations(edge, 2):
            w[i, j] += 1.0 / (len(edge) - 1)
            w[j, i] += 1.0 / (len(edge) - 1)
    for i in range(g.n):
        for j in range(g.n):
            two_step = sum(w[j, v] * w[v, i] / g.degrees[v] for v in range(g.n))
            assert ra[j, i] == pytest.approx(w[j, i] + two_step, abs=1e-12)


@pytest.mark.parametrize("kind", [LRW, LRW_JS, LRW_GJS])
def test_score_is_independent_of_batch_and_chunking(kind):
    rng = np.random.default_rng(4)
    g = random_hypergraph(30, 60, rng, max_size=5, connected=True)
    cands = [
        tuple(sorted(rng.choice(g.n, size=int(rng.integers(2, 6)), replace=False).tolist()))
        for _ in range(40)
    ]
    rows = walk_matrix_rows(transition(g), range(g.n), 3)
    batch = score_edges_from_rows(kind, cands, rows)
    alone = [score_edges_from_rows(kind, [e], rows)[0] for e in cands]
    forced = []
    for executor in DIVERGENCE_EXECUTORS.values():
        for chunk_entries in (1, divergence.CHUNK_ENTRIES):  # one group per block or chunk
            with divergence_constants(**executor, CHUNK_ENTRIES=chunk_entries):
                forced.append(score_edges_from_rows(kind, cands, rows).tolist())
    assert batch.tolist() == alone
    assert forced == [batch.tolist()] * 6


@pytest.mark.parametrize("kind", [LRW_JS, LRW_GJS])
def test_rows_that_are_not_distributions_raise(kind):
    # Row 3's negative entry cancels row 2's mass in the mixture: its term is NaN.
    rows = WalkRows(sparse.csr_matrix([[2.0, 0.0], [0.0, 3.0], [0.5, 0.5], [1.5, -0.5]]), range(4))
    for executor in DIVERGENCE_EXECUTORS.values():
        with divergence_constants(**executor):
            with pytest.raises(ContractViolation, match=r"\(0, 1\)"):
                score_edges_from_rows(kind, [(1, 2), (0, 1)], rows)
            with pytest.raises(ContractViolation, match=r"\(2, 3\).*nan"):
                score_edges_from_rows(kind, [(1, 2), (2, 3)], rows)
