import gc
import re
import weakref
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from hyperwalk import experiment, scoring
from hyperwalk.errors import (
    CandidateError,
    MetricUndefinedError,
    ParameterError,
    SamplingError,
    TrialDegenerateError,
)
from hyperwalk.experiment import (
    CandidateSet,
    SamplingSpec,
    SplitSpec,
    auroc,
    build_candidates,
    cross_validate,
    f1_at_cutoff,
    replacement_count,
    run_experiment,
    select_top,
    split,
    trial_candidates,
)
from hyperwalk.hypergraph import Hypergraph, from_label_edges, largest_component
from hyperwalk.scoring import LRW, LRW_GJS, LRW_JS, MethodSpec
from hyperwalk.synthetic import planted_hypergraph, random_hypergraph

from conftest import (
    auroc_pairs_oracle,
    candidate_checks_oracle,
    f1_set_oracle,
    hypergraphs,
    negatives_oracle,
    select_top_oracle,
)


@pytest.fixture
def medium():
    rng = np.random.default_rng(11)
    return random_hypergraph(24, 40, rng, connected=True)


# ---------------------------------------------------------------- splits


def test_split_counts(medium):
    m = medium.m
    observed, missing = split(medium, SplitSpec(0.8, 1, seed=1), 0)
    assert len(observed) == int(np.ceil(0.8 * m))
    assert len(observed) + len(missing) <= m
    assert set(observed) | set(missing) <= set(medium.edges)
    assert not set(observed) & set(missing)


def test_split_ten_edges_observes_eight():
    g = from_label_edges([[i, i + 1] for i in range(1, 11)])
    assert g.m == 10
    for trial in range(5):
        observed, missing = split(g, SplitSpec(0.8, 5, seed=3), trial)
        assert len(observed) == 8
        assert len(missing) <= 2


def test_split_deterministic(medium):
    a = split(medium, SplitSpec(0.8, 1, seed=5), 0)
    b = split(medium, SplitSpec(0.8, 1, seed=5), 0)
    assert a == b
    c = split(medium, SplitSpec(0.8, 1, seed=6), 0)
    assert a != c


def test_split_prunes_missing_with_isolated_vertices(medium):
    observed, missing = split(medium, SplitSpec(0.5, 1, seed=3), 0)
    deg = np.zeros(medium.n)
    for e in observed:
        deg[list(e)] += 1
    for e in missing:
        assert all(deg[v] > 0 for v in e)


def test_split_degenerate_raises():
    g = from_label_edges([[1, 2], [3, 4]])  # either split isolates the missing edge
    with pytest.raises(TrialDegenerateError):
        split(g, SplitSpec(0.5, 1, seed=0), 0)


def test_split_rho_too_high_raises():
    g = from_label_edges([[1, 2], [2, 3], [1, 3]])
    with pytest.raises(TrialDegenerateError):
        split(g, SplitSpec(0.9, 1, seed=0), 0)  # ceil(2.7) = 3 = m


@pytest.mark.parametrize("trial", [-1, 1.5, "0", True, None])
def test_split_and_trial_candidates_need_a_nonnegative_integer_trial(medium, trial):
    with pytest.raises(ParameterError, match=r"^trial="):
        split(medium, SplitSpec(0.8, 1, seed=0), trial)
    with pytest.raises(ParameterError, match=r"^trial="):
        trial_candidates(medium, SplitSpec(0.8, 1, seed=0), SamplingSpec(0.5, 1), trial)
    assert split(medium, SplitSpec(0.8, 1, seed=0), np.int64(1)) == split(
        medium, SplitSpec(0.8, 1, seed=0), 1
    )


# ------------------------------------------------------- negative sampling


def test_replacement_count_rules():
    assert replacement_count(3, 0.2) == 2  # round-half-up(2.4) = 2
    assert replacement_count(2, 0.8) == 1  # clamp floor engages
    assert replacement_count(3, 0.5) == 2  # round-half-up(1.5) rounds up
    assert replacement_count(2, 0.2) == 1  # clamp ceiling: at most |e|-1
    assert replacement_count(5, 0.2) == 4
    assert replacement_count(6, 0.5) == 3


def test_build_candidates_shape_and_validity(medium):
    observed, missing = split(medium, SplitSpec(0.8, 1, seed=2), 0)
    rng = np.random.default_rng(0)
    spec = SamplingSpec(alpha=0.5, fakes_per_missing=3)
    deg = np.zeros(medium.n)
    for e in observed:
        deg[list(e)] += 1
    edge = missing[0]
    fakes = build_candidates(medium.with_edges(observed), [edge], spec, rng).negatives
    assert len(fakes) == 3
    r = replacement_count(len(edge), 0.5)
    for fake in fakes:
        assert len(fake) == len(edge)
        assert len(set(fake) & set(edge)) == len(edge) - r
        assert all(deg[v] > 0 for v in fake)
        assert fake not in set(observed)


def test_build_candidates_needs_enough_replacements():
    g = from_label_edges([[1, 2, 3]])
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        build_candidates(g, [(0, 1, 2)], SamplingSpec(0.5, 1), rng)


@pytest.mark.parametrize("edge", [(0, 99), (-1, 3), (2, 40), (1, 2**70)])
def test_build_candidates_names_a_missing_edge_outside_the_graph(edge):
    g = random_hypergraph(40, 80, np.random.default_rng(1), connected=True)
    rng = np.random.default_rng(0)
    with pytest.raises(CandidateError, match=rf"^missing edge \({edge[0]}, {edge[1]}\) has a vertex"):
        build_candidates(g, [g.edges[0], edge], SamplingSpec(0.5, 1), rng)


@pytest.mark.parametrize(
    "edge, message",
    [
        ((1, 1, 2), r"\(1, 1, 2\) is not a set of >= 2 vertices$"),
        ((3,), r"\(3,\) is not a set of >= 2 vertices$"),
        ((), r"\(\) is not a set of >= 2 vertices$"),
        ((50, 50), r"\(50, 50\) is not a set"),  # checked before the range
        ((1.5, 1.5), r"\(1.5, 1.5\) has the non-integer vertex 1.5$"),  # checked before set-ness
    ],
    ids=["repeated-vertex", "one-vertex", "empty", "repeated-outside", "repeated-non-integer"],
)
def test_build_candidates_names_a_missing_edge_that_is_not_a_set(edge, message):
    g = random_hypergraph(40, 80, np.random.default_rng(1), connected=True)
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(CandidateError, match=r"^missing edge " + message):
        build_candidates(g, [g.edges[0], edge], SamplingSpec(0.5, 1), rng)
    # the fakes of the edges before the failing one are drawn first
    build_candidates(g, [g.edges[0]], SamplingSpec(0.5, 1), twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "3"), (np.float64(2.0), 5), (0, None)])
def test_build_candidates_names_a_missing_edge_with_a_non_integer_vertex(edge):
    # int() would read 1.5 as 1 and "3" as 3 and sample fakes for them
    g = random_hypergraph(40, 80, np.random.default_rng(1), connected=True)
    rng = np.random.default_rng(0)
    with pytest.raises(CandidateError, match=r"^missing edge .* has the non-integer vertex"):
        build_candidates(g, [g.edges[0], edge], SamplingSpec(0.5, 1), rng)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_build_candidates_checks_missing_edges_as_scoring_checks_candidates(data):
    g = random_hypergraph(24, 48, np.random.default_rng(data.draw(st.integers(0, 2**16))),
                          connected=True)
    # drop some edges, so some vertices are isolated in the observed graph
    g = g.with_edges(g.edges[: data.draw(st.integers(12, g.m))])
    present = np.flatnonzero(g.degrees > 0).tolist()
    assume(len(present) >= 8)  # every good edge has enough eligible vertices
    good = st.lists(st.sampled_from(present), min_size=2, max_size=4, unique=True).flatmap(
        lambda e: st.sampled_from([tuple(sorted(e)), e, [np.int64(v) for v in e]])
    )
    vertex = st.integers(-1, g.n) | st.sampled_from(
        [1.5, "1", np.float64(2.0), None, True, 2**70]
    )
    bad = st.lists(vertex, max_size=4).map(tuple) | good.map(lambda e: (*e, e[0]))
    missing = data.draw(st.lists(good | bad, min_size=1, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    try:
        candidate_checks_oracle(g, missing)
    except CandidateError as exc:
        expected = str(exc).replace("candidate", "missing edge", 1)
        expected = expected.replace(" uses vertex ", " has a vertex ", 1)
        with pytest.raises(CandidateError) as info:
            build_candidates(g, missing, SamplingSpec(0.5, 2), rng)
        assert str(info.value) == expected
    else:
        cand = build_candidates(g, missing, SamplingSpec(0.5, 2), rng)
        assert cand.positives == tuple(missing) and len(cand.negatives) == 2 * len(missing)


def test_build_candidates_forbids_the_canonical_form_of_each_missing_edge():
    g = Hypergraph(6, sorted([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]))
    spec, twin = SamplingSpec(0.6, 3), np.random.default_rng(9)
    canonical = build_candidates(g, [(0, 1, 2), (1, 2, 4)], spec, twin)
    # a missing edge given unsorted, or as a list, samples the fakes of its canonical form
    for missing in ([(0, 1, 2), (4, 2, 1)], [[0, 1, 2], [4, 2, 1]]):
        rng = np.random.default_rng(9)
        cand = build_candidates(g, missing, spec, rng)
        assert (1, 2, 4) not in cand.negatives or cand.collisions > 0
        assert (cand.negatives, cand.collisions) == (canonical.negatives, canonical.collisions)
        assert cand.positives == tuple(missing)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_collision_acceptance_on_saturated_graph():
    # complete pairwise hypergraph: every possible fake collides
    edges = [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]
    g = from_label_edges(edges)
    rng = np.random.default_rng(0)
    cand = build_candidates(g, [g.edges[0]], SamplingSpec(0.5, 2), rng)
    assert len(cand.negatives) == 2
    assert cand.collisions == 2


def test_build_candidates_counts_and_cleanliness(medium):
    observed, missing = split(medium, SplitSpec(0.8, 1, seed=4), 0)
    rng = np.random.default_rng(1)
    cand = build_candidates(medium.with_edges(observed), missing, SamplingSpec(0.5, 3), rng)
    assert cand.positives == missing
    assert len(cand.negatives) == 3 * len(missing)
    assert len(cand.labels) == len(cand.edges)
    deg = np.zeros(medium.n)
    for e in observed:
        deg[list(e)] += 1
    for e in cand.edges:
        assert all(deg[v] > 0 for v in e)
    if cand.collisions == 0:
        assert not set(cand.positives) & set(cand.negatives)


def _sampling_graph(kind: str, n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_hypergraph(max(n, 5), m, rng, max_size=5, connected=True)
    if kind == "planted":
        return planted_hypergraph(max(n, 20), m, rng)
    # every vertex pair is an edge, so every fake of a missing pair collides
    return from_label_edges(list(combinations(range(4 + n % 3), 2)))


@given(
    kind=st.sampled_from(["random", "planted", "complete"]),
    n=st.integers(5, 40),
    m=st.integers(4, 80),
    seed=st.integers(0, 2**16),
    rho=st.sampled_from([0.5, 0.7, 0.8]),
    alpha=st.floats(0.01, 0.99),
    fakes=st.integers(1, 5),
)
@example(kind="complete", n=1, m=10, seed=0, rho=0.8, alpha=0.5, fakes=3)
@settings(max_examples=80, deadline=None)
def test_build_candidates_matches_negatives_oracle(kind, n, m, seed, rho, alpha, fakes):
    g = _sampling_graph(kind, n, m, seed)
    try:
        observed, missing = split(g, SplitSpec(rho, 1, seed), 0)
    except TrialDegenerateError:
        return
    observed_g = g.with_edges(observed)
    spec = SamplingSpec(alpha, fakes)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    forbidden = set(observed) | set(missing)
    negatives, collisions, expected_error = [], 0, None
    try:
        for e in missing:
            f, c = negatives_oracle(
                e, observed_g, spec, oracle_rng, forbidden, observed_g.degrees > 0
            )
            negatives.extend(f)
            collisions += c
    except SamplingError as exc:
        expected_error = str(exc)
    if expected_error is not None:
        with pytest.raises(SamplingError) as info:
            build_candidates(observed_g, missing, spec, rng)
        assert str(info.value) == expected_error
    else:
        got = build_candidates(observed_g, missing, spec, rng)
        assert got == CandidateSet(tuple(missing), tuple(negatives), collisions)
        if kind == "complete":
            assert collisions > 0
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _matches_negatives_oracle(observed_g, missing, spec, seed):
    """build_candidates and the per-fake oracle on twin generators give
    equal candidate sets, or the same SamplingError, and leave the
    generators in equal states."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    forbidden = set(observed_g.edges) | set(missing)
    negatives, collisions = [], 0
    try:
        for e in missing:
            f, c = negatives_oracle(
                e, observed_g, spec, oracle_rng, forbidden, observed_g.degrees > 0
            )
            negatives.extend(f)
            collisions += c
    except SamplingError as exc:
        with pytest.raises(SamplingError, match=f"^{re.escape(str(exc))}$"):
            build_candidates(observed_g, missing, spec, rng)
    else:
        got = build_candidates(observed_g, missing, spec, rng)
        assert got == CandidateSet(tuple(missing), tuple(negatives), collisions)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("chunk", [1, 2, experiment.CHUNK_FAKES])
@given(
    kind=st.sampled_from(["random", "planted", "complete"]),
    n=st.integers(5, 40),
    m=st.integers(4, 80),
    seed=st.integers(0, 2**16),
    alpha=st.floats(0.01, 0.99),
    fakes=st.integers(1, 5),
)
@example(kind="complete", n=1, m=10, seed=0, alpha=0.5, fakes=3)
@example(kind="complete", n=2, m=10, seed=3, alpha=0.2, fakes=5)
@settings(max_examples=25, deadline=None)
def test_build_candidates_windows_match_negatives_oracle(chunk, kind, n, m, seed, alpha, fakes):
    # a rejected fake rewinds the generator and retries in the next window,
    # so a window of one or two fakes puts every rewind at a window edge
    g = _sampling_graph(kind, n, m, seed)
    try:
        observed, missing = split(g, SplitSpec(0.8, 1, seed), 0)
    except TrialDegenerateError:
        return
    with mock.patch.object(experiment, "CHUNK_FAKES", chunk):
        _matches_negatives_oracle(g.with_edges(observed), missing, SamplingSpec(alpha, fakes), seed)


@pytest.mark.parametrize(
    "n, missing, alpha, fakes",
    [
        # pools of about 10.3k vertices and small r: Floyd's algorithm
        (10300, [(0, 2), (5, 9, 13), (100, 2000, 7000, 10299), (7, 300, 301, 4000, 9000)], 0.5, 4),
        # r = 234 > pool // 50 = 200: the pool choice shuffles a tail
        (10300, [(3, 8), tuple(range(0, 520, 2)), (11, 4001, 9999)], 0.1, 2),
        # r = 5050: the slot choice (10100, 5050) shuffles a tail, while the
        # pool choice (9900, 5050) runs Floyd's algorithm
        (20000, [tuple(range(10100)), (3, 15000)], 0.5, 2),
    ],
    ids=["floyd", "tail-shuffle", "slot-tail-shuffle"],
)
def test_build_candidates_matches_negatives_oracle_above_pop_10000(n, missing, alpha, fakes):
    observed_g = Hypergraph(n, [(v, v + 1) for v in range(n - 1)])
    for seed in range(3):
        _matches_negatives_oracle(observed_g, missing, SamplingSpec(alpha, fakes), seed)


@given(g=hypergraphs(max_n=12, max_m=14, connected=True))
@settings(max_examples=25, deadline=None)
def test_candidates_never_touch_isolated_vertices(g):
    try:
        observed_g, cand = trial_candidates(g, SplitSpec(0.7, 1, 9), SamplingSpec(0.5, 2), 0)
    except (TrialDegenerateError, SamplingError):
        return
    deg = np.zeros(g.n)
    for e in observed_g.edges:
        deg[list(e)] += 1
    assert all(deg[v] > 0 for e in cand.edges for v in e)


@pytest.mark.parametrize(
    "edges, rho, error",
    [
        ([[1, 2], [2, 3], [1, 3]], 0.9, TrialDegenerateError),  # no missing edges
        ([[1, 2], [3, 4]], 0.5, TrialDegenerateError),  # no usable split
        ([[1, 2, 3], [1, 2], [2, 3], [1, 3]], 0.75, SamplingError),  # triangle edge missing
    ],
)
def test_trial_errors_name_their_trial_once(edges, rho, error):
    g = from_label_edges(edges)
    with pytest.raises(error) as info:
        run_experiment(g, SplitSpec(rho, 1, 0), SamplingSpec(0.5, 1), ["hcn"])
    message = str(info.value)
    assert message.startswith("trial 0: ")
    assert message.count("trial 0: ") == 1


# ----------------------------------------------------------------- metrics


def test_auroc_perfect_and_ties():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5


def test_auroc_enumerated_example():
    # positives {0.9, 0.4}, negatives {0.5, 0.1}: 3 wins out of 4 pairs... 0.75
    assert auroc([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == 0.75


def test_auroc_single_class_raises():
    with pytest.raises(MetricUndefinedError):
        auroc([0.5, 0.2], [1, 1])


def test_auroc_matches_pair_oracle_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            continue
        assert auroc(scores, labels) == auroc_pairs_oracle(scores, labels)


def test_auroc_invariant_under_monotone_transform(medium):
    rng = np.random.default_rng(8)
    scores = rng.random(30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 1, 0
    base = auroc(scores, labels)
    assert auroc(np.exp(3 * scores) + 7, labels) == base


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_auroc_of_score_rows_equals_each_row_alone(data):
    n = data.draw(st.integers(2, 30))
    labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[:2] = [1, 0]
    rows = data.draw(st.integers(1, 5))
    # few distinct values, so rows are full of ties
    values = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5 + 1e-16, 1.0]) | st.floats(-2.0, 2.0)
    scores = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                         min_size=rows, max_size=rows)))
    together = auroc(scores, labels)
    assert together.shape == (rows,)
    for r in range(rows):
        assert together[r] == auroc(scores[r], labels)


# few distinct values, -0.0 beside 0.0, so rows are full of ties
TIED_SCORES = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 0.5 + 1e-16, 1.0]) | st.floats(-2.0, 2.0)


@st.composite
def score_arrays(draw, min_width: int = 1):
    """A 1-D score vector or a 2-D array of score rows, width >= min_width."""
    width = draw(st.integers(min_width, 30))
    shape = draw(st.sampled_from([(width,), (draw(st.integers(1, 5)), width)]))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(TIED_SCORES, min_size=size, max_size=size))).reshape(shape)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_auroc_equals_the_rankdata_formula_bit_for_bit(data):
    scores = data.draw(score_arrays(min_width=2))
    n = scores.shape[-1]
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    labels[:2] = [1, 0]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(scores, method="average", axis=-1)
    expected = (ranks[..., pos].sum(axis=-1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert np.asarray(auroc(scores, labels)).tobytes() == np.asarray(expected).tobytes()


def test_auroc_equals_the_rankdata_formula_on_200k_tied_scores():
    # sums of ~10^5 counts and ranks: exact only if every term is a count
    # or a half-integer, which small hypothesis rows cannot tell apart
    rng = np.random.default_rng(0)
    scores = rng.choice([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0], size=(3, 200_000))
    labels = (rng.random(200_000) < 0.3).astype(int)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(scores, method="average", axis=-1)
    expected = (ranks[..., pos].sum(axis=-1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert auroc(scores, labels).tobytes() == expected.tobytes()
    assert np.float64(auroc(scores[1], labels)).tobytes() == expected[1].tobytes()


def test_metrics_reject_label_count_mismatch():
    edges, scores = [(0, 1), (1, 2), (2, 3)], np.array([0.9, 0.5, 0.1])
    for labels in ([1, 0, 0, 1], [1, 0]):
        with pytest.raises(ParameterError, match="labels for 3"):
            f1_at_cutoff(edges, scores, labels, 2)
        with pytest.raises(ParameterError, match="labels for 3"):
            auroc(scores, labels)
    with pytest.raises(ParameterError, match="labels for 3"):
        auroc(np.zeros((2, 3)), [1, 0])


def test_f1_rejects_edge_count_mismatch():
    with pytest.raises(ParameterError, match="2 scores for 1 candidate edges"):
        f1_at_cutoff([(0, 1)], [0.5, 0.4], [1, 0], 1)
    with pytest.raises(ParameterError, match="1 scores for 2 candidate edges"):
        select_top([(0, 1), (1, 2)], [0.5], 1)


def test_select_top_rejects_a_negative_cutoff():
    with pytest.raises(ParameterError, match="cutoff=-1"):
        select_top([(0, 1), (0, 2), (1, 2)], [0.1, 0.5, 0.3], -1)
    assert select_top([(0, 1), (0, 2), (1, 2)], [0.1, 0.5, 0.3], 0) == []


def test_metrics_reject_labels_other_than_0_and_1():
    edges, scores = [(0, 1), (1, 2), (2, 3)], np.array([0.9, 0.5, 0.1])
    for labels in ([2, 1, 0], [1, -1, 0], [1, 0.5, 0]):
        with pytest.raises(ParameterError, match="0 or 1"):
            f1_at_cutoff(edges, scores, labels, 1)
        with pytest.raises(ParameterError, match="0 or 1"):
            auroc(scores, labels)
    with pytest.raises(ParameterError, match="0 or 1"):
        auroc(np.zeros((2, 3)), [1, 0, 2])
    assert auroc(scores, [True, False, False]) == auroc(scores, [1, 0, 0]) == 1.0


def test_metrics_reject_non_finite_scores():
    edges, labels = [(0, 1), (1, 2), (2, 3)], [1, 0, 0]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match=f"score {bad} of candidate 0 "):
            auroc([bad, 0.2, 0.1], labels)
        with pytest.raises(ParameterError, match=f"score {bad} of candidate 1 "):
            select_top(edges, [0.2, bad, float("nan")], 2)
        with pytest.raises(ParameterError, match=f"score {bad} of candidate 2 "):
            f1_at_cutoff(edges, [0.2, 0.1, bad], labels, 1)
        with pytest.raises(ParameterError, match=f"score {bad} of candidate 1 "):
            auroc([[0.3, 0.2, 0.1], [0.3, bad, 0.1]], labels)


def test_f1_all_positives_on_top():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert f1_at_cutoff(edges, np.array([0.9, 0.8, 0.2, 0.1]), [1, 1, 0, 0], 2) == 1.0


def test_f1_half_hit():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert f1_at_cutoff(edges, np.array([0.9, 0.1, 0.8, 0.2]), [1, 1, 0, 0], 2) == 0.5


def test_f1_identity_at_cutoff_equal_positives():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        edges = [(i, i + 1) for i in range(n)]
        scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n).tolist()
        labels = rng.integers(0, 2, size=n)
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == n:
            continue
        f1 = f1_at_cutoff(edges, np.array(scores), labels, n_pos)
        top = select_top(edges, scores, n_pos)
        tp = int(labels[top].sum())
        assert f1 == tp / n_pos
        assert f1 == f1_set_oracle(edges, scores, labels.tolist(), n_pos)


def test_f1_tie_break_canonical_edge_order():
    edges = [(5, 6), (0, 1), (2, 3)]
    scores = np.array([0.5, 0.5, 0.5])
    # all tied: selection takes ascending edge encoding: (0,1) then (2,3)
    assert select_top(edges, scores, 2) == [1, 2]
    assert f1_at_cutoff(edges, scores, [0, 1, 1], 2) == 1.0


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_select_top_matches_sorted_key(data):
    # few vertices and cardinalities 2..4: prefixes such as (1, 2) and
    # (1, 2, 3), repeated edges, exact ties and 0.0 against -0.0; ids below
    # 0 or from 2^16 up take the int64 sort, the others the uint16 radix sort
    vertex = st.integers(-2, 5) | st.integers(2**16 - 2, 2**16 + 3)
    edge = st.lists(vertex, min_size=2, max_size=4, unique=True).map(
        lambda e: tuple(sorted(e))
    )
    edges = data.draw(st.lists(edge, min_size=1, max_size=25))
    score = st.sampled_from([0.0, -0.0, 0.5, 0.5 + 1e-16, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    scores = data.draw(st.lists(score, min_size=len(edges), max_size=len(edges)))
    cutoff = data.draw(st.integers(0, len(edges)))
    assert select_top(edges, scores, cutoff) == select_top_oracle(edges, scores, cutoff)
    assert select_top(edges, np.array(scores), len(edges)) == select_top_oracle(
        edges, scores, len(edges)
    )


@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", None])
def test_select_top_and_f1_refuse_a_non_integer_vertex(bad):
    # an id such as 1.5 is refused, not truncated to 1 and ranked as (0, 1)
    edges, scores, labels = [(0, 2), (0, bad), (1, 2)], [0.5, 0.4, 0.3], [1, 0, 0]
    message = rf"^candidate \(0, {re.escape(repr(bad))}\) has the non-integer vertex"
    with pytest.raises(CandidateError, match=message):
        select_top(edges, scores, 1)
    with pytest.raises(CandidateError, match="non-integer vertex"):
        f1_at_cutoff(edges, scores, labels, 1)
    # negative ids are still ordered as they are
    assert select_top([(-1, 2), (-3, 0)], [0.5, 0.5], 1) == [1]


@pytest.mark.parametrize("v", [2**63, 2**70, -(2**63) - 1, -(2**70)])
def test_select_top_and_f1_refuse_a_vertex_outside_int64(v):
    edges, scores, labels = [(0, 2), (0, v), (1, 2)], [0.5, 0.4, 0.3], [1, 0, 0]
    message = rf"^candidate \(0, {v}\) has the vertex {v}, outside int64$"
    with pytest.raises(CandidateError, match=message):
        select_top(edges, scores, 1)
    with pytest.raises(CandidateError, match=message):
        f1_at_cutoff(edges, scores, labels, 1)
    # the ends of int64 are ordered as they are
    assert select_top([(0, 2**63 - 1), (-(2**63), 0)], [0.5, 0.5], 1) == [1]


def test_f1_cutoff_bounds():
    edges, scores = [(0, 1)], np.array([0.5])
    with pytest.raises(ParameterError):
        f1_at_cutoff(edges, scores, [1], 0)
    with pytest.raises(ParameterError):
        f1_at_cutoff(edges, scores, [1], 2)


# -------------------------------------------------------- cross-validation


def test_cv_grid_of_one_short_circuits(medium):
    rng = np.random.default_rng(0)
    chosen = cross_validate(
        [MethodSpec(LRW)], medium, [], folds=5, grid=[3], rng=rng
    )
    assert chosen == {LRW: 3}


def test_cv_requires_enough_folds(medium):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        cross_validate([MethodSpec(LRW)], medium, [], 1, [2, 3], rng)
    with pytest.raises(ParameterError):
        cross_validate([MethodSpec(LRW)], medium.with_edges(medium.edges[:3]), [], 5, [2, 3], rng)


@pytest.mark.parametrize(
    "n, edge",
    [(40, (0, 99)), (41, (-1, 3)), (41, (3, 40))],  # vertex 40 of 41 has no edge
    ids=["outside", "negative", "isolated"],
)
def test_cv_refuses_a_candidate_that_fails_the_candidate_checks(n, edge):
    g = random_hypergraph(40, 80, np.random.default_rng(1), connected=True)
    g = Hypergraph(n, g.edges)
    message = rf"^candidate \({edge[0]}, {edge[1]}\) uses vertex"
    with pytest.raises(CandidateError, match=message):
        cross_validate([MethodSpec(LRW)], g, [g.edges[1], edge], 3, [2, 3],
                       np.random.default_rng(0))


def test_cv_tie_breaks_to_smaller_k():
    # complete 2-uniform hypergraph: perfect symmetry makes all K equal
    edges = [[i, j] for i in range(1, 6) for j in range(i + 1, 6)]
    g = from_label_edges(edges)
    observed = g.edges[:8]
    candidates = g.edges[8:]
    rng = np.random.default_rng(0)
    chosen = cross_validate(
        [MethodSpec(LRW_JS)], g.with_edges(observed), candidates, 2, [2, 3, 4], rng
    )
    assert chosen[LRW_JS] == 2


def test_cv_with_every_fold_skipped_is_degenerate():
    # each held-out edge of a matching has both vertices isolated in training
    g = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(TrialDegenerateError, match="^cross-validation had no usable folds$"):
        cross_validate([MethodSpec(LRW)], g, [(0, 2)], 3, [2, 3], np.random.default_rng(0))


def test_cv_returns_grid_values(medium):
    observed_g, cand = trial_candidates(medium, SplitSpec(0.8, 1, 3), SamplingSpec(0.5, 2), 0)
    chosen = cross_validate(
        [MethodSpec(k) for k in (LRW, LRW_JS, LRW_GJS)],
        observed_g, cand.edges, 3, [2, 3], np.random.default_rng(1),
    )
    assert set(chosen) == {LRW, LRW_JS, LRW_GJS}
    assert all(v in (2, 3) for v in chosen.values())


def test_trial_observed_graph_is_the_canonical_observed_edge_set(medium):
    spec = SplitSpec(0.8, 1, 3)
    observed_g, _ = trial_candidates(medium, spec, SamplingSpec(0.5, 2), 0)
    assert observed_g == medium.with_edges(split(medium, spec, 0)[0])


def test_cv_fold_negatives_include_the_trials_missing_edges(monkeypatch, medium):
    # Tuning scores each fold's held-out edges against the whole trial
    # candidate set, so the trial's own missing edges are fold negatives.
    observed_g, cand = trial_candidates(medium, SplitSpec(0.8, 1, 3), SamplingSpec(0.5, 2), 0)
    fold_edges, fold_labels = [], []
    score_grid, cv_auroc = scoring.score_grid, experiment.auroc

    def scored(kinds, g, edges, grid):
        fold_edges.append(list(edges))
        return score_grid(kinds, g, edges, grid)

    def measured(scores, labels):
        fold_labels.append(np.asarray(labels))
        return cv_auroc(scores, labels)

    monkeypatch.setattr(scoring, "score_grid", scored)
    monkeypatch.setattr(experiment, "auroc", measured)
    cross_validate([MethodSpec(LRW)], observed_g, cand.edges, 3, [2, 3], np.random.default_rng(1))
    assert fold_edges and len(fold_edges) == len(fold_labels)
    positives = set(cand.positives)
    relabelled = 0
    for edges, labels in zip(fold_edges, fold_labels):
        assert len(edges) == len(labels)
        negatives = [e for e, y in zip(edges, labels) if y == 0]
        assert set(negatives) <= set(cand.edges)
        relabelled += len(positives.intersection(negatives))
    assert relabelled > 0


def test_hkatz_cv_excludes_divergent_betas():
    # complete pairwise graph on 20 vertices: even the 80%-observed
    # subgraph keeps a spectral radius above 10, so beta = 0.1 diverges in
    # closed form; selection must avoid it and final scoring must not crash
    from hyperwalk.errors import KatzDivergenceError
    from hyperwalk.projection import adjacency
    from hyperwalk.scoring import KatzSpectra, spectral_radius

    edges = [[i, j] for i in range(1, 21) for j in range(i + 1, 21)]
    g = from_label_edges(edges)
    spec = SplitSpec(0.8, 2, 1)
    res = run_experiment(
        g, spec, SamplingSpec(0.5, 2), ["hkatz"],
        folds=3, beta_grid=(0.001, 0.005, 0.01, 0.05, 0.1),
    )
    for record in res.records:
        observed, _ = split(g, spec, record.trial)
        a_obs = adjacency(g.with_edges(observed)).astype(float)
        rho = spectral_radius(a_obs)
        assert rho > 10.0  # 0.1 really is divergent on this trial
        assert record.outcomes[0].param * rho < 1.0
        with pytest.raises(KatzDivergenceError):
            KatzSpectra(g.with_edges(observed), [0, 1]).check(0.1)


def test_hkatz_cv_raises_when_a_fold_diverges(monkeypatch):
    # With the observed-graph pre-check fooled by a tiny spectral radius,
    # beta = 0.5 passes it but diverges on every fold of this complete
    # graph; cross-validation raises instead of dropping it from the grid.
    from hyperwalk import experiment, scoring
    from hyperwalk.errors import KatzDivergenceError

    g = from_label_edges([[i, j] for i in range(1, 21) for j in range(i + 1, 21)])
    split_spec, sampling_spec = SplitSpec(0.8, 1, 1), SamplingSpec(0.5, 2)
    observed_g, cand = trial_candidates(g, split_spec, sampling_spec, 0)
    monkeypatch.setattr(scoring, "spectral_radius", lambda a: 1e-9)
    with pytest.raises(KatzDivergenceError, match="^beta=0.5 "):
        cross_validate(
            [MethodSpec("hkatz")], observed_g, cand.edges, 3, [0.001, 0.5],
            np.random.default_rng(0),
        )
    with pytest.raises(KatzDivergenceError, match="^trial 0: beta=0.5 "):
        run_experiment(g, split_spec, sampling_spec, ["hkatz"], folds=3, beta_grid=(0.001, 0.5))


def test_series_katz_scores_a_whole_run(monkeypatch):
    # Past KATZ_CLOSED_MAX_N vertices every Katz table, in every fold and in
    # the final scoring, is the truncated series.
    g = planted_hypergraph(40, 90, np.random.default_rng(4))
    monkeypatch.setattr(scoring, "KATZ_CLOSED_MAX_N", 0)
    tables = []
    original = scoring.katz_pair_table

    def recording(*args):
        tables.append(original(*args))
        return tables[-1]

    monkeypatch.setattr(scoring, "katz_pair_table", recording)
    split_spec, sampling_spec = SplitSpec(0.8, 1, 2), SamplingSpec(0.5, 2)
    res = run_experiment(g, split_spec, sampling_spec, ["hkatz"], folds=3, beta_grid=(0.005, 0.01))
    assert len(tables) >= 2 and all(isinstance(t, scoring.KatzSeries) for t in tables)
    (outcome,) = res.records[0].outcomes
    observed_g, cand = trial_candidates(g, split_spec, sampling_spec, 0)
    scores = scoring.score_grid(["hkatz"], observed_g, cand.edges, [outcome.param])["hkatz"][0]
    assert isinstance(tables[-1], scoring.KatzSeries)
    assert outcome.auroc == auroc(scores, cand.labels)
    assert outcome.auroc > 0.5


def test_cv_rejects_mixed_families(medium):
    for kinds in ([LRW, "hkatz"], [LRW, "hcn"], ["hcn"], []):
        with pytest.raises(ParameterError):
            cross_validate(
                [MethodSpec(kind) for kind in kinds],
                medium, [], 2, [2, 3], np.random.default_rng(0),
            )


@pytest.mark.parametrize("kind, field", [(LRW, "k"), ("hkatz", "beta")])
def test_an_empty_grid_of_a_tuned_family_is_a_parameter_error(kind, field):
    g = largest_component(planted_hypergraph(40, 120, np.random.default_rng(0)))
    observed_g, cand = trial_candidates(g, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 3), 0)
    message = rf"^no {field} given for {kind}$"
    with pytest.raises(ParameterError, match=message):
        scoring.score_grid([kind], observed_g, cand.edges, [])
    with pytest.raises(ParameterError, match=message):
        cross_validate([MethodSpec(kind)], observed_g, cand.edges, 3, [], np.random.default_rng(0))


# -------------------------------------------------------------- end to end


def test_run_experiment_deterministic_and_bounded(medium):
    methods = ["hcn", "hkatz", "hpra", "lrw", "lrw-js", "lrw-gjs"]
    kwargs = dict(folds=3, k_grid=(2, 3), beta_grid=(0.005, 0.01))
    res1 = run_experiment(medium, SplitSpec(0.8, 2, 13), SamplingSpec(0.5, 3), methods, **kwargs)
    res2 = run_experiment(medium, SplitSpec(0.8, 2, 13), SamplingSpec(0.5, 3), methods, **kwargs)
    assert res1.to_json_dict() == res2.to_json_dict()
    for kind in res1.method_kinds:
        assert 0.0 <= res1.mean_auroc(kind) <= 1.0
        assert 0.0 <= res1.mean_f1(kind) <= 1.0


def test_run_experiment_threads_equivalent(medium):
    methods = ["lrw", "lrw-js"]
    kwargs = dict(folds=3, k_grid=(2, 3), beta_grid=(0.01,))
    serial = run_experiment(medium, SplitSpec(0.8, 3, 2), SamplingSpec(0.5, 2), methods, threads=1, **kwargs)
    parallel = run_experiment(medium, SplitSpec(0.8, 3, 2), SamplingSpec(0.5, 2), methods, threads=3, **kwargs)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_run_experiment_threads_0_uses_every_core(monkeypatch, medium):
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    args = (medium, SplitSpec(0.8, 2, 2), SamplingSpec(0.5, 2), ["lrw", "hcn"])
    every_core = run_experiment(*args, folds=3, k_grid=(2, 3), threads=0)
    assert workers == [3]
    serial = run_experiment(*args, folds=3, k_grid=(2, 3), threads=1)
    assert workers == [3]
    assert every_core.records == serial.records


def test_planted_structure_ranks_above_fakes(monkeypatch):
    # Random hypergraphs score AUROC ~0.5 under every method, so they cannot
    # tell a sound scorer from one that ranks backwards; planted ones can.
    g = planted_hypergraph(60, 240, np.random.default_rng(0))
    methods = list(scoring.ALL_KINDS)

    def aurocs():
        res = run_experiment(g, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 3), methods)
        return {o.kind: o.auroc for o in res.records[0].outcomes}

    sound = aurocs()
    assert all(value >= 0.65 for value in sound.values()), sound
    original = scoring.score_candidates

    def reversed_scores(*args):
        return [replace(s, score=-s.score) for s in original(*args)]

    monkeypatch.setattr(scoring, "score_candidates", reversed_scores)
    backwards = aurocs()
    assert all(value <= 0.35 for value in backwards.values()), backwards


def test_each_method_scores_after_the_last_ones_are_freed(monkeypatch, medium):
    # a method's scored candidates must not stay alive through the next
    # method's scoring, whose walk sweep can set the trial's peak memory
    class Scored(list):
        pass

    original = scoring.score_candidates
    earlier = []

    def tracked(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        result = Scored(original(*args))
        earlier.append(weakref.ref(result))
        return result

    monkeypatch.setattr(scoring, "score_candidates", tracked)
    methods = [MethodSpec("hcn"), MethodSpec("hpra"), MethodSpec(LRW, k=2)]
    run_experiment(medium, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 2), methods)
    assert len(earlier) == 3


def test_final_scoring_reuses_the_trials_candidate_batch(monkeypatch, medium):
    # the trial checks its candidates once; each method's final
    # score_candidates call scores that batch without building another
    built, per_call = [], []
    init, original = scoring._Candidates.__init__, scoring.score_candidates

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def final(*args):
        before = len(built)
        out = original(*args)
        per_call.append(len(built) - before)
        return out

    monkeypatch.setattr(scoring._Candidates, "__init__", counted)
    monkeypatch.setattr(scoring, "score_candidates", final)
    methods = ["hcn", LRW, "hpra"]
    run_experiment(medium, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 2), methods, folds=2,
                   k_grid=(2, 3))
    assert per_call == [0, 0, 0]


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_split_spec_needs_a_nonnegative_integer_seed(seed):
    with pytest.raises(ParameterError, match="seed"):
        SplitSpec(0.8, 1, seed)


_PLANTED = planted_hypergraph(40, 80, np.random.default_rng(0))
_ONE_TRIAL = (_PLANTED, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 2))


@pytest.mark.parametrize(
    "spec, args, name",
    [
        (SplitSpec, (0.8, 2.5), "trials"),
        (SplitSpec, (0.8, "3"), "trials"),
        (SplitSpec, (0.8, True), "trials"),
        (SplitSpec, ("0.8", 1), "rho"),
        (SplitSpec, (float("nan"), 1), "rho"),
        (SamplingSpec, (0.5, 2.5), "lambda"),
        (SamplingSpec, (0.5, "3"), "lambda"),
        (SamplingSpec, (True, 3), "alpha"),
        (SamplingSpec, (1.0, 3), "alpha"),
        # the library's own settings follow the same rules
        (run_experiment, (*_ONE_TRIAL, [LRW], 2.5), "folds"),
        (run_experiment, (*_ONE_TRIAL, [LRW], 2, (2, 3), (0.01,), 2.5), "threads"),
        (run_experiment, (*_ONE_TRIAL, [LRW], 2, (True, 3)), "k"),
        (run_experiment, (*_ONE_TRIAL, ["hkatz"], 2, (2,), (-0.1, 0.01)), "beta"),
        (f1_at_cutoff, ([(0, 1), (0, 2)], [0.5, 0.4], [1, 0], 2.5), "cutoff"),
        (f1_at_cutoff, ([(0, 1), (0, 2)], [0.5, 0.4], [1, 0], True), "cutoff"),
        (select_top, ([(0, 1), (0, 2)], [0.5, 0.4], True), "cutoff"),
        (from_label_edges, ([[0, 1, 2]], 2.5), "min_cardinality"),
        (from_label_edges, ([[0, 1, 2]], 1), "min_cardinality"),
        # checked before any trial, also when no method is tuned
        (run_experiment, (*_ONE_TRIAL, ["hcn"], 2.5), "folds"),
        (run_experiment, (*_ONE_TRIAL, ["hcn"], 2, (True,)), "k"),
        (run_experiment, (*_ONE_TRIAL, ["hcn"], 2, (2,), (-1.0,)), "beta"),
        (run_experiment, (*_ONE_TRIAL, [MethodSpec(LRW, k=4)], 2, ("x",)), "k"),
    ],
)
def test_run_specs_take_integer_counts_and_real_fractions(spec, args, name):
    with pytest.raises(ParameterError, match=f"{name}="):
        spec(*args)


@pytest.mark.parametrize("grids", [((), (0.01,)), ((2,), ())])
def test_run_experiment_needs_a_value_in_each_grid(grids):
    with pytest.raises(ParameterError, match="needs at least one value"):
        run_experiment(*_ONE_TRIAL, ["hkatz"], 2, *grids)


def test_single_value_walk_grid_is_checked_not_truncated(medium):
    with pytest.raises(ParameterError, match="k=2.5"):
        run_experiment(medium, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 2), [LRW], k_grid=(2.5,))


def test_run_experiment_pinned_parameter_skips_cv(medium):
    res = run_experiment(
        medium, SplitSpec(0.8, 1, 5), SamplingSpec(0.5, 2),
        [MethodSpec(LRW, k=4)], folds=2, k_grid=(2, 3),
    )
    assert res.records[0].outcomes[0].param == 4


def test_param_mode_prefers_frequent_then_smaller(medium):
    res = run_experiment(
        medium, SplitSpec(0.8, 3, 21), SamplingSpec(0.5, 2),
        ["lrw-js"], folds=2, k_grid=(2, 3),
    )
    params = [o.param for r in res.records for o in r.outcomes]
    mode = res.param_mode("lrw-js")
    assert params.count(mode) == max(params.count(p) for p in set(params))


def test_json_dict_shape(medium):
    res = run_experiment(medium, SplitSpec(0.8, 1, 0), SamplingSpec(0.5, 2), ["hcn"], folds=2)
    d = res.to_json_dict()
    assert set(d) == {"config", "trials", "aggregate"}
    assert d["config"]["lambda"] == 2
    assert d["trials"][0]["methods"]["hcn"].keys() == {"param", "auroc", "f1"}
