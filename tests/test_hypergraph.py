import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from hyperwalk.errors import EmptyHypergraphError, HyperwalkError, ParameterError, ParseError
from hyperwalk.hypergraph import (
    Hypergraph,
    components,
    from_label_edges,
    largest_component,
    load,
    loads,
    save,
    stats,
    vertex_rows,
)

from hyperwalk.projection import adjacency

from conftest import components_oracle, hypergraphs, load_oracle


def test_basic_parse():
    g = loads("1,2,3\n3,4\n")
    assert (g.n, g.m) == (4, 2)
    assert g.edges == ((0, 1, 2), (2, 3))
    assert g.labels == (1, 2, 3, 4)


def test_duplicate_sets_collapse():
    g = loads("1,2\n2,1\n")
    assert g.m == 1


def test_singleton_line_dropped_not_error():
    g = loads("5\n1,2\n")
    assert (g.n, g.m) == (2, 1)


def test_repeated_vertex_collapses_within_edge():
    g = loads("3,3\n1,2\n")
    assert g.m == 1  # {3,3} is a singleton set and gets dropped


def test_whitespace_and_comments_and_crlf():
    g = loads("# comment\n1 2 3\r\n\r\n3 4\n")
    assert (g.n, g.m) == (4, 2)


def test_label_mode():
    g = loads("alice,bob\nbob,carol\n", label_mode=True)
    assert g.n == 3
    assert g.labels == ("alice", "bob", "carol")


def test_integer_mode_rejects_text_with_line_number():
    with pytest.raises(ParseError) as err:
        loads("1,2\n1,x\n")
    assert err.value.line_number == 2


# Every line boundary of str.splitlines, so lone CR and the Unicode ones too.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
INT_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["", " 3 ", "+4", "007", "1_0", str(2**63), str(2**64 + 1), str(-(2**63) - 1)]),
)
# inner spaces, a trailing NUL and digits that only compare equal as ints
LABEL_TOKENS = st.sampled_from(["a", "b", "c", "a b", "b\x00", " c ", "é", "1", "01", ""])


@st.composite
def edge_list_texts(draw):
    """(text, label_mode) with separators mixed per line, empty tokens,
    comments, blank lines, every line boundary, repeated vertices, repeated
    vertex sets, ints beyond int64 and, now and then, a bad integer token."""
    label_mode = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# 1,2", "  #x y"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            tokens = draw(st.lists(LABEL_TOKENS if label_mode else INT_TOKENS, min_size=1, max_size=5))
            if not label_mode and draw(st.integers(0, 9)) == 0:
                tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["x", "1.5", "1 2"])))
            line = draw(st.sampled_from([",", ", ", " ,", " ", "\t", "  "])).join(tokens)
        lines.append(line + draw(st.sampled_from(LINE_ENDS)))
    return "".join(lines), label_mode


@given(edge_list_texts(), st.sampled_from([2, 2, 2, 3, 3, np.int64(3), 1, 2.0, True]))
@settings(max_examples=300)
def test_loads_matches_the_reference_loader(drawn, min_cardinality):
    text, label_mode = drawn
    try:
        n, edges, labels = load_oracle(text, label_mode, min_cardinality)
    except HyperwalkError as expected:
        with pytest.raises(HyperwalkError) as got:
            loads(text, label_mode, min_cardinality)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)
        assert getattr(got.value, "line_number", None) == getattr(expected, "line_number", None)
        return
    g = loads(text, label_mode, min_cardinality)
    assert (g.n, g.edges, g.labels) == (n, edges, labels)
    assert list(map(type, g.labels)) == list(map(type, labels))


def test_empty_after_filter():
    with pytest.raises(EmptyHypergraphError):
        loads("7\n# nothing\n")


def test_min_cardinality_filter():
    g = loads("1,2\n1,2,3\n4,5,6\n", min_cardinality=3)
    assert g.m == 2
    assert all(len(e) >= 3 for e in g.edges)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 1), (1, 2)],
        [(1, 0), (1, 2)],
        [(0, 2, 1)],
        [(-1, 1)],
        [(0, 3)],
        [(2,)],
        [(0, 1), (0, 1)],
        [(1, 2), (0, 1)],
        [(0.5, 1)],
        [(True, 2)],
        [(0, 1.0)],
    ],
)
def test_constructor_rejects_malformed_edges(edges):
    # a repeated vertex would count twice in its degree; an unsorted edge
    # would be missed by set lookups of its canonical form, such as the
    # sampler's forbidden set; a repeated edge would count twice in m and
    # the degrees; an unsorted edge list would make iteration order depend
    # on the caller; a float or bool vertex would be stored as another id
    with pytest.raises(ValueError):
        Hypergraph(3, edges)


def test_constructor_names_a_vertex_beyond_int64_and_a_wrong_label_count():
    with pytest.raises(ValueError, match=r"^hyperedge \(0, 9223372036854775808\) outside vertex range 0\.\.2$"):
        Hypergraph(3, [(0, 2**63)])
    with pytest.raises(ValueError, match="^1 labels for 3 vertices$"):
        Hypergraph(3, [(0, 1)], ["a"])


def test_component_and_stats_of_an_edgeless_hypergraph_raise():
    with pytest.raises(EmptyHypergraphError, match="^cannot take a component of an empty hypergraph$"):
        largest_component(Hypergraph(3, []))
    with pytest.raises(EmptyHypergraphError, match="^stats of an empty hypergraph$"):
        stats(Hypergraph(3, []))


def test_degrees_and_cardinalities(t1):
    assert t1.degrees.tolist() == [1, 1, 2, 1]
    assert t1.cardinalities.tolist() == [3, 2]


def test_largest_component_picks_bigger():
    g = from_label_edges([[1, 2], [3, 4], [4, 5]])
    c = largest_component(g)
    assert c.labels == (3, 4, 5)
    assert c.m == 2


def test_largest_component_identity_when_connected(t1):
    assert largest_component(t1) == t1
    assert largest_component(t1) is t1


def test_largest_component_three_chain():
    g = from_label_edges([[1, 2], [2, 3], [7, 8]])
    c = largest_component(g)
    assert c.labels == (1, 2, 3)


def test_largest_component_tie_breaks_to_smallest_label():
    g = from_label_edges([[5, 6], [1, 2]])
    c = largest_component(g)
    assert c.labels == (1, 2)


def test_stats_toy(t1):
    s = stats(t1)
    assert (s.n, s.m) == (4, 2)
    assert s.mean_degree == pytest.approx(1.25)
    assert s.mean_cardinality == pytest.approx(2.5)


def test_stats_single_edge():
    s = stats(from_label_edges([[1, 2]]))
    assert (s.n, s.m, s.mean_degree, s.mean_cardinality) == (2, 1, 1.0, 2.0)


@given(hypergraphs())
def test_incidence_double_counting(g):
    assert g.degrees.sum() == g.cardinalities.sum()


@given(hypergraphs())
@settings(max_examples=60)
def test_components_and_degrees_match_independent_oracles(g):
    # every other edge dropped: the same vertex universe with isolated vertices
    for h in (g, g.with_edges(g.edges[::2])):
        parts, oracle = connected_components(adjacency(h), directed=False)
        smallest = np.full(parts, h.n)
        np.minimum.at(smallest, oracle, np.arange(h.n))
        assert components(h).tolist() == smallest[oracle].tolist()
        assert components(h).tolist() == components_oracle(h)

        sizes = np.bincount(oracle)
        best = min(np.flatnonzero(sizes == sizes.max()), key=lambda c: smallest[c])
        kept = np.flatnonzero(oracle == best).tolist()
        largest = largest_component(h)
        assert largest.labels == tuple(h.labels[v] for v in kept)
        assert largest.m == sum(1 for e in h.edges if set(e) <= set(kept))
        renumber = {v: i for i, v in enumerate(kept)}
        assert list(largest.edges) == sorted(
            tuple(renumber[v] for v in e) for e in h.edges if set(e) <= set(kept)
        )

        counts = [0] * h.n
        for e in h.edges:
            for v in e:
                counts[v] += 1
        assert h.degrees.dtype == np.int64
        assert h.degrees.tolist() == counts


@given(hypergraphs())
def test_largest_component_idempotent(g):
    once = largest_component(g)
    assert largest_component(once) == once


@given(g=hypergraphs())
@settings(max_examples=30)
def test_save_load_roundtrip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("io") / "g.txt"
    save(g, path)
    back = load(path)
    original = {frozenset(g.labels[v] for v in e) for e in g.edges}
    reloaded = {frozenset(back.labels[v] for v in e) for e in back.edges}
    assert original == reloaded


def test_after_component_no_isolated_vertices():
    g = largest_component(from_label_edges([[1, 2], [2, 3], [9, 10]]))
    assert (g.degrees > 0).all()


def test_label_mode_save_load_roundtrip(tmp_path):
    g = loads("walnut,pecan,almond\nalmond,cashew\n", label_mode=True)
    path = tmp_path / "named.txt"
    save(g, path)
    back = load(path, label_mode=True)
    original = {frozenset(g.labels[v] for v in e) for e in g.edges}
    assert original == {frozenset(back.labels[v] for v in e) for e in back.edges}


@pytest.mark.parametrize("label", [" z", "#x", "a,b", "a\nb", ""])
def test_save_refuses_labels_that_do_not_load_back(tmp_path, label):
    # each label sorts before "y", so it also starts its line
    g = from_label_edges([[label, "y"]])
    path = tmp_path / "g.txt"
    with pytest.raises(ParameterError, match=re.escape(repr(label))):
        save(g, path)
    assert not path.exists()


def test_vertex_rows_sorts_deduplicates_and_selects():
    ids, select = vertex_rows([3, 1, 3, True], 5)
    assert ids.dtype == np.int64 and ids.tolist() == [1, 3]
    assert select.format == "csr" and select.shape == (2, 5)
    assert np.array_equal(select.toarray(), np.eye(5)[[1, 3]])
    for empty in ([], np.zeros(0, dtype=np.int64), range(0)):
        ids, select = vertex_rows(empty, 5)
        assert ids.dtype == np.int64 and ids.size == 0 and select.shape == (0, 5)
    ids, _ = vertex_rows(np.array([4, 0, 4], dtype=np.uint8), 5)
    assert ids.dtype == np.int64 and ids.tolist() == [0, 4]


@pytest.mark.parametrize("bad", [0.7, "1", -1, 5, None, 2**70, np.float64(2.0)])
def test_vertex_rows_rejects_anything_but_vertex_ids(bad):
    with pytest.raises(ParameterError):
        vertex_rows([0, bad], 5)
    with pytest.raises(ParameterError):
        vertex_rows(np.array([bad]), 5)
