"""Hypergraph data model and dataset I/O.

A hypergraph is stored as a fixed vertex universe 0..n-1 (with a map back to
the original labels) plus a list of hyperedges, each a sorted tuple of
distinct vertex ids.  Instances are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import EmptyHypergraphError, ParameterError, ParseError, _check_count, _is_number

Edge = tuple[int, ...]


class Hypergraph:
    """Vertex universe plus deduplicated hyperedges over dense 0-based ids.

    ``labels[v]`` is the original label of vertex ``v``.  Edges are
    strictly increasing tuples of integer vertex ids, given without
    duplicates in lexicographic order (the constructor rejects anything
    else), so iteration order is deterministic.  ``members`` holds every
    edge's vertex ids concatenated edge by edge and ``cardinalities`` each
    edge's size, both int64.  Construction does not forbid isolated
    vertices: split hypergraphs used during evaluation keep the full vertex
    universe.
    """

    def __init__(self, n: int, edges: Sequence[Edge], labels: Sequence | None = None):
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(map(tuple, edges))
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        self.cardinalities = np.fromiter(map(len, self.edges), np.int64, len(self.edges))
        flat = list(chain.from_iterable(self.edges))
        kinds = set(map(type, flat))
        if not all(issubclass(k, numbers.Integral) and not issubclass(k, bool) for k in kinds):
            bad = next(e for e in self.edges if not all(_is_number(v, numbers.Integral) for v in e))
            raise ValueError(f"hyperedge {bad} has a vertex that is not an integer id")
        try:
            self.members = np.fromiter(flat, np.int64, len(flat))
        except OverflowError:
            # some vertex lies beyond int64, so a check below fails; Python
            # objects keep the order the checks compare
            self.members = np.array(flat, dtype=object)
        self._check_edges()

    def _check_edges(self) -> None:
        """Raise ValueError naming the first edge that is not a strictly
        increasing tuple of at least two ids in 0..n-1; failing that, raise
        one unless the edges strictly ascend in lexicographic order."""
        v, sizes, m = self.members, self.cardinalities, self.m
        edge_of = np.repeat(np.arange(m), sizes)
        falls = (v[1:] <= v[:-1]) & (edge_of[1:] == edge_of[:-1])
        unsorted = np.bincount(edge_of[1:][falls], minlength=m) > 0
        outside = np.bincount(edge_of[(v < 0) | (v >= self.n)], minlength=m) > 0
        faults = [
            (sizes < 2, "has fewer than two vertices"),
            (unsorted, "is not a strictly increasing vertex tuple"),
            (outside, f"outside vertex range 0..{self.n - 1}"),
        ]
        bad = np.logical_or.reduce([mask for mask, _ in faults])
        if bad.any():
            i = int(np.argmax(bad))
            reason = next(text for mask, text in faults if mask[i])
            raise ValueError(f"hyperedge {self.edges[i]} {reason}")
        if not all(map(operator.lt, self.edges, self.edges[1:])):
            raise ValueError("hyperedges are not distinct and in lexicographic order")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident hyperedges per vertex (hyperdegree)."""
        return np.bincount(self.members, minlength=self.n)

    def with_edges(self, edges: Iterable[Edge]) -> "Hypergraph":
        """Same vertex universe and labels, different edge list."""
        return Hypergraph(self.n, sorted(set(tuple(sorted(e)) for e in edges)), self.labels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class HypergraphStats:
    n: int
    m: int
    mean_degree: float
    mean_cardinality: float


def _tuple_order(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row indices in the tuple order of their rows, a prefix first and
    equal rows in index order: one stable sort per column, from the last,
    of the rows that reach it."""
    if 0 <= values.min(initial=0) and values.max(initial=0) < 2**16:
        values = values.astype(np.uint16)  # numpy's stable sort is a radix sort on these
    by_size = np.argsort(sizes, kind="stable")
    first = np.searchsorted(sizes[by_size], np.arange(sizes.max(initial=0) + 2))
    order = by_size[:0]
    for j in range(sizes.max(initial=0) - 1, -1, -1):
        # rows ending at column j sort first among those that reach it
        order = np.concatenate([by_size[first[j + 1]:first[j + 2]], order])
        order = order[np.argsort(values[starts[order] + j], kind="stable")]
    return order


def _all_marked(flat: np.ndarray, sizes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether ``mask`` marks every vertex of each edge, for edges given
    as their vertices ``flat``, concatenated edge by edge, and ``sizes``."""
    misses = np.concatenate(([0], np.cumsum(~mask[flat])))
    ends = np.cumsum(sizes)
    return misses[ends] == misses[ends - sizes]


def _edge_tuples(members: np.ndarray, sizes: np.ndarray) -> list[Edge]:
    """Python int tuples of ``sizes[i]`` consecutive ``members`` each."""
    edges = np.empty(len(sizes), dtype=object)
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        # zip over one list per column builds each tuple without a row list
        columns = members[starts[at, None] + np.arange(size)].T.tolist()
        edges[at] = np.fromiter(zip(*columns), dtype=object, count=len(at))
    return edges.tolist()


def _label_array(flat: list) -> np.ndarray:
    """Labels as int64 when all are ints that fit, else as Python objects.

    Object arrays keep Python's order and equality for strings and for ints
    beyond int64; numpy's fixed-width ``U`` strings would drop trailing NULs.
    """
    if set(map(type, flat)) <= {int}:
        try:
            return np.fromiter(flat, np.int64, len(flat))
        except OverflowError:
            pass
    return np.fromiter(flat, dtype=object, count=len(flat))


def _canonical(flat: list, sizes: np.ndarray, min_cardinality: int) -> Hypergraph:
    """The hypergraph of labelled edges given as ``sizes[i]`` consecutive
    labels of ``flat`` each: repeated labels within an edge collapse, edges
    with fewer than ``min_cardinality`` distinct labels and repeated label
    sets are dropped, and the labels of kept edges are numbered in sorted
    order."""
    _check_count("min_cardinality", min_cardinality, 2)
    labels, ids = np.unique(_label_array(flat), return_inverse=True)
    # sorted (edge, label) keys order each edge's ids; equal neighbours are repeats
    width = max(len(labels), 1)
    keys = np.sort(np.repeat(np.arange(len(sizes)), sizes) * width + ids)
    edge_of, ids = np.divmod(keys[np.diff(keys, prepend=-1) != 0], width)
    sizes = np.bincount(edge_of, minlength=len(sizes))
    kept = sizes >= min_cardinality
    ids, sizes = ids[kept[edge_of]], sizes[kept]
    if not len(sizes):
        raise EmptyHypergraphError("no hyperedges remain after filtering")
    starts = np.cumsum(sizes) - sizes
    order = _tuple_order(ids, starts, sizes)
    sizes = sizes[order]
    ids = ids[np.repeat(starts[order] - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())]
    used = np.zeros(len(labels), dtype=bool)
    used[ids] = True
    edges = _edge_tuples((np.cumsum(used) - 1)[ids], sizes)
    # in tuple order, a repeated label set equals its predecessor
    edges = list(compress(edges, map(operator.ne, edges, [(), *edges])))
    return Hypergraph(int(used.sum()), edges, labels[used].tolist())


def from_label_edges(
    label_edges: Iterable[Iterable], min_cardinality: int = 2
) -> Hypergraph:
    """Normalize raw labeled hyperedges into a :class:`Hypergraph`.

    Drops edges with fewer than ``min_cardinality`` distinct vertices,
    collapses duplicate vertex sets, and maps sorted unique labels to dense
    0-based ids.
    """
    edges = list(map(tuple, label_edges))
    sizes = np.fromiter(map(len, edges), np.int64, len(edges))
    return _canonical(list(chain.from_iterable(edges)), sizes, min_cardinality)


def loads(text: str, label_mode: bool = False, min_cardinality: int = 2) -> Hypergraph:
    """Parse hyperedge-list text: one edge per line, ',' or whitespace separated.

    Lines are those of ``str.splitlines``, so CR, CRLF and the other Unicode
    line boundaries end a line as LF does.  Blank lines and lines starting
    with '#' are skipped.  A line holding a ',' is split at commas, any
    other at whitespace; tokens are stripped and empty ones dropped.
    """
    tokens: list[str] = []
    counts: list[int] = []
    line_numbers: list[int] = []
    count, line_number = counts.append, line_numbers.append
    for number, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if line and line[0] != "#":
            parts = line.split(",") if "," in line else line.split()
            tokens += parts
            count(len(parts))
            line_number(number)
    tokens = list(map(str.strip, tokens))
    filled = np.fromiter(map(bool, tokens), dtype=bool, count=len(tokens))
    # every line holds at least one raw token, so the starts strictly ascend
    starts = np.cumsum(counts, dtype=np.int64) - np.array(counts, dtype=np.int64)
    sizes = np.add.reduceat(filled, starts, dtype=np.int64)
    tokens = list(compress(tokens, filled))
    if not label_mode:
        try:
            tokens = list(map(int, tokens))
        except ValueError:
            ends = np.cumsum(sizes)
            for i, token in enumerate(tokens):
                try:
                    int(token)
                except ValueError:
                    number = line_numbers[int(np.searchsorted(ends, i, side="right"))]
                    raise ParseError(number, f"non-integer vertex token {token!r}") from None
    return _canonical(tokens, sizes, min_cardinality)


def load(path, label_mode: bool = False, min_cardinality: int = 2) -> Hypergraph:
    """Load a hyperedge-list file (UTF-8; the format of :func:`loads`)."""
    return loads(Path(path).read_text(encoding="utf-8"), label_mode, min_cardinality)


def save(g: Hypergraph, path) -> None:
    """Write the canonical form: comma-separated original labels, vertices
    ascending within an edge, edges in lexicographic order.

    Raises ParameterError, before anything is written, for a label that
    :func:`load` would not read back as written: one whose ``str`` is empty,
    has surrounding whitespace, holds a ',' or a line boundary of
    ``str.splitlines``, or starts a line with '#'.
    """
    text = [str(label) for label in g.labels]
    first = np.zeros(g.n, dtype=bool)
    first[g.members[np.cumsum(g.cardinalities) - g.cardinalities]] = True
    for v in np.flatnonzero(g.degrees).tolist():
        s = text[v]
        if s.splitlines() != [s] or s != s.strip() or "," in s or (first[v] and s[0] == "#"):
            raise ParameterError(f"label {g.labels[v]!r} would not load back as written")
    lines = [",".join(text[v] for v in e) for e in g.edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def components(g: Hypergraph) -> np.ndarray:
    """Clique-expansion component of every vertex, named by its smallest vertex id.

    An isolated vertex is a component of its own.  The components are those
    of a star graph in which each hyperedge joins its first vertex to its
    other members; each component's label is then renamed to the first
    vertex that carries it, which is its smallest.
    """
    hubs = np.repeat(g.members[np.cumsum(g.cardinalities) - g.cardinalities], g.cardinalities)
    # edges ascend lexicographically, so their first vertices ascend too and
    # the star's entries (hub, member) already come in CSR row order
    indptr = np.searchsorted(hubs, np.arange(g.n + 1))
    star = sparse.csr_matrix((np.ones(len(hubs)), g.members, indptr), shape=(g.n, g.n))
    _, labels = csgraph.connected_components(star, directed=False)
    _, smallest = np.unique(labels, return_index=True)
    return smallest[labels]


def vertex_rows(vertices, n: int) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The distinct ``vertices`` in ascending order, as int64 ids, and the
    0/1 matrix with n columns whose row r selects vertex ``ids[r]``.

    Raises ParameterError unless every vertex is an integer id in 0..n-1.
    """
    given = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if given.dtype.kind not in "biu":
        wrong = [v for v in given.ravel().tolist() if not isinstance(v, numbers.Integral)]
        if wrong:
            raise ParameterError(f"vertex {wrong[0]!r} is not an integer vertex id")
    ids = np.unique(given)
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ParameterError(f"vertex {ids[0] if ids[0] < 0 else ids[-1]} is not in 0..{n - 1}")
    ids = ids.astype(np.int64)
    indptr = np.arange(len(ids) + 1)
    return ids, sparse.csr_matrix((np.ones(len(ids)), ids, indptr), shape=(len(ids), n))


def largest_component(g: Hypergraph) -> Hypergraph:
    """Sub-hypergraph induced by the largest clique-expansion component.

    Every hyperedge lies entirely inside one component, so induced edges are
    exactly those whose first vertex belongs to the winning component.  Ties
    in component size are broken toward the smallest minimum original label.
    A connected g is returned itself, as hypergraphs are immutable.
    """
    if g.m == 0:
        raise EmptyHypergraphError("cannot take a component of an empty hypergraph")
    labels = components(g)
    # argmax takes the first largest component, i.e. the one with the
    # smallest vertex id; ids are assigned in label order, so that is also
    # the smallest minimum label.
    keep = labels == int(np.argmax(np.bincount(labels, minlength=g.n)))
    if keep.all():
        return g
    # ascending renumbering keeps vertex order, so the kept edges stay
    # strictly increasing and in lexicographic order
    kept = keep[g.members[np.cumsum(g.cardinalities) - g.cardinalities]]
    members = (np.cumsum(keep) - 1)[g.members[np.repeat(kept, g.cardinalities)]]
    edges = _edge_tuples(members, g.cardinalities[kept])
    return Hypergraph(int(keep.sum()), edges, list(compress(g.labels, keep.tolist())))


def stats(g: Hypergraph) -> HypergraphStats:
    """Vertex/edge counts plus mean hyperdegree and mean edge cardinality."""
    if g.m == 0:
        raise EmptyHypergraphError("stats of an empty hypergraph")
    return HypergraphStats(
        n=g.n,
        m=g.m,
        mean_degree=float(g.degrees.sum()) / g.n,
        mean_cardinality=float(g.cardinalities.sum()) / g.m,
    )
