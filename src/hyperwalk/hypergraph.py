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

from .errors import EmptyHypergraphError, ParameterError, ParseError, _check_count

Edge = tuple[int, ...]


class Hypergraph:
    """Vertex universe plus deduplicated hyperedges over dense 0-based ids.

    ``labels[v]`` is the original label of vertex ``v``.  Edges are
    strictly increasing vertex tuples, given without duplicates in
    lexicographic order (the constructor rejects anything else), so
    iteration order is deterministic.  Construction does not forbid isolated
    vertices: split hypergraphs used during evaluation keep the full vertex
    universe.
    """

    def __init__(self, n: int, edges: Sequence[Edge], labels: Sequence | None = None):
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(tuple(e) for e in edges)
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        for e in self.edges:
            if len(e) < 2:
                raise ValueError(f"hyperedge {e} has fewer than two vertices")
            if not all(map(operator.lt, e, e[1:])):
                raise ValueError(f"hyperedge {e} is not a strictly increasing vertex tuple")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"hyperedge {e} outside vertex range 0..{n - 1}")
        if not all(map(operator.lt, self.edges, self.edges[1:])):
            raise ValueError("hyperedges are not distinct and in lexicographic order")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def members(self) -> np.ndarray:
        """Vertex ids of all hyperedges, concatenated edge by edge."""
        return np.fromiter(chain.from_iterable(self.edges), dtype=np.int64)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident hyperedges per vertex (hyperdegree)."""
        return np.bincount(self.members, minlength=self.n)

    @cached_property
    def cardinalities(self) -> np.ndarray:
        return np.array([len(e) for e in self.edges], dtype=np.int64)

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


def _parse_line(raw: str, number: int, label_mode: bool) -> list:
    text = raw.strip()
    if not text or text.startswith("#"):
        return []
    tokens = [t.strip() for t in (text.split(",") if "," in text else text.split())]
    tokens = [t for t in tokens if t]
    if label_mode:
        return tokens
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ParseError(number, f"non-integer vertex token {t!r}") from None
    return out


def from_label_edges(
    label_edges: Iterable[Iterable], min_cardinality: int = 2
) -> Hypergraph:
    """Normalize raw labeled hyperedges into a :class:`Hypergraph`.

    Drops edges with fewer than ``min_cardinality`` distinct vertices,
    collapses duplicate vertex sets, and maps sorted unique labels to dense
    0-based ids.
    """
    _check_count("min_cardinality", min_cardinality, 2)
    kept = []
    for e in label_edges:
        members = frozenset(e)
        if len(members) >= min_cardinality:
            kept.append(members)
    kept = set(kept)
    if not kept:
        raise EmptyHypergraphError("no hyperedges remain after filtering")
    labels = sorted({v for e in kept for v in e})
    index = {lab: i for i, lab in enumerate(labels)}
    edges = sorted(tuple(sorted(index[v] for v in e)) for e in kept)
    return Hypergraph(len(labels), edges, labels)


def loads(text: str, label_mode: bool = False, min_cardinality: int = 2) -> Hypergraph:
    """Parse hyperedge-list text (one edge per line, ',' or whitespace separated)."""
    raw_edges = []
    for number, line in enumerate(text.splitlines(), start=1):
        tokens = _parse_line(line, number, label_mode)
        if tokens:
            raw_edges.append(tokens)
    return from_label_edges(raw_edges, min_cardinality)


def load(path, label_mode: bool = False, min_cardinality: int = 2) -> Hypergraph:
    """Load a hyperedge-list file (UTF-8, '#' comments, LF or CRLF)."""
    return loads(Path(path).read_text(encoding="utf-8"), label_mode, min_cardinality)


def save(g: Hypergraph, path) -> None:
    """Write the canonical form: comma-separated original labels, vertices
    ascending within an edge, edges in lexicographic order."""
    lines = [",".join(str(g.labels[v]) for v in e) for e in g.edges]
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
    """
    if g.m == 0:
        raise EmptyHypergraphError("cannot take a component of an empty hypergraph")
    labels = components(g)
    # argmax takes the first largest component, i.e. the one with the
    # smallest vertex id; ids are assigned in label order, so that is also
    # the smallest minimum label.
    keep = labels == int(np.argmax(np.bincount(labels, minlength=g.n)))
    # ascending renumbering keeps vertex order, so the kept edges stay
    # strictly increasing and in lexicographic order
    new_id = (np.cumsum(keep) - 1).tolist()
    kept = keep.tolist()
    edges = [tuple(new_id[v] for v in e) for e in g.edges if kept[e[0]]]
    return Hypergraph(int(keep.sum()), edges, list(compress(g.labels, kept)))


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
