"""Random hypergraph generation for tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .errors import _check_count, _check_positive
from .hypergraph import Hypergraph, from_label_edges, largest_component


def random_hypergraph(
    n: int,
    m: int,
    rng: np.random.Generator,
    max_size: int = 4,
    connected: bool = False,
) -> Hypergraph:
    """Uniformly random hyperedges: m draws of 2..max_size distinct vertices.

    Duplicate edges collapse, so the result may have fewer than m edges.
    With ``connected`` the largest component is returned instead of the full
    vertex set.
    """
    if n < max_size:
        raise ValueError("need at least max_size vertices")
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, max_size + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    g = from_label_edges(edges)
    return largest_component(g) if connected else g


def regular_cardinality_hypergraph(
    n: int,
    cardinality: int,
    mean_pair_degree: float,
    rng: np.random.Generator,
) -> Hypergraph:
    """Fixed-cardinality hypergraph tuned to a target clique-expansion degree.

    Each edge of cardinality c adds about c*(c-1)/n to every vertex's
    expected clique-expansion degree, so m = n*d / (c*(c-1)) edges land the
    mean pairwise degree near d.  Raises ParameterError unless the
    cardinality is an integer >= 2, n an integer >= the cardinality and the
    degree a finite real number > 0.
    """
    _check_count("cardinality", cardinality, 2)
    _check_count("n", n, cardinality)
    _check_positive("mean_pair_degree", mean_pair_degree)
    c = cardinality
    m = max(int(round(n * mean_pair_degree / (c * (c - 1)))), 1)
    draws = rng.integers(0, n, size=(m, c))
    bad = (np.diff(np.sort(draws, axis=1), axis=1) == 0).any(axis=1)
    while bad.any():
        draws[bad] = rng.integers(0, n, size=(int(bad.sum()), c))
        bad = (np.diff(np.sort(draws, axis=1), axis=1) == 0).any(axis=1)
    return largest_component(from_label_edges(draws.tolist()))


def planted_hypergraph(n: int, m: int, rng: np.random.Generator) -> Hypergraph:
    """Hyperedges planted on four communities: a hypergraph stochastic
    block model in the style of Chodrow, Veldt & Benson 2021, reduced to
    one affinity.

    Vertex v belongs to community v mod 4.  Each of m draws picks a
    cardinality uniformly from 2..5; with probability 0.8 its vertices come
    from one uniformly chosen community, otherwise from all n vertices.
    Duplicate edges collapse, so the result may have fewer than m edges.
    Unlike :func:`random_hypergraph`, its edges carry structure that a
    sound scorer ranks above sampled fakes.
    """
    if n < 20:
        raise ValueError("need at least 5 vertices in each of the 4 communities")
    members = [np.arange(c, n, 4) for c in range(4)]
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, 6))
        pool = members[int(rng.integers(4))] if rng.random() < 0.8 else n
        edges.append(rng.choice(pool, size=size, replace=False).tolist())
    return from_label_edges(edges)
