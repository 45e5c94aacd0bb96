"""Planted-partition hypergraph generator for the benchmark workloads.

Vertex v belongs to community v mod c.  Hyperedge i has cardinality
kmin + (i mod (kmax - kmin + 1)), so every cardinality is equally common
and the pair count of a file does not vary with the seed.  With
probability p_in its vertices are drawn from one uniformly chosen
community, otherwise from all n vertices.  Duplicate vertex sets are
redrawn, so the file holds exactly m distinct hyperedges.  This is the hypergraph-SBM setting of
Chodrow, Veldt & Benson 2021 ("Generative hypergraph clustering")
reduced to one affinity parameter.

The generator is deliberately separate from the library's own synthetic
module: the benchmark's inputs must not change when the library does.

    python3 perfbench/gen.py --n 150 --m 1500 --communities 5 \\
        --kmin 2 --kmax 5 --p-in 0.8 --seed 0 --out walk-cv.txt
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np


def planted_edges(n: int, m: int, communities: int, kmin: int, kmax: int,
                  p_in: float, seed: int) -> list[tuple[int, ...]]:
    """m distinct planted-partition hyperedges as sorted vertex tuples."""
    if not 2 <= kmin <= kmax <= n // communities:
        raise ValueError("need 2 <= kmin <= kmax <= community size")
    rng = np.random.default_rng(seed)
    members = [np.arange(c, n, communities) for c in range(communities)]
    everyone = np.arange(n)
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        k = kmin + len(edges) % (kmax - kmin + 1)
        pool = members[int(rng.integers(communities))] if rng.random() < p_in else everyone
        edge = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def write_dataset(edges, path) -> str:
    """Write one comma-separated hyperedge per line; return the file's sha256."""
    data = "".join(",".join(map(str, e)) + "\n" for e in edges).encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--communities", type=int, required=True)
    ap.add_argument("--kmin", type=int, required=True)
    ap.add_argument("--kmax", type=int, required=True)
    ap.add_argument("--p-in", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    edges = planted_edges(a.n, a.m, a.communities, a.kmin, a.kmax, a.p_in, a.seed)
    print(write_dataset(edges, a.out))


if __name__ == "__main__":
    main()
