"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 6 and 7 evaluate against public benchmark datasets that must be
supplied by the user (see README, "Benchmark datasets"); the tests skip
with instructions when the files are absent.
"""

import math
import os
import time

import numpy as np
import pytest

from hyperwalk import bench
from hyperwalk.cli import main as cli_main
from hyperwalk.divergence import js, js_generalized
from hyperwalk.experiment import (
    SamplingSpec,
    SplitSpec,
    auroc,
    f1_at_cutoff,
    run_experiment,
    select_top,
)
from hyperwalk.hypergraph import largest_component, load, stats
from hyperwalk.localwalk import walk_matrix_rows
from hyperwalk.projection import transition, weighted_projection
from hyperwalk.scoring import LRW, LRW_GJS, LRW_JS, MethodSpec, score_candidates
from hyperwalk.synthetic import random_hypergraph

from conftest import (
    DATA_DIR,
    auroc_pairs_oracle,
    dense_walk_oracle,
    f1_set_oracle,
    report,
)


def test_criterion_1_toy_exactness(t1):
    t0 = time.perf_counter()
    p = transition(t1)
    w = weighted_projection(t1).toarray()
    assert abs(p[0, 2] - 0.5) <= 1e-12
    assert abs(p[2, 0] - 0.25) <= 1e-12
    assert abs(p[2, 3] - 0.5) <= 1e-12
    assert abs(p[3, 2] - 1.0) <= 1e-12
    for (i, j), val in {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0}.items():
        assert abs(w[i, j] - val) <= 1e-12
        assert abs(w[j, i] - val) <= 1e-12
    row = walk_matrix_rows(p, [0], 2)[0].toarray().ravel()
    expected = np.array([3 / 16, 5 / 16, 3 / 8, 1 / 8])
    assert np.abs(row - expected).max() <= 1e-12
    oracle = dense_walk_oracle(p.toarray(), 2)[0]
    assert np.abs(row - oracle).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"toy P/W/S match the dense oracle to 1e-12 in {elapsed * 1e3:.1f} ms")


def test_criterion_2_stochasticity_and_degree_preservation():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(5, 51))
        m = int(rng.integers(4, 70))
        g = random_hypergraph(n, m, rng, connected=True)
        if g.m < 2:
            continue
        checked += 1
        w = weighted_projection(g)
        p = transition(g)
        assert np.abs(np.asarray(w.sum(axis=1)).ravel() - g.degrees).max() <= 1e-10
        assert np.abs(np.asarray(p.sum(axis=1)).ravel() - 1.0).max() <= 1e-10
        rows = walk_matrix_rows(p, range(g.n), 3)
        for s in range(g.n):
            assert abs(rows[s].data.sum() - 1.0) <= 1e-10
    report(2, "200 random hypergraphs: P and S rows stochastic, W row sums = degrees")


def _random_distribution(rng, universe: int = 40):
    support = rng.choice(universe, size=int(rng.integers(1, 12)), replace=False)
    vals = rng.random(len(support)) + 1e-3
    dense = np.zeros(universe)
    dense[np.sort(support)] = vals / vals.sum()
    return dense


def test_criterion_3_divergence_bounds():
    rng = np.random.default_rng(7)
    worst_low, worst_high, worst_t2 = 0.0, 0.0, 0.0
    for _ in range(10_000):
        p = _random_distribution(rng)
        q = _random_distribution(rng)
        val = js(p, q)
        worst_low = min(worst_low, val)
        worst_high = max(worst_high, val - 1.0)
        worst_t2 = max(worst_t2, abs(js_generalized([p, q]) - val))
    assert worst_low >= -1e-12
    assert worst_high <= 1e-12
    assert worst_t2 <= 1e-12
    rng = np.random.default_rng(8)
    for _ in range(2_000):
        t = int(rng.integers(2, 6))
        dists = [_random_distribution(rng) for _ in range(t)]
        val = js_generalized(dists)
        assert -1e-12 <= val <= math.log2(t) + 1e-12
    report(3, "10^4 pairs within [0,1]; generalized within [0, log2 t]; t=2 reduction <= 1e-12")


def test_criterion_4_reduction_identity():
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 1000:
        g = random_hypergraph(20, 35, rng, connected=True)
        if g.n < 4:
            continue
        take = min(100, 1000 - checked)
        pairs = set()
        while len(pairs) < take:
            i, j = rng.choice(g.n, size=2, replace=False)
            pairs.add((min(i, j), max(i, j)))
        pairs = sorted(pairs)
        js_scores = score_candidates(MethodSpec(LRW_JS, k=3), g, pairs)
        gjs_scores = score_candidates(MethodSpec(LRW_GJS, k=3), g, pairs)
        for a, b in zip(js_scores, gjs_scores):
            worst = max(worst, abs(a.score - b.score))
        checked += len(pairs)
    assert worst <= 1e-12
    report(4, f"10^3 size-2 candidates: |LRW-JS - LRW-GJS| <= {worst:.2e}")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(55)
    done = 0
    while done < 100:
        n = int(rng.integers(4, 101))
        scores = rng.choice([0.1, 0.2, 0.4, 0.6, 0.8], size=n)
        labels = rng.integers(0, 2, size=n)
        n_pos = int(labels.sum())
        if n_pos in (0, n):
            continue
        done += 1
        edges = [(int(i), int(i) + 1) for i in range(n)]
        assert auroc(scores, labels) == auroc_pairs_oracle(scores.tolist(), labels.tolist())
        cutoff = int(rng.integers(1, n + 1))
        assert f1_at_cutoff(edges, scores, labels, cutoff) == f1_set_oracle(
            edges, scores.tolist(), labels.tolist(), cutoff
        )
        f1 = f1_at_cutoff(edges, scores, labels, n_pos)
        top = select_top(edges, scores, n_pos)
        tp = int(labels[top].sum())
        assert f1 == tp / n_pos  # precision = recall = F1 exactly
    report(5, "AUROC and F1 match pair/set enumeration exactly on 100 random vectors")


def _load_benchmark(filename: str, n: int, m: int, min_cardinality: int = 2):
    path = DATA_DIR / filename
    if not path.exists():
        pytest.skip(
            f"benchmark dataset {path} not present; place the hyperedge list "
            f"there (see README, 'Benchmark datasets') to run this criterion"
        )
    g = largest_component(load(path, min_cardinality=min_cardinality))
    s = stats(g)
    if (s.n, s.m) != (n, m):
        pytest.skip(
            f"{filename}: expected {n} vertices / {m} hyperedges after "
            f"preprocessing, found {s.n}/{s.m}; wrong dataset version"
        )
    return g


def _threads() -> int:
    return os.cpu_count() or 1


def test_criterion_6_benchmark_reproduction():
    chs = _load_benchmark("contact-high-school.txt", 317, 2320, min_cardinality=3)
    res = run_experiment(
        chs, SplitSpec(0.8, 10, seed=0), SamplingSpec(0.2, 3), [LRW_JS], threads=_threads()
    )
    chs_auroc = res.mean_auroc(LRW_JS)
    assert abs(chs_auroc - 0.9934) <= 0.01

    enron = _load_benchmark("enron-email.txt", 143, 1457)
    res = run_experiment(
        enron, SplitSpec(0.8, 10, seed=0), SamplingSpec(0.8, 3), [LRW_JS], threads=_threads()
    )
    enron_auroc = res.mean_auroc(LRW_JS)
    assert abs(enron_auroc - 0.8733) <= 0.03

    cora = _load_benchmark("cora-coreference.txt", 1961, 861)
    res = run_experiment(
        cora, SplitSpec(0.8, 10, seed=0), SamplingSpec(0.8, 3), [LRW, LRW_JS], threads=_threads()
    )
    assert res.mean_auroc(LRW_JS) >= res.mean_auroc(LRW)
    report(
        6,
        f"contact-high-school AUROC {chs_auroc:.4f} (target 0.9934±0.01); "
        f"enron {enron_auroc:.4f} (0.8733±0.03); cora ordering holds",
    )


def test_criterion_7_appendix_lambda_10():
    enron = _load_benchmark("enron-email.txt", 143, 1457)
    res = run_experiment(
        enron, SplitSpec(0.8, 10, seed=0), SamplingSpec(0.2, 10), [LRW_JS], threads=_threads()
    )
    val = res.mean_auroc(LRW_JS)
    assert abs(val - 0.9319) <= 0.02
    report(7, f"enron lambda=10 AUROC {val:.4f} (target 0.9319±0.02)")


def test_criterion_8_complexity_trend():
    attempts = []
    for seed in (0, 1):
        s2 = bench.row_cost_slope(
            bench.walk_cost_curve(n=32768, degree_grid=[16, 32, 64], k=2, batch_rows=512, seed=seed)
        )
        s3 = bench.row_cost_slope(
            bench.walk_cost_curve(n=65536, degree_grid=[8, 16, 24], k=3, batch_rows=256, seed=seed)
        )
        attempts.append((s2, s3))
        if abs(s2 - 2) <= 0.5 and abs(s3 - 3) <= 0.5:
            break
    s2, s3 = attempts[-1]
    assert abs(s2 - 2) <= 0.5, f"K=2 slope {s2:.2f} (attempts: {attempts})"
    assert abs(s3 - 3) <= 0.5, f"K=3 slope {s3:.2f} (attempts: {attempts})"
    runtimes = bench.method_runtimes()
    assert runtimes[LRW] < runtimes[LRW_GJS]
    report(
        8,
        f"row-cost slopes {s2:.2f} (K=2), {s3:.2f} (K=3); "
        f"LRW {runtimes[LRW]:.2f}s < LRW-GJS {runtimes[LRW_GJS]:.2f}s",
    )


def test_criterion_9_byte_determinism(tmp_path):
    data = tmp_path / "toy.txt"
    rng = np.random.default_rng(12)
    g = random_hypergraph(30, 80, rng, connected=True)
    data.write_text("\n".join(",".join(map(str, e)) for e in g.edges) + "\n")
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", os.cpu_count() or 2)):
        out = tmp_path / name
        code = cli_main(
            [
                "run", "--dataset", str(data), "--alpha", "0.5", "--trials", "3",
                "--seed", "17", "--k-grid", "2,3", "--beta-grid", "0.005,0.01",
                "--folds", "3", "--threads", str(threads), "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    ref_json = (outs[0] / "results.json").read_bytes()
    ref_csv = (outs[0] / "results.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "results.json").read_bytes() == ref_json
        assert (out / "results.csv").read_bytes() == ref_csv
    report(9, "rerun and thread-count variations produce byte-identical files")
