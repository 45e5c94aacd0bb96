"""Fixed-workload benchmark of the hyperwalk evaluation harness.

Each workload is a planted-partition hypergraph written by gen.py from
the seed.  The library only sees that file: it is loaded and cut to its
largest component (set-up), then run through ``run_experiment`` with one
worker (run), cycling through SPLITS split seeds.  Every run's outputs
are checked: at seed 0 against the committed reference in reference/, at
any seed against an AUROC floor and for identical outputs across
repeated, traced and untraced runs of one split.

    python3 perfbench/run.py --workload walk-cv --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics (set-up and run time medians, peak RSS); with
``--trace 1`` it holds the per-layer metrics of spans.py, and the spans of
the first traced run go to out/.  The command exits non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 0
TOLERANCE = 1e-12  # drift bound on AUROC and F1 against the reference
AUROC_FLOOR = 0.65  # planted structure scores ~0.8; reversed ranking ~0.2
BLAS_THREADS = "1"  # one worker and one BLAS thread: a single-core run

# Every workload: rho=0.8, alpha=0.5, lambda=3, 5 folds, one trial, one worker.
SPLIT = dict(observed_fraction=0.8, trials=1)
SAMPLING = dict(alpha=0.5, fakes_per_missing=3)
FOLDS = 5
WORKLOADS = {
    # Small dense graph whose walk rows saturate (support ~ n): the three
    # walk methods with the default K grid, so cross-validation's per-pair
    # divergences and pair scoring dominate.
    "walk-cv": dict(
        methods=["lrw", "lrw-js", "lrw-gjs"],
        full=dict(n=60, m=240, communities=4, kmin=2, kmax=5, p_in=0.8),
        tiny=dict(n=30, m=80, communities=3, kmin=2, kmax=5, p_in=0.8),
    ),
    # Mid-size graph, hkatz with the default beta grid: closed-form Katz
    # cross-validation (one sparse LU solve per fold and beta) dominates;
    # no walk or divergence code runs.
    "katz-cv": dict(
        methods=["hkatz"],
        full=dict(n=500, m=2000, communities=10, kmin=2, kmax=5, p_in=0.8),
        tiny=dict(n=80, m=250, communities=4, kmin=2, kmax=5, p_in=0.8),
    ),
    # Large sparse graph scored once per method, lrw with its K fixed at 3
    # (the outputs of a one-value K grid), so cross-validation never runs:
    # set-up, split and negative sampling, the projections and the dense
    # resource-allocation table carry the time and the peak memory.
    "score-wide": dict(
        methods=["hcn", "hpra", ("lrw", 3)],
        full=dict(n=6000, m=12000, communities=120, kmin=2, kmax=4, p_in=0.8),
        tiny=dict(n=200, m=400, communities=10, kmin=2, kmax=4, p_in=0.8),
    ),
}
SETUP_SLICE_S = 0.1
MIN_RUNS = 3
# Successive runs cycle through this many split seeds, so a run's median
# averages over splits as well as over machine noise: which hyperedges
# go missing changes the work of one run by ~10%.
SPLITS = 8


class LibraryMissing(Exception):
    """The checkout holds no importable hyperwalk source tree."""


def load_library():
    """Import hyperwalk from this checkout's src/, never from elsewhere."""
    os.environ.update({v: BLAS_THREADS for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
    src = ROOT / "src"
    if not (src / "hyperwalk" / "__init__.py").is_file():
        raise LibraryMissing(f"no hyperwalk package under {src}")
    sys.path.insert(0, str(src))
    import hyperwalk
    from hyperwalk import experiment, hypergraph

    if src.resolve() not in Path(hyperwalk.__file__).resolve().parents:
        raise LibraryMissing(f"hyperwalk imported from {hyperwalk.__file__}, not {src}")
    return hypergraph, experiment


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
    }


def generate(workload: str, size: str, seed: int) -> tuple[Path, dict, str]:
    """Write the workload's dataset with gen.py in a child process."""
    params = dict(WORKLOADS[workload][size], seed=seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-{size}-seed{seed}.txt"
    cmd = [sys.executable, str(BENCH / "gen.py"), "--out", str(path)]
    for key, value in params.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return path, params, hashlib.sha256(path.read_bytes()).hexdigest()


def split_seed(seed: int, r: int) -> int:
    """Split seed of the r-th run of a workload seed (r < SPLITS)."""
    return seed * 1000 + r


def outputs(result) -> list[dict]:
    """Per-trial counts, chosen parameters, AUROC and F1, as in results.json."""
    return result.to_json_dict()["trials"]


class Check:
    """Compares run outputs per (trial, method) with a reference per split.

    With a committed reference every split must match it; otherwise the
    first outputs seen for a split become its reference, so repeated,
    traced and untraced runs of one split must agree.
    """

    def __init__(self, reference: dict[int, list] | None):
        self.pinned = reference is not None
        self.reference = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.drift = 0.0
        self.problems: list[str] = []

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def observe(self, r: int, trials: list[dict], label: str) -> None:
        if r not in self.reference and not self.pinned:
            self.reference[r] = trials
        expected = self.reference.get(r, [])
        n = sum(len(t["methods"]) for t in expected or trials)
        self.attempted += n
        if len(trials) != len(expected):
            self.fail(n, f"{label}: {len(trials)} trials, reference has {len(expected)}")
            return
        for got, ref in zip(trials, expected):
            t = got["trial"]
            counts = [k for k in ("trial", "observed", "missing", "negatives", "collisions")
                      if got[k] != ref[k]]
            if set(got["methods"]) != set(ref["methods"]):
                counts.append("methods")
            for kind, want in ref["methods"].items():
                have = got["methods"].get(kind)
                if have is None:
                    self.fail(1, f"{label} trial {t} {kind}: no outcome")
                    continue
                diff = max(abs(have["auroc"] - want["auroc"]), abs(have["f1"] - want["f1"]))
                self.drift = max(self.drift, diff)
                bad = list(counts)
                if have["param"] != want["param"]:
                    bad.append(f"param {have['param']} != {want['param']}")
                if not diff <= TOLERANCE:
                    bad.append(f"AUROC/F1 drift {diff:.3g}")
                if not have["auroc"] >= AUROC_FLOOR:
                    bad.append(f"AUROC {have['auroc']:.4f} below floor {AUROC_FLOOR}")
                if bad:
                    self.fail(1, f"{label} trial {t} {kind}: " + "; ".join(bad))

    def crashed(self, label: str, n: int) -> None:
        self.attempted += n
        self.fail(n, f"{label}: {traceback.format_exc(limit=3).strip()}")


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE / f"{workload}{'' if size == 'full' else '-' + size}.json"


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def experiment_run(experiment, g, w: dict, split_seed: int):
    """The workload's run_experiment call: one worker, default grids.

    Called through the module attribute, so the tracer's wrapper runs."""
    methods = [experiment.MethodSpec(m[0], k=m[1]) if isinstance(m, tuple) else m
               for m in w["methods"]]
    return experiment.run_experiment(
        g, experiment.SplitSpec(seed=split_seed, **SPLIT),
        experiment.SamplingSpec(**SAMPLING), methods, folds=FOLDS, threads=1)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str = "full", library=None) -> dict:
    """Generate, set up, run and check one workload; return the full record."""
    hypergraph, experiment = library or load_library()
    from spans import LAYER_METRICS, Tracer, combine, layer_metrics

    w = WORKLOADS[workload]
    path, params, sha = generate(workload, size, seed)
    ref_file = reference_path(workload, size)
    reference = None
    if seed == REFERENCE_SEED and ref_file.is_file():
        ref = json.loads(ref_file.read_text())
        reference = {int(r): trials for r, trials in ref["splits"].items()}
    check = Check(reference)
    if reference is not None and ref["sha256"] != sha:
        check.fail(0, f"{path.name} differs from the reference input {ref['sha256']}")

    def setup():
        return hypergraph.largest_component(hypergraph.load(path))

    setup_s: list[float] = []

    def timed_setups():
        # A slice of set-ups before every run spreads them over the whole
        # run, so their median sees the same machine as run_s does.
        end = time.perf_counter() + SETUP_SLICE_S
        while True:
            t0 = time.perf_counter()
            graph = setup()
            setup_s.append(time.perf_counter() - t0)
            if t0 >= end:
                return graph

    n_ops = len(w["methods"])

    def run(r: int, label: str) -> float | None:
        t0 = time.perf_counter()
        try:
            result = experiment_run(experiment, g, w, split_seed(seed, r))
        except Exception:
            check.crashed(f"{label} (split {r})", n_ops)
            return None
        took = time.perf_counter() - t0
        check.observe(r, outputs(result), f"{label} (split {r})")
        return took

    record = {"workload": workload, "size": size, "seed": seed, "traced": traced,
              "generator": params, "dataset": path.name, "sha256": sha,
              "reference": ref_file.name if reference is not None else None}
    untraced: list[float] = []
    start = time.perf_counter()

    def more(n: int) -> bool:
        return n < MIN_RUNS or time.perf_counter() - start < seconds

    if not traced:
        g = timed_setups()
        run(0, "warm-up")
        start = time.perf_counter()
        while more(len(untraced)):
            timed_setups()
            took = run(len(untraced) % SPLITS, "run")
            if took is None:
                break
            untraced.append(took)
        record["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            **({"run_s": (statistics.median(untraced), "s")} if untraced else {}),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = Tracer()
        with tracer:
            g = setup()
            setup_layers = layer_metrics(tracer.take(), tracer.installed)
            # The first run is cold: only it can raise the RSS high-water
            # mark, and its spans are the ones written out.
            run(0, "traced cold run")
            cold_spans = tracer.take()
        cold = layer_metrics(cold_spans, tracer.installed)
        traced_s, warm = [], []
        start = time.perf_counter()
        while more(len(traced_s) + 1):
            r = len(traced_s) % SPLITS
            took = run(r, "untraced run")
            with tracer:
                took_traced = run(r, "traced run")
                spans = tracer.take()
            if took is None or took_traced is None:
                break
            untraced.append(took)
            traced_s.append(took_traced)
            warm.append(layer_metrics(spans, tracer.installed))
        layers = combine(setup_layers, cold, warm) if warm else {}
        if warm:
            layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
        record["metrics"] = {k: (v, LAYER_METRICS[k][0] if k in LAYER_METRICS else "s")
                             for k, v in layers.items()}
        record["absent"] = sorted(set(LAYER_METRICS) - set(layers))
        record["unwrapped"] = tracer.missing
        trace_file = OUT / f"trace-{workload}-{size}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "split_seed": split_seed(seed, 0),
            "run": "traced cold run",
            "fields": ["name", "start", "end", "parent", "rss_growth_kb", "info", "error"],
            "spans": cold_spans}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    record["setup_samples"] = setup_s
    record["run_samples"] = untraced
    record.update(attempted=check.attempted, failed=check.failed, output_drift=check.drift,
                  problems=check.problems, correct=check.failed == 0 and check.attempted > 0)
    return record


def report(record: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"workload {record['workload']} ({record['size']}) seed {record['seed']}"
        f" trace {int(record['traced'])}",
        f"input {record['dataset']} sha256 {record['sha256']} generator "
        + json.dumps(record["generator"]),
        "environment " + json.dumps(record["environment"]),
    ]
    for name, samples in (("setup_s", record["setup_samples"]), ("run_s", record["run_samples"])):
        if samples:
            t = tail(samples)
            tail_txt = f"p{t[0]} {t[1]:.6f} s" if t else "no tail percentile (<= 10 samples)"
            lines.append(f"{name} median {statistics.median(samples):.6f} s, {tail_txt},"
                         f" {len(samples)} samples")
    for name, (value, unit) in record["metrics"].items():
        lines.append(f"{name} {value:.6g} {unit}")
    if record.get("absent"):
        lines.append("absent (wrapped name gone or its return value changed): "
                     + ", ".join(record["absent"]))
    lines.append(f"output_drift {record['output_drift']:.3g} abs (max |AUROC or F1 - reference|,"
                 f" reference {record['reference'] or 'first run of this seed'})")
    lines.append(f"failed_ops {record['failed']}/{record['attempted']} (trial, method) outcomes")
    lines.extend("problem: " + p for p in record["problems"])
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    return "\n".join(lines + [json.dumps(result)])


def write_reference(workload: str, size: str) -> Path:
    """Record this commit's outputs at the reference seed (review the diff)."""
    hypergraph, experiment = load_library()
    w = WORKLOADS[workload]
    path, params, sha = generate(workload, size, REFERENCE_SEED)
    g = hypergraph.largest_component(hypergraph.load(path))
    splits = {r: outputs(experiment_run(experiment, g, w, split_seed(REFERENCE_SEED, r)))
              for r in range(SPLITS)}
    out = reference_path(workload, size)
    REFERENCE.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "size": size, "seed": REFERENCE_SEED,
                               "generator": params, "sha256": sha,
                               "splits": splits}, indent=1) + "\n")
    return out


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the smoke test")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"record the outputs at seed {REFERENCE_SEED} as the reference")
    a = ap.parse_args(argv)
    try:
        if a.write_reference:
            print(write_reference(a.workload, a.size))
            return 0
        library = load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), a.size, library)
    record["environment"] = environment()
    OUT.mkdir(exist_ok=True)
    name = f"{a.workload}-{a.size}-seed{a.seed}-trace{a.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(report(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
