"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, passes its output check
and prints exactly the metrics BENCHMARK.json names, with their units;
that a scorer ranking candidates in reverse fails the output check; that
metrics of a deleted function are reported absent rather than crashing;
and that the benchmark refuses to run where the library's source is
absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = run_cli(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", trace, "--size", "tiny")
            label = f"{workload} --trace {trace}"
            expect(p.returncode == 0, f"{label}: exit {p.returncode}\n{p.stdout}{p.stderr}")
            lines = p.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: output check failed\n{p.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(got == want, f"{label}: metrics differ from BENCHMARK.json {key}: "
                   f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name in ("output_drift", "failed_ops"):
                expect(any(line.startswith(name + " ") for line in lines),
                       f"{label}: no {name} line")
            print(f"ok  {label}: {len(got)} metrics")


def check_reversed_scorer() -> None:
    sys.path.insert(0, str(BENCH))
    import run

    library = run.load_library()
    from hyperwalk import scoring

    original = scoring.score_candidates

    def reversed_order(*args, **kwargs):
        return [replace(s, score=-s.score) for s in original(*args, **kwargs)]

    scoring.score_candidates = reversed_order
    try:
        # Seed 0 is checked against the reference, seed 1 by the AUROC floor.
        for seed in (0, 1):
            record = run.run_workload("walk-cv", seed, 0.0, False, "tiny", library)
            expect(not record["correct"] and record["failed"] > 0,
                   f"reversed scorer passed the output check at seed {seed}")
            print(f"ok  reversed scorer caught at seed {seed}: "
                  f"{record['failed']}/{record['attempted']} outcomes failed")
    finally:
        scoring.score_candidates = original


def check_absent_metrics() -> None:
    sys.path.insert(0, str(BENCH))
    import spans

    gone = "scoring.katz_pair_table"
    installed = [name for name in spans.TARGETS if name != gone]
    broken = [["projection.transition", 0.0, 1.0, -1, 0, {"observe_error": "TypeError"}, None]]
    values = spans.layer_metrics(broken, installed)
    want_absent = {name for name, (_, needs, counted) in spans.LAYER_METRICS.items()
                   if gone in needs or (counted and "projection.transition" in needs)}
    expect(set(spans.LAYER_METRICS) - set(values) == want_absent,
           f"absent metrics {sorted(set(spans.LAYER_METRICS) - set(values))}")
    expect(values["projection.transition_s"] == 1.0, "time of a span with a broken observer lost")
    print(f"ok  {len(want_absent)} metrics absent for a deleted name and a changed return type")


def check_refuses_without_library() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = run_cli(bare, "--workload", "walk-cv", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(p.returncode != 0 and not p.stdout.strip(),
           f"ran without the library: exit {p.returncode}\n{p.stdout}")
    print(f"ok  refused without the library (exit {p.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_metrics(spec)
        check_reversed_scorer()
        check_absent_metrics()
        check_refuses_without_library()
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
