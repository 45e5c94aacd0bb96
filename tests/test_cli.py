import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperwalk
from hyperwalk import bench, synthetic
from hyperwalk.cli import _config_from_args, build_parser, main
from hyperwalk.config import _KEYS, from_text
from hyperwalk.errors import ParameterError

TOY = "1,2,3\n3,4\n2,4\n1,4\n1,3\n2,3\n1,2\n1,2,4\n2,3,4\n1,3,4\n5,1\n5,2\n5,3,4\n"


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY)
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_stats_table(toy_file, capsys):
    assert run_cli("stats", "--dataset", toy_file) == 0
    out = capsys.readouterr().out
    assert "toy" in out
    assert "5" in out and "13" in out


def test_stats_t1(tmp_path, capsys):
    path = tmp_path / "t1.txt"
    path.write_text("1,2,3\n3,4\n")
    assert run_cli("stats", "--dataset", path) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[1] == "4" and row[2] == "2"


def test_stats_empty_after_filter(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("7\n# only a comment\n")
    assert run_cli("stats", "--dataset", path) == 1
    assert "EmptyHypergraph" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1,2\n1,oops\n")
    assert run_cli("stats", "--dataset", path) == 1
    assert "line 2" in capsys.readouterr().err


def test_label_mode_flag(tmp_path, capsys):
    path = tmp_path / "names.txt"
    path.write_text("ada,grace\ngrace,edsger\n")
    assert run_cli("stats", "--dataset", path, "--label-mode") == 0
    assert run_cli("stats", "--dataset", path) == 1  # integer mode rejects names


def test_min_cardinality_flag(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("1,2\n1,2,3\n2,3,4\n")
    assert run_cli("stats", "--dataset", path, "--min-cardinality", "3") == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[2] == "2"


def test_run_outputs_and_determinism(toy_file, tmp_path, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    common = ("run", "--dataset", toy_file, "--alpha", "0.5", "--trials", "2",
              "--seed", "3", "--k-grid", "2,3", "--beta-grid", "0.005,0.01", "--folds", "3")
    assert run_cli(*common, "--threads", "1", "--out", out1) == 0
    assert run_cli(*common, "--threads", "2", "--out", out2) == 0
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    payload = json.loads((out1 / "results.json").read_text())
    assert set(payload) == {"provenance", "runs"}
    assert payload["provenance"]["datasets"]["toy"].startswith("sha256:")
    run = payload["runs"][0]
    assert run["dataset"] == "toy"
    assert len(run["trials"]) == 2

    with (out1 / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"hcn", "hkatz", "hpra", "lrw", "lrw-js", "lrw-gjs"}
    assert all(0.0 <= float(r["auroc_mean"]) <= 1.0 for r in rows)


def test_run_rejects_rho_grid(toy_file, tmp_path, capsys):
    assert run_cli("run", "--dataset", toy_file, "--rho", "0.5,0.8",
                   "--out", tmp_path / "x") == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_long_format(toy_file, tmp_path, capsys):
    out = tmp_path / "sw"
    assert run_cli(
        "sweep", "--dataset", toy_file, "--alpha", "0.5", "--rho", "0.6,0.8",
        "--trials", "1", "--seed", "2", "--methods", "lrw,hcn",
        "--k-grid", "2", "--threads", "1", "--out", out,
    ) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # rho grid x methods x metrics
    assert {r["metric"] for r in rows} == {"auroc", "f1"}
    assert [r["rho"] for r in rows] == sorted(r["rho"] for r in rows)


def test_sweep_prints_the_sweep_csv_values(toy_file, tmp_path, capsys):
    out = tmp_path / "sw"
    assert run_cli(
        "sweep", "--dataset", toy_file, "--alpha", "0.5", "--rho", "0.8,0.6",
        "--trials", "1", "--seed", "2", "--methods", "lrw,hcn",
        "--k-grid", "2", "--threads", "1", "--out", out,
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["rho", "method", "metric", "mean"]
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    printed = [line.split() for line in lines[1:-1]]
    assert printed == [
        [r["rho"], r["method"], r["metric"], f"{float(r['mean']):.4f}"] for r in rows
    ]


def test_bench_writes_one_csv_row_per_k_and_degree(tmp_path, capsys, monkeypatch):
    out = tmp_path / "bench"
    grids, curve = [], bench.walk_cost_curve
    monkeypatch.setattr(bench, "walk_cost_curve",
                        lambda **kw: grids.append(kw["degree_grid"]) or curve(**kw))
    # an empty list item is skipped, as in a config list
    assert run_cli(
        "bench", "--bench-vertices", "512", "--bench-degrees", "4,,8", "--bench-k", "2",
        "--bench-rows", "32", "--out", out,
    ) == 0
    assert grids == [(4.0, 8.0)]
    printed = capsys.readouterr().out
    with (out / "bench.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["k", "degree", "row_seconds", "js_seconds", "gjs_seconds"]
    assert [r[0] for r in rows] == ["2", "2"]
    assert all(float(c) > 0 for r in rows for c in r[1:])
    lines = printed.splitlines()
    start = lines.index(next(line for line in lines if line.split() == header)) + 1
    assert [line.split() for line in lines[start:start + len(rows)]] == [
        [r[0], f"{float(r[1]):.1f}", *(f"{float(c):.3e}" for c in r[2:])] for r in rows
    ]
    assert f"wrote {out / 'bench.csv'}" in printed


def test_sweep_requires_single_alpha(toy_file, tmp_path):
    assert run_cli("sweep", "--dataset", toy_file, "--alpha", "0.2,0.5",
                   "--rho", "0.8", "--out", tmp_path / "x") == 1


def test_cv_reports_choices(toy_file, capsys):
    assert run_cli(
        "cv", "--dataset", toy_file, "--alpha", "0.5", "--trials", "2",
        "--seed", "1", "--methods", "lrw-js", "--k-grid", "2,3",
        "--folds", "3", "--threads", "1",
    ) == 0
    out = capsys.readouterr().out
    assert "lrw-js" in out
    assert out.count("\n") >= 3  # header + one row per trial


def test_cv_reports_the_choices_run_makes(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden" / "golden.txt"
    common = (
        "--dataset", golden, "--alpha", "0.5", "--methods", "lrw,lrw-js,lrw-gjs,hkatz",
        "--trials", "2", "--folds", "3", "--k-grid", "2,3,4", "--beta-grid", "0.005,0.01",
        "--seed", "0", "--threads", "1",
    )
    assert run_cli("cv", *common) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["dataset", "alpha", "trial", "method", "chosen"]
    assert run_cli("run", *common, "--out", tmp_path) == 0
    (run,) = json.loads((tmp_path / "results.json").read_text())["runs"]
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 2 * 4
    for _, _, trial, kind, chosen in rows:
        assert float(chosen) == run["trials"][int(trial)]["methods"][kind]["param"]


@pytest.mark.parametrize("command", ["run", "cv"])
def test_trial_errors_name_their_trial(command, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden" / "golden.txt"
    out = ["--out", tmp_path / "res"] if command == "run" else []
    assert run_cli(
        command, "--dataset", golden, "--alpha", "0.5", "--trials", "1", "--methods", "hkatz",
        "--beta-grid", "0.5,1.0", "--threads", "1", *out,
    ) == 1
    err = capsys.readouterr().err
    assert "KatzDivergenceError: trial 0: no damping factor" in err
    assert err.count("trial 0: ") == 1


def test_config_file_with_flag_override(toy_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {toy_file}\nalpha = 0.5\ntrials = 1\nseed = 11\n"
        "methods = hcn\nrho = 0.8\nthreads = 1\n"
    )
    out = tmp_path / "res"
    assert run_cli("run", "--config", cfg, "--seed", "12", "--out", out) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["provenance"]["seed"] == 12  # flag beat the file
    assert payload["runs"][0]["config"]["methods"] == ["hcn"]


def test_missing_dataset_file(tmp_path, capsys):
    assert run_cli("stats", "--dataset", tmp_path / "nope.txt") == 1
    assert "FileNotFound" in capsys.readouterr().err


def test_unreadable_files_are_reported_not_raised(tmp_path, capsys):
    assert run_cli("stats", "--dataset", tmp_path) == 1
    assert "error: IsADirectoryError: " in capsys.readouterr().err
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"caf\xe9,1\n")
    assert run_cli("stats", "--dataset", latin, "--label-mode") == 1
    assert "error: UnicodeDecodeError: " in capsys.readouterr().err
    assert run_cli("stats", "--config", latin) == 1
    assert "error: UnicodeDecodeError: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "-1"],
        ["run", "--alpha", ""],
        ["run", "--methods", ""],
        ["cv", "--methods", "lrw,lrw"],
        ["run", "--alpha", "0.5,0.5"],
        ["sweep", "--alpha", "0.5", "--rho", "0.8,0.8"],
    ],
)
def test_bad_settings_exit_1_before_running(argv, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden" / "golden.txt"
    out = ["--out", tmp_path / "res"] if argv[0] in ("run", "sweep") else []
    assert run_cli(*argv, "--dataset", golden, "--trials", "1", "--threads", "1", *out) == 1
    captured = capsys.readouterr()
    assert "error: ParameterError: " in captured.err
    assert captured.out == "" and not (tmp_path / "res").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cv", "--methods", "hcn,hpra"], "cv needs at least one method with a tunable parameter"),
        (["cv", "--rho", "0.6,0.8"], "cv takes a single rho"),
        (["sweep", "--dataset", "other.txt"], "sweep takes exactly one dataset"),
    ],
)
def test_subcommand_shape_errors_name_the_rule(argv, message, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden" / "golden.txt"
    assert run_cli(*argv, "--dataset", golden, "--alpha", "0.5", "--out", tmp_path / "res") == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ParameterError: {message}\n"
    assert captured.out == "" and not (tmp_path / "res").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "-1"],
        ["--bench-k", "2,0"],
        ["--bench-rows", "2"],
        ["--bench-cardinality", "1"],
        ["--bench-vertices", "3", "--bench-cardinality", "4"],
        ["--bench-degrees", "4,-8"],
        ["--bench-degrees", "nan"],
        ["--bench-vertices", "4", "--bench-cardinality", "2", "--bench-degrees", "0.1"],
        ["--seed", "x"],
        ["--bench-degrees", "4,x"],
        ["--bench-k", "2,y"],
    ],
)
def test_bad_bench_flags_exit_1_before_running(flags, tmp_path, capsys):
    small = ["--bench-vertices", "64", "--bench-degrees", "4", "--bench-rows", "8"]
    assert run_cli("bench", *small, *flags, "--out", tmp_path / "b") == 1
    captured = capsys.readouterr()
    assert "error: ParameterError: " in captured.err
    assert captured.out == "" and not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bench.walk_cost_curve(n=64, degree_grid=[4], k=2, seed=-1),
        lambda: bench.walk_cost_curve(n=64, degree_grid=[4, -4], k=2),
        lambda: bench.walk_cost_curve(n=64, degree_grid=[float("nan")], k=2),
        lambda: bench.walk_cost_curve(n=64, degree_grid=[4], k=2, batch_rows=2),
        lambda: bench.method_runtimes(seed=-1),
        lambda: synthetic.regular_cardinality_hypergraph(10, 1, 4.0, np.random.default_rng(0)),
        lambda: synthetic.regular_cardinality_hypergraph(10, 3, 0.0, np.random.default_rng(0)),
    ],
    ids=["seed", "negative-degree", "nan-degree", "rows", "runtimes-seed",
         "cardinality", "zero-degree"],
)
def test_bench_range_rules_live_in_the_library(call):
    with pytest.raises(ParameterError):
        call()


def test_too_few_vertices_for_the_cardinality_raise_rather_than_loop():
    # 3 distinct vertices cannot be drawn out of 2: run in a child process,
    # so a missing rule fails on the timeout instead of hanging the suite
    code = (
        "from hyperwalk import bench\n"
        "from hyperwalk.errors import ParameterError\n"
        "try:\n"
        "    bench.walk_cost_curve(n=2, degree_grid=[4], k=2, cardinality=3)\n"
        "except ParameterError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(hyperwalk.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=20, check=True)
    assert done.stdout == "n=2 is not an integer >= 3\n"


def test_importing_the_library_and_cli_leaves_scipy_stats_out():
    # scipy.stats adds about 38 MB of RSS and half a second to start-up;
    # only the tests use it, as an oracle
    code = ("import sys, hyperwalk, hyperwalk.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    src = Path(hyperwalk.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# one value per config key, as the file writes it
KEY_VALUES = {
    "dataset": "a.txt", "methods": "lrw,hcn", "alpha": "0.3,0.6", "lambda": "4",
    "rho": "0.7", "trials": "2", "seed": "5", "k-grid": "2,3", "beta-grid": "0.01",
    "folds": "3", "out": "o", "threads": "2", "min-cardinality": "3", "label-mode": "true",
}


@pytest.mark.parametrize("key", sorted(_KEYS))
@pytest.mark.parametrize("command", ["stats", "run", "sweep", "cv"])
def test_every_key_has_a_flag_that_parses_as_the_file(command, key):
    name, elem, _, _ = _KEYS[key]
    text = KEY_VALUES[key]
    flag = [f"--{key}"] if elem is bool else [f"--{key}", text]
    args = build_parser().parse_args([command, *flag])
    given = {k: v for k, v in vars(args).items() if v is not None}
    assert given.keys() == {"command", "verbose", name}
    assert _config_from_args(args) == from_text(f"{key} = {text}\n")


def test_results_json_matches_shipped_schema(toy_file, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")

    out = tmp_path / "res"
    assert run_cli(
        "run", "--dataset", toy_file, "--alpha", "0.5", "--trials", "1",
        "--seed", "1", "--k-grid", "2", "--beta-grid", "0.005", "--threads", "1",
        "--out", out,
    ) == 0
    schema_path = Path(__file__).parent.parent / "docs" / "results.schema.json"
    schema = json.loads(schema_path.read_text())
    payload = json.loads((out / "results.json").read_text())
    jsonschema.validate(payload, schema)


@pytest.mark.parametrize("key, value", [("k-grid", "2,,3"), ("alpha", "0.5,x"), ("lambda", "x")])
def test_flags_parse_like_the_config_file(key, value, toy_file, tmp_path, capsys):
    common = ("run", "--dataset", toy_file, "--methods", "lrw,hcn", "--trials", "1",
              "--folds", "3", "--threads", "1")
    conf = tmp_path / "flag.conf"
    conf.write_text(f"{key} = {value}\n")
    by_flag = run_cli(*common, f"--{key}", value, "--out", tmp_path / "flag")
    flag_err = capsys.readouterr().err
    by_file = run_cli(*common, "--config", conf, "--out", tmp_path / "file")
    file_err = capsys.readouterr().err
    assert by_flag == by_file
    if by_flag:
        assert by_flag == 1
        assert "error: ParameterError" in flag_err and "error: ParameterError" in file_err
    else:
        for name in ("results.json", "results.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


@pytest.mark.parametrize(
    "flag, first, second",
    [("--bench-vertices", "64", "128"), ("--seed", "1", "2"), ("--bench-k", "2", "3"),
     ("--out", "a", "b")],
)
def test_repeated_bench_flags_raise_naming_the_flag(flag, first, second, tmp_path, capsys):
    small = {"--bench-vertices": "64", "--bench-degrees": "4", "--bench-rows": "8"}
    argv = [a for f, v in small.items() if f != flag for a in (f, v)]
    if flag == "--out":
        first, second = tmp_path / first, tmp_path / second
    assert run_cli("bench", *argv, flag, first, flag, second) == 1
    captured = capsys.readouterr()
    assert f"error: ParameterError: flag {flag} is given 2 times" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_repeated_dataset_flags_read_as_one_list(toy_file, tmp_path, capsys):
    t1 = tmp_path / "t1.txt"
    t1.write_text("1,2,3\n3,4\n")
    assert run_cli("stats", "--dataset", toy_file, "--dataset", t1) == 0
    repeated = capsys.readouterr().out
    assert [line.split()[0] for line in repeated.splitlines()[1:]] == ["toy", "t1"]
    assert run_cli("stats", "--dataset", f"{toy_file},{t1}") == 0
    assert capsys.readouterr().out == repeated


@pytest.mark.parametrize(
    "flags",
    [
        ["--trials", "3", "--trials", "5"],
        ["--k-grid", "2", "--k-grid", "3,4"],
        ["--label-mode", "--label-mode"],
        ["--config", "{conf}", "--config", "{conf}"],
    ],
)
def test_repeated_flags_raise_naming_the_flag(flags, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("trials = 1\n")
    golden = Path(__file__).parent / "data" / "golden" / "golden.txt"
    argv = [f.format(conf=conf) for f in flags]
    assert run_cli("run", "--dataset", golden, *argv, "--out", tmp_path / "res") == 1
    captured = capsys.readouterr()
    assert f"error: ParameterError: flag {flags[0]} is given 2 times" in captured.err
    assert captured.out == "" and not (tmp_path / "res").exists()
