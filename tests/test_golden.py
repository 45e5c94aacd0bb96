"""Golden outputs: a fixed `hyperwalk run` must reproduce committed files.

`tests/data/golden/golden.txt` was written by ``hypergraph.save`` from
``synthetic.random_hypergraph(40, 120, np.random.default_rng(3), max_size=5,
connected=True)``.  `results.json` and `results.csv` next to it came from
the command in ``GOLDEN_ARGS``, run inside that directory (the dataset path
enters the config hash, so it is given relative to the directory).  Any
change to a scorer, the sampler or cross-validation that moves a single
output bit fails this test.
"""

import csv
from pathlib import Path

from hyperwalk.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN_ARGS = [
    "run", "--dataset", "golden.txt", "--methods", "hcn,hkatz,hpra,lrw,lrw-js,lrw-gjs",
    "--folds", "3", "--k-grid", "2,3,4", "--beta-grid", "0.005,0.01",
    "--trials", "2", "--seed", "0", "--threads", "1",
]


def test_golden_results_reproduce_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    assert cli_main(GOLDEN_ARGS + ["--out", str(tmp_path)]) == 0
    for name in ("results.json", "results.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_run_table_prints_the_results_csv_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_DIR)
    assert cli_main(GOLDEN_ARGS + ["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["dataset", "alpha", "method", "auroc", "f1", "param"]
    assert lines[-1].startswith("wrote ")
    with (GOLDEN_DIR / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    printed = [line.split() for line in lines[1:-1]]
    assert len(printed) == len(rows) == 18  # three alphas x six methods
    for cells, row in zip(printed, rows):
        param = row["chosen_param_mode"]
        assert cells == [
            row["dataset"],
            f"{float(row['alpha']):g}",
            row["method"],
            f"{float(row['auroc_mean']):.4f}",
            f"{float(row['f1_mean']):.4f}",
            "-" if param == "" else f"{float(param):g}",
        ]
    assert {c[5] for c in printed if c[2] in ("hcn", "hpra")} == {"-"}
