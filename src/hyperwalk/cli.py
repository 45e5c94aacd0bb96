"""Command-line front end.

Subcommands: stats (dataset summaries), run (full evaluation, JSON + CSV
output), sweep (observed-fraction grid, plot-ready CSV), bench (kernel
timing and cost-scaling report), cv (cross-validation choices only).
Every config-file key has a matching flag; flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, bench, experiment, hypergraph
from . import config as config_mod
from .config import RunConfig
from .errors import HyperwalkError, ParameterError, _check_count
from .scoring import HKATZ, WALK_KINDS, MethodSpec


def _dataset_name(path: str) -> str:
    return Path(path).stem


def _dataset_checksum(path: str) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _prepare(path: str, cfg: RunConfig) -> hypergraph.Hypergraph:
    """Load, filter, deduplicate, and restrict to the largest component."""
    g = hypergraph.load(path, cfg.label_mode, cfg.min_cardinality)
    return hypergraph.largest_component(g)


def _print_table(header: list[str], rows: list[list], specs: tuple[str, ...]) -> None:
    """Print value rows, each cell formatted by its column's format spec
    (``None`` prints as ``-``), in left-aligned columns."""
    rows = [["-" if v is None else format(v, f) for v, f in zip(r, specs)] for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def cmd_stats(cfg: RunConfig) -> int:
    rows = []
    for path in cfg.dataset:
        g = _prepare(path, cfg)
        s = hypergraph.stats(g)
        rows.append([_dataset_name(path), s.n, s.m, s.mean_degree, s.mean_cardinality])
    header = ["dataset", "vertices", "hyperedges", "mean_degree", "mean_size"]
    _print_table(header, rows, ("", "", "", ".2f", ".2f"))
    return 0


def _provenance(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "config_hash": config_mod.config_hash(cfg),
        "seed": cfg.seed,
        "datasets": {_dataset_name(p): _dataset_checksum(p) for p in cfg.dataset},
    }


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _fmt(value) -> str:
    return "" if value is None else str(value)


def _write_csv(header: list[str], rows: list[list], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in r] for r in rows)


def _specs(cfg: RunConfig, rho: float, alpha: float):
    """Split and sampling specs of one (rho, alpha) point of the config."""
    return (
        experiment.SplitSpec(rho, cfg.trials, cfg.seed),
        experiment.SamplingSpec(alpha, cfg.fakes_per_missing),
    )


def _run_experiment(
    g: hypergraph.Hypergraph, cfg: RunConfig, rho: float, alpha: float
) -> experiment.ExperimentResult:
    """All trials of one (rho, alpha) point under the config's other settings."""
    return experiment.run_experiment(
        g,
        *_specs(cfg, rho, alpha),
        list(cfg.methods),
        folds=cfg.folds,
        k_grid=cfg.k_grid,
        beta_grid=cfg.beta_grid,
        threads=cfg.threads,
    )


def cmd_run(cfg: RunConfig) -> int:
    if len(cfg.rho) != 1:
        raise ParameterError("run takes a single rho; use the sweep subcommand for grids")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    rows = []
    for path in cfg.dataset:
        g = _prepare(path, cfg)
        for alpha in cfg.alpha:
            result = _run_experiment(g, cfg, cfg.rho[0], alpha)
            run = {"dataset": _dataset_name(path), **result.to_json_dict()}
            runs.append(run)
            # an aggregate holds auroc_mean, f1_mean and chosen_param_mode, in order
            rows.extend([run["dataset"], alpha, kind, *agg.values()]
                        for kind, agg in run["aggregate"].items())
    payload = {"provenance": _provenance(cfg), "runs": runs}
    _write_json(payload, out_dir / "results.json")
    _write_csv(
        ["dataset", "alpha", "method", "auroc_mean", "f1_mean", "chosen_param_mode"],
        rows,
        out_dir / "results.csv",
    )
    header = ["dataset", "alpha", "method", "auroc", "f1", "param"]
    _print_table(header, rows, ("", "g", "", ".4f", ".4f", "g"))
    print(f"wrote {out_dir / 'results.json'} and {out_dir / 'results.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.dataset) != 1:
        raise ParameterError("sweep takes exactly one dataset")
    if len(cfg.alpha) != 1:
        raise ParameterError("sweep takes exactly one alpha")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = _prepare(cfg.dataset[0], cfg)
    rows = []
    for rho in sorted(cfg.rho):
        result = _run_experiment(g, cfg, rho, cfg.alpha[0])
        for kind in result.method_kinds:
            rows.append([rho, kind, "auroc", result.mean_auroc(kind)])
            rows.append([rho, kind, "f1", result.mean_f1(kind)])
    _write_csv(["rho", "method", "metric", "mean"], rows, out_dir / "sweep.csv")
    _print_table(["rho", "method", "metric", "mean"], rows, ("", "", "", ".4f"))
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


def cmd_cv(cfg: RunConfig) -> int:
    tunable = [k for k in cfg.methods if k in WALK_KINDS or k == HKATZ]
    if not tunable:
        raise ParameterError("cv needs at least one method with a tunable parameter")
    if len(cfg.rho) != 1:
        raise ParameterError("cv takes a single rho")
    rows = []
    for path in cfg.dataset:
        g = _prepare(path, cfg)
        for alpha in cfg.alpha:
            split_spec, sampling = _specs(cfg, cfg.rho[0], alpha)
            specs = [MethodSpec(k) for k in tunable]
            for trial in range(cfg.trials):
                with experiment.naming_trial(trial):
                    _, _, chosen = experiment.tune_trial(g, split_spec, sampling, specs, trial,
                                                         cfg.folds, cfg.k_grid, cfg.beta_grid)
                for kind in tunable:
                    rows.append([_dataset_name(path), alpha, trial, kind, chosen[kind]])
    _print_table(["dataset", "alpha", "trial", "method", "chosen"], rows, ("", "g", "", "", "g"))
    return 0


def _check_bench_flags(args) -> None:
    """Range rules of bench's own flags, which build no checked library object."""
    lowest = [
        ("seed", [args.seed], 0),
        ("bench-k", args.bench_k, 1),
        ("bench-cardinality", [args.bench_cardinality], 2),
        ("bench-vertices", [args.bench_vertices], args.bench_cardinality),
        ("bench-rows", [args.bench_rows], 3),  # divergences are timed on triples of rows
    ]
    for flag, values, low in lowest:
        for v in values:
            _check_count(flag, v, low)
    for d in args.bench_degrees:
        if not (math.isfinite(d) and d > 0):
            raise ParameterError(f"bench-degrees value {d} is not a finite number > 0")


def cmd_bench(args) -> int:
    _check_bench_flags(args)
    header = ["k", "degree", "row_seconds", "js_seconds", "gjs_seconds"]
    rows = []
    for k in args.bench_k:
        points = bench.walk_cost_curve(
            n=args.bench_vertices,
            degree_grid=args.bench_degrees,
            k=k,
            cardinality=args.bench_cardinality,
            batch_rows=args.bench_rows,
            seed=args.seed,
        )
        rows.extend([k, p.mean_degree, p.seconds_row, p.seconds_js, p.seconds_gjs] for p in points)
        degs = [p.mean_degree for p in points]
        print(
            f"K={k}: row-cost log-log slope vs degree = "
            f"{bench.row_cost_slope(points):.2f} (degree^K predicts {k}); "
            f"js slope = {bench.loglog_slope(degs, [p.seconds_js for p in points]):.2f}; "
            f"gjs slope = {bench.loglog_slope(degs, [p.seconds_gjs for p in points]):.2f}"
        )
    _print_table(header, rows, ("", ".1f", ".3e", ".3e", ".3e"))
    runtimes = bench.method_runtimes(seed=args.seed)
    for kind, secs in runtimes.items():
        print(f"total {kind}: {secs:.3f}s")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(header, rows, out_dir / "bench.csv")
        print(f"wrote {out_dir / 'bench.csv'}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per config key, stored under its field
    name as the file's text; ``--dataset`` repeats and a bool key is a switch."""
    p.add_argument("--config", help="flat key = value config file")
    for key, (name, elem, _, help_text) in config_mod._KEYS.items():
        if key == "dataset":
            p.add_argument(f"--{key}", dest=name, action="append", help=help_text)
        elif elem is bool:
            p.add_argument(f"--{key}", dest=name, action="store_const", const="true", help=help_text)
        else:
            p.add_argument(f"--{key}", dest=name, help=help_text)


def _config_from_args(args) -> RunConfig:
    """The config file, if any, with every given flag parsed as its file
    value would be; ``--dataset`` repeats and ``--label-mode`` is a switch."""
    cfg = config_mod.load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for key, (name, _, _, _) in config_mod._KEYS.items():
        given = getattr(args, name)
        if given is not None:
            # repeated --dataset flags read as one comma list
            text = ",".join(given) if key == "dataset" else given
            overrides[name] = config_mod._parse_value(key, text)
    return replace(cfg, **overrides)


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bench-vertices", type=int, default=8192)
    p.add_argument("--bench-degrees", type=lambda s: [float(x) for x in s.split(",")],
                   default=[8.0, 16.0, 32.0])
    p.add_argument("--bench-k", type=lambda s: [int(x) for x in s.split(",")], default=[2])
    p.add_argument("--bench-cardinality", type=int, default=3)
    p.add_argument("--bench-rows", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory for bench.csv")


# subcommand -> (handler, help); bench reads its own flags, the others a RunConfig
COMMANDS = {
    "stats": (cmd_stats, "dataset summaries after preprocessing"),
    "run": (cmd_run, "full evaluation: splits, sampling, CV, scoring, metrics"),
    "sweep": (cmd_sweep, "repeat the evaluation over a grid of observed fractions"),
    "cv": (cmd_cv, "report cross-validated parameter choices per trial"),
    "bench": (cmd_bench, "kernel timings and cost-scaling slopes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Hyperlink prediction on hypergraphs: local-random-walk "
        "indices, divergence variants, classical baselines, and a "
        "negative-sampling evaluation harness.",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        (_add_bench_flags if name == "bench" else _add_config_flags)(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handler = COMMANDS[args.command][0]
    try:
        if args.command == "bench":
            return handler(args)
        cfg = _config_from_args(args)
        if cfg.threads == 0:
            cfg = replace(cfg, threads=os.cpu_count() or 1)
        return handler(cfg.validate())
    except (HyperwalkError, OSError, UnicodeDecodeError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
