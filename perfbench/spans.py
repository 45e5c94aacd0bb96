"""Spans for the traced benchmark run, recorded from outside the library.

The tracer replaces named public attributes of the library modules with
wrappers that record one span per call: name, start, end, parent span and
the growth of the process's RSS high-water mark while the call ran.  Names
that no longer exist are skipped and the metrics that need them are
reported absent, so a later refactor that deletes a function does not
break the benchmark.  Counts are derived from the wrapped calls' inputs
and return values, never from library internals.

A layer's self time is its span's duration minus its child spans'
durations (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import importlib
import inspect
import resource
import statistics
from collections import defaultdict
from functools import wraps
from time import perf_counter

NAME, START, END, PARENT, RSS_KB, INFO, ERROR = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _pairs(edges) -> int:
    return sum(len(e) * (len(e) - 1) // 2 for e in edges)


def _walk_info(row_sets, n: int) -> dict:
    """Sources, rows and summed row support of walk rows keyed {source: row}."""
    rows = [row for rs in row_sets for row in rs.values()]
    return {"sources": len(row_sets[0]) if row_sets else 0, "rows": len(rows),
            "support": sum(len(row.indices) for row in rows), "n": n}


# Wrapped names, relative to the hyperwalk package, each with an optional
# observer that turns the bound arguments and the return value into counts.
TARGETS = {
    "hypergraph.load": None,
    "hypergraph.largest_component": lambda a, r: {"vertices": r.n, "edges": r.m},
    "hypergraph.Hypergraph.with_edges": None,
    "projection.transition": lambda a, r: {"nnz": int(r.nnz)},
    "projection.adjacency": None,
    "projection.weighted_projection": None,
    "localwalk.walk_matrix_rows": lambda a, r: _walk_info([r], a["P"].shape[0]),
    "localwalk.walk_matrix_rows_multi": lambda a, r: _walk_info(list(r.values()), a["P"].shape[0]),
    "divergence.js": None,
    "divergence.js_generalized": None,
    "scoring.score_candidates": None,
    "scoring.score_edges_from_rows": lambda a, r: {"kind": a["kind"], "pairs": _pairs(a["edges"])},
    "scoring.katz_pair_table": None,
    "scoring.spectral_radius": lambda a, r: {"rho": float(r)},
    "scoring.neighbor_sets": None,
    "scoring.hpra_pair_table": None,
    "experiment.run_experiment": None,
    "experiment.run_trial": None,
    "experiment.split": lambda a, r: {"pruned": a["g"].m - len(r[0]) - len(r[1])},
    "experiment.build_candidates": lambda a, r: {
        "candidates": len(r.edges), "collisions": r.collisions},
    "experiment.cross_validate": lambda a, r: {
        "grid": sorted(set(a["grid"])), "kinds": [m.kind for m in a["methods"]]},
    "experiment.auroc": None,
    "experiment.f1_at_cutoff": None,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _resolve(self, dotted: str):
        module, *path = dotted.split(".")
        try:
            owner = importlib.import_module(f"hyperwalk.{module}")
        except ModuleNotFoundError:
            return None, None
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, path[-1], None)):
            return None, None
        return owner, path[-1]

    def install(self) -> "Tracer":
        self.installed, self.missing = [], []
        for name, observe in TARGETS.items():
            owner, attr = self._resolve(name)
            if owner is None:
                self.missing.append(name)
                continue
            original = inspect.getattr_static(owner, attr)
            self._undo.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self._wrap(name, original, observe))
            self.installed.append(name)
        return self

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:  # was inherited: uncover the base class's attribute again
                delattr(owner, attr)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> list[list]:
        """Spans recorded since the last call; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, observe):
        signature = inspect.signature(fn) if observe else None
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_kb()
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                span[RSS_KB] = _maxrss_kb() - rss0
                stack.pop()
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span[INFO] = observe(bound, result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                    span[INFO] = {"observe_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


WALK_KINDS = ("lrw", "lrw-js", "lrw-gjs")


def _metric_table():
    """name -> (unit, wrapped names it needs, whether it reads their observed counts)."""
    t = {}

    def add(unit, needs, counted, *names):
        for n in names:
            t[n] = (unit, needs, counted)

    add("s", ("hypergraph.load",), False, "hypergraph.load_s")
    add("s", ("hypergraph.largest_component",), False, "hypergraph.largest_component_s")
    add("s", ("hypergraph.Hypergraph.with_edges",), False, "hypergraph.with_edges_s")
    add("count", ("hypergraph.Hypergraph.with_edges",), False, "hypergraph.with_edges_calls")
    add("count", ("hypergraph.largest_component",), True, "hypergraph.vertices", "hypergraph.edges")
    add("s", ("projection.transition",), False, "projection.transition_s")
    add("count", ("projection.transition",), False, "projection.transition_calls")
    add("s", ("projection.adjacency",), False, "projection.adjacency_s")
    add("count", ("projection.adjacency",), False, "projection.adjacency_calls")
    add("s", ("projection.weighted_projection",), False, "projection.weighted_projection_s")
    add("count", ("projection.transition",), True, "projection.transition_nnz")
    walk = ("localwalk.walk_matrix_rows_multi",)
    add("s", walk, False, "localwalk.walk_rows_s")
    add("MB", walk, False, "localwalk.walk_rows.rss_growth_mb")
    add("count", walk, False, "localwalk.walk_rows_calls")
    add("count", walk, True, "localwalk.sources")
    add("ratio", walk, True, "localwalk.support_fraction")
    add("s", ("divergence.js",), False, "divergence.js_s")
    add("count", ("divergence.js",), False, "divergence.js_calls")
    add("s", ("divergence.js_generalized",), False, "divergence.gjs_s")
    add("count", ("divergence.js_generalized",), False, "divergence.gjs_calls")
    add("ratio", ("divergence.js", "scoring.score_edges_from_rows"), True,
        "divergence.js_calls_per_pair")
    add("s", ("scoring.score_edges_from_rows",), True, *(f"scoring.score_edges_s.{k}"
                                                          for k in WALK_KINDS))
    add("s", ("scoring.score_candidates",), False, "scoring.score_candidates_s")
    add("s", ("scoring.katz_pair_table",), False, "scoring.katz_pair_table_s")
    add("count", ("scoring.katz_pair_table",), False, "scoring.katz_pair_table_calls")
    add("count", ("scoring.katz_pair_table", "scoring.spectral_radius",
                  "experiment.cross_validate"), True, "scoring.katz_rejected")
    add("s", ("scoring.spectral_radius",), False, "scoring.spectral_radius_s")
    add("s", ("scoring.neighbor_sets",), False, "scoring.neighbor_sets_s")
    add("s", ("scoring.hpra_pair_table",), False, "scoring.hpra_pair_table_s")
    add("MB", ("scoring.hpra_pair_table",), False, "scoring.hpra_pair_table.rss_growth_mb")
    add("s", ("experiment.split",), False, "experiment.split_s")
    add("count", ("experiment.split",), True, "experiment.pruned_missing")
    add("s", ("experiment.build_candidates",), False, "experiment.build_candidates_s")
    add("count", ("experiment.build_candidates",), True,
        "experiment.candidates", "experiment.collisions")
    add("s", ("experiment.cross_validate",), False, "experiment.cross_validate_self_s")
    add("s", ("experiment.auroc",), False, "experiment.auroc_s")
    add("count", ("experiment.auroc",), False, "experiment.auroc_calls")
    add("s", ("experiment.f1_at_cutoff",), False, "experiment.f1_s")
    add("s", ("experiment.run_trial",), False, "experiment.trial_self_s")
    return t


LAYER_METRICS = _metric_table()
# Taken from the traced set-up (load + largest component); every other
# metric comes from traced run_experiment calls.
SETUP_METRICS = ("hypergraph.load_s", "hypergraph.largest_component_s",
                 "hypergraph.vertices", "hypergraph.edges")
# A high-water mark only grows, so only a cold call can move these.
PEAK_METRICS = ("localwalk.walk_rows.rss_growth_mb", "scoring.hpra_pair_table.rss_growth_mb")


def layer_metrics(spans, installed) -> dict[str, float]:
    """Per-layer values of one traced unit of work.

    A layer that did no work reads 0.  A metric is left out when a wrapped
    name it needs does not exist, or when it reads counts whose observer
    failed on a changed return type.
    """
    own = self_times(spans)
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    info: dict[str, list] = defaultdict(list)
    broken: set[str] = set()
    for i, s in enumerate(spans):
        time_s[s[NAME]] += own[i]
        calls[s[NAME]] += 1
        if s[INFO] is None:
            continue
        if "observe_error" in s[INFO]:
            broken.add(s[NAME])
        else:
            info[s[NAME]].append((i, s[INFO]))

    def total(name, key):
        return sum(d[key] for _, d in info[name])

    # Propagation sweeps: outermost localwalk spans (the single-K wrapper
    # calls the multi-K sweep, which must not count twice).
    sweeps = [s for s in spans if s[NAME].startswith("localwalk.")
              and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("localwalk."))]
    walk = [s[INFO] for s in sweeps if s[INFO] is not None and "observe_error" not in s[INFO]]
    walk_cells = sum(d["n"] * d["rows"] for d in walk)
    score_edges = dict.fromkeys(WALK_KINDS, 0.0)
    js_pairs = 0
    for i, d in info["scoring.score_edges_from_rows"]:
        score_edges[d["kind"]] += own[i]
        js_pairs += d["pairs"] if d["kind"] == "lrw-js" else 0
    # Rejected damping factors: those cross_validate's spectral-radius
    # check rules out, plus those katz_pair_table refuses.
    rejected = sum(1 for s in spans if s[NAME] == "scoring.katz_pair_table"
                   and s[ERROR] == "KatzDivergenceError")
    for i, d in info["experiment.cross_validate"]:
        rhos = [e["rho"] for j, e in info["scoring.spectral_radius"] if spans[j][PARENT] == i]
        if d["kinds"] == ["hkatz"] and rhos:
            rejected += sum(1 for beta in d["grid"] if beta * rhos[0] >= 1.0)
    largest = [d for _, d in info["hypergraph.largest_component"]]
    hpra_rss = sum(s[RSS_KB] for s in spans if s[NAME] == "scoring.hpra_pair_table")

    values = {
        "hypergraph.load_s": time_s["hypergraph.load"],
        "hypergraph.largest_component_s": time_s["hypergraph.largest_component"],
        "hypergraph.with_edges_s": time_s["hypergraph.Hypergraph.with_edges"],
        "hypergraph.with_edges_calls": calls["hypergraph.Hypergraph.with_edges"],
        "hypergraph.vertices": largest[-1]["vertices"] if largest else 0,
        "hypergraph.edges": largest[-1]["edges"] if largest else 0,
        "projection.transition_s": time_s["projection.transition"],
        "projection.transition_calls": calls["projection.transition"],
        "projection.adjacency_s": time_s["projection.adjacency"],
        "projection.adjacency_calls": calls["projection.adjacency"],
        "projection.weighted_projection_s": time_s["projection.weighted_projection"],
        "projection.transition_nnz": total("projection.transition", "nnz"),
        "localwalk.walk_rows_s": time_s["localwalk.walk_matrix_rows_multi"]
        + time_s["localwalk.walk_matrix_rows"],
        "localwalk.walk_rows_calls": len(sweeps),
        "localwalk.sources": sum(d["sources"] for d in walk),
        "localwalk.support_fraction":
            sum(d["support"] for d in walk) / walk_cells if walk_cells else 0.0,
        "localwalk.walk_rows.rss_growth_mb": sum(s[RSS_KB] for s in sweeps) / 1024,
        "divergence.js_s": time_s["divergence.js"],
        "divergence.js_calls": calls["divergence.js"],
        "divergence.gjs_s": time_s["divergence.js_generalized"],
        "divergence.gjs_calls": calls["divergence.js_generalized"],
        "divergence.js_calls_per_pair": calls["divergence.js"] / js_pairs if js_pairs else 0.0,
        **{f"scoring.score_edges_s.{k}": v for k, v in score_edges.items()},
        "scoring.score_candidates_s": time_s["scoring.score_candidates"],
        "scoring.katz_pair_table_s": time_s["scoring.katz_pair_table"],
        "scoring.katz_pair_table_calls": calls["scoring.katz_pair_table"],
        "scoring.katz_rejected": rejected,
        "scoring.spectral_radius_s": time_s["scoring.spectral_radius"],
        "scoring.neighbor_sets_s": time_s["scoring.neighbor_sets"],
        "scoring.hpra_pair_table_s": time_s["scoring.hpra_pair_table"],
        "scoring.hpra_pair_table.rss_growth_mb": hpra_rss / 1024,
        "experiment.split_s": time_s["experiment.split"],
        "experiment.pruned_missing": total("experiment.split", "pruned"),
        "experiment.build_candidates_s": time_s["experiment.build_candidates"],
        "experiment.candidates": total("experiment.build_candidates", "candidates"),
        "experiment.collisions": total("experiment.build_candidates", "collisions"),
        "experiment.cross_validate_self_s": time_s["experiment.cross_validate"],
        "experiment.auroc_s": time_s["experiment.auroc"],
        "experiment.auroc_calls": calls["experiment.auroc"],
        "experiment.f1_s": time_s["experiment.f1_at_cutoff"],
        "experiment.trial_self_s": time_s["experiment.run_trial"],
    }
    present = set(installed)
    return {
        name: v for name, v in values.items()
        if present.issuperset(LAYER_METRICS[name][1])
        and not (LAYER_METRICS[name][2] and broken.intersection(LAYER_METRICS[name][1]))
    }


def combine(setup: dict, cold: dict, warm: list[dict]) -> dict[str, float]:
    """One value per metric: set-up metrics from the traced set-up, peak
    growth from the cold call, everything else the median over warm calls."""
    out = {}
    for name in LAYER_METRICS:
        if name in SETUP_METRICS:
            vals = [setup.get(name)]
        elif name in PEAK_METRICS:
            vals = [cold.get(name)]
        else:
            vals = [w.get(name) for w in warm]
        if vals and None not in vals:
            out[name] = statistics.median(vals)
    return out
