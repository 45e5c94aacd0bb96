"""Hyperlink prediction on hypergraphs via local random walks and
Jensen-Shannon divergence, plus classical similarity baselines and a
negative-sampling evaluation harness."""

from .divergence import js, js_generalized
from .errors import HyperwalkError
from .experiment import (
    CandidateSet,
    ExperimentResult,
    SamplingSpec,
    SplitSpec,
    auroc,
    cross_validate,
    f1_at_cutoff,
    run_experiment,
    split,
)
from .hypergraph import Hypergraph, largest_component, load, loads, save, stats
from .localwalk import WalkRows, walk_matrix_rows
from .projection import adjacency, transition, weighted_projection
from .scoring import MethodSpec, ScoredEdge, score_candidates

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "ExperimentResult",
    "Hypergraph",
    "HyperwalkError",
    "MethodSpec",
    "SamplingSpec",
    "ScoredEdge",
    "SplitSpec",
    "WalkRows",
    "adjacency",
    "auroc",
    "cross_validate",
    "f1_at_cutoff",
    "js",
    "js_generalized",
    "largest_component",
    "load",
    "loads",
    "run_experiment",
    "save",
    "score_candidates",
    "split",
    "stats",
    "transition",
    "walk_matrix_rows",
    "weighted_projection",
]
