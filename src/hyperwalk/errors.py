"""Exception hierarchy shared across the package, and the number rules
for integer and positive real settings."""

import math
import numbers


class HyperwalkError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HyperwalkError):
    """A dataset line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyHypergraphError(HyperwalkError):
    """No hyperedges survive filtering."""


class ParameterError(HyperwalkError):
    """An operation was called with an invalid parameter value."""


class ContractViolation(HyperwalkError):
    """An internal precondition was violated (bug or misuse upstream)."""


class CandidateError(HyperwalkError):
    """A candidate hyperedge is incompatible with the training hypergraph."""


class KatzDivergenceError(HyperwalkError):
    """Closed-form Katz requested with beta >= 1/lambda_max(A)."""


class SamplingError(HyperwalkError):
    """Negative sampling cannot produce a valid fake hyperedge."""


class TrialDegenerateError(HyperwalkError):
    """A train/test split left no usable missing hyperedges after pruning."""


class MetricUndefinedError(HyperwalkError):
    """A ranking metric was requested on single-class input."""


def _is_number(value, kind) -> bool:
    """Whether ``value`` is a number of the abstract type ``kind``, not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_count(name: str, value, low: int = 1) -> None:
    """Raise ParameterError unless ``value`` is an integer >= ``low``."""
    if not (_is_number(value, numbers.Integral) and value >= low):
        raise ParameterError(f"{name}={value!r} is not an integer >= {low}")


def _check_positive(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is a finite real number > 0."""
    if not (_is_number(value, numbers.Real) and 0 < value < math.inf):
        raise ParameterError(f"{name}={value!r} is not a finite real number > 0")
