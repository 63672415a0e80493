"""Exception types shared across the package, and the CLI's exit codes.

Each error class carries the status the ``multiway`` command exits with
for it, its ``exit_code``; nothing else defines an exit code:

  2  every MultiwayError not listed below (input, parse and config
     errors), and an OSError on a path the user named
  3  DegenerateDesignError
  4  SingularVarianceError, SingularDesignError
  5  ConvergenceError

A run that succeeds exits 0. Any other exception is a bug and exits with
its traceback.
"""

from __future__ import annotations


class MultiwayError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ShapeError(MultiwayError, ValueError):
    """Array or observation dimensions do not line up."""


class ParseError(MultiwayError, ValueError):
    """A dataset file could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(MultiwayError, ValueError):
    """A run configuration is invalid; the message names the field."""


class EmptySampleError(MultiwayError, ValueError):
    """An estimator requiring at least one unit got an all-empty sample."""


class DegenerateDesignError(MultiwayError, ValueError):
    """A cluster layout on which an estimator's defining pair set is empty."""

    exit_code = 3


class SingularVarianceError(MultiwayError, ValueError):
    """A variance matrix is singular or indefinite beyond the condition cap."""

    exit_code = 4


class SingularDesignError(MultiwayError, ValueError):
    """A Gram or bread matrix cannot be inverted reliably."""

    exit_code = 4


class InsufficientReplicatesError(MultiwayError, ValueError):
    """Too few bootstrap replicates to estimate the requested quantile."""


class ConvergenceError(MultiwayError, RuntimeError):
    """Optimizer failed to converge within its budget.

    ``best_theta`` and ``best_value`` hold the best point found so far.
    """

    exit_code = 5

    def __init__(self, message: str, best_theta=None, best_value=None):
        super().__init__(message)
        self.best_theta = best_theta
        self.best_value = best_value


class ModelError(MultiwayError, ValueError):
    """A moment model is misspecified or its output has the wrong shape."""


class UnsupportedError(MultiwayError, ValueError):
    """The requested closed form or option is not available."""
