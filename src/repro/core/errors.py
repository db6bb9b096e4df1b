"""Exception hierarchy for the repro simulation engine.

All engine-specific failures derive from :class:`SimulationError` so that
callers can distinguish engine problems from ordinary Python errors with a
single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "ConfigurationError",
    "CacheCorruptionError",
    "ConnectionError_",
    "SingularSystemError",
    "SingularLaneError",
    "StabilityError",
    "ConvergenceError",
    "StepSizeError",
    "TableRangeError",
]


class SimulationError(Exception):
    """Base class for every error raised by the simulation engine."""


class ConfigurationError(SimulationError):
    """A model or solver was constructed with inconsistent parameters."""


class CacheCorruptionError(ConfigurationError):
    """A result-cache entry failed validation on load.

    Raised by :class:`repro.cache.ResultStore` when an entry exists but
    cannot be trusted (unparseable metadata, key/schema mismatch, missing
    trace payload).  Derives from :class:`ConfigurationError` so callers
    that already guard spec loading catch it too; the planner
    treats it as a miss (with a warning) rather than failing the run.
    """


class ConnectionError_(SimulationError):
    """Blocks were wired together incorrectly (dangling or mismatched ports).

    The trailing underscore avoids shadowing the builtin ``ConnectionError``
    which has unrelated OS-level semantics.
    """


class SingularSystemError(SimulationError):
    """The algebraic sub-system ``Jyy * y = -Jyx * x`` is singular.

    This occurs when terminal variables cannot be eliminated, typically
    because a port is left floating or two ideal sources are in conflict.
    """


class SingularLaneError(SingularSystemError):
    """Terminal-variable elimination failed for specific lanes of a batch.

    Raised by the batched assembler instead of the plain
    :class:`SingularSystemError` so the batched solver can retire exactly
    the offending lanes (``lane_indices``) and keep marching the rest.
    """

    def __init__(self, message: str, lane_indices):
        super().__init__(message)
        self.lane_indices = tuple(lane_indices)


class StabilityError(SimulationError):
    """The explicit integration became unstable (step size too large)."""


class ConvergenceError(SimulationError):
    """An iterative solver (Newton-Raphson baseline) failed to converge."""


class StepSizeError(SimulationError):
    """The adaptive step controller could not find an acceptable step."""


class TableRangeError(SimulationError):
    """A piecewise-linear lookup was requested outside the table domain
    while extrapolation was disabled."""
