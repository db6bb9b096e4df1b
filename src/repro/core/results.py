"""Simulation result containers: traces, probes and run statistics.

A :class:`Trace` is a named time-series recorded during a run; a
:class:`SimulationResult` bundles all traces together with solver
statistics (CPU time, step counts, Newton iterations for the baselines)
so that the analysis and benchmark layers have a uniform interface
regardless of which solver produced the data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = ["Trace", "SolverStats", "SimulationResult", "TraceRecorder", "Stopwatch"]


class Trace:
    """A named, sampled waveform ``value(t)``.

    Traces are append-only during simulation and are converted to numpy
    arrays lazily on first read access.
    """

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._times: List[float] = []
        self._values: List[float] = []
        self._frozen: Optional[tuple] = None

    @classmethod
    def from_samples(
        cls,
        name: str,
        times: Sequence[float],
        values: Sequence[float],
        unit: str = "",
    ) -> "Trace":
        """Bulk-construct a trace from parallel sample sequences.

        ``times`` must be non-decreasing — the same invariant ``append``
        enforces sample by sample, checked here in one vectorised pass.
        Used by the batched solver's buffered recorder to materialise a
        lane's traces without per-sample Python appends.
        """
        if len(times) != len(values):
            raise ConfigurationError(
                f"trace {name!r}: {len(times)} times for {len(values)} values"
            )
        times_arr = np.asarray(times, dtype=float)
        if times_arr.size > 1 and bool(np.any(np.diff(times_arr) < 0.0)):
            raise ConfigurationError(
                f"trace {name!r}: non-monotonic time samples"
            )
        trace = cls(name, unit)
        trace._times = times_arr.tolist()
        trace._values = np.asarray(values, dtype=float).tolist()
        return trace

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (times must be non-decreasing)."""
        if self._times and t < self._times[-1]:
            raise ConfigurationError(
                f"trace {self.name!r}: non-monotonic time {t} after {self._times[-1]}"
            )
        self._times.append(float(t))
        self._values.append(float(value))
        self._frozen = None

    def extend(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Append a batch of samples."""
        if len(times) != len(values):
            raise ConfigurationError("times and values must have equal length")
        for t, v in zip(times, values):
            self.append(t, v)

    def _freeze(self) -> tuple:
        if self._frozen is None:
            self._frozen = (
                np.asarray(self._times, dtype=float),
                np.asarray(self._values, dtype=float),
            )
        return self._frozen

    @property
    def times(self) -> np.ndarray:
        """Sample times as a numpy array."""
        return self._freeze()[0]

    @property
    def values(self) -> np.ndarray:
        """Sample values as a numpy array."""
        return self._freeze()[1]

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Trace({self.name!r}, n={len(self)}, unit={self.unit!r})"

    def at(self, t: float) -> float:
        """Linearly interpolate the trace value at time ``t``."""
        times, values = self._freeze()
        if times.size == 0:
            raise ConfigurationError(f"trace {self.name!r} is empty")
        return float(np.interp(t, times, values))

    def resample(self, new_times: Sequence[float]) -> "Trace":
        """Return a new trace sampled at ``new_times`` by interpolation."""
        times, values = self._freeze()
        out = Trace(self.name, self.unit)
        nt = np.asarray(new_times, dtype=float)
        out.extend(nt.tolist(), np.interp(nt, times, values).tolist())
        return out

    def window(self, t_start: float, t_end: float) -> "Trace":
        """Return the sub-trace with ``t_start <= t <= t_end``."""
        times, values = self._freeze()
        mask = (times >= t_start) & (times <= t_end)
        out = Trace(self.name, self.unit)
        out.extend(times[mask].tolist(), values[mask].tolist())
        return out

    def final(self) -> float:
        """Last recorded value."""
        if not self._times:
            raise ConfigurationError(f"trace {self.name!r} is empty")
        return self._values[-1]


@dataclass
class SolverStats:
    """Bookkeeping counters reported by a solver run."""

    solver_name: str = ""
    cpu_time_s: float = 0.0
    n_steps: int = 0
    n_accepted_steps: int = 0
    n_rejected_steps: int = 0
    n_jacobian_evaluations: int = 0
    n_linear_solves: int = 0
    n_newton_iterations: int = 0
    n_function_evaluations: int = 0
    min_step: float = float("inf")
    max_step: float = 0.0
    final_time: float = 0.0

    def register_step(self, h: float, accepted: bool = True) -> None:
        """Record one attempted step of size ``h``."""
        self.n_steps += 1
        if accepted:
            self.n_accepted_steps += 1
            self.min_step = min(self.min_step, h)
            self.max_step = max(self.max_step, h)
        else:
            self.n_rejected_steps += 1

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "solver_name": self.solver_name,
            "cpu_time_s": self.cpu_time_s,
            "n_steps": self.n_steps,
            "n_accepted_steps": self.n_accepted_steps,
            "n_rejected_steps": self.n_rejected_steps,
            "n_jacobian_evaluations": self.n_jacobian_evaluations,
            "n_linear_solves": self.n_linear_solves,
            "n_newton_iterations": self.n_newton_iterations,
            "n_function_evaluations": self.n_function_evaluations,
            "min_step": self.min_step,
            "max_step": self.max_step,
            "final_time": self.final_time,
        }


@dataclass
class SimulationResult:
    """Bundle of traces plus solver statistics for one simulation run."""

    traces: Dict[str, Trace] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Trace:
        try:
            return self.traces[name]
        except KeyError:
            available = ", ".join(sorted(self.traces))
            raise KeyError(
                f"no trace named {name!r}; available traces: {available}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.traces

    def trace_names(self) -> List[str]:
        """Sorted list of recorded trace names."""
        return sorted(self.traces)

    def add_trace(self, trace: Trace) -> None:
        """Register a trace, refusing duplicates."""
        if trace.name in self.traces:
            raise ConfigurationError(f"duplicate trace name {trace.name!r}")
        self.traces[trace.name] = trace


class TraceRecorder:
    """Helper that owns a set of traces and records them each step.

    Solvers call :meth:`record` once per accepted time point with a mapping
    of signal name to value; missing traces are created on first use.
    """

    def __init__(self, record_interval: float = 0.0) -> None:
        self._traces: Dict[str, Trace] = {}
        self._record_interval = record_interval
        self._last_record_time: Optional[float] = None

    def should_record(self, t: float) -> bool:
        """Whether time ``t`` should be recorded given the decimation interval."""
        if self._record_interval <= 0.0:
            return True
        if self._last_record_time is None:
            return True
        return (t - self._last_record_time) >= self._record_interval * (1.0 - 1e-12)

    def record(self, t: float, values: Mapping[str, float], *, force: bool = False) -> None:
        """Record all ``values`` at time ``t`` (subject to decimation)."""
        if not force and not self.should_record(t):
            return
        self._last_record_time = t
        for name, value in values.items():
            trace = self._traces.get(name)
            if trace is None:
                trace = Trace(name)
                self._traces[name] = trace
            trace.append(t, value)

    @property
    def traces(self) -> Dict[str, Trace]:
        """All traces recorded so far."""
        return self._traces


class Stopwatch:
    """Small CPU-time stopwatch used for the paper's Table I / II timings."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None


def merge_results(results: Iterable[SimulationResult]) -> SimulationResult:
    """Concatenate traces from consecutive simulation segments.

    Used when a scenario is simulated in phases (e.g. before/after a tuning
    event) and the pieces must be stitched into a single result.
    """
    merged = SimulationResult()
    for result in results:
        for name, trace in result.traces.items():
            target = merged.traces.get(name)
            if target is None:
                target = Trace(name, trace.unit)
                merged.traces[name] = target
            target.extend(trace.times.tolist(), trace.values.tolist())
        stats, segment = merged.stats, result.stats
        stats.cpu_time_s += segment.cpu_time_s
        stats.n_steps += segment.n_steps
        stats.n_accepted_steps += segment.n_accepted_steps
        stats.n_rejected_steps += segment.n_rejected_steps
        stats.n_jacobian_evaluations += segment.n_jacobian_evaluations
        stats.n_linear_solves += segment.n_linear_solves
        stats.n_newton_iterations += segment.n_newton_iterations
        stats.n_function_evaluations += segment.n_function_evaluations
        stats.min_step = min(stats.min_step, segment.min_step)
        stats.max_step = max(stats.max_step, segment.max_step)
        stats.final_time = max(stats.final_time, segment.final_time)
    return merged
