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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .kernels import record_due
from .probes import ColumnProbe, ModelProbe, ProbeFn

__all__ = [
    "Trace",
    "SolverStats",
    "SimulationResult",
    "TraceRecorder",
    "ColumnRecorder",
    "Stopwatch",
]


def _frozen(values: Sequence[float]) -> np.ndarray:
    """``values`` as a read-only float64 array, copied unless it is one."""
    array = np.asarray(values, dtype=float)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


class Trace:
    """A named, sampled waveform ``value(t)``.

    The samples are two read-only float64 arrays of equal length, with
    non-decreasing times.  Traces of one recorded run share one times
    array.
    """

    def __init__(
        self,
        name: str,
        unit: str = "",
        *,
        times: Sequence[float] = (),
        values: Sequence[float] = (),
    ) -> None:
        self.name = name
        self.unit = unit
        self._times = _frozen(times)
        self._values = _frozen(values)
        if self._times.ndim != 1 or self._times.shape != self._values.shape:
            raise ConfigurationError(
                f"trace {name!r}: times and values must be 1-D of equal length"
            )
        if np.any(self._times[1:] < self._times[:-1]):
            raise ConfigurationError(f"trace {name!r}: non-monotonic times")

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (times must be non-decreasing)."""
        self.extend([t], [value])

    def extend(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Append a batch of samples (copies the whole trace once)."""
        extended = Trace(
            self.name,
            times=np.concatenate([self._times, np.asarray(times, dtype=float)]),
            values=np.concatenate([self._values, np.asarray(values, dtype=float)]),
        )
        self._times, self._values = extended._times, extended._values

    @property
    def times(self) -> np.ndarray:
        """Sample times (read-only)."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Sample values (read-only)."""
        return self._values

    def __len__(self) -> int:
        return self._times.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Trace({self.name!r}, n={len(self)}, unit={self.unit!r})"

    def at(self, t: float) -> float:
        """Linearly interpolate the trace value at time ``t``."""
        if not len(self):
            raise ConfigurationError(f"trace {self.name!r} is empty")
        return float(np.interp(t, self._times, self._values))

    def resample(self, new_times: Sequence[float]) -> "Trace":
        """Return a new trace sampled at ``new_times`` by interpolation."""
        times = np.asarray(new_times, dtype=float)
        values = np.interp(times, self._times, self._values)
        return Trace(self.name, self.unit, times=times, values=values)

    def window(self, t_start: float, t_end: float) -> "Trace":
        """Return the sub-trace with ``t_start <= t <= t_end``."""
        mask = (self._times >= t_start) & (self._times <= t_end)
        return Trace(
            self.name, self.unit, times=self._times[mask], values=self._values[mask]
        )

    def final(self) -> float:
        """Last recorded value."""
        if not len(self):
            raise ConfigurationError(f"trace {self.name!r} is empty")
        return float(self._values[-1])


@dataclass
class SolverStats:
    """Bookkeeping counters reported by a solver run.

    ``n_function_evaluations`` counts whole-system residual evaluations.
    The Newton-Raphson baseline counts each finite-difference Jacobian as
    ``2 (n + m)`` of them, the dense central-difference matrix over the
    ``n`` states and ``m`` terminals, although it builds the matrix block
    by block and re-evaluates only the blocks each column reads; the
    counts of a run are therefore those of the dense matrix.
    """

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
    """Named-value recorder of the MNA baseline.

    The MNA solver calls :meth:`record` once per accepted time point with
    a mapping of node/branch name to value; a name, once recorded, is
    recorded at every later point.  The values are kept in plain lists
    and each :class:`Trace` is built once, when :attr:`traces` is read.
    The state-space solvers record through :class:`ColumnRecorder`.
    """

    def __init__(self, record_interval: float = 0.0) -> None:
        self._record_interval = record_interval
        self._last_record_time: Optional[float] = None
        self._times: List[float] = []
        self._values: Dict[str, List[float]] = {}
        # the row at which each name was first recorded
        self._first: Dict[str, int] = {}
        self._traces: Optional[Dict[str, Trace]] = None

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
        row = len(self._times)
        self._times.append(float(t))
        for name, value in values.items():
            column = self._values.get(name)
            if column is None:
                column = self._values[name] = []
                self._first[name] = row
            column.append(float(value))
        self._traces = None

    @property
    def traces(self) -> Dict[str, Trace]:
        """All traces recorded so far."""
        if self._traces is None:
            times = np.array(self._times)
            times.flags.writeable = False
            self._traces = {
                name: Trace(name, times=times[self._first[name]:], values=values)
                for name, values in self._values.items()
            }
        return self._traces


class ColumnRecorder:
    """The trace recorder of the state-space solvers: float64 columns.

    A solver records ``B`` lanes (one for a single run).  Each due sample
    of a lane — its time, state row and terminal row, tagged with the
    lane — is appended to flat buffers (``(cap,)`` lanes and times,
    ``(cap, n)`` states, ``(cap, m)`` terminals), doubling capacity as
    they fill, so a lane that is not due takes no space.  A lane's
    :class:`Trace` objects are built once, by :meth:`traces_for`, from
    column arrays that share one times array, in its probe insertion
    order.

    Probes take one of three forms (see :mod:`repro.core.probes`):

    * a :class:`~repro.core.probes.ColumnProbe` is evaluated once per lane
      by :meth:`traces_for`, over the lane's recorded columns;
    * a :class:`~repro.core.probes.ModelProbe` is sampled at lane start
      and after each of the lane's digital activations
      (:meth:`sample_models`); each sample is a change point
      ``(entry, values)`` that the lane's samples from that buffer entry
      on read;
    * any other callable is a row probe, called for every due sample of
      its lane.

    Due-ness is ``TraceRecorder.should_record``'s (see
    :func:`~repro.core.kernels.record_due`): a non-positive interval
    records every step (threshold ``-inf``), otherwise a lane records when
    it never has or when ``t - last >= interval * (1 - 1e-12)``.
    """

    #: initial buffer entries per lane
    _INITIAL_CAPACITY = 64

    def __init__(
        self,
        intervals: Sequence[float],
        probes: Sequence[Mapping[str, ProbeFn]],
        t: Sequence[float],
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        """Record lanes with record ``intervals`` and ``probes`` (name to
        probe, per lane), starting at times ``t`` from states ``x``
        ``(B, n)`` and terminals ``y`` ``(B, m)``, where each lane's model
        probes take their first sample."""
        b = len(intervals)
        intervals = np.asarray(intervals, dtype=float)
        self.thresholds = np.where(
            intervals <= 0.0, -np.inf, intervals * (1.0 - 1e-12)
        )
        self.last_record_times = np.full(b, np.nan)
        # each compacted lane's position at the start: buffer entries and
        # the per-lane probe bookkeeping below are keyed by it
        self._ids = np.arange(b)
        self._n = 0
        cap = self._INITIAL_CAPACITY * b
        self._lane = np.empty(cap, dtype=np.intp)
        self._times = np.empty(cap)
        self._states = np.empty((cap, x.shape[1]))
        self._nets = np.empty((cap, y.shape[1]))
        self._probes: List[Dict[str, ProbeFn]] = [dict(lane) for lane in probes]
        self._model_probes: List[Dict[str, ModelProbe]] = [
            {n: p for n, p in lane.items() if isinstance(p, ModelProbe)}
            for lane in self._probes
        ]
        self._row_probes: List[Dict[str, ProbeFn]] = [
            {
                n: p
                for n, p in lane.items()
                if not isinstance(p, (ColumnProbe, ModelProbe))
            }
            for lane in self._probes
        ]
        self._row_lanes = np.array(
            [bool(rows) for rows in self._row_probes], dtype=bool
        )
        self._row_values: List[Dict[str, List[float]]] = [
            {name: [] for name in rows} for rows in self._row_probes
        ]
        self._model_points: List[List[Tuple[int, List[float]]]] = [[] for _ in range(b)]
        for i in range(b):
            self.sample_models(i, float(t[i]), x[i], y[i])

    def _grow(self, need: int) -> None:
        cap = self._times.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for attr in ("_lane", "_times", "_states", "_nets"):
            old = getattr(self, attr)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, attr, new)

    def sample_models(self, i: int, t: float, x: np.ndarray, y: np.ndarray) -> None:
        """Sample lane ``i``'s model probes at its live ``(t, x, y)``; its
        later samples read them."""
        lane = self._ids[i]
        models = self._model_probes[lane]
        if models:
            values = [probe(t, x, y) for probe in models.values()]
            self._model_points[lane].append((self._n, values))

    def record(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Record all lanes that are due at their times ``t``."""
        due = record_due(t, self.last_record_times, self.thresholds)
        # most steps record no lane: skip ``write``'s ``np.nonzero``
        if np.count_nonzero(due):
            self.write(t[None], due[None], x[None], y[None])

    def record_lane(self, i: int, t: float, x: np.ndarray, y: np.ndarray) -> None:
        """Record one sample of lane ``i``, whatever its due-ness: a
        single run's due rows, or a lane's final record."""
        n = self._n
        self._grow(n + 1)
        self._lane[n] = self._ids[i]
        self._times[n] = t
        self._states[n] = x
        self._nets[n] = y
        self._n = n + 1
        self.last_record_times[i] = t
        if self._row_lanes[i]:
            self._call_row_probes(self._ids[i], t, x, y)

    def _call_row_probes(self, lane: int, t: float, x: np.ndarray, y: np.ndarray) -> None:
        values = self._row_values[lane]
        for name, probe in self._row_probes[lane].items():
            values[name].append(float(probe(t, x, y)))

    def write(
        self, times: np.ndarray, due: np.ndarray, states: np.ndarray, nets: np.ndarray
    ) -> None:
        """Append the due samples of ``(k, B)`` record rows, in step order."""
        steps, lanes = np.nonzero(due)
        if not lanes.size:
            return
        start, end = self._n, self._n + lanes.size
        self._grow(end)
        self._lane[start:end] = self._ids[lanes]
        self._times[start:end] = times[steps, lanes]
        self._states[start:end] = states[steps, lanes]
        self._nets[start:end] = nets[steps, lanes]
        self._n = end
        # a lane's times rise step by step: its last due time is the
        # largest (of one row, the row's own)
        if due.shape[0] == 1:
            self.last_record_times = np.where(due[0], times[0], self.last_record_times)
        else:
            self.last_record_times = np.where(
                due.any(axis=0),
                np.where(due, times, -np.inf).max(axis=0),
                self.last_record_times,
            )
        row_due = self._row_lanes[lanes]
        if row_due.any():
            for step, i in zip(steps[row_due].tolist(), lanes[row_due].tolist()):
                self._call_row_probes(
                    self._ids[i], float(times[step, i]), states[step, i], nets[step, i]
                )

    def select(self, keep: np.ndarray) -> None:
        """Compact the lane axis to ``keep`` (mirrors the march's lanes)."""
        self.thresholds = self.thresholds[keep]
        self.last_record_times = self.last_record_times[keep]
        self._ids = self._ids[keep]
        self._row_lanes = self._row_lanes[keep]

    def traces_for(
        self, i: int, state_names: Sequence[str], net_names: Sequence[str]
    ) -> Dict[str, Trace]:
        """Build lane ``i``'s traces (states, nets, then probes).

        Every trace shares the lane's one times array; the state and
        terminal traces are rows of one read-only ``(n, rows)`` and one
        ``(m, rows)`` block, and each probe form's column is bitwise its
        row-wise calls.
        """
        lane = self._ids[i]
        entries = np.flatnonzero(self._lane[: self._n] == lane)
        times = self._times[entries]
        times.flags.writeable = False
        # the column probes read C-ordered (rows, n) blocks, as the
        # row-wise calls read each row
        states = self._states[entries]
        nets = self._nets[entries]
        columns: Dict[str, Sequence[float]] = {}
        for block, names in ((states, state_names), (nets, net_names)):
            rows = block.T.copy()
            rows.flags.writeable = False
            columns.update(zip(names, rows))
        # a change point holds from its buffer entry up to the next one's
        points = self._model_points[lane]
        if points:
            samples = np.array([sample for _, sample in points])
            spans = np.diff(
                np.searchsorted(entries, [entry for entry, _ in points] + [self._n])
            )
            model_rows = np.repeat(samples.T, spans, axis=1)
            model_rows.flags.writeable = False
            model_columns = dict(zip(self._model_probes[lane], model_rows))
        for name, probe in self._probes[lane].items():
            if isinstance(probe, ColumnProbe):
                columns[name] = probe.columns(times, states, nets)
            elif isinstance(probe, ModelProbe):
                columns[name] = model_columns[name]
            else:
                columns[name] = self._row_values[lane][name]
        return {
            name: Trace(name, times=times, values=values)
            for name, values in columns.items()
        }


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
    pieces: Dict[str, List[Trace]] = {}
    for result in results:
        for name, trace in result.traces.items():
            pieces.setdefault(name, []).append(trace)
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
    for name, traces in pieces.items():
        merged.traces[name] = Trace(
            name,
            traces[0].unit,
            times=np.concatenate([trace.times for trace in traces]),
            values=np.concatenate([trace.values for trace in traces]),
        )
    return merged
