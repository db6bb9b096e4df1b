"""CSV export / import of simulation traces.

Keeps the external format deliberately simple (one time column followed by
one column per trace, linear interpolation onto a common grid) so results
can be plotted with any external tool or diffed between solver versions.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..core.errors import ConfigurationError
from ..core.results import SimulationResult, Trace

__all__ = [
    "export_traces",
    "import_traces",
    "export_result",
]

PathLike = Union[str, Path]


def export_traces(
    traces: Sequence[Trace],
    path: PathLike,
    *,
    n_samples: Optional[int] = None,
) -> Path:
    """Write traces to a CSV file on a common (interpolated) time grid.

    Returns the path written.  All traces must overlap in time.
    """
    if not traces:
        raise ConfigurationError("no traces to export")
    t_lo = max(trace.times[0] for trace in traces)
    t_hi = min(trace.times[-1] for trace in traces)
    if t_hi <= t_lo:
        raise ConfigurationError("traces do not overlap in time")
    if n_samples is None:
        n_samples = min(max(len(trace) for trace in traces), 100000)
    grid = np.linspace(t_lo, t_hi, max(n_samples, 2))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + [trace.name for trace in traces])
        columns = [np.interp(grid, trace.times, trace.values) for trace in traces]
        for row_index, t in enumerate(grid):
            writer.writerow(
                [f"{t:.9g}"] + [f"{column[row_index]:.9g}" for column in columns]
            )
    return path


def export_result(
    result: SimulationResult,
    path: PathLike,
    *,
    trace_names: Optional[Sequence[str]] = None,
    n_samples: Optional[int] = None,
) -> Path:
    """Export selected traces (or all) of a :class:`SimulationResult`."""
    names = list(trace_names) if trace_names is not None else result.trace_names()
    traces = [result[name] for name in names]
    return export_traces(traces, path, n_samples=n_samples)


def import_traces(path: PathLike) -> Dict[str, Trace]:
    """Read a CSV written by :func:`export_traces` back into traces."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such file: {path}")
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "time" or len(header) < 2:
            raise ConfigurationError(
                f"{path} is not a trace CSV (expected a 'time' column first)"
            )
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigurationError(f"malformed row in {path}: {row!r}")
            rows.append([float(cell) for cell in row])
    columns = np.array(rows, dtype=float).reshape(-1, len(header)).T.copy()
    columns.flags.writeable = False
    return {
        name: Trace(name, times=columns[0], values=values)
        for name, values in zip(header[1:], columns[1:])
    }

