"""CSV export / import of simulation traces and sweep checkpoints.

Keeps the external format deliberately simple (one time column followed by
one column per trace, linear interpolation onto a common grid) so results
can be plotted with any external tool or diffed between solver versions.

The sweep-checkpoint helpers at the bottom persist partially completed
design-exploration sweeps (:mod:`repro.analysis.engine`): one row per
evaluated candidate, appended as candidates finish, so an interrupted
sweep resumes from the last completed candidate instead of restarting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import ConfigurationError
from ..core.results import SimulationResult, Trace

__all__ = [
    "export_traces",
    "import_traces",
    "export_result",
    "write_checkpoint_header",
    "append_checkpoint_row",
    "read_checkpoint",
    "validate_checkpoint",
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


# ---------------------------------------------------------------------- #
# sweep checkpoints (partial-result persistence for the sweep engine)
# ---------------------------------------------------------------------- #
_CHECKPOINT_MAGIC = "# repro-sweep-checkpoint"


def write_checkpoint_header(
    path: PathLike, fieldnames: Sequence[str], metadata: Mapping[str, str]
) -> Path:
    """Start a fresh sweep checkpoint file (truncates an existing one).

    The first line is a magic comment carrying ``key=value`` metadata
    (typically the metric name and the swept parameter names) so a resume
    can refuse checkpoints written by a *different* sweep.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for key, value in metadata.items():
        if any(c in f"{key}{value}" for c in "=;\n\r"):
            raise ConfigurationError(
                f"checkpoint metadata {key!r}={value!r} must not contain '=', ';' or newlines"
            )
    meta = ";".join(f"{key}={value}" for key, value in metadata.items())
    with path.open("w", newline="") as handle:
        handle.write(f"{_CHECKPOINT_MAGIC} {meta}\n")
        csv.writer(handle).writerow(list(fieldnames))
    return path


def append_checkpoint_row(path: PathLike, row: Sequence[object]) -> None:
    """Append one completed-candidate row and flush it to disk."""
    path = Path(path)
    with path.open("a", newline="") as handle:
        csv.writer(handle).writerow(list(row))
        handle.flush()


def read_checkpoint(
    path: PathLike,
) -> Tuple[Dict[str, str], List[str], List[List[str]]]:
    """Read a sweep checkpoint: ``(metadata, fieldnames, rows)``.

    Rows whose cell count does not match the header (e.g. a torn final
    line from an interrupted write) are skipped rather than fatal — the
    corresponding candidates are simply re-evaluated on resume.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such checkpoint: {path}")
    with path.open("r", newline="") as handle:
        first = handle.readline().rstrip("\n")
        if not first.startswith(_CHECKPOINT_MAGIC):
            raise ConfigurationError(f"{path} is not a sweep checkpoint")
        metadata: Dict[str, str] = {}
        for item in first[len(_CHECKPOINT_MAGIC) :].strip().split(";"):
            if "=" in item:
                key, _, value = item.partition("=")
                metadata[key.strip()] = value
        reader = csv.reader(handle)
        fieldnames = next(reader, None)
        if not fieldnames:
            raise ConfigurationError(f"{path} has no checkpoint header row")
        rows = [row for row in reader if len(row) == len(fieldnames)]
    return metadata, fieldnames, rows


def validate_checkpoint(
    path: PathLike,
    expected_metadata: Mapping[str, str],
    expected_fieldnames: Sequence[str],
) -> List[List[str]]:
    """Read a checkpoint and refuse one written by a *different* sweep.

    The sweep engine stores a grid/config hash (parameter values, solver
    profile, base-scenario fingerprint) in the header metadata;
    any mismatch means the recorded scores belong to different candidates,
    so resuming would silently stitch stale scores into the wrong grid
    points.  Raises :class:`ConfigurationError` naming both sides instead;
    returns the completed-candidate rows when everything matches.
    """
    metadata, fieldnames, rows = read_checkpoint(path)
    if any(
        metadata.get(key) != value for key, value in expected_metadata.items()
    ):
        raise ConfigurationError(
            f"checkpoint {path} belongs to a different sweep "
            f"(found {metadata}, expected {dict(expected_metadata)}); "
            "delete it or point the engine at a fresh path"
        )
    if tuple(fieldnames) != tuple(expected_fieldnames):
        raise ConfigurationError(
            f"checkpoint {path} has unexpected columns {fieldnames}"
        )
    return rows
