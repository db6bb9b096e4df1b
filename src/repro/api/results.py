"""Typed result wrappers returned by the :mod:`repro.api` facade.

One wrapper per dispatch kind, unifying the access patterns that used to
be spread over :class:`~repro.core.results.SimulationResult`,
:class:`~repro.analysis.sweep.SweepResult` and
:class:`~repro.analysis.engine.EngineRunInfo`:

* :class:`RunHandle` — one simulation run.  Traces stay lazy (the
  underlying :class:`~repro.core.results.Trace` arrays materialise on
  first read), ``summary()`` gives the headline numbers and
  ``export_csv()`` routes through :mod:`repro.io`.
* :class:`StudyResult` — one sweep.  Ranking access plus the engine
  bookkeeping, with the same ``summary()``/``export_csv()`` surface.
* :class:`ExplorationResult` — one exploration (a budgeted search over
  the sweep grid, :mod:`repro.explore`).  A :class:`StudyResult` over the
  final full-horizon ranking, plus the round-by-round record, the
  surviving candidates and the simulation work actually spent.
* :class:`ComparisonResult` — one multi-solver comparison (the paper's
  Table I/II workload): per-solver :class:`RunHandle` access plus the
  CPU-time speed-up.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..core.errors import ConfigurationError
from ..core.results import SimulationResult, SolverStats, Trace
from ..io.csvio import export_result
from ..io.report import format_key_values, format_sweep_value, format_table

__all__ = ["RunHandle", "StudyResult", "ExplorationResult", "ComparisonResult"]

PathLike = Union[str, Path]


class RunHandle:
    """Typed handle of one finished simulation run.

    Wraps the raw :class:`~repro.core.results.SimulationResult` (always
    reachable as :attr:`result`) with uniform facade access: mapping-style
    trace lookup, ``summary()`` and CSV export.  Construction is cheap —
    traces remain in their lazy append-only representation until read.
    """

    def __init__(self, result: SimulationResult, *, scenario=None) -> None:
        self.result = result
        self.scenario = scenario

    # -- trace access (lazy pass-through) ------------------------------- #
    def __getitem__(self, name: str) -> Trace:
        return self.result[name]

    def __contains__(self, name: str) -> bool:
        return name in self.result

    def trace_names(self) -> List[str]:
        """Sorted names of the recorded traces."""
        return self.result.trace_names()

    def final(self, name: str) -> float:
        """Last recorded value of trace ``name``."""
        return self.result[name].final()

    @property
    def stats(self) -> SolverStats:
        """Solver bookkeeping (CPU time, step counts ...)."""
        return self.result.stats

    @property
    def metadata(self) -> Dict[str, object]:
        """Run metadata (scenario name, controller event log ...)."""
        return self.result.metadata

    # -- uniform reporting ---------------------------------------------- #
    def summary(self) -> Dict[str, object]:
        """Headline numbers of the run, ready for ``format_key_values``."""
        stats = self.result.stats
        summary: Dict[str, object] = {
            "scenario": self.result.metadata.get("scenario", ""),
            "solver": stats.solver_name,
            "cpu_time_s": round(stats.cpu_time_s, 6),
            "n_accepted_steps": stats.n_accepted_steps,
            "final_time_s": stats.final_time,
        }
        n_tunings = self.result.metadata.get("n_tunings_completed")
        if n_tunings is not None:
            summary["n_tunings_completed"] = n_tunings
        return summary

    def format(self, title: str = "run summary") -> str:
        """Plain-text summary table."""
        return format_key_values(self.summary(), title=title)

    def export_csv(
        self,
        path: PathLike,
        *,
        trace_names: Optional[Sequence[str]] = None,
        n_samples: Optional[int] = None,
    ) -> Path:
        """Export selected traces (or all) to CSV via :mod:`repro.io`."""
        return export_result(
            self.result, path, trace_names=trace_names, n_samples=n_samples
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"RunHandle(scenario={self.result.metadata.get('scenario', '')!r}, "
            f"solver={self.result.stats.solver_name!r}, "
            f"traces={len(self.result.traces)})"
        )


class StudyResult:
    """Typed handle of one finished sweep.

    Wraps the raw :class:`~repro.analysis.sweep.SweepResult` (always
    reachable as :attr:`result`; the engine bookkeeping as
    :attr:`engine_info`) with the same facade surface as
    :class:`RunHandle`: ``summary()``, ``format()``, ``export_csv()``.
    """

    def __init__(self, result) -> None:
        self.result = result

    # -- ranking access (pass-through) ---------------------------------- #
    @property
    def points(self):
        """All evaluated candidates (enumeration order)."""
        return self.result.points

    @property
    def metric_name(self) -> str:
        """Name of the ranking metric."""
        return self.result.metric_name

    @property
    def engine_info(self):
        """:class:`~repro.analysis.engine.EngineRunInfo` bookkeeping."""
        return self.result.engine_info

    def best(self):
        """Candidate with the highest score."""
        return self.result.best()

    def sorted_points(self):
        """Candidates sorted from best to worst."""
        return self.result.sorted_points()

    def format(self) -> str:
        """Plain-text ranking table (best candidate first)."""
        return self.result.format()

    # -- uniform reporting ---------------------------------------------- #
    def summary(self) -> Dict[str, object]:
        """Headline numbers of the sweep, ready for ``format_key_values``."""
        best = self.best()
        info = self.engine_info
        summary: Dict[str, object] = {
            "metric": self.metric_name,
            "n_candidates": len(self.points),
            "best_score": best.score,
            "best_parameters": {
                name: format_sweep_value(value)
                for name, value in best.parameters.items()
            },
        }
        if info is not None:
            summary.update(
                n_workers=info.n_workers,
                n_evaluated=info.n_evaluated,
            )
            if getattr(info, "cache", "off") != "off":
                summary["n_cache_hits"] = info.n_cache_hits
        return summary

    def export_csv(self, path: PathLike) -> Path:
        """Write the ranking (one row per candidate, best first) to CSV."""
        points = self.sorted_points()
        if not points:
            raise ConfigurationError("the sweep produced no points")
        parameter_names = list(points[0].parameters)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["rank", self.metric_name, *parameter_names])
            for rank, point in enumerate(points, start=1):
                writer.writerow(
                    [rank, repr(point.score)]
                    + [
                        format_sweep_value(point.parameters[name])
                        for name in parameter_names
                    ]
                )
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"StudyResult(metric={self.metric_name!r}, "
            f"n_candidates={len(self.points)})"
        )


class ExplorationResult(StudyResult):
    """Typed handle of one finished exploration (a budgeted sweep search).

    A :class:`StudyResult` whose wrapped result is the exploration's
    *final* full-horizon ranking — ``best()``, ``sorted_points()`` and
    ``export_csv()`` work unchanged and are always comparable to a dense
    sweep's — plus the search bookkeeping: the raw
    :class:`~repro.explore.ExplorationRun` as :attr:`run`, the
    round-by-round record, the surviving candidates and the simulation
    work spent as a fraction of the dense grid.
    """

    def __init__(self, run) -> None:
        super().__init__(run.final)
        self.run = run

    # -- exploration bookkeeping ---------------------------------------- #
    @property
    def strategy(self) -> str:
        """Name of the exploration strategy that ran."""
        return self.run.strategy

    @property
    def rounds(self):
        """Per-round records (:class:`~repro.explore.ExplorationRoundRecord`)."""
        return self.run.rounds

    @property
    def survivors(self):
        """Parameters of the candidates alive after the last round."""
        return self.run.survivors

    @property
    def work_fraction(self) -> float:
        """Simulation work spent, as a fraction of the dense full grid."""
        return self.run.work_fraction

    # -- uniform reporting ---------------------------------------------- #
    def summary(self) -> Dict[str, object]:
        """Headline numbers: the final ranking plus the search budget."""
        summary = super().summary()
        summary.update(
            strategy=self.run.strategy,
            n_rounds=len(self.run.rounds),
            n_proposed=self.run.n_candidates,
            n_simulations=self.run.n_simulations,
            work_fraction=round(self.run.work_fraction, 4),
        )
        return summary

    def format(self) -> str:
        """Ranking table plus a one-line round/budget breakdown."""
        schedule = " -> ".join(
            f"{len(record.points)} @ {record.horizon:.3g}x"
            for record in self.run.rounds
        )
        return (
            f"{self.result.format()}\n"
            f"exploration {self.run.strategy!r}: {schedule}; "
            f"work {self.run.work_units:.3g}/{self.run.full_grid_work:.3g} "
            f"candidate-equivalents "
            f"({100.0 * self.run.work_fraction:.0f}% of the dense grid)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ExplorationResult(strategy={self.run.strategy!r}, "
            f"n_rounds={len(self.run.rounds)}, "
            f"n_candidates={len(self.points)})"
        )


class ComparisonResult:
    """Per-solver results of one multi-solver comparison.

    Mapping-style access by solver name (``comparison["proposed"]`` is a
    :class:`RunHandle`), plus the CPU-time ratio the paper's Tables I/II
    report.
    """

    def __init__(self, handles: Mapping[str, RunHandle]) -> None:
        if not handles:
            raise ConfigurationError("a comparison needs at least one solver")
        self.handles: Dict[str, RunHandle] = dict(handles)

    def __getitem__(self, solver: str) -> RunHandle:
        try:
            return self.handles[solver]
        except KeyError:
            available = ", ".join(sorted(self.handles))
            raise KeyError(
                f"no solver named {solver!r} in this comparison; "
                f"available: {available}"
            ) from None

    def __contains__(self, solver: str) -> bool:
        return solver in self.handles

    def solvers(self) -> List[str]:
        """Solver names, in comparison order."""
        return list(self.handles)

    def cpu_times(self) -> Dict[str, float]:
        """CPU seconds per solver."""
        return {
            name: handle.stats.cpu_time_s for name, handle in self.handles.items()
        }

    def speedup(self, slow: str = "baseline", fast: str = "proposed") -> float:
        """CPU-time ratio ``slow / fast`` (the paper's headline number)."""
        fast_time = self[fast].stats.cpu_time_s
        if fast_time <= 0.0:
            raise ConfigurationError(
                f"solver {fast!r} reported no CPU time; cannot form a ratio"
            )
        return self[slow].stats.cpu_time_s / fast_time

    def summary(self) -> Dict[str, object]:
        """Headline numbers: per-solver CPU time (+ speed-up when possible)."""
        summary: Dict[str, object] = {
            f"cpu_time_s[{name}]": round(time, 6)
            for name, time in self.cpu_times().items()
        }
        if "proposed" in self.handles and "baseline" in self.handles:
            summary["speedup"] = round(self.speedup(), 2)
        return summary

    def format(self, title: str = "solver comparison") -> str:
        """Plain-text CPU-time table."""
        rows = [
            [name, f"{handle.stats.cpu_time_s:.3f}", handle.stats.solver_name]
            for name, handle in self.handles.items()
        ]
        return format_table(["solver", "CPU time [s]", "implementation"], rows, title)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ComparisonResult(solvers={list(self.handles)})"
