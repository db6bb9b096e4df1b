"""The fluent :class:`Study` object — the canonical way to drive repro.

A study is an immutable description of *what to simulate* (a scenario),
*how* (a :class:`~repro.api.options.RunOptions`) and *at what scale* (a
single run, a multi-solver comparison, or a sweep grid).  Each fluent
step returns a new study, so partial studies can be shared and forked::

    from repro import Study, RunOptions, scenario_1, charging_scenario

    # one run of the paper's Scenario 1, default exact profile
    run = Study.scenario(scenario_1(duration_s=2.0)).run()
    print(run["storage_voltage"].final())

    # a design grid, marched as lanes of at most 16 candidates
    result = (
        Study.scenario(charging_scenario(duration_s=0.2))
        .options(RunOptions(lane_width=16))
        .sweep({"excitation_frequency_hz": [66.0, 70.0, 74.0]})
        .run()
    )
    print(result.format())

``run()`` dispatches through the execution planner
(:mod:`repro.api.planner`) and returns the matching typed wrapper:
:class:`~repro.api.results.RunHandle`,
:class:`~repro.api.results.ComparisonResult` or
:class:`~repro.api.results.StudyResult`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from .options import RunOptions
from . import planner as _planner

__all__ = ["Study"]


class Study:
    """Immutable fluent builder for simulation runs, comparisons and sweeps.

    Build one with :meth:`Study.scenario`; every other method returns a
    modified copy.  Nothing simulates until :meth:`run`.
    """

    __slots__ = (
        "_scenario",
        "_options",
        "_solver",
        "_solver_kwargs",
        "_compare_solvers",
        "_sweep",
    )

    def __init__(
        self,
        scenario,
        *,
        options: Optional[RunOptions] = None,
        solver: str = "proposed",
        solver_kwargs: Optional[Mapping[str, object]] = None,
        compare_solvers: Tuple[str, ...] = (),
        sweep=None,
    ) -> None:
        if scenario is None or not hasattr(scenario, "build_harvester"):
            raise ConfigurationError(
                "Study.scenario(...) needs a scenario object (anything "
                "providing build_harvester/duration_s/name, e.g. "
                "repro.scenario_1() or a SpecScenario)"
            )
        self._scenario = scenario
        self._options = options if options is not None else RunOptions()
        self._solver = solver
        self._solver_kwargs = dict(solver_kwargs or {})
        self._compare_solvers = tuple(compare_solvers)
        self._sweep = sweep

    # ------------------------------------------------------------------ #
    # construction / fluent steps
    # ------------------------------------------------------------------ #
    @classmethod
    def scenario(cls, scenario) -> "Study":
        """Start a study of one scenario (`Scenario` or `SpecScenario`)."""
        return cls(scenario)

    def _copy(self, **changes) -> "Study":
        state = {
            "options": self._options,
            "solver": self._solver,
            "solver_kwargs": self._solver_kwargs,
            "compare_solvers": self._compare_solvers,
            "sweep": self._sweep,
        }
        state.update(changes)
        return Study(self._scenario, **state)

    def options(self, options: Optional[RunOptions] = None, **overrides) -> "Study":
        """Attach execution options.

        Accepts a ready :class:`RunOptions` (optionally with field
        overrides on top) or plain keyword overrides of the current
        options: ``study.options(RunOptions.fast())`` and
        ``study.options(n_workers=4)`` both work.
        """
        if options is None:
            options = self._options.replace(**overrides)
        elif overrides:
            options = options.replace(**overrides)
        return self._copy(options=options)

    def solver(self, name: str, **solver_kwargs) -> "Study":
        """Select the solver family for a single run.

        ``"proposed"`` (default) is the paper's linearised state-space
        solver; ``"baseline"`` the Newton-Raphson implicit baseline
        (keyword arguments reach its constructor); ``"reference"`` the
        scipy reference solver (``settings=`` takes its
        :class:`~repro.baselines.ReferenceSolverSettings`).
        """
        if name not in _planner.SOLVERS:
            raise ConfigurationError(
                f"unknown solver {name!r}; choose from {_planner.SOLVERS}"
            )
        if name == "proposed" and solver_kwargs:
            raise ConfigurationError(
                "incoherent options: solver keyword arguments "
                f"{sorted(solver_kwargs)} with solver='proposed' — the "
                "proposed solver is configured through RunOptions "
                "(.options(RunOptions(integrator=..., settings=...)))"
            )
        return self._copy(solver=name, solver_kwargs=dict(solver_kwargs))

    def compare(self, *solvers: str, **solver_kwargs) -> "Study":
        """Run the scenario on several solver families (Table I/II style).

        ``run()`` then returns a
        :class:`~repro.api.results.ComparisonResult`.  Defaults to
        ``("proposed", "baseline")``; keyword arguments reach the
        non-proposed solvers.
        """
        if not solvers:
            solvers = ("proposed", "baseline")
        for name in solvers:
            if name not in _planner.SOLVERS:
                raise ConfigurationError(
                    f"unknown solver {name!r}; choose from {_planner.SOLVERS}"
                )
        if len(set(solvers)) != len(solvers):
            raise ConfigurationError("compare() solvers must be distinct")
        non_proposed = [name for name in solvers if name != "proposed"]
        if solver_kwargs and len(non_proposed) > 1:
            raise ConfigurationError(
                "incoherent options: compare() keyword arguments "
                f"{sorted(solver_kwargs)} with several non-proposed solvers "
                f"({non_proposed}) — the kwargs would reach all of them; "
                "run the solvers individually via Study.solver(name, ...) "
                "instead"
            )
        return self._copy(
            compare_solvers=tuple(solvers), solver_kwargs=dict(solver_kwargs)
        )

    def sweep(
        self,
        axes: Optional[Mapping[str, Sequence[object]]] = None,
        *,
        metric: Optional[Callable] = None,
        metric_name: Optional[str] = None,
        apply: Optional[Callable] = None,
        **axis_kwargs: Sequence[object],
    ) -> "Study":
        """Grid axes to sweep over the scenario (config- or spec-backed).

        Axes are a mapping (or keyword arguments) from parameter name to
        the values to try; the semantics — dotted ``block.param`` paths,
        excitation axes, :class:`~repro.core.spec.BlockSpec`-valued
        topology axes — are exactly those of
        :class:`~repro.analysis.sweep.ParameterSweep`, which this method
        constructs under the hood.  ``run()`` then returns a
        :class:`~repro.api.results.StudyResult`.
        """
        from ..analysis.sweep import ParameterSweep, harvested_energy_metric

        grid = dict(axes or {})
        overlap = set(grid) & set(axis_kwargs)
        if overlap:
            raise ConfigurationError(
                f"sweep axes given both positionally and by keyword: "
                f"{sorted(overlap)}"
            )
        grid.update(axis_kwargs)
        kwargs = {}
        if metric is not None:
            kwargs["metric"] = metric
            kwargs["metric_name"] = metric_name or getattr(
                metric, "__name__", "metric"
            )
        elif metric_name is not None:
            kwargs["metric"] = harvested_energy_metric
            kwargs["metric_name"] = metric_name
        if apply is not None:
            kwargs["apply"] = apply
        sweep = ParameterSweep(self._scenario, grid, **kwargs)
        return self._copy(sweep=sweep)

    # ------------------------------------------------------------------ #
    # declarative form
    # ------------------------------------------------------------------ #
    def to_spec(self, *, name: str = "", description: str = ""):
        """This study as a serialisable :class:`~repro.api.experiment.ExperimentSpec`.

        Everything the study would run becomes data: the scenario (which
        must be a serialisable :class:`Scenario`/:class:`SpecScenario`),
        the options (a process-local ``progress`` callback is rejected by
        name), and the sweep — whose metric and
        apply callables must be the stock ones (a custom callable has no
        declarative form and is rejected rather than silently renamed).
        """
        from .experiment import (
            ExperimentSpec,
            SweepAxis,
            SweepSpec,
            metric_key_for,
        )

        sweep_spec = None
        if self._sweep is not None:
            from ..analysis.sweep import _default_apply, _default_spec_apply

            sweep = self._sweep
            if sweep.apply not in (_default_apply, _default_spec_apply):
                raise ConfigurationError(
                    "cannot serialise the sweep: a custom apply callable "
                    "has no declarative form; use dotted block.param axes, "
                    "excitation axes or BlockSpec topology values instead"
                )
            metric_key = metric_key_for(sweep.metric)
            if metric_key is None:
                raise ConfigurationError(
                    f"cannot serialise the sweep: metric "
                    f"{getattr(sweep.metric, '__name__', sweep.metric)!r} "
                    "is not a named metric; declarative experiments support "
                    "'harvested_energy' and 'average_power'"
                )
            sweep_spec = SweepSpec(
                axes=tuple(
                    SweepAxis(axis, tuple(values))
                    for axis, values in sweep.parameters.items()
                ),
                metric=metric_key,
                metric_name=sweep.metric_name,
            )
        return ExperimentSpec(
            scenario=self._scenario,
            options=self._options,
            solver=self._solver,
            solver_kwargs=dict(self._solver_kwargs),
            compare=self._compare_solvers,
            sweep=sweep_spec,
            name=name,
            description=description,
        )

    @classmethod
    def from_spec(cls, spec) -> "Study":
        """The fluent study equivalent to an :class:`ExperimentSpec`.

        ``Study.from_spec(study.to_spec())`` plans identically to
        ``study`` — the round-trip contract the spec tests pin down.
        """
        study = cls.scenario(spec.scenario).options(spec.options)
        if spec.compare:
            study = study.compare(*spec.compare, **dict(spec.solver_kwargs))
        elif spec.solver != "proposed" or spec.solver_kwargs:
            study = study.solver(spec.solver, **dict(spec.solver_kwargs))
        if spec.sweep is not None:
            metric, metric_name = spec.sweep.resolved_metric()
            study = study.sweep(
                {axis.name: list(axis.values) for axis in spec.sweep.axes},
                metric=metric,
                metric_name=metric_name,
            )
        return study

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def plan(self) -> "_planner.ExecutionPlan":
        """The validated execution plan ``run()`` would carry out."""
        return _planner.plan(self)

    def run(self):
        """Dispatch through the execution planner and simulate.

        Returns a :class:`~repro.api.results.RunHandle` (single run), a
        :class:`~repro.api.results.ComparisonResult` (:meth:`compare`) or
        a :class:`~repro.api.results.StudyResult` (:meth:`sweep`).
        """
        return _planner.execute(_planner.plan(self))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kind = "sweep" if self._sweep is not None else (
            "compare" if self._compare_solvers else f"single[{self._solver}]"
        )
        name = getattr(self._scenario, "name", "<scenario>")
        return f"Study({name!r}, {kind})"
