"""The execution planner: one dispatch layer over every way to simulate.

Everything the facade runs — single runs on any solver, multi-solver
comparisons, parameter/topology sweeps as lane blocks over worker
processes — goes through the same two steps:

1. :func:`plan` folds a :class:`~repro.api.study.Study` into an
   :class:`ExecutionPlan`: a frozen, inspectable description of *what*
   will run (kind, solver, scenario, sweep definition) and *how*
   (validated :class:`~repro.api.options.RunOptions`).  Incoherent
   requests (sweep-only knobs on a single run, proposed-solver knobs on
   a baseline, an unknown solver) are rejected here, before any
   simulation starts.
2. :func:`execute` carries the plan out and wraps the outcome in the
   matching typed result (:class:`~repro.api.results.RunHandle`,
   :class:`~repro.api.results.ComparisonResult` or
   :class:`~repro.api.results.StudyResult`).

:class:`~repro.api.study.Study` is the only way into these two steps.
Execution targets (worker pools, the result cache) plug in here, not at
the call sites.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.errors import CacheCorruptionError, ConfigurationError
from ..core.results import SimulationResult
from ..core.serialise import encode_value
from ..harvester.scenarios import (
    _simulate_baseline,
    _simulate_proposed,
    _simulate_reference,
    proposed_settings,
)
from .options import RunOptions
from .results import ComparisonResult, ExplorationResult, RunHandle, StudyResult

__all__ = [
    "ExecutionPlan",
    "SOLVERS",
    "plan",
    "execute",
    "execute_sweep",
    "execute_explore",
]

#: solver families the planner can dispatch a scenario to
SOLVERS = ("proposed", "baseline", "reference")

#: plan kinds
_KINDS = ("single", "compare", "sweep", "explore")


@dataclass(frozen=True)
class ExecutionPlan:
    """Frozen description of one facade execution, ready to run.

    ``kind`` selects the dispatch: ``"single"`` (one scenario, one
    solver), ``"compare"`` (one scenario, several solvers), ``"sweep"``
    (a dense candidate grid through the sweep engine) or ``"explore"``
    (a budgeted search strategy over the grid, :mod:`repro.explore`).
    """

    kind: str
    scenario: object
    options: RunOptions
    solver: str = "proposed"
    solver_kwargs: Mapping[str, object] = field(default_factory=dict)
    compare_solvers: Tuple[str, ...] = ()
    sweep: Optional[object] = None  # a ParameterSweep when kind is sweep/explore

    def describe(self) -> str:
        """One-line human-readable description of what will run."""
        name = getattr(self.scenario, "name", "<scenario>")
        if self.kind == "single":
            return f"single run of {name!r} on the {self.solver} solver"
        if self.kind == "compare":
            return f"comparison of {name!r} across {', '.join(self.compare_solvers)}"
        axes = " x ".join(
            f"{param}[{len(values)}]"
            for param, values in self.sweep.parameters.items()
        )
        if self.kind == "explore":
            # a throwaway strategy instance previews the round schedule;
            # the one that actually runs is built at execution time
            # (strategies are stateful)
            schedule = _build_strategy(self.sweep, self.options).schedule()
            rounds = (
                " -> ".join(plan.describe() for plan in schedule)
                if schedule
                else "dynamic rounds"
            )
            return (
                f"exploration of {name!r} over {axes} with "
                f"{self.options.explore!r} ({rounds}; "
                f"lane_width={self.options.lane_width!r}, "
                f"n_workers={self.options.n_workers})"
            )
        return (
            f"sweep of {name!r} over {axes} "
            f"(lane_width={self.options.lane_width!r}, "
            f"n_workers={self.options.n_workers})"
        )


# ---------------------------------------------------------------------- #
# planning
# ---------------------------------------------------------------------- #
def plan(study) -> ExecutionPlan:
    """Fold a study into a validated :class:`ExecutionPlan`.

    ``RunOptions`` is frozen and validates its field values at
    construction; planning only adds the dispatch-dependent coherence
    checks (sweep-only knobs on a single run and vice versa).
    """
    options = study._options
    if study._sweep is not None:
        if study._compare_solvers:
            raise ConfigurationError(
                "incoherent study: sweep(...) with compare(...) — a sweep "
                "always runs the proposed solver; drop one of the two"
            )
        if study._solver != "proposed":
            raise ConfigurationError(
                f"incoherent study: sweep(...) with solver={study._solver!r} "
                "— sweeps run the proposed linearised state-space solver"
            )
        return ExecutionPlan(
            kind="sweep" if options.explore is None else "explore",
            scenario=study._scenario,
            options=options,
            sweep=study._sweep,
        )
    if study._compare_solvers:
        for solver in study._compare_solvers:
            _check_solver(solver)
        options.validate_for_compare()
        return ExecutionPlan(
            kind="compare",
            scenario=study._scenario,
            options=options,
            compare_solvers=tuple(study._compare_solvers),
            solver_kwargs=dict(study._solver_kwargs),
        )
    _check_solver(study._solver)
    options.validate_for_single_run()
    return ExecutionPlan(
        kind="single",
        scenario=study._scenario,
        options=options,
        solver=study._solver,
        solver_kwargs=dict(study._solver_kwargs),
    )


def _check_solver(solver: str) -> None:
    if solver not in SOLVERS:
        raise ConfigurationError(
            f"unknown solver {solver!r}; choose from {SOLVERS}"
        )


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #
def execute(plan_: ExecutionPlan):
    """Carry out a plan; returns the matching typed result wrapper."""
    if plan_.kind == "single":
        return _execute_single(
            plan_.scenario, plan_.options, plan_.solver, plan_.solver_kwargs
        )
    if plan_.kind == "compare":
        # the proposed-only knobs (integrator/settings/...) configure the
        # proposed leg; the other solver families run with their own
        # defaults plus any explicit solver kwargs
        stripped = plan_.options.replace(
            integrator=None,
            settings=None,
            relinearise_interval=None,
        )
        legs = []
        for solver in plan_.compare_solvers:
            options = plan_.options if solver == "proposed" else stripped
            kwargs = {} if solver == "proposed" else plan_.solver_kwargs
            legs.append((solver, options, kwargs))
        return ComparisonResult(_execute_compare_legs(plan_.scenario, legs))
    if plan_.kind == "sweep":
        return execute_sweep(plan_.sweep, plan_.options)
    if plan_.kind == "explore":
        return execute_explore(plan_.sweep, plan_.options)
    raise ConfigurationError(f"unknown plan kind {plan_.kind!r}")  # pragma: no cover


def _execute_compare_legs(scenario, legs) -> Dict[str, RunHandle]:
    """Run the legs of a comparison, fanned out across worker processes.

    The legs are independent single runs (typically one cheap proposed
    run next to an expensive Newton-Raphson baseline), so with
    ``n_workers > 1`` they run concurrently — each leg still goes through
    the cache-aware :func:`_execute_single`, so a warm store serves e.g.
    the baseline leg without simulating it.  Results are collected in
    comparison order regardless of completion order; non-picklable
    scenarios/options fall back to the serial loop, mirroring the sweep
    engine.
    """
    n_workers = legs[0][1].n_workers if legs else 1
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    parallel = n_workers > 1 and len(legs) > 1
    if parallel:
        try:
            pickle.dumps((scenario, legs))
        except Exception:
            warnings.warn(
                "comparison uses a non-picklable scenario/options; "
                "falling back to serial evaluation",
                stacklevel=2,
            )
            parallel = False
    if not parallel:
        return {
            solver: _execute_single(scenario, options, solver, kwargs)
            for solver, options, kwargs in legs
        }
    import multiprocessing as mp

    # fork (where available) shares the parent's loaded modules — worker
    # start-up is milliseconds instead of a fresh interpreter per leg
    context = None
    if "fork" in mp.get_all_start_methods():
        context = mp.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(legs)), mp_context=context
    ) as pool:
        futures = [
            (solver, pool.submit(_execute_single, scenario, options, solver, kwargs))
            for solver, options, kwargs in legs
        ]
        return {solver: future.result() for solver, future in futures}


def _single_run_cache(
    scenario, options: RunOptions, solver: str, solver_kwargs: Mapping[str, object]
):
    """The ``(store, key)`` addressing one single run in the result cache.

    The key digests the same resolved content an
    :class:`~repro.api.experiment.ExperimentSpec` would hash — the full
    serialised scenario, the execution fingerprint and the solver
    dispatch — so the fluent, declarative and CLI forms of one experiment
    all address the same entry.
    """
    from ..cache import ResultStore
    from .experiment import scenario_to_dict

    store = ResultStore(options.cache_dir)
    payload = {
        "kind": "single",
        "scenario": scenario_to_dict(scenario),
        "execution": options.fingerprint(),
        "solver": solver,
        "solver_kwargs": encode_value(dict(solver_kwargs)),
    }
    return store, store.key_for(payload)


def _load_cached_run(store, key: str, options: RunOptions) -> Optional[SimulationResult]:
    """Serve a single run from the store; corruption degrades to a miss."""
    try:
        return store.load_run(key)
    except CacheCorruptionError as exc:
        warnings.warn(f"ignoring corrupt cache entry: {exc}", stacklevel=2)
        if options.cache == "readwrite":
            try:
                store.drop(key)
            except OSError:
                pass  # an undeletable entry must not abort the run
        return None


def _execute_single(
    scenario, options: RunOptions, solver: str, solver_kwargs: Mapping[str, object]
) -> RunHandle:
    """One scenario on one solver family (cache-aware)."""
    store = cache_key = None
    if options.cache != "off":
        store, cache_key = _single_run_cache(scenario, options, solver, solver_kwargs)
        cached = _load_cached_run(store, cache_key, options)
        if cached is not None:
            cached.metadata["cache"] = "hit"
            return RunHandle(cached, scenario=scenario)
    if solver == "proposed":
        if solver_kwargs:
            # Study.solver rejects this eagerly; guard the direct path too
            raise ConfigurationError(
                "incoherent options: solver keyword arguments "
                f"{sorted(solver_kwargs)} with solver='proposed' — use "
                "RunOptions(integrator=..., settings=...) instead"
            )
        result = _simulate_proposed(
            scenario,
            integrator=options.integrator,
            settings=proposed_settings(
                scenario, options.settings, options.relinearise_interval
            ),
        )
    elif solver == "baseline":
        _reject_proposed_only_options(options, solver)
        _reject_unknown_solver_kwargs(solver_kwargs, solver)
        result = _simulate_baseline(scenario, **dict(solver_kwargs))
    else:  # reference — _check_solver already validated the name
        _reject_proposed_only_options(options, solver)
        _reject_unknown_solver_kwargs(solver_kwargs, solver)
        result = _simulate_reference(
            scenario, settings=dict(solver_kwargs).get("settings")
        )
    if store is not None:
        if options.cache == "readwrite":
            try:
                store.store_run(
                    cache_key,
                    result,
                    store_traces=options.store_traces,
                    label=f"{getattr(scenario, 'name', '')}/{solver}",
                )
            except OSError as exc:
                # never discard a finished simulation over a cache write
                warnings.warn(
                    f"result cache at {store.root} is unwritable ({exc}); "
                    "continuing without caching",
                    stacklevel=2,
                )
        result.metadata["cache"] = "miss"
    return RunHandle(result, scenario=scenario)


#: the keyword arguments each baseline solver family takes
_SOLVER_KWARGS = {
    "baseline": ("formula", "settings"),
    "reference": ("settings",),
}


def _reject_unknown_solver_kwargs(
    solver_kwargs: Mapping[str, object], solver: str
) -> None:
    """Name a keyword a baseline family does not take before building it,
    rather than fail inside the solver's constructor."""
    accepted = _SOLVER_KWARGS[solver]
    unknown = sorted(set(solver_kwargs) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"unknown keyword arguments {unknown} for the {solver} solver; "
            f"it takes {list(accepted)}"
        )


def _reject_proposed_only_options(options: RunOptions, solver: str) -> None:
    """The baseline solvers take their own settings via ``solver_kwargs``.

    Silently dropping the proposed solver's knobs would misreport what
    ran, so combining them with another solver family is rejected by
    name.
    """
    for knob, value in (
        ("integrator", options.integrator),
        ("settings", options.settings),
        ("relinearise_interval", options.relinearise_interval),
    ):
        if value is not None:
            raise ConfigurationError(
                f"incoherent options: {knob} with solver={solver!r} — this "
                "knob configures the proposed linearised state-space "
                "solver; pass baseline/reference settings through "
                "Study.solver(name, ...) keyword arguments instead"
            )


def execute_sweep(sweep, options: RunOptions) -> StudyResult:
    """A candidate grid through the sweep engine built from ``options``."""
    from ..analysis.engine import SweepEngine

    return StudyResult(SweepEngine(options).run(sweep))


def _build_strategy(sweep, options: RunOptions):
    """A fresh strategy instance for this (sweep, options) pair.

    Strategies are stateful (``observe`` advances them), so every
    execution — and every plan description — builds its own.
    """
    from ..explore import make_strategy

    if options.explore is None:
        raise ConfigurationError(
            "an exploration needs options.explore to name a strategy"
        )
    return make_strategy(
        options.explore,
        sweep.parameters,
        budget=options.budget,
        seed=options.seed,
    )


def execute_explore(sweep, options: RunOptions) -> ExplorationResult:
    """A budgeted search strategy over the sweep grid, through the engine.

    The exploration counterpart of :func:`execute_sweep`: builds the
    strategy named by ``options.explore`` (:mod:`repro.explore`) and
    drives it through :meth:`~repro.analysis.engine.SweepEngine.run_explore`
    — every engine feature (worker processes, batched lanes, checkpoints,
    the result cache) composes with every strategy unchanged.
    """
    from ..analysis.engine import SweepEngine

    strategy = _build_strategy(sweep, options)
    return ExplorationResult(SweepEngine(options).run_explore(sweep, strategy))
