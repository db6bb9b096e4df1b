"""API-surface snapshot: pins ``repro.__all__``, the facade exports and
the ``RunOptions`` fields.

A name leaving (or silently joining) the top-level namespace is an API
break, and a new ``RunOptions`` field is a new execution knob; these
tests force either change to be deliberate — update the snapshot below
*and* the README/DESIGN docs together.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro
import repro.api
import repro.baselines

#: the pinned public surface of the top-level ``repro`` namespace
EXPECTED_ALL = [
    # public API facade (the canonical entry layer)
    "Study",
    "RunOptions",
    "RunHandle",
    "StudyResult",
    "ExplorationResult",
    "ComparisonResult",
    # declarative experiments + result cache
    "ExperimentSpec",
    "ResultStore",
    "load_experiment",
    "save_experiment",
    # core engine
    "BLOCK_REGISTRY",
    "AdamsBashforth",
    "AnalogueBlock",
    "BlockSpec",
    "ConnectionSpec",
    "ControllerSpec",
    "ForwardEuler",
    "LinearisedStateSpaceSolver",
    "Netlist",
    "RungeKutta2",
    "RungeKutta4",
    "SimulationResult",
    "SingularLaneError",
    "SolverSettings",
    "SystemAssembler",
    "SystemBuilder",
    "SystemSpec",
    "Trace",
    "make_integrator",
    # analysis / sweeps
    "EngineRunInfo",
    "ParameterSweep",
    "SweepEngine",
    "SweepPoint",
    "SweepResult",
    "sweep_excitation_frequency",
    # harvester system + scenarios
    "HarvesterConfig",
    "Scenario",
    "SpecScenario",
    "charging_scenario",
    "default_solver_settings",
    "electrostatic_scenario",
    "electrostatic_spec",
    "generator_variants",
    "paper_harvester",
    "paper_spec",
    "paper_system",
    "piezoelectric_scenario",
    "piezoelectric_spec",
    "scenario_1",
    "scenario_2",
    "__version__",
]


#: the pinned execution knobs, in declaration order
EXPECTED_RUN_OPTIONS_FIELDS = (
    "integrator",
    "settings",
    "relinearise_interval",
    "lane_width",
    "n_workers",
    "progress",
    "cache",
    "cache_dir",
    "store_traces",
    "explore",
    "budget",
    "seed",
)


def test_top_level_all_is_pinned():
    assert repro.__all__ == EXPECTED_ALL


def test_run_options_fields_are_pinned():
    fields = tuple(field.name for field in dataclasses.fields(repro.RunOptions))
    assert fields == EXPECTED_RUN_OPTIONS_FIELDS
    assert len(fields) == 12


#: the solver's settable values: none of them is honoured by only one of
#: the scalar and the batched solver
EXPECTED_SOLVER_SETTINGS_FIELDS = (
    "step_control",
    "fixed_step",
    "record_interval",
    "divergence_limit",
    "relinearise_interval",
)


def test_solver_settings_fields_are_pinned():
    fields = tuple(field.name for field in dataclasses.fields(repro.SolverSettings))
    assert fields == EXPECTED_SOLVER_SETTINGS_FIELDS


#: the step controller's settable values: the step bounds only; the
#: policy between them is module constants of repro.core.stepper
EXPECTED_STEP_CONTROL_FIELDS = ("h_initial", "h_min", "h_max")


def test_step_control_settings_fields_are_pinned():
    fields = tuple(
        field.name for field in dataclasses.fields(repro.core.StepControlSettings)
    )
    assert fields == EXPECTED_STEP_CONTROL_FIELDS


#: the baselines' settable values; the Newton policies are module
#: constants (implicit_solver's NEWTON_TOLERANCE, MAX_NEWTON_ITERATIONS and
#: STEP_HALVING_ATTEMPTS, mna's NEWTON_TOLERANCE and MAX_NEWTON_ITERATIONS)
EXPECTED_BASELINE_SETTINGS_FIELDS = {
    "ImplicitSolverSettings": ("step_size", "record_interval"),
    "TransientSettings": ("step_size", "record_interval"),
    "ReferenceSolverSettings": (
        "method",
        "rtol",
        "atol",
        "max_step",
        "record_interval",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_BASELINE_SETTINGS_FIELDS))
def test_baseline_settings_fields_are_pinned(name):
    cls = getattr(repro.baselines, name)
    fields = tuple(field.name for field in dataclasses.fields(cls))
    assert fields == EXPECTED_BASELINE_SETTINGS_FIELDS[name]


def test_newton_solve_parameters_are_pinned():
    assert tuple(inspect.signature(repro.baselines.newton_solve).parameters) == (
        "residual",
        "initial_guess",
        "jacobian",
        "tolerance",
        "max_iterations",
        "raise_on_failure",
    )


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_previously_unreachable_result_types_are_exported():
    # the satellite fix of PR 4: these used to require deep imports
    from repro import EngineRunInfo, SingularLaneError, SweepPoint, SweepResult

    assert SweepPoint is repro.analysis.sweep.SweepPoint
    assert SweepResult is repro.analysis.sweep.SweepResult
    assert EngineRunInfo is repro.analysis.engine.EngineRunInfo
    assert SingularLaneError is repro.core.errors.SingularLaneError


def test_api_package_surface():
    assert repro.api.__all__ == [
        "Study",
        "RunOptions",
        "RunHandle",
        "StudyResult",
        "ExplorationResult",
        "ComparisonResult",
        "ExecutionPlan",
        "ExperimentSpec",
        "SweepAxis",
        "SweepSpec",
        "SOLVERS",
        "CACHE_MODES",
        "execution_fingerprint",
    ]
    for name in repro.api.__all__:
        assert hasattr(repro.api, name)
    # the top-level re-exports are the same objects
    assert repro.Study is repro.api.Study
    assert repro.RunOptions is repro.api.RunOptions


#: every ``repro`` module with no ``_``-prefixed part in its dotted name
PUBLIC_MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not any(part.startswith("_") for part in info.name.split("."))
]


def test_module_walk_finds_the_public_modules():
    assert len(PUBLIC_MODULES) > 40
    assert "repro.api.options" in PUBLIC_MODULES
    assert not any("._" in name for name in PUBLIC_MODULES)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_module_declares_a_resolvable_all(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert isinstance(exported, (list, tuple)), (
        f"{module_name} must define __all__ as a list or tuple"
    )
    for name in exported:
        assert isinstance(name, str), (module_name, name)
        assert hasattr(module, name), (
            f"{module_name}.__all__ lists missing name {name!r}"
        )
