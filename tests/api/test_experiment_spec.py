"""Round-trip contract of the declarative experiment layer.

Pins the PR-5 tentpole: a Study and its serialised ExperimentSpec are the
same experiment — through plain dicts, JSON and TOML files, factory and
inline scenario forms — producing identical execution plans and equal
content hashes, with process-local objects and custom callables rejected
by name instead of silently dropped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    ExperimentSpec,
    RunOptions,
    Study,
    charging_scenario,
    scenario_1,
)
from repro.api.experiment import SweepAxis, SweepSpec, scenario_from_dict
from repro.baselines import ImplicitSolverSettings, ReferenceSolverSettings
from repro.core.errors import ConfigurationError
from repro.core.integrators import AdamsBashforth, Trapezoidal
from repro.core.solver import SolverSettings
from repro.core.spec import BlockSpec
from repro.harvester.scenarios import Scenario
from repro.harvester.topologies import (
    SpecScenario,
    generator_variants,
    piezoelectric_scenario,
)
from repro.io import load_experiment, save_experiment


def assert_plans_equal(study_a, study_b):
    """Two studies plan the same execution."""
    plan_a, plan_b = study_a.plan(), study_b.plan()
    assert plan_a.kind == plan_b.kind
    assert plan_a.describe() == plan_b.describe()
    assert plan_a.scenario == plan_b.scenario
    assert plan_a.solver == plan_b.solver
    assert dict(plan_a.solver_kwargs) == dict(plan_b.solver_kwargs)
    assert plan_a.compare_solvers == plan_b.compare_solvers
    assert plan_a.options.to_dict() == plan_b.options.to_dict()
    if plan_a.kind == "sweep":
        assert plan_a.sweep.parameters == plan_b.sweep.parameters
        assert plan_a.sweep.metric_name == plan_b.sweep.metric_name
        assert plan_a.sweep.metric is plan_b.sweep.metric


def through_dict(spec: ExperimentSpec) -> ExperimentSpec:
    """dict -> JSON text -> dict -> spec (the strictest in-memory path)."""
    return ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


# ---------------------------------------------------------------------- #
# scenario serialisation
# ---------------------------------------------------------------------- #
def test_scenario_dict_round_trip_is_lossless():
    scenario = scenario_1(duration_s=1.5)
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario
    assert rebuilt.to_dict() == scenario.to_dict()


def test_spec_scenario_dict_round_trip_is_lossless():
    scenario = piezoelectric_scenario(duration_s=0.1)
    rebuilt = SpecScenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario


def test_scenario_dict_rejects_unknown_fields():
    data = charging_scenario(0.1).to_dict()
    data["surprise"] = 1
    with pytest.raises(ConfigurationError, match="surprise"):
        Scenario.from_dict(data)


def test_scenario_factory_form_resolves():
    scenario = scenario_from_dict({"factory": "charging", "duration_s": 0.25})
    assert scenario == charging_scenario(duration_s=0.25)


def test_scenario_factory_unknown_name_and_kwargs_are_named():
    with pytest.raises(ConfigurationError, match="nope.*charging"):
        scenario_from_dict({"factory": "nope"})
    with pytest.raises(ConfigurationError, match="charging.*bogus"):
        scenario_from_dict({"factory": "charging", "bogus": 1})


# ---------------------------------------------------------------------- #
# options serialisation
# ---------------------------------------------------------------------- #
def test_run_options_round_trip_with_integrator_and_settings():
    options = RunOptions(
        integrator=AdamsBashforth(order=3),
        settings=SolverSettings(record_interval=2e-3, relinearise_interval=4),
        relinearise_interval=4,
        n_workers=2,
        cache="read",
        cache_dir="/tmp/somewhere",
    )
    rebuilt = RunOptions.from_dict(json.loads(json.dumps(options.to_dict())))
    assert rebuilt.to_dict() == options.to_dict()
    assert rebuilt.settings == options.settings
    assert rebuilt.integrator.order == 3
    assert rebuilt.fingerprint() == options.fingerprint()


def test_run_options_to_dict_omits_defaults():
    assert RunOptions().to_dict() == {}


def test_run_options_rejects_process_local_objects():
    with pytest.raises(ConfigurationError, match="progress"):
        RunOptions(progress=lambda *a: None, n_workers=2).to_dict()


def test_run_options_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="warp_factor"):
        RunOptions.from_dict({"warp_factor": 9})


# ---------------------------------------------------------------------- #
# experiment round trips: dict / JSON / TOML -> identical plans
# ---------------------------------------------------------------------- #
def test_single_run_spec_round_trips_to_identical_plan():
    study = Study.scenario(charging_scenario(duration_s=0.1))
    spec = study.to_spec(name="single")
    assert_plans_equal(study, Study.from_spec(through_dict(spec)))


def test_solver_and_compare_specs_round_trip():
    baseline = Study.scenario(charging_scenario(0.1)).solver(
        "baseline", max_iterations=40
    )
    assert_plans_equal(baseline, Study.from_spec(through_dict(baseline.to_spec())))

    compare = Study.scenario(charging_scenario(0.1)).compare("proposed", "baseline")
    assert_plans_equal(compare, Study.from_spec(through_dict(compare.to_spec())))


@pytest.mark.parametrize("extension", ["json", "toml"])
def test_sweep_spec_file_round_trip(tmp_path, extension):
    study = (
        Study.scenario(scenario_1(duration_s=0.5))
        .options(
            RunOptions(
                integrator=AdamsBashforth(order=2),
                relinearise_interval=2,
                n_workers=2,
            )
        )
        .sweep(
            {
                "initial_tuned_frequency_hz": [69.0, 70.0],
                "excitation_amplitude_ms2": [0.4, 0.59],
            }
        )
    )
    spec = study.to_spec(name="tuning")
    path = tmp_path / f"exp.{extension}"
    save_experiment(spec, str(path))
    loaded = load_experiment(str(path))
    assert loaded.content_hash() == spec.content_hash()
    assert_plans_equal(study, Study.from_spec(loaded))


@pytest.mark.parametrize("extension", ["json", "toml"])
def test_topology_axis_spec_file_round_trip(tmp_path, extension):
    variants = generator_variants(70.0)
    study = (
        Study.scenario(piezoelectric_scenario(duration_s=0.05))
        .options(RunOptions.batched(lane_width=4))
        .sweep(
            {
                "generator": [
                    variants["electromagnetic"],
                    variants["piezoelectric"],
                ]
            }
        )
    )
    spec = study.to_spec()
    path = tmp_path / f"topo.{extension}"
    save_experiment(spec, str(path))
    loaded = load_experiment(str(path))
    assert loaded.content_hash() == spec.content_hash()
    values = loaded.sweep.axes[0].values
    assert all(isinstance(value, BlockSpec) for value in values)
    assert_plans_equal(study, Study.from_spec(loaded))


def test_factory_and_inline_forms_hash_identically(tmp_path):
    path = tmp_path / "factory.toml"
    path.write_text(
        "[scenario]\nfactory = \"charging\"\nduration_s = 0.25\n"
    )
    factory_form = load_experiment(str(path))
    fluent_form = Study.scenario(charging_scenario(duration_s=0.25)).to_spec()
    assert factory_form.content_hash() == fluent_form.content_hash()


def table1_baseline_study():
    """The Table I Newton-Raphson leg with its settings given explicitly."""
    return Study.scenario(charging_scenario(0.02)).solver(
        "baseline",
        formula=Trapezoidal,
        settings=ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3),
    )


def reference_study():
    return Study.scenario(charging_scenario(0.02)).solver(
        "reference",
        settings=ReferenceSolverSettings(rtol=1e-7, atol=1e-9, record_interval=2e-3),
    )


@pytest.mark.parametrize(
    "study_factory", [table1_baseline_study, reference_study], ids=["nr", "reference"]
)
def test_baseline_settings_spec_round_trips(tmp_path, study_factory):
    study = study_factory()
    spec = study.to_spec(name="leg")
    loaded = through_dict(spec)
    assert loaded.content_hash() == spec.content_hash()
    assert loaded.solver_kwargs == spec.solver_kwargs
    assert_plans_equal(study, Study.from_spec(loaded))

    path = tmp_path / "leg.toml"
    save_experiment(spec, str(path))
    assert load_experiment(str(path)).content_hash() == spec.content_hash()


def test_table1_baseline_example_is_the_fluent_study():
    path = Path(__file__).parents[2] / "examples" / "experiments" / "table1_baseline.toml"
    spec = load_experiment(str(path))
    assert spec.content_hash() == table1_baseline_study().to_spec().content_hash()


def test_baseline_settings_decode_in_a_fresh_interpreter():
    # nothing but ``import repro`` has run: loading the file must register
    # the baseline settings classes itself
    spec = table1_baseline_study().to_spec()
    code = (
        "import json, sys\n"
        "from repro import ExperimentSpec\n"
        "spec = ExperimentSpec.from_dict(json.loads(sys.stdin.read()))\n"
        "print(spec.content_hash())\n"
    )
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    python_path = os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        input=spec.to_json(),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=python_path),
        check=True,
    )
    assert fresh.stdout.strip() == spec.content_hash()


@pytest.mark.parametrize(
    "study_factory, removed",
    [
        (table1_baseline_study, "use_analytic_jacobian"),
        (table1_baseline_study, "newton_tolerance"),
        (table1_baseline_study, "max_newton_iterations"),
        (table1_baseline_study, "step_halving_attempts"),
        (reference_study, "parasitic_conductance_s"),
    ],
)
def test_removed_baseline_setting_is_rejected_by_name(study_factory, removed):
    data = study_factory().to_spec().to_dict()
    data["solver_kwargs"]["settings"][removed] = 1
    with pytest.raises(ConfigurationError, match=removed):
        ExperimentSpec.from_dict(data)


# ---------------------------------------------------------------------- #
# content-hash semantics
# ---------------------------------------------------------------------- #
def test_content_hash_ignores_scheduling_knobs():
    base = Study.scenario(charging_scenario(0.1))
    fast = base.options(n_workers=4)
    cached = base.options(cache="readwrite", cache_dir="/tmp/x")
    assert base.to_spec().content_hash() == fast.to_spec().content_hash()
    assert base.to_spec().content_hash() == cached.to_spec().content_hash()


def test_content_hash_tracks_result_affecting_knobs():
    base = Study.scenario(charging_scenario(0.1)).to_spec()
    longer = Study.scenario(charging_scenario(0.2)).to_spec()
    held = (
        Study.scenario(charging_scenario(0.1))
        .options(relinearise_interval=4)
        .to_spec()
    )
    assert base.content_hash() != longer.content_hash()
    assert base.content_hash() != held.content_hash()


# ---------------------------------------------------------------------- #
# loud rejections
# ---------------------------------------------------------------------- #
def test_experiment_dict_rejects_unknown_fields():
    spec = Study.scenario(charging_scenario(0.1)).to_spec()
    data = spec.to_dict()
    data["frobnicate"] = True
    with pytest.raises(ConfigurationError, match="frobnicate"):
        ExperimentSpec.from_dict(data)


def test_custom_metric_has_no_declarative_form():
    study = Study.scenario(charging_scenario(0.1)).sweep(
        {"excitation_frequency_hz": [66.0, 70.0]},
        metric=lambda result: 1.0,
    )
    with pytest.raises(ConfigurationError, match="named metric"):
        study.to_spec()


def test_unknown_sweep_metric_is_rejected():
    with pytest.raises(ConfigurationError, match="harvested_energy"):
        SweepSpec(
            axes=(SweepAxis("excitation_frequency_hz", (66.0,)),),
            metric="frobnication_index",
        )


def test_sweep_and_compare_are_incoherent():
    spec = (
        Study.scenario(charging_scenario(0.1))
        .sweep({"excitation_frequency_hz": [66.0, 70.0]})
        .to_spec()
    )
    with pytest.raises(ConfigurationError, match="compare"):
        ExperimentSpec(
            scenario=spec.scenario,
            sweep=spec.sweep,
            compare=("proposed", "baseline"),
        )


def test_save_experiment_rejects_unknown_extensions(tmp_path):
    spec = Study.scenario(charging_scenario(0.1)).to_spec()
    with pytest.raises(ConfigurationError, match="json"):
        save_experiment(spec, str(tmp_path / "exp.yaml"))
