"""The column recorder's three probe forms: column, model and row probes.

Column probes are evaluated once per lane over its recorded columns, model
probes are sampled at lane start and after each of the lane's activations,
and any other callable is called for every due record row.  Every form
records bitwise what the same probe records called row by row, on every
state-space solver: the scalar solver, the Newton-Raphson baseline, the
reference solver and batched lanes.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.implicit_solver import ImplicitNewtonSolver, ImplicitSolverSettings
from repro.baselines.reference import ReferenceSolver
from repro.blocks.microcontroller import ControllerSettings
from repro.blocks.supercapacitor import Supercapacitor
from repro.blocks.vibration import (
    FrequencyStep,
    MultiToneVibrationSource,
    VibrationSource,
)
from repro.core.batch import BatchedSolver
from repro.core.builder import SystemBuilder
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.probes import (
    ModelProbe,
    PowerProbe,
    SourceFrequencyProbe,
    StateProbe,
    TerminalProbe,
)
from repro.core.solver import LinearisedStateSpaceSolver
from repro.core.spec import ProbeSpec
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_solver_settings,
)
from repro.harvester.system import _StoredEnergyProbe
from repro.harvester.topologies import piezoelectric_spec

COLUMN_PROBES = (
    TerminalProbe,
    PowerProbe,
    StateProbe,
    SourceFrequencyProbe,
    _StoredEnergyProbe,
)


def _fast_scenario_1(measurement_s):
    """Scenario 1 with a millisecond controller, so it measures, retunes
    (moving the actuator and the resonant frequency) within the run."""
    base = scenario_1(duration_s=0.03, shift_time_s=0.001)
    controller = ControllerSettings(
        watchdog_period_s=0.01,
        measurement_duration_s=measurement_s,
        tuning_poll_interval_s=0.0035,
        wake_voltage_v=3.0,
        abort_voltage_v=1.0,
    )
    return replace(base, config=replace(base.config, controller=controller))


def _mixed_lanes():
    """Builder-wired lanes of one topology: two open-loop charging runs
    and two closed-loop Scenario 1 runs whose controllers activate."""
    return [
        charging_scenario(duration_s=0.02, frequency_hz=66.0),
        _fast_scenario_1(0.004),
        charging_scenario(duration_s=0.02, frequency_hz=75.0),
        _fast_scenario_1(0.0071),
    ]


def _settings(scenarios):
    return [
        replace(scenario_solver_settings(s), relinearise_interval=k)
        for s, k in zip(scenarios, (1, 4, 4, 1))
    ]


def _batched(scenarios, settings_list, extra_probe=None):
    harvesters = [s.build_harvester() for s in scenarios]
    solver = BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        digital_kernels=[h._build_kernel() for h in harvesters],
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
        if extra_probe is not None:
            solver.add_probe(i, "user", extra_probe)
    return solver.run([s.duration_s for s in scenarios])


def _scalar(scenario, settings, extra_probe=None):
    solver = scenario.build_harvester().build_solver(settings=settings)
    if extra_probe is not None:
        solver.add_probe("user", extra_probe)
    return solver.run(scenario.duration_s)


def _assert_identical(ref, got, context):
    assert list(ref.traces) == list(got.traces), context
    for name in ref.traces:
        assert np.array_equal(ref[name].times, got[name].times), (
            f"{context} {name}: times differ"
        )
        assert np.array_equal(ref[name].values, got[name].values), (
            f"{context} {name}: values differ"
        )


def _count_calls(monkeypatch, classes):
    """Count the row-wise ``__call__`` of each probe class."""
    calls = Counter()
    for cls in classes:
        original = cls.__call__

        def counted(self, t, x, y, _original=original, _cls=cls):
            calls[_cls] += 1
            return _original(self, t, x, y)

        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def _user_probe(t, x, y):
    return float(t * x[0] + y[1])


class TestProbeForms:
    def test_only_row_probes_are_called_per_record_row(self, monkeypatch):
        scenarios = _mixed_lanes()
        calls = _count_calls(monkeypatch, COLUMN_PROBES + (ModelProbe,))
        rounds = Counter()
        run_due = DigitalEventKernel.run_due

        def counted_run_due(kernel, t, analogue):
            rounds["run_due"] += 1
            return run_due(kernel, t, analogue)

        monkeypatch.setattr(DigitalEventKernel, "run_due", counted_run_due)
        user_calls = Counter()

        def user_probe(t, x, y):
            user_calls["user"] += 1
            return _user_probe(t, x, y)

        batch = _batched(scenarios, _settings(scenarios), extra_probe=user_probe)
        assert not batch.failures
        for cls in COLUMN_PROBES:
            assert calls[cls] == 0, f"{cls.__name__} called per record row"
        # resonant_frequency, load_resistance and actuator_gap, sampled
        # once at lane start and once after each activation round
        n_models = 3
        assert rounds["run_due"] > 0
        assert calls[ModelProbe] == n_models * (len(scenarios) + rounds["run_due"])
        # the plain callable is called for every due row of every lane
        assert user_calls["user"] == sum(len(r["user"]) for r in batch.results)
        for result in batch.results:
            assert np.array_equal(
                result["user"].times, result["storage_voltage"].times
            )

    def test_every_probe_form_records_like_the_scalar_run(self):
        scenarios = _mixed_lanes()
        settings_list = _settings(scenarios)
        batch = _batched(scenarios, settings_list, extra_probe=_user_probe)
        assert not batch.failures
        for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
            scalar = _scalar(scenario, settings, extra_probe=_user_probe)
            _assert_identical(scalar, batch.results[i], f"lane {i}")
        # the Scenario 1 lanes' model probes moved with their controllers
        for i in (1, 3):
            for name in ("actuator_gap", "resonant_frequency"):
                assert len(set(batch.results[i][name].values.tolist())) > 1


class _SilentTagger(DigitalProcess):
    """Bumps a probed block attribute every 3 ms and writes no control,
    so its ``run_due`` reports no model change."""

    def __init__(self, block):
        super().__init__("tagger", start_time=0.0025)
        self.block = block

    def execute(self, t, analogue):
        self.block.tag += 1.0
        return 0.003


def _tagged_system(frequency_hz):
    """A spec-built system with an ``attr`` probe of ``storage.tag``."""
    spec = piezoelectric_spec(excitation_frequency_hz=frequency_hz)
    spec = replace(
        spec, probes=spec.probes + (ProbeSpec("tag", "attr", "storage", ("tag",)),)
    )
    built = SystemBuilder(spec).build()
    storage = built.block("storage")
    storage.tag = 0.0
    kernel = DigitalEventKernel()
    kernel.add_process(_SilentTagger(storage))
    return built, kernel


@pytest.mark.parametrize("relinearise_interval", [1, 4])
def test_silent_attribute_write_reaches_the_attr_trace(relinearise_interval):
    frequencies = (60.0, 70.0)
    duration = 0.012
    systems = [_tagged_system(f) for f in frequencies]
    settings_list = [
        replace(built.default_solver_settings(), relinearise_interval=relinearise_interval)
        for built, _ in systems
    ]
    solver = BatchedSolver(
        [built.assembler for built, _ in systems],
        settings=settings_list,
        digital_kernels=[kernel for _, kernel in systems],
    )
    for i, (built, _) in enumerate(systems):
        built._wire(solver.lane_wiring(i))
    batch = solver.run(duration)
    assert not batch.failures
    for i, (frequency, settings) in enumerate(zip(frequencies, settings_list)):
        built, kernel = _tagged_system(frequency)
        scalar_solver = LinearisedStateSpaceSolver(
            built.assembler, settings=settings, digital_kernel=kernel
        )
        built._wire(scalar_solver)
        scalar = scalar_solver.run(duration)
        got = batch.results[i]
        _assert_identical(scalar, got, f"lane {i}")
        tag = got["tag"]
        # activations at 2.5, 5.5, 8.5 and 11.5 ms, each seen from the
        # first sample at or after it
        assert tag.values.tolist()[0] == 0.0
        assert tag.final() == 4.0
        first = int(np.argmax(tag.values == 1.0))
        assert tag.times[first] >= 0.0025 > tag.times[first - 1]


def _column_probes():
    stepped = VibrationSource(
        70.0,
        0.6,
        steps=[
            FrequencyStep(0.01, 71.0),
            FrequencyStep(0.01, 72.0),
            FrequencyStep(0.02, 69.0),
        ],
    )
    return [
        TerminalProbe(2),
        PowerProbe(0, 3),
        StateProbe(5),
        # one vectorised segment lookup, and the per-row fallback
        SourceFrequencyProbe(stepped),
        SourceFrequencyProbe(MultiToneVibrationSource([(60.0, 0.2), (70.0, 0.5)])),
        _StoredEnergyProbe(Supercapacitor(), slice(6, 9)),
    ]


@pytest.mark.parametrize("probe", _column_probes(), ids=lambda p: type(p).__name__)
def test_column_form_is_bitwise_the_row_calls(probe):
    rng = np.random.default_rng(7)
    times = np.concatenate([[-1.0, 0.0, 0.01, 0.02], rng.uniform(0.0, 0.05, 200)])
    states = rng.normal(scale=3.0, size=(times.size, 9))
    nets = rng.normal(scale=1e-3, size=(times.size, 4))
    expected = [
        probe(t, x, y) for t, x, y in zip(times.tolist(), states, nets)
    ]
    assert probe.columns(times, states, nets).tolist() == expected


class _TwiceWired:
    """Wiring proxy that registers every probe twice: in its own form, and
    wrapped as a plain row probe under ``<name>:row``."""

    def __init__(self, solver):
        self._solver = solver

    def add_probe(self, name, probe):
        self._solver.add_probe(name, probe)
        self._solver.add_probe(f"{name}:row", lambda t, x, y: probe(t, x, y))

    def __getattr__(self, attr):
        return getattr(self._solver, attr)


def _scalar_kind(kind, harvester, settings):
    kernel = harvester._build_kernel()
    if kind == "scalar":
        return LinearisedStateSpaceSolver(
            harvester.assembler, settings=settings, digital_kernel=kernel
        )
    if kind == "newton":
        return ImplicitNewtonSolver(
            harvester.assembler,
            settings=ImplicitSolverSettings(step_size=2e-4),
            digital_kernel=kernel,
        )
    return ReferenceSolver(harvester.assembler, digital_kernel=kernel)


def _twice_wired_runs(kind, scenarios):
    """Each scenario on solver ``kind``, every probe registered twice."""
    harvesters = [s.build_harvester() for s in scenarios]
    settings_list = _settings(scenarios)
    if kind == "lanes":
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=settings_list,
            digital_kernels=[h._build_kernel() for h in harvesters],
        )
        for i, harvester in enumerate(harvesters):
            harvester._wire(_TwiceWired(solver.lane_wiring(i)))
        batch = solver.run([s.duration_s for s in scenarios])
        assert not batch.failures
        return batch.results
    results = []
    for scenario, harvester, settings in zip(scenarios, harvesters, settings_list):
        solver = _scalar_kind(kind, harvester, settings)
        harvester._wire(_TwiceWired(solver))
        results.append(solver.run(scenario.duration_s))
    return results


@pytest.mark.parametrize("kind", ["scalar", "newton", "reference", "lanes"])
def test_every_probe_form_records_like_its_row_wise_call(kind):
    # charging runs and the activating Scenario 1, each lane's probes
    # paired with their row-wise wrappers
    scenarios = _mixed_lanes()
    for i, result in enumerate(_twice_wired_runs(kind, scenarios)):
        names = [n[: -len(":row")] for n in result.traces if n.endswith(":row")]
        assert {"actuator_gap", "stored_energy", "storage_voltage"} <= set(names)
        for name in names:
            form, row = result[name], result[f"{name}:row"]
            assert form.times.tobytes() == row.times.tobytes(), (kind, i, name)
            assert form.values.tobytes() == row.values.tobytes(), (kind, i, name)
        if i in (1, 3):
            # the model probes moved with the controller's activations
            for name in ("actuator_gap", "resonant_frequency"):
                assert len(set(result[name].values.tolist())) > 1, (kind, i, name)
