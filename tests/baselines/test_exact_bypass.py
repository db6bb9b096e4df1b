"""Newton-Raphson and reference runs with the exact-device bypass against
runs that evaluate every device afresh.

The bypass (the Dickson multiplier's diode memo and the microgenerator's
cached Eq. (13) stamps) may only skip work: every trace and every
``SolverStats`` count must be the bytes of a run with both disabled.  The
``scenario_1`` run retunes the generator mid-run, so it also exercises
the stamp invalidation.  The last tests pin the scipy-free package import.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.baselines.implicit_solver import ImplicitSolverSettings
from repro.blocks.diode import ShockleyDiode
from repro.blocks.microgenerator import ElectromagneticMicrogenerator
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.integrators import BackwardEuler, Trapezoidal
from repro.harvester.scenarios import charging_scenario, scenario_1


@pytest.fixture
def fresh_devices(monkeypatch):
    """Disable the bypass: every diode solved, every stamp rebuilt."""

    def fresh_currents(self, vd):
        if not self._use_exact:
            return np.array([self.companion_table.branch_current(float(v)) for v in vd])
        return np.array([self._diode.current(float(v)) for v in vd])

    cached_stamps = ElectromagneticMicrogenerator._stamps

    def fresh_stamps(self):
        self._stamp_cache = None
        return cached_stamps(self)

    def disable():
        monkeypatch.setattr(DicksonMultiplier, "_diode_currents", fresh_currents)
        monkeypatch.setattr(ElectromagneticMicrogenerator, "_stamps", fresh_stamps)

    return disable


@pytest.fixture
def diode_solves(monkeypatch):
    solves = []
    real_solve = ShockleyDiode._solve

    def counting_solve(self, v):
        solves.append(v)
        return real_solve(self, v)

    monkeypatch.setattr(ShockleyDiode, "_solve", counting_solve)
    return solves


def stats_fields(stats):
    fields = dataclasses.asdict(stats)
    del fields["cpu_time_s"]
    return fields


def assert_same_run(got, want):
    assert stats_fields(got.stats) == stats_fields(want.stats)
    assert sorted(got.traces) == sorted(want.traces)
    for name in want.traces:
        assert got.traces[name].times.tobytes() == want.traces[name].times.tobytes()
        assert got.traces[name].values.tobytes() == want.traces[name].values.tobytes(), name


def run_baseline(scenario, **solver_kwargs):
    harvester = scenario.build_harvester()
    solver = harvester.build_baseline_solver(**solver_kwargs)
    return harvester, solver.run(scenario.duration_s)


@pytest.mark.parametrize("formula", [Trapezoidal, BackwardEuler], ids=lambda f: f.name)
def test_bypassed_newton_run_equals_fresh_evaluation(formula, fresh_devices):
    _, bypassed = run_baseline(charging_scenario(0.004), formula=formula)
    fresh_devices()
    _, fresh = run_baseline(charging_scenario(0.004), formula=formula)
    assert_same_run(bypassed, fresh)


def test_bypassed_newton_run_with_retuning_equals_fresh_evaluation(fresh_devices):
    # the controller wakes at 1 s, measures and writes a new tuning force
    scenario = scenario_1(duration_s=1.25, shift_time_s=0.02)
    settings = ImplicitSolverSettings(step_size=2e-3)
    harvester, bypassed = run_baseline(scenario, settings=settings)
    initial_force = scenario.build_harvester().block("generator").tuning_force
    assert harvester.block("generator").tuning_force != initial_force
    fresh_devices()
    _, fresh = run_baseline(scenario, settings=settings)
    assert_same_run(bypassed, fresh)


def test_bypassed_reference_run_equals_fresh_evaluation(fresh_devices):
    scenario = charging_scenario(0.004)
    bypassed = repro.Study.scenario(scenario).solver("reference").run().result
    fresh_devices()
    fresh = repro.Study.scenario(scenario).solver("reference").run().result
    assert_same_run(bypassed, fresh)


def test_table1_newton_leg_solves_a_quarter_of_the_diodes(diode_solves, fresh_devices):
    # the Table I leg: 0.02 s of charging, trapezoidal, 0.2 ms steps
    scenario = charging_scenario(0.02)
    settings = ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3)
    run_baseline(scenario, settings=settings)
    bypassed = len(diode_solves)
    assert bypassed <= 4000
    fresh_devices()
    del diode_solves[:]
    run_baseline(scenario, settings=settings)
    assert len(diode_solves) >= 4 * bypassed


def python_path():
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    return os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )


def test_importing_the_baselines_leaves_scipy_integrate_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.baselines\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=python_path()),
        check=True,
    )
    assert fresh.stdout.strip() == "False"
