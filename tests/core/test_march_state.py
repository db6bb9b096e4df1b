"""Lock-in tests for the batched march's lean per-step state.

The batched march keeps three pieces of state that stand in for values
it used to recompute every step, each bitwise what it replaces:

* **kept reference norms** -- each lane's LLE reference (its previous
  fresh Jacobian) and its controller's bound matrix carry the Frobenius
  norm taken when they were stored, so a refresh's drift stack holds the
  two differences and the fresh matrix, not the references again;
* **the stacked Adams-Bashforth window** -- persistent ``(B, k)`` sample
  times and ``(B, k, n)`` derivatives, shifted oldest-first in place;
* **a plain-int step counter** -- every active lane takes the same number
  of steps, so one Python int counts them for every lane.

Each test drives the real march and checks the state against its oracle:
two ``relative_jacobian_drift`` calls, the scalar run's own integrator
history, and the scalar run's ``SolverStats``.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import batch, stepper
from repro.core.integrators import AdamsBashforth
from repro.core.stepper import BatchedStepController, relative_jacobian_drift
from repro.harvester.scenarios import charging_scenario

from .test_compiled_kernels import (
    LANE_SETS,
    _assert_runs_identical,
    _batched_run,
    _scalar_run,
    _settings_for,
)


def _norms(m):
    return np.array([np.linalg.norm(lane) for lane in m])


@pytest.mark.parametrize("profile", ["adaptive", "fixed_step"])
def test_kept_norm_drifts_are_two_relative_drifts_bitwise(profile, monkeypatch):
    """Every drift the march measures is the ``relative_jacobian_drift``
    of its fresh matrices against the reference it scales by a kept norm,
    across controller resets (model-changing activations), partial-due
    refreshes (per-lane hold budgets) and lane retirements (staggered end
    times); each lane stays bitwise its scalar run."""
    scenarios = LANE_SETS["staggered_events"]()
    settings_list = []
    for scenario, interval in zip(scenarios, (1, 3, 4)):
        settings = replace(_settings_for(scenario), relinearise_interval=interval)
        if profile == "fixed_step":
            settings = replace(settings, fixed_step=1e-4)
        settings_list.append(settings)
    t_end = [0.02, 0.025, 0.03]
    seen = Counter()
    drifts = stepper.jacobian_drifts

    def checked_drifts(a, *references):
        *figures, norms = drifts(a, *references)
        for (reference, _), figure in zip(references, figures):
            assert figure.tobytes() == relative_jacobian_drift(a, reference).tobytes()
        assert np.array_equal(norms, _norms(a))
        seen["calls"] += 1
        seen[f"lanes={a.shape[0]}"] += 1
        return (*figures, norms)

    controller_drifts = BatchedStepController.drifts
    controller_reset = BatchedStepController.reset
    select = batch._LaneArrays.select

    def counted_drifts(self, a_reduced, reference, reference_norm, lanes=None):
        seen["partial" if lanes is not None else "every"] += 1
        return controller_drifts(self, a_reduced, reference, reference_norm, lanes)

    def counted_reset(self, lanes=None):
        if lanes is not None:
            seen["reset"] += 1
        return controller_reset(self, lanes)

    def counted_select(self, keep):
        seen["retire"] += 1
        return select(self, keep)

    monkeypatch.setattr(stepper, "jacobian_drifts", checked_drifts)
    monkeypatch.setattr(batch, "jacobian_drifts", checked_drifts)
    monkeypatch.setattr(BatchedStepController, "drifts", counted_drifts)
    monkeypatch.setattr(BatchedStepController, "reset", counted_reset)
    monkeypatch.setattr(batch._LaneArrays, "select", counted_select)
    packed = _batched_run(scenarios, settings_list, t_end=t_end)
    monkeypatch.undo()

    assert not packed.failures
    # two lanes retired before the last, which refreshed alone
    assert seen["retire"] == 2 and seen["lanes=3"] and seen["lanes=1"], seen
    if profile == "adaptive":
        assert seen["partial"] and seen["every"] and seen["reset"], seen
    for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        alone = _scalar_run(replace(scenario, duration_s=t_end[i]), settings)
        _assert_runs_identical(alone, packed.results[i], i)


def test_stacked_window_is_the_scalar_window_bitwise(monkeypatch):
    """At every kernel call each lane's stacked window holds, newest
    last, exactly the samples its scalar run's Adams-Bashforth history
    holds before the same step: the same times and derivative bytes, in
    the same order, including a lane whose model-changing activation
    restarted its window while its lane-mates kept theirs."""
    scenarios = LANE_SETS["staggered_events"]()
    settings_list = [_settings_for(s) for s in scenarios]
    order = AdamsBashforth(order=3).order

    # the scalar oracle: each lane's history before each of its steps
    scalar_history = [{} for _ in scenarios]
    lane = 0
    step = AdamsBashforth.step

    def recording_step(self, func, t, x, h, state=None):
        scalar_history[lane][t] = list(state.history)
        return step(self, func, t, x, h, state)

    monkeypatch.setattr(AdamsBashforth, "step", recording_step)
    scalar = []
    for lane, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        scalar.append(_scalar_run(scenario, settings))
    monkeypatch.undo()

    solver_box = []
    build_kernel = batch.get_march_kernel
    checks = Counter()

    def checking_kernels(backend):
        kernel = build_kernel(backend)

        def checked(*args):
            live = solver_box[0]._live
            if live.t.shape[0] < len(scenarios):
                # a lane finished: the rows no longer index the scenarios
                return kernel(*args)
            depths = []
            for row, t_row in enumerate(live.t.tolist()):
                history = scalar_history[row][t_row]
                depth = len(history)
                depths.append(depth)
                times = np.array([sample_t for sample_t, _ in history])
                samples = np.array([sample_f for _, sample_f in history])
                newest = slice(order - depth, order)
                assert live.window_t[row, newest].tobytes() == times.tobytes()
                assert live.window_f[row, newest].tobytes() == samples.tobytes()
            checks["calls"] += 1
            if min(depths) < order - 1 < max(depths):
                checks["restart_mid_window"] += 1
            return kernel(*args)

        return checked

    harvesters = [s.build_harvester() for s in scenarios]
    solver = batch.BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        digital_kernels=[h._build_kernel() for h in harvesters],
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    solver_box.append(solver)
    monkeypatch.setattr(batch, "get_march_kernel", checking_kernels)
    packed = solver.run([s.duration_s for s in scenarios])

    assert not packed.failures
    assert checks["calls"] > 100 and checks["restart_mid_window"], checks
    for i, alone in enumerate(scalar):
        _assert_runs_identical(alone, packed.results[i], i)


def test_int_step_counter_gives_scalar_stats_at_staggered_finishes():
    """Lanes that finish at different steps each report their scalar
    run's step counts: the one shared counter reads each lane's steps at
    its own finalisation."""
    scenarios = [
        charging_scenario(duration_s=d, frequency_hz=f)
        for d, f in ((0.006, 66.0), (0.011, 70.0), (0.017, 75.0))
    ]
    for profile in (
        lambda s: _settings_for(s),
        lambda s: replace(_settings_for(s), relinearise_interval=3),
    ):
        settings_list = [profile(s) for s in scenarios]
        packed = _batched_run(scenarios, settings_list)
        assert not packed.failures
        steps = [result.stats.n_steps for result in packed.results]
        assert steps == sorted(steps) and len(set(steps)) == 3
        for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
            alone = _scalar_run(scenario, settings)
            assert alone.stats.n_steps == steps[i]
            _assert_runs_identical(alone, packed.results[i], i)
