"""The march kernel: lane independence, byte-identity, guard overflow."""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro import Study
from repro.blocks.microcontroller import ControllerSettings
from repro.core import batch, elimination, kernels, stepper
from repro.core.batch import BatchedSolver, BatchResult
from repro.core.block import LinearBlock
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, StabilityError
from repro.core.kernels import (
    available_backends,
    batched_state_norms,
    resolve_compiled,
)
from repro.core.netlist import Netlist
from repro.core.solver import SolverSettings
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_2,
    scenario_solver_settings,
)
from repro.harvester.topologies import (
    electrostatic_scenario,
    piezoelectric_scenario,
)


def _staggered_events(measurement_s):
    """Scenario 1 with a millisecond controller: the measurement ends,
    tuning starts and completes at lane-specific times, each a
    model-changing write landing inside the other lanes' march."""
    base = scenario_1(duration_s=0.03, shift_time_s=0.001)
    controller = ControllerSettings(
        watchdog_period_s=0.01,
        measurement_duration_s=measurement_s,
        tuning_poll_interval_s=0.0035,
        wake_voltage_v=3.0,
        abort_voltage_v=1.0,
    )
    return replace(base, config=replace(base.config, controller=controller))


# one lane set per SCENARIO_FACTORIES entry (same topology per set, a
# varied parameter across lanes so the stacked march is not degenerate),
# plus one whose digital events land at different times per lane
LANE_SETS = {
    "scenario_1": lambda: [
        scenario_1(duration_s=0.02, shift_time_s=t) for t in (0.005, 0.01)
    ],
    "scenario_2": lambda: [
        scenario_2(duration_s=0.02, shift_time_s=t) for t in (0.005, 0.01)
    ],
    "charging": lambda: [
        charging_scenario(duration_s=0.02, frequency_hz=f)
        for f in (66.0, 70.0, 75.0)
    ],
    "piezoelectric_charging": lambda: [
        piezoelectric_scenario(duration_s=0.01, excitation_frequency_hz=f)
        for f in (60.0, 70.0)
    ],
    "electrostatic_charging": lambda: [
        electrostatic_scenario(duration_s=0.01, excitation_frequency_hz=f)
        for f in (50.0, 70.0)
    ],
    "staggered_events": lambda: [
        _staggered_events(m) for m in (0.004, 0.0041, 0.0071)
    ],
}


def _one_step_kernels(backend):
    """The march kernel capped at one step per call."""
    kernel = kernels.get_march_kernel(backend)

    def one_step(a, b, x, t, h_held, t_end, max_steps, *rest):
        return kernel(a, b, x, t, h_held, t_end, 1, *rest)

    return one_step


@contextmanager
def stepwise_march():
    """Reference march: every step taken one at a time.

    With the kernel capped at one step the batched loop makes every
    refresh decision, record and divergence check between single steps —
    the reference every multi-step burst must reproduce.
    """
    with mock.patch.object(batch, "get_march_kernel", _one_step_kernels):
        yield


@contextmanager
def stacked_scalar_refresh():
    """Reference refresh: every block group refuses its batched lineariser.

    Each group then stacks its lanes' scalar ``linearise`` through the
    same workspace and rebuilds every field on every refresh — the
    reference each block's ``batched_lineariser`` and its constant
    declaration must reproduce.
    """
    with mock.patch.object(elimination, "fast_path_counts", lambda blocks: False):
        yield


def _batched_run(scenarios, settings_list, t_end=None):
    harvesters = [s.build_harvester() for s in scenarios]
    solver = BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        digital_kernels=[h._build_kernel() for h in harvesters],
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    if t_end is None:
        t_end = [s.duration_s for s in scenarios]
    return solver.run(t_end)


def _stepwise_run(scenarios, settings_list, **kwargs):
    with stepwise_march():
        return _batched_run(scenarios, settings_list, **kwargs)


def _assert_runs_identical(ref, got, i=0):
    """One lane's traces (in the same order) and step statistics are
    bitwise equal."""
    assert list(ref.traces) == list(got.traces)
    for name in ref.traces:
        assert np.array_equal(ref[name].times, got[name].times), (
            f"lane {i} {name}: times differ"
        )
        assert np.array_equal(ref[name].values, got[name].values), (
            f"lane {i} {name}: values differ"
        )
    for key in (
        "n_steps",
        "n_accepted_steps",
        "n_function_evaluations",
        "n_jacobian_evaluations",
        "n_linear_solves",
        "min_step",
        "max_step",
        "final_time",
    ):
        assert getattr(ref.stats, key) == getattr(got.stats, key), (
            f"lane {i} stats.{key} differs"
        )
    for key in ("n_jacobian_reuses", "lle_flagged_steps", "digital_activations"):
        assert ref.metadata.get(key) == got.metadata.get(key), (
            f"lane {i} metadata {key} differs"
        )
    assert (
        got.metadata["lle_max_jacobian_change"]
        == ref.metadata["lle_max_jacobian_change"]
    ), f"lane {i} metadata lle_max_jacobian_change differs"


def _assert_batches_identical(reference, result):
    assert set(reference.failures) == set(result.failures)
    for i, (ref, got) in enumerate(zip(reference.results, result.results)):
        assert (ref is None) == (got is None)
        if ref is not None:
            _assert_runs_identical(ref, got, i)


def _fixed_settings(scenarios, fixed_step, **overrides):
    return [
        replace(
            scenario_solver_settings(s)
            if hasattr(s, "config")
            else s.solver_settings(),
            fixed_step=fixed_step,
            **overrides,
        )
        for s in scenarios
    ]


def _two_block_assembler(rate):
    """A 3-state linear netlist: ``decay`` (eigenvalue ``rate``) + ``sink``."""
    decay = LinearBlock(
        "decay",
        a=np.array([[rate, 0.0], [0.0, rate]]),
        b=np.array([[0.0], [0.0]]),
        state_names=("u", "v"),
        terminal_names=("p",),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )
    sink = LinearBlock(
        "sink",
        a=np.array([[-2.0]]),
        b=np.array([[0.5]]),
        state_names=("w",),
        terminal_names=("p",),
    )
    netlist = Netlist()
    netlist.add_block(decay)
    netlist.add_block(sink)
    netlist.connect(decay.terminal("p"), sink.terminal("p"))
    return SystemAssembler(netlist)


def _settings_for(scenario):
    if hasattr(scenario, "config"):
        return scenario_solver_settings(scenario)
    return scenario.solver_settings()


def _scalar_run(scenario, settings):
    """The candidate alone on LinearisedStateSpaceSolver, via the facade."""
    return Study.scenario(scenario).options(settings=settings).run().result


#: solver profiles the lane-independence contract is checked under
PROFILES = {
    "adaptive_interval_1": lambda s: _settings_for(s),
    "adaptive_interval_4": lambda s: replace(
        _settings_for(s), relinearise_interval=4
    ),
    # a long hold ends only at its budget or a control write, so bursts
    # run the whole eight-step window
    "adaptive_interval_8": lambda s: replace(
        _settings_for(s), relinearise_interval=8
    ),
    "fixed_step": lambda s: replace(
        _settings_for(s), fixed_step=1e-4 if hasattr(s, "config") else 5e-5
    ),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("factory", sorted(LANE_SETS))
def test_each_lane_is_its_own_run(factory, profile):
    """A lane's run never depends on its lane-mates.

    Every lane of a packed run equals the same lane marched alone
    (``B = 1``) bitwise — traces, step statistics and Jacobian reuses —
    and the scalar solver's run, digital events included.
    """
    scenarios = LANE_SETS[factory]()
    settings_list = [PROFILES[profile](s) for s in scenarios]
    packed = _batched_run(scenarios, settings_list)
    assert not packed.failures
    for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        alone = _batched_run([scenario], [settings]).results[0]
        _assert_runs_identical(alone, packed.results[i], i)
        _assert_runs_identical(
            _scalar_run(scenario, settings), packed.results[i], i
        )


def test_activation_restarts_the_lane_drift_monitor(monkeypatch):
    """A model-changing activation resets that lane's LLE monitor, as
    the scalar solver's does: with a tolerance every refresh exceeds, the
    flagged count is the refreshes since the lane's last activation."""
    monkeypatch.setattr(stepper, "LLE_TOLERANCE", 1e-12)
    scenarios = LANE_SETS["staggered_events"]()
    settings_list = [_settings_for(s) for s in scenarios]
    packed = _batched_run(scenarios, settings_list)
    for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        scalar = _scalar_run(scenario, settings)
        got = packed.results[i]
        assert 0 < got.metadata["lle_flagged_steps"] < got.stats.n_jacobian_evaluations
        _assert_runs_identical(scalar, got, i)


@pytest.mark.parametrize("factory", sorted(LANE_SETS))
class TestFixedStepByteIdentity:
    def test_bursts_match_stepwise_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings_list = [
            replace(_settings_for(s), fixed_step=step) for s in scenarios
        ]
        reference = _stepwise_run(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_hold_interval_matches_stepwise_exactly(self, factory):
        # the amortised profile is where the burst kernel actually runs
        # long windows; identity must survive it
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings_list = [
            replace(_settings_for(s), fixed_step=step, relinearise_interval=8)
            for s in scenarios
        ]
        reference = _stepwise_run(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list)
        assert not reference.failures
        _assert_batches_identical(reference, result)


class TestAdaptiveIdentity:
    @pytest.mark.parametrize("factory", ("charging", "staggered_events"))
    def test_numpy_kernel_matches_stepwise_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        settings_list = [_settings_for(s) for s in scenarios]
        reference = _stepwise_run(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_hold_profile_adaptive_matches_stepwise_exactly(self):
        scenarios = LANE_SETS["charging"]()
        settings_list = [
            replace(_settings_for(s), relinearise_interval=16)
            for s in scenarios
        ]
        reference = _stepwise_run(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list)
        assert not reference.failures
        _assert_batches_identical(reference, result)


class TestLaneRetirement:
    def test_diverging_lane_is_retired_under_kernel_bursts(self):
        scenarios = LANE_SETS["charging"]()
        settings_list = _fixed_settings(scenarios, 1e-4)
        settings_list[1] = replace(settings_list[1], divergence_limit=1e-9)
        reference = _stepwise_run(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list)
        assert set(result.failures) == {1}
        assert result.results[1] is None
        _assert_batches_identical(reference, result)

    def test_lane_overflowing_inside_a_burst_retires_alone(self):
        # lane 1 starts near 1e300 on an unstable model and overflows to
        # inf partway through a hold window; the unbounded divergence
        # limit leaves non-finiteness as the only trip.  The kernel checks
        # the guard after every step, so the burst retires the lane at
        # the very step the step-by-step march does.
        rates = (-1.0, 500.0, -3.0)
        x0 = np.array([[1.0, -0.5, 0.25], [1e300, 1e300, 0.0], [0.5, 0.5, 0.5]])
        settings = SolverSettings(
            fixed_step=1e-3,
            relinearise_interval=8,
            divergence_limit=np.inf,
            record_interval=0.01,
        )
        bursts = []
        build_kernel = batch.get_march_kernel

        def recording_kernels(backend):
            kernel = build_kernel(backend)

            def record(*args):
                burst = kernel(*args)
                bursts.append(burst)
                return burst

            return record

        def run(lanes):
            solver = BatchedSolver(
                [_two_block_assembler(rates[i]) for i in lanes],
                settings=settings,
            )
            return solver.run(0.06, x0=x0[list(lanes)])

        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(batch, "get_march_kernel", recording_kernels):
                result = run((0, 1, 2))
            with stepwise_march():
                stepwise = run((0, 1, 2))
            healthy = run((0, 2))

        assert set(result.failures) == {1}
        assert isinstance(result.failures[1], StabilityError)
        tripped = [b for b in bursts if b.diverged is not None]
        assert len(tripped) == 1
        burst = tripped[0]
        assert burst.diverged.tolist() == [False, True, False]
        assert burst.steps > 1  # the overflow came inside a multi-step burst
        assert f"t={burst.t[1]:.6g} " in str(result.failures[1])
        # same failure time and step as the step-by-step guard
        assert set(stepwise.failures) == {1}
        assert str(stepwise.failures[1]) == str(result.failures[1])
        survivors = BatchResult(results=[result.results[0], result.results[2]])
        _assert_batches_identical(healthy, survivors)
        _assert_batches_identical(
            BatchResult(results=[stepwise.results[0], stepwise.results[2]]),
            survivors,
        )


class TestBackendResolution:
    def test_off_resolves_to_the_numpy_kernel(self):
        assert resolve_compiled("off") == "numpy"

    def test_auto_resolves_to_the_numpy_kernel(self):
        assert resolve_compiled("auto") == "numpy"

    def test_numpy_is_always_available(self):
        assert available_backends() == ("numpy",)

    @pytest.mark.parametrize("mode", ("cuda", "numpy", "numba"))
    def test_unknown_mode_is_rejected(self, mode):
        from repro.api import RunOptions

        with pytest.raises(ConfigurationError, match="unknown compiled mode"):
            resolve_compiled(mode)
        with pytest.raises(ConfigurationError, match="unknown compiled mode"):
            RunOptions.batched(compiled=mode)


class TestOptionsPlumbing:
    def test_compiled_is_not_a_run_options_field(self):
        # only the batched profile takes the mode, and drops it
        from repro.api import RunOptions

        with pytest.raises(TypeError, match="compiled"):
            RunOptions(compiled="auto")

    def test_fingerprint_ignores_lane_width_and_mode(self):
        # every batched lane is bitwise its scalar run, so lane widths and
        # kernel modes share one fingerprint (and one cache)
        from repro.api import RunOptions

        default = RunOptions().fingerprint()
        for options in (
            RunOptions(lane_width=1),
            RunOptions.batched(lane_width=1, compiled="auto"),
            RunOptions.batched(compiled="auto"),
        ):
            assert options.fingerprint() == default
        assert default["backend"] == "process"
        assert default["compiled"] == "off"

    def test_batched_profile_drops_the_mode(self):
        from repro.api import RunOptions

        options = RunOptions.batched(compiled="auto")
        assert options == RunOptions.batched()
        assert "compiled" not in options.to_dict()


def _march_inputs(depth, events, seed=0, order=3, b=4, n=3):
    """Random one-step kernel inputs: lane 2 trips the divergence guard,
    lane 1 steps short onto its end time, lane 3 onto its next event.
    The window's newest ``depth`` samples are drawn; any older slot is
    NaN, which no step may read."""
    rng = np.random.default_rng(seed)
    a = -np.eye(n) + 0.3 * rng.standard_normal((b, n, n))
    x = rng.standard_normal((b, n))
    t = rng.uniform(0.1, 10.0, size=b)
    h_held = rng.uniform(1e-4, 3e-4, size=b)
    t_end = t + 1.0
    t_end[1] = t[1] + 0.5 * h_held[1]
    t_event = np.full(b, np.inf)
    t_event[3] = t[3] + 0.25 * h_held[3]
    window_t = np.full((b, order), np.nan)
    window_f = np.full((b, order, n), np.nan)
    for k in range(depth, 0, -1):
        window_t[:, order - k] = t - k * h_held
        window_f[:, order - k] = rng.standard_normal((b, n))
    guard = np.full(b, 1e6)
    guard[2] = 1e-9
    return dict(
        a=a,
        b=rng.standard_normal((b, n)),
        x=x,
        t=t,
        h_held=h_held,
        t_end=t_end,
        max_steps=1,
        window_t=window_t,
        window_f=window_f,
        rec_last=np.full(b, np.nan),
        rec_thresh=np.full(b, -np.inf),
        guard=guard,
        t_event=t_event if events else None,
    )


def _bytes(value):
    return None if value is None else np.ascontiguousarray(value).tobytes()


class TestOneStepPath:
    """A one-step kernel call is the general burst loop at K = 1."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("events", [False, True], ids=["no_events", "events"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["short_window", "full_window"])
    def test_one_step_path_is_the_burst_loop_bitwise(self, order, events, extra):
        # each path shifts its own copy of the window in place
        one_inputs = _march_inputs(order - 1 + extra, events, order=order)
        loop_inputs = _march_inputs(order - 1 + extra, events, order=order)
        one = kernels._march_numpy(**one_inputs)
        loop = kernels._march_burst(**loop_inputs)
        assert one.steps == loop.steps == 1
        for name in ("x", "x_prev", "t", "h_min", "h_max", "h_last", "diverged"):
            assert _bytes(getattr(one, name)) == _bytes(getattr(loop, name)), name
        assert one.diverged is not None and one.diverged.tolist() == [
            False, False, True, False
        ]
        for name in ("window_t", "window_f"):
            assert _bytes(one_inputs[name]) == _bytes(loop_inputs[name]), name
            # the step's sample entered and the NaN slot, if any, left
            assert not np.isnan(one_inputs[name]).any(), name
        assert one.records == loop.records == []

    def test_one_step_calls_take_the_direct_path(self):
        inputs = _march_inputs(2, events=True)
        with mock.patch.object(kernels, "_march_burst") as burst:
            kernels.get_march_kernel("numpy")(**inputs)
        burst.assert_not_called()


class TestOverflowSafeGuard:
    def test_infinite_limit_still_trips_on_a_non_finite_state(self):
        # the march clamps each lane's limit once per run: an infinite
        # limit must still retire a lane whose state is not finite, and
        # keep one whose plain norm overflows while its true norm is finite
        x = np.array([[np.inf, 1.0], [np.nan, 0.0], [1e200, 1e200], [3.0, 4.0]])
        guard = kernels.divergence_guard(np.full(4, np.inf))
        assert kernels.diverged_lanes(x, guard).tolist() == [True, True, False, False]
        assert kernels.diverged_lanes(x[2:], guard[2:]) is None

    def test_norms_survive_components_above_1e154(self):
        x = np.array([[1e200, 1e200], [3.0, 4.0], [np.inf, 1.0]])
        norms = batched_state_norms(x)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-12)
        assert norms[1] == 5.0  # safe range stays the plain expression
        assert np.isinf(norms[2])  # genuinely non-finite states still trip

    def test_large_finite_state_is_not_mislabelled_as_diverged(self):
        # before the fix, sqrt(sum(x*x)) overflowed to inf above ~1e154
        # and the guard retired a lane whose true norm was representable
        settings = SolverSettings(fixed_step=1e-3, divergence_limit=1e300)
        solver = BatchedSolver([_two_block_assembler(-1.0)], settings=[settings])
        x0 = np.array([[1e155, 1e155, 0.0]])
        result = solver.run([0.01], x0=x0)
        assert not result.failures  # decaying, finite: must not be retired
        assert result.results[0].stats.final_time == pytest.approx(0.01)
