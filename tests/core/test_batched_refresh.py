"""Batched refresh path: byte-identity and fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.blocks.microgenerator import ElectromagneticMicrogenerator
from repro.core.batch import BatchedSolver
from repro.core.block import LinearBlock, PreparedBlockLineariser
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError
from repro.core.linearise import linearise_block_lanes
from repro.core.netlist import Netlist
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings

from .test_compiled_kernels import (
    LANE_SETS,
    _assert_batches_identical,
    _assert_runs_identical,
    _batched_run,
    _fixed_settings,
    _scalar_run,
    _settings_for,
    stacked_scalar_refresh,
    stepwise_march,
)


def _stacked_run(scenarios, settings_list, **kwargs):
    with stacked_scalar_refresh():
        return _batched_run(scenarios, settings_list, **kwargs)


def _reference_run(scenarios, settings_list, **kwargs):
    """Single steps and stacked scalar refresh: both references at once."""
    with stepwise_march(), stacked_scalar_refresh():
        return _batched_run(scenarios, settings_list, **kwargs)


def _assert_lanes_are_scalar_runs(scenarios, settings_list, result):
    """Every lane is bitwise the candidate's LinearisedStateSpaceSolver run."""
    for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        _assert_runs_identical(_scalar_run(scenario, settings), result.results[i], i)


@pytest.mark.parametrize("factory", sorted(LANE_SETS))
class TestFixedStepByteIdentity:
    """A block's batched lineariser is a caching layer, not an alternative
    model: the run equals the stacked scalar refresh and each lane's
    scalar run."""

    def test_prepared_refresh_matches_per_lane_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _stacked_run(LANE_SETS[factory](), settings)
        result = _batched_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        _assert_batches_identical(reference, result)
        _assert_lanes_are_scalar_runs(scenarios, settings, result)

    def test_stepwise_march_matches_with_either_refresh(self, factory):
        # the block linearisers also back single steps, byte for byte
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _reference_run(LANE_SETS[factory](), settings)
        with stepwise_march():
            result = _batched_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        _assert_batches_identical(reference, result)
        _assert_lanes_are_scalar_runs(scenarios, settings, result)


class TestAdaptiveBursts:
    """Adaptive runs advance in multi-step kernel bursts."""

    def test_numpy_kernel_is_bitwise_reproducible(self):
        # the kernel replays the single-step expressions with each
        # lane's own step, so adaptive full-window bursts stay bitwise
        for factory in sorted(LANE_SETS):
            scenarios = LANE_SETS[factory]()
            settings = [
                replace(_settings_for(s), relinearise_interval=8)
                for s in scenarios
            ]
            reference = _reference_run(LANE_SETS[factory](), settings)
            result = _batched_run(LANE_SETS[factory](), settings)
            assert not reference.failures, factory
            _assert_batches_identical(reference, result)

    def test_adaptive_bursts_actually_engage(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        result = _batched_run(LANE_SETS["charging"](), settings)
        meta = result.results[0].metadata
        assert meta["kernel_time_s"] > 0.0
        assert meta["refresh_time_s"] > 0.0


class TestLaneRetirement:
    """A compacted clone from select() binds its own refresh."""

    def test_per_lane_end_times_keep_identity(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        t_end = [0.008, 0.014, 0.02]
        reference = _stacked_run(
            LANE_SETS["charging"](), settings, t_end=t_end
        )
        result = _batched_run(LANE_SETS["charging"](), settings, t_end=t_end)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_diverging_lane_retires_identically(self):
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        settings[1] = replace(settings[1], divergence_limit=1e-9)
        reference = _stacked_run(LANE_SETS["charging"](), settings)
        result = _batched_run(LANE_SETS["charging"](), settings)
        assert set(result.failures) == {1}
        _assert_batches_identical(reference, result)


# --------------------------------------------------------------------- #
# fallback paths: blocks without (working) batched linearisers
# --------------------------------------------------------------------- #

class _UnpreparedBlock(LinearBlock):
    """A block without a batched lineariser: its lanes' scalar
    ``linearise`` is stacked on every refresh."""

    def batched_lineariser(self, lanes):
        return None


def _mixed_netlist_assembler(
    block_cls, gain: float, sink_cls=LinearBlock
) -> SystemAssembler:
    decay = block_cls(
        "decay",
        a=np.array([[-1.0, 0.2], [0.0, -1.5]]),
        b=np.array([[0.0], [0.3]]),
        state_names=("u", "v"),
        terminal_names=("p",),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )
    sink = sink_cls(
        "sink",
        a=np.array([[-2.0 * gain]]),
        b=np.array([[0.5]]),
        state_names=("w",),
        terminal_names=("p",),
    )
    netlist = Netlist()
    netlist.add_block(decay)
    netlist.add_block(sink)
    netlist.connect(decay.terminal("p"), sink.terminal("p"))
    return SystemAssembler(netlist)


class TestFallbackEquivalence:
    GAINS = (0.8, 1.0, 1.3)

    def _run(self, block_cls):
        assemblers = [
            _mixed_netlist_assembler(block_cls, g) for g in self.GAINS
        ]
        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=8)
        solver = BatchedSolver(assemblers, settings=[settings] * len(assemblers))
        x0 = np.tile(np.array([1.0, -0.5, 0.25]), (len(assemblers), 1))
        return solver.run([0.05] * len(assemblers), x0=x0)

    def _stacked(self, block_cls):
        with stacked_scalar_refresh():
            return self._run(block_cls)

    def test_linear_block_prepared_path_matches_generic(self):
        reference = self._stacked(LinearBlock)
        result = self._run(LinearBlock)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_group_without_batched_lineariser_falls_back_per_group(self):
        # "decay" returns None from batched_lineariser: its group stacks
        # its lanes' scalar linearise on every refresh while "sink" keeps
        # its lineariser — the mixed workspace must still be byte-identical
        reference = self._stacked(_UnpreparedBlock)
        result = self._run(_UnpreparedBlock)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_all_refused_batch_is_each_lanes_scalar_run(self):
        # no group has a batched lineariser: every refresh stacks scalar
        # linearisations through the workspace, and each lane is still
        # bitwise its scalar solver's run
        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=4)
        x0 = np.array([1.0, -0.5, 0.25])

        def assemblers():
            return [
                _mixed_netlist_assembler(_UnpreparedBlock, g, _UnpreparedBlock)
                for g in self.GAINS
            ]

        solver = BatchedSolver(assemblers(), settings=[settings] * len(self.GAINS))
        batch = solver.run(0.05, x0=np.tile(x0, (len(self.GAINS), 1)))
        assert not batch.failures
        for i, assembler in enumerate(assemblers()):
            scalar = LinearisedStateSpaceSolver(assembler, settings=settings).run(
                0.05, x0=x0
            )
            _assert_runs_identical(scalar, batch.results[i], i)


class TestPreparedBlockLineariserContract:
    def test_linear_block_prepared_matches_scalar_linearise(self):
        block = LinearBlock(
            "decay",
            a=np.array([[-1.0, 0.2], [0.0, -1.5]]),
            b=np.array([[0.0], [0.3]]),
            state_names=("u", "v"),
            terminal_names=("p",),
            c=np.array([[1.0, 0.0]]),
            d=np.array([[1.0]]),
        )
        lanes = [block, block]
        prepared = block.batched_lineariser(lanes)
        assert isinstance(prepared, PreparedBlockLineariser)
        x = np.array([[0.5, -0.25], [1.0, 2.0]])
        y = np.array([[0.125], [-0.5]])
        t = np.array([0.01, 0.02])
        fast = prepared.lineariser(t, x, y)
        stacked = linearise_block_lanes(lanes, t, x, y)
        for field in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
            assert np.array_equal(getattr(fast, field), getattr(stacked, field))

    def test_default_block_offers_no_prepared_lineariser(self):
        block = _UnpreparedBlock(
            "decay",
            a=np.array([[-1.0]]),
            b=np.array([[0.0]]),
            state_names=("u",),
            terminal_names=("p",),
            c=np.array([[1.0]]),
            d=np.array([[1.0]]),
        )
        assert block.batched_lineariser([block]) is None

    def test_constant_names_must_be_linearisation_fields(self):
        with pytest.raises(ConfigurationError, match="'jzz'"):
            PreparedBlockLineariser(lineariser=lambda t, x, y: None, constant=("jxx", "jzz"))


class TestSolverReusability:
    def test_rerun_after_a_control_write_rebinds_the_refresh(self):
        # a run binds the refresh afresh: after a tuning-force write the
        # second run matches a fresh solver's, not the first run's held
        # Jacobians
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        t_end = [s.duration_s for s in scenarios]

        def build():
            harvesters = [s.build_harvester() for s in scenarios]
            solver = BatchedSolver(
                [h.assembler for h in harvesters], settings=settings
            )
            for i, harvester in enumerate(harvesters):
                harvester._wire(solver.lane_wiring(i))
            return solver, harvesters

        def retune(harvesters):
            for harvester in harvesters:
                for block in harvester.assembler.blocks:
                    if isinstance(block, ElectromagneticMicrogenerator):
                        block.apply_control("tuning_force", 2.0)

        solver, harvesters = build()
        first = solver.run(t_end)
        _assert_batches_identical(first, solver.run(t_end))
        retune(harvesters)
        rerun = solver.run(t_end)
        fresh_solver, fresh_harvesters = build()
        retune(fresh_harvesters)
        _assert_batches_identical(fresh_solver.run(t_end), rerun)
        assert not np.array_equal(
            first.results[0]["generator.z"].values,
            rerun.results[0]["generator.z"].values,
        )
