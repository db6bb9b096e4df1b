"""Batched refresh path: byte-identity and fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import BatchedSolver
from repro.core.block import LinearBlock, PreparedBlockLineariser
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError
from repro.core.netlist import Netlist
from repro.core.solver import SolverSettings
from repro.harvester.scenarios import prepare_assembly

from .test_compiled_kernels import (
    LANE_SETS,
    _assert_batches_identical,
    _batched_run,
    _fixed_settings,
    _settings_for,
    stepwise_march,
    unprepared_refresh,
)


def _unprepared_run(scenarios, settings_list, **kwargs):
    with unprepared_refresh():
        return _batched_run(scenarios, settings_list, **kwargs)


def _reference_run(scenarios, settings_list, **kwargs):
    """Single steps and per-lane refresh: both references at once."""
    with stepwise_march(), unprepared_refresh():
        return _batched_run(scenarios, settings_list, **kwargs)


@pytest.mark.parametrize("factory", sorted(LANE_SETS))
class TestFixedStepByteIdentity:
    """The prepared refresh is a caching layer, not an alternative model."""

    def test_prepared_refresh_matches_per_lane_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _unprepared_run(LANE_SETS[factory](), settings)
        result = _batched_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        for ref, got in zip(reference.results, result.results):
            assert ref.metadata["batched_refresh"] is False
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)

    def test_drift_guard_matches_per_lane_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(
            scenarios, step, relinearise_interval=8,
            relinearise_state_rtol=1e-6,
        )
        reference = _unprepared_run(LANE_SETS[factory](), settings)
        result = _batched_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_stepwise_march_matches_with_either_refresh(self, factory):
        # the prepared workspace path also backs single steps, byte for
        # byte
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _reference_run(LANE_SETS[factory](), settings)
        with stepwise_march():
            result = _batched_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        for got in result.results:
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)


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
    """select() must propagate the prepared workspace to compacted clones."""

    def test_per_lane_end_times_keep_identity(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        t_end = [0.008, 0.014, 0.02]
        reference = _unprepared_run(
            LANE_SETS["charging"](), settings, t_end=t_end
        )
        result = _batched_run(LANE_SETS["charging"](), settings, t_end=t_end)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_diverging_lane_retires_identically(self):
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        settings[1] = replace(settings[1], divergence_limit=1e-9)
        reference = _unprepared_run(LANE_SETS["charging"](), settings)
        result = _batched_run(LANE_SETS["charging"](), settings)
        assert set(result.failures) == {1}
        _assert_batches_identical(reference, result)


# --------------------------------------------------------------------- #
# fallback paths: blocks without (working) batched linearisers
# --------------------------------------------------------------------- #

class _UnpreparedBlock(LinearBlock):
    """A block that opts out of the prepared batched refresh."""

    def batched_lineariser(self, lanes):
        return None


def _mixed_netlist_assembler(block_cls, gain: float) -> SystemAssembler:
    decay = block_cls(
        "decay",
        a=np.array([[-1.0, 0.2], [0.0, -1.5]]),
        b=np.array([[0.0], [0.3]]),
        state_names=("u", "v"),
        terminal_names=("p",),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )
    sink = LinearBlock(
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

    def _unprepared(self, block_cls):
        with unprepared_refresh():
            return self._run(block_cls)

    def test_linear_block_prepared_path_matches_generic(self):
        reference = self._unprepared(LinearBlock)
        result = self._run(LinearBlock)
        assert not reference.failures
        for got in result.results:
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)

    def test_group_without_batched_lineariser_falls_back_per_group(self):
        # "decay" returns None from batched_lineariser: its group runs
        # the generic per-refresh dispatch while "sink" stays prepared —
        # the mixed workspace must still be byte-identical
        reference = self._unprepared(_UnpreparedBlock)
        result = self._run(_UnpreparedBlock)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_fully_unprepared_batch_runs_generic(self):
        # the solver unprepares when no group offers a batched lineariser

        class AllUnprepared(_UnpreparedBlock):
            pass

        def build():
            decay = AllUnprepared(
                "decay",
                a=np.array([[-1.0]]),
                b=np.array([[0.0]]),
                state_names=("u",),
                terminal_names=("p",),
                c=np.array([[1.0]]),
                d=np.array([[1.0]]),
            )
            sink = AllUnprepared(
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

        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=4)
        solver = BatchedSolver([build(), build()], settings=[settings] * 2)
        batch = solver.run([0.02, 0.02], x0=np.ones((2, 2)))
        assert not batch.failures
        assert batch.results[0].metadata["batched_refresh"] is False


class TestPreparedBlockLineariserContract:
    def test_linear_block_prepared_matches_linearise_batch(self):
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
        generic = block.linearise_batch(lanes, t, x, y)
        for field in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
            assert np.array_equal(getattr(fast, field), getattr(generic, field))

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
    def test_run_leaves_no_prepared_state_behind(self):
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        structure = prepare_assembly(scenarios[0])
        harvesters = [
            s.build_harvester(assembly_structure=structure) for s in scenarios
        ]
        solver = BatchedSolver([h.assembler for h in harvesters], settings=settings)
        for i, harvester in enumerate(harvesters):
            harvester._wire(solver.lane_wiring(i))
        first = solver.run([s.duration_s for s in scenarios])
        assert solver.batched_assembler.prepared is False
        second = solver.run([s.duration_s for s in scenarios])
        _assert_batches_identical(first, second)
