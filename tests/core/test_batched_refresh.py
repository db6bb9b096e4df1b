"""Batched refresh path: byte-identity, fallbacks, fused elimination."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import BatchedSolver
from repro.core.block import LinearBlock, PreparedBlockLineariser
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError
from repro.core.kernels import _eliminate_lanes_impl
from repro.core.netlist import Netlist
from repro.core.solver import SolverSettings
from repro.harvester.scenarios import prepare_assembly

from .test_compiled_kernels import (
    LANE_SETS,
    MODES,
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
    """Adaptive shared-step runs advance in multi-step kernel bursts."""

    def test_numpy_kernel_is_bitwise_reproducible(self):
        # stronger than the documented 10 % tolerance: the numpy kernel
        # and negotiate_shared_step replay the single-step expressions,
        # so even adaptive full-window bursts stay bitwise
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

    @pytest.mark.parametrize("mode", MODES)
    def test_scores_within_tolerance_on_every_backend(self, mode):
        # cross-backend runs may round differently (fused native
        # arithmetic); scores must stay inside the engine's documented
        # 10 % relative tolerance
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        reference = _reference_run(LANE_SETS["charging"](), settings)
        result = _batched_run(LANE_SETS["charging"](), settings, compiled=mode)
        assert not reference.failures
        for ref, got in zip(reference.results, result.results):
            for name in ref.traces:
                a = np.asarray(ref[name].values)
                b = np.asarray(got[name].values)
                scale = max(float(np.max(np.abs(a))), 1e-30)
                assert float(np.max(np.abs(a[-1] - b[-1]))) <= 0.10 * scale

    def test_adaptive_bursts_actually_engage(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        result = _batched_run(LANE_SETS["charging"](), settings)
        meta = result.results[0].metadata
        assert meta["compiled_kernel_time_s"] > 0.0
        assert meta["compiled_refresh_time_s"] > 0.0


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
        fast = prepared.lineariser(0.01, x, y)
        generic = block.linearise_batch(lanes, 0.01, x, y)
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


class TestFusedElimination:
    def test_loop_impl_matches_stacked_numpy_bitwise(self):
        rng = np.random.default_rng(7)
        b, n, m = 5, 4, 3
        jxx = rng.standard_normal((b, n, n))
        jxy = rng.standard_normal((b, n, m))
        ex = rng.standard_normal((b, n))
        jyx = rng.standard_normal((b, m, n))
        jyy = rng.standard_normal((b, m, m)) + 3.0 * np.eye(m)
        ey = rng.standard_normal((b, m))

        # the stacked expressions of BatchedAssembler.eliminate
        rhs = np.empty((b, m, n + 1))
        rhs[:, :, :-1] = jyx
        rhs[:, :, -1] = ey
        solution = np.linalg.solve(jyy, rhs)
        em = -solution[:, :, :-1]
        eo = -solution[:, :, -1]
        a_red = jxx + np.matmul(jxy, em)
        b_red = ex + np.matmul(jxy, eo[..., None])[..., 0]

        k_em, k_eo, k_a, k_b = _eliminate_lanes_impl(jxx, jxy, ex, jyx, jyy, ey)
        assert np.array_equal(k_em, em)
        assert np.array_equal(k_eo, eo)
        assert np.array_equal(k_a, a_red)
        assert np.array_equal(k_b, b_red)

    def test_singular_lane_raises_linalg_error(self):
        jyy = np.zeros((1, 2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            _eliminate_lanes_impl(
                np.zeros((1, 3, 3)), np.zeros((1, 3, 2)), np.zeros((1, 3)),
                np.zeros((1, 2, 3)), jyy, np.zeros((1, 2)),
            )


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
