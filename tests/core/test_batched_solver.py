"""Batched solver: per-lane byte-identity, retirement and guard rails."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro import RunOptions, Study
from repro.blocks.microcontroller import TuningController
from repro.core.batch import BatchedSolver
from repro.core.block import LinearBlock
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import SystemAssembler
from repro.core.errors import (
    ConfigurationError,
    SingularLaneError,
    SingularSystemError,
    StabilityError,
)
from repro.core.netlist import Netlist
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_solver_settings,
)
from repro.harvester.topologies import piezoelectric_scenario

from .test_block_netlist import make_rc_block
from .test_solver import driven_rc_assembler


def scalar_run(scenario, settings):
    """The scalar reference run of one lane, through the facade."""
    return Study.scenario(scenario).options(settings=settings).run().result


def _lane_scenarios(duration_s=0.02):
    return [
        charging_scenario(duration_s=duration_s, frequency_hz=f)
        for f in (66.0, 70.0, 75.0)
    ]


def _batched_run(scenarios, settings_list, inject=None):
    """The scenarios as lanes, each with its digital kernel; ``inject``
    maps a lane to an extra digital process for that lane alone."""
    harvesters = [s.build_harvester() for s in scenarios]
    kernels = [h._build_kernel() for h in harvesters]
    for lane, process in (inject or {}).items():
        kernels[lane] = kernels[lane] or DigitalEventKernel()
        kernels[lane].add_process(process)
    solver = BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        digital_kernels=kernels,
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    return solver.run([s.duration_s for s in scenarios])


def _assert_traces_identical(reference, result, context=""):
    assert sorted(reference.traces) == sorted(result.traces)
    for name in reference.traces:
        ref, got = reference[name], result[name]
        assert np.array_equal(ref.times, got.times), f"{context}{name}: times differ"
        assert np.array_equal(ref.values, got.values), (
            f"{context}{name}: values differ"
        )


class TestFixedStepByteIdentity:
    def test_paper_topology_lanes_match_serial_runs_exactly(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        serial = [
            scalar_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for i, (ref, got) in enumerate(zip(serial, batch.results)):
            _assert_traces_identical(ref, got, context=f"lane {i} ")
            assert got.metadata["batched"] is True
            assert got.metadata["lane_index"] == i

    def test_hold_interval_lanes_match_serial_runs_exactly(self):
        # byte-identity must survive the amortised profile too
        scenarios = _lane_scenarios()
        settings_list = [
            replace(
                scenario_solver_settings(s),
                fixed_step=1e-4,
                relinearise_interval=4,
            )
            for s in scenarios
        ]
        serial = [
            scalar_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for ref, got in zip(serial, batch.results):
            _assert_traces_identical(ref, got)

    def test_spec_backed_topology_matches_serial_runs_exactly(self):
        scenarios = [
            piezoelectric_scenario(duration_s=0.01, excitation_frequency_hz=f)
            for f in (60.0, 70.0)
        ]
        settings_list = [
            replace(s.solver_settings(), fixed_step=5e-5) for s in scenarios
        ]
        serial = [
            scalar_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for ref, got in zip(serial, batch.results):
            _assert_traces_identical(ref, got)


class TestAdaptive:
    def test_lanes_match_serial_runs_exactly(self):
        # every lane keeps its own step proposal, so adaptive lanes are
        # their serial runs too
        scenarios = _lane_scenarios(duration_s=0.05)
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        serial = [
            scalar_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for i, (ref, got) in enumerate(zip(serial, batch.results)):
            _assert_traces_identical(ref, got, context=f"lane {i} ")
            assert got.stats.n_accepted_steps == ref.stats.n_accepted_steps
            assert got.stats.final_time == ref.stats.final_time

    def test_solver_is_reusable_after_lane_retirement(self):
        # retiring lanes mid-march must not corrupt the solver object:
        # a second run() on the same instance has to see all lanes again
        scenarios = [
            charging_scenario(duration_s=d, frequency_hz=70.0)
            for d in (0.01, 0.02)
        ]
        harvesters = [s.build_harvester() for s in scenarios]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=[scenario_solver_settings(s) for s in scenarios],
        )
        first = solver.run([0.01, 0.02])
        second = solver.run([0.01, 0.02])
        assert not first.failures and not second.failures
        for a, b in zip(first.results, second.results):
            assert a.stats.n_accepted_steps == b.stats.n_accepted_steps

    def test_stats_counters_match_scalar_run(self):
        # the initial consistency solve counts only as a linear solve,
        # exactly like the scalar solver's bookkeeping
        scenario = charging_scenario(duration_s=0.01, frequency_hz=70.0)
        settings = replace(scenario_solver_settings(scenario), fixed_step=1e-4)
        scalar = scalar_run(scenario, settings)
        batch = _batched_run([scenario], [settings])
        stats = batch.results[0].stats
        assert stats.n_jacobian_evaluations == scalar.stats.n_jacobian_evaluations
        assert stats.n_linear_solves == scalar.stats.n_linear_solves
        assert stats.n_accepted_steps == scalar.stats.n_accepted_steps

    def test_per_lane_end_times_retire_lanes_in_order(self):
        scenarios = [
            charging_scenario(duration_s=d, frequency_hz=70.0)
            for d in (0.01, 0.03)
        ]
        harvesters = [s.build_harvester() for s in scenarios]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=[scenario_solver_settings(s) for s in scenarios],
        )
        batch = solver.run([0.01, 0.03])
        assert not batch.failures
        assert batch.results[0].stats.final_time == pytest.approx(0.01)
        assert batch.results[1].stats.final_time == pytest.approx(0.03)
        assert (
            batch.results[1].stats.n_accepted_steps
            > batch.results[0].stats.n_accepted_steps
        )


class TestLaneRetirement:
    def test_diverging_lane_is_retired_and_the_rest_survive(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        # an absurdly tight divergence limit trips the guard on lane 1 only
        settings_list[1] = replace(settings_list[1], divergence_limit=1e-9)
        serial = [
            scalar_run(s, st)
            for s, st in (
                (scenarios[0], settings_list[0]),
                (scenarios[2], settings_list[2]),
            )
        ]
        batch = _batched_run(scenarios, settings_list)
        assert set(batch.failures) == {1}
        assert isinstance(batch.failures[1], StabilityError)
        assert batch.results[1] is None
        _assert_traces_identical(serial[0], batch.results[0])
        _assert_traces_identical(serial[1], batch.results[2])

    def test_all_lanes_diverging_returns_only_failures(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(
                scenario_solver_settings(s),
                fixed_step=1e-4,
                divergence_limit=1e-9,
            )
            for s in scenarios
        ]
        batch = _batched_run(scenarios, settings_list)
        assert set(batch.failures) == {0, 1, 2}
        assert all(result is None for result in batch.results)


class _Faulty(DigitalProcess):
    """A digital process that raises on its first activation."""

    def execute(self, t, analogue):
        raise RuntimeError(f"faulty process at t={t}")


class TestDigitalEventFaults:
    def test_raising_process_retires_only_its_lane(self):
        scenarios = [
            scenario_1(duration_s=0.02, shift_time_s=0.01) for _ in range(3)
        ]
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        batch = _batched_run(
            scenarios,
            settings_list,
            inject={1: _Faulty("faulty", start_time=0.005)},
        )
        assert set(batch.failures) == {1}
        assert isinstance(batch.failures[1], RuntimeError)
        assert batch.results[1] is None
        for i in (0, 2):
            solo = scalar_run(scenarios[i], settings_list[i])
            got = batch.results[i]
            _assert_traces_identical(solo, got, context=f"lane {i} ")
            assert got.stats.n_steps == solo.stats.n_steps
            assert (
                got.metadata["digital_activations"]
                == solo.metadata["digital_activations"]
            )

    def test_lane_sweep_raises_like_the_scalar_path(self, monkeypatch):
        execute = TuningController.execute

        def faulty_above_71_hz(self, t, analogue):
            if analogue.read("ambient_frequency") > 71.0:
                raise RuntimeError("controller fault")
            return execute(self, t, analogue)

        monkeypatch.setattr(TuningController, "execute", faulty_above_71_hz)
        sweep = Study.scenario(scenario_1(duration_s=0.02)).sweep(
            {"excitation_frequency_hz": [69.0, 72.0, 70.0]}
        )
        for options in (RunOptions(lane_width=1), RunOptions()):
            with pytest.raises(RuntimeError, match="controller fault"):
                sweep.options(options).run()


class TestPerLaneSchedules:
    """Lanes need not share a schedule: each keeps its own settings."""

    def _assert_lanes_match_serial(self, scenarios, settings_list):
        serial = [scalar_run(s, st) for s, st in zip(scenarios, settings_list)]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for i, (ref, got) in enumerate(zip(serial, batch.results)):
            _assert_traces_identical(ref, got, context=f"lane {i} ")

    def test_mixed_fixed_step_lanes_match_serial_runs(self):
        scenarios = _lane_scenarios()
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        settings_list[0] = replace(settings_list[0], fixed_step=1e-4)
        settings_list[2] = replace(settings_list[2], fixed_step=7e-5)
        self._assert_lanes_match_serial(scenarios, settings_list)

    def test_mixed_relinearise_interval_lanes_match_serial_runs(self):
        scenarios = _lane_scenarios()
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        settings_list[0] = replace(settings_list[0], relinearise_interval=4)
        settings_list[1] = replace(settings_list[1], relinearise_interval=3)
        self._assert_lanes_match_serial(scenarios, settings_list)

    def test_fixed_step_lanes_with_per_lane_end_times_match_serial_runs(self):
        scenarios = [
            charging_scenario(duration_s=d, frequency_hz=f)
            for d, f in ((0.01, 66.0), (0.02, 70.0), (0.015, 75.0))
        ]
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        self._assert_lanes_match_serial(scenarios, settings_list)


class TestLineariseOverride:
    def test_lane_overriding_linearise_is_bitwise_its_scalar_run(self, caplog):
        # the source block overrides linearise below LinearBlock, whose
        # batched fast paths would hand it a zero ey (no source at all)
        settings = SolverSettings(fixed_step=1e-4)
        scalar_assembler, _ = driven_rc_assembler()
        expected = LinearisedStateSpaceSolver(scalar_assembler, settings=settings).run(0.01)
        assembler, _ = driven_rc_assembler()
        with caplog.at_level(logging.DEBUG, logger="repro.elimination"):
            result = BatchedSolver([assembler], settings=settings).run(0.01)
        got = result.results[0]
        assert got["rc.Vc"].final() == pytest.approx(0.0952, rel=1e-3)
        _assert_traces_identical(expected, got)
        # one record for the one prepare, naming the refused block
        (record,) = caplog.records
        assert "'source'" in record.getMessage()

    def test_a_block_without_fast_paths_is_not_refused(self, caplog):
        # the piezoelectric generator overrides linearise only: the base
        # class's empty fast paths bypass nothing
        from repro.core.elimination import BatchedAssembler

        assembler = piezoelectric_scenario(duration_s=0.01).build_harvester().assembler
        with caplog.at_level(logging.DEBUG, logger="repro.elimination"):
            BatchedAssembler([assembler]).prepare()
        assert caplog.records == []


class TestGuardRails:
    def test_mismatched_topologies_are_rejected(self):
        charging = charging_scenario(duration_s=0.01)
        piezo = piezoelectric_scenario(duration_s=0.01)
        with pytest.raises(ConfigurationError, match="topology"):
            BatchedSolver(
                [
                    charging.build_harvester().assembler,
                    piezo.build_harvester().assembler,
                ]
            )

    def test_singular_lane_is_blamed_not_the_batch(self):
        # voltage-pinning load against a zero-series-resistance source is
        # the documented singular wiring; build it via a degenerate
        # supercapacitor lane whose Jyy row vanishes is hard to fabricate
        # from stock blocks, so exercise the error type directly instead
        from repro.core.elimination import BatchedAssembler

        def make(d_value):
            source = LinearBlock(
                "src",
                a=np.array([[-1.0]]),
                b=np.array([[1.0]]),
                state_names=("s",),
                terminal_names=("p",),
                c=np.array([[1.0]]),
                d=np.array([[d_value]]),
            )
            sink = LinearBlock(
                "sink",
                a=np.array([[-2.0]]),
                b=np.array([[0.5]]),
                state_names=("w",),
                terminal_names=("p",),
            )
            netlist = Netlist()
            netlist.add_block(source)
            netlist.add_block(sink)
            netlist.connect(source.terminal("p"), sink.terminal("p"))
            return SystemAssembler(netlist)

        healthy = make(1.0)
        singular = make(0.0)  # Jyy == [[0]]: no equation pins the net
        batched = BatchedAssembler([healthy, singular])
        x = np.zeros((2, 2))
        y = np.zeros((2, 1))
        lin = batched.assemble(np.zeros(2), x, y)
        with pytest.raises(SingularSystemError) as excinfo:
            batched.eliminate(lin, x)
        assert excinfo.value.lane_indices == (1,)


class _FadingSource(LinearBlock):
    """Ideal 1 V source whose equation drops out of its linearisation
    while ``t`` lies in ``[start, stop)``: ``J_yy`` is singular there."""

    def __init__(self, start, stop):
        super().__init__(
            "source",
            np.zeros((0, 0)),
            np.zeros((0, 2)),
            [],
            ["V", "I"],
            c=np.zeros((1, 0)),
            d=np.array([[1.0, 0.0]]),
            terminal_kinds=["voltage", "current"],
        )
        self.start, self.stop = start, stop

    def linearise(self, t, x, y):
        lin = super().linearise(t, x, y)
        lin.ey = np.array([-1.0])
        if self.start <= t < self.stop:
            lin.jyy = np.zeros_like(lin.jyy)
        return lin


def _fading_rc_assembler(start, stop):
    netlist = Netlist()
    source = netlist.add_block(_FadingSource(start, stop))
    rc = netlist.add_block(make_rc_block("rc", r=10.0, c=1e-2))
    netlist.connect_port(source, rc, voltage=("V", "V"), current=("I", "I"))
    return SystemAssembler(netlist)


class TestSingularAtTheEnd:
    @pytest.mark.parametrize("lane_2_end", [0.02, 0.01], ids=["alone", "with_a_lane_mate"])
    def test_lane_singular_only_at_its_final_point_fails_alone(self, lane_2_end):
        # lane 0 is singular only at its end point, t = 0.01.  Lane 1 is
        # singular around t = 0.01 too, but with a hold of 4 steps of 1e-3
        # it refreshes at 0.008 and 0.012 only, so its own run never
        # solves there: the final solve that lane 0 (and maybe lane 2)
        # finishes in must not retire it
        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=4)
        windows = [(0.0095, np.inf), (0.0095, 0.0105), (np.inf, np.inf)]
        ends = [0.01, 0.02, lane_2_end]
        batch = BatchedSolver(
            [_fading_rc_assembler(*w) for w in windows], settings=settings
        ).run(ends)
        assert set(batch.failures) == {0}
        error = batch.failures[0]
        assert isinstance(error, SingularLaneError)
        assert error.lane_indices == (0,)
        assert "lane 0" in str(error)
        assert batch.results[0] is None
        for i in (1, 2):
            scalar = LinearisedStateSpaceSolver(
                _fading_rc_assembler(*windows[i]), settings=settings
            ).run(ends[i])
            got = batch.results[i]
            _assert_traces_identical(scalar, got, context=f"lane {i} ")
            expected, stats = scalar.stats.as_dict(), got.stats.as_dict()
            for key in ("cpu_time_s", "solver_name"):
                del expected[key], stats[key]
            assert stats == expected
