"""Tests for the linearised state-space solver on small known systems."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import stepper
from repro.core.batch import BatchedSolver
from repro.core.block import BlockLinearisation, LinearBlock
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, StabilityError
from repro.core.integrators import AdamsBashforth, RungeKutta4
from repro.core.netlist import Netlist
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings
from repro.core.stepper import StepControlSettings
from repro.harvester.scenarios import charging_scenario, scenario_solver_settings

from .test_block_netlist import make_rc_block
from .test_scalar_step_identity import _SwitchLoad, assert_runs_identical


def single_decay_assembler(rate=5.0, x0=1.0):
    """One isolated block dx/dt = -rate * x."""
    netlist = Netlist()
    netlist.add_block(
        LinearBlock(
            "decay", np.array([[-rate]]), np.zeros((1, 0)), ["x"], [], x0=[x0]
        )
    )
    return SystemAssembler(netlist)


def driven_rc_assembler():
    """RC block driven through its port by a controllable source block."""

    class SourceBlock(LinearBlock):
        """Ideal source: algebraic equation V - level = 0, no states."""

        def __init__(self):
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
            self.level = 1.0

        def algebraic_residual(self, t, x, y):
            return np.array([y[0] - self.level])

        def linearise(self, t, x, y):
            lin = super().linearise(t, x, y)
            lin.ey = np.array([-self.level])
            return lin

        def apply_control(self, name, value):
            if name == "level":
                self.level = float(value)
                return
            super().apply_control(name, value)

    netlist = Netlist()
    source = netlist.add_block(SourceBlock())
    rc = netlist.add_block(make_rc_block("rc", r=10.0, c=1e-2))
    netlist.connect_port(source, rc, voltage=("V", "V"), current=("I", "I"), net_prefix="port")
    return SystemAssembler(netlist), source


class TestLinearSystems:
    def test_exponential_decay_accuracy(self):
        assembler = single_decay_assembler(rate=5.0, x0=1.0)
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(
                step_control=StepControlSettings(h_initial=1e-3, h_max=5e-3)
            ),
        )
        result = solver.run(1.0)
        final = result["decay.x"].final()
        assert final == pytest.approx(math.exp(-5.0), abs=1e-3)

    def test_fixed_step_mode(self):
        assembler = single_decay_assembler(rate=2.0)
        solver = LinearisedStateSpaceSolver(
            assembler, settings=SolverSettings(fixed_step=1e-2)
        )
        result = solver.run(0.5)
        assert result.stats.max_step == pytest.approx(1e-2)
        assert result["decay.x"].final() == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_rk4_integrator_choice(self):
        assembler = single_decay_assembler(rate=5.0)
        solver = LinearisedStateSpaceSolver(
            assembler,
            integrator=RungeKutta4(),
            settings=SolverSettings(fixed_step=1e-2),
        )
        result = solver.run(1.0)
        assert result.metadata["integrator"] == "rk4"
        assert result["decay.x"].final() == pytest.approx(math.exp(-5.0), abs=1e-5)

    def test_driven_rc_reaches_source_level(self):
        assembler, _ = driven_rc_assembler()
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(
                step_control=StepControlSettings(h_initial=1e-3, h_max=1e-2)
            ),
        )
        result = solver.run(1.0)  # tau = 0.1 s, so 10 time constants
        assert result["rc.Vc"].final() == pytest.approx(1.0, abs=1e-3)
        # the shared port voltage trace must equal the source level
        assert result["port_V"].final() == pytest.approx(1.0, abs=1e-6)

    def test_custom_x0(self):
        assembler = single_decay_assembler(rate=1.0, x0=1.0)
        solver = LinearisedStateSpaceSolver(
            assembler, settings=SolverSettings(fixed_step=1e-2)
        )
        result = solver.run(0.1, x0=np.array([5.0]))
        assert result["decay.x"].values[0] == pytest.approx(5.0)

    def test_wrong_x0_shape_rejected(self):
        assembler = single_decay_assembler()
        solver = LinearisedStateSpaceSolver(assembler)
        with pytest.raises(ConfigurationError):
            solver.run(0.1, x0=np.zeros(3))

    def test_invalid_time_span(self):
        solver = LinearisedStateSpaceSolver(single_decay_assembler())
        with pytest.raises(ConfigurationError):
            solver.run(0.0)


class TestProbesAndRecording:
    def test_probe_recorded(self):
        assembler = single_decay_assembler(rate=1.0, x0=2.0)
        solver = LinearisedStateSpaceSolver(
            assembler, settings=SolverSettings(fixed_step=1e-2)
        )
        solver.add_probe("doubled", lambda t, x, y: 2.0 * x[0])
        result = solver.run(0.1)
        assert result["doubled"].values[0] == pytest.approx(4.0)

    def test_duplicate_probe_rejected(self):
        solver = LinearisedStateSpaceSolver(single_decay_assembler())
        solver.add_probe("p", lambda t, x, y: 0.0)
        with pytest.raises(ConfigurationError):
            solver.add_probe("p", lambda t, x, y: 0.0)

    def test_record_interval_decimates(self):
        assembler = single_decay_assembler()
        dense = LinearisedStateSpaceSolver(
            assembler, settings=SolverSettings(fixed_step=1e-3)
        ).run(0.1)
        assembler2 = single_decay_assembler()
        sparse = LinearisedStateSpaceSolver(
            assembler2, settings=SolverSettings(fixed_step=1e-3, record_interval=2e-2)
        ).run(0.1)
        assert len(sparse["decay.x"]) < len(dense["decay.x"]) / 3

    def test_state_and_net_value_access(self):
        assembler, _ = driven_rc_assembler()
        solver = LinearisedStateSpaceSolver(
            assembler, settings=SolverSettings(fixed_step=1e-3)
        )
        solver.run(0.05)
        assert solver.state_value("rc", "Vc") > 0.0
        assert solver.net_value("source", "V") == pytest.approx(1.0, abs=1e-9)
        assert solver.current_time == pytest.approx(0.05)


class TestStabilityProtection:
    def test_divergence_raises(self):
        netlist = Netlist()
        netlist.add_block(
            LinearBlock(
                "unstable", np.array([[50.0]]), np.zeros((1, 0)), ["x"], [], x0=[1.0]
            )
        )
        assembler = SystemAssembler(netlist)
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(fixed_step=0.1, divergence_limit=1e6),
        )
        with pytest.raises(StabilityError):
            solver.run(10.0)

    def test_unbounded_limit_still_rejects_non_finite_states(self):
        assembler = single_decay_assembler(rate=-50.0)
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(fixed_step=0.1, divergence_limit=np.inf),
        )
        with pytest.raises(StabilityError):
            solver.run(1.0, x0=np.array([np.inf]))
        with pytest.raises(StabilityError):
            solver.run(1.0, x0=np.array([np.nan]))

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_unbounded_limit_accepts_a_finite_state_whose_norm_overflows(self):
        netlist = Netlist()
        netlist.add_block(
            LinearBlock(
                "decay", -np.eye(2), np.zeros((2, 0)), ["u", "v"], [], x0=[1e200, 1e200]
            )
        )
        solver = LinearisedStateSpaceSolver(
            SystemAssembler(netlist),
            settings=SolverSettings(fixed_step=1e-3, divergence_limit=np.inf),
        )
        result = solver.run(0.01)
        assert np.isinf(np.linalg.norm(solver.current_state))
        assert result["decay.u"].final() == pytest.approx(1e200 * math.exp(-0.01), rel=1e-6)

    def test_time_invariant_system_records_no_jacobian_drift(self):
        solver = LinearisedStateSpaceSolver(
            single_decay_assembler(), settings=SolverSettings(fixed_step=1e-2)
        )
        result = solver.run(0.2)
        assert result.metadata["lle_max_jacobian_change"] == 0.0
        assert result.metadata["lle_flagged_steps"] == 0


#: the scheduled decay's step: dyadic, so every refresh time is exact
SLOT_S = 0.125
#: its rate per slot: consecutive drifts 2, 2, 1/9, 0.05, 0, 0
RATES = (1.0, 3.0, 9.0, 10.0, 10.5, 10.5, 10.5)


class ScheduledDecay(LinearBlock):
    """``dx/dt = -scale * rate(t) x``, with the rate read off ``RATES`` per
    ``SLOT_S`` slot and ``scale`` a digital control."""

    def __init__(self, rates):
        super().__init__("decay", np.array([[-1.0]]), np.zeros((1, 0)), ["x"], [], x0=[1.0])
        self.rates = rates
        self.scale = 1.0

    def linearise(self, t, x, y):
        rate = self.scale * self.rates[int(t / SLOT_S)]
        return BlockLinearisation(
            jxx=np.array([[-rate]]),
            jxy=self.b,
            ex=np.zeros(1),
            jyx=self.c,
            jyy=self.d,
            ey=np.zeros(0),
        )

    def apply_control(self, name, value):
        if name == "scale":
            self.scale = float(value)
            return
        super().apply_control(name, value)


class WriteScale(DigitalProcess):
    """Writes the decay's scale once: the analogue model changes."""

    def __init__(self, time_s):
        super().__init__("write_scale", start_time=time_s)

    def execute(self, t, analogue):
        analogue.write("scale", 1.0)
        return None


class TestJacobianDriftMetadata:
    """``lle_*`` metadata: the relative Frobenius change of the reduced
    Jacobian between consecutive refreshes (the LLE control of Eq. 3)."""

    @staticmethod
    def _scheduled(rates, write_at):
        netlist = Netlist()
        block = netlist.add_block(ScheduledDecay(rates))
        kernel = None
        if write_at is not None:
            kernel = DigitalEventKernel()
            kernel.add_process(WriteScale(write_at))
        return SystemAssembler(netlist), block, kernel

    def _run(self, rates=RATES, *, write_at=None, **settings):
        assembler, block, kernel = self._scheduled(rates, write_at)
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(fixed_step=SLOT_S, **settings),
            digital_kernel=kernel,
        )
        if kernel is not None:
            solver.interface.register_control(
                "scale", lambda value: block.apply_control("scale", value)
            )
        return solver.run(0.75).metadata

    def test_drift_is_relative_to_the_previous_refresh(self):
        # |-3 - (-1)| / |-1| and |-9 - (-3)| / |-3|
        assert self._run()["lle_max_jacobian_change"] == 2.0

    def test_refreshes_above_the_tolerance_are_flagged(self, monkeypatch):
        # drifts 2, 2, 1/9 and 1/20, then none; the solver reads the
        # module tolerance when it runs
        for tolerance, flagged in ((1.5, 2), (0.1, 3), (2.0, 0)):
            monkeypatch.setattr(stepper, "LLE_TOLERANCE", tolerance)
            assert self._run()["lle_flagged_steps"] == flagged

    def test_held_steps_measure_nothing(self):
        # refreshes at slots 0, 2 and 4 only: |-9 - (-1)| / 1 is the largest
        metadata = self._run(relinearise_interval=2)
        assert metadata["lle_max_jacobian_change"] == 8.0
        assert metadata["n_jacobian_reuses"] == 3

    def test_zero_norm_previous_jacobian_scales_by_one(self):
        metadata = self._run((0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
        assert metadata["lle_max_jacobian_change"] == 0.5

    def test_control_write_resets_the_drift(self):
        # the write at slot 3 restarts the measurement: only the slot-4
        # drift 0.5 / 10 is left, below the default tolerance
        metadata = self._run(write_at=3 * SLOT_S)
        assert metadata["digital_activations"] == 1
        assert metadata["lle_max_jacobian_change"] == 0.05
        assert metadata["lle_flagged_steps"] == 0

    @pytest.mark.parametrize("write_at", (None, 3 * SLOT_S))
    def test_lanes_report_the_scalar_figures(self, write_at):
        expected = self._run(write_at=write_at)
        assemblers, kernels, blocks = [], [], []
        for _ in range(2):
            assembler, block, kernel = self._scheduled(RATES, write_at)
            assemblers.append(assembler)
            blocks.append(block)
            kernels.append(kernel)
        solver = BatchedSolver(
            assemblers,
            settings=SolverSettings(fixed_step=SLOT_S),
            digital_kernels=kernels,
        )
        for i, block in enumerate(blocks):
            interface = solver.lane_wiring(i).interface
            if interface is not None:
                interface.register_control(
                    "scale", lambda value, block=block: block.apply_control("scale", value)
                )
        for result in solver.run(0.75).results:
            for key in ("lle_max_jacobian_change", "lle_flagged_steps"):
                assert result.metadata[key] == expected[key], key


class SetLevelProcess(DigitalProcess):
    """Digital process that changes the source level at a scheduled time."""

    def __init__(self, time_s, level):
        super().__init__("setter", start_time=time_s)
        self.level = level

    def execute(self, t, analogue):
        analogue.write("level", self.level)
        return None


class TestMixedSignalCoupling:
    def test_digital_event_changes_analogue_model(self):
        assembler, source = driven_rc_assembler()
        kernel = DigitalEventKernel()
        kernel.add_process(SetLevelProcess(0.5, 3.0))
        solver = LinearisedStateSpaceSolver(
            assembler,
            integrator=AdamsBashforth(order=3),
            settings=SolverSettings(
                step_control=StepControlSettings(h_initial=1e-3, h_max=1e-2)
            ),
            digital_kernel=kernel,
        )
        solver.interface.register_control(
            "level", lambda value: source.apply_control("level", value)
        )
        result = solver.run(1.5)
        # before the event the capacitor settles to 1 V, afterwards to 3 V
        assert result["rc.Vc"].at(0.45) == pytest.approx(1.0, abs=0.02)
        assert result["rc.Vc"].final() == pytest.approx(3.0, abs=0.02)
        assert result.metadata["digital_activations"] == 1

    def test_step_never_crosses_event_time(self):
        assembler, source = driven_rc_assembler()
        kernel = DigitalEventKernel()
        kernel.add_process(SetLevelProcess(0.0333, 2.0))
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(fixed_step=1e-2),
            digital_kernel=kernel,
        )
        solver.interface.register_control(
            "level", lambda value: source.apply_control("level", value)
        )
        result = solver.run(0.1)
        times = result["rc.Vc"].times
        # one accepted time point lands exactly on the event time
        assert np.min(np.abs(times - 0.0333)) < 1e-9


class TestSolverReusability:
    def test_runs_leave_no_prepared_state_behind(self):
        scenario = charging_scenario(duration_s=0.01)
        settings = scenario_solver_settings(scenario)
        solver = scenario.build_harvester().build_solver(settings=settings)
        first = solver.run(scenario.duration_s)
        solver.settings = replace(settings, divergence_limit=1e-9)
        with pytest.raises(StabilityError):
            solver.run(scenario.duration_s)
        solver.settings = settings
        assert_runs_identical(first, solver.run(scenario.duration_s))


class TestOneRefresh:
    @pytest.mark.parametrize("mid_run_write", [False, True], ids=["plain", "mid_run_write"])
    def test_constant_work_runs_once_per_prepare(self, monkeypatch, mid_run_write):
        # the supercapacitor declares all six fields constant and every
        # block declares jxy/jyx/jyy/ey constant: between two prepares the
        # supercapacitor is linearised once and Eq. (4) is solved once
        from repro.blocks.supercapacitor import Supercapacitor
        from repro.core.block import PreparedBlockLineariser
        from repro.core.elimination import BatchedAssembler

        counts = {"prepare": 0, "supercapacitor": 0, "eq4_solve": 0}
        prepare = BatchedAssembler.prepare
        batched_lineariser = Supercapacitor.batched_lineariser
        solve = np.linalg.solve

        def counting_prepare(self):
            counts["prepare"] += 1
            prepare(self)

        def counting_lineariser(self, lanes):
            fast = batched_lineariser(self, lanes)

            def lineariser(t, x, y):
                counts["supercapacitor"] += 1
                return fast.lineariser(t, x, y)

            return PreparedBlockLineariser(lineariser=lineariser, constant=fast.constant)

        def counting_solve(a, b):
            # Eq. (4) is the one stacked solve of a scalar run
            if np.ndim(a) == 3:
                counts["eq4_solve"] += 1
            return solve(a, b)

        monkeypatch.setattr(BatchedAssembler, "prepare", counting_prepare)
        monkeypatch.setattr(Supercapacitor, "batched_lineariser", counting_lineariser)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        scenario = charging_scenario(duration_s=0.02)
        solver = scenario.build_harvester().build_solver(
            settings=scenario_solver_settings(scenario)
        )
        if mid_run_write:
            kernel = DigitalEventKernel()
            kernel.add_process(_SwitchLoad(0.011))
            solver.digital_kernel = kernel
        result = solver.run(scenario.duration_s)
        assert counts["prepare"] == (2 if mid_run_write else 1)
        assert result.stats.n_jacobian_evaluations > 50 * counts["prepare"]
        assert counts["supercapacitor"] == counts["prepare"]
        assert counts["eq4_solve"] == counts["prepare"]
