"""Tests for the linearised state-space solver on small known systems."""

import math

import numpy as np
import pytest

from repro.core.block import LinearBlock
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, StabilityError
from repro.core.integrators import AdamsBashforth, RungeKutta4
from repro.core.netlist import Netlist
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings
from repro.core.stepper import StepControlSettings

from .test_block_netlist import make_rc_block


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

    def test_lle_monitoring_records_jacobian_drift(self):
        assembler = single_decay_assembler()
        solver = LinearisedStateSpaceSolver(
            assembler,
            settings=SolverSettings(fixed_step=1e-2, monitor_lle=True),
        )
        solver.run(0.2)
        # linear time-invariant system: no drift, nothing flagged
        assert solver.lle_monitor.n_flagged == 0
        assert solver.lle_monitor.max_derivative_mismatch < 1e-9


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
