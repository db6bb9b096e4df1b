"""Tests for global assembly and terminal-variable elimination (Eq. 4)."""

import numpy as np
import pytest

from repro.core.block import LinearBlock
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, SingularSystemError
from repro.core.netlist import Netlist

from .test_block_netlist import make_rc_block


def build_two_rc_system(r1=10.0, c1=1e-3, r2=20.0, c2=2e-3):
    """Two RC blocks sharing a port: a classic two-time-constant divider.

    Block "a" and block "b" share the terminal voltage V and current I:
    the algebraic equations are I = (V - Va)/R1 and I = (V - Vb)/R2 ...
    but note both blocks define the current flowing *into* themselves, so
    sharing the same current variable expresses a series connection where
    the same current charges both capacitors from the shared node.
    """
    netlist = Netlist()
    a = netlist.add_block(make_rc_block("a", r1, c1))
    b = netlist.add_block(make_rc_block("b", r2, c2))
    netlist.connect_port(a, b, voltage=("V", "V"), current=("I", "I"), net_prefix="port")
    return netlist, a, b


class TestAssemblerStructure:
    def test_state_and_terminal_counts(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        assert assembler.n_states == 2
        assert assembler.n_terminals == 2
        assert assembler.state_names() == ["a.Vc", "b.Vc"]
        assert set(assembler.net_names()) == {"port_V", "port_I"}

    def test_state_index_and_slice(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        assert assembler.state_index("a", "Vc") == 0
        assert assembler.state_index("b", "Vc") == 1
        assert assembler.state_slice("b") == slice(1, 2)

    def test_net_index_shared(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        assert assembler.net_index("a", "V") == assembler.net_index("b", "V")
        assert assembler.net_index("a", "I") == assembler.net_index("b", "I")

    def test_initial_state_concatenation(self):
        netlist = Netlist()
        from repro.core.block import LinearBlock

        a = netlist.add_block(
            LinearBlock("a", np.array([[-1.0]]), np.zeros((1, 0)), ["x"], [], x0=[2.0])
        )
        b = netlist.add_block(
            LinearBlock("b", np.array([[-1.0]]), np.zeros((1, 0)), ["x"], [], x0=[5.0])
        )
        assembler = SystemAssembler(netlist)
        assert assembler.initial_state() == pytest.approx([2.0, 5.0])


class TestEliminationCorrectness:
    def test_reduced_matrix_matches_hand_derivation(self):
        r1, c1, r2, c2 = 10.0, 1e-3, 20.0, 2e-3
        netlist, _, _ = build_two_rc_system(r1, c1, r2, c2)
        assembler = SystemAssembler(netlist)
        x = np.array([1.0, 0.0])
        reduced = assembler.reduce(0.0, x)

        # hand derivation: with the shared port variables y = [V, I] the two
        # algebraic equations (LinearBlock residual (Vc - V)/R + I = 0) are
        #   g1*Va - g1*V + I = 0  and  g2*Vb - g2*V + I = 0
        # i.e. Jyy y = -Jyx x with the matrices written out explicitly below;
        # substituting the solved y into the block state equations yields the
        # reduced state matrix.
        g1, g2 = 1.0 / r1, 1.0 / r2
        jyy = np.array([[-g1, 1.0], [-g2, 1.0]])
        jyx = np.array([[g1, 0.0], [0.0, g2]])
        elimination = -np.linalg.solve(jyy, jyx)  # y = elimination @ x
        v_row = elimination[0, :]  # V as a linear function of [Va, Vb]
        a_hand = np.zeros((2, 2))
        a_hand[0, :] = (v_row - np.array([1.0, 0.0])) / (r1 * c1)
        a_hand[1, :] = (v_row - np.array([0.0, 1.0])) / (r2 * c2)
        assert reduced.a_reduced == pytest.approx(a_hand)

    def test_terminal_solution_satisfies_algebraic_equations(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        x = np.array([0.7, -0.2])
        lin = assembler.assemble(0.0, x, np.zeros(2))
        reduced = assembler.eliminate(lin, x)
        _, residual = assembler.full_residual(0.0, x, reduced.y_solution)
        assert residual == pytest.approx(np.zeros(2), abs=1e-12)

    def test_reduced_derivative_matches_full_model(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        x = np.array([0.4, 0.9])
        reduced = assembler.reduce(0.0, x)
        dxdt_full, _ = assembler.full_residual(0.0, x, reduced.y_solution)
        assert reduced.derivative(x) == pytest.approx(dxdt_full)

    def test_terminal_values_helper(self):
        netlist, _, _ = build_two_rc_system()
        assembler = SystemAssembler(netlist)
        x = np.array([1.0, 1.0])
        reduced = assembler.reduce(0.0, x)
        assert reduced.terminal_values(x) == pytest.approx(reduced.y_solution)

    def test_passive_series_loop_eigenvalues_are_stable(self):
        # block "b" sources the shared current while block "a" sinks it: the
        # two capacitors exchange charge through the two resistors, a passive
        # configuration whose modes must all decay
        netlist = Netlist()
        a = netlist.add_block(make_rc_block("a", 10.0, 1e-3))
        b = netlist.add_block(make_rc_block("b", 20.0, 2e-3, invert_current=True))
        netlist.connect_port(a, b, voltage=("V", "V"), current=("I", "I"))
        assembler = SystemAssembler(netlist)
        reduced = assembler.reduce(0.0, np.array([0.5, -0.5]))
        eigenvalues = np.linalg.eigvals(reduced.a_reduced)
        assert np.all(np.real(eigenvalues) <= 1e-12)


class TestSingularSystems:
    def test_floating_port_raises(self):
        """Two blocks whose shared current is never constrained -> singular."""
        from repro.core.block import LinearBlock

        netlist = Netlist()
        # both blocks treat the port voltage as an input but neither
        # constrains the current -> Jyy singular
        a = netlist.add_block(
            LinearBlock(
                "a",
                np.array([[-1.0]]),
                np.array([[1.0, 0.0]]),
                ["x"],
                ["V", "I"],
                c=np.array([[0.0]]),
                d=np.array([[1.0, 0.0]]),
            )
        )
        b = netlist.add_block(
            LinearBlock(
                "b",
                np.array([[-1.0]]),
                np.array([[1.0, 0.0]]),
                ["x"],
                ["V", "I"],
                c=np.array([[0.0]]),
                d=np.array([[1.0, 0.0]]),
            )
        )
        netlist.connect_port(a, b, voltage=("V", "V"), current=("I", "I"))
        assembler = SystemAssembler(netlist)
        with pytest.raises(SingularSystemError):
            assembler.reduce(0.0, np.array([0.0, 0.0]))

    def test_no_terminals_reduces_to_block_dynamics(self):
        from repro.core.block import LinearBlock

        netlist = Netlist()
        netlist.add_block(
            LinearBlock("solo", np.array([[-3.0]]), np.zeros((1, 0)), ["x"], [])
        )
        assembler = SystemAssembler(netlist)
        reduced = assembler.reduce(0.0, np.array([2.0]))
        assert reduced.a_reduced == pytest.approx(np.array([[-3.0]]))
        assert reduced.derivative(np.array([2.0]))[0] == pytest.approx(-6.0)

    def test_reduced_model_outlives_the_next_assembly(self):
        # without terminals the reduced model is the assembled jxx/ex
        # itself; it must not alias the buffers the next assemble reuses
        from repro.core.block import LinearBlock

        netlist = Netlist()
        netlist.add_block(
            LinearBlock("solo", np.array([[-3.0]]), np.ones((1, 0)), ["x"], [])
        )
        assembler = SystemAssembler(netlist)
        reduced = assembler.reduce(0.0, np.array([2.0]))
        lin = assembler.assemble(0.0, np.array([1.0]), np.zeros(0))
        assert not np.shares_memory(reduced.a_reduced, lin.jxx)
        assert not np.shares_memory(reduced.b_reduced, lin.ex)


class _ShapeFaultBlock(LinearBlock):
    """RC block whose ``jxy`` loses a column from its ``fault_call``-th call on."""

    def __init__(self, fault_call):
        rc = make_rc_block("faulty", 20.0, 2e-3)
        super().__init__(
            "faulty",
            rc.a,
            rc.b,
            state_names=["Vc"],
            terminal_names=["V", "I"],
            c=rc.c,
            d=rc.d,
            terminal_kinds=["voltage", "current"],
        )
        self.fault_call = fault_call
        self.calls = 0

    def linearise(self, t, x, y):
        lin = super().linearise(t, x, y)
        self.calls += 1
        if self.calls >= self.fault_call:
            lin.jxy = lin.jxy[:, :1]
        return lin


class TestLinearisationShapeCheck:
    def test_shape_error_names_block_and_field_on_a_later_step(self):
        from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings

        netlist = Netlist()
        good = netlist.add_block(make_rc_block("good", 10.0, 1e-3))
        faulty = netlist.add_block(_ShapeFaultBlock(fault_call=3))
        netlist.connect_port(good, faulty, voltage=("V", "V"), current=("I", "I"))
        solver = LinearisedStateSpaceSolver(
            SystemAssembler(netlist), settings=SolverSettings(fixed_step=1e-3)
        )
        with pytest.raises(ConfigurationError) as excinfo:
            solver.run(0.01)
        # the consistency solve and the first step linearised cleanly
        assert faulty.calls == 3
        message = str(excinfo.value)
        assert "'faulty'" in message
        assert "'jxy'" in message
        assert "(1, 1)" in message and "(1, 2)" in message
