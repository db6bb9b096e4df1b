"""Tests for the Newton-Raphson helper and the implicit baseline solver."""

import math

import numpy as np
import pytest

from repro.baselines import implicit_solver
from repro.baselines.implicit_solver import ImplicitNewtonSolver, ImplicitSolverSettings
from repro.baselines.newton_raphson import newton_solve
from repro.core.block import LinearBlock
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, ConvergenceError
from repro.core.integrators import BackwardEuler, Trapezoidal
from repro.core.netlist import Netlist


class TestNewtonSolve:
    def test_scalar_root(self):
        result = newton_solve(lambda z: np.array([z[0] ** 2 - 4.0]), np.array([3.0]))
        assert result.converged
        assert result.solution[0] == pytest.approx(2.0)

    def test_two_dimensional_system(self):
        def residual(z):
            return np.array([z[0] + z[1] - 3.0, z[0] * z[1] - 2.0])

        result = newton_solve(residual, np.array([0.5, 0.5]))
        assert sorted(result.solution) == pytest.approx([1.0, 2.0])

    def test_analytic_jacobian_path(self):
        result = newton_solve(
            lambda z: np.array([math.exp(z[0]) - 2.0]),
            np.array([0.0]),
            jacobian=lambda z: np.array([[math.exp(z[0])]]),
        )
        assert result.solution[0] == pytest.approx(math.log(2.0))
        assert result.n_jacobian_evaluations >= 1

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            newton_solve(
                lambda z: np.array([math.atan(z[0]) * 1e6 + 1e5]),
                np.array([1e8]),
                max_iterations=2,
            )

    def test_non_convergence_can_be_tolerated(self):
        result = newton_solve(
            lambda z: np.array([z[0] ** 2 + 1.0]),
            np.array([1.0]),
            max_iterations=5,
            raise_on_failure=False,
        )
        assert not result.converged

    def test_already_converged_guess(self):
        result = newton_solve(lambda z: np.array([z[0]]), np.array([0.0]))
        assert result.iterations == 0


def decay_assembler(rate=3.0, x0=1.0):
    netlist = Netlist()
    netlist.add_block(
        LinearBlock("d", np.array([[-rate]]), np.zeros((1, 0)), ["x"], [], x0=[x0])
    )
    return SystemAssembler(netlist)


class TestImplicitNewtonSolver:
    def test_backward_euler_decay(self):
        solver = ImplicitNewtonSolver(
            decay_assembler(rate=3.0),
            formula=BackwardEuler,
            settings=ImplicitSolverSettings(step_size=1e-2),
        )
        result = solver.run(1.0)
        assert result["d.x"].final() == pytest.approx(math.exp(-3.0), abs=0.02)
        assert result.stats.n_newton_iterations > 0

    def test_trapezoidal_is_more_accurate_than_backward_euler(self):
        be = ImplicitNewtonSolver(
            decay_assembler(),
            formula=BackwardEuler,
            settings=ImplicitSolverSettings(step_size=2e-2),
        ).run(1.0)
        trapezoid = ImplicitNewtonSolver(
            decay_assembler(),
            formula=Trapezoidal,
            settings=ImplicitSolverSettings(step_size=2e-2),
        ).run(1.0)
        exact = math.exp(-3.0)
        assert abs(trapezoid["d.x"].final() - exact) < abs(be["d.x"].final() - exact)

    def test_newton_policy_is_read_from_module_constants(self, monkeypatch):
        def run():
            return ImplicitNewtonSolver(
                decay_assembler(), settings=ImplicitSolverSettings(step_size=1e-2)
            ).run(0.1)

        # a linear step converges in one iteration, so a cap of 1 still runs
        monkeypatch.setattr(implicit_solver, "MAX_NEWTON_ITERATIONS", 1)
        assert run().stats.n_newton_iterations == 10
        # no iteration allowed: every attempt fails and the step is halved
        # STEP_HALVING_ATTEMPTS times before the run gives up
        monkeypatch.setattr(implicit_solver, "MAX_NEWTON_ITERATIONS", 0)
        with pytest.raises(ConvergenceError, match="after 6 step halvings"):
            run()
        monkeypatch.setattr(implicit_solver, "STEP_HALVING_ATTEMPTS", 2)
        with pytest.raises(ConvergenceError, match="after 2 step halvings"):
            run()
        # a tolerance every guess meets takes no iteration at all
        monkeypatch.setattr(implicit_solver, "NEWTON_TOLERANCE", math.inf)
        assert run().stats.n_newton_iterations == 0

    def test_probe_and_accessors(self):
        solver = ImplicitNewtonSolver(
            decay_assembler(x0=2.0), settings=ImplicitSolverSettings(step_size=1e-2)
        )
        solver.add_probe("double", lambda t, x, y: 2.0 * x[0])
        with pytest.raises(ConfigurationError):
            solver.add_probe("double", lambda t, x, y: 0.0)
        result = solver.run(0.1)
        assert result["double"].values[0] == pytest.approx(4.0)
        assert solver.state_value("d", "x") == pytest.approx(result["d.x"].final())
        assert solver.current_time == pytest.approx(0.1)

    def test_invalid_settings(self):
        with pytest.raises(ConfigurationError):
            ImplicitNewtonSolver(
                decay_assembler(), settings=ImplicitSolverSettings(step_size=0.0)
            )
        solver = ImplicitNewtonSolver(decay_assembler())
        with pytest.raises(ConfigurationError):
            solver.run(0.0)

    def test_stats_are_populated(self):
        result = ImplicitNewtonSolver(
            decay_assembler(), settings=ImplicitSolverSettings(step_size=1e-2)
        ).run(0.1)
        assert result.stats.solver_name.startswith("newton-raphson")
        assert result.stats.n_accepted_steps == 10
        assert result.stats.cpu_time_s > 0.0
