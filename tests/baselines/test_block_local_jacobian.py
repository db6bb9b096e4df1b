"""The Newton-Raphson baseline's block-local Jacobian against the dense one.

``ImplicitNewtonSolver`` builds its finite-difference Newton Jacobian
device by device: each column re-evaluates only the blocks that read the
perturbed variable and fills only their rows.  These tests hold it to the
dense central-difference Jacobian of the whole step residual byte for
byte at every Newton iteration, pin the one-writer-per-row structure that
makes the skipped rows exactly zero, and pin what a step does when a
block's residual goes non-finite (where the two matrices differ: NaN
against 0 in the rows no perturbed block writes).
"""

import math

import numpy as np
import pytest

from repro.api.experiment import SCENARIO_FACTORIES
from repro.baselines import implicit_solver
from repro.baselines.implicit_solver import ImplicitSolverSettings
from repro.core.errors import ConvergenceError
from repro.core.integrators import BackwardEuler, Trapezoidal
from repro.core.linearise import finite_difference_jacobian
from repro.harvester.scenarios import charging_scenario

FORMULAS = {"trapezoidal": Trapezoidal, "backward_euler": BackwardEuler}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
@pytest.mark.parametrize("factory", sorted(SCENARIO_FACTORIES))
def test_every_newton_jacobian_is_the_dense_fd_matrix_bytewise(
    factory, formula, monkeypatch
):
    real_newton_solve = implicit_solver.newton_solve
    checked = []

    def checking_newton_solve(residual, guess, *, jacobian=None, **kwargs):
        if jacobian is not None:
            block_local = jacobian

            def jacobian(z):
                jac = block_local(z)
                dense = finite_difference_jacobian(residual, z)
                assert jac.dtype == dense.dtype and jac.shape == dense.shape
                assert jac.tobytes() == dense.tobytes(), (
                    f"iteration {len(checked)}: entries differ at "
                    f"{np.argwhere(jac != dense).tolist()}"
                )
                checked.append(jac.shape)
                return jac

        return real_newton_solve(residual, guess, jacobian=jacobian, **kwargs)

    monkeypatch.setattr(implicit_solver, "newton_solve", checking_newton_solve)
    harvester = SCENARIO_FACTORIES[factory]().scaled(0.004).build_harvester()
    solver = harvester.build_baseline_solver(formula=FORMULAS[formula])
    result = solver.run(0.004)
    assert result.stats.n_accepted_steps == 20
    # every Newton iteration of every step built (and checked) a Jacobian
    assert len(checked) == result.stats.n_jacobian_evaluations >= 20


@pytest.mark.parametrize("factory", sorted(SCENARIO_FACTORIES))
def test_each_residual_row_is_written_by_exactly_one_block(factory, monkeypatch):
    assembler = SCENARIO_FACTORIES[factory]().build_harvester().assembler
    for index, block in enumerate(assembler.blocks):
        marker = float(index + 1)
        monkeypatch.setattr(
            block, "derivatives", lambda t, x, y, m=marker, b=block: np.full(b.n_states, m)
        )
        monkeypatch.setattr(
            block,
            "algebraic_residual",
            lambda t, x, y, m=marker, b=block: np.full(b.n_algebraic, m),
        )
    dxdt, res_y = assembler.full_residual(
        0.0, np.zeros(assembler.n_states), np.zeros(assembler.n_terminals)
    )
    rows = np.concatenate([dxdt, res_y])
    # no row is left unwritten, and each block's marker lands on exactly as
    # many rows as the block owns: no block's rows overwrite another's
    assert np.all(rows > 0.0)
    for index, block in enumerate(assembler.blocks):
        assert np.count_nonzero(dxdt == index + 1) == block.n_states
        assert np.count_nonzero(res_y == index + 1) == block.n_algebraic


def _charging_solver_with_bad_storage(monkeypatch, is_bad, value):
    """A charging NR solver whose storage block's derivatives read
    ``value`` (non-finite) wherever ``is_bad(t)``."""
    harvester = charging_scenario(0.001).build_harvester()
    storage = next(b for b in harvester.assembler.blocks if b.name == "storage")
    derivatives = storage.derivatives

    def storage_derivatives(t, x, y):
        dxdt = derivatives(t, x, y)
        return np.full_like(dxdt, value) if is_bad(t) else dxdt

    monkeypatch.setattr(storage, "derivatives", storage_derivatives)
    return harvester.build_baseline_solver(
        settings=ImplicitSolverSettings(step_size=1e-4)
    )


# inf - inf in the differences warns, on the dense matrix as on this one
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_step_is_halved_once_and_recovers(value, monkeypatch):
    # the step 2e-4 -> 3e-4 lands in the bad window; its half, to 2.5e-4,
    # does not, and neither does any later step
    solver = _charging_solver_with_bad_storage(
        monkeypatch, lambda t: 2.55e-4 < t <= 3.05e-4, value
    )
    result = solver.run(0.001)
    stats = result.stats
    assert (stats.n_accepted_steps, stats.n_rejected_steps) == (11, 1)
    assert stats.min_step == pytest.approx(5e-5)
    traces = [result.traces[name] for name in result.trace_names()]
    assert traces[0].times[:5] == pytest.approx([0.0, 1e-4, 2e-4, 2.5e-4, 3.5e-4])
    assert all(np.all(np.isfinite(trace.values)) for trace in traces)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_persistently_non_finite_step_fails_after_every_halving(value, monkeypatch):
    # every halving of the step from 2e-4 still ends past 2.01e-4
    solver = _charging_solver_with_bad_storage(monkeypatch, lambda t: t > 2.01e-4, value)
    with pytest.raises(
        ConvergenceError, match=r"at t=0\.0002 even after 6 step halvings"
    ):
        solver.run(0.001)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_residual_stops_newton_at_once(monkeypatch):
    # storage derivatives NaN past t = 2.01e-4: two good steps, then every
    # attempt from t = 2e-4 lands in the bad window.  Each attempt gives up
    # on its first non-finite residual norm instead of iterating to the cap
    # (30 Jacobians an attempt), and the step is still halved six times
    solver = _charging_solver_with_bad_storage(monkeypatch, lambda t: t > 2.01e-4, math.nan)
    steps, attempts = [], []
    device_jacobian = solver._device_jacobian
    solve = implicit_solver.newton_solve

    def recording_jacobian(t_next, h, x_current, fx_current):
        steps.append(h)
        return device_jacobian(t_next, h, x_current, fx_current)

    def counting_solve(residual, guess, jacobian=None, **kwargs):
        attempt = {"jacobians": 0, "error": None}
        attempts.append(attempt)

        def counted(z):
            attempt["jacobians"] += 1
            return jacobian(z)

        try:
            return solve(
                residual, guess, jacobian=None if jacobian is None else counted, **kwargs
            )
        except ConvergenceError as exc:
            attempt["error"] = str(exc)
            raise

    monkeypatch.setattr(solver, "_device_jacobian", recording_jacobian)
    monkeypatch.setattr(implicit_solver, "newton_solve", counting_solve)
    with pytest.raises(
        ConvergenceError, match=r"at t=0\.0002 even after 6 step halvings"
    ):
        solver.run(0.001)
    # the initial terminal solve, two accepted steps, seven failed attempts
    assert len(attempts) == 10
    assert steps == pytest.approx([1e-4, 1e-4] + [1e-4 * 0.5**k for k in range(7)])
    assert all(attempt["error"] is None for attempt in attempts[:3])
    for attempt in attempts[3:]:
        assert attempt["jacobians"] <= 1
        assert attempt["error"] == (
            "Newton-Raphson residual norm is nan after 0 iterations"
        )
