"""Implicit Newton-Raphson solver over the full nonlinear block model.

This is the in-repo stand-in for the conventional HDL simulators of the
paper's comparison (SystemVision/VHDL-AMS in Table II, and the VHDL-AMS /
SystemC-A rows of Table I).  It simulates exactly the same component-block
model as the fast solver, but the way such tools do it:

* the differential equations are discretised with an *implicit* formula
  (trapezoidal by default, backward Euler optionally);
* at every time step the resulting nonlinear algebraic system in
  ``[x_{n+1}, y_{n+1}]`` is solved by Newton-Raphson;
* the Newton Jacobian is rebuilt each iteration from
  central differences of the device equations, device by device: each
  column re-evaluates only the blocks that read its variable and fills
  only their rows, as a conventional simulator re-evaluates each model
  and stamps it into its own rows and columns (it has no lookup tables).
  A block evaluates all of its perturbed columns in one stacked call.
  The matrix is bitwise the dense finite-difference Jacobian of the whole
  step residual;
* the time step is fixed and fine ("less than a millisecond", as the
  paper notes real harvester simulations require).

It shares the fast solver's wiring surface and trace recorder
(:class:`~repro.core.solver.WiredSolver`: ``add_probe``, ``interface``,
``state_value``, ``net_value``) so the same harvester wiring drives both
engines and the benchmark layer can time them on identical scenarios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.digital import DigitalEventKernel
from ..core.elimination import SystemAssembler
from ..core.errors import ConfigurationError, ConvergenceError
from ..core.integrators import ImplicitFormula, Trapezoidal
from ..core.results import SimulationResult, SolverStats
from ..core.serialise import register_serialisable
from ..core.solver import WiredSolver
from .newton_raphson import newton_solve

__all__ = [
    "ImplicitSolverSettings",
    "ImplicitNewtonSolver",
    "NEWTON_TOLERANCE",
    "MAX_NEWTON_ITERATIONS",
    "STEP_HALVING_ATTEMPTS",
]

# The Newton policy.  Every run uses these values: they are not settings,
# so they are in no cache key, and the solver reads them from this module
# when it runs.
#: residual max-norm below which a Newton iteration has converged
NEWTON_TOLERANCE = 1e-8
#: Newton iteration cap per time step (and for the initial terminals)
MAX_NEWTON_ITERATIONS = 30
#: how many times a non-converged step is retried with half the step
STEP_HALVING_ATTEMPTS = 6


@dataclass
class ImplicitSolverSettings:
    """Configuration of the Newton-Raphson baseline.

    The Newton Jacobian is always rebuilt from central differences of the
    device equations each iteration, device by device
    (:meth:`~repro.core.elimination.SystemAssembler.step_jacobian`), as
    general-purpose simulators evaluate arbitrary device equations; the
    Newton policy is the module constants :data:`NEWTON_TOLERANCE`,
    :data:`MAX_NEWTON_ITERATIONS` and :data:`STEP_HALVING_ATTEMPTS`.

    Attributes
    ----------
    step_size:
        Fixed integration step (conventional simulators resolve the
        vibration period with a fine fixed or quasi-fixed step).
    record_interval:
        Trace decimation interval (0 records every step).
    """

    step_size: float = 2e-4
    record_interval: float = 0.0


register_serialisable(ImplicitSolverSettings)


class ImplicitNewtonSolver(WiredSolver):
    """Trapezoidal / backward-Euler + Newton-Raphson full-system solver."""

    def __init__(
        self,
        assembler: SystemAssembler,
        formula: ImplicitFormula = Trapezoidal,
        settings: Optional[ImplicitSolverSettings] = None,
        digital_kernel: Optional[DigitalEventKernel] = None,
    ) -> None:
        super().__init__(assembler, digital_kernel)
        self.formula = formula
        self.settings = settings or ImplicitSolverSettings()
        if self.settings.step_size <= 0.0:
            raise ConfigurationError("step size must be positive")

    # ------------------------------------------------------------------ #
    # residual of one implicit step
    # ------------------------------------------------------------------ #
    def _step_residual(
        self,
        z: np.ndarray,
        t_next: float,
        h: float,
        x_current: np.ndarray,
        explicit_part: np.ndarray,
    ) -> np.ndarray:
        n_states = self.assembler.n_states
        x_next = z[:n_states]
        y_next = z[n_states:]
        fx_next, fy_next = self.assembler.full_residual(t_next, x_next, y_next)
        r_x = self.formula.residual_given(x_next, fx_next, x_current, explicit_part, h)
        return np.concatenate([r_x, fy_next])

    def _device_jacobian(
        self, t_next: float, h: float, x_current: np.ndarray, explicit_part: np.ndarray
    ):
        """Finite-difference Newton Jacobian of :meth:`_step_residual`,
        built block by block; bitwise the dense matrix."""
        residual_given = self.formula.residual_given

        # element-wise, so a block's (P, n_states) stacks broadcast
        def state_rows(states: slice, x_local: np.ndarray, fx_local: np.ndarray):
            return residual_given(
                x_local, fx_local, x_current[states], explicit_part[states], h
            )

        return lambda z: self.assembler.step_jacobian(t_next, z, state_rows)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        t_end: float,
        *,
        t_start: float = 0.0,
        x0: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Simulate from ``t_start`` to ``t_end`` with the implicit method."""
        if t_end <= t_start:
            raise ConfigurationError("t_end must be greater than t_start")
        settings = self.settings
        assembler = self.assembler

        self._t = float(t_start)
        self._x = (
            assembler.initial_state()
            if x0 is None
            else np.array(x0, dtype=float, copy=True)
        )
        self._y = np.zeros(assembler.n_terminals)

        stats = SolverStats(
            solver_name=f"newton-raphson/{self.formula.name}"
        )
        state_names = assembler.state_names()
        net_names = assembler.net_names()

        wall_start = time.perf_counter()

        # make the terminal variables consistent with the initial state
        self._y = self._solve_initial_terminals(stats)
        recorder = self._recorder(settings.record_interval)
        record_threshold = float(recorder.thresholds[0])
        last_record = -np.inf

        while self._t < t_end - 1e-15:
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None and next_event <= self._t + 1e-15:
                    self.digital_kernel.run_due(self._t, self.interface)
                    recorder.sample_models(0, self._t, self._x, self._y)

            if not self._t - last_record < record_threshold:
                last_record = self._t
                recorder.record_lane(0, self._t, self._x, self._y)

            boundary = t_end
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None:
                    boundary = min(boundary, max(next_event, self._t + 1e-15))
            h = min(settings.step_size, boundary - self._t)

            self._advance_one_step(h, stats)

        recorder.record_lane(0, self._t, self._x, self._y)
        stats.cpu_time_s = time.perf_counter() - wall_start
        stats.final_time = self._t

        result = SimulationResult(
            traces=recorder.traces_for(0, state_names, net_names), stats=stats
        )
        result.metadata["formula"] = self.formula.name
        result.metadata["step_size"] = settings.step_size
        result.metadata["n_states"] = assembler.n_states
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _solve_initial_terminals(self, stats: SolverStats) -> np.ndarray:
        assembler = self.assembler
        if assembler.n_terminals == 0:
            return np.zeros(0)

        def residual(y: np.ndarray) -> np.ndarray:
            _, fy = assembler.full_residual(self._t, self._x, y)
            return fy

        outcome = newton_solve(
            residual,
            np.zeros(assembler.n_terminals),
            tolerance=NEWTON_TOLERANCE,
            max_iterations=MAX_NEWTON_ITERATIONS,
        )
        stats.n_newton_iterations += outcome.iterations
        stats.n_function_evaluations += outcome.n_function_evaluations
        return outcome.solution

    def _advance_one_step(self, h: float, stats: SolverStats) -> None:
        assembler = self.assembler
        n_states = assembler.n_states

        fx_current, _ = assembler.full_residual(self._t, self._x, self._y)
        stats.n_function_evaluations += 1
        # the residual's (1 - theta) f_n, the same for every attempt
        explicit_part = self.formula.explicit_part(fx_current)

        attempt_h = h
        for attempt in range(STEP_HALVING_ATTEMPTS + 1):
            t_next = self._t + attempt_h
            guess = np.concatenate([self._x, self._y])
            jacobian = self._device_jacobian(t_next, attempt_h, self._x, explicit_part)
            try:
                outcome = newton_solve(
                    lambda z: self._step_residual(
                        z, t_next, attempt_h, self._x, explicit_part
                    ),
                    guess,
                    jacobian=jacobian,
                    tolerance=NEWTON_TOLERANCE,
                    max_iterations=MAX_NEWTON_ITERATIONS,
                )
            except ConvergenceError:
                stats.register_step(attempt_h, accepted=False)
                attempt_h *= 0.5
                continue
            stats.n_newton_iterations += outcome.iterations
            stats.n_function_evaluations += outcome.n_function_evaluations
            # a finite-difference Jacobian counts as 2 (n + m) residual
            # evaluations, however few blocks each column re-evaluates
            stats.n_function_evaluations += (
                2 * guess.size * outcome.n_jacobian_evaluations
            )
            stats.n_jacobian_evaluations += outcome.n_jacobian_evaluations
            stats.n_linear_solves += outcome.iterations
            stats.register_step(attempt_h, accepted=True)
            self._x = outcome.solution[:n_states]
            self._y = outcome.solution[n_states:]
            self._t = t_next
            return
        raise ConvergenceError(
            f"implicit step failed to converge at t={self._t:.6g} even after "
            f"{STEP_HALVING_ATTEMPTS} step halvings"
        )
