"""High-accuracy reference solver (stand-in for experimental measurement).

Figs. 8(b) and 9 of the paper compare the fast simulation against
measurements of the physical harvester on a shaker rig.  We have no
hardware, so the reproduction uses the closest available ground truth: the
same nonlinear block model integrated by ``scipy.integrate.solve_ivp``
(LSODA / Radau) at tight tolerances, with the algebraic terminal variables
resolved exactly by Newton iteration inside every derivative evaluation.
An optional parasitic-leakage perturbation mimics the effects the paper
lists as causes of the residual simulation/measurement mismatch.

The class shares the other solvers' wiring surface and trace recorder
(:class:`~repro.core.solver.WiredSolver`) so the same harvester wiring and
the same digital controller drive it; integration is segmented between
digital-event times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from ..core.digital import DigitalEventKernel
from ..core.elimination import SystemAssembler
from ..core.errors import ConfigurationError
from ..core.results import SimulationResult, SolverStats
from ..core.solver import WiredSolver
from .newton_raphson import newton_solve

__all__ = ["ReferenceSolverSettings", "ReferenceSolver"]


@dataclass
class ReferenceSolverSettings:
    """Configuration of the scipy reference integration."""

    method: str = "LSODA"
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = 1e-3
    record_interval: float = 1e-3
    #: extra conductance (S) across the storage terminals emulating leakage
    #: and parasitic losses present in the physical device but not in the
    #: nominal model (set to 0 for an exact-model reference)
    parasitic_conductance_s: float = 0.0


class ReferenceSolver(WiredSolver):
    """scipy-based high-accuracy integration of the nonlinear block model."""

    def __init__(
        self,
        assembler: SystemAssembler,
        settings: Optional[ReferenceSolverSettings] = None,
        digital_kernel: Optional[DigitalEventKernel] = None,
    ) -> None:
        super().__init__(assembler, digital_kernel)
        self.settings = settings or ReferenceSolverSettings()
        self._storage_terminal_index: Optional[int] = None

    def enable_parasitic_losses(self, block_name: str = "storage", terminal: str = "Vc") -> None:
        """Add the configured parasitic conductance across a voltage net."""
        self._storage_terminal_index = self.assembler.net_index(block_name, terminal)

    # ------------------------------------------------------------------ #
    # derivative with exact terminal elimination
    # ------------------------------------------------------------------ #
    def _solve_terminals(self, t: float, x: np.ndarray, y_guess: np.ndarray) -> np.ndarray:
        if self.assembler.n_terminals == 0:
            return np.zeros(0)

        def residual(y: np.ndarray) -> np.ndarray:
            _, fy = self.assembler.full_residual(t, x, y)
            if (
                self._storage_terminal_index is not None
                and self.settings.parasitic_conductance_s > 0.0
            ):
                # parasitic leakage adds an extra current draw at the storage
                # node; the storage KCL is the last algebraic equation
                fy = fy.copy()
                fy[-1] -= (
                    self.settings.parasitic_conductance_s
                    * y[self._storage_terminal_index]
                )
            return fy

        outcome = newton_solve(
            residual, y_guess, tolerance=1e-12, max_iterations=60, raise_on_failure=False
        )
        return outcome.solution

    def _derivative(self, t: float, x: np.ndarray) -> np.ndarray:
        self._y = self._solve_terminals(t, x, self._y)
        dxdt, _ = self.assembler.full_residual(t, x, self._y)
        return dxdt

    # ------------------------------------------------------------------ #
    # main loop (segmented between digital events)
    # ------------------------------------------------------------------ #
    def run(
        self,
        t_end: float,
        *,
        t_start: float = 0.0,
        x0: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Integrate the model from ``t_start`` to ``t_end``."""
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
        self._y = self._solve_terminals(self._t, self._x, np.zeros(assembler.n_terminals))

        stats = SolverStats(solver_name=f"reference/{settings.method}")
        state_names = assembler.state_names()
        net_names = assembler.net_names()

        wall_start = time.perf_counter()
        recorder = self._recorder(settings.record_interval)
        record_threshold = float(recorder.thresholds[0])
        last_record = self._t
        recorder.record_lane(0, self._t, self._x, self._y)

        while self._t < t_end - 1e-12:
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None and next_event <= self._t + 1e-12:
                    self.digital_kernel.run_due(self._t, self.interface)
                    recorder.sample_models(0, self._t, self._x, self._y)

            boundary = t_end
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None:
                    boundary = min(boundary, max(next_event, self._t + 1e-12))

            t_eval = self._segment_times(self._t, boundary)
            solution = solve_ivp(
                self._derivative,
                (self._t, boundary),
                self._x,
                method=settings.method,
                rtol=settings.rtol,
                atol=settings.atol,
                max_step=settings.max_step,
                t_eval=t_eval,
                dense_output=False,
            )
            if not solution.success:
                raise ConfigurationError(
                    f"reference integration failed at t={self._t}: {solution.message}"
                )
            stats.n_function_evaluations += int(solution.nfev)
            stats.n_steps += int(solution.t.size)

            for idx in range(solution.t.size):
                self._t = float(solution.t[idx])
                self._x = solution.y[:, idx]
                self._y = self._solve_terminals(self._t, self._x, self._y)
                if not self._t - last_record < record_threshold:
                    last_record = self._t
                    recorder.record_lane(0, self._t, self._x, self._y)
            self._t = boundary
            self._x = solution.y[:, -1]

        recorder.record_lane(0, self._t, self._x, self._y)
        stats.cpu_time_s = time.perf_counter() - wall_start
        stats.final_time = self._t

        result = SimulationResult(
            traces=recorder.traces_for(0, state_names, net_names), stats=stats
        )
        result.metadata["method"] = settings.method
        result.metadata["rtol"] = settings.rtol
        result.metadata["parasitic_conductance_s"] = settings.parasitic_conductance_s
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _segment_times(self, t0: float, t1: float) -> np.ndarray:
        interval = max(self.settings.record_interval, 1e-6)
        n_samples = max(2, int(np.ceil((t1 - t0) / interval)) + 1)
        return np.linspace(t0, t1, n_samples)
