"""The linearised state-space solver — the paper's core contribution.

:class:`LinearisedStateSpaceSolver` runs the fast feed-forward simulation
described in Section II of the paper:

1. at each time point, linearise every analogue block (Eq. 2) and
   assemble the global Jacobian blocks;
2. eliminate the terminal (non-state) variables by solving the linear
   algebraic sub-system (Eq. 4);
3. advance the remaining state equations with an explicit integrator
   (Adams-Bashforth by default, Eq. 5);
4. keep the explicit march stable by bounding the step size through
   diagonal dominance of the point total-step matrix (Eq. 7) and keep it
   accurate by monitoring the Jacobian drift (the LLE control of Eq. 3);
5. interleave digital-process activations (the microcontroller of
   Fig. 7) through a discrete-event kernel, restarting the multi-step
   history whenever a digital action changes the analogue model.

The solver never iterates: each analogue step costs one block
linearisation sweep and one small linear solve, which is the source of
the two-orders-of-magnitude CPU-time advantage reported in Table II.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .digital import AnalogueInterface, DigitalEventKernel
from .elimination import ReducedSystem, SystemAssembler
from .errors import ConfigurationError, StabilityError
from .integrators import AdamsBashforth, ExplicitIntegrator
from .lle import LLEMonitor
from .results import SimulationResult, SolverStats, TraceRecorder
from .stepper import StepControlSettings, StepSizeController

__all__ = ["SolverSettings", "LinearisedStateSpaceSolver"]

#: Signature of user probes: ``probe(t, x_global, y_global) -> float``.
ProbeFn = Callable[[float, np.ndarray, np.ndarray], float]


@dataclass
class SolverSettings:
    """Configuration of the linearised state-space solver.

    Attributes
    ----------
    step_control:
        Adaptive step-size settings (stability + accuracy control).
    fixed_step:
        When set, disables adaptive control and marches with this constant
        step (used for ablations and for apples-to-apples comparisons with
        the fixed-step Newton-Raphson baseline).
    record_interval:
        Minimum spacing between recorded trace samples; 0 records every
        accepted step.
    lle_tolerance:
        Relative Jacobian-change threshold of the LLE monitor.
    keep_lle_history:
        Store every LLE sample (memory-hungry on long runs).
    monitor_lle:
        When ``True`` the solver additionally evaluates the exact nonlinear
        derivative each step to measure the true linearisation error (one
        extra block sweep per step).  Jacobian-drift monitoring — the
        control mechanism the paper describes — is always active.
    divergence_limit:
        Hard cap on the state-vector norm; exceeding it raises
        :class:`StabilityError` instead of silently producing NaNs.
    relinearise_interval:
        Maximum number of accepted steps over which one linearisation
        (assembled Jacobian + eliminated reduced system) may be reused
        before a fresh block sweep is forced.  ``1`` (the default)
        re-linearises every step, exactly as the paper describes; larger
        values amortise the per-step assemble/eliminate cost across
        several steps of the explicit march — the same LLE argument that
        justifies freezing the Jacobian over *one* step (Eq. 3) bounds
        the extra error of holding it over a few, because the step-size
        controller already keeps ``h`` small against the Jacobian's rate
        of change.  Digital activations and the state-drift guard below
        always force an immediate re-linearisation.  This is an accuracy
        trade documented in :mod:`repro.analysis.engine`; sweeps that
        need bit-exact agreement with the reference path keep it at 1.
    relinearise_state_rtol:
        Optional state-drift guard for held linearisations: the reduced
        model is re-assembled as soon as ``max|x - x_ref|`` exceeds this
        fraction of ``max|x_ref|`` (``x_ref`` = state at the last
        linearisation), even before ``relinearise_interval`` steps have
        elapsed.  ``None`` disables the guard.
    """

    step_control: StepControlSettings = field(default_factory=StepControlSettings)
    fixed_step: Optional[float] = None
    record_interval: float = 0.0
    lle_tolerance: float = 0.1
    keep_lle_history: bool = False
    monitor_lle: bool = False
    divergence_limit: float = 1e12
    relinearise_interval: int = 1
    relinearise_state_rtol: Optional[float] = None


class LinearisedStateSpaceSolver:
    """Fast mixed-technology simulator built on the linearised state-space
    formulation.

    Parameters
    ----------
    assembler:
        The composed system (blocks + netlist).
    integrator:
        Explicit integration formula; defaults to second-order
        Adams-Bashforth as in the paper's case study.
    settings:
        Solver configuration.
    digital_kernel:
        Optional discrete-event kernel holding the digital processes.
    """

    def __init__(
        self,
        assembler: SystemAssembler,
        integrator: Optional[ExplicitIntegrator] = None,
        settings: Optional[SolverSettings] = None,
        digital_kernel: Optional[DigitalEventKernel] = None,
    ) -> None:
        self.assembler = assembler
        # third-order Adams-Bashforth by default: the lowest-order AB formula
        # whose stability region covers part of the imaginary axis, which the
        # harvester's lightly damped mechanical resonance requires
        self.integrator = integrator or AdamsBashforth(order=3)
        self.settings = settings or SolverSettings()
        self.digital_kernel = digital_kernel
        self.interface = AnalogueInterface()
        self.lle_monitor = LLEMonitor(
            jacobian_tolerance=self.settings.lle_tolerance,
            keep_history=self.settings.keep_lle_history,
        )
        self._probes: Dict[str, ProbeFn] = {}
        self._x = assembler.initial_state()
        self._y = np.zeros(assembler.n_terminals)
        self._t = 0.0

    # ------------------------------------------------------------------ #
    # wiring helpers (used by the system-assembly layer)
    # ------------------------------------------------------------------ #
    def add_probe(self, name: str, probe: ProbeFn) -> None:
        """Record ``probe(t, x, y)`` as a named trace every accepted step."""
        if name in self._probes:
            raise ConfigurationError(f"duplicate probe name {name!r}")
        self._probes[name] = probe

    def state_value(self, block_name: str, state_name: str) -> float:
        """Current value of a block state variable (live, for digital reads)."""
        return float(self._x[self.assembler.state_index(block_name, state_name)])

    def net_value(self, block_name: str, terminal_name: str) -> float:
        """Current value of the net attached to ``block.terminal``."""
        return float(self._y[self.assembler.net_index(block_name, terminal_name)])

    @property
    def current_time(self) -> float:
        """Simulated time reached so far."""
        return self._t

    @property
    def current_state(self) -> np.ndarray:
        """Copy of the current global state vector."""
        return self._x.copy()

    @property
    def current_terminals(self) -> np.ndarray:
        """Copy of the current global terminal-variable vector."""
        return self._y.copy()

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
        """Simulate from ``t_start`` to ``t_end`` and return all traces."""
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
        if self._x.shape != (assembler.n_states,):
            raise ConfigurationError(
                f"x0 has shape {self._x.shape}, expected ({assembler.n_states},)"
            )
        self._y = np.zeros(assembler.n_terminals)

        controller = StepSizeController(settings.step_control, integrator=self.integrator)
        integrator_state = self.integrator.new_state()
        self.lle_monitor.reset()

        recorder = TraceRecorder(record_interval=settings.record_interval)
        stats = SolverStats(
            solver_name=f"linearised-state-space/{self.integrator.name}"
        )

        wall_start = time.perf_counter()
        state_names = assembler.state_names()
        net_names = assembler.net_names()

        # initial consistency solve so that terminal variables (and the
        # probes the digital side reads) are meaningful from t_start onwards
        initial_lin = assembler.assemble(self._t, self._x, self._y)
        self._y = assembler.eliminate(initial_lin, self._x).y_solution
        stats.n_linear_solves += 1

        # amortised-relinearisation bookkeeping (see SolverSettings)
        hold_limit = max(1, int(settings.relinearise_interval))
        state_rtol = settings.relinearise_state_rtol
        reduced: Optional[ReducedSystem] = None
        steps_since_assemble = 0
        x_reference = self._x
        n_jacobian_reuses = 0

        while self._t < t_end - 1e-15:
            # 1. digital activations due now
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None and next_event <= self._t + 1e-15:
                    model_changed = self.digital_kernel.run_due(self._t, self.interface)
                    if model_changed:
                        self.integrator.notify_discontinuity(integrator_state)
                        controller.reset()
                        self.lle_monitor.reset()
                        reduced = None  # the analogue model changed under us

            # 2. linearise + eliminate at the current point, or reuse the
            #    held affine model while it is still fresh enough
            refresh = reduced is None or steps_since_assemble >= hold_limit
            if not refresh and state_rtol is not None:
                drift = float(np.max(np.abs(self._x - x_reference)))
                scale = float(np.max(np.abs(x_reference)))
                refresh = drift > state_rtol * (scale + 1e-300)
            if refresh:
                lin = assembler.assemble(self._t, self._x, self._y)
                reduced = assembler.eliminate(lin, self._x)
                self._y = reduced.y_solution
                stats.n_jacobian_evaluations += 1
                stats.n_linear_solves += 1
                steps_since_assemble = 0
                x_reference = self._x
            else:
                # terminal variables still follow the held affine model
                self._y = reduced.terminal_values(self._x)
                n_jacobian_reuses += 1
            steps_since_assemble += 1

            # 3. record traces
            self._record(recorder, state_names, net_names)

            # 4. LLE monitoring on fresh linearisations (Jacobian drift
            #    always; true derivative optional).  The monitor and the
            #    step controller hold the same previous Jacobian, so the
            #    drift measured here is the controller's too.
            if refresh:
                if settings.monitor_lle:
                    true_dxdt, _ = assembler.full_residual(self._t, self._x, self._y)
                    lle_sample = self.lle_monitor.record(
                        self._t,
                        reduced.a_reduced,
                        linearised_derivative=reduced.derivative(self._x),
                        true_derivative=true_dxdt,
                    )
                else:
                    lle_sample = self.lle_monitor.record(self._t, reduced.a_reduced)

            # 5. choose the step size.  Held steps reuse the step proposed
            #    at the last fresh linearisation: the controller's inputs
            #    (the reduced Jacobian) have not changed, and feeding it the
            #    held matrix would read the zero drift as licence to grow h.
            boundary = t_end
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None:
                    boundary = min(boundary, max(next_event, self._t + 1e-15))
            if settings.fixed_step is not None:
                h = min(settings.fixed_step, boundary - self._t)
                controller._h_current = h  # keep diagnostics consistent
            elif refresh:
                h = controller.propose(
                    reduced.a_reduced,
                    t_remaining=boundary - self._t,
                    jacobian_change=lle_sample.jacobian_change,
                )
                held_h = h
            else:
                h = min(held_h, boundary - self._t)

            # 6. explicit march (Eq. 5)
            derivative_fn = self._frozen_derivative(reduced)
            self._x = self.integrator.step(
                derivative_fn, self._t, self._x, h, integrator_state
            )
            stats.n_function_evaluations += 1
            stats.register_step(h, accepted=True)
            self._t += h

            # one norm: NaN fails the comparison, and an infinite norm
            # passes only an infinite limit, where only a non-finite
            # entry (not an overflowing sum) counts as divergence
            norm = np.linalg.norm(self._x)
            if not norm <= settings.divergence_limit or (
                norm == np.inf and not np.isfinite(self._x).all()
            ):
                raise StabilityError(
                    f"solution diverged at t={self._t:.6g} (step {h:.3g}); "
                    "reduce the step size or the safety factor"
                )

        # final consistent record at t_end
        lin = assembler.assemble(self._t, self._x, self._y)
        reduced = assembler.eliminate(lin, self._x)
        self._y = reduced.y_solution
        self._record(recorder, state_names, net_names, force=True)

        stats.cpu_time_s = time.perf_counter() - wall_start
        stats.final_time = self._t

        result = SimulationResult(traces=recorder.traces, stats=stats)
        result.metadata["integrator"] = self.integrator.name
        result.metadata["integrator_order"] = self.integrator.order
        result.metadata["n_states"] = assembler.n_states
        result.metadata["n_terminals"] = assembler.n_terminals
        result.metadata["lle_max_jacobian_change"] = self.lle_monitor.max_jacobian_change
        result.metadata["lle_flagged_steps"] = self.lle_monitor.n_flagged
        result.metadata["relinearise_interval"] = hold_limit
        result.metadata["n_jacobian_reuses"] = n_jacobian_reuses
        if self.digital_kernel is not None:
            result.metadata["digital_activations"] = self.digital_kernel.n_activations
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _frozen_derivative(reduced: ReducedSystem) -> Callable[[float, np.ndarray], np.ndarray]:
        """Derivative function of the locally linearised model.

        The affine model is frozen over the step, so multi-stage formulas
        (RK) integrate the local linear ODE exactly as Eq. (5) intends.
        """

        def derivative(_t: float, x: np.ndarray) -> np.ndarray:
            return reduced.derivative(x)

        return derivative

    def _record(
        self,
        recorder: TraceRecorder,
        state_names: List[str],
        net_names: List[str],
        *,
        force: bool = False,
    ) -> None:
        if not force and not recorder.should_record(self._t):
            return
        values: Dict[str, float] = {}
        for name, value in zip(state_names, self._x):
            values[name] = float(value)
        for name, value in zip(net_names, self._y):
            values[name] = float(value)
        for name, probe in self._probes.items():
            values[name] = float(probe(self._t, self._x, self._y))
        recorder.record(self._t, values, force=force)
