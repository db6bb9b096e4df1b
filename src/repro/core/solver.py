"""The linearised state-space solver — the paper's core contribution.

:class:`LinearisedStateSpaceSolver` runs the fast feed-forward simulation
described in Section II of the paper:

1. at each time point, linearise every analogue block (Eq. 2) and
   assemble the global Jacobian blocks;
2. eliminate the terminal (non-state) variables by solving the linear
   algebraic sub-system (Eq. 4);
3. advance the remaining state equations with an explicit integrator
   (Adams-Bashforth by default, Eq. 5);
4. keep the explicit march stable by bounding the step size so that the
   reduced matrix's eigenvalues stay inside the integrator's stability
   region (Eq. 7; see :mod:`repro.core.stability`) and keep it
   accurate by monitoring the Jacobian drift (the LLE control of Eq. 3),
   measured once per refresh and consumed by the step controller;
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
from typing import Callable, Dict, Optional

import numpy as np

from .digital import AnalogueInterface, DigitalEventKernel
from .elimination import BatchedAssembler, ReducedSystem, SystemAssembler
from .errors import ConfigurationError, SingularLaneError, SingularSystemError, StabilityError
from .integrators import AdamsBashforth, ExplicitIntegrator
from .probes import ProbeFn
from .results import ColumnRecorder, SimulationResult, SolverStats
from . import stepper
from .stepper import StepControlSettings, StepSizeController, frobenius_norm

__all__ = ["SolverSettings", "WiredSolver", "LinearisedStateSpaceSolver"]


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
        of change.  A held model ends only when this budget is spent or
        a digital activation changes the analogue model, which forces an
        immediate re-linearisation.  This is an accuracy trade documented
        in :mod:`repro.analysis.engine`; sweeps that need bit-exact
        agreement with the reference path keep it at 1.
    """

    step_control: StepControlSettings = field(default_factory=StepControlSettings)
    fixed_step: Optional[float] = None
    record_interval: float = 0.0
    divergence_limit: float = 1e12
    relinearise_interval: int = 1


class WiredSolver:
    """What the single-run solvers share: the wiring surface the
    system-assembly layer drives (named probes, the digital ``interface``
    and live reads of the current point) and their one-lane
    :class:`~repro.core.results.ColumnRecorder`.

    :class:`LinearisedStateSpaceSolver` and the Newton-Raphson and
    reference baselines derive from it.
    """

    def __init__(
        self, assembler: SystemAssembler, digital_kernel: Optional[DigitalEventKernel]
    ) -> None:
        self.assembler = assembler
        self.digital_kernel = digital_kernel
        self.interface = AnalogueInterface()
        self._probes: Dict[str, ProbeFn] = {}
        self._x = assembler.initial_state()
        self._y = np.zeros(assembler.n_terminals)
        self._t = 0.0

    def add_probe(self, name: str, probe: ProbeFn) -> None:
        """Record ``probe(t, x, y)`` as a named trace at every recorded point."""
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

    def _recorder(self, record_interval: float) -> ColumnRecorder:
        """A one-lane recorder of this run, its model probes sampled at
        the current point."""
        return ColumnRecorder(
            [record_interval], [self._probes], [self._t], self._x[None], self._y[None]
        )


class LinearisedStateSpaceSolver(WiredSolver):
    """Fast mixed-technology simulator built on the linearised state-space
    formulation.

    Parameters
    ----------
    assembler:
        The composed system (blocks + netlist).
    integrator:
        Explicit integration formula; defaults to third-order
        Adams-Bashforth, the lowest-order AB formula whose stability
        region covers part of the imaginary axis.
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
        super().__init__(assembler, digital_kernel)
        # third-order Adams-Bashforth by default: the lowest-order AB formula
        # whose stability region covers part of the imaginary axis, which the
        # harvester's lightly damped mechanical resonance requires
        self.integrator = integrator or AdamsBashforth(order=3)
        self.settings = settings or SolverSettings()

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
        """Simulate from ``t_start`` to ``t_end`` and return all traces.

        Every refresh goes through a one-lane :class:`BatchedAssembler`
        over :attr:`assembler`, built for this run and prepared at its
        start and after each model-changing digital activation (see
        :meth:`BatchedAssembler.prepare`); the solver keeps no state
        between runs, so it stays reusable.
        """
        if t_end <= t_start:
            raise ConfigurationError("t_end must be greater than t_start")
        settings = self.settings
        assembler = self.assembler
        batched = BatchedAssembler([assembler])
        batched.prepare()

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
        # Jacobian drift (the LLE control of Eq. 3): the previous fresh
        # reduced matrix and its norm, as each batched lane keeps them
        a_previous: Optional[np.ndarray] = None
        a_previous_norm = 1.0
        lle_max = 0.0
        lle_flagged = 0
        lle_tolerance = stepper.LLE_TOLERANCE

        stats = SolverStats(
            solver_name=f"linearised-state-space/{self.integrator.name}"
        )

        wall_start = time.perf_counter()
        state_names = assembler.state_names()
        net_names = assembler.net_names()

        # initial consistency solve so that terminal variables (and the
        # probes the digital side reads) are meaningful from t_start onwards
        self._y = self._refresh(batched).y_solution
        stats.n_linear_solves += 1
        recorder = self._recorder(settings.record_interval)
        record_threshold = float(recorder.thresholds[0])
        last_record = -np.inf

        # amortised-relinearisation bookkeeping (see SolverSettings)
        hold_limit = max(1, int(settings.relinearise_interval))
        reduced: Optional[ReducedSystem] = None
        steps_since_assemble = 0
        n_jacobian_reuses = 0

        while self._t < t_end - 1e-15:
            # 1. digital activations due now
            if self.digital_kernel is not None:
                next_event = self.digital_kernel.next_event_time()
                if next_event is not None and next_event <= self._t + 1e-15:
                    model_changed = self.digital_kernel.run_due(self._t, self.interface)
                    recorder.sample_models(0, self._t, self._x, self._y)
                    if model_changed:
                        self.integrator.notify_discontinuity(integrator_state)
                        controller.reset()
                        a_previous = None
                        lle_max = 0.0
                        lle_flagged = 0
                        # the analogue model changed under us: drop the
                        # held model and what the refresh held
                        reduced = None
                        batched.prepare()

            # 2. linearise + eliminate at the current point, or reuse the
            #    held affine model while it is still fresh enough
            refresh = reduced is None or steps_since_assemble >= hold_limit
            if refresh:
                reduced = self._refresh(batched)
                self._y = reduced.y_solution
                stats.n_jacobian_evaluations += 1
                stats.n_linear_solves += 1
                steps_since_assemble = 0
            else:
                # terminal variables still follow the held affine model
                self._y = reduced.terminal_values(self._x)
                n_jacobian_reuses += 1
            steps_since_assemble += 1

            # 3. record traces (the due test of TraceRecorder.should_record)
            if not self._t - last_record < record_threshold:
                last_record = self._t
                recorder.record_lane(0, self._t, self._x, self._y)

            # 4. Jacobian drift since the previous fresh linearisation,
            #    measured once: the step controller consumes this figure
            if refresh:
                a_fresh = reduced.a_reduced
                change = (
                    0.0
                    if a_previous is None
                    else frobenius_norm(a_fresh - a_previous) / a_previous_norm
                )
                if change > lle_tolerance:
                    lle_flagged += 1
                lle_max = max(lle_max, change)
                a_previous = a_fresh
                a_previous_norm = frobenius_norm(a_fresh) or 1.0

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
            elif refresh:
                h = controller.propose(
                    reduced.a_reduced, change, t_remaining=boundary - self._t
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
            norm = frobenius_norm(self._x)
            if not norm <= settings.divergence_limit or (
                norm == np.inf and not np.isfinite(self._x).all()
            ):
                raise StabilityError(
                    f"solution diverged at t={self._t:.6g} (step {h:.3g}); "
                    "reduce h_max or the fixed step"
                )

        # final consistent record at t_end
        self._y = self._refresh(batched).y_solution
        recorder.record_lane(0, self._t, self._x, self._y)

        stats.cpu_time_s = time.perf_counter() - wall_start
        stats.final_time = self._t

        result = SimulationResult(
            traces=recorder.traces_for(0, state_names, net_names), stats=stats
        )
        result.metadata["integrator"] = self.integrator.name
        result.metadata["integrator_order"] = self.integrator.order
        result.metadata["n_states"] = assembler.n_states
        result.metadata["n_terminals"] = assembler.n_terminals
        result.metadata["lle_max_jacobian_change"] = lle_max
        result.metadata["lle_flagged_steps"] = lle_flagged
        result.metadata["relinearise_interval"] = hold_limit
        result.metadata["n_jacobian_reuses"] = n_jacobian_reuses
        if self.digital_kernel is not None:
            result.metadata["digital_activations"] = self.digital_kernel.n_activations
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _refresh(self, batched: BatchedAssembler) -> ReducedSystem:
        """Linearise and eliminate (Eq. 4) at the current point: lane 0 of
        the one-lane ``batched`` refresh.

        Raises :class:`SingularSystemError` when ``J_yy`` is singular.
        """
        x = self._x[None]
        lin = batched.assemble(np.array([self._t]), x, self._y[None])
        try:
            lanes = batched.eliminate(lin, x)
        except SingularLaneError:
            raise SingularSystemError(
                "terminal-variable elimination failed: J_yy is singular; "
                "check block wiring"
            ) from None
        return ReducedSystem(
            a_reduced=lanes.a_reduced[0],
            b_reduced=lanes.b_reduced[0],
            y_solution=lanes.y_solution[0],
            elimination_matrix=lanes.elimination_matrix[0],
            elimination_offset=lanes.elimination_offset[0],
        )

    @staticmethod
    def _frozen_derivative(reduced: ReducedSystem) -> Callable[[float, np.ndarray], np.ndarray]:
        """Derivative function of the locally linearised model.

        The affine model is frozen over the step, so multi-stage formulas
        (RK) integrate the local linear ODE exactly as Eq. (5) intends.
        """

        def derivative(_t: float, x: np.ndarray) -> np.ndarray:
            return reduced.derivative(x)

        return derivative
