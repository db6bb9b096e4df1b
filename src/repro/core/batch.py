"""Lane-parallel batched execution of the linearise→eliminate→march loop.

The paper's motivation is that the non-iterative solver makes *grids* of
design-exploration simulations cheap.  The scalar solver spends most of a
small system's step budget in Python/NumPy overhead on tiny matrices; this
module runs ``B`` same-topology candidates ("lanes") as ``B`` copies of the
paper's loop — linearise, eliminate the terminal variables (Eq. 4), take
one explicit step — held in stacked ``(B, n, n)`` arrays, so one
linearisation sweep, one stacked ``np.linalg.solve`` and one stacked
integrator update serve every lane: the classic vectorised-ensemble-ODE
trick, composing multiplicatively with the sweep engine's process-level
parallelism.

Execution model
---------------
* Lanes share the topology (one :class:`~repro.core.elimination.
  AssemblyStructure`); parameters, excitations, initial states, end times
  and solver settings are per-lane.
* **Per-lane clocks**: every lane keeps its own time ``t``, step ``h``,
  hold counter and refresh decision as ``(B,)`` arrays.  Adaptive lanes
  keep their own :class:`~repro.core.stepper.BatchedStepController`
  proposal; fixed-step lanes step ``min(fixed_step, t_end - t)``.
* **Per-lane refresh**: a lane is due when its ``relinearise_interval``
  hold budget is spent or a control write restarts it.  A refresh
  assembles every active lane but adopts the new model, step proposal,
  LLE drift and statistics only in the due lanes; the others keep their
  held model.
* **Kernel bursts**: between two events (a lane due for refresh, a lane
  reaching its end time or its next digital event, divergence) the held
  models march in one call of the march kernel from
  :mod:`repro.core.kernels`.  Trace records that come due inside a burst
  are returned by the kernel and written after the call.  While any lane
  is still in its RK4 start-up, the loop takes single mixed steps: the
  start-up lanes through the integrator, the others through a one-step
  kernel call.  Non-Adams-Bashforth integrators step one at a time.
* **Lane retirement**: lanes that reach their end time are finalised and
  retired; lanes that trip the divergence guard or a singular elimination
  at their own refresh, or whose digital process raises, are retired with
  their error recorded so the caller can re-run them on the exact scalar
  path (:mod:`repro.analysis.engine` does exactly that).
* **Batched refresh**: each relinearisation evaluates the active lanes'
  block models into the one persistent
  :class:`~repro.core.elimination.BatchedAssembler` workspace, bound at
  the start of each run.  A block group with a ``batched_lineariser``
  scatters its lane-constant Jacobian fields once per binding and
  rebuilds only the state-dependent fields per refresh; a group without
  one stacks its lanes' scalar ``linearise``.  While no group's
  ``jxy``/``jyx``/``jyy``/``ey`` can change, the stacked Eq. (4) solve is
  held too.  Either way every lane's model is bitwise its scalar one.
* **Digital events as per-lane interrupts**: a lane may carry its own
  :class:`~repro.core.digital.DigitalEventKernel`.  Its next event time
  bounds the lane's steps exactly as the scalar solver's event boundary
  does, and bursts stop as soon as any lane has an event due.  The due
  lanes' activations run between bursts, reading that lane's live state;
  an activation that writes a control restarts that lane alone (fresh
  refresh, step controller, Jacobian-drift reference and Adams-Bashforth
  start-up) and rebinds the batched refresh, whose block linearisers hold
  control values as lane constants.

Equivalence contract
--------------------
Each lane is bitwise its scalar run: its recorded waveforms, step
sequence and statistics equal the same candidate simulated alone by
:class:`~repro.core.solver.LinearisedStateSpaceSolver`, in fixed-step and
adaptive mode alike and whatever its lane-mates.  No quantity couples
lanes; all batched linear algebra runs through stacked ``matmul``/
``solve`` (the same BLAS/LAPACK kernels per lane as the scalar path), the
ported block linearisations are element-wise identical IEEE-754
arithmetic, and each lane's excitation goes through scalar libm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .digital import AnalogueInterface, DigitalEventKernel
from .elimination import (
    BatchedAssembler,
    BatchedReducedSystem,
    SystemAssembler,
)
from .errors import (
    ConfigurationError,
    SingularLaneError,
    SingularSystemError,
    StabilityError,
)
from .integrators import AdamsBashforth, ExplicitIntegrator
from .kernels import (
    END_EPS,
    divergence_guard,
    diverged_lanes,
    get_march_kernel,
    push_sample,
)
from .probes import ProbeFn
from .results import ColumnRecorder, SimulationResult, SolverStats
from . import stepper
from .solver import SolverSettings
from .stepper import BatchedStepController, jacobian_drifts

__all__ = ["BatchedSolver", "BatchResult"]


@dataclass
class BatchResult:
    """Outcome of one batched run.

    ``results[i]`` is lane *i*'s :class:`SimulationResult`, or ``None``
    when the lane was retired on an error; ``failures[i]`` then holds the
    exception (a :class:`StabilityError`, a
    :class:`~repro.core.errors.SingularLaneError` or whatever the lane's
    digital process raised) so the caller can re-run that candidate on
    the exact scalar path.
    """

    results: List[Optional[SimulationResult]]
    failures: Dict[int, Exception] = field(default_factory=dict)

    @property
    def n_lanes(self) -> int:
        """Total number of lanes the batch was launched with."""
        return len(self.results)


class _Lane:
    """Per-lane bookkeeping carried through the march."""

    def __init__(
        self,
        index: int,
        settings: SolverSettings,
        assembler: SystemAssembler,
        kernel: Optional[DigitalEventKernel],
    ) -> None:
        self.index = index
        #: the lane's position in the march's compacted ``(B, ...)`` arrays
        self.row = index
        self.settings = settings
        self.assembler = assembler
        self.kernel = kernel
        # only a lane with digital processes exposes an interface to wire
        self.interface = None if kernel is None else AnalogueInterface()
        self.probes: Dict[str, ProbeFn] = {}
        self.stats = SolverStats(solver_name="")


class _LaneWiring:
    """Adapter exposing the solver surface wiring expects, for one lane.

    ``BuiltSystem._wire`` talks to a solver through ``add_probe``, its
    digital ``interface`` and the live reads
    ``state_value``/``net_value``/``current_time``.  This routes them to
    one lane of the batched solver: the interface is the lane's own
    (``None`` for a lane without a digital kernel, so nothing is wired),
    and during an activation the reads return that lane's live state, time
    and (lagged) terminal values — what its scalar run reads.
    """

    def __init__(self, solver: "BatchedSolver", lane: _Lane) -> None:
        self._solver = solver
        self._lane = lane
        self.interface = lane.interface

    def add_probe(self, name: str, probe: ProbeFn) -> None:
        self._solver.add_probe(self._lane.index, name, probe)

    def state_value(self, block_name: str, state_name: str) -> float:
        index = self._lane.assembler.state_index(block_name, state_name)
        return float(self._solver._live.x[self._lane.row, index])

    def net_value(self, block_name: str, terminal_name: str) -> float:
        index = self._lane.assembler.net_index(block_name, terminal_name)
        return float(self._solver._live.y[self._lane.row, index])

    @property
    def current_time(self) -> float:
        return float(self._solver._live.t[self._lane.row])


class _LaneArrays:
    """The march's per-lane ``(B, ...)`` arrays, compacted together.

    Every attribute is indexed by lane along its first axis, so retiring
    lanes is one :meth:`select` over all of them.
    """

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def select(self, keep: np.ndarray) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[keep])


class BatchedSolver:
    """Marches ``B`` same-topology candidates as lanes of stacked arrays.

    Parameters
    ----------
    assemblers:
        One scalar :class:`~repro.core.elimination.SystemAssembler` per
        lane, all sharing one topology (grouped by the caller, e.g. via
        ``topology_hash()``).
    integrator:
        Shared explicit integrator (third-order Adams-Bashforth by
        default, as in the scalar solver).
    settings:
        One :class:`~repro.core.solver.SolverSettings` per lane, or a
        single instance shared by every lane.  Every setting is per-lane
        (step bounds, ``fixed_step``, ``relinearise_interval``,
        recording).
    digital_kernels:
        Optional per-lane :class:`~repro.core.digital.DigitalEventKernel`
        (``None`` entries for lanes without digital processes), as the
        scalar solver's ``digital_kernel``.
    """

    def __init__(
        self,
        assemblers: Sequence[SystemAssembler],
        integrator: Optional[ExplicitIntegrator] = None,
        settings: Union[SolverSettings, Sequence[SolverSettings], None] = None,
        digital_kernels: Optional[Sequence[Optional[DigitalEventKernel]]] = None,
    ) -> None:
        self.batched_assembler = BatchedAssembler(assemblers)
        b = self.batched_assembler.n_lanes
        self.integrator = integrator or AdamsBashforth(order=3)

        if settings is None:
            settings = SolverSettings()
        if isinstance(settings, SolverSettings):
            settings_list = [settings] * b
        else:
            settings_list = list(settings)
            if len(settings_list) != b:
                raise ConfigurationError(
                    f"{len(settings_list)} settings for {b} lanes"
                )
        kernels = [None] * b if digital_kernels is None else list(digital_kernels)
        if len(kernels) != b:
            raise ConfigurationError(f"{len(kernels)} digital kernels for {b} lanes")
        self._lanes = [
            _Lane(i, settings, assemblers[i], kernel)
            for i, (settings, kernel) in enumerate(zip(settings_list, kernels))
        ]
        # the live per-lane arrays of the running march (lane wiring reads)
        self._live: Optional[_LaneArrays] = None

    @property
    def n_lanes(self) -> int:
        """Number of lanes in the batch."""
        return len(self._lanes)

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def add_probe(self, lane: int, name: str, probe: ProbeFn) -> None:
        """Record ``probe(t, x_lane, y_lane)`` as a named trace of ``lane``."""
        probes = self._lanes[lane].probes
        if name in probes:
            raise ConfigurationError(
                f"duplicate probe name {name!r} on lane {lane}"
            )
        probes[name] = probe

    def lane_wiring(self, lane: int) -> _LaneWiring:
        """Solver-shaped adapter for wiring one lane's probes and interface.

        Pass to ``BuiltSystem._wire`` in place of a scalar solver.
        """
        return _LaneWiring(self, self._lanes[lane])

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        t_end: Union[float, Sequence[float]],
        *,
        t_start: float = 0.0,
        x0: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Simulate all lanes from ``t_start`` and return per-lane results.

        ``t_end`` is shared or per-lane.  The batched refresh is bound
        afresh at the start of every run, so a model changed since the
        last run (a control write) is never read from held values and the
        solver object stays reusable.
        """
        self.batched_assembler.prepare()
        try:
            return self._march(t_end, t_start=t_start, x0=x0)
        finally:
            self._live = None

    def _march(
        self,
        t_end: Union[float, Sequence[float]],
        *,
        t_start: float = 0.0,
        x0: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """The march: per-lane clocks, per-lane refreshes, kernel bursts.

        Each iteration finalises lanes that reached their end time, runs
        the digital activations that came due, refreshes the due lanes
        (linearise + eliminate, Eq. 4) while the others keep their held
        model, records due lanes and then marches one kernel burst — up to
        the smallest remaining hold budget, so with
        ``relinearise_interval`` 4 a burst is the whole window — or a
        single mixed start-up step.  Per-lane statistics live in ``(B,)``
        accumulators, materialised into each lane's :class:`SolverStats`
        only at finalisation (the step count, which every active lane
        shares, is one int); traces go through one
        :class:`~repro.core.results.ColumnRecorder`.

        Every expression replicates the scalar solver's for each lane.
        The terminal values ``y`` lag the state by one step, as in the
        scalar loop: entering an iteration, ``y`` holds the values of the
        state the last step departed from, which is what the next
        refresh linearises around.
        """
        kernel = get_march_kernel("numpy")
        assembler = self.batched_assembler
        b = assembler.n_lanes
        n_states = assembler.n_states

        t_end_arr = np.broadcast_to(np.asarray(t_end, dtype=float), (b,)).copy()
        if np.any(t_end_arr <= t_start):
            raise ConfigurationError("t_end must be greater than t_start")
        if x0 is None:
            x0 = assembler.initial_state()
        else:
            x0 = np.array(x0, dtype=float, copy=True)
        if x0.shape != (b, n_states):
            raise ConfigurationError(
                f"x0 has shape {x0.shape}, expected ({b}, {n_states})"
            )

        lanes = list(self._lanes)
        configs = [lane.settings for lane in lanes]
        for lane in lanes:
            lane.row = lane.index
            lane.stats = SolverStats(
                solver_name=f"batched-state-space/{self.integrator.name}"
            )
        # lanes without digital processes never see an event: the event
        # checks below are skipped altogether when no lane has any
        events_active = any(lane.kernel is not None for lane in lanes)
        fixed = np.array(
            [np.nan if c.fixed_step is None else float(c.fixed_step) for c in configs]
        )
        controller: Optional[BatchedStepController] = None
        if np.any(np.isnan(fixed)):
            controller = BatchedStepController(
                [c.step_control for c in configs], integrator=self.integrator
            )

        def per_lane(values, dtype=float) -> np.ndarray:
            return np.array(list(values), dtype=dtype)

        def next_event_time(lane: _Lane) -> float:
            event = None if lane.kernel is None else lane.kernel.next_event_time()
            return np.inf if event is None else event

        hold = per_lane((max(1, int(c.relinearise_interval)) for c in configs), int)
        lle_tolerance = stepper.LLE_TOLERANCE
        # kernel bursts need an Adams-Bashforth window short of at most
        # the sample the step itself adds (lanes in their RK4 start-up
        # take mixed single steps, other integrators plain single steps)
        burstable = isinstance(self.integrator, AdamsBashforth)
        order = self.integrator.order
        # every lane's per-lane state; the stat accumulators are copied
        # into each lane's SolverStats at finalisation.  Every active lane
        # advances by the same number of steps and is refreshed at most
        # once per step, so the function evaluations, linear solves and
        # Jacobian reuses follow from ``steps`` and ``jev`` there
        s = _LaneArrays(
            t=np.full(b, float(t_start)),
            t_end=t_end_arr,
            # a lane has finished at ``t >= t_done``
            t_done=t_end_arr - END_EPS,
            x=x0,
            y=np.zeros((b, assembler.n_terminals)),
            adaptive=np.isnan(fixed),
            # the held step: the fixed step, or the last proposal
            h=fixed,
            hold=hold,
            # a spent hold budget forces every lane's first refresh
            since=hold.copy(),
            due=np.ones(b, dtype=bool),
            guard=divergence_guard(per_lane(c.divergence_limit for c in configs)),
            h_min=np.full(b, np.inf),
            h_max=np.zeros(b),
            jev=np.zeros(b, dtype=np.int64),
            lle_max=np.zeros(b),
            lle_flags=np.zeros(b, dtype=np.int64),
            # each lane's Jacobian-drift reference and its Frobenius norm,
            # kept from the refresh that measured it; valid where has_ref
            a_ref=np.zeros((b, n_states, n_states)),
            ref_norm=np.zeros(b),
            has_ref=np.zeros(b, dtype=bool),
            # Adams-Bashforth samples since the lane's last (re)start
            depth=np.zeros(b, dtype=np.int64),
            # the stacked Adams-Bashforth window, oldest first: (B, k)
            # sample times with (B, k, n) derivatives, shifted in place by
            # ``push_sample``; a lane reads only its newest ``depth`` entries
            window_t=np.zeros((b, order)),
            window_f=np.zeros((b, order, n_states)),
            # the lane's next digital activation (inf: none pending)
            t_event=per_lane(next_event_time(lane) for lane in lanes),
        )
        self._live = s
        # the steps every active lane has taken: they all advance together
        steps = 0
        # whether every active lane proposes its own steps, has a window
        # of ``order - 1`` samples (the kernel takes every lane) and holds
        # a drift reference; a model-changing activation clears the last two
        all_adaptive = bool(s.adaptive.all())
        warm = order == 1
        all_ref = False
        # the kernel's step budget right after every lane refreshed
        min_hold = int(hold.min())
        # the single-step path's state (non-Adams-Bashforth integrators)
        integrator_state = self.integrator.new_state()

        results: List[Optional[SimulationResult]] = [None] * b
        failures: Dict[int, Exception] = {}

        structure = assembler.structure
        rep = assembler.lane_assembler(0)
        state_names = rep.state_names()
        net_names = rep.net_names()
        recorder = ColumnRecorder(
            [c.record_interval for c in configs],
            [lane.probes for lane in lanes],
            s.t,
            s.x,
            s.y,
        )

        wall_start = time.perf_counter()
        # kernel-vs-refresh wall-time split, reported through result
        # metadata (batch-level totals as of each lane's finalisation)
        kernel_time = 0.0
        refresh_time = 0.0
        reduced: Optional[BatchedReducedSystem] = None

        def drop_lanes(keep: np.ndarray) -> None:
            """Compact every stacked structure to the lanes in ``keep``."""
            nonlocal reduced, lanes, assembler, all_adaptive, warm, min_hold
            keep = np.asarray(keep, dtype=int)
            if keep.size == 0:
                lanes = []
                return
            s.select(keep)
            all_adaptive = bool(s.adaptive.all())
            min_hold = int(s.hold.min())
            warm = warm or bool(s.depth.min() >= order - 1)
            recorder.select(keep)
            if reduced is not None:
                reduced = reduced.select(keep)
            if controller is not None:
                controller.select(keep)
            assembler = assembler.select(keep)
            lanes = [lanes[int(i)] for i in keep]
            for row, lane in enumerate(lanes):
                lane.row = row

        def finalize(i: int) -> None:
            """Final record + materialised result for lane ``i``, whose
            terminals ``final_terminals`` made consistent."""
            lane = lanes[i]
            t_i = float(s.t[i])
            recorder.record_lane(i, t_i, s.x[i], s.y[i])
            stats = lane.stats
            jev = int(s.jev[i])
            stats.n_function_evaluations = steps
            stats.n_steps = steps
            stats.n_accepted_steps = steps
            stats.min_step = float(s.h_min[i])
            stats.max_step = float(s.h_max[i])
            stats.n_jacobian_evaluations = jev
            # the initial consistency solve, then one per refresh
            stats.n_linear_solves = jev + 1
            stats.cpu_time_s = (time.perf_counter() - wall_start) / b
            stats.final_time = t_i
            result = SimulationResult(
                traces=recorder.traces_for(i, state_names, net_names),
                stats=stats,
            )
            result.metadata["integrator"] = self.integrator.name
            result.metadata["integrator_order"] = self.integrator.order
            result.metadata["n_states"] = n_states
            result.metadata["n_terminals"] = structure.n_terminals
            result.metadata["lle_max_jacobian_change"] = float(s.lle_max[i])
            result.metadata["lle_flagged_steps"] = int(s.lle_flags[i])
            result.metadata["relinearise_interval"] = int(s.hold[i])
            # every step not taken on a fresh refresh held its model
            result.metadata["n_jacobian_reuses"] = steps - jev
            if lane.kernel is not None:
                result.metadata["digital_activations"] = lane.kernel.n_activations
            result.metadata["batched"] = True
            result.metadata["batch_lanes"] = b
            result.metadata["lane_index"] = lane.index
            result.metadata["kernel_time_s"] = kernel_time
            result.metadata["refresh_time_s"] = refresh_time
            results[lane.index] = result

        def final_terminals(idx: np.ndarray) -> List[int]:
            """Solve the finishing lanes ``idx``' terminals at their end
            points from one stacked assemble + eliminate over every active
            lane; returns the lanes solved.  When that solve is singular
            each finishing lane is re-solved alone, and fails if singular:
            an active lane it blames marches on, since its own run need
            not solve at this point.
            """
            try:
                final = assembler.eliminate(assembler.assemble(s.t, s.x, s.y), s.x)
            except SingularLaneError:
                pass
            else:
                s.y[idx] = final.y_solution[idx]
                return idx.tolist()
            solved = []
            for i in idx.tolist():
                alone = assembler.lane_assembler(i)
                try:
                    final = alone.eliminate(
                        alone.assemble(float(s.t[i]), s.x[i], s.y[i]), s.x[i]
                    )
                except SingularSystemError:
                    failures[lanes[i].index] = SingularLaneError(
                        "terminal-variable elimination failed: J_yy is singular "
                        f"in lane {lanes[i].index} at its end point",
                        lane_indices=(lanes[i].index,),
                    )
                    continue
                s.y[i] = final.y_solution
                solved.append(i)
            return solved

        def fail_lanes(indices: Sequence[int], errors: Sequence[Exception]) -> None:
            for i, error in zip(indices, errors):
                failures[lanes[i].index] = error
            keep = np.array(
                [i for i in range(len(lanes)) if i not in set(indices)], dtype=int
            )
            drop_lanes(keep)

        def run_events(rows: np.ndarray) -> None:
            """Run the due lanes' activations, as the scalar loop does.

            A lane whose activation wrote a control restarts alone: it is
            forced due for refresh, its step controller and drift
            reference are reset and its Adams-Bashforth window restarts.
            The batched refresh is rebound, because its block linearisers
            hold control values as lane constants.  A lane
            whose digital process raises is retired with that exception.
            """
            nonlocal warm, all_ref
            changed: List[int] = []
            failed: List[int] = []
            errors: List[Exception] = []
            for row in rows.tolist():
                lane = lanes[row]
                try:
                    if lane.kernel.run_due(float(s.t[row]), lane.interface):
                        changed.append(row)
                except Exception as exc:  # the lane's own fault: retire it
                    failed.append(row)
                    errors.append(exc)
                    continue
                # an activation may change a model probe even when it
                # writes no control
                recorder.sample_models(row, float(s.t[row]), s.x[row], s.y[row])
                s.t_event[row] = next_event_time(lane)
            if changed:
                s.since[changed] = s.hold[changed]
                s.has_ref[changed] = False
                s.lle_max[changed] = 0.0
                s.lle_flags[changed] = 0
                s.depth[changed] = 0
                warm = order == 1
                all_ref = False
                if controller is not None:
                    controller.reset(lanes=np.array(changed))
                assembler.prepare()
            if failed:
                fail_lanes(failed, errors)

        def step_boundary() -> np.ndarray:
            """Each lane's step boundary: its end time or next event."""
            if not events_active:
                return s.t_end
            return np.minimum(s.t_end, np.maximum(s.t_event, s.t + END_EPS))

        def mixed_step(h: np.ndarray) -> np.ndarray:
            """One step while some lanes are in their Adams-Bashforth start-up.

            Lanes whose window holds ``order - 1`` samples take one kernel
            step; the others take their RK4 start-up step.  Both push the
            step's derivative sample into the lane's window.  Returns the
            new states.
            """
            x_new = np.empty_like(s.x)
            sample = np.empty_like(s.x)
            ready = s.depth >= order - 1
            rows = np.flatnonzero(ready)
            if rows.size:
                window_f = s.window_f[rows]
                one = kernel(
                    reduced.a_reduced[rows],
                    reduced.b_reduced[rows],
                    s.x[rows],
                    s.t[rows],
                    s.h[rows],
                    s.t_end[rows],
                    1,
                    s.window_t[rows],
                    window_f,
                    recorder.last_record_times[rows],
                    recorder.thresholds[rows],
                    s.guard[rows],
                    s.t_event[rows] if events_active else None,
                )
                x_new[rows] = one.x
                sample[rows] = window_f[:, -1]
            rows = np.flatnonzero(~ready)
            start = reduced.select(rows)
            scratch = self.integrator.new_state()
            x_new[rows] = self.integrator.step_batch(
                lambda _t, xs: start.derivative(xs),
                s.t[rows], s.x[rows], h[rows], scratch,
            )
            sample[rows] = scratch.history[-1][1]
            push_sample(s.window_t, s.window_f, s.t, sample)
            return x_new

        def fail_diverged(bad: np.ndarray, h_at: np.ndarray) -> None:
            indices = [int(i) for i in np.flatnonzero(bad)]
            fail_lanes(
                indices,
                [
                    StabilityError(
                        f"solution diverged at t={s.t[i]:.6g} (step {h_at[i]:.3g}); "
                        "lane retired for exact scalar re-run"
                    )
                    for i in indices
                ],
            )

        def linearise() -> Optional[BatchedReducedSystem]:
            """Assemble + eliminate every active lane at its own point.

            Due lanes whose elimination is singular are retired (their
            blame is lane-accurate, see ``BatchedAssembler.eliminate``); a
            blamed lane that is not due keeps its held model and marches
            on, as in its own run, which does not solve at this point: its
            ``J_yy`` is stood in by the identity, so the solve succeeds and
            its row, which ``adopt`` never takes, is left unused.  Returns
            ``None`` once no lane is left.
            """
            nonlocal refresh_time
            refresh_start = time.perf_counter()
            try:
                while lanes:
                    lin = assembler.assemble(s.t, s.x, s.y)
                    try:
                        return assembler.eliminate(lin, s.x)
                    except SingularLaneError as exc:
                        bad = [i for i in exc.lane_indices if s.due[i]]
                        if not bad:
                            jyy = lin.jyy.copy()
                            jyy[list(exc.lane_indices)] = np.eye(jyy.shape[1])
                            return assembler.eliminate(replace(lin, jyy=jyy), s.x)
                        fail_lanes(
                            bad,
                            [
                                SingularLaneError(
                                    str(exc), lane_indices=(lanes[i].index,)
                                )
                                for i in bad
                            ],
                        )
                return None
            finally:
                refresh_time += time.perf_counter() - refresh_start

        def measure_drifts(
            a: np.ndarray, rows: Optional[np.ndarray]
        ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
            """The LLE and stability drifts of fresh matrices ``a`` of the
            lanes in ``rows`` (default: all), in one stacked norm, and the
            norms of ``a`` to keep with them as the next reference."""
            if rows is None:
                reference = (s.a_ref, s.ref_norm)
            else:
                reference = (s.a_ref[rows], s.ref_norm[rows])
            if controller is None:
                drift, norms = jacobian_drifts(a, reference)
                return drift, None, norms
            return controller.drifts(a, *reference, rows)

        def adopt(fresh: BatchedReducedSystem, remaining: np.ndarray) -> bool:
            """Take the fresh models, proposals and stats in the due lanes.

            When every lane is due (always, at ``relinearise_interval``
            1) whole arrays are rebound rather than written lane by lane;
            ``a_ref`` then aliases the fresh model's ``a_reduced``, so
            neither path ever writes into ``a_ref``.  Both drifts of the
            refresh come from one stacked norm evaluation: the LLE drift
            against ``a_ref`` and the controller's stability drift, each
            scaled by its reference's kept norm.  ``remaining`` is each
            lane's time left to its step boundary.  Returns whether every
            lane was due.
            """
            nonlocal reduced, all_ref
            a_fresh = fresh.a_reduced
            # the first refresh has every lane due: ``since`` starts at ``hold``
            every_due = np.count_nonzero(s.due) == s.due.size
            if every_due:
                reduced = fresh
                s.y = fresh.y_solution
                drift, stability_drift, norms = measure_drifts(a_fresh, None)
                # a lane's first sample after a (re)start measures no drift
                change = drift if all_ref else np.where(s.has_ref, drift, 0.0)
                np.maximum(s.lle_max, change, out=s.lle_max)
                s.lle_flags += change > lle_tolerance
                s.a_ref, s.ref_norm = a_fresh, norms
                if not all_ref:
                    s.has_ref.fill(True)
                    all_ref = True
                s.since.fill(0)
                s.jev += 1
            else:
                due = s.due
                rows = np.flatnonzero(due)
                # the other lanes' terminals follow their held models
                s.y = np.where(
                    due[:, None], fresh.y_solution, reduced.terminal_values(s.x)
                )
                # rebound, not written in place: the arrays may be the
                # assembler's read-only held Eq. (4) solve
                for name in (
                    "a_reduced",
                    "b_reduced",
                    "y_solution",
                    "elimination_matrix",
                    "elimination_offset",
                ):
                    held = getattr(reduced, name)
                    mask = due.reshape((-1,) + (1,) * (held.ndim - 1))
                    setattr(reduced, name, np.where(mask, getattr(fresh, name), held))
                drift, stability_drift, norms = measure_drifts(a_fresh[rows], rows)
                change = drift if all_ref else np.where(s.has_ref[rows], drift, 0.0)
                s.lle_max[rows] = np.maximum(s.lle_max[rows], change)
                s.lle_flags[rows] += change > lle_tolerance
                s.a_ref = np.where(due[:, None, None], a_fresh, s.a_ref)
                s.ref_norm[rows] = norms
                s.has_ref[rows] = True
                all_ref = bool(s.has_ref.all())
                s.since[rows] = 0
                s.jev[rows] += 1
            if controller is None:
                return every_due
            # a lane's drift reference is its previous proposal's
            # Jacobian: the controller consumes the adopted figures
            if every_due and all_adaptive:
                proposing = None
            else:
                proposing = np.flatnonzero(s.due & s.adaptive)
                if not proposing.size:
                    return every_due
                adaptive = s.adaptive if every_due else s.adaptive[rows]
                change = change[adaptive]
                stability_drift = stability_drift[adaptive]
            proposals = controller.propose(
                reduced.a_reduced,
                change,
                stability_drift,
                t_remaining=remaining,
                lanes=proposing,
            )
            if proposing is None:
                s.h = proposals
            else:
                s.h[proposing] = proposals
            return every_due

        # initial consistency solve (counts as a linear solve only)
        initial = linearise()
        if initial is None:
            return BatchResult(results=results, failures=failures)
        s.y = initial.y_solution

        while lanes:
            # 1. finalise lanes that reached their end time, their final
            #    terminals from one stacked solve.  (``count_nonzero`` tests
            #    a mask without a ufunc reduction, here and below.)
            finished = s.t >= s.t_done
            if np.count_nonzero(finished):
                for i in final_terminals(np.flatnonzero(finished)):
                    finalize(i)
                drop_lanes(np.flatnonzero(~finished))
                if not lanes:
                    break

            # 2. digital activations due now, lane by lane
            if events_active:
                due_events = s.t_event <= s.t + END_EPS
                if np.count_nonzero(due_events):
                    run_events(np.flatnonzero(due_events))
                    if not lanes:
                        break

            # 3. refresh the due lanes (hold budget spent or a
            #    model-changing activation); the others' terminals follow
            #    their held models.  The time left to each lane's step
            #    boundary is taken once, after any lane retirement, which
            #    may leave no lane due
            s.due = s.since >= s.hold
            every_due = False
            if np.count_nonzero(s.due):
                fresh = linearise()
                if fresh is None:
                    break
            remaining = step_boundary() - s.t
            if np.count_nonzero(s.due):
                every_due = adopt(fresh, remaining)
            else:
                s.y = reduced.terminal_values(s.x)

            # 4. record traces
            recorder.record(s.t, s.x, s.y)

            # 5. march one burst through the kernel (it exits on this
            #    loop's own events: hold budget, t_end, a digital event,
            #    divergence), or one single step
            if burstable and warm:
                kernel_start = time.perf_counter()
                burst = kernel(
                    reduced.a_reduced,
                    reduced.b_reduced,
                    s.x,
                    s.t,
                    s.h,
                    s.t_end,
                    min_hold if every_due else int((s.hold - s.since).min()),
                    s.window_t,
                    s.window_f,
                    recorder.last_record_times,
                    recorder.thresholds,
                    s.guard,
                    s.t_event if events_active else None,
                )
                kernel_time += time.perf_counter() - kernel_start
                if burst.records:
                    # a burst holds every lane's model: a row's terminals
                    # are the held model's, one stacked product for all rows
                    times, due, states = (np.stack(c) for c in zip(*burst.records))
                    recorder.write(times, due, states, reduced.terminal_values(states))
                n_steps = burst.steps
                s.x, s.t = burst.x, burst.t
                # ``y`` lags the state: after one step it already holds the
                # terminals of the state that step departed from
                if n_steps > 1:
                    s.y = reduced.terminal_values(burst.x_prev)
                h_min, h_max, h_last = burst.h_min, burst.h_max, burst.h_last
                diverged = burst.diverged
            else:
                h = np.minimum(s.h, remaining)
                if burstable:
                    s.x = mixed_step(h)
                else:
                    s.x = self.integrator.step_batch(
                        lambda _t, xs: reduced.derivative(xs),
                        s.t, s.x, h, integrator_state,
                    )
                s.t = s.t + h
                n_steps = 1
                h_min = h_max = h_last = h
                diverged = diverged_lanes(s.x, s.guard)
                # a warm window stays warm: ``depth`` counts only until then
                s.depth += 1
                warm = bool(s.depth.min() >= order - 1)

            steps += n_steps
            s.since += n_steps
            np.minimum(s.h_min, h_min, out=s.h_min)
            np.maximum(s.h_max, h_max, out=s.h_max)
            if diverged is not None:
                fail_diverged(diverged, h_last)

        return BatchResult(results=results, failures=failures)
