"""Lane-parallel batched execution of the linearise→eliminate→march loop.

The paper's motivation is that the non-iterative solver makes *grids* of
design-exploration simulations cheap.  The scalar solver spends most of a
small system's step budget in Python/NumPy overhead on tiny matrices; this
module marches ``B`` same-topology candidates ("lanes") in lock-step
through stacked ``(B, n, n)`` arrays instead, so one linearisation sweep,
one stacked ``np.linalg.solve`` and one stacked integrator update serve
every lane — the classic vectorised-ensemble-ODE trick, composing
multiplicatively with the sweep engine's process-level parallelism.

Execution model
---------------
* Lanes share the topology (one :class:`~repro.core.elimination.
  AssemblyStructure`) and the time axis; parameters, excitations and
  initial states are per-lane.
* **Shared step**: every explicit step advances all active lanes by the
  minimum of the per-lane :class:`~repro.core.stepper.StepSizeController`
  proposals (vectorised in :class:`~repro.core.stepper.
  BatchedStepController`).  With ``fixed_step`` set there is nothing to
  negotiate and each lane's waveforms are **byte-identical** to its serial
  scalar run (see the equivalence contracts below).
* **Kernel bursts**: between two events (refresh, record, end time,
  divergence) the held affine model is marched in one call of a march
  kernel from :mod:`repro.core.kernels` — the NumPy kernel by default,
  numba with ``compiled="auto" | "numba"``.  Steps the kernel cannot take
  (RK4 startup, non-Adams-Bashforth integrators, recorders not yet
  burst-ready) run one at a time in the same loop.
* **Lane retirement**: lanes that reach their end time are finalised and
  retired; lanes that trip the divergence guard or a singular elimination
  are retired with their error recorded so the caller can re-run them on
  the exact scalar path (:mod:`repro.analysis.engine` does exactly that).
* **Batched refresh**: each relinearisation evaluates the active lanes'
  block models through a prepared
  :class:`~repro.core.elimination.BatchedAssembler` workspace —
  lane-constant Jacobian fields are scattered once per march and only the
  state-dependent fields are rebuilt per refresh; block groups without a
  batched lineariser fall back to the generic per-lane dispatch, and a
  batch with no such group at all runs unprepared.  The prepared path is
  bit-identical to the per-lane dispatch.
* **Digital events are out of scope**: candidates with a digital kernel
  fall back to the scalar solver — a digital activation changes one lane's
  analogue model mid-march, which breaks the lock-step premise.

Equivalence contracts
---------------------
1. With ``fixed_step`` set (and the default ``relinearise_state_rtol``
   unset), every lane's recorded waveforms are byte-identical to the same
   candidate simulated by :class:`~repro.core.solver.
   LinearisedStateSpaceSolver`: all batched linear algebra runs through
   stacked ``matmul``/``solve`` (the same BLAS/LAPACK kernels per lane as
   the scalar path) and the ported block linearisations are element-wise
   identical IEEE-754 arithmetic.
2. In adaptive shared-step mode the step *sequence* differs from the
   serial runs (shared minimum instead of per-lane steps), which is an
   accuracy-neutral-or-better perturbation; sweep scores stay within the
   engine's documented 10 % relative tolerance (asserted by
   ``benchmarks/bench_sweep_scaling.py``).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

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
    COMPILED_MODES,
    batched_state_norms,
    get_march_kernel,
    resolve_compiled,
)
from .results import SimulationResult, SolverStats, Trace
from .solver import ProbeFn, SolverSettings
from .stepper import (
    BatchedStepController,
    negotiate_shared_step,
    relative_jacobian_drift,
)

__all__ = ["BatchedSolver", "BatchResult"]

_END_EPS = 1e-15


def _needs_refresh(
    reduced: Optional[BatchedReducedSystem],
    steps_since_assemble: int,
    hold_limit: int,
    state_rtol: np.ndarray,
    x: np.ndarray,
    x_reference: np.ndarray,
) -> bool:
    """Refresh decision of the batched march.

    A relinearisation is due when no reduced system exists yet, when the
    hold budget (``relinearise_interval``) is exhausted, or when any
    lane's state drifted beyond its ``relinearise_state_rtol`` guard
    relative to the state the model was linearised around.  The march
    kernels replicate the drift expression, so a burst stops exactly
    where this predicate would call for a refresh.
    """
    refresh = reduced is None or steps_since_assemble >= hold_limit
    if not refresh and np.any(np.isfinite(state_rtol)):
        drift = np.max(np.abs(x - x_reference), axis=1)
        scale = np.max(np.abs(x_reference), axis=1)
        refresh = bool(np.any(drift > state_rtol * (scale + 1e-300)))
    return refresh


@dataclass
class BatchResult:
    """Outcome of one batched run.

    ``results[i]`` is lane *i*'s :class:`SimulationResult`, or ``None``
    when the lane was retired on an error; ``failures[i]`` then holds the
    exception (a :class:`StabilityError` or
    :class:`~repro.core.errors.SingularSystemError`) so the caller can
    re-run that candidate on the exact scalar path.
    """

    results: List[Optional[SimulationResult]]
    failures: Dict[int, Exception] = field(default_factory=dict)

    @property
    def n_lanes(self) -> int:
        """Total number of lanes the batch was launched with."""
        return len(self.results)


class _LaneWiring:
    """Adapter exposing the solver surface probe wiring expects.

    ``BuiltSystem._wire``/``TunableEnergyHarvester._wire`` talk to a
    solver through ``add_probe`` and (optionally) ``interface``; this
    routes ``add_probe`` to one lane of the batched solver and reports no
    digital interface (batched lanes are controller-free by construction).
    """

    interface = None

    def __init__(self, solver: "BatchedSolver", lane: int) -> None:
        self._solver = solver
        self._lane = lane

    def add_probe(self, name: str, probe: ProbeFn) -> None:
        self._solver.add_probe(self._lane, name, probe)


class _Lane:
    """Per-lane bookkeeping carried through the lock-step march."""

    def __init__(self, index: int, settings: SolverSettings) -> None:
        self.index = index
        self.settings = settings
        self.probes: Dict[str, ProbeFn] = {}
        self.stats = SolverStats(solver_name="")


class _BatchedRecorder:
    """Geometrically grown trace buffers for the batched march.

    Instead of one :class:`~repro.core.results.TraceRecorder` per lane
    (a Python dict build plus per-trace list appends for every lane at
    every recorded step), this recorder keeps one row-buffered array per
    quantity (times ``(cap,)``, due-mask ``(cap, B)``, states
    ``(cap, B, n)``, terminals ``(cap, B, m)``), doubling capacity as
    rows fill, and materialises per-lane :class:`Trace` objects only when
    a lane finalises.  Probe callables remain per-lane Python calls (they
    are arbitrary user code) but are invoked only for lanes actually due.

    Due-ness replicates ``TraceRecorder.should_record`` exactly:
    record when the interval is non-positive, when the lane has never
    recorded, or when ``t - last >= interval * (1 - 1e-12)``.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, lanes: Sequence[_Lane], n_states: int, n_terminals: int) -> None:
        b = len(lanes)
        intervals = np.array(
            [lane.settings.record_interval for lane in lanes], dtype=float
        )
        self._interval = intervals
        self._thresh = intervals * (1.0 - 1e-12)
        self._always = intervals <= 0.0
        self._last = np.full(b, np.nan)
        self._n = 0
        cap = self._INITIAL_CAPACITY
        self._times = np.empty(cap)
        self._mask = np.empty((cap, b), dtype=bool)
        self._states = np.empty((cap, b, n_states))
        self._nets = np.empty((cap, b, n_terminals))
        self._probe_fns: List[Dict[str, ProbeFn]] = [
            dict(lane.probes) for lane in lanes
        ]
        self._probe_values: List[Dict[str, List[float]]] = [
            {name: [] for name in fns} for fns in self._probe_fns
        ]

    @property
    def burst_ready(self) -> bool:
        """Whether kernel bursts may run (thresholds fully defined).

        Lanes that record every step (non-positive interval) or have
        never recorded can become due at any time in a way the kernel's
        ``t - last >= thresh`` check cannot express, so bursts stay off
        until every lane has a positive interval and a first record.
        """
        return not bool(np.any(self._always)) and not bool(
            np.any(np.isnan(self._last))
        )

    @property
    def last_record_times(self) -> np.ndarray:
        return self._last

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresh

    def _grow(self) -> None:
        if self._n < self._times.shape[0]:
            return
        cap = self._times.shape[0] * 2
        for attr in ("_times", "_mask", "_states", "_nets"):
            old = getattr(self, attr)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, attr, new)

    def record(self, t: float, x: np.ndarray, y: np.ndarray) -> None:
        """Record all lanes that are due at time ``t``."""
        due = self._always | np.isnan(self._last) | ((t - self._last) >= self._thresh)
        if due.any():
            self._write(t, due, x, y)

    def record_lane(self, i: int, t: float, x: np.ndarray, y: np.ndarray) -> None:
        """Force-record lane ``i`` (finalisation record)."""
        due = np.zeros(self._last.shape[0], dtype=bool)
        due[i] = True
        self._write(t, due, x, y)

    def _write(self, t: float, due: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        self._grow()
        row = self._n
        self._times[row] = t
        self._mask[row] = due
        self._states[row] = x
        self._nets[row] = y
        self._last = np.where(due, t, self._last)
        for i in np.flatnonzero(due):
            fns = self._probe_fns[i]
            if fns:
                x_i = x[i]
                y_i = y[i]
                values = self._probe_values[i]
                for name, probe in fns.items():
                    values[name].append(float(probe(t, x_i, y_i)))
        self._n += 1

    def select(self, keep: np.ndarray) -> None:
        """Compact the lane axis to ``keep`` (mirrors ``drop_lanes``)."""
        self._interval = self._interval[keep]
        self._thresh = self._thresh[keep]
        self._always = self._always[keep]
        self._last = self._last[keep]
        self._mask = self._mask[:, keep]
        self._states = self._states[:, keep, :]
        self._nets = self._nets[:, keep, :]
        self._probe_fns = [self._probe_fns[int(i)] for i in keep]
        self._probe_values = [self._probe_values[int(i)] for i in keep]

    def traces_for(
        self, i: int, state_names: Sequence[str], net_names: Sequence[str]
    ) -> Dict[str, Trace]:
        """Materialise lane ``i``'s traces (states, nets, then probes).

        Times are monotonic by construction (``_write`` is called with
        non-decreasing ``t``), checked once per lane here; the per-trace
        lists are then built directly (``tolist`` yields the same Python
        floats ``TraceRecorder`` would have appended one by one).
        """
        rows = np.flatnonzero(self._mask[: self._n, i])
        times_arr = self._times[rows]
        if times_arr.size > 1 and bool(np.any(np.diff(times_arr) < 0.0)):
            raise ConfigurationError(
                f"lane {i}: non-monotonic buffered record times"
            )
        times = times_arr.tolist()

        def bulk(name: str, values: List[float]) -> Trace:
            trace = Trace(name)
            trace._times = list(times)
            trace._values = values
            return trace

        states = self._states[rows, i, :]
        nets = self._nets[rows, i, :]
        traces: Dict[str, Trace] = {}
        for j, name in enumerate(state_names):
            traces[name] = bulk(name, states[:, j].tolist())
        for j, name in enumerate(net_names):
            traces[name] = bulk(name, nets[:, j].tolist())
        for name, values in self._probe_values[i].items():
            traces[name] = bulk(name, list(values))
        return traces


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
        single instance shared by every lane.  Per-lane step control
        (``h_max`` from each candidate's excitation frequency) is fine;
        ``fixed_step`` and ``relinearise_interval`` must agree across
        lanes because they define the shared schedule, and ``monitor_lle``
        is not supported in batched mode (use the scalar solver for LLE
        studies — Jacobian-drift monitoring itself stays active).
    compiled:
        March-kernel mode (``"off" | "auto" | "numba"``, see
        :mod:`repro.core.kernels`).  ``"off"`` bursts held-model steps
        through the NumPy kernel, ``"auto"`` through numba when it is
        importable (else NumPy), ``"numba"`` pins numba.  Kernels engage
        only for Adams-Bashforth marches with a full multistep window;
        other configurations step one at a time inside the same loop.
        Fixed-step results are byte-identical across modes (asserted by
        the test suite, and by CI for numba).
    """

    def __init__(
        self,
        assemblers: Sequence[SystemAssembler],
        integrator: Optional[ExplicitIntegrator] = None,
        settings: Union[SolverSettings, Sequence[SolverSettings], None] = None,
        compiled: str = "off",
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
        fixed = {s.fixed_step for s in settings_list}
        if len(fixed) != 1:
            raise ConfigurationError(
                "all lanes of a batched march must share one fixed_step value "
                "(the lock-step schedule is common to the batch)"
            )
        self._fixed_step = fixed.pop()
        intervals = {max(1, int(s.relinearise_interval)) for s in settings_list}
        if len(intervals) != 1:
            raise ConfigurationError(
                "all lanes of a batched march must share relinearise_interval"
            )
        self._hold_limit = intervals.pop()
        if any(s.monitor_lle for s in settings_list):
            raise ConfigurationError(
                "monitor_lle is not supported in batched mode; run the lane "
                "on the scalar solver for direct LLE measurement"
            )
        self._settings_list = settings_list
        self._lanes = [_Lane(i, s) for i, s in enumerate(settings_list)]
        if compiled not in COMPILED_MODES:
            raise ConfigurationError(
                f"unknown compiled mode {compiled!r}; "
                f"choose one of {COMPILED_MODES}"
            )
        self._compiled_mode = compiled
        # eager resolution: an explicitly requested unavailable backend
        # raises here, at construction, not mid-march
        self._compiled_backend = resolve_compiled(compiled)

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
        """Solver-shaped adapter for wiring one lane's probes.

        Pass to ``BuiltSystem._wire`` / ``TunableEnergyHarvester._wire``
        in place of a scalar solver.
        """
        return _LaneWiring(self, lane)

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

        ``t_end`` is shared or per-lane; per-lane end times require
        adaptive mode (a lane-specific final clamp would break the
        fixed-step byte-identity of the longer lanes).

        Results carry ``metadata["compiled"]`` naming the kernel backend
        that ran (see ``_march``).

        The batched assembler is prepared for workspace-backed stacked
        refreshes before the march and always unprepared afterwards
        (``try/finally``), so the solver object stays reusable and
        side-effect free.
        """
        try:
            if not self.batched_assembler.prepare():
                # nothing to gain: no block group has a batched
                # lineariser, so keep the plain generic path
                self.batched_assembler.unprepare()
            return self._march(t_end, t_start=t_start, x0=x0)
        finally:
            self.batched_assembler.unprepare()
            self.batched_assembler.enable_compiled_eliminate("off")

    def _march(
        self,
        t_end: Union[float, Sequence[float]],
        *,
        t_start: float = 0.0,
        x0: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """The lock-step march: accumulators plus held-model kernel bursts.

        Each iteration finalises lanes that reached their end time,
        refreshes (linearise + eliminate, Eq. 4) or reuses the held
        model, records due lanes, negotiates the shared step and then
        marches:

        * per-lane statistics live in ``(B,)`` accumulator arrays,
          materialised into each lane's :class:`SolverStats` only at
          finalisation;
        * trace recording goes through one :class:`_BatchedRecorder`
          (geometrically grown row buffers);
        * the march advances in **full-window kernel bursts**: right
          after a refresh (or a record stop) the remaining held-model
          steps — up to the whole ``relinearise_interval`` window — run
          in one march-kernel call (``K = min(steps_until_refresh,
          steps_until_record, steps_until_t_end)``, realised as
          per-iteration exit checks inside the kernel — see
          :mod:`repro.core.kernels`).  Step negotiation happens once per
          burst through :func:`~repro.core.stepper.negotiate_shared_step`
          and is carried into the kernel as ``h_nominal`` (the kernel's
          per-step clamp ``min(h_nominal, min(t_end) - t_j)`` replicates
          the held-step clamp bitwise), so adaptive runs advance in
          multi-step bursts too.  Single steps remain only as the
          fallback for RK4 startup, non-AB integrators, recorders that
          are not burst-ready and zero-step kernel calls;
        * with the batched refresh prepared and a numba backend, the
          per-refresh elimination additionally runs through a fused
          per-lane jit kernel that is adopted only after a bitwise
          on-data check against the stacked-NumPy path (see
          :meth:`~repro.core.elimination.BatchedAssembler.
          enable_compiled_eliminate`).

        A kernel that always returns zero steps turns this into a
        one-step-at-a-time march; the numpy kernel's fixed-step and
        adaptive results are byte-identical to that, because it
        replicates the single-step array expressions exactly and never
        observes the skipped intermediate terminal solves, whose values
        affect nothing downstream.
        """
        backend = self._compiled_backend
        try:
            kernel = get_march_kernel(backend)
        except Exception:
            if self._compiled_mode != "auto":
                raise
            warnings.warn(
                f"compiled march backend {backend!r} failed to build; "
                "falling back to the numpy kernel",
                RuntimeWarning,
                stacklevel=2,
            )
            backend = "numpy"
            kernel = get_march_kernel(backend)

        assembler = self.batched_assembler
        if backend == "numba" and assembler.prepared:
            # fused per-lane elimination: verified bitwise against the
            # stacked path on first use, silently dropped on mismatch
            assembler.enable_compiled_eliminate("numba")
        b = assembler.n_lanes
        n_states = assembler.n_states

        t_end_arr = np.broadcast_to(
            np.asarray(t_end, dtype=float), (b,)
        ).copy()
        if np.any(t_end_arr <= t_start):
            raise ConfigurationError("t_end must be greater than t_start")
        if self._fixed_step is not None and np.unique(t_end_arr).size != 1:
            raise ConfigurationError(
                "fixed-step batched marching requires a shared t_end "
                "(per-lane end times would desynchronise the final clamp)"
            )

        t = float(t_start)
        if x0 is None:
            x = assembler.initial_state()
        else:
            x = np.array(x0, dtype=float, copy=True)
        if x.shape != (b, n_states):
            raise ConfigurationError(
                f"x0 has shape {x.shape}, expected ({b}, {n_states})"
            )
        y = np.zeros((b, assembler.n_terminals))

        controller: Optional[BatchedStepController] = None
        if self._fixed_step is None:
            controller = BatchedStepController(
                [lane.settings.step_control for lane in self._lanes],
                integrator=self.integrator,
            )
        integrator_state = self.integrator.new_state()

        lanes = list(self._lanes)
        for lane in lanes:
            lane.stats = SolverStats(
                solver_name=f"batched-state-space/{self.integrator.name}"
            )

        results: List[Optional[SimulationResult]] = [None] * b
        failures: Dict[int, Exception] = {}

        structure = assembler.structure
        rep = assembler.lane_assembler(0)
        state_names = rep.state_names()
        net_names = rep.net_names()

        divergence_limit = np.array(
            [lane.settings.divergence_limit for lane in lanes]
        )
        lle_tolerance = np.array([lane.settings.lle_tolerance for lane in lanes])
        state_rtol = np.array(
            [
                np.inf
                if lane.settings.relinearise_state_rtol is None
                else lane.settings.relinearise_state_rtol
                for lane in lanes
            ]
        )

        # (B,) stat accumulators, copied into each lane's SolverStats at
        # finalisation
        acc_fevals = np.zeros(len(lanes), dtype=np.int64)
        acc_steps = np.zeros(len(lanes), dtype=np.int64)
        acc_hmin = np.full(len(lanes), np.inf)
        acc_hmax = np.zeros(len(lanes))
        acc_jev = np.zeros(len(lanes), dtype=np.int64)
        acc_solves = np.zeros(len(lanes), dtype=np.int64)
        acc_reuses = np.zeros(len(lanes), dtype=np.int64)
        acc_lle_max = np.zeros(len(lanes))
        acc_lle_flags = np.zeros(len(lanes), dtype=np.int64)

        recorder = _BatchedRecorder(
            lanes, n_states=n_states, n_terminals=assembler.n_terminals
        )

        # kernel bursts require a full Adams-Bashforth window (the RK4
        # startup steps and other integrators take single steps)
        burstable = isinstance(self.integrator, AdamsBashforth)
        order = self.integrator.order

        wall_start = time.perf_counter()
        # kernel-vs-refresh wall-time split, reported through result
        # metadata (batch-level totals as of each lane's finalisation)
        kernel_time = 0.0
        refresh_time = 0.0
        reduced: Optional[BatchedReducedSystem] = None
        previous_a: Optional[np.ndarray] = None  # Jacobian-drift monitoring
        steps_since_assemble = 0
        x_reference = x
        held_h = None

        def drop_lanes(keep: np.ndarray) -> None:
            """Compact every stacked structure to the lanes in ``keep``."""
            nonlocal x, y, reduced, lanes, t_end_arr, x_reference, assembler
            nonlocal divergence_limit, lle_tolerance, state_rtol, previous_a
            nonlocal acc_fevals, acc_steps, acc_hmin, acc_hmax, acc_jev
            nonlocal acc_solves, acc_reuses, acc_lle_max, acc_lle_flags
            keep = np.asarray(keep, dtype=int)
            if keep.size == 0:
                lanes = []
                return
            x = x[keep]
            y = y[keep]
            t_end_arr = t_end_arr[keep]
            x_reference = x_reference[keep]
            divergence_limit = divergence_limit[keep]
            lle_tolerance = lle_tolerance[keep]
            state_rtol = state_rtol[keep]
            acc_fevals = acc_fevals[keep]
            acc_steps = acc_steps[keep]
            acc_hmin = acc_hmin[keep]
            acc_hmax = acc_hmax[keep]
            acc_jev = acc_jev[keep]
            acc_solves = acc_solves[keep]
            acc_reuses = acc_reuses[keep]
            acc_lle_max = acc_lle_max[keep]
            acc_lle_flags = acc_lle_flags[keep]
            recorder.select(keep)
            if previous_a is not None:
                previous_a = previous_a[keep]
            if reduced is not None:
                reduced = reduced.select(keep)
            if controller is not None:
                controller.select(keep)
            integrator_state.history = type(integrator_state.history)(
                (sample_t, sample_f[keep])
                for sample_t, sample_f in integrator_state.history
            )
            assembler = assembler.select(keep)
            lanes = [lanes[int(i)] for i in keep]

        def finalize(i: int, *, consistent: bool = False) -> bool:
            """Final consistent record + materialised result for lane ``i``.

            With ``consistent=True`` the caller already refreshed ``y``
            for every lane through one batched assemble/eliminate
            (bit-identical to the per-lane solve), so the scalar solve
            is skipped.
            """
            nonlocal y
            lane = lanes[i]
            if not consistent:
                lane_assembler = assembler.lane_assembler(i)
                try:
                    lin = lane_assembler.assemble(t, x[i], y[i])
                    lane_reduced = lane_assembler.eliminate(lin, x[i])
                except SingularSystemError as exc:
                    failures[lane.index] = exc
                    return False
                y[i] = lane_reduced.y_solution
            recorder.record_lane(i, t, x, y)
            stats = lane.stats
            stats.n_function_evaluations = int(acc_fevals[i])
            stats.n_steps = int(acc_steps[i])
            stats.n_accepted_steps = int(acc_steps[i])
            stats.min_step = float(acc_hmin[i])
            stats.max_step = float(acc_hmax[i])
            stats.n_jacobian_evaluations = int(acc_jev[i])
            stats.n_linear_solves = int(acc_solves[i])
            stats.cpu_time_s = (time.perf_counter() - wall_start) / b
            stats.final_time = t
            result = SimulationResult(
                traces=recorder.traces_for(i, state_names, net_names),
                stats=stats,
            )
            result.metadata["integrator"] = self.integrator.name
            result.metadata["integrator_order"] = self.integrator.order
            result.metadata["n_states"] = n_states
            result.metadata["n_terminals"] = structure.n_terminals
            result.metadata["lle_max_jacobian_change"] = float(acc_lle_max[i])
            result.metadata["lle_flagged_steps"] = int(acc_lle_flags[i])
            result.metadata["relinearise_interval"] = self._hold_limit
            result.metadata["n_jacobian_reuses"] = int(acc_reuses[i])
            result.metadata["batched"] = True
            result.metadata["batch_lanes"] = b
            result.metadata["lane_index"] = lane.index
            result.metadata["compiled"] = backend
            result.metadata["batched_refresh"] = assembler.prepared
            result.metadata["compiled_kernel_time_s"] = kernel_time
            result.metadata["compiled_refresh_time_s"] = refresh_time
            results[lane.index] = result
            return True

        def fail_lanes(indices: Sequence[int], errors: Sequence[Exception]) -> None:
            for i, error in zip(indices, errors):
                failures[lanes[i].index] = error
            keep = np.array(
                [i for i in range(len(lanes)) if i not in set(indices)], dtype=int
            )
            drop_lanes(keep)

        def fail_diverged(bad: np.ndarray, t_at: float, h_at: float) -> None:
            indices = [int(i) for i in np.flatnonzero(bad)]
            fail_lanes(
                indices,
                [
                    StabilityError(
                        f"solution diverged at t={t_at:.6g} (step {h_at:.3g}); "
                        "lane retired for exact scalar re-run"
                    )
                    for _ in indices
                ],
            )

        def assemble_eliminate(*, initial: bool = False) -> bool:
            """Fresh linearisation of all active lanes (vectorised stats)."""
            nonlocal reduced, y, steps_since_assemble, x_reference, previous_a
            nonlocal acc_jev, acc_solves, acc_lle_max, acc_lle_flags
            nonlocal refresh_time
            refresh_start = time.perf_counter()
            try:
                while lanes:
                    lin = assembler.assemble(t, x, y)
                    try:
                        reduced = assembler.eliminate(lin, x)
                    except SingularLaneError as exc:
                        bad = list(exc.lane_indices)
                        fail_lanes(
                            bad,
                            [
                                SingularLaneError(
                                    str(exc), lane_indices=(lanes[i].index,)
                                )
                                for i in bad
                            ],
                        )
                        continue
                    y = reduced.y_solution
                    if previous_a is None:
                        previous_a = np.array(reduced.a_reduced, copy=True)
                    else:
                        change = relative_jacobian_drift(
                            reduced.a_reduced, previous_a
                        )
                        acc_lle_max = np.maximum(acc_lle_max, change)
                        acc_lle_flags += change > lle_tolerance
                        previous_a = np.array(reduced.a_reduced, copy=True)
                    if not initial:
                        acc_jev += 1
                    acc_solves += 1
                    steps_since_assemble = 0
                    x_reference = x
                    return True
                return False
            finally:
                refresh_time += time.perf_counter() - refresh_start

        if not assemble_eliminate(initial=True):
            return BatchResult(results=results, failures=failures)
        steps_since_assemble = self._hold_limit  # force refresh on first step
        previous_a = None

        while lanes:
            # 1. finalise lanes that reached their end time.  When every
            #    active lane finishes together (the fixed-step shared-t_end
            #    case) the final consistency solve runs once, batched —
            #    bit-identical to the per-lane solves — instead of B times;
            #    a singular batched solve falls back to the per-lane path
            #    so failure blame stays lane-accurate.
            finished = t >= t_end_arr - _END_EPS
            if np.any(finished):
                idx = np.flatnonzero(finished)
                consistent = False
                if idx.size == len(lanes) and idx.size > 1:
                    try:
                        lin = assembler.assemble(t, x, y)
                        final_reduced = assembler.eliminate(lin, x)
                    except (SingularLaneError, SingularSystemError):
                        consistent = False
                    else:
                        y = final_reduced.y_solution
                        consistent = True
                for i in idx:
                    finalize(int(i), consistent=consistent)
                keep = np.flatnonzero(~finished)
                drop_lanes(keep)
                if not lanes:
                    break

            # 2. linearise + eliminate, or reuse the held affine models.
            #    Step accounting (reuse counters, hold budget) moves to
            #    the march below so bursts and single steps share it.
            refresh = _needs_refresh(
                reduced, steps_since_assemble, self._hold_limit,
                state_rtol, x, x_reference,
            )
            if refresh:
                if not assemble_eliminate():
                    break
            else:
                y = reduced.terminal_values(x)

            # 3. record traces
            recorder.record(t, x, y)

            # 4. negotiate the shared step once per burst; ``h_nominal``
            #    carries the decision into the kernel, whose per-step
            #    clamp ``min(h_nominal, min(t_end) - t_j)`` replicates
            #    the single-step held clamp bitwise
            h, h_nominal, held_h = negotiate_shared_step(
                controller, reduced.a_reduced, t_end_arr - t,
                self._fixed_step, refresh, held_h,
            )

            # 5. march the whole remaining hold window in one kernel
            #    burst (after a refresh that is the full
            #    relinearise_interval).  The kernel exits on this
            #    loop's own events (hold budget, t_end, record due,
            #    drift refresh, divergence), so the outer loop resumes
            #    exactly where single steps would make their next
            #    non-held decision.
            max_burst = self._hold_limit - steps_since_assemble
            burst_steps = 0
            if (
                burstable
                and max_burst > 0
                and recorder.burst_ready
                and len(integrator_state.history) == order
            ):
                kernel_start = time.perf_counter()
                burst = kernel(
                    reduced.a_reduced,
                    reduced.b_reduced,
                    x,
                    t,
                    h_nominal,
                    t_end_arr,
                    max_burst,
                    list(integrator_state.history),
                    recorder.last_record_times,
                    recorder.thresholds,
                    state_rtol,
                    x_reference,
                    divergence_limit,
                )
                kernel_time += time.perf_counter() - kernel_start
                burst_steps = burst.steps
                if burst_steps:
                    x = burst.x
                    t = burst.t
                    # the held-model terminal update a single step would
                    # have made entering the *next* step: y lags x
                    # by one step, so only the last pre-step state's
                    # terminals are observable
                    y = reduced.terminal_values(burst.x_prev)
                    integrator_state.history = type(integrator_state.history)(
                        burst.history
                    )
                    steps_since_assemble += burst_steps
                    # every held step counts as a reuse, the fresh
                    # post-refresh step does not
                    acc_reuses += (burst_steps - 1) if refresh else burst_steps
                    acc_fevals += burst_steps
                    acc_steps += burst_steps
                    acc_hmin = np.minimum(acc_hmin, burst.h_min)
                    acc_hmax = np.maximum(acc_hmax, burst.h_max)
                    if burst.diverged is not None and np.any(burst.diverged):
                        fail_diverged(burst.diverged, t, burst.h_last)

            # 6. single step — the fallback for RK4 startup,
            #    non-Adams-Bashforth integrators, recorders that are not
            #    burst-ready, and zero-step kernel calls
            if burst_steps == 0:
                x = self.integrator.step_batch(
                    lambda _t, xs: reduced.derivative(xs),
                    t, x, h, integrator_state,
                )
                if not refresh:
                    acc_reuses += 1
                steps_since_assemble += 1
                acc_fevals += 1
                acc_steps += 1
                acc_hmin = np.minimum(acc_hmin, h)
                acc_hmax = np.maximum(acc_hmax, h)
                t += h

                # divergence guard — retire tripped lanes, keep marching
                norms = batched_state_norms(x)
                bad = (
                    ~np.all(np.isfinite(x), axis=1)
                    | ~np.isfinite(norms)
                    | (norms > divergence_limit)
                )
                if np.any(bad):
                    fail_diverged(bad, t, h)

        return BatchResult(results=results, failures=failures)
