"""Parallel sweep engine for design-exploration grids.

The paper motivates its fast non-iterative solver with "automated design
… using multiple simulations": design exploration evaluates a *grid* of
candidate configurations, and the grid — not any single run — is the real
workload.  This module turns the serial loop of
:class:`repro.analysis.sweep.ParameterSweep` into an engine that

* executes candidates in **parallel worker processes**
  (:mod:`concurrent.futures`, configurable worker count) while keeping the
  result ordering **deterministic** — the returned points are in candidate
  enumeration order and carry exactly the scores a serial run produces;
* builds **one system per candidate**: every candidate's assembler
  computes its own :class:`~repro.core.elimination.AssemblyStructure`
  (tens of microseconds), so nothing structural is shared between
  candidates or cached per worker;
* dispatches **lane blocks**, its one unit of work: candidates are
  grouped by ``topology_key()`` (for spec-backed scenarios the spec's
  structural hash, so grids that *vary the topology itself* form one
  lane block per distinct topology) and marched as lanes of the
  :class:`~repro.core.batch.BatchedSolver` — stacked ``(B, n, n)``
  linearise/eliminate/march, one NumPy sweep per step for a whole lane
  block, composing multiplicatively with worker processes (each worker
  marches one block).  Every lane runs on its own clock, with its own
  digital events, and is bitwise its scalar run, so lane packing never
  changes a score or a cache key.  Blocks of one candidate
  (``lane_width=1``) and lanes the batched march retires take the scalar
  path (each such decision is logged at DEBUG on ``repro.engine``);
* **resumes through the result cache** (``cache="readwrite"``): each
  finished lane block lands one content-addressed entry per candidate
  (:mod:`repro.cache`), so re-running an interrupted sweep serves every
  finished candidate as a hit and evaluates only the rest; entries key
  on the candidate scenario and execution fingerprint, never on the grid
  or the lane width, so a changed grid is served exactly the candidates
  it shares with the old one;
* reports **progress and the best candidate so far** through a callback
  (see :func:`repro.io.report.format_sweep_progress` for a ready-made
  formatter);
* optionally applies an **amortised-relinearisation solver profile**
  (``relinearise_interval``): the per-step Jacobian assembly/elimination
  is held over a few steps of the explicit march, trading a bounded score
  deviation (documented tolerance **10 % relative**) for a 2-3x
  per-candidate speed-up.  Candidates whose fast run trips the stability
  guard are transparently re-run with the exact every-step profile.

Every knob above is a field of one validated
:class:`~repro.api.options.RunOptions`; the engine is built from it
(``SweepEngine(options)``) and declares or re-checks none of its own.

Since the exploration refactor the engine also **drives candidate
generation strategies** (:mod:`repro.explore`): :meth:`SweepEngine.run`
is one round of :meth:`SweepEngine.run_explore` over the dense
:class:`~repro.explore.GridStrategy`, and budgeted searches (seeded
sampling, successive halving, grid extension) reuse the exact same
dispatch/cache machinery round by round.

Determinism contract: with the default profile (``relinearise_interval``
unset or 1) the engine's scores are byte-identical to the plain serial
loop, for any worker count — candidates are independent simulations and
worker processes run the exact same floating-point program.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..core.batch import BatchedSolver
from ..core.errors import ConfigurationError
from ..harvester.scenarios import (
    Scenario,
    _simulate_proposed,
    attach_run_metadata,
    proposed_settings,
)

if TYPE_CHECKING:
    from ..api.options import RunOptions

__all__ = ["SweepEngine", "EngineRunInfo"]

logger = logging.getLogger("repro.engine")

#: widest lane block the default plan forms: a block holds every lane's
#: traces until it ends (50.0 KB per lane of float64 columns on a 0.2 s
#: charging run), so a 1-worker sweep of a large grid is split rather
#: than marched as one block (256 0.2 s charging candidates on a 2-CPU
#: host: 67 MB peak RSS and 0.48 s as one block, 47 MB and 0.75 s in
#: blocks of 64, 41 MB on the scalar path); the cap also bounds the work
#: an interruption re-runs, since cache entries land per finished block
DEFAULT_MAX_LANES = 64


@dataclass
class EngineRunInfo:
    """Bookkeeping of one engine run (attached to ``SweepResult.engine_info``)."""

    n_workers: int
    n_candidates: int
    n_evaluated: int
    n_exact_reruns: int
    parallel: bool
    relinearise_interval: Optional[int]
    #: candidates served from the content-addressed result cache
    n_cache_hits: int = 0
    #: the engine's cache mode this run ("off" | "read" | "readwrite")
    cache: str = "off"
    #: lane blocks of two or more candidates *planned* for batched
    #: marching (before runtime fallbacks)
    n_lane_blocks: int = 0
    #: candidates planned as lane blocks of one (the scalar path)
    n_batch_fallbacks: int = 0
    #: candidates whose score actually came out of a batched march this run
    #: (runtime truth: retired lanes, re-run on the exact scalar path, are
    #: excluded)
    n_batched_candidates: int = 0
    #: wall seconds spent inside march kernels, summed over lane blocks
    kernel_time_s: float = 0.0
    #: wall seconds spent relinearising/eliminating (the refresh path),
    #: summed over lane blocks — together with ``kernel_time_s`` this is
    #: the batched march's kernel-vs-refresh time split
    refresh_time_s: float = 0.0


@dataclass(frozen=True)
class _Task:
    """One candidate to evaluate, fully resolved in the parent process."""

    index: int
    parameters: Dict[str, object]
    scenario: Scenario
    metric: Callable
    integrator: object
    settings: object
    relinearise_interval: Optional[int]
    #: content-addressed cache write target (workers write, parent serves
    #: hits before dispatch); ``None`` when caching is off or read-only
    cache_key: Optional[str] = None
    cache_dir: Optional[str] = None
    cache_salt: Optional[str] = None


@dataclass(frozen=True)
class _Outcome:
    """What a worker sends back for one finished candidate."""

    index: int
    score: float
    cpu_time_s: float
    exact_rerun: bool
    #: whether the score came out of a batched march (as opposed
    #: to the scalar path, a runtime fallback or a cache hit)
    batched: bool = False
    #: block-level kernel/refresh wall-time split, attached to one outcome
    #: per lane block so engine-level sums count each block once
    kernel_time_s: float = 0.0
    refresh_time_s: float = 0.0


def _write_cache_entries(
    tasks: Sequence[_Task], outcomes: Sequence[_Outcome]
) -> None:
    """Record finished candidates in the result store (worker side).

    Workers write, the parent serves hits: each task carries its
    pre-computed content key, so concurrent writers land idempotent
    entries (atomic per-entry renames make the race harmless).
    """
    by_index = {task.index: task for task in tasks}
    store = None
    for outcome in outcomes:
        task = by_index[outcome.index]
        if task.cache_key is None:
            continue
        if store is None:
            from ..cache import ResultStore

            store = ResultStore(task.cache_dir, salt=task.cache_salt)
        try:
            store.store_point(
                task.cache_key,
                score=outcome.score,
                cpu_time_s=outcome.cpu_time_s,
                exact_rerun=outcome.exact_rerun,
                label=", ".join(
                    f"{k}={v}" for k, v in task.parameters.items()
                ),
            )
        except OSError as exc:
            # a cache write must never discard a finished simulation:
            # degrade to uncached (mirroring how the read path degrades
            # corruption to a miss) and stop trying for this block
            warnings.warn(
                f"result cache at {store.root} is unwritable ({exc}); "
                "continuing without caching",
                stacklevel=2,
            )
            break


def _evaluate_lane_block(tasks: Sequence[_Task]) -> List[_Outcome]:
    """Evaluate one lane block (worker entry point; cache-write on exit)."""
    outcomes = _evaluate_lane_block_inner(tasks)
    _write_cache_entries(tasks, outcomes)
    return outcomes


def _evaluate_lane_block_inner(tasks: Sequence[_Task]) -> List[_Outcome]:
    """Evaluate one lane block of same-topology candidates as batched lanes.

    Runs in a worker process or inline.  Each lane carries its
    candidate's digital event kernel and settings.  Single-task blocks
    take the scalar path directly; lanes the batched march retires
    (divergence, singular elimination, a raising digital process) are
    re-run individually on the exact scalar path at interval 1, as
    ``_simulate_proposed`` re-runs a held scalar run that trips the
    stability guard.  Each of these scalar-path decisions is logged once
    per block or lane, at DEBUG on ``repro.engine``.  A candidate whose
    build raises fails the block, as it fails its own scalar run.
    """
    if len(tasks) == 1:
        logger.debug(
            "candidate %d is a lane block of one: scalar path", tasks[0].index
        )
        return [_evaluate_task(tasks[0])]
    harvesters = [task.scenario.build_harvester() for task in tasks]
    solver = BatchedSolver(
        [harvester.assembler for harvester in harvesters],
        integrator=tasks[0].integrator,
        settings=[
            proposed_settings(task.scenario, task.settings, task.relinearise_interval)
            for task in tasks
        ],
        digital_kernels=[harvester._build_kernel() for harvester in harvesters],
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    batch = solver.run([task.scenario.duration_s for task in tasks])

    # block-level kernel/refresh wall-time split: each lane carries the
    # batch totals as of its own finalisation, so the block total is the
    # max over lanes; it is attached to the first batched outcome only,
    # letting the engine sum across blocks without double counting
    block_kernel_time = block_refresh_time = 0.0
    for result in batch.results:
        if result is None:
            continue
        block_kernel_time = max(
            block_kernel_time, float(result.metadata["kernel_time_s"])
        )
        block_refresh_time = max(
            block_refresh_time, float(result.metadata["refresh_time_s"])
        )

    outcomes: List[_Outcome] = []
    first_batched = True
    for i, task in enumerate(tasks):
        result = batch.results[i]
        if result is None:
            # retired lane: re-run this candidate on the exact scalar path
            logger.debug(
                "lane %d (candidate %d, %s) retired: %s; exact scalar re-run",
                i,
                task.index,
                task.parameters,
                batch.failures[i],
            )
            exact = _evaluate_task(replace(task, relinearise_interval=1))
            outcomes.append(replace(exact, exact_rerun=True))
            continue
        result = attach_run_metadata(result, task.scenario, harvesters[i])
        outcomes.append(
            _Outcome(
                index=task.index,
                score=float(task.metric(result)),
                cpu_time_s=float(result.stats.cpu_time_s),
                exact_rerun=False,
                batched=True,
                kernel_time_s=block_kernel_time if first_batched else 0.0,
                refresh_time_s=block_refresh_time if first_batched else 0.0,
            )
        )
        first_batched = False
    return outcomes


def _evaluate_task(task: _Task) -> _Outcome:
    """Evaluate one candidate (runs in a worker process or inline)."""
    result = _simulate_proposed(
        task.scenario,
        integrator=task.integrator,
        settings=proposed_settings(
            task.scenario, task.settings, task.relinearise_interval
        ),
    )
    return _Outcome(
        index=task.index,
        score=float(task.metric(result)),
        cpu_time_s=float(result.stats.cpu_time_s),
        exact_rerun=bool(result.metadata.get("exact_rerun", False)),
    )


class SweepEngine:
    """Executes the candidates of a :class:`ParameterSweep` at scale.

    Built from one :class:`~repro.api.options.RunOptions`, which declares
    and validates every knob the engine reads (workers, lane width,
    solver profile, progress and cache);
    ``Study.sweep(...).run()`` constructs it through the :mod:`repro.api`
    planner.
    """

    def __init__(self, options: "RunOptions") -> None:
        from ..api.options import RunOptions

        if not isinstance(options, RunOptions):
            raise ConfigurationError(
                "SweepEngine takes one RunOptions, got "
                f"{type(options).__name__}"
            )
        self.options = options
        self.n_workers = (
            int(options.n_workers)
            if options.n_workers is not None
            else os.cpu_count() or 1
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, sweep):
        """Evaluate every candidate of ``sweep`` and return a ``SweepResult``.

        The returned points are in candidate enumeration order regardless
        of completion order or worker count, so serial and parallel runs
        produce identical results.  Internally this is one round of
        :meth:`run_explore` driven by the dense
        :class:`~repro.explore.GridStrategy` — the historical dense-sweep
        behaviour *is* the grid strategy, byte for byte.
        """
        from ..explore import GridStrategy

        return self.run_explore(sweep, GridStrategy(sweep.parameters)).final

    def run_explore(self, sweep, strategy):
        """Drive an exploration strategy through rounds of sweep execution.

        Each round the ``strategy`` proposes candidates (grid points plus
        a simulation *horizon* — the fraction of the scenario duration to
        run), the engine evaluates them with the full sweep machinery
        (worker processes, batched lanes, the result cache) and feeds the
        scores back through ``observe`` until the strategy reports
        ``done()``.  A re-run served from the cache replays every round
        from the served scores, since strategies are deterministic given
        their configuration and observations.  Short-horizon candidates
        simulate ``scenario.scaled(duration_s * horizon)`` — their cache
        entries key on the scaled scenario and never collide with full
        runs.

        Returns an :class:`~repro.explore.ExplorationRun`; its ``final``
        :class:`SweepResult` holds the full-horizon points only, so
        ``final.best()`` is always comparable to a dense sweep's.
        """
        from ..explore import (
            ExplorationRoundRecord,
            ExplorationRun,
            Observation,
            grid_size,
        )
        from .sweep import SweepPoint, SweepResult

        schedule = strategy.schedule()
        planned_total = (
            sum(plan.n_candidates for plan in schedule) if schedule else None
        )

        rounds: List[ExplorationRoundRecord] = []
        final_points: List[SweepPoint] = []
        round_index = 0
        offset = 0  # global candidate index across rounds
        done_before = 0
        any_parallel = False
        n_evaluated_total = n_cache_hits_total = 0
        n_exact_reruns = n_batched = 0
        n_lane_blocks = n_batch_fallbacks = 0
        work_units = 0.0
        kernel_time_s = refresh_time_s = 0.0

        while not strategy.done():
            proposals = strategy.propose(round_index)
            if not proposals:
                break
            tasks = self._build_round_tasks(sweep, proposals, offset)
            outcomes: Dict[int, _Outcome] = {}
            n_cache_hits, tasks = self._apply_cache(sweep, tasks, outcomes)
            total = (
                planned_total if planned_total is not None else offset + len(tasks)
            )
            pending, parallel, blocks = self._evaluate_round(
                tasks,
                outcomes,
                done_before=done_before,
                total=total,
                n_preloaded=n_cache_hits,
            )

            points: List[SweepPoint] = []
            for proposal, task in zip(proposals, tasks):
                outcome = outcomes[task.index]
                metadata = {
                    "cpu_time_s": outcome.cpu_time_s,
                    "candidate_index": outcome.index,
                    "exact_rerun": outcome.exact_rerun,
                }
                if proposal.horizon < 1.0:
                    metadata["horizon"] = proposal.horizon
                points.append(
                    SweepPoint(
                        parameters=dict(task.parameters),
                        score=outcome.score,
                        metadata=metadata,
                    )
                )
            final_points.extend(
                point
                for proposal, point in zip(proposals, points)
                if proposal.horizon >= 1.0
            )

            pending_set = {task.index for task in pending}
            work_units += sum(
                proposal.horizon
                for proposal, task in zip(proposals, tasks)
                if task.index in pending_set
            )
            rounds.append(
                ExplorationRoundRecord(
                    index=round_index,
                    horizon=proposals[0].horizon,
                    points=points,
                    n_evaluated=len(pending),
                    n_cache_hits=n_cache_hits,
                )
            )

            strategy.observe(
                [
                    Observation(
                        parameters=dict(proposal.parameters),
                        horizon=proposal.horizon,
                        score=outcomes[task.index].score,
                    )
                    for proposal, task in zip(proposals, tasks)
                ]
            )

            any_parallel = any_parallel or parallel
            n_evaluated_total += len(pending)
            n_cache_hits_total += n_cache_hits
            n_exact_reruns += sum(1 for o in outcomes.values() if o.exact_rerun)
            n_batched += sum(1 for o in outcomes.values() if o.batched)
            kernel_time_s += sum(o.kernel_time_s for o in outcomes.values())
            refresh_time_s += sum(o.refresh_time_s for o in outcomes.values())
            n_lane_blocks += sum(1 for block in blocks if len(block) > 1)
            n_batch_fallbacks += sum(1 for block in blocks if len(block) == 1)
            done_before += len(outcomes)
            offset += len(tasks)
            round_index += 1

        if not rounds:
            raise ConfigurationError(
                "the exploration strategy proposed no candidates"
            )

        final = SweepResult(metric_name=sweep.metric_name)
        final.points.extend(final_points)
        final.engine_info = EngineRunInfo(
            n_workers=self.n_workers,
            n_candidates=offset,
            n_evaluated=n_evaluated_total,
            n_exact_reruns=n_exact_reruns,
            parallel=any_parallel,
            relinearise_interval=self.options.relinearise_interval,
            n_lane_blocks=n_lane_blocks,
            n_batch_fallbacks=n_batch_fallbacks,
            n_batched_candidates=n_batched,
            n_cache_hits=n_cache_hits_total,
            cache=self.options.cache,
            kernel_time_s=kernel_time_s,
            refresh_time_s=refresh_time_s,
        )

        survivors_fn = getattr(strategy, "survivors", None)
        if callable(survivors_fn):
            survivors = survivors_fn()
        else:
            survivors = [dict(point.parameters) for point in final_points]
        return ExplorationRun(
            strategy=strategy.name,
            final=final,
            rounds=rounds,
            survivors=survivors,
            n_candidates=offset,
            n_simulations=n_evaluated_total,
            n_cache_hits=n_cache_hits_total,
            work_units=work_units,
            full_grid_work=float(grid_size(sweep.parameters)),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _build_round_tasks(self, sweep, proposals, offset: int) -> List[_Task]:
        """Resolve one round of proposals into fully-specified tasks.

        Indices are offset by the number of candidates proposed in earlier
        rounds, so outcomes refer to one global candidate sequence.
        Short-horizon proposals scale the candidate scenario's duration —
        everything downstream (solver settings derivation, cache keys,
        topology grouping) sees an ordinary shorter scenario.
        """
        tasks: List[_Task] = []
        for i, proposal in enumerate(proposals):
            scenario = sweep.candidate_scenario(dict(proposal.parameters))
            if proposal.horizon < 1.0:
                scenario = scenario.scaled(scenario.duration_s * proposal.horizon)
            tasks.append(
                _Task(
                    index=offset + i,
                    parameters=dict(proposal.parameters),
                    scenario=scenario,
                    metric=sweep.metric,
                    integrator=self.options.integrator,
                    settings=self.options.settings,
                    relinearise_interval=self.options.relinearise_interval,
                )
            )
        return tasks

    def _evaluate_round(
        self,
        tasks: Sequence[_Task],
        outcomes: Dict[int, _Outcome],
        *,
        done_before: int,
        total: int,
        n_preloaded: int,
    ):
        """Dispatch one round's pending tasks and fill ``outcomes``.

        Returns ``(pending, parallel, blocks)`` for the caller's
        bookkeeping.  ``done_before``/``total`` offset the progress
        callback so a multi-round exploration reports one monotonic
        ``done/total`` sequence across rounds.
        """
        from .sweep import SweepPoint

        pending = [task for task in tasks if task.index not in outcomes]

        task_by_index = {task.index: task for task in tasks}

        def emit_progress() -> None:
            if self.options.progress is None or not outcomes:
                return
            best = max(outcomes.values(), key=lambda o: o.score)
            task = task_by_index[best.index]
            point = SweepPoint(
                parameters=dict(task.parameters),
                score=best.score,
                metadata={"cpu_time_s": best.cpu_time_s},
            )
            self.options.progress(done_before + len(outcomes), total, point)

        def record(outcome: _Outcome) -> None:
            outcomes[outcome.index] = outcome
            emit_progress()

        if n_preloaded:
            emit_progress()

        # one work unit is a lane block: several same-topology candidates
        # marched as lanes of the batched solver, or a single candidate
        # evaluated on the scalar path
        blocks = self._plan_lane_blocks(pending)

        parallel = self.n_workers > 1 and len(blocks) > 1
        if parallel and not self._parallelisable(pending):
            warnings.warn(
                "sweep uses a non-picklable metric/scenario; "
                "falling back to serial evaluation",
                stacklevel=2,
            )
            parallel = False

        if parallel:
            self._run_parallel(blocks, record)
        else:
            for block in blocks:
                for outcome in _evaluate_lane_block(block):
                    record(outcome)
        return pending, parallel, blocks

    def _plan_lane_blocks(self, pending: Sequence[_Task]) -> List[List[_Task]]:
        """Partition pending candidates into lane blocks.

        Candidates are grouped by topology fingerprint (lanes must share an
        assembly structure).  ``lane_width`` caps the lanes per block; by
        default each worker gets one block per topology, so batching
        composes with process parallelism, and no block is wider than
        :data:`DEFAULT_MAX_LANES` (peak memory grows with the block).
        """
        groups: Dict[tuple, List[_Task]] = {}
        for task in pending:
            groups.setdefault(task.scenario.topology_key(), []).append(task)
        blocks: List[List[_Task]] = []
        for group in groups.values():
            width = self.options.lane_width
            if width is None:
                width = min(
                    math.ceil(len(group) / self.n_workers), DEFAULT_MAX_LANES
                )
            for start in range(0, len(group), width):
                blocks.append(group[start : start + width])
        # deterministic dispatch order regardless of grouping
        blocks.sort(key=lambda block: block[0].index)
        return blocks

    def _apply_cache(
        self, sweep, tasks: List[_Task], outcomes: Dict[int, _Outcome]
    ):
        """Serve candidates from the result store; arm misses for writing.

        Returns ``(n_cache_hits, tasks)`` where hit candidates landed in
        ``outcomes`` and — in ``"readwrite"`` mode — the remaining tasks
        carry their content key so the workers that evaluate them write
        the store entries themselves.  Corrupt entries degrade to misses
        with a warning (and are dropped when writable), mirroring the
        single-run planner path.
        """
        cache = self.options.cache
        if cache == "off":
            return 0, tasks
        from ..api.experiment import metric_key_for, scenario_to_dict
        from ..cache import ResultStore
        from ..core.errors import CacheCorruptionError

        # key on the metric's *registry identity*, never its free-form
        # metric_name label: two different callables can share a label,
        # and a label collision in a globally shared store would serve
        # one metric's scores as the other's
        metric_key = metric_key_for(sweep.metric)
        if metric_key is None:
            raise ConfigurationError(
                f"cache={cache!r} needs a named metric — the custom "
                f"metric {getattr(sweep.metric, '__name__', sweep.metric)!r} "
                "has no canonical identity to key cache entries on, so a "
                "sweep scored by it can be neither cached nor resumed after "
                "an interruption; use a stock metric (harvested_energy / "
                "average_power) or drop the cache"
            )
        store = ResultStore(self.options.cache_dir)
        fingerprint = self.options.fingerprint()
        n_cache_hits = 0
        armed: List[_Task] = []
        for task in tasks:
            payload = {
                "kind": "sweep_point",
                "scenario": scenario_to_dict(task.scenario),
                "execution": fingerprint,
                "metric": metric_key,
            }
            key = store.key_for(payload)
            try:
                point = store.load_point(key)
            except CacheCorruptionError as exc:
                warnings.warn(f"ignoring corrupt cache entry: {exc}", stacklevel=2)
                if cache == "readwrite":
                    try:
                        store.drop(key)
                    except OSError:
                        pass  # an undeletable entry must not abort the run
                point = None
            if point is not None:
                outcomes[task.index] = _Outcome(
                    index=task.index,
                    score=float(point["score"]),
                    cpu_time_s=float(point["cpu_time_s"]),
                    exact_rerun=bool(point["exact_rerun"]),
                )
                n_cache_hits += 1
                armed.append(task)
                continue
            if cache == "readwrite":
                task = replace(
                    task,
                    cache_key=key,
                    cache_dir=str(store.root),
                    cache_salt=store.salt,
                )
            armed.append(task)
        return n_cache_hits, armed

    @staticmethod
    def _parallelisable(tasks: Sequence[_Task]) -> bool:
        try:
            pickle.dumps(tasks[0])
        except Exception:
            return False
        return True

    def _run_parallel(
        self, blocks: Sequence[Sequence[_Task]], record: Callable[[_Outcome], None]
    ) -> None:
        import multiprocessing as mp

        # fork (where available) shares the parent's loaded modules and
        # caches — worker start-up is milliseconds instead of a fresh
        # interpreter + numpy import per worker.  Each worker evaluates one
        # lane block at a time: a single scalar candidate or a whole
        # batched march.
        context = None
        if "fork" in mp.get_all_start_methods():
            context = mp.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(blocks)), mp_context=context
        ) as pool:
            futures: Dict[Future, Sequence[_Task]] = {
                pool.submit(_evaluate_lane_block, list(block)): block
                for block in blocks
            }
            not_done = set(futures)
            try:
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        for outcome in future.result():
                            record(outcome)
            except BaseException:
                # an interrupted sweep (a raising progress callback, Ctrl-C)
                # waits only for the blocks already running, not the queue
                for future in not_done:
                    future.cancel()
                raise
