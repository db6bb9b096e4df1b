"""The ``repro worker`` loop: lease, evaluate, write, repeat.

A worker is stateless: everything it needs to evaluate one candidate —
the serialised scenario, the metric's registry key, the declarative
execution options, the code-version salt and the content-addressed
result key — travels inside the leased task payload (built by
:mod:`repro.dist.executor`).  Evaluation goes through the *same*
:func:`repro.analysis.engine._evaluate_task` scalar path the process
backend uses, including its exact-rerun stability fallback, which is
what makes queue scores identical to ``backend="process"`` scores.

Fault tolerance:

* a **heartbeat thread** extends the lease while the candidate runs, so
  slow candidates are not reclaimed; a SIGKILLed worker simply stops
  heartbeating and its lease expires;
* **transient store/queue failures** (socket resets, filesystem
  hiccups — ``OSError``) are retried with the jittered exponential
  backoff of :mod:`repro._retry`;
* **deterministic evaluation failures** mark the task failed with the
  error message (the parent surfaces it) instead of burning retries;
* a **salt mismatch** — this worker runs a different code version than
  the parent that enqueued the task — fails the task loudly rather than
  poisoning the store with differently-versioned results.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, Mapping, Optional

from .._retry import RetryPolicy, retry_call
from ..core.errors import CacheCorruptionError, ConfigurationError
from .queue import open_queue

__all__ = ["worker_loop", "evaluate_payload"]

#: retry pacing for transient store/queue I/O inside the worker
_IO_RETRY = RetryPolicy(base_s=0.05, factor=2.0, max_s=2.0, deadline_s=20.0)


def default_worker_id() -> str:
    """``host-pid``: unique enough to attribute leases in stats output."""
    return f"{socket.gethostname()}-{os.getpid()}"


def evaluate_payload(payload: Mapping[str, object]) -> Dict[str, float]:
    """Evaluate one task payload on the engine's scalar candidate path.

    Returns ``{"score", "cpu_time_s", "exact_rerun"}`` — exactly the
    record :meth:`ResultStore.store_point` persists.
    """
    from ..analysis.engine import _evaluate_task, _Task
    from ..api.experiment import metric_for, scenario_from_dict
    from ..api.options import RunOptions

    scenario = scenario_from_dict(payload["scenario"])
    options = RunOptions.from_dict(dict(payload.get("options", {})))
    metric = metric_for(str(payload["metric"]))
    task = _Task(
        index=0,
        parameters={},
        scenario=scenario,
        metric=metric,
        integrator=options.integrator,
        settings=options.settings,
        relinearise_interval=options.relinearise_interval,
    )
    outcome = _evaluate_task(task)
    return {
        "score": float(outcome.score),
        "cpu_time_s": float(outcome.cpu_time_s),
        "exact_rerun": bool(outcome.exact_rerun),
    }


class _Heartbeat:
    """Daemon thread extending one lease until stopped."""

    def __init__(self, queue, task_id: str, lease_s: float) -> None:
        self._queue = queue
        self._task_id = task_id
        self._lease_s = float(lease_s)
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{task_id[:8]}", daemon=True
        )

    def _run(self) -> None:
        interval = max(0.05, self._lease_s / 3.0)
        while not self._stop.wait(interval):
            try:
                alive = self._queue.heartbeat(self._task_id, self._lease_s)
            except (OSError, ConfigurationError):
                continue  # transient: the lease survives until its deadline
            if not alive:
                # the lease was reclaimed (we looked dead); finishing is
                # still safe — the store write is idempotent — but record
                # the loss for the log line
                self.lost = True

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def worker_loop(
    store_url: str,
    *,
    worker_id: Optional[str] = None,
    lease_s: float = 30.0,
    poll_s: float = 0.5,
    max_tasks: Optional[int] = None,
    idle_timeout_s: Optional[float] = None,
    exit_when_idle: bool = False,
    stop: Optional[Callable[[], bool]] = None,
    log: Optional[Callable[[str], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> Dict[str, int]:
    """Process queue tasks against the shared store until told to stop.

    Exits when ``max_tasks`` tasks finished, the queue drains with
    ``exit_when_idle`` set (no pending *and* no leased work left), the
    worker stayed idle for ``idle_timeout_s``, or ``stop()`` returns
    true.  Returns ``{"done": ..., "failed": ...}`` counts.
    """
    from ..cache.store import open_store

    if lease_s <= 0:
        raise ConfigurationError("lease_s must be positive")
    if worker_id is None:
        worker_id = default_worker_id()
    store = open_store(store_url=store_url)
    queue = open_queue(store_url)
    emit = log if log is not None else (lambda message: None)
    counts = {"done": 0, "failed": 0}
    idle_since: Optional[float] = None

    emit(f"worker {worker_id} serving {store_url} (lease {lease_s:g}s)")
    while not (stop is not None and stop()):
        if max_tasks is not None and counts["done"] + counts["failed"] >= max_tasks:
            break
        lease = retry_call(
            lambda: queue.lease(worker_id, lease_s), policy=_IO_RETRY, sleep=sleep
        )
        if lease is None:
            stats = None
            if exit_when_idle:
                try:
                    stats = queue.stats()
                except (OSError, ConfigurationError):
                    stats = None
                if stats is not None and not stats.get("pending") and not stats.get(
                    "leased"
                ):
                    break
            if idle_timeout_s is not None:
                now = clock()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= idle_timeout_s:
                    break
            sleep(poll_s)
            continue
        idle_since = None
        task_id = str(lease["id"])
        payload = dict(lease.get("payload", {}))
        expected_salt = str(payload.get("salt", ""))
        if expected_salt and expected_salt != store.salt:
            message = (
                f"worker runs code-version salt {store.salt!r} but the task "
                f"was enqueued under {expected_salt!r}; mixed-version fleets "
                "cannot share results — upgrade or retire this worker"
            )
            emit(f"task {task_id[:12]}: salt mismatch, failing")
            retry_call(
                lambda: queue.fail(task_id, message), policy=_IO_RETRY, sleep=sleep
            )
            counts["failed"] += 1
            continue
        try:
            existing = store.load_point(task_id)
        except CacheCorruptionError:
            existing = None  # re-evaluate; the fresh write repairs the entry
        if existing is not None:
            # another fleet member already computed it (duplicate lease
            # after reclamation, or a racing fleet): just acknowledge
            emit(f"task {task_id[:12]}: already in store, acknowledging")
            retry_call(lambda: queue.done(task_id), policy=_IO_RETRY, sleep=sleep)
            counts["done"] += 1
            continue
        with _Heartbeat(queue, task_id, lease_s) as heartbeat:
            try:
                record = evaluate_payload(payload)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                message = f"{type(exc).__name__}: {exc}"
                emit(f"task {task_id[:12]}: failed ({message})")
                retry_call(
                    lambda: queue.fail(task_id, message),
                    policy=_IO_RETRY,
                    sleep=sleep,
                )
                counts["failed"] += 1
                continue
            retry_call(
                lambda: store.store_point(
                    task_id,
                    score=record["score"],
                    cpu_time_s=record["cpu_time_s"],
                    exact_rerun=record["exact_rerun"],
                    label=str(payload.get("label", "")),
                ),
                policy=_IO_RETRY,
                sleep=sleep,
            )
            retry_call(lambda: queue.done(task_id), policy=_IO_RETRY, sleep=sleep)
            counts["done"] += 1
            emit(
                f"task {task_id[:12]}: done (score {record['score']:.6g}"
                + (", lease had been reclaimed" if heartbeat.lost else "")
                + ")"
            )
    emit(
        f"worker {worker_id} exiting: {counts['done']} done, "
        f"{counts['failed']} failed"
    )
    return counts
