"""Span recorder installed around the simulator's public layer functions.

The benchmark measures its end-to-end figures with nothing installed.  A
traced run calls :func:`install`, which replaces each layer function listed
by :func:`_layer_table` with a wrapper that records one span per call: a
name, a start and an end (``time.perf_counter``, the system-wide monotonic
clock on Linux, so comparable across forked workers), the span that was
open when the call began (its parent), the workload iteration, the
benchmark leg it ran under, an optional per-call value (kernel burst
length, Newton iterations, digital activations, cache hit) and its self
time: its duration minus the time spent in traced children in the same
process.

Spans are kept in memory and written once, when the benchmark ends.  Every
span is added to per-(name, leg) totals, from which the per-layer figures
are computed; the first ``max_spans`` are also kept one by one for the
span file, and the rest are only counted as dropped.  Sweep workers are
forked from the benchmark process, so they inherit the wrappers; the
worker entry point ships the totals and spans it recorded back to the
parent with its outcomes, where they are merged.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: one kept span: (id, parent id, name, start, end, iteration, value,
#: self seconds, leg)
Span = Tuple[int, int, str, float, float, int, float, float, str]

#: the tracer the unpickling hook in the parent merges worker spans into
_installed: Optional["Tracer"] = None


class Tracer:
    """Span totals, a bounded span log and a per-process open-span stack."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.iteration = -1
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        #: (name, leg) -> [calls, seconds, self seconds, value sum]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        # open frames: [span id, leg, seconds spent in traced children]
        self._stack: List[list] = [[0, "", 0.0]]
        self._serial = 0

    def open(self, name: str) -> None:
        # ids are unique across forked workers: the pid sits in the high bits
        self._serial += 1
        leg = name[4:] if name.startswith("leg.") else self._stack[-1][1]
        self._stack.append([(os.getpid() << 32) | self._serial, leg, 0.0])

    def close(self, name: str, start: float, end: float, value: float = 0.0) -> None:
        span_id, leg, child_seconds = self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        self_seconds = duration - child_seconds
        total = self.totals.get((name, leg))
        if total is None:
            total = self.totals[(name, leg)] = [0, 0.0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_seconds
        total[3] += value
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (span_id, parent[0], name, start, end, self.iteration, value,
                 self_seconds, leg)
            )
        else:
            self.dropped += 1

    def merge(self, totals, spans, dropped: int) -> None:
        """Add a worker's totals and spans to this tracer's."""
        for key, (calls, seconds, self_seconds, value) in totals.items():
            total = self.totals.setdefault(key, [0, 0.0, 0.0, 0.0])
            total[0] += calls
            total[1] += seconds
            total[2] += self_seconds
            total[3] += value
        room = max(self.max_spans - len(self.spans), 0)
        self.spans.extend(spans[:room])
        self.dropped += dropped + max(len(spans) - room, 0)

    def total(self, names, legs) -> List[float]:
        """[calls, seconds, self seconds, value sum] over ``names`` and ``legs``."""
        result = [0, 0.0, 0.0, 0.0]
        for (name, leg), total in self.totals.items():
            if name in names and leg in legs:
                for i in range(4):
                    result[i] += total[i]
        return result

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the benchmark's legs)."""
        if not self.enabled:
            yield
            return
        self.open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self.close(name, start, perf_counter())

    def wrap(
        self,
        name: str,
        fn: Callable,
        value: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ):
        """``fn`` wrapped so that each call records a span called ``name``.

        ``value(args, result, snapshot)`` gives the span's per-call value,
        where ``snapshot`` is ``before(args)`` taken just before the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            snapshot = None if before is None else before(args)
            tracer.open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(name, start, perf_counter())
                raise
            end = perf_counter()
            tracer.close(
                name, start, end,
                0.0 if value is None else float(value(args, result, snapshot)),
            )
            return result

        return traced


class _WorkerOutcomes(list):
    """A worker's outcome list that carries the worker's spans to the parent."""

    def __init__(self, outcomes, record) -> None:
        super().__init__(outcomes)
        self.record = record

    def __reduce__(self):
        return _deliver, (list(self), self.record)


def _deliver(outcomes, record):
    """Unpickling hook in the parent: merge the worker's spans, return outcomes."""
    if _installed is not None:
        _installed.merge(*record)
    return outcomes


def _activation_counter(args) -> int:
    return args[0].n_activations


def _activations(args, result, before) -> int:
    return args[0].n_activations - before


def _layer_table():
    """(owner, attribute, span name, value, before) for every traced layer."""
    from repro.api import planner
    from repro.baselines import implicit_solver
    from repro.cache.store import ResultStore
    from repro.core import batch, elimination
    from repro.core.block import BlockLinearisation
    from repro.core.digital import DigitalEventKernel
    from repro.core.elimination import BatchedAssembler, SystemAssembler
    from repro.core.integrators import AdamsBashforth
    from repro.core.results import TraceRecorder
    from repro.core.solver import LinearisedStateSpaceSolver
    from repro.core.stepper import BatchedStepController, StepSizeController
    from repro.harvester.scenarios import Scenario

    return [
        (Scenario, "build_harvester", "harvester.build", None, None),
        (LinearisedStateSpaceSolver, "run", "solver.run", None, None),
        (SystemAssembler, "assemble", "elimination.assemble", None, None),
        (elimination, "linearise_block", "linearise.block", None, None),
        (BlockLinearisation, "validate", "linearise.validate", None, None),
        (SystemAssembler, "eliminate", "elimination.eliminate", None, None),
        (StepSizeController, "propose", "stepper.propose", None, None),
        (AdamsBashforth, "step", "integrators.step", None, None),
        (TraceRecorder, "record", "results.record", None, None),
        (
            implicit_solver,
            "newton_solve",
            "baselines.newton",
            lambda args, result, _: result.iterations,
            None,
        ),
        (BatchedAssembler, "assemble", "batch.assemble", None, None),
        (BatchedAssembler, "eliminate", "batch.eliminate", None, None),
        (BatchedStepController, "propose", "stepper.batched_propose", None, None),
        (batch.BatchedSolver, "run", "batch.run", None, None),
        (
            DigitalEventKernel,
            "run_due",
            "digital.run_due",
            _activations,
            _activation_counter,
        ),
        (ResultStore, "store_point", "cache.store_point", None, None),
        (
            ResultStore,
            "load_point",
            "cache.load_point",
            lambda args, result, _: result is not None,
            None,
        ),
        (ResultStore, "contains", "cache.contains", None, None),
        (planner, "execute_sweep", "planner.execute_sweep", None, None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer; returns a function that restores them."""
    global _installed
    from repro.analysis import engine
    from repro.core import batch

    restore: List[Tuple[object, str, object]] = []

    def patch(owner, attribute, replacement) -> None:
        restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for owner, attribute, name, value, before in _layer_table():
        patch(
            owner,
            attribute,
            tracer.wrap(name, getattr(owner, attribute), value, before),
        )

    # the march kernel is a callable handed out by a factory: wrap what it returns
    get_kernel = batch.get_march_kernel

    def traced_get_march_kernel(backend):
        return tracer.wrap(
            "kernels.march",
            get_kernel(backend),
            lambda args, result, _: result.steps,
        )

    patch(batch, "get_march_kernel", traced_get_march_kernel)

    # the sweep worker entry point: one span per lane block; in a forked
    # worker, what was recorded meanwhile travels back with the outcomes
    evaluate = tracer.wrap("engine.evaluate_block", engine._evaluate_lane_block)

    @functools.wraps(engine._evaluate_lane_block)
    def traced_evaluate(tasks):
        if not tracer.enabled or os.getpid() == tracer.pid:
            return evaluate(tasks)
        # the fork copied the parent's records: start this task's afresh
        tracer.totals, tracer.spans, tracer.dropped = {}, [], 0
        outcomes = evaluate(tasks)
        record = (tracer.totals, tracer.spans, tracer.dropped)
        tracer.totals, tracer.spans, tracer.dropped = {}, [], 0
        return _WorkerOutcomes(outcomes, record)

    patch(engine, "_evaluate_lane_block", traced_evaluate)
    _installed = tracer

    def uninstall() -> None:
        global _installed
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
        _installed = None

    return uninstall
