"""Per-layer figures of a traced run.

Every figure is normalised per workload iteration, so that runs of
different lengths compare.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict


#: legs the per-layer figures count.  ``batched_grid``'s scalar reference
#: leg is left out: its layers are ``scalar_charging``'s, and counting them
#: would hide that the batched march bypasses them
LEGS = ("proposed", "nr", "batched", "cold", "warm")

#: (metric prefix, span names, legs) — each yields ``<prefix>.self_ms``
#: (busy time minus the time inside traced children in the same process)
#: and ``<prefix>.calls``
TIMED_LAYERS = (
    ("harvester.build", ("harvester.build",), LEGS),
    ("solver.run", ("solver.run",), LEGS),
    ("elimination.assemble", ("elimination.assemble",), LEGS),
    ("linearise.block", ("linearise.block",), LEGS),
    ("linearise.validate", ("linearise.validate",), LEGS),
    ("elimination.eliminate", ("elimination.eliminate",), LEGS),
    ("stepper.propose", ("stepper.propose",), LEGS),
    ("integrators.step", ("integrators.step",), LEGS),
    ("results.record", ("results.record",), LEGS),
    ("baselines.newton", ("baselines.newton",), LEGS),
    ("batch.refresh", ("batch.assemble", "batch.eliminate"), LEGS),
    ("kernels.march", ("kernels.march",), LEGS),
    ("stepper.batched_propose", ("stepper.batched_propose",), LEGS),
    ("batch.run", ("batch.run",), LEGS),
    ("digital.run_due", ("digital.run_due",), LEGS),
    ("cache.store_point", ("cache.store_point",), LEGS),
    ("cache.load_point", ("cache.load_point",), LEGS),
    ("cache.contains", ("cache.contains",), LEGS),
    # a sweep on worker processes leaves the planner waiting for them; that
    # wait is engine.dispatch_wait_ms, so only inline sweeps count here
    ("planner.execute_sweep", ("planner.execute_sweep",), ("batched", "warm")),
)


def _per_call(total) -> float:
    calls, _seconds, _self, value = total
    return value / calls if calls else 0.0


def per_layer(workload, tracer, n_iterations: int, phases) -> Dict[str, float]:
    """Every per-layer figure of one traced run.

    ``phases`` holds the untraced and the traced iteration walls of the
    same iterations, and the untraced per-leg samples.
    """
    n = max(n_iterations, 1)
    figures: Dict[str, float] = {}
    for prefix, names, legs in TIMED_LAYERS:
        calls, _seconds, self_seconds, _value = tracer.total(names, legs)
        figures[prefix + ".self_ms"] = 1e3 * self_seconds / n
        figures[prefix + ".calls"] = calls / n

    figures["kernels.march.steps_per_call"] = _per_call(
        tracer.total(("kernels.march",), LEGS)
    )
    figures["baselines.newton.iterations_per_call"] = _per_call(
        tracer.total(("baselines.newton",), LEGS)
    )
    figures["digital.activations"] = tracer.total(("digital.run_due",), LEGS)[3] / n
    # a load_point span's value is 1 on a hit
    figures["cache.hit_ratio"] = _per_call(tracer.total(("cache.load_point",), LEGS))
    store_bytes = getattr(workload, "store_bytes", [])
    figures["cache.store_bytes"] = (
        statistics.median(store_bytes) if store_bytes else 0.0
    )

    # the engine's own bookkeeping for the simulating sweeps
    infos = workload.engine_infos
    candidates = sum(info.n_candidates for info in infos)
    figures["engine.batched_ratio"] = (
        sum(info.n_batched_candidates for info in infos) / candidates
        if candidates
        else 0.0
    )
    figures["engine.batch_fallbacks"] = (
        sum(info.n_batch_fallbacks for info in infos) / len(infos) if infos else 0.0
    )
    # wall of the main sweep leg beyond its candidates' evaluation time,
    # shared over the workers that evaluated them in parallel
    if infos:
        main = (workload.main_leg,)
        walls = tracer.total(("leg." + workload.main_leg,), main)[1]
        evaluating = tracer.total(("engine.evaluate_block",), main)[1]
        figures["engine.dispatch_wait_ms"] = (
            1e3 * (walls - evaluating / infos[0].n_workers) / n
        )
    else:
        figures["engine.dispatch_wait_ms"] = 0.0

    walls_untraced, walls_traced, untraced_samples = phases
    figures["trace.overhead"] = (
        statistics.median(walls_traced) / statistics.median(walls_untraced) - 1.0
    )
    proposed = untraced_samples.get("proposed")
    nr = untraced_samples.get("nr")
    figures["table1_speedup"] = (
        statistics.median(nr) / statistics.median(proposed) if proposed and nr else 0.0
    )
    return figures
