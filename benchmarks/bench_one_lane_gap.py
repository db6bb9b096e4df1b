"""The one-lane gap: a one-lane batched march against the scalar run.

ROADMAP direction 3 ("one march core") would make a single run a
one-lane ``BatchedSolver`` march.  Its gate is the per-step cost of that
march against the scalar :class:`~repro.core.solver.LinearisedStateSpaceSolver`
on ``charging_scenario(0.2)``: within 1.2x over paired runs.  This
benchmark measures

* **the gap** -- both runs of the same scenario, alternating, each timed
  around ``run()`` only (builds excluded); the per-step medians and their
  ratio.  The two runs must be bitwise identical (every trace, the step
  count): the correctness check behind the comparison;
* **the per-step layers of the batched march** -- per-call figures of
  ``BatchedStepController.propose``, the one stacked drift evaluation
  (``BatchedStepController.drifts``) and the one-step kernel
  ``_march_one`` at ``B = 1`` and ``B = 8`` (the run's own reduced
  matrix tiled over the lanes), next to the scalar
  ``StepSizeController.propose`` and drift figure.

It has no timing gate: the figures are recorded, not asserted.  Writes
``BENCH_lane_gap.json`` with an environment stamp (numpy, scipy, CPU
count, commit) and ``benchmarks/results/one_lane_gap.txt``.

Run via pytest or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_one_lane_gap.py -q
    PYTHONPATH=src python benchmarks/bench_one_lane_gap.py [--quick]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.batch import BatchedSolver
from repro.core.elimination import BatchedAssembler
from repro.core.integrators import AdamsBashforth
from repro.core.kernels import divergence_guard
from repro.core.stepper import (
    BatchedStepController,
    StepSizeController,
    frobenius_norm,
)
from repro.harvester.scenarios import charging_scenario, proposed_settings

JSON_PATH = Path("BENCH_lane_gap.json")
DURATION_S = 0.2
#: ROADMAP direction 3's gate on the one-lane/scalar per-step ratio
GATE_RATIO = 1.2
LANE_COUNTS = (1, 8)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent,
    )


def environment() -> dict:
    """numpy, scipy (``None`` when absent), CPU count, Python and the
    commit the figures are for (``+dirty`` when tracked files differ
    from it)."""
    try:
        head = _git("rev-parse", "HEAD")
        dirty = _git("diff", "--quiet", "HEAD").returncode != 0
        commit = head.stdout.strip() + ("+dirty" if dirty else "") if head.returncode == 0 else None
    except OSError:
        commit = None
    try:  # not a dependency of the package
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def _scalar_run(scenario):
    harvester = scenario.build_harvester()
    solver = harvester.build_solver(settings=proposed_settings(scenario))
    start = time.perf_counter()
    result = solver.run(scenario.duration_s)
    return time.perf_counter() - start, result


def _one_lane_run(scenario):
    harvester = scenario.build_harvester()
    solver = BatchedSolver(
        [harvester.assembler],
        settings=[proposed_settings(scenario)],
        digital_kernels=[harvester._build_kernel()],
    )
    harvester._wire(solver.lane_wiring(0))
    start = time.perf_counter()
    batch = solver.run([scenario.duration_s])
    if batch.failures:
        raise RuntimeError(f"one-lane run retired its lane: {batch.failures}")
    return time.perf_counter() - start, batch.results[0]


def _assert_identical(scalar, lane):
    assert scalar.stats.n_steps == lane.stats.n_steps
    assert sorted(scalar.traces) == sorted(lane.traces)
    for name in scalar.traces:
        assert scalar[name].times.tobytes() == lane[name].times.tobytes(), name
        assert scalar[name].values.tobytes() == lane[name].values.tobytes(), name


def measure_gap(repeats: int) -> dict:
    """Alternating scalar and one-lane runs of ``charging_scenario(0.2)``."""
    scenario = charging_scenario(duration_s=DURATION_S)
    scalar_times, lane_times = [], []
    _scalar_run(scenario), _one_lane_run(scenario)  # warm the caches
    for _ in range(repeats):
        t_scalar, scalar = _scalar_run(scenario)
        t_lane, lane = _one_lane_run(scenario)
        scalar_times.append(t_scalar)
        lane_times.append(t_lane)
    _assert_identical(scalar, lane)
    n_steps = scalar.stats.n_steps
    scalar_s = statistics.median(scalar_times)
    lane_s = statistics.median(lane_times)
    return {
        "scenario": f"charging_scenario({DURATION_S:g})",
        "repeats": repeats,
        "n_steps": n_steps,
        "scalar_s": scalar_s,
        "one_lane_s": lane_s,
        "scalar_us_per_step": scalar_s / n_steps * 1e6,
        "one_lane_us_per_step": lane_s / n_steps * 1e6,
        "one_lane_over_scalar": lane_s / scalar_s,
        "gate_ratio": GATE_RATIO,
        "bitwise_identical": True,
    }


def _per_call_us(fn, calls: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean time of ``calls`` calls, in us."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def _model():
    """The reduced model and initial state of ``charging_scenario(0.2)``."""
    harvester = charging_scenario(duration_s=DURATION_S).build_harvester()
    assembler = BatchedAssembler([harvester.assembler])
    assembler.prepare()
    x = assembler.initial_state()
    y = np.zeros((1, assembler.n_terminals))
    reduced = assembler.eliminate(assembler.assemble(np.zeros(1), x, y), x)
    return reduced.a_reduced[0], reduced.b_reduced[0], x[0]


def measure_layers(calls: int) -> dict:
    """Per-call figures of the batched step's layers at each lane count."""
    a_one, b_one, x_one = _model()
    integrator = AdamsBashforth(order=3)
    settings = proposed_settings(charging_scenario(duration_s=DURATION_S))
    figures = {}
    for lanes in LANE_COUNTS:
        a = np.repeat(a_one[None], lanes, axis=0)
        a_ref = a * (1.0 + 1e-6)
        controller = BatchedStepController(
            [settings.step_control] * lanes, integrator=integrator
        )
        # the first proposal computes every lane's bound; the timed ones
        # reuse it, as the steady march does
        controller.propose(a, *controller.drifts(a, a_ref))
        change, stability = controller.drifts(a, a_ref)
        remaining = np.full(lanes, 0.1)
        b = np.repeat(b_one[None], lanes, axis=0)
        x = np.repeat(x_one[None], lanes, axis=0)
        t = np.full(lanes, 0.05)
        h = np.full(lanes, 1.4e-4)
        history = [
            (t - k * h, np.matmul(a, x[..., None])[..., 0] + b) for k in (2, 1)
        ]
        guard = divergence_guard(np.full(lanes, settings.divergence_limit))
        t_end = np.full(lanes, DURATION_S)
        figures[f"B{lanes}"] = {
            "propose_us": _per_call_us(
                lambda: controller.propose(a, change, stability, t_remaining=remaining),
                calls,
            ),
            "drifts_us": _per_call_us(lambda: controller.drifts(a, a_ref), calls),
            "march_one_us": _per_call_us(
                lambda: kernels._march_one(
                    a, b, x, t, h, t_end, history, 3, guard, None
                ),
                calls,
            ),
        }
    scalar = StepSizeController(settings.step_control, integrator=integrator)
    scalar.propose(a_one, 0.0)
    a_previous = a_one * (1.0 + 1e-6)
    previous_norm = frobenius_norm(a_previous) or 1.0
    figures["scalar"] = {
        "propose_us": _per_call_us(
            lambda: scalar.propose(a_one, 1e-6, t_remaining=0.1), calls
        ),
        "drift_us": _per_call_us(
            lambda: frobenius_norm(a_one - a_previous) / previous_norm, calls
        ),
    }
    return figures


def run_benchmark(*, quick: bool = False):
    gap = measure_gap(repeats=3 if quick else 9)
    layers = measure_layers(calls=2000 if quick else 20000)
    data = {
        "benchmark": "one_lane_gap",
        "quick": quick,
        "environment": environment(),
        "gap": gap,
        "per_call": layers,
    }
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")
    lines = [
        f"one-lane gap -- {gap['scenario']}, {gap['n_steps']} steps, "
        f"median of {gap['repeats']} alternating runs, traces bitwise identical",
        f"  scalar run    {gap['scalar_us_per_step']:8.1f} us/step",
        f"  one-lane run  {gap['one_lane_us_per_step']:8.1f} us/step",
        f"  ratio         {gap['one_lane_over_scalar']:8.2f}x "
        f"(direction 3 gate {GATE_RATIO:g}x, not asserted)",
        "per call [us]     propose    drifts  _march_one",
    ]
    for lanes in LANE_COUNTS:
        row = layers[f"B{lanes}"]
        lines.append(
            f"  B = {lanes:<3d}        {row['propose_us']:7.2f}   "
            f"{row['drifts_us']:7.2f}   {row['march_one_us']:9.2f}"
        )
    lines.append(
        f"  scalar         {layers['scalar']['propose_us']:7.2f}   "
        f"{layers['scalar']['drift_us']:7.2f}"
    )
    return "\n".join(lines), data


def test_one_lane_gap(report_writer):
    report, _data = run_benchmark()
    report_writer("one_lane_gap", report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="3 run pairs and 2,000 calls per layer figure (CI smoke)",
    )
    args = parser.parse_args()
    report, _data = run_benchmark(quick=args.quick)
    print(report)
    print(f"\nwritten: {JSON_PATH}")


if __name__ == "__main__":
    main()
