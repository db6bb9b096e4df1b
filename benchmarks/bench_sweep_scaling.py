"""Sweep-engine scaling: parallel design exploration vs the serial loop.

The paper's motivation for a fast non-iterative solver is an "automated
design approach … using multiple simulations"; this benchmark measures
that workload end to end.  A 16-candidate design grid (ambient frequency x
excitation amplitude of the supercapacitor-charging scenario) is evaluated
two ways:

* **serial loop** — ``RunOptions(lane_width=1)``, exact options: one
  candidate at a time on the scalar path, exact every-step
  relinearisation;
* **parallel engine** — ``RunOptions.fast(n_workers=4, lane_width=1)``:
  4 worker processes, each evaluating one candidate at a time on the
  scalar path, and the amortised-relinearisation profile
  (``relinearise_interval=4``).

Pass criteria (asserted):

* the engine is at least 2x faster wall-clock than the serial loop;
* every candidate score matches the exact serial score within the
  **documented tolerance of 10 % relative** (the amortised profile holds
  each linearisation over up to 4 explicit steps; measured deviations on
  this grid are typically below 7 %) and the best candidate is the same.

A second comparison measures **lane packing**, the default sweep
dispatch: a 64-candidate same-topology grid marched as lanes of stacked
``(B, n, n)`` arrays (one linearise/eliminate/march NumPy sweep per step
for a whole lane block, composed with the same 4 worker processes)
against the same 4 workers at ``lane_width=1``.  Asserted: at least 3x
wall-clock over the ``lane_width=1`` engine and every score exactly equal
to its (each lane is bitwise its scalar run).  It is recorded in
``BENCH_sweep.json`` as its own ``batched`` sub-object, with its own grid
size, worker counts and engine time, so one file tracks all three
execution paths — serial / engine / lanes.

On a single-core host the speed-up comes from the amortised profile and
the lane vectorisation; on a multi-core host process parallelism
multiplies both further.

Run via pytest (writes ``benchmarks/results/sweep_scaling.txt`` and
``benchmarks/results/batch_scaling.txt``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_scaling.py -q

or directly, e.g. the CI smoke grids::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --quick

Both entry points additionally write ``BENCH_sweep.json`` so the perf
trajectory stays machine-readable across PRs.
"""

import argparse
import json
import time
from pathlib import Path

from repro import RunOptions, Study
from repro.analysis.sweep import average_power_metric
from repro.harvester.scenarios import charging_scenario
from repro.io.report import format_table

JSON_PATH = Path("BENCH_sweep.json")

#: documented score tolerance of the amortised-relinearisation profile
SCORE_TOLERANCE_REL = 0.10
#: required wall-clock advantage of the engine over the serial loop
MIN_SPEEDUP = 2.0
#: required wall-clock advantage of lane packing over the lane_width=1 engine
MIN_BATCH_SPEEDUP = 3.0

WORKERS = 4
RELINEARISE_INTERVAL = 4

FULL_GRID = {
    "excitation_frequency_hz": [66.0, 69.0, 72.0, 75.0],
    "excitation_amplitude_ms2": [0.3, 0.45, 0.59, 0.75],
}
FULL_DURATION_S = 0.2

#: 64-candidate same-topology grid for the lane-packing comparison
BATCH_GRID = {
    "excitation_frequency_hz": [64.0, 66.0, 68.0, 69.0, 70.0, 72.0, 74.0, 75.0],
    "excitation_amplitude_ms2": [0.3, 0.4, 0.45, 0.5, 0.55, 0.59, 0.65, 0.75],
}
BATCH_DURATION_S = 0.2

#: tiny smoke grid for CI: exercises the full parallel/fast-profile path
#: in seconds without asserting the speed-up (CI runners are too noisy)
QUICK_GRID = {
    "excitation_frequency_hz": [69.0, 72.0],
    "excitation_amplitude_ms2": [0.45, 0.59],
}
QUICK_DURATION_S = 0.05


def build_study(grid, duration_s):
    scenario = charging_scenario(duration_s=duration_s)
    return Study.scenario(scenario).sweep(
        grid,
        metric=average_power_metric,
        metric_name="average_power_W",
    )


def grid_size(grid):
    n = 1
    for values in grid.values():
        n *= len(values)
    return n


def _write_json(record, *, section=None):
    """Machine-readable record of the run (perf trajectory across PRs).

    The engine comparison starts a fresh file; the batched comparison,
    measured on its own grid, is merged in as the ``section`` sub-object.
    """
    if section is not None:
        merged = (
            json.loads(JSON_PATH.read_text())
            if JSON_PATH.exists()
            else {"benchmark": "sweep_scaling"}
        )
        merged[section] = record
        record = merged
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")


def scalar_path_engine():
    """The fast profile on ``WORKERS`` workers, one candidate per block."""
    return RunOptions.fast(
        relinearise_interval=RELINEARISE_INTERVAL, n_workers=WORKERS, lane_width=1
    )


def run_comparison(grid, duration_s, *, assert_speedup=True, quick=False):
    """Run serial vs engine, return (report_text, speedup, max_deviation)."""
    study = build_study(grid, duration_s)
    n_candidates = grid_size(grid)

    t0 = time.perf_counter()
    serial = study.options(RunOptions(lane_width=1)).run()
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = study.options(scalar_path_engine()).run()
    t_engine = time.perf_counter() - t0

    speedup = t_serial / t_engine
    deviations = [
        abs(fast.score - exact.score) / abs(exact.score)
        for fast, exact in zip(engine.points, serial.points)
    ]
    max_deviation = max(deviations)

    rows = [
        ["serial loop (exact)", f"{t_serial:.2f}", "1", "1.00", "0 (reference)"],
        [
            f"engine ({WORKERS} workers, hold {RELINEARISE_INTERVAL})",
            f"{t_engine:.2f}",
            str(WORKERS),
            f"{speedup:.2f}",
            f"{max_deviation:.2e}",
        ],
    ]
    report = format_table(
        ["path", "wall [s]", "workers", "speedup", "max score dev (rel)"],
        rows,
        title=(
            f"sweep scaling — {n_candidates}-candidate grid, "
            f"{duration_s:g} s simulated per candidate"
        ),
    )
    report += (
        f"\nbest candidate (serial): {dict(serial.best().parameters)}"
        f"\nbest candidate (engine): {dict(engine.best().parameters)}"
    )
    _write_json(
        {
            "benchmark": "sweep_scaling",
            "quick": quick,
            "n_candidates": n_candidates,
            "duration_s_per_candidate": duration_s,
            "workers": WORKERS,
            "relinearise_interval": RELINEARISE_INTERVAL,
            "t_serial_s": t_serial,
            "t_engine_s": t_engine,
            "speedup": speedup,
            "max_rel_score_deviation": max_deviation,
            "score_tolerance_rel": SCORE_TOLERANCE_REL,
        }
    )

    assert serial.best().parameters == engine.best().parameters, (
        "the fast profile changed the winning candidate"
    )
    assert max_deviation <= SCORE_TOLERANCE_REL, (
        f"score deviation {max_deviation:.3e} exceeds the documented "
        f"tolerance {SCORE_TOLERANCE_REL}"
    )
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"engine speedup {speedup:.2f}x below the required {MIN_SPEEDUP}x"
        )
    return report, speedup, max_deviation


def run_batched_comparison(grid, duration_s, *, assert_speedup=True, quick=False):
    """Lane blocks vs the 4-worker ``lane_width=1`` engine.

    Returns ``(report_text, speedup)``; both paths run the same
    amortised-relinearisation profile, so the comparison isolates the lane
    vectorisation itself, and every score must match exactly.  The quick
    smoke grid is too small to split across workers (one-lane blocks
    take the scalar path), so quick mode marches it as a single lane
    block to actually exercise the batched loop.
    """
    study = build_study(grid, duration_s)
    n_candidates = grid_size(grid)
    batched_workers = 1 if quick else WORKERS

    t0 = time.perf_counter()
    engine = study.options(scalar_path_engine()).run()
    t_engine = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = study.options(
        RunOptions.batched(
            lane_width=n_candidates if quick else None,
            n_workers=batched_workers,
            relinearise_interval=RELINEARISE_INTERVAL,
        )
    ).run()
    t_batched = time.perf_counter() - t0
    # runtime truth, not the planning count: every candidate's score must
    # actually have come out of a batched march
    assert batched.engine_info.n_batched_candidates == n_candidates, (
        "the batched comparison did not exercise the batched path "
        f"({batched.engine_info.n_batched_candidates}/{n_candidates} "
        "candidates batched)"
    )

    speedup = t_engine / t_batched
    rows = [
        [
            f"engine ({WORKERS} workers, lane_width=1, hold "
            f"{RELINEARISE_INTERVAL})",
            f"{t_engine:.2f}",
            "1.00",
        ],
        [
            f"lane blocks ({batched_workers} worker(s))",
            f"{t_batched:.2f}",
            f"{speedup:.2f}",
        ],
    ]
    report = format_table(
        ["path", "wall [s]", "speedup"],
        rows,
        title=(
            f"lane packing — {n_candidates}-candidate "
            f"same-topology grid, {duration_s:g} s simulated per candidate"
        ),
    )
    report += f"\nbest candidate: {dict(batched.best().parameters)}"

    for fast, ref in zip(batched.points, engine.points):
        assert fast.parameters == ref.parameters
        assert fast.score == ref.score, (
            f"batched score {fast.score!r} differs from the lane_width=1 engine's "
            f"{ref.score!r} at {dict(ref.parameters)}"
        )
    max_deviation = max(
        abs(fast.score - ref.score) / abs(ref.score)
        for fast, ref in zip(batched.points, engine.points)
    )
    _write_json(
        {
            "quick": quick,
            "n_candidates": n_candidates,
            "duration_s_per_candidate": duration_s,
            "engine_workers": WORKERS,
            "batched_workers": batched_workers,
            "relinearise_interval": RELINEARISE_INTERVAL,
            "t_scalar_path_engine_s": t_engine,
            "t_batched_s": t_batched,
            "speedup_vs_scalar_path_engine": speedup,
            "max_rel_score_deviation": max_deviation,
        },
        section="batched",
    )
    if assert_speedup:
        assert speedup >= MIN_BATCH_SPEEDUP, (
            f"batched speedup {speedup:.2f}x below the required "
            f"{MIN_BATCH_SPEEDUP}x over the lane_width=1 engine"
        )
    return report, speedup


def test_sweep_engine_scaling(report_writer):
    report, speedup, max_dev = run_comparison(FULL_GRID, FULL_DURATION_S)
    report_writer("sweep_scaling", report)


def test_lane_packing_scaling(report_writer):
    report, speedup = run_batched_comparison(BATCH_GRID, BATCH_DURATION_S)
    report_writer("batch_scaling", report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke grids (CI): check correctness, skip the speed-up assertions",
    )
    args = parser.parse_args()
    if args.quick:
        report, speedup, max_dev = run_comparison(
            QUICK_GRID, QUICK_DURATION_S, assert_speedup=False, quick=True
        )
        batch_report, batch_speedup = run_batched_comparison(
            QUICK_GRID, QUICK_DURATION_S, assert_speedup=False, quick=True
        )
    else:
        report, speedup, max_dev = run_comparison(FULL_GRID, FULL_DURATION_S)
        batch_report, batch_speedup = run_batched_comparison(
            BATCH_GRID, BATCH_DURATION_S
        )
    print(report)
    print(f"\nspeedup {speedup:.2f}x, max relative score deviation {max_dev:.2e}")
    print()
    print(batch_report)
    print(
        f"\nlane speedup {batch_speedup:.2f}x over the lane_width=1 engine, "
        "every score identical"
    )
    print(f"written: {JSON_PATH}")


if __name__ == "__main__":
    main()
