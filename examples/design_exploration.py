"""Design exploration: the use case that motivates fast simulation.

The paper's conclusion states that the point of accelerating harvester
simulation is "an automated design approach by which the best topology and
optimal parameters of energy harvester are obtained iteratively using
multiple simulations".  This example runs such a loop through the
``Study`` facade: it sweeps the ambient frequency around the tuned
resonance to map the power-vs-frequency curve (the classic resonance peak
that motivates tunable harvesters) and then sweeps the excitation
amplitude to rank operating conditions by harvested energy — dozens of
complete-system simulations that finish in minutes thanks to the
linearised state-space solver.

The final sections scale the loop up: a 2-D design grid evaluated by
worker processes (live best-so-far progress, resumable through the result
cache, amortised-relinearisation fast profile via ``RunOptions.fast()``), then
the same grid on one worker, where every same-topology candidate marches
as a lane of one block of stacked arrays — the fastest way to burn
through a design grid.

Run with::

    python examples/design_exploration.py          # full tour
    python examples/design_exploration.py --smoke  # CI: batched grid only
"""

import argparse
from pathlib import Path

from repro import RunOptions, Study, charging_scenario, sweep_excitation_frequency
from repro.analysis import average_power_metric
from repro.io import format_sweep_progress, format_table


def resonance_curve() -> None:
    """Power versus ambient frequency with the generator tuned to 70 Hz."""
    scenario = charging_scenario(duration_s=0.4)
    frequencies = [64.0, 67.0, 69.0, 70.0, 71.0, 73.0, 76.0]
    result = sweep_excitation_frequency(scenario, frequencies)
    rows = [
        [f"{point.parameters['excitation_frequency_hz']:.0f}", f"{point.score * 1e6:.1f}"]
        for point in sorted(result.points, key=lambda p: p.parameters["excitation_frequency_hz"])
    ]
    print(
        format_table(
            ["ambient frequency [Hz]", "average generator power [uW]"],
            rows,
            title="resonance curve of the 70 Hz-tuned harvester",
        )
    )
    best = result.best()
    print(
        f"\nbest operating point: {best.parameters['excitation_frequency_hz']:.0f} Hz "
        f"({best.score * 1e6:.1f} uW) — the resonance peak the tuning mechanism chases\n"
    )


def amplitude_sweep() -> None:
    """Rank excitation amplitudes by the energy harvested in the window."""
    result = (
        Study.scenario(charging_scenario(duration_s=0.3))
        .sweep(
            {"excitation_amplitude_ms2": [0.3, 0.59, 0.9]},
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        .run()
    )
    print(result.format())


def parallel_design_grid() -> None:
    """2-D design grid on the parallel sweep engine (the scaled-up loop).

    Every finished candidate is stored in the result cache (in the
    current directory), so rerunning after an interruption is served the
    finished candidates and evaluates only the rest; the fast solver
    profile (``RunOptions.fast()``) trades a documented 10 % (typically
    few-percent) score tolerance for a 2-3x per-candidate speed-up.
    """
    cache_dir = Path(".repro-cache")
    options = RunOptions.fast(
        relinearise_interval=4,
        n_workers=4,
        cache="readwrite",
        cache_dir=str(cache_dir),
        progress=lambda done, total, best: print(
            format_sweep_progress(done, total, best.score, best.parameters)
        ),
    )
    result = (
        Study.scenario(charging_scenario(duration_s=0.2))
        .options(options)
        .sweep(
            {
                "excitation_frequency_hz": [66.0, 69.0, 72.0, 75.0],
                "excitation_amplitude_ms2": [0.3, 0.45, 0.59, 0.75],
            },
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        .run()
    )
    print()
    print(result.format())
    info = result.engine_info
    print(
        f"\n{info.n_evaluated} evaluated / {info.n_cache_hits} served from "
        f"{cache_dir} on {info.n_workers} workers "
        f"(parallel={info.parallel}); `repro cache clear --yes --cache-dir "
        f"{cache_dir}` to re-run fresh\n"
    )


def batched_design_grid(smoke: bool = False) -> None:
    """The same design grid marched as lanes of one block.

    All candidates share the charging topology, so a default one-worker
    sweep marches them as lanes of stacked ``(B, n, n)`` arrays — one
    linearise/eliminate/march NumPy sweep per step for the whole grid.  Every lane keeps its own clock and step, so
    each lane is bitwise its serial run, adaptive or fixed-step.
    """
    if smoke:
        grid = {
            "excitation_frequency_hz": [69.0, 72.0],
            "excitation_amplitude_ms2": [0.45, 0.59],
        }
        scenario = charging_scenario(duration_s=0.05)
    else:
        grid = {
            "excitation_frequency_hz": [66.0, 69.0, 72.0, 75.0],
            "excitation_amplitude_ms2": [0.3, 0.45, 0.59, 0.75],
        }
        scenario = charging_scenario(duration_s=0.2)
    result = (
        Study.scenario(scenario)
        .sweep(grid, metric=average_power_metric, metric_name="average_power_W")
        .run()
    )
    print(result.format())
    info = result.engine_info
    print(
        f"\nlane sweep: {info.n_batched_candidates}/{info.n_candidates} "
        f"candidates marched batched in {info.n_lane_blocks} lane block(s), "
        f"{info.n_batch_fallbacks} scalar fallback(s)\n"
    )
    assert info.n_batched_candidates == info.n_candidates
    assert info.n_lane_blocks == 1 and info.n_batch_fallbacks == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: run only a tiny batched design grid",
    )
    args = parser.parse_args()
    if args.smoke:
        batched_design_grid(smoke=True)
        return
    resonance_curve()
    amplitude_sweep()
    parallel_design_grid()
    batched_design_grid()


if __name__ == "__main__":
    main()
