"""Topology exploration: sweep the *generator technology*, not a number.

The paper motivates fast simulation with "development of an automated
design approach by which the best topology and optimal parameters of
energy harvester are obtained iteratively using multiple simulations".
With the declarative spec layer the sweep grid can carry a **topology
axis**: the ``generator`` axis values below are whole
:class:`~repro.core.spec.BlockSpec` objects (electromagnetic /
piezoelectric / electrostatic, each tuned to the ambient frequency), so
every grid point is a different *circuit*, not just a different
coefficient.  Every candidate builds its own circuit; the sweep engine
groups the candidates by the spec's structural hash into one lane block
per distinct topology.

Documented result (full grid: 9 candidates, 0.25 s each, 70 Hz ambient):
the **electromagnetic** paper device wins at the highest excitation
amplitude (~27 uW average over the startup window), the piezoelectric
cantilever is a close second (~16 uW), and the electrostatic harvester
saturates around 0.6 uW regardless of amplitude (its bias-replenishment
path, not the mechanics, limits the throughput) — a plausible ranking for
centimetre-scale devices and the reason the paper's case study is
electromagnetic.

Run with::

    python examples/topology_exploration.py            # full grid
    python examples/topology_exploration.py --smoke    # CI smoke grid
"""

import argparse

from repro import RunOptions, Study, generator_variants
from repro.analysis import average_power_metric, format_sweep_value
from repro.harvester.topologies import piezoelectric_scenario

AMBIENT_HZ = 70.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI grid (3 candidates, 0.05 s each) on a single worker",
    )
    args = parser.parse_args()

    variants = generator_variants(AMBIENT_HZ)
    duration_s = 0.05 if args.smoke else 0.25
    amplitudes = [0.59] if args.smoke else [0.25, 0.59, 1.0]

    base = piezoelectric_scenario(
        duration_s=duration_s, excitation_frequency_hz=AMBIENT_HZ
    )
    n_workers = 1 if args.smoke else 3
    print(
        f"sweeping {3 * len(amplitudes)} candidates "
        f"(3 topologies x {len(amplitudes)} amplitudes, "
        f"{duration_s:g} s each, {n_workers} worker(s)) ..."
    )
    result = (
        Study.scenario(base)
        .options(RunOptions(n_workers=n_workers))
        .sweep(
            {
                "generator": [
                    variants["electromagnetic"],
                    variants["piezoelectric"],
                    variants["electrostatic"],
                ],
                "excitation_amplitude_ms2": amplitudes,
            },
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        .run()
    )

    print()
    print(result.format())
    best = result.best()
    print(
        "\nwinner: "
        + ", ".join(
            f"{k}={format_sweep_value(v)}" for k, v in best.parameters.items()
        )
        + f"  ({best.score * 1e6:.3f} uW average)"
    )
    assert best.score > 0.0


if __name__ == "__main__":
    main()
