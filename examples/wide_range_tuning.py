"""Scenario 2 of the paper: wide-range tuning (14 Hz shift).

The ambient frequency jumps from 64 Hz (the un-tuned resonance) to 78 Hz —
the maximum tuning range of the practical design.  The actuator has to
travel most of its range, so the tuning phase is long and the supercapacitor
dip is much deeper than in Scenario 1 (the behaviour behind Fig. 9).

Run with::

    python examples/wide_range_tuning.py
    python examples/wide_range_tuning.py --smoke   # CI: 3 s window, one retune, no CSV
"""

import argparse
from pathlib import Path

import numpy as np

from repro import Study, scenario_2
from repro.io import format_key_values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short CI run (3 s simulated, no CSV)"
    )
    args = parser.parse_args()

    # in --smoke mode the 64 -> 78 Hz retune still completes, just before 3 s
    if args.smoke:
        scenario = scenario_2(duration_s=3.0, shift_time_s=0.3)
    else:
        scenario = scenario_2(duration_s=5.0, shift_time_s=0.5)
    print(f"scenario: {scenario.description}")
    run = Study.scenario(scenario).run()

    storage = run["storage_voltage"]
    dip = float(storage.values[0] - np.min(storage.values))
    summary = {
        "tunings completed": run.metadata.get("n_tunings_completed", 0),
        "resonant frequency at end [Hz]": f"{run['resonant_frequency'].final():.2f}",
        "initial storage voltage [V]": f"{storage.values[0]:.3f}",
        "deepest storage dip [V]": f"{dip:.3f}",
        "final storage voltage [V]": f"{storage.final():.3f}",
        "actuator gap at end [mm]": f"{run['actuator_gap'].final() * 1e3:.2f}",
        "CPU time [s]": f"{run.stats.cpu_time_s:.2f}",
    }
    print(format_key_values(summary, title="Scenario 2 summary (compare with Fig. 9)"))

    print()
    print("controller activity:")
    for event_time, message in run.metadata.get("controller_events", []):
        print(f"  t={event_time:7.3f} s  {message}")

    if args.smoke:
        assert run.metadata.get("n_tunings_completed", 0) >= 1, "no retune completed"
        assert abs(run["resonant_frequency"].final() - 78.0) < 0.25, "not retuned to 78 Hz"
        gap = run["actuator_gap"]
        assert gap.final() < gap.values[0], "the actuator gap did not close"
        return

    output = Path(__file__).resolve().parent / "scenario2_traces.csv"
    run.export_csv(
        output,
        trace_names=["storage_voltage", "generator_power", "resonant_frequency"],
        n_samples=4000,
    )
    print(f"\nwaveforms written to {output}")


if __name__ == "__main__":
    main()
