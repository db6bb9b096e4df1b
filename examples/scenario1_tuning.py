"""Scenario 1 of the paper: 1 Hz tuning (70 Hz -> 71 Hz).

Reproduces the closed-loop behaviour behind Fig. 8(a)/8(b): the ambient
vibration frequency shifts by 1 Hz, the microcontroller wakes on its
watchdog timer, detects the mismatch, drives the actuator and re-tunes the
microgenerator.  The script prints the controller's event log, the RMS
generator power before and after the retune (the paper reports 118 uW /
117 uW against a measured 116 uW) and exports the waveforms to CSV for
plotting.

Run with::

    python examples/scenario1_tuning.py
    python examples/scenario1_tuning.py --smoke   # CI: 2 s window, one retune, no CSV
"""

import argparse
from pathlib import Path

from repro import Study, scenario_1
from repro.analysis import power_before_after
from repro.io import format_key_values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short CI run (2 s simulated, no CSV)"
    )
    args = parser.parse_args()

    if args.smoke:
        # the shift at 0.3 s is caught by the 1.2 s wake-up: one retune
        scenario, settle_s = scenario_1(duration_s=2.0, shift_time_s=0.3), 1.2
    else:
        scenario, settle_s = scenario_1(duration_s=4.0, shift_time_s=0.5), 2.0
    shift_time_s = scenario.frequency_steps[0].time
    print(f"scenario: {scenario.description}")
    run = Study.scenario(scenario).run()

    print()
    print("microcontroller event log (Fig. 7 behaviour):")
    for event_time, message in run.metadata.get("controller_events", []):
        print(f"  t={event_time:7.3f} s  {message}")

    # RMS generator power before the frequency shift and after the retune
    before, after = power_before_after(
        run["generator_power"],
        event_time=shift_time_s,
        window_s=0.3,
        settle_s=settle_s,
    )
    summary = {
        "tunings completed": run.metadata.get("n_tunings_completed", 0),
        "resonant frequency at end [Hz]": f"{run['resonant_frequency'].final():.2f}",
        "RMS power tuned at 70 Hz [uW]": f"{before * 1e6:.1f}",
        "RMS power tuned at 71 Hz [uW]": f"{after * 1e6:.1f}",
        "supercapacitor voltage at end [V]": f"{run['storage_voltage'].final():.3f}",
        "CPU time [s]": f"{run.stats.cpu_time_s:.2f}",
    }
    print()
    print(format_key_values(summary, title="Scenario 1 summary (compare with Fig. 8)"))

    if args.smoke:
        assert run.metadata.get("n_tunings_completed", 0) >= 1, "no retune completed"
        assert abs(run["resonant_frequency"].final() - 71.0) < 0.25, "not retuned to 71 Hz"
        gap = run["actuator_gap"]
        assert gap.final() != gap.values[0], "the actuator never moved"
        return

    output = Path(__file__).resolve().parent / "scenario1_traces.csv"
    run.export_csv(
        output,
        trace_names=[
            "generator_power",
            "storage_voltage",
            "resonant_frequency",
            "ambient_frequency",
            "load_resistance",
        ],
        n_samples=4000,
    )
    print(f"\nwaveforms written to {output}")


if __name__ == "__main__":
    main()
