"""Ablations: lookup-table granularity and the stiffness limitation.

Two claims from Section II/III of the paper:

1. "To maintain high modelling accuracy the granularity of the piece-wise
   linear models can be arbitrarily fine since the size of the look-up
   tables does not affect the simulation speed."  — the first benchmark
   sweeps the diode-table size and shows the CPU time stays flat while the
   table's approximation error falls.

2. "The technique is unlikely to offer a speed advantage when applied to
   strongly stiff systems as the step-size must be kept small to ensure
   stability even if the accuracy control permits larger steps." — the
   second benchmark stiffens the model (smaller diode series resistance,
   i.e. a faster electrical time constant) and shows the step collapsing
   and the CPU cost per simulated second growing.
"""

import dataclasses

import numpy as np
import pytest

from repro.blocks.diode import DiodeParameters, ShockleyDiode, build_diode_companion_table
from repro.harvester.config import paper_harvester
from repro import Study
from repro.harvester.scenarios import charging_scenario
from repro.io.report import format_table

_pwl_rows = {}
_stiff_rows = {}

TABLE_SIZES = [32, 128, 1024]
SERIES_RESISTANCES = {"nominal_3300ohm": 3300.0, "stiffer_330ohm": 330.0}
PWL_DURATION_S = 0.25
STIFF_DURATION_S = 0.08


def _table_error(n_points):
    params = paper_harvester().diode
    table = build_diode_companion_table(params, n_points=n_points)
    diode = ShockleyDiode(params)
    probes = np.linspace(-2.0, 1.0, 301)
    errors = [abs(table.branch_current(float(v)) - diode.current(float(v))) for v in probes]
    return max(errors)


@pytest.mark.parametrize("n_points", TABLE_SIZES)
def test_pwl_table_granularity(benchmark, n_points):
    scenario = charging_scenario(duration_s=PWL_DURATION_S)
    config = scenario.config

    def run():
        harvester = scenario.build_harvester()
        harvester.block("multiplier").companion_table = build_diode_companion_table(
            config.diode, n_points=n_points
        )
        solver = harvester.build_solver()
        return solver.run(scenario.duration_s)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _pwl_rows[n_points] = [
        str(n_points),
        f"{_table_error(n_points):.2e}",
        str(result.stats.n_accepted_steps),
        f"{result.stats.cpu_time_s:.2f}",
    ]
    assert result.stats.n_accepted_steps > 0


@pytest.mark.parametrize("label", list(SERIES_RESISTANCES))
def test_stiffness_limitation(benchmark, label):
    resistance = SERIES_RESISTANCES[label]
    base = charging_scenario(duration_s=STIFF_DURATION_S)
    config = dataclasses.replace(
        base.config, diode=DiodeParameters(series_resistance_ohm=resistance)
    )
    scenario = dataclasses.replace(base, config=config)
    result = benchmark.pedantic(
        lambda: Study.scenario(scenario).run().result, rounds=1, iterations=1
    )
    _stiff_rows[label] = [
        label,
        f"{resistance:.0f}",
        f"{result.stats.max_step * 1e6:.1f}",
        str(result.stats.n_accepted_steps),
        f"{result.stats.cpu_time_s / result.stats.final_time:.2f}",
    ]
    assert result.stats.n_accepted_steps > 0


def test_zz_report_ablations(benchmark, report_writer):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_pwl_rows) == len(TABLE_SIZES)
    assert len(_stiff_rows) == len(SERIES_RESISTANCES)

    pwl_text = format_table(
        ["table breakpoints", "max diode-model error [A]", "accepted steps", "CPU [s]"],
        [_pwl_rows[n] for n in TABLE_SIZES],
        title="Ablation — PWL table granularity (accuracy improves, speed unchanged)",
    )
    stiff_text = format_table(
        ["configuration", "diode Rs [ohm]", "max step [us]", "accepted steps", "CPU per simulated second [s]"],
        [_stiff_rows[label] for label in SERIES_RESISTANCES],
        title="Ablation — stiffness limitation (faster electrical time constant shrinks the step)",
    )
    report_writer("ablation_pwl_and_stiffness", pwl_text + "\n\n" + stiff_text)

    # claim 1: CPU time roughly flat (within 2x) across a 32x table-size range
    cpu_times = [float(_pwl_rows[n][3]) for n in TABLE_SIZES]
    assert max(cpu_times) < 2.0 * min(cpu_times) + 0.5
    # claim 1: accuracy improves with granularity
    errors = [float(_pwl_rows[n][1]) for n in TABLE_SIZES]
    assert errors[-1] <= errors[0]
    # claim 2: the stiffer configuration needs more steps per simulated second
    nominal_steps = int(_stiff_rows["nominal_3300ohm"][3])
    stiff_steps = int(_stiff_rows["stiffer_330ohm"][3])
    assert stiff_steps > 1.5 * nominal_steps
