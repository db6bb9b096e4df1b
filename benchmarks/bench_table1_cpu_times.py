"""Table I: CPU times of different simulation environments.

The paper simulates a supercapacitor-charging run of the harvester with
three conventional tools (SystemVision/VHDL-AMS 4 h 24 min, OrCAD/PSPICE
9 h 48 min, SystemC-A 6 h 40 min on a Pentium 4).  This benchmark runs the
same workload on the in-repo stand-ins:

* ``vhdl_ams_like``  — implicit trapezoidal + Newton-Raphson on the block
  model with finite-difference Jacobians (SystemVision stand-in);
* ``pspice_like``    — the MNA equivalent-circuit engine (PSPICE stand-in);
* ``systemc_a_like`` — implicit backward-Euler + Newton-Raphson
  (conventionally-solved SystemC-A stand-in);
* ``proposed``       — the linearised state-space technique.

Absolute durations are scaled (short simulated windows, see EXPERIMENTS.md);
the reproduced quantity is the *ratio* of CPU cost per simulated second,
i.e. which simulator wins and by roughly what factor.
"""


from repro.analysis.speedup import SpeedupTable, TimingEntry
from repro.baselines.implicit_solver import ImplicitSolverSettings
from repro.baselines.mna import TransientSettings
from repro.baselines.spice import SpiceLikeHarvesterSimulator
from repro.core.integrators import BackwardEuler, Trapezoidal
from repro import Study
from repro.harvester.scenarios import charging_scenario

#: simulated durations per engine — the slow baselines get shorter windows;
#: all costs are normalised per simulated second before comparison
PROPOSED_DURATION_S = 0.5
BASELINE_DURATION_S = 0.04
SPICE_DURATION_S = 0.04
#: a circuit simulator's local-truncation-error control resolves the diode
#: commutation of the charge pump with steps of a few tens of microseconds;
#: the MNA stand-in uses that step because it has no LTE control of its own
SPICE_STEP_S = 2e-5

_table = SpeedupTable(
    title="Table I — CPU cost of the supercapacitor-charging simulation",
    reference_label="proposed",
)


def test_proposed_linearised_state_space(benchmark, report_writer):
    scenario = charging_scenario(duration_s=PROPOSED_DURATION_S)
    result = benchmark.pedantic(
        lambda: Study.scenario(scenario).run().result, rounds=1, iterations=1
    )
    _table.add(
        TimingEntry.from_result("proposed", result, notes="linearised state-space + AB3")
    )
    assert result.stats.n_accepted_steps > 0


def test_vhdl_ams_like_baseline(benchmark, report_writer):
    scenario = charging_scenario(duration_s=BASELINE_DURATION_S)
    result = benchmark.pedantic(
        lambda: Study.scenario(scenario)
        .solver(
            "baseline",
            formula=Trapezoidal,
            settings=ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3),
        )
        .run()
        .result,
        rounds=1,
        iterations=1,
    )
    _table.add(
        TimingEntry.from_result(
            "vhdl_ams_like", result, notes="trapezoidal + NR, FD Jacobians"
        )
    )
    assert result.stats.n_newton_iterations > 0


def test_systemc_a_like_baseline(benchmark, report_writer):
    scenario = charging_scenario(duration_s=BASELINE_DURATION_S)
    result = benchmark.pedantic(
        lambda: Study.scenario(scenario)
        .solver(
            "baseline",
            formula=BackwardEuler,
            settings=ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3),
        )
        .run()
        .result,
        rounds=1,
        iterations=1,
    )
    _table.add(
        TimingEntry.from_result(
            "systemc_a_like", result, notes="backward Euler + NR, FD Jacobians"
        )
    )
    assert result.stats.n_newton_iterations > 0


def test_pspice_like_baseline(benchmark, report_writer):
    # the same charging run as the other columns (from 0 V, not the
    # paper harvester's 3.5 V default)
    simulator = SpiceLikeHarvesterSimulator(
        config=charging_scenario(duration_s=SPICE_DURATION_S).config,
        settings=TransientSettings(step_size=SPICE_STEP_S, record_interval=1e-3),
        tuned_frequency_hz=70.0,
    )
    result = benchmark.pedantic(lambda: simulator.run(SPICE_DURATION_S), rounds=1, iterations=1)
    _table.add(
        TimingEntry.from_result(
            "pspice_like", result, notes="MNA equivalent circuit + NR"
        )
    )
    assert result.stats.n_newton_iterations > 0
    # charging from 0 V (the paper harvester's default would hold ~3.5 V)
    assert result["storage_voltage"].final() < 1.0


def test_zz_report_table1(benchmark, report_writer):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Aggregate the rows collected above into the Table I reproduction."""
    assert len(_table.entries) == 4
    lines = [_table.format(), "", "paper reference (absolute, 2005-era workstation):"]
    lines.append("  SystemVision (VHDL-AMS): 4 h 24 min")
    lines.append("  OrCAD (PSPICE):          9 h 48 min")
    lines.append("  Visual C++ (SystemC-A):  6 h 40 min")
    report_writer("table1_cpu_times", "\n".join(lines))
    # reproduction of the shape: the HDL-style Newton-Raphson engines are at
    # least an order of magnitude more expensive per simulated second; the
    # lean in-repo MNA engine underestimates OrCAD's true cost (no device
    # model overhead, no interpreter) so only a weaker margin is required of
    # it — see EXPERIMENTS.md for the discussion
    speedups = _table.speedups()
    assert speedups["vhdl_ams_like"] > 5.0
    assert speedups["systemc_a_like"] > 5.0
    assert speedups["pspice_like"] > 1.5
