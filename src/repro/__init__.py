"""repro — linearised state-space simulation of tunable vibration energy
harvesting systems.

Reproduction of: Wang, Kazmierski, Al-Hashimi, Weddell, Merrett and Ayala
Garcia, "Accelerated simulation of tunable vibration energy harvesting
systems using a linearised state-space technique", DATE 2011.

The package is organised as:

* :mod:`repro.api` — the public entry layer: :class:`Study` /
  :class:`RunOptions` and the execution planner every run, comparison
  and sweep dispatches through;
* :mod:`repro.core` — the fast simulation engine (block framework,
  linearisation, terminal-variable elimination, explicit integrators,
  stability/step control, digital kernel, batched lane-parallel solver);
* :mod:`repro.blocks` — physical component models (microgenerator,
  Dickson multiplier, supercapacitor, microcontroller, actuator ...);
* :mod:`repro.harvester` — the assembled complete system and the paper's
  evaluation scenarios;
* :mod:`repro.baselines` — the conventional solvers the paper compares
  against (Newton-Raphson implicit, SPICE-like MNA, scipy reference);
* :mod:`repro.analysis` — power/energy metrics, frequency detection,
  waveform comparison, CPU-time tables, design sweeps + the sweep engine;
* :mod:`repro.io` — CSV export, spec files, reports.

Quick start::

    from repro import Study, RunOptions, scenario_1, charging_scenario

    # one run of the paper's Scenario 1 (1 Hz re-tune, Fig. 8)
    run = Study.scenario(scenario_1(duration_s=2.0)).run()
    print(run["storage_voltage"].final())
    print(run.summary())

    # a design grid, marched as lanes of at most 16 candidates
    result = (
        Study.scenario(charging_scenario(duration_s=0.2))
        .options(RunOptions(lane_width=16))
        .sweep({"excitation_frequency_hz": [66.0, 70.0, 74.0]})
        .run()
    )
    print(result.format())

:class:`Study` is the only way in: single runs, comparisons and sweeps
all dispatch through its planner, and every execution knob is declared
and validated once, in :class:`RunOptions`.
"""

from .core import (
    BLOCK_REGISTRY,
    AdamsBashforth,
    AnalogueBlock,
    BlockSpec,
    ConnectionSpec,
    ControllerSpec,
    ForwardEuler,
    LinearisedStateSpaceSolver,
    Netlist,
    RungeKutta2,
    RungeKutta4,
    SimulationResult,
    SingularLaneError,
    SolverSettings,
    SystemAssembler,
    SystemBuilder,
    SystemSpec,
    Trace,
    make_integrator,
)
from .analysis import (
    EngineRunInfo,
    ParameterSweep,
    SweepEngine,
    SweepPoint,
    SweepResult,
    sweep_excitation_frequency,
)
from .harvester import (
    HarvesterConfig,
    Scenario,
    SpecScenario,
    charging_scenario,
    default_solver_settings,
    electrostatic_scenario,
    electrostatic_spec,
    generator_variants,
    paper_harvester,
    paper_spec,
    paper_system,
    piezoelectric_scenario,
    piezoelectric_spec,
    scenario_1,
    scenario_2,
)
from .api import (
    ComparisonResult,
    ExperimentSpec,
    ExplorationResult,
    RunHandle,
    RunOptions,
    Study,
    StudyResult,
)
from .cache import ResultStore
from .io import load_experiment, save_experiment

__version__ = "1.1.0"

__all__ = [
    # public API facade (the canonical entry layer)
    "Study",
    "RunOptions",
    "RunHandle",
    "StudyResult",
    "ExplorationResult",
    "ComparisonResult",
    # declarative experiments + result cache
    "ExperimentSpec",
    "ResultStore",
    "load_experiment",
    "save_experiment",
    # core engine
    "BLOCK_REGISTRY",
    "AdamsBashforth",
    "AnalogueBlock",
    "BlockSpec",
    "ConnectionSpec",
    "ControllerSpec",
    "ForwardEuler",
    "LinearisedStateSpaceSolver",
    "Netlist",
    "RungeKutta2",
    "RungeKutta4",
    "SimulationResult",
    "SingularLaneError",
    "SolverSettings",
    "SystemAssembler",
    "SystemBuilder",
    "SystemSpec",
    "Trace",
    "make_integrator",
    # analysis / sweeps
    "EngineRunInfo",
    "ParameterSweep",
    "SweepEngine",
    "SweepPoint",
    "SweepResult",
    "sweep_excitation_frequency",
    # harvester system + scenarios
    "HarvesterConfig",
    "Scenario",
    "SpecScenario",
    "charging_scenario",
    "default_solver_settings",
    "electrostatic_scenario",
    "electrostatic_spec",
    "generator_variants",
    "paper_harvester",
    "paper_spec",
    "paper_system",
    "piezoelectric_scenario",
    "piezoelectric_spec",
    "scenario_1",
    "scenario_2",
    "__version__",
]
