"""The paper's evaluation scenarios (Section IV) as reusable definitions.

* **Scenario 1** — narrow tuning range: the ambient frequency steps by
  1 Hz (70 -> 71 Hz); the harvester wakes, detects the mismatch and
  re-tunes.  Reproduces Fig. 8(a), Fig. 8(b) and the first row of Table II.
* **Scenario 2** — wide tuning range: a 14 Hz shift exercising the
  design's maximum tuning range.  Reproduces Fig. 9 and the second row of
  Table II.
* **Charging** — the supercapacitor-charging experiment used for the
  CPU-time comparison of Table I (open loop, no controller).

Timings are expressed in *scaled* simulated seconds: the physical device
sleeps for minutes and charges for hours, which no pure-Python engine (and
certainly not the Newton-Raphson baseline) can cover in a test suite.  The
scaling shortens the watchdog period and actuator travel but leaves the
per-cycle electrical/mechanical dynamics untouched, so the waveform shapes
and the relative solver costs are preserved.  ``paper_timescale=True``
restores the publication-scale timings for users with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..blocks.microcontroller import ControllerSettings
from ..blocks.vibration import FrequencyStep, VibrationSource
from ..core.errors import StabilityError
from ..core.integrators import ExplicitIntegrator
from ..core.results import SimulationResult
from ..core.serialise import register_serialisable
from ..core.solver import SolverSettings
from .config import HarvesterConfig, TuningMechanismConfig, paper_harvester
from .system import TunableEnergyHarvester, default_solver_settings

__all__ = [
    "Scenario",
    "scenario_1",
    "scenario_2",
    "charging_scenario",
    "scenario_solver_settings",
    "proposed_settings",
    "attach_run_metadata",
]


@dataclass
class Scenario:
    """A reproducible simulation scenario.

    Attributes
    ----------
    name, description:
        Identification used in reports.
    config:
        Harvester configuration (storage pre-charge, controller timings...).
    duration_s:
        Simulated duration.
    frequency_steps:
        Ambient-frequency schedule applied on top of the configured
        excitation.
    with_controller:
        Whether the digital tuning controller is active.
    paper_reference:
        Which paper artefact the scenario reproduces.
    """

    name: str
    description: str
    config: HarvesterConfig
    duration_s: float
    frequency_steps: Sequence[FrequencyStep] = field(default_factory=tuple)
    with_controller: bool = True
    paper_reference: str = ""

    def build_source(self) -> VibrationSource:
        """Fresh vibration source with this scenario's frequency schedule."""
        return VibrationSource(
            frequency_hz=self.config.excitation.frequency_hz,
            amplitude_ms2=self.config.excitation.amplitude_ms2,
            steps=list(self.frequency_steps),
        )

    def build_harvester(self) -> TunableEnergyHarvester:
        """Fresh harvester instance (one per simulation run)."""
        return TunableEnergyHarvester(
            config=self.config,
            vibration_source=self.build_source(),
            with_controller=self.with_controller,
        )

    def scaled(self, duration_s: float) -> "Scenario":
        """Copy of the scenario with a different simulated duration."""
        return replace(self, duration_s=duration_s)

    def topology_key(self) -> tuple:
        """Cheap topology fingerprint (the lane-grouping key).

        Deliberately coarse: two config-backed scenarios that share this
        key but not their netlist topology land in one batched lane block,
        whose :class:`~repro.core.elimination.BatchedAssembler` refuses
        them with a topology :class:`~repro.core.errors.ConfigurationError`
        (never mis-indexing).  Spec-backed scenarios
        (:class:`repro.harvester.topologies.SpecScenario`) return their
        spec's structural topology hash instead.
        """
        return (
            type(self.config).__name__,
            getattr(self.config, "multiplier_stages", None),
            self.with_controller,
        )

    # ------------------------------------------------------------------ #
    # canonical serialisation (the declarative-experiment form)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict form (lossless JSON/TOML round-trip).

        The ``type`` tag lets :func:`repro.api.experiment.scenario_from_dict`
        dispatch between config-backed and spec-backed scenarios.
        """
        from ..core.serialise import encode_value

        return {
            "type": "scenario",
            "name": self.name,
            "description": self.description,
            "config": self.config.to_dict(),
            "duration_s": self.duration_s,
            "frequency_steps": [
                encode_value(step) for step in self.frequency_steps
            ],
            "with_controller": self.with_controller,
            "paper_reference": self.paper_reference,
        }

    @classmethod
    def from_dict(cls, data) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (unknown keys rejected)."""
        from ..core.errors import ConfigurationError
        from ..core.serialise import decode_value

        valid = (
            "type",
            "name",
            "description",
            "config",
            "duration_s",
            "frequency_steps",
            "with_controller",
            "paper_reference",
        )
        unknown = set(data) - set(valid)
        if unknown:
            raise ConfigurationError(
                f"scenario dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(valid)}"
            )
        if data.get("type", "scenario") != "scenario":
            raise ConfigurationError(
                f"scenario dict has type {data.get('type')!r}; expected "
                "'scenario' (spec-backed scenarios use 'spec_scenario')"
            )
        for required in ("name", "config", "duration_s"):
            if required not in data:
                raise ConfigurationError(
                    f"scenario dict is missing required field {required!r}"
                )
        steps = tuple(decode_value(s) for s in data.get("frequency_steps", ()))
        for step in steps:
            if not isinstance(step, FrequencyStep):
                raise ConfigurationError(
                    f"scenario dict frequency_steps entry decodes to "
                    f"{type(step).__name__}; expected FrequencyStep"
                )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            config=HarvesterConfig.from_dict(data["config"]),
            duration_s=float(data["duration_s"]),
            frequency_steps=steps,
            with_controller=bool(data.get("with_controller", True)),
            paper_reference=str(data.get("paper_reference", "")),
        )


# the excitation schedule participates in the shared codec so that
# Scenario.to_dict round-trips scheduled frequency steps losslessly
register_serialisable(FrequencyStep)


def _scaled_controller(paper_timescale: bool) -> ControllerSettings:
    """Controller timings: scaled (default) or publication-scale."""
    if paper_timescale:
        return ControllerSettings(
            watchdog_period_s=60.0,
            wake_voltage_v=3.0,
            abort_voltage_v=1.0,
            frequency_tolerance_hz=0.25,
            measurement_duration_s=2.0,
            tuning_poll_interval_s=1.0,
        )
    return ControllerSettings(
        watchdog_period_s=1.0,
        wake_voltage_v=3.0,
        abort_voltage_v=1.0,
        frequency_tolerance_hz=0.25,
        measurement_duration_s=0.2,
        tuning_poll_interval_s=0.1,
    )


def _scaled_tuning(paper_timescale: bool) -> TuningMechanismConfig:
    """Actuator speed: scaled so a retune completes within the scenario."""
    speed = 2.0e-3 if paper_timescale else 20.0e-3
    return TuningMechanismConfig(actuator_speed_m_per_s=speed)


def scenario_1(
    duration_s: float = 4.0,
    shift_time_s: float = 0.5,
    *,
    paper_timescale: bool = False,
) -> Scenario:
    """Narrow tuning range: 70 -> 71 Hz shift (Fig. 8, Table II row 1)."""
    config = paper_harvester()
    config = replace(
        config,
        controller=_scaled_controller(paper_timescale),
        tuning=_scaled_tuning(paper_timescale),
        initial_tuned_frequency_hz=70.0,
        initial_storage_voltage_v=3.5,
    )
    config = config.with_excitation(70.0)
    if paper_timescale:
        duration_s = max(duration_s, 300.0)
        shift_time_s = 30.0
    return Scenario(
        name="scenario_1",
        description="1 Hz tuning: ambient frequency shifts from 70 Hz to 71 Hz",
        config=config,
        duration_s=duration_s,
        frequency_steps=(FrequencyStep(time=shift_time_s, frequency_hz=71.0),),
        with_controller=True,
        paper_reference="Fig. 8(a), Fig. 8(b), Table II (Scenario 1)",
    )


def scenario_2(
    duration_s: float = 5.0,
    shift_time_s: float = 0.5,
    *,
    paper_timescale: bool = False,
) -> Scenario:
    """Wide tuning range: 14 Hz shift (Fig. 9, Table II row 2)."""
    config = paper_harvester()
    config = replace(
        config,
        controller=_scaled_controller(paper_timescale),
        tuning=_scaled_tuning(paper_timescale),
        initial_tuned_frequency_hz=64.0,
        initial_storage_voltage_v=3.5,
    )
    config = config.with_excitation(64.0)
    if paper_timescale:
        duration_s = max(duration_s, 600.0)
        shift_time_s = 30.0
    return Scenario(
        name="scenario_2",
        description=(
            "14 Hz tuning: ambient frequency shifts from 64 Hz to 78 Hz, the "
            "maximum tuning range of the design"
        ),
        config=config,
        duration_s=duration_s,
        frequency_steps=(FrequencyStep(time=shift_time_s, frequency_hz=78.0),),
        with_controller=True,
        paper_reference="Fig. 9, Table II (Scenario 2)",
    )


def charging_scenario(
    duration_s: float = 2.0,
    *,
    frequency_hz: float = 70.0,
    paper_timescale: bool = False,
) -> Scenario:
    """Supercapacitor charging from empty at resonance (Table I workload)."""
    config = paper_harvester()
    config = replace(
        config,
        initial_storage_voltage_v=0.0,
        initial_tuned_frequency_hz=frequency_hz,
    )
    config = config.with_excitation(frequency_hz)
    if paper_timescale:
        duration_s = max(duration_s, 3600.0)
    return Scenario(
        name="charging",
        description="supercapacitor charging curve of the tuned harvester",
        config=config,
        duration_s=duration_s,
        frequency_steps=(),
        with_controller=False,
        paper_reference="Table I",
    )


# ---------------------------------------------------------------------- #
# runners
# ---------------------------------------------------------------------- #
def scenario_solver_settings(scenario: Scenario) -> SolverSettings:
    """Default fast-solver settings for a scenario.

    The step limit resolves the highest excitation frequency the scenario
    ever reaches (including scheduled frequency steps).  This is the
    default a proposed-solver run applies when no settings are given; it
    is exposed so sweep engines can reproduce the per-candidate default
    and then layer solver-profile overrides on top.
    """
    own = getattr(scenario, "solver_settings", None)
    if callable(own):  # spec-backed scenarios derive settings from the spec
        return own()
    max_frequency = max(
        [scenario.config.excitation.frequency_hz]
        + [step.frequency_hz for step in scenario.frequency_steps]
    )
    return default_solver_settings(max_frequency)


def proposed_settings(
    scenario: Scenario,
    settings: Optional[SolverSettings] = None,
    relinearise_interval: Optional[int] = None,
) -> SolverSettings:
    """The settings a proposed-solver run of ``scenario`` uses.

    ``settings`` (or the scenario's defaults) with a given
    ``relinearise_interval`` hold budget applied on top.  The one place
    the held-model profile reaches a run: single runs and every sweep
    candidate resolve their settings here.
    """
    if settings is None:
        settings = scenario_solver_settings(scenario)
    if relinearise_interval is not None:
        settings = replace(settings, relinearise_interval=int(relinearise_interval))
    return settings


def attach_run_metadata(
    result: SimulationResult, scenario, harvester
) -> SimulationResult:
    """Scenario name + controller bookkeeping (when the controller keeps any).

    Public because every runner — including the sweep engine's lane
    blocks, which drive solvers directly — stamps results through it.
    """
    result.metadata["scenario"] = scenario.name
    controller = getattr(harvester, "controller", None)
    if controller is not None:
        event_log = getattr(controller, "event_log", None)
        if event_log is not None:
            result.metadata["controller_events"] = list(event_log)
        n_completed = getattr(controller, "n_tunings_completed", None)
        if n_completed is not None:
            result.metadata["n_tunings_completed"] = n_completed
    return result


def _simulate_proposed(
    scenario: Scenario,
    integrator: Optional[ExplicitIntegrator] = None,
    settings: Optional[SolverSettings] = None,
) -> SimulationResult:
    """Execution primitive: one scenario on the proposed solver.

    Canonical implementation behind the :mod:`repro.api` planner and the
    sweep engine's scalar path.  A held-model run (``relinearise_interval``
    above 1) that trips the stability guard re-runs with the exact
    every-step profile and records ``metadata["exact_rerun"] = True``.
    """
    if settings is None:
        settings = scenario_solver_settings(scenario)
    try:
        return _simulate_proposed_once(scenario, integrator, settings)
    except StabilityError:
        if int(settings.relinearise_interval) <= 1:
            raise
    # the held linearisation destabilised this run: fall back to the
    # exact every-step profile
    result = _simulate_proposed_once(
        scenario, integrator, replace(settings, relinearise_interval=1)
    )
    result.metadata["exact_rerun"] = True
    return result


def _simulate_proposed_once(
    scenario: Scenario,
    integrator: Optional[ExplicitIntegrator],
    settings: SolverSettings,
) -> SimulationResult:
    harvester = scenario.build_harvester()
    solver = harvester.build_solver(integrator=integrator, settings=settings)
    result = solver.run(scenario.duration_s)
    return attach_run_metadata(result, scenario, harvester)


def _simulate_baseline(scenario: Scenario, **solver_kwargs) -> SimulationResult:
    """Execution primitive: one scenario on the Newton-Raphson baseline."""
    harvester = scenario.build_harvester()
    solver = harvester.build_baseline_solver(**solver_kwargs)
    result = solver.run(scenario.duration_s)
    return attach_run_metadata(result, scenario, harvester)


def _simulate_reference(scenario: Scenario, settings=None) -> SimulationResult:
    """Execution primitive: one scenario on the scipy reference solver."""
    from ..baselines.reference import ReferenceSolver

    harvester = scenario.build_harvester()
    kernel = harvester._build_kernel()
    solver = ReferenceSolver(
        assembler=harvester.assembler, settings=settings, digital_kernel=kernel
    )
    harvester._wire(solver)
    result = solver.run(scenario.duration_s)
    return attach_run_metadata(result, scenario, harvester)
