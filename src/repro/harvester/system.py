"""Assembly of the complete mixed-technology tunable energy harvester.

This module realises Fig. 1 / Fig. 3 of the paper in code — but the wiring
itself now lives in the declarative system-description layer:
:func:`paper_spec` produces the :class:`~repro.core.spec.SystemSpec` of the
paper's case-study topology (electromagnetic microgenerator, Dickson
voltage multiplier, supercapacitor + equivalent load, digital tuning
controller), and :class:`~repro.core.builder.SystemBuilder` compiles it
into the netlist, the :class:`~repro.core.elimination.SystemAssembler`
(the global state model of Section III-E — 12 states here: the paper's 11
plus the multiplier's input-filter node, see DESIGN.md) and the attached
digital kernel.  :class:`TunableEnergyHarvester` remains the convenience
wrapper with the historical public API.

A :class:`TunableEnergyHarvester` instance owns mutable component state
(tuning force, actuator position, controller bookkeeping), so a fresh
instance should be created for every simulation run — the scenario helpers
in :mod:`repro.harvester.scenarios` do exactly that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blocks.actuator import LinearActuator
from ..blocks.microcontroller import TuningController
from ..blocks.tuning import MagneticTuningModel
from ..blocks.vibration import VibrationSource
from ..core.builder import BuildContext, SystemBuilder, solver_settings_for_frequency
from ..core.digital import DigitalEventKernel
from ..core.errors import ConfigurationError
from ..core.integrators import ExplicitIntegrator
from ..core.probes import ColumnProbe, ModelProbe
from ..core.solver import LinearisedStateSpaceSolver, SolverSettings
from ..core.spec import (
    BlockSpec,
    ConnectionSpec,
    ControllerSpec,
    ExcitationSpec,
    InterfaceControlSpec,
    InterfaceProbeSpec,
    ProbeSpec,
    SystemSpec,
)
from .config import HarvesterConfig, paper_harvester

__all__ = ["TunableEnergyHarvester", "default_solver_settings", "paper_spec"]


#: Solver settings whose step limit resolves the vibration waveform: the
#: harvester layer's name for
#: :func:`repro.core.builder.solver_settings_for_frequency`
default_solver_settings = solver_settings_for_frequency


def _tuning_model_from_config(cfg: HarvesterConfig) -> MagneticTuningModel:
    """The magnetic tuning model implied by a harvester configuration."""
    return MagneticTuningModel(
        untuned_frequency_hz=cfg.generator.untuned_frequency_hz,
        buckling_load_n=cfg.tuning.buckling_load_n,
        force_constant=cfg.tuning.force_constant,
        exponent=cfg.tuning.force_exponent,
        min_gap_m=cfg.tuning.min_gap_m,
        max_gap_m=cfg.tuning.max_gap_m,
    )


def _initial_tuning(cfg: HarvesterConfig) -> tuple:
    """(tuning force, actuator gap) realising the configured pre-tuning."""
    if cfg.initial_tuned_frequency_hz is None:
        return 0.0, 0.0
    model = _tuning_model_from_config(cfg)
    f_min, f_max = model.frequency_range()
    target = min(max(cfg.initial_tuned_frequency_hz, f_min), f_max)
    return model.force_for_frequency(target), model.gap_for_frequency(target)


def paper_spec(
    config: Optional[HarvesterConfig] = None, *, with_controller: bool = True
) -> SystemSpec:
    """The paper's Fig. 1 / Fig. 3 case-study topology as a declarative spec.

    The returned spec is self-contained: compiling it with a bare
    :class:`~repro.core.builder.SystemBuilder` yields a runnable system
    (including the digital tuning controller when ``with_controller``),
    with the standard probes and the Fig. 7 digital interface declared.
    :class:`TunableEnergyHarvester` compiles exactly this spec.
    """
    cfg = config or paper_harvester()
    gen = cfg.generator
    initial_force, initial_gap = _initial_tuning(cfg)

    blocks = (
        BlockSpec(
            "electromagnetic_generator",
            "generator",
            {
                "proof_mass_kg": gen.proof_mass_kg,
                "parasitic_damping": gen.parasitic_damping,
                "spring_stiffness": gen.spring_stiffness,
                "flux_linkage": gen.flux_linkage,
                "coil_resistance": gen.coil_resistance,
                "coil_inductance": gen.coil_inductance,
                "buckling_load_n": gen.buckling_load_n,
                "tuning_force_z_fraction": gen.tuning_force_z_fraction,
                "initial_tuning_force_n": initial_force,
            },
        ),
        BlockSpec(
            "dickson_multiplier",
            "multiplier",
            {
                "n_stages": cfg.multiplier_stages,
                "stage_capacitance_f": cfg.multiplier_capacitance_f,
                "output_capacitance_f": cfg.multiplier_output_capacitance_f,
                "input_capacitance_f": cfg.multiplier_input_capacitance_f,
                "diode_saturation_current_a": cfg.diode.saturation_current_a,
                "diode_thermal_voltage_v": cfg.diode.thermal_voltage_v,
                "diode_series_resistance_ohm": cfg.diode.series_resistance_ohm,
                "diode_reverse_conductance_s": cfg.diode.reverse_conductance_s,
            },
        ),
        BlockSpec(
            "supercapacitor",
            "storage",
            {
                "immediate_resistance_ohm": cfg.supercapacitor.immediate_resistance_ohm,
                "immediate_capacitance_f": cfg.supercapacitor.immediate_capacitance_f,
                "delayed_resistance_ohm": cfg.supercapacitor.delayed_resistance_ohm,
                "delayed_capacitance_f": cfg.supercapacitor.delayed_capacitance_f,
                "longterm_resistance_ohm": cfg.supercapacitor.longterm_resistance_ohm,
                "longterm_capacitance_f": cfg.supercapacitor.longterm_capacitance_f,
                "leakage_resistance_ohm": cfg.supercapacitor.leakage_resistance_ohm or 0.0,
                "initial_voltage_v": cfg.initial_storage_voltage_v,
                "load_sleep_ohm": cfg.load_profile.sleep_ohm,
                "load_awake_ohm": cfg.load_profile.awake_ohm,
                "load_tuning_ohm": cfg.load_profile.tuning_ohm,
            },
        ),
    )
    connections = (
        ConnectionSpec(
            "generator",
            "multiplier",
            voltage=("Vm", "Vm"),
            current=("Im", "Im"),
            net_prefix="generator_output",
        ),
        ConnectionSpec(
            "multiplier",
            "storage",
            voltage=("Vc", "Vc"),
            current=("Ic", "Ic"),
            net_prefix="storage_port",
        ),
    )
    probes = (
        ProbeSpec("generator_power", "power", "generator", ("Vm", "Im")),
        ProbeSpec("storage_voltage", "terminal", "storage", ("Vc",)),
        ProbeSpec("storage_current", "terminal", "storage", ("Ic",)),
        ProbeSpec("resonant_frequency", "attr", "generator", ("resonant_frequency_hz",)),
        ProbeSpec("ambient_frequency", "source_frequency"),
        ProbeSpec("load_resistance", "attr", "storage", ("load_resistance",)),
    )
    interface_probes = (
        InterfaceProbeSpec("storage_voltage", "state", "storage", "Vi"),
        InterfaceProbeSpec("ambient_frequency", "source_frequency"),
        InterfaceProbeSpec(
            "resonant_frequency", "attr", "generator", "resonant_frequency_hz"
        ),
    )
    interface_controls = (
        InterfaceControlSpec("load_resistance", "storage", "load_resistance"),
        InterfaceControlSpec("tuning_force", "generator", "tuning_force"),
    )
    controller = None
    if with_controller:
        controller = ControllerSpec(
            "tuning_controller",
            "mcu",
            {
                "watchdog_period_s": cfg.controller.watchdog_period_s,
                "wake_voltage_v": cfg.controller.wake_voltage_v,
                "abort_voltage_v": cfg.controller.abort_voltage_v,
                "frequency_tolerance_hz": cfg.controller.frequency_tolerance_hz,
                "measurement_duration_s": cfg.controller.measurement_duration_s,
                "tuning_poll_interval_s": cfg.controller.tuning_poll_interval_s,
                "untuned_frequency_hz": gen.untuned_frequency_hz,
                "buckling_load_n": cfg.tuning.buckling_load_n,
                "force_constant": cfg.tuning.force_constant,
                "force_exponent": cfg.tuning.force_exponent,
                "min_gap_m": cfg.tuning.min_gap_m,
                "max_gap_m": cfg.tuning.max_gap_m,
                "actuator_speed_m_per_s": cfg.tuning.actuator_speed_m_per_s,
                "actuator_power_w": cfg.tuning.actuator_power_w,
                "initial_gap_m": initial_gap,
                "load_sleep_ohm": cfg.load_profile.sleep_ohm,
                "load_awake_ohm": cfg.load_profile.awake_ohm,
                "load_tuning_ohm": cfg.load_profile.tuning_ohm,
            },
        )
    return SystemSpec(
        name="paper_harvester",
        description=(
            "DATE 2011 case study: tunable electromagnetic microgenerator, "
            "Dickson voltage multiplier, supercapacitor + equivalent load"
        ),
        blocks=blocks,
        connections=connections,
        probes=probes,
        interface_probes=interface_probes,
        interface_controls=interface_controls,
        controller=controller,
        excitation=ExcitationSpec(
            frequency_hz=cfg.excitation.frequency_hz,
            amplitude_ms2=cfg.excitation.amplitude_ms2,
        ),
        metadata={"paper_reference": "Fig. 1 / Fig. 3"},
    )


class TunableEnergyHarvester:
    """The complete tunable vibration energy harvesting system.

    Parameters
    ----------
    config:
        Full parameter set; defaults to :func:`paper_harvester`.
    vibration_source:
        Ambient excitation; defaults to a single tone at the configured
        frequency/amplitude.  Any object with ``acceleration(t)`` and
        ``frequency(t)`` methods is accepted.
    with_controller:
        Whether to attach the digital tuning controller (Fig. 7).  Disable
        it for open-loop experiments such as the Table I charging run.
    """

    def __init__(
        self,
        config: Optional[HarvesterConfig] = None,
        vibration_source: Optional[VibrationSource] = None,
        with_controller: bool = True,
    ) -> None:
        self.config = config or paper_harvester()
        cfg = self.config

        self.source = vibration_source or VibrationSource(
            cfg.excitation.frequency_hz, cfg.excitation.amplitude_ms2
        )

        # --- tuning mechanism (shared with the controller factory) ----- #
        self.tuning_model = _tuning_model_from_config(cfg)
        self.actuator = LinearActuator(
            speed_m_per_s=cfg.tuning.actuator_speed_m_per_s,
            min_position_m=cfg.tuning.min_gap_m,
            max_position_m=cfg.tuning.max_gap_m,
            supply_power_w=cfg.tuning.actuator_power_w,
        )

        # --- declarative build ----------------------------------------- #
        self.spec = paper_spec(cfg, with_controller=with_controller)
        context = BuildContext(
            extras={
                "tuning_model": self.tuning_model,
                "actuator": self.actuator,
                "load_profile": cfg.load_profile,
            }
        )
        built = SystemBuilder(self.spec).build(
            vibration_source=self.source, context=context
        )
        self._built = built
        self.generator = built.block("generator")
        self.multiplier = built.block("multiplier")
        self.storage = built.block("storage")
        self.netlist = built.netlist
        self.assembler = built.assembler
        self.with_controller = with_controller
        self.controller: Optional[TuningController] = built.controller

        if cfg.initial_tuned_frequency_hz is not None:
            self._apply_initial_tuning(cfg.initial_tuned_frequency_hz)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _apply_initial_tuning(self, frequency_hz: float) -> None:
        """Pre-tune the generator and position the actuator accordingly."""
        f_min, f_max = self.tuning_model.frequency_range()
        untuned = self.config.generator.untuned_frequency_hz
        if frequency_hz < untuned - 1e-9:
            raise ConfigurationError(
                f"cannot pre-tune below the un-tuned frequency ({untuned} Hz)"
            )
        target = min(max(frequency_hz, f_min), f_max)
        force = self.tuning_model.force_for_frequency(target)
        self.generator.apply_control("tuning_force", force)
        self.actuator.position_m = self.tuning_model.gap_for_frequency(target)

    @property
    def n_states(self) -> int:
        """Size of the assembled global state vector (11 for the paper system)."""
        return self.assembler.n_states

    def initial_state(self) -> np.ndarray:
        """Initial global state vector."""
        return self.assembler.initial_state()

    # ------------------------------------------------------------------ #
    # solver construction
    # ------------------------------------------------------------------ #
    def build_solver(
        self,
        integrator: Optional[ExplicitIntegrator] = None,
        settings: Optional[SolverSettings] = None,
    ) -> LinearisedStateSpaceSolver:
        """Build the proposed (fast) linearised state-space solver.

        When ``settings`` is omitted, the built system's defaults for the
        configured excitation frequency are used (step bounded to resolve
        the vibration period).
        """
        solver = self._built.build_solver(integrator, settings)
        self._add_component_probes(solver)
        return solver

    def build_baseline_solver(self, **kwargs):
        """Build the Newton-Raphson implicit baseline on the same model.

        Keyword arguments are forwarded to
        :class:`repro.baselines.implicit_solver.ImplicitNewtonSolver`.
        """
        solver = self._built.build_baseline_solver(**kwargs)
        self._add_component_probes(solver)
        return solver

    def _build_kernel(self) -> Optional[DigitalEventKernel]:
        return self._built._build_kernel()

    # ------------------------------------------------------------------ #
    # probe / control wiring shared by all solvers
    # ------------------------------------------------------------------ #
    def _wire(self, solver) -> None:
        """Attach recording probes and the digital-side interface."""
        self._built._wire(solver)
        self._add_component_probes(solver)

    def _add_component_probes(self, solver) -> None:
        """The spec-declared probes cover the standard traces; these two
        (stored energy, actuator gap) need the harvester's own component
        handles."""
        solver.add_probe(
            "stored_energy",
            _StoredEnergyProbe(self.storage, self.assembler.state_slice("storage")),
        )
        solver.add_probe("actuator_gap", ModelProbe(self.actuator, "position_m"))


class _StoredEnergyProbe(ColumnProbe):
    """Energy held in the supercapacitor's branches (its ``states`` slice)."""

    __slots__ = ("storage", "states")

    def __init__(self, storage, states: slice) -> None:
        self.storage = storage
        self.states = states

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return self.storage.stored_energy_j(x[self.states])

    def columns(self, times, states, nets):
        return self.storage.stored_energies_j(states[:, self.states])
