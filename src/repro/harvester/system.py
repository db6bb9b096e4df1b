"""Assembly of the complete mixed-technology tunable energy harvester.

This module realises Fig. 1 / Fig. 3 of the paper in code — but the wiring
itself lives in the declarative system-description layer:
:func:`paper_spec` produces the :class:`~repro.core.spec.SystemSpec` of the
paper's case-study topology (electromagnetic microgenerator, Dickson
voltage multiplier, supercapacitor + equivalent load, digital tuning
controller), and :func:`paper_system` compiles it with a plain
:class:`~repro.core.builder.SystemBuilder` into a
:class:`~repro.core.builder.BuiltSystem`: the netlist, the
:class:`~repro.core.elimination.SystemAssembler` (the global state model of
Section III-E — 12 states here: the paper's 11 plus the multiplier's
input-filter node, see DESIGN.md) and the attached digital kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blocks.actuator import LinearActuator
from ..blocks.tuning import MagneticTuningModel
from ..core.builder import BuiltSystem, SystemBuilder, solver_settings_for_frequency
from ..core.probes import ColumnProbe, ModelProbe
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

__all__ = ["default_solver_settings", "paper_spec", "paper_system"]


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
    :func:`paper_system` compiles exactly this spec.
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


def paper_system(
    config: Optional[HarvesterConfig] = None,
    *,
    vibration_source=None,
    with_controller: bool = True,
) -> BuiltSystem:
    """Compile :func:`paper_spec` into a runnable system.

    Parameters
    ----------
    config:
        Full parameter set; defaults to :func:`paper_harvester`.
    vibration_source:
        Ambient excitation; defaults to the spec's single tone at the
        configured frequency/amplitude.  Any object with
        ``acceleration(t)`` and ``frequency(t)`` methods is accepted.
    with_controller:
        Whether to attach the digital tuning controller (Fig. 7).  Disable
        it for open-loop experiments such as the Table I charging run.

    Besides the spec's probes, the result records ``stored_energy`` and
    ``actuator_gap``: the supercapacitor's branch energy and the tuning
    actuator's position (the controller's own actuator, or one parked at
    the pre-tuned gap when there is no controller).  The built system owns
    mutable component state, so build a fresh one for every run.
    """
    cfg = config or paper_harvester()
    built = SystemBuilder(paper_spec(cfg, with_controller=with_controller)).build(
        vibration_source=vibration_source
    )
    if built.controller is not None:
        actuator = built.controller.actuator
    else:
        gap = _initial_tuning(cfg)[1]
        actuator = LinearActuator(
            speed_m_per_s=cfg.tuning.actuator_speed_m_per_s,
            min_position_m=cfg.tuning.min_gap_m,
            max_position_m=cfg.tuning.max_gap_m,
            supply_power_w=cfg.tuning.actuator_power_w,
        )
        if gap > 0.0:
            actuator.position_m = min(max(gap, cfg.tuning.min_gap_m), cfg.tuning.max_gap_m)
    built.component_probes = {
        "stored_energy": _StoredEnergyProbe(
            built.block("storage"), built.assembler.state_slice("storage")
        ),
        "actuator_gap": ModelProbe(actuator, "position_m"),
    }
    return built


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
