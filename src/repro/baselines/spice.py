"""Equivalent-circuit (PSPICE-style) model of the energy harvester.

The second baseline of Table I simulates the harvester as an equivalent
circuit in OrCAD/PSPICE.  This module builds that equivalent circuit for
our MNA engine (:mod:`repro.baselines.mna`):

* the mechanical resonator is mapped through the force-voltage analogy —
  mass -> inductance, damping -> resistance, compliance -> capacitance,
  base-acceleration force -> voltage source — so the mesh current of the
  mechanical loop is the proof-mass velocity;
* the electromagnetic transduction is a pair of current-controlled voltage
  sources: ``V_em = Phi * velocity`` on the electrical side and
  ``F_em = Phi * i_coil`` on the mechanical side;
* the Dickson multiplier, the three-branch supercapacitor and the
  equivalent load resistor are ordinary circuit elements.

The paper notes that equivalent-circuit models have accuracy limitations
for (tunable) harvesters; here the model is used exactly as the paper used
PSPICE — as a CPU-time baseline on the supercapacitor-charging experiment.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.results import SimulationResult
from ..harvester.config import HarvesterConfig, paper_harvester
from .mna import Circuit, MNATransientSimulator, TransientSettings

__all__ = ["build_harvester_circuit", "SpiceLikeHarvesterSimulator"]


def build_harvester_circuit(
    config: Optional[HarvesterConfig] = None,
    acceleration: Optional[Callable[[float], float]] = None,
    *,
    load_resistance_ohm: Optional[float] = None,
    tuned_frequency_hz: Optional[float] = None,
) -> Circuit:
    """Build the harvester equivalent-circuit netlist.

    Parameters
    ----------
    config:
        Harvester parameters (defaults to the paper configuration).
    acceleration:
        Base acceleration ``a(t)`` in m/s^2; defaults to the single tone of
        the configuration.
    load_resistance_ohm:
        Static equivalent load (the circuit baseline has no digital
        controller); defaults to the sleep-mode resistance.
    tuned_frequency_hz:
        When given, the mechanical compliance is set to the stiffness that
        tunes the resonator to this frequency (Eq. 12 applied statically).
    """
    import math

    cfg = config or paper_harvester()
    gen = cfg.generator
    if acceleration is None:
        amplitude = cfg.excitation.amplitude_ms2
        frequency = cfg.excitation.frequency_hz

        def acceleration(t: float, _a=amplitude, _f=frequency) -> float:
            return _a * math.sin(2.0 * math.pi * _f * t)

    stiffness = gen.spring_stiffness
    if tuned_frequency_hz is not None:
        omega = 2.0 * math.pi * tuned_frequency_hz
        stiffness = gen.proof_mass_kg * omega * omega
    req = (
        load_resistance_ohm
        if load_resistance_ohm is not None
        else cfg.load_profile.sleep_ohm
    )

    circuit = Circuit(title="tunable energy harvester (equivalent circuit)")

    # --- mechanical side (force-voltage analogy) ------------------------ #
    mass = gen.proof_mass_kg

    def force(t: float) -> float:
        return mass * float(acceleration(t))

    circuit.add_voltage_source("Va", "m1", "0", force)
    circuit.add_inductor("Lmech", "m1", "m2", mass)
    circuit.add_resistor("Rmech", "m2", "m3", max(gen.parasitic_damping, 1e-9))
    circuit.add_capacitor("Cmech", "m3", "m4", 1.0 / stiffness)
    # reaction force of the coil current on the proof mass: F_em = Phi * i_coil
    circuit.add_ccvs("Hfem", "m4", "0", "Lc", gen.flux_linkage)

    # --- electromagnetic transduction and coil -------------------------- #
    # V_em = Phi * velocity, where the velocity is the mechanical mesh current
    circuit.add_ccvs("Hvem", "e1", "0", "Lmech", gen.flux_linkage)
    circuit.add_resistor("Rc", "e1", "e2", gen.coil_resistance)
    circuit.add_inductor("Lc", "e2", "vm", gen.coil_inductance)

    # --- Dickson multiplier --------------------------------------------- #
    circuit.add_capacitor("Cin", "vm", "0", cfg.multiplier_input_capacitance_f)
    n_stages = cfg.multiplier_stages
    diode = cfg.diode
    for stage in range(1, n_stages + 1):
        node = f"n{stage}" if stage < n_stages else "vc"
        previous = "0" if stage == 1 else (f"n{stage - 1}" if stage - 1 < n_stages else "vc")
        circuit.add_diode(
            f"D{stage}",
            previous,
            node,
            saturation_current=diode.saturation_current_a,
            thermal_voltage=diode.thermal_voltage_v,
            series_resistance=diode.series_resistance_ohm,
        )
        # pump capacitors of odd stages hang from the AC input, the others
        # (and the output capacitor) are grounded
        is_output = stage == n_stages
        bottom = "vm" if (stage % 2 == 1 and not is_output) else "0"
        capacitance = (
            cfg.multiplier_output_capacitance_f
            if is_output
            else cfg.multiplier_capacitance_f
        )
        # the pump capacitors start empty; the output capacitor sits across
        # the storage port, so the operating point sets its start voltage
        circuit.add_capacitor(
            f"C{stage}", node, bottom, capacitance, None if is_output else 0.0
        )

    # --- supercapacitor (Zubieta three-branch) and load ------------------ #
    sc = cfg.supercapacitor
    circuit.add_resistor("Ri", "vc", "si", sc.immediate_resistance_ohm)
    circuit.add_capacitor("Ci", "si", "0", sc.immediate_capacitance_f, cfg.initial_storage_voltage_v)
    circuit.add_resistor("Rd", "vc", "sd", sc.delayed_resistance_ohm)
    circuit.add_capacitor("Cd", "sd", "0", sc.delayed_capacitance_f, cfg.initial_storage_voltage_v)
    circuit.add_resistor("Rl", "vc", "sl", sc.longterm_resistance_ohm)
    circuit.add_capacitor("Cl", "sl", "0", sc.longterm_capacitance_f, cfg.initial_storage_voltage_v)
    circuit.add_resistor("Req", "vc", "0", req)
    if sc.leakage_resistance_ohm is not None:
        circuit.add_resistor("Rleak", "vc", "0", sc.leakage_resistance_ohm)

    return circuit


class SpiceLikeHarvesterSimulator:
    """Convenience wrapper: equivalent circuit + MNA transient analysis."""

    def __init__(
        self,
        config: Optional[HarvesterConfig] = None,
        acceleration: Optional[Callable[[float], float]] = None,
        settings: Optional[TransientSettings] = None,
        *,
        load_resistance_ohm: Optional[float] = None,
        tuned_frequency_hz: Optional[float] = None,
    ) -> None:
        self.config = config or paper_harvester()
        self.circuit = build_harvester_circuit(
            self.config,
            acceleration,
            load_resistance_ohm=load_resistance_ohm,
            tuned_frequency_hz=tuned_frequency_hz,
        )
        self.simulator = MNATransientSimulator(self.circuit, settings)

    def run(self, t_end: float, *, t_start: float = 0.0) -> SimulationResult:
        """Run the transient analysis; key waveforms get friendly aliases."""
        result = self.simulator.run(t_end, t_start=t_start)
        aliases = {
            "storage_voltage": "v(vc)",
            "generator_voltage": "v(vm)",
            "coil_current": "i(Lc)",
            "proof_mass_velocity": "i(Lmech)",
        }
        for alias, source in aliases.items():
            if source in result.traces and alias not in result.traces:
                trace = result.traces[source]
                clone = trace.resample(trace.times)
                clone.name = alias
                result.traces[alias] = clone
        result.metadata["baseline"] = "spice-like equivalent circuit (MNA + NR)"
        return result
