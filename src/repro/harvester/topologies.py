"""Ready-made alternative harvester topologies, described declaratively.

The paper's conclusion claims the linearised state-space technique "is a
generic approach which can be applied to other types of microgenerators
such as electrostatic or piezoelectric.  All that is required are the
model equations of each component block."  This module cashes that claim
in: the piezoelectric and electrostatic microgenerator blocks (Section
II's alternative transduction mechanisms) are dropped into the same
Dickson-multiplier + supercapacitor power chain purely by writing a
~20-line :class:`~repro.core.spec.SystemSpec` — no hand-wiring.

Three public layers:

* spec factories — :func:`piezoelectric_spec`, :func:`electrostatic_spec`
  (and :func:`electromagnetic_spec` for symmetric comparisons);
* :class:`SpecScenario` — the spec-backed counterpart of
  :class:`repro.harvester.scenarios.Scenario`; ``Study.scenario(...)``
  and the :class:`~repro.analysis.engine.SweepEngine` accept either;
* :func:`generator_variants` — interchangeable generator
  :class:`~repro.core.spec.BlockSpec` values for a *topology axis* in a
  sweep grid (the sweep engine forms one lane block per distinct
  topology via the spec hash).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.builder import BuiltSystem, SystemBuilder
from ..core.spec import (
    BlockSpec,
    ConnectionSpec,
    ExcitationSpec,
    ProbeSpec,
    SystemSpec,
)

__all__ = [
    "SpecScenario",
    "piezoelectric_spec",
    "electrostatic_spec",
    "electromagnetic_spec",
    "piezoelectric_scenario",
    "electrostatic_scenario",
    "generator_variants",
]

#: storage sized so charging is visible within sub-second demo runs; same
#: branch-resistance structure as the paper configuration, capacitances
#: scaled down (the Zubieta time constants shrink with the capacitance)
_DEMO_STORAGE = {
    "immediate_resistance_ohm": 2.5,
    "immediate_capacitance_f": 2e-3,
    "delayed_resistance_ohm": 90.0,
    "delayed_capacitance_f": 4e-4,
    "longterm_resistance_ohm": 900.0,
    "longterm_capacitance_f": 2.5e-4,
    "initial_voltage_v": 0.0,
}

#: fast multiplier for the micro-power generators: smaller pump capacitances
#: settle within the demo window; the output capacitance stays at the
#: paper's 220 uF because, against the supercapacitor's 2.5-ohm immediate
#: branch, anything much smaller creates a sub-100-us time constant that
#: would push the explicit solver out of its non-stiff regime
_DEMO_MULTIPLIER = {
    "n_stages": 3,
    "stage_capacitance_f": 1e-6,
    "output_capacitance_f": 220e-6,
    "input_capacitance_f": 0.05e-6,
    "diode_series_resistance_ohm": 3300.0,
}


def _power_chain(
    generator: BlockSpec,
    *,
    multiplier_params: Optional[Dict[str, object]] = None,
    storage_params: Optional[Dict[str, object]] = None,
) -> Tuple[Tuple[BlockSpec, ...], Tuple[ConnectionSpec, ...], Tuple[ProbeSpec, ...]]:
    """Generator -> Dickson multiplier -> supercapacitor, with probes."""
    blocks = (
        generator,
        BlockSpec(
            "dickson_multiplier",
            "multiplier",
            {**_DEMO_MULTIPLIER, **(multiplier_params or {})},
        ),
        BlockSpec(
            "supercapacitor", "storage", {**_DEMO_STORAGE, **(storage_params or {})}
        ),
    )
    connections = (
        ConnectionSpec(
            generator.name,
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
        ProbeSpec("generator_power", "power", generator.name, ("Vm", "Im")),
        ProbeSpec("generator_voltage", "terminal", generator.name, ("Vm",)),
        ProbeSpec("storage_voltage", "terminal", "storage", ("Vc",)),
        ProbeSpec("storage_current", "terminal", "storage", ("Ic",)),
        ProbeSpec("ambient_frequency", "source_frequency"),
    )
    return blocks, connections, probes


def _resonant_stiffness(proof_mass_kg: float, frequency_hz: float) -> float:
    """Spring stiffness placing the mechanical resonance at ``frequency_hz``."""
    return proof_mass_kg * (2.0 * math.pi * frequency_hz) ** 2


def piezoelectric_spec(
    *,
    excitation_frequency_hz: Optional[float] = None,
    amplitude_ms2: float = 1.0,
    proof_mass_kg: float = 0.008,
    coupling_n_per_v: float = 1.5e-3,
    clamp_capacitance_f: float = 60e-9,
    parasitic_damping: float = 0.05,
    series_resistance_ohm: float = 4.7e3,
) -> SystemSpec:
    """Piezoelectric harvester system: piezo -> multiplier -> supercapacitor.

    By default the ambient excitation sits exactly on the cantilever's
    mechanical resonance, the operating point a fixed-frequency piezo
    harvester is designed for.
    """
    stiffness = 1500.0
    resonance_hz = math.sqrt(stiffness / proof_mass_kg) / (2.0 * math.pi)
    if excitation_frequency_hz is None:
        excitation_frequency_hz = resonance_hz
    generator = BlockSpec(
        "piezoelectric_generator",
        "generator",
        {
            "proof_mass_kg": proof_mass_kg,
            "parasitic_damping": parasitic_damping,
            "spring_stiffness": stiffness,
            "coupling_n_per_v": coupling_n_per_v,
            "clamp_capacitance_f": clamp_capacitance_f,
            "series_resistance_ohm": series_resistance_ohm,
        },
    )
    blocks, connections, probes = _power_chain(generator)
    probes = probes + (ProbeSpec("piezo_voltage", "state", "generator", ("Vp",)),)
    return SystemSpec(
        name="piezoelectric_harvester",
        description=(
            "lumped cantilever piezoelectric harvester feeding a Dickson "
            "multiplier and a supercapacitor store"
        ),
        blocks=blocks,
        connections=connections,
        probes=probes,
        excitation=ExcitationSpec(
            frequency_hz=excitation_frequency_hz, amplitude_ms2=amplitude_ms2
        ),
        metadata={
            "transduction": "piezoelectric",
            "mechanical_resonance_hz": resonance_hz,
        },
    )


def electrostatic_spec(
    *,
    excitation_frequency_hz: Optional[float] = None,
    amplitude_ms2: float = 0.25,
    proof_mass_kg: float = 0.002,
    bias_voltage_v: float = 5.0,
    plate_area_m2: float = 4e-3,
    nominal_gap_m: float = 100e-6,
    series_resistance_ohm: float = 1e6,
    recharge_resistance_ohm: float = 2e6,
) -> SystemSpec:
    """Electrostatic harvester system: biased varactor -> multiplier -> store.

    The plate charge starts at (and is replenished towards) the bias
    voltage, keeping the device in the single-digit-volt range of the rest
    of the power chain (the raw library block defaults model a one-shot
    high-voltage device).  The default effective plate area models a
    multi-plate comb, which brings the source impedance down to the
    megaohm range a practical interface circuit could work with; the
    default excitation amplitude keeps the proof-mass travel inside the
    electrode gap.  The electrostatic block has no analytic linearisation,
    so this topology exercises the solver's finite-difference fallback end
    to end.
    """
    stiffness = 400.0
    resonance_hz = math.sqrt(stiffness / proof_mass_kg) / (2.0 * math.pi)
    if excitation_frequency_hz is None:
        excitation_frequency_hz = resonance_hz
    nominal_capacitance_f = 8.8541878128e-12 * plate_area_m2 / nominal_gap_m
    generator = BlockSpec(
        "electrostatic_generator",
        "generator",
        {
            "proof_mass_kg": proof_mass_kg,
            "spring_stiffness": stiffness,
            "plate_area_m2": plate_area_m2,
            "nominal_gap_m": nominal_gap_m,
            "bias_charge_c": nominal_capacitance_f * bias_voltage_v,
            "series_resistance_ohm": series_resistance_ohm,
            "bias_voltage_v": bias_voltage_v,
            "recharge_resistance_ohm": recharge_resistance_ohm,
        },
    )
    blocks, connections, probes = _power_chain(generator)
    probes = probes + (ProbeSpec("plate_charge", "state", "generator", ("charge",)),)
    return SystemSpec(
        name="electrostatic_harvester",
        description=(
            "gap-closing electrostatic harvester (finite-difference "
            "linearisation) feeding a Dickson multiplier and a supercapacitor"
        ),
        blocks=blocks,
        connections=connections,
        probes=probes,
        excitation=ExcitationSpec(
            frequency_hz=excitation_frequency_hz, amplitude_ms2=amplitude_ms2
        ),
        metadata={
            "transduction": "electrostatic",
            "mechanical_resonance_hz": resonance_hz,
        },
    )


def electromagnetic_spec(
    *,
    excitation_frequency_hz: float = 70.0,
    amplitude_ms2: float = 0.59,
) -> SystemSpec:
    """The paper's electromagnetic generator on the demo power chain.

    This is *not* the full paper system (no controller, demo-scaled storage
    and multiplier) — it exists so the three transduction mechanisms can be
    compared like-for-like on one chain; use
    :func:`repro.harvester.system.paper_spec` for the faithful Fig. 1/3
    system.
    """
    generator = generator_variants(excitation_frequency_hz)["electromagnetic"]
    blocks, connections, probes = _power_chain(generator)
    return SystemSpec(
        name="electromagnetic_harvester",
        description="paper's electromagnetic generator on the demo power chain",
        blocks=blocks,
        connections=connections,
        probes=probes,
        excitation=ExcitationSpec(
            frequency_hz=excitation_frequency_hz, amplitude_ms2=amplitude_ms2
        ),
        metadata={"transduction": "electromagnetic"},
    )


def generator_variants(frequency_hz: float = 70.0) -> Dict[str, BlockSpec]:
    """Interchangeable generator block specs, each resonant at ``frequency_hz``.

    All three share the instance name ``generator`` so any of them can be
    swapped into the same power chain; a sweep axis named ``generator``
    whose values are these specs becomes a *topology axis* (see
    :mod:`repro.analysis.sweep`).  The electromagnetic variant is pre-tuned
    to the target frequency with its magnetic tuning law, mirroring how the
    paper's device would be operated at a 70 Hz ambient.
    """
    # paper electromagnetic generator, pre-tuned from 64 Hz to the target
    em_untuned_hz = 64.0
    em_mass = 0.018
    em_stiffness = _resonant_stiffness(em_mass, em_untuned_hz)
    em_damping = math.sqrt(em_stiffness * em_mass) / 120.0
    # Eq. 12: k' = k (1 + F_t/F_b)  ->  F_t = F_b ((f'/f)^2 - 1)
    ratio = max(frequency_hz / em_untuned_hz, 1.0)
    em_tuning_force = 4.5 * (ratio**2 - 1.0)
    return {
        "electromagnetic": BlockSpec(
            "electromagnetic_generator",
            "generator",
            {
                "proof_mass_kg": em_mass,
                "parasitic_damping": em_damping,
                "spring_stiffness": em_stiffness,
                "flux_linkage": 14.0,
                "coil_resistance": 1500.0,
                "coil_inductance": 1.0,
                "buckling_load_n": 4.5,
                "initial_tuning_force_n": em_tuning_force,
            },
        ),
        "piezoelectric": BlockSpec(
            "piezoelectric_generator",
            "generator",
            {
                "spring_stiffness": _resonant_stiffness(0.008, frequency_hz),
                "series_resistance_ohm": 4.7e3,
            },
        ),
        "electrostatic": BlockSpec(
            "electrostatic_generator",
            "generator",
            {
                "spring_stiffness": _resonant_stiffness(0.002, frequency_hz),
                # comb geometry + 5 V bias, as in electrostatic_spec()
                "plate_area_m2": 4e-3,
                "bias_charge_c": (8.8541878128e-12 * 4e-3 / 100e-6) * 5.0,
                "bias_voltage_v": 5.0,
                "recharge_resistance_ohm": 2e6,
                "series_resistance_ohm": 1e6,
            },
        ),
    }


@dataclass(frozen=True)
class SpecScenario:
    """A reproducible simulation scenario defined by a :class:`SystemSpec`.

    The spec-backed sibling of :class:`repro.harvester.scenarios.Scenario`:
    it satisfies the same duck type the scenario runners and the sweep
    engine consume (``build_harvester`` / ``duration_s`` / ``name``), so
    ``Study.scenario(SpecScenario(...)).run()`` and topology sweeps just
    work.
    """

    name: str
    description: str
    spec: SystemSpec
    duration_s: float
    paper_reference: str = ""

    def topology_key(self) -> Tuple:
        """Lane-grouping key: the spec's structural topology hash."""
        return ("spec", self.spec.topology_hash())

    def with_spec(self, spec: SystemSpec) -> "SpecScenario":
        """Copy of the scenario evaluating a different spec."""
        return replace(self, spec=spec)

    def scaled(self, duration_s: float) -> "SpecScenario":
        """Copy of the scenario with a different simulated duration."""
        return replace(self, duration_s=duration_s)

    #: default fast-solver settings implied by the spec's hints: the built
    #: system's derivation, which reads only ``self.spec``
    solver_settings = BuiltSystem.default_solver_settings

    def build_harvester(self) -> BuiltSystem:
        """Fresh compiled system (one per simulation run)."""
        return SystemBuilder(self.spec).build()

    # ------------------------------------------------------------------ #
    # canonical serialisation (the declarative-experiment form)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (lossless JSON/TOML round-trip)."""
        return {
            "type": "spec_scenario",
            "name": self.name,
            "description": self.description,
            "spec": self.spec.to_dict(),
            "duration_s": self.duration_s,
            "paper_reference": self.paper_reference,
        }

    @classmethod
    def from_dict(cls, data) -> "SpecScenario":
        """Rebuild a scenario from :meth:`to_dict` output (unknown keys rejected)."""
        from ..core.errors import ConfigurationError

        valid = (
            "type",
            "name",
            "description",
            "spec",
            "duration_s",
            "paper_reference",
        )
        unknown = set(data) - set(valid)
        if unknown:
            raise ConfigurationError(
                f"spec-scenario dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(valid)}"
            )
        if data.get("type", "spec_scenario") != "spec_scenario":
            raise ConfigurationError(
                f"spec-scenario dict has type {data.get('type')!r}; "
                "expected 'spec_scenario'"
            )
        for required in ("name", "spec", "duration_s"):
            if required not in data:
                raise ConfigurationError(
                    f"spec-scenario dict is missing required field {required!r}"
                )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            spec=SystemSpec.from_dict(data["spec"]),
            duration_s=float(data["duration_s"]),
            paper_reference=str(data.get("paper_reference", "")),
        )


def piezoelectric_scenario(
    duration_s: float = 0.5, **spec_kwargs
) -> SpecScenario:
    """Charging run of the piezoelectric harvester system."""
    spec = piezoelectric_spec(**spec_kwargs)
    return SpecScenario(
        name="piezoelectric_charging",
        description="piezoelectric harvester charging its supercapacitor store",
        spec=spec,
        duration_s=duration_s,
        paper_reference="Section II / conclusion (piezoelectric extension)",
    )


def electrostatic_scenario(
    duration_s: float = 0.25, **spec_kwargs
) -> SpecScenario:
    """Charging run of the electrostatic harvester system."""
    spec = electrostatic_spec(**spec_kwargs)
    return SpecScenario(
        name="electrostatic_charging",
        description="electrostatic harvester charging its supercapacitor store",
        spec=spec,
        duration_s=duration_s,
        paper_reference="Section II / conclusion (electrostatic extension)",
    )
