"""Stock component library: registry entries for every shipped block.

Every analogue block of the repository (plus the digital tuning controller
and the vibration source) registers here under a string key with a typed
parameter schema, making the whole component set addressable from a
declarative :class:`~repro.core.spec.SystemSpec`.  The module is imported
lazily by :meth:`repro.core.registry.BlockRegistry.ensure_default_library`
— never import it from :mod:`repro.core` at module level.

Registered keys:

====================================  ==========  =============================
key                                   role        block
====================================  ==========  =============================
``electromagnetic_generator``         analogue    :class:`ElectromagneticMicrogenerator`
``piezoelectric_generator``           analogue    :class:`PiezoelectricMicrogenerator`
``electrostatic_generator``           analogue    :class:`ElectrostaticMicrogenerator`
``dickson_multiplier``                analogue    :class:`DicksonMultiplier`
``supercapacitor``                    analogue    :class:`Supercapacitor`
``tuning_controller``                 controller  :class:`TuningController`
``vibration_source``                  source      :class:`VibrationSource`
====================================  ==========  =============================
"""

from __future__ import annotations

from ..core.registry import ParameterField, register_block
from .actuator import LinearActuator
from .diode import DiodeParameters
from .electrostatic import ElectrostaticMicrogenerator, ElectrostaticParameters
from .load import LoadProfile
from .microcontroller import ControllerSettings, TuningController
from .microgenerator import ElectromagneticMicrogenerator, MicrogeneratorParameters
from .piezoelectric import PiezoelectricMicrogenerator, PiezoelectricParameters
from .supercapacitor import Supercapacitor, SupercapacitorParameters
from .tuning import MagneticTuningModel
from .vibration import FrequencyStep, VibrationSource
from .voltage_multiplier import DicksonMultiplier

__all__ = []  # the module's effect is registration, not exports


def _f(name: str, default=None, *, required: bool = False, description: str = ""):
    """Shorthand for a float schema field."""
    if required:
        return ParameterField(name, "float", description=description)
    return ParameterField(name, "float", default=default, description=description)


# ---------------------------------------------------------------------- #
# microgenerators (the paper's Section II transduction mechanisms)
# ---------------------------------------------------------------------- #
@register_block(
    "electromagnetic_generator",
    params=(
        _f("proof_mass_kg", required=True),
        _f("parasitic_damping", required=True),
        _f("spring_stiffness", required=True),
        _f("flux_linkage", required=True),
        _f("coil_resistance", required=True),
        _f("coil_inductance", required=True),
        _f("buckling_load_n", required=True),
        _f("tuning_force_z_fraction", 0.01),
        _f("initial_tuning_force_n", 0.0, description="pre-applied tuning force"),
    ),
    terminals=(("Vm", "voltage"), ("Im", "current")),
    description="tunable electromagnetic microgenerator (Eq. 8-13)",
)
def _make_electromagnetic_generator(name, params, context):
    p = MicrogeneratorParameters(
        proof_mass_kg=params["proof_mass_kg"],
        parasitic_damping=params["parasitic_damping"],
        spring_stiffness=params["spring_stiffness"],
        flux_linkage=params["flux_linkage"],
        coil_resistance=params["coil_resistance"],
        coil_inductance=params["coil_inductance"],
        buckling_load_n=params["buckling_load_n"],
        tuning_force_z_fraction=params["tuning_force_z_fraction"],
    )
    block = ElectromagneticMicrogenerator(p, context.acceleration, name=name)
    if params["initial_tuning_force_n"] > 0.0:
        block.apply_control("tuning_force", params["initial_tuning_force_n"])
    return block


@register_block(
    "piezoelectric_generator",
    params=(
        _f("proof_mass_kg", 0.008),
        _f("parasitic_damping", 0.05),
        _f("spring_stiffness", 1500.0),
        _f("coupling_n_per_v", 1.5e-3),
        _f("clamp_capacitance_f", 60e-9),
        _f("buckling_load_n", 1.0),
        _f("series_resistance_ohm", 0.0),
        _f("initial_tuning_force_n", 0.0),
    ),
    terminals=(("Vm", "voltage"), ("Im", "current")),
    description="lumped cantilever piezoelectric harvester",
)
def _make_piezoelectric_generator(name, params, context):
    p = PiezoelectricParameters(
        proof_mass_kg=params["proof_mass_kg"],
        parasitic_damping=params["parasitic_damping"],
        spring_stiffness=params["spring_stiffness"],
        coupling_n_per_v=params["coupling_n_per_v"],
        clamp_capacitance_f=params["clamp_capacitance_f"],
        buckling_load_n=params["buckling_load_n"],
        series_resistance_ohm=params["series_resistance_ohm"],
    )
    block = PiezoelectricMicrogenerator(p, context.acceleration, name=name)
    if params["initial_tuning_force_n"] > 0.0:
        block.apply_control("tuning_force", params["initial_tuning_force_n"])
    return block


@register_block(
    "electrostatic_generator",
    params=(
        _f("proof_mass_kg", 0.002),
        _f("parasitic_damping", 0.02),
        _f("spring_stiffness", 400.0),
        _f("plate_area_m2", 4e-4),
        _f("nominal_gap_m", 100e-6),
        _f("bias_charge_c", 2e-8),
        _f("series_resistance_ohm", 0.0),
        _f("bias_voltage_v", 0.0),
        _f("recharge_resistance_ohm", 0.0),
    ),
    terminals=(("Vm", "voltage"), ("Im", "current")),
    description="gap-closing electrostatic harvester (finite-difference linearisation)",
)
def _make_electrostatic_generator(name, params, context):
    p = ElectrostaticParameters(
        proof_mass_kg=params["proof_mass_kg"],
        parasitic_damping=params["parasitic_damping"],
        spring_stiffness=params["spring_stiffness"],
        plate_area_m2=params["plate_area_m2"],
        nominal_gap_m=params["nominal_gap_m"],
        bias_charge_c=params["bias_charge_c"],
        series_resistance_ohm=params["series_resistance_ohm"],
        bias_voltage_v=params["bias_voltage_v"],
        recharge_resistance_ohm=params["recharge_resistance_ohm"],
    )
    return ElectrostaticMicrogenerator(p, context.acceleration, name=name)


# ---------------------------------------------------------------------- #
# power conditioning and storage
# ---------------------------------------------------------------------- #
@register_block(
    "dickson_multiplier",
    params=(
        ParameterField(
            "n_stages",
            "int",
            default=5,
            structural=True,
            description="stage count (changes the state-vector shape)",
        ),
        _f("stage_capacitance_f", 10e-6),
        _f("output_capacitance_f", 220e-6),
        _f("input_capacitance_f", 0.1e-6),
        _f("diode_saturation_current_a", 1e-8),
        _f("diode_thermal_voltage_v", 25.85e-3),
        _f("diode_series_resistance_ohm", 50.0),
        _f("diode_reverse_conductance_s", 1e-9),
    ),
    terminals=(
        ("Vm", "voltage"),
        ("Im", "current"),
        ("Vc", "voltage"),
        ("Ic", "current"),
    ),
    description="n-stage Dickson voltage multiplier with input filter node",
)
def _make_dickson_multiplier(name, params, context):
    diode = DiodeParameters(
        saturation_current_a=params["diode_saturation_current_a"],
        thermal_voltage_v=params["diode_thermal_voltage_v"],
        series_resistance_ohm=params["diode_series_resistance_ohm"],
        reverse_conductance_s=params["diode_reverse_conductance_s"],
    )
    return DicksonMultiplier(
        n_stages=params["n_stages"],
        stage_capacitance_f=params["stage_capacitance_f"],
        output_capacitance_f=params["output_capacitance_f"],
        input_capacitance_f=params["input_capacitance_f"],
        diode_params=diode,
        name=name,
    )


@register_block(
    "supercapacitor",
    params=(
        _f("immediate_resistance_ohm", 2.5),
        _f("immediate_capacitance_f", 0.9),
        _f("delayed_resistance_ohm", 90.0),
        _f("delayed_capacitance_f", 0.18),
        _f("longterm_resistance_ohm", 900.0),
        _f("longterm_capacitance_f", 0.12),
        _f("leakage_resistance_ohm", 0.0, description="0 disables leakage"),
        _f("initial_voltage_v", 0.0),
        _f("load_sleep_ohm", 1.0e9),
        _f("load_awake_ohm", 33.0),
        _f("load_tuning_ohm", 16.7),
    ),
    terminals=(("Vc", "voltage"), ("Ic", "current")),
    description="Zubieta three-branch supercapacitor + Eq. 16 equivalent load",
)
def _make_supercapacitor(name, params, context):
    sc_params = SupercapacitorParameters(
        immediate_resistance_ohm=params["immediate_resistance_ohm"],
        immediate_capacitance_f=params["immediate_capacitance_f"],
        delayed_resistance_ohm=params["delayed_resistance_ohm"],
        delayed_capacitance_f=params["delayed_capacitance_f"],
        longterm_resistance_ohm=params["longterm_resistance_ohm"],
        longterm_capacitance_f=params["longterm_capacitance_f"],
        leakage_resistance_ohm=(
            params["leakage_resistance_ohm"]
            if params["leakage_resistance_ohm"] > 0.0
            else None
        ),
    )
    load_profile = LoadProfile(
        sleep_ohm=params["load_sleep_ohm"],
        awake_ohm=params["load_awake_ohm"],
        tuning_ohm=params["load_tuning_ohm"],
    )
    return Supercapacitor(
        params=sc_params,
        load_profile=load_profile,
        initial_voltage_v=params["initial_voltage_v"],
        name=name,
    )


# ---------------------------------------------------------------------- #
# digital controller
# ---------------------------------------------------------------------- #
@register_block(
    "tuning_controller",
    role="controller",
    params=(
        # behavioural settings (Fig. 7 flow)
        _f("watchdog_period_s", 5.0),
        _f("wake_voltage_v", 1.8),
        _f("abort_voltage_v", 0.5),
        _f("frequency_tolerance_hz", 0.25),
        _f("measurement_duration_s", 0.5),
        _f("tuning_poll_interval_s", 0.25),
        # magnetic tuning mechanism + actuator
        _f("untuned_frequency_hz", required=True),
        _f("buckling_load_n", 4.5),
        _f("force_constant", 5.0e-12),
        _f("force_exponent", 4.0),
        _f("min_gap_m", 1.2e-3),
        _f("max_gap_m", 30e-3),
        _f("actuator_speed_m_per_s", 2.0e-3),
        _f("actuator_power_w", 0.5),
        _f("initial_gap_m", 0.0, description="0 leaves the actuator un-tuned"),
        # Eq. 16 equivalent load the controller switches between
        _f("load_sleep_ohm", 1.0e9),
        _f("load_awake_ohm", 33.0),
        _f("load_tuning_ohm", 16.7),
    ),
    description="watchdog-driven frequency-tuning controller (Fig. 7)",
)
def _make_tuning_controller(name, params, context):
    settings = ControllerSettings(
        watchdog_period_s=params["watchdog_period_s"],
        wake_voltage_v=params["wake_voltage_v"],
        abort_voltage_v=params["abort_voltage_v"],
        frequency_tolerance_hz=params["frequency_tolerance_hz"],
        measurement_duration_s=params["measurement_duration_s"],
        tuning_poll_interval_s=params["tuning_poll_interval_s"],
    )
    tuning_model = MagneticTuningModel(
        untuned_frequency_hz=params["untuned_frequency_hz"],
        buckling_load_n=params["buckling_load_n"],
        force_constant=params["force_constant"],
        exponent=params["force_exponent"],
        min_gap_m=params["min_gap_m"],
        max_gap_m=params["max_gap_m"],
    )
    actuator = LinearActuator(
        speed_m_per_s=params["actuator_speed_m_per_s"],
        min_position_m=params["min_gap_m"],
        max_position_m=params["max_gap_m"],
        supply_power_w=params["actuator_power_w"],
    )
    if params["initial_gap_m"] > 0.0:
        actuator.position_m = min(
            max(params["initial_gap_m"], params["min_gap_m"]), params["max_gap_m"]
        )
    load_profile = LoadProfile(
        sleep_ohm=params["load_sleep_ohm"],
        awake_ohm=params["load_awake_ohm"],
        tuning_ohm=params["load_tuning_ohm"],
    )
    return TuningController(
        tuning_model=tuning_model,
        actuator=actuator,
        settings=settings,
        load_profile=load_profile,
        name=name,
    )


# ---------------------------------------------------------------------- #
# excitation source
# ---------------------------------------------------------------------- #
@register_block(
    "vibration_source",
    role="source",
    params=(
        _f("frequency_hz", required=True),
        _f("amplitude_ms2", required=True),
        ParameterField(
            "steps",
            "list",
            default=[],
            description="schedule of {time, frequency_hz, amplitude_ms2} dicts",
        ),
    ),
    description="single-tone base acceleration with scheduled frequency steps",
)
def _make_vibration_source(name, params, context):
    steps = [
        FrequencyStep(
            time=float(step["time"]),
            frequency_hz=float(step["frequency_hz"]),
            amplitude_ms2=(
                None
                if step.get("amplitude_ms2") is None
                else float(step["amplitude_ms2"])
            ),
        )
        for step in params["steps"]
    ]
    return VibrationSource(
        params["frequency_hz"], params["amplitude_ms2"], steps=steps or None
    )
