"""End-to-end tests of the spec-defined piezoelectric/electrostatic systems.

Also pins the traces every named scenario factory records (the paper
system's component probes included), and covers the spec file I/O.
"""

import numpy as np
import pytest

from repro import Study
from repro.api.experiment import SCENARIO_FACTORIES
from repro.core import SystemBuilder
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import Scenario, scenario_solver_settings
from repro.harvester.system import paper_system
from repro.harvester.topologies import (
    electrostatic_scenario,
    electrostatic_spec,
    generator_variants,
    piezoelectric_scenario,
    piezoelectric_spec,
)
from repro.io import load_spec, save_spec


def proposed_run(scenario):
    return Study.scenario(scenario).run().result


class TestPiezoelectricTopology:
    def test_runs_and_charges(self):
        result = proposed_run(piezoelectric_scenario(duration_s=0.05))
        voltage = result["storage_voltage"].values
        assert np.all(np.isfinite(voltage))
        assert result["storage_voltage"].final() > 0.0
        assert np.all(np.isfinite(result["piezo_voltage"].values))
        assert result.metadata["scenario"] == "piezoelectric_charging"

    def test_spec_is_valid_and_round_trips(self):
        spec = piezoelectric_spec()
        spec.validate()
        assert type(spec).from_dict(spec.to_dict()) == spec


class TestElectrostaticTopology:
    def test_runs_with_finite_difference_fallback(self):
        scenario = electrostatic_scenario(duration_s=0.03)
        built = scenario.build_harvester()
        generator = built.block("generator")
        # the block genuinely has no analytic linearisation
        x0 = generator.initial_state()
        assert generator.linearise(0.0, x0, np.zeros(2)) is None
        result = proposed_run(scenario)
        assert np.all(np.isfinite(result["storage_voltage"].values))
        assert result["storage_voltage"].final() > 0.0

    def test_travel_stays_inside_gap(self):
        result = proposed_run(electrostatic_scenario(duration_s=0.05))
        z = result["generator.z"].values
        nominal_gap = 100e-6
        assert np.max(np.abs(z)) < nominal_gap


class TestSpecScenario:
    def test_duck_type_and_copies(self):
        scenario = piezoelectric_scenario(duration_s=0.5)
        assert scenario.scaled(0.1).duration_s == pytest.approx(0.1)
        other = scenario.with_spec(electrostatic_spec())
        assert other.spec.name == "electrostatic_harvester"
        assert other.topology_key() != scenario.topology_key()

    def test_solver_settings_follow_spec_hints(self):
        scenario = piezoelectric_scenario()
        spec = scenario.spec
        settings = scenario_solver_settings(scenario)
        expected_h_max = 1.0 / (
            spec.solver.points_per_period * spec.excitation.frequency_hz
        )
        assert settings.step_control.h_max == pytest.approx(expected_h_max)

    def test_generator_variants_share_name_and_resonance(self):
        variants = generator_variants(70.0)
        assert set(variants) == {"electromagnetic", "piezoelectric", "electrostatic"}
        for block in variants.values():
            assert block.name == "generator"
        # the piezo variant's stiffness places its resonance at 70 Hz
        piezo = variants["piezoelectric"]
        import math

        f = math.sqrt(piezo.params["spring_stiffness"] / 0.008) / (2 * math.pi)
        assert f == pytest.approx(70.0)


def _traces(generator_state, n_stages, probes):
    """Recording order: block states, terminal nets, then the probes."""
    multiplier = ("multiplier.Vin",) + tuple(
        f"multiplier.V{k}" for k in range(1, n_stages + 1)
    )
    return (
        ("generator.z", "generator.velocity", generator_state)
        + multiplier
        + ("storage.Vi", "storage.Vd", "storage.Vl")
        + ("generator_output_V", "generator_output_I", "storage_port_V", "storage_port_I")
        + probes
    )


_PAPER_TRACES = _traces(
    "generator.i_coil",
    5,
    (
        "generator_power",
        "storage_voltage",
        "storage_current",
        "resonant_frequency",
        "ambient_frequency",
        "load_resistance",
        "stored_energy",
        "actuator_gap",
    ),
)
_SPEC_PROBES = ("generator_power", "generator_voltage", "storage_voltage", "storage_current")
#: every named factory's trace names, in recording order
PINNED_TRACES = {
    "scenario_1": _PAPER_TRACES,
    "scenario_2": _PAPER_TRACES,
    "charging": _PAPER_TRACES,
    "piezoelectric_charging": _traces(
        "generator.Vp", 3, _SPEC_PROBES + ("ambient_frequency", "piezo_voltage")
    ),
    "electrostatic_charging": _traces(
        "generator.charge", 3, _SPEC_PROBES + ("ambient_frequency", "plate_charge")
    ),
}


class TestBuiltScenarioTraces:
    @pytest.mark.parametrize("factory", sorted(SCENARIO_FACTORIES))
    def test_build_harvester_records_the_pinned_traces(self, factory):
        scenario = SCENARIO_FACTORIES[factory](duration_s=0.005)
        built = scenario.build_harvester()
        x0 = built.initial_state()
        result = built.build_solver().run(scenario.duration_s)
        assert tuple(result.traces) == PINNED_TRACES[factory]
        if not isinstance(scenario, Scenario):
            # spec-backed topologies carry no component probes
            assert built.component_probes == {}
            return

        storage = built.block("storage")
        energy = result["stored_energy"]
        assert energy.times[0] == 0.0
        assert energy.values[0] == storage.stored_energy_j(
            x0[built.assembler.state_slice("storage")]
        )

        # the pre-tuned gap, from the tuning model the controller would use
        model = paper_system(scenario.config).controller.tuning_model
        f_min, f_max = model.frequency_range()
        initial = scenario.config.initial_tuned_frequency_hz
        expected = model.gap_for_frequency(min(max(initial, f_min), f_max))
        assert result["actuator_gap"].values[0] == expected
        probe = built.component_probes["actuator_gap"]
        if scenario.with_controller:
            # one actuator: the probe reads the controller's own
            assert probe.owner is built.controller.actuator
        else:
            assert built.controller is None
            assert np.all(result["actuator_gap"].values == expected)


class TestSpecFileIO:
    def test_json_save_load_round_trip(self, tmp_path):
        spec = piezoelectric_spec()
        path = save_spec(spec, str(tmp_path / "piezo.json"))
        assert load_spec(path) == spec

    def test_save_rejects_non_json(self, tmp_path):
        with pytest.raises(ConfigurationError, match="JSON"):
            save_spec(piezoelectric_spec(), str(tmp_path / "piezo.toml"))

    def test_toml_load(self, tmp_path):
        pytest.importorskip("tomllib")  # standard library from Python 3.11
        toml_text = """
name = "toml_system"
description = "spec loaded from TOML"

[excitation]
frequency_hz = 70.0
amplitude_ms2 = 0.5

[[blocks]]
key = "piezoelectric_generator"
name = "generator"
[blocks.params]
series_resistance_ohm = 4700.0

[[blocks]]
key = "dickson_multiplier"
name = "multiplier"
[blocks.params]
n_stages = 3

[[blocks]]
key = "supercapacitor"
name = "storage"

[[connections]]
a = "generator"
b = "multiplier"
voltage = ["Vm", "Vm"]
current = ["Im", "Im"]

[[connections]]
a = "multiplier"
b = "storage"
voltage = ["Vc", "Vc"]
current = ["Ic", "Ic"]
"""
        path = tmp_path / "system.toml"
        path.write_text(toml_text)
        spec = load_spec(str(path))
        spec.validate()
        assert spec.name == "toml_system"
        assert spec.block("multiplier").params["n_stages"] == 3
        # a TOML-loaded spec builds and runs
        built = SystemBuilder(spec).build()
        assert built.n_states > 0

    def test_load_unknown_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="format"):
            load_spec(str(path))
