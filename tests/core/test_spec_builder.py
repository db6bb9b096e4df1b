"""Registry, SystemSpec validation/serialisation and SystemBuilder tests.

Covers the declarative system-description layer: schema-checked block
registry, spec validation error paths (unknown keys, duplicate names,
dangling terminals), lossless dict/JSON round-trips, structural topology
hashing, and the headline equivalence guarantee — the spec-built paper
system produces *byte-identical* waveforms to a hand-wired assembly of
the same blocks.
"""

import numpy as np
import pytest

from repro.blocks.microgenerator import ElectromagneticMicrogenerator
from repro.blocks.supercapacitor import Supercapacitor
from repro.blocks.vibration import VibrationSource
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core import (
    BLOCK_REGISTRY,
    BlockRegistry,
    BlockSpec,
    ConnectionSpec,
    ExcitationSpec,
    FrequencyStepSpec,
    Netlist,
    ProbeSpec,
    SystemAssembler,
    SystemBuilder,
    SystemSpec,
)
from repro.core.builder import solver_settings_for_frequency
from repro.core.errors import ConfigurationError, ConnectionError_
from repro.core.solver import LinearisedStateSpaceSolver
from repro.harvester.config import paper_harvester
from repro.harvester.system import default_solver_settings, paper_spec
from repro.harvester.topologies import piezoelectric_scenario


def _minimal_spec(**overrides):
    """A small valid spec (generator -> multiplier -> storage)."""
    fields = dict(
        name="minimal",
        blocks=(
            BlockSpec("piezoelectric_generator", "generator", {}),
            BlockSpec("dickson_multiplier", "multiplier", {"n_stages": 3}),
            BlockSpec("supercapacitor", "storage", {}),
        ),
        connections=(
            ConnectionSpec("generator", "multiplier", ("Vm", "Vm"), ("Im", "Im")),
            ConnectionSpec("multiplier", "storage", ("Vc", "Vc"), ("Ic", "Ic")),
        ),
        excitation=ExcitationSpec(frequency_hz=70.0, amplitude_ms2=0.5),
    )
    fields.update(overrides)
    return SystemSpec(**fields)


class TestRegistry:
    def test_stock_library_keys_present(self):
        keys = BLOCK_REGISTRY.keys()
        for key in (
            "electromagnetic_generator",
            "piezoelectric_generator",
            "electrostatic_generator",
            "dickson_multiplier",
            "supercapacitor",
            "tuning_controller",
            "vibration_source",
        ):
            assert key in keys

    def test_unknown_key_names_key_and_lists_options(self):
        with pytest.raises(ConfigurationError, match="no_such_block"):
            BLOCK_REGISTRY.get("no_such_block")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus_param"):
            BLOCK_REGISTRY.validate_params(
                "supercapacitor", {"bogus_param": 1.0}
            )

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="proof_mass_kg"):
            BLOCK_REGISTRY.validate_params("electromagnetic_generator", {})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="n_stages"):
            BLOCK_REGISTRY.validate_params(
                "dickson_multiplier", {"n_stages": "five"}
            )

    def test_defaults_applied(self):
        params = BLOCK_REGISTRY.validate_params("supercapacitor", {})
        assert params["immediate_resistance_ohm"] == pytest.approx(2.5)

    def test_role_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="role"):
            BLOCK_REGISTRY.get("tuning_controller", expect_role="analogue")

    def test_analogue_entry_must_declare_terminals(self):
        registry = BlockRegistry()
        with pytest.raises(ConfigurationError, match="'bare'.*terminals"):
            registry.register("bare", lambda name, params, context: None)
        with pytest.raises(ConfigurationError, match="'flux'.*'magnetic'"):
            registry.register(
                "flux",
                lambda name, params, context: None,
                terminals=(("V", "voltage"), ("phi", "magnetic")),
            )
        registry.register(
            "source_only", lambda name, params, context: None, role="source"
        )
        assert registry.keys() == ["source_only"]


class TestSpecValidation:
    def test_valid_spec_passes(self):
        _minimal_spec().validate()

    def test_unknown_block_key(self):
        spec = _minimal_spec(
            blocks=(
                BlockSpec("warp_drive", "generator", {}),
                BlockSpec("dickson_multiplier", "multiplier", {"n_stages": 3}),
                BlockSpec("supercapacitor", "storage", {}),
            )
        )
        with pytest.raises(ConfigurationError, match="warp_drive"):
            spec.validate()

    def test_duplicate_block_name(self):
        spec = _minimal_spec(
            blocks=(
                BlockSpec("piezoelectric_generator", "generator", {}),
                BlockSpec("dickson_multiplier", "generator", {"n_stages": 3}),
                BlockSpec("supercapacitor", "storage", {}),
            )
        )
        with pytest.raises(ConfigurationError, match="duplicate block name 'generator'"):
            spec.validate()

    def test_dangling_terminal_named_in_error(self):
        spec = _minimal_spec(
            connections=(
                ConnectionSpec("generator", "multiplier", ("Vxx", "Vm"), ("Im", "Im")),
                ConnectionSpec("multiplier", "storage", ("Vc", "Vc"), ("Ic", "Ic")),
            )
        )
        with pytest.raises(ConnectionError_, match="generator.Vxx"):
            spec.validate()

    def test_connection_to_unknown_block(self):
        spec = _minimal_spec(
            connections=(
                ConnectionSpec("generator", "rectifier", ("Vm", "Vm"), ("Im", "Im")),
            )
        )
        with pytest.raises(ConnectionError_, match="rectifier"):
            spec.validate()

    def test_bad_block_parameter_names_block(self):
        spec = _minimal_spec(
            blocks=(
                BlockSpec("piezoelectric_generator", "generator", {"mass": 1.0}),
                BlockSpec("dickson_multiplier", "multiplier", {"n_stages": 3}),
                BlockSpec("supercapacitor", "storage", {}),
            )
        )
        with pytest.raises(ConfigurationError, match="block 'generator'"):
            spec.validate()

    def test_probe_with_unknown_terminal(self):
        spec = _minimal_spec(
            probes=(ProbeSpec("p", "terminal", "storage", ("Vzz",)),)
        )
        with pytest.raises(ConnectionError_, match="storage.Vzz"):
            spec.validate()

    def test_unknown_probe_kind(self):
        spec = _minimal_spec(probes=(ProbeSpec("p", "voltage", "storage", ("Vc",)),))
        with pytest.raises(ConfigurationError, match="probe 'p'"):
            spec.validate()

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="no blocks"):
            SystemSpec(name="empty", blocks=()).validate()


def _stepped_spec():
    """The minimal spec under a scheduled two-step excitation."""
    steps = (
        FrequencyStepSpec(time=0.1, frequency_hz=72.0),
        FrequencyStepSpec(time=0.2, frequency_hz=68.0, amplitude_ms2=0.4),
    )
    return _minimal_spec(
        excitation=ExcitationSpec(frequency_hz=70.0, amplitude_ms2=0.5, steps=steps)
    )


class TestSpecSerialisation:
    @pytest.mark.parametrize("make_spec", [_minimal_spec, paper_spec, _stepped_spec])
    def test_dict_round_trip(self, make_spec):
        spec = make_spec()
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_paper(self):
        spec = paper_spec()
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_unknown_dict_field_rejected(self):
        data = _minimal_spec().to_dict()
        data["blobs"] = []
        with pytest.raises(ConfigurationError, match="blobs"):
            SystemSpec.from_dict(data)

    def test_round_trip_preserves_validation(self):
        spec = SystemSpec.from_dict(paper_spec().to_dict())
        spec.validate()  # must not raise

    def test_with_block_params_round_trip(self):
        spec = _minimal_spec().with_block_params("multiplier", {"n_stages": 4})
        assert spec.block("multiplier").params["n_stages"] == 4
        assert SystemSpec.from_dict(spec.to_dict()) == spec


class TestTopologyHash:
    def test_param_only_change_keeps_hash(self):
        a = _minimal_spec()
        b = a.with_block_params("storage", {"initial_voltage_v": 2.0})
        assert a.topology_hash() == b.topology_hash()

    def test_structural_param_changes_hash(self):
        a = _minimal_spec()
        b = a.with_block_params("multiplier", {"n_stages": 4})
        assert a.topology_hash() != b.topology_hash()

    def test_block_key_changes_hash(self):
        a = _minimal_spec()
        b = a.with_block(BlockSpec("electrostatic_generator", "generator", {}))
        assert a.topology_hash() != b.topology_hash()

    def test_excitation_change_keeps_hash(self):
        a = _minimal_spec()
        b = a.with_excitation(frequency_hz=99.0)
        assert a.topology_hash() == b.topology_hash()


def _hand_wired_paper_solver(cfg, duration_ignored=None):
    """The legacy hand-wiring of the paper system (no controller)."""
    source = VibrationSource(cfg.excitation.frequency_hz, cfg.excitation.amplitude_ms2)
    generator = ElectromagneticMicrogenerator(
        cfg.generator, source.acceleration, name="generator"
    )
    multiplier = DicksonMultiplier(
        n_stages=cfg.multiplier_stages,
        stage_capacitance_f=cfg.multiplier_capacitance_f,
        output_capacitance_f=cfg.multiplier_output_capacitance_f,
        input_capacitance_f=cfg.multiplier_input_capacitance_f,
        diode_params=cfg.diode,
        name="multiplier",
    )
    storage = Supercapacitor(
        params=cfg.supercapacitor,
        load_profile=cfg.load_profile,
        initial_voltage_v=cfg.initial_storage_voltage_v,
        name="storage",
    )
    netlist = Netlist()
    netlist.add_block(generator)
    netlist.add_block(multiplier)
    netlist.add_block(storage)
    netlist.connect_port(
        generator,
        multiplier,
        voltage=("Vm", "Vm"),
        current=("Im", "Im"),
        net_prefix="generator_output",
    )
    netlist.connect_port(
        multiplier,
        storage,
        voltage=("Vc", "Vc"),
        current=("Ic", "Ic"),
        net_prefix="storage_port",
    )
    assembler = SystemAssembler(netlist)
    solver = LinearisedStateSpaceSolver(
        assembler=assembler,
        settings=default_solver_settings(cfg.excitation.frequency_hz),
    )
    idx_vm = assembler.net_index("generator", "Vm")
    idx_im = assembler.net_index("generator", "Im")
    idx_vc = assembler.net_index("storage", "Vc")
    solver.add_probe("generator_power", lambda t, x, y: float(y[idx_vm] * y[idx_im]))
    solver.add_probe("storage_voltage", lambda t, x, y: float(y[idx_vc]))
    return solver


class TestBuilderEquivalence:
    def test_spec_built_paper_system_matches_hand_wiring_byte_identically(self):
        cfg = paper_harvester().with_initial_storage_voltage(0.0).with_initial_tuning(None)

        hand = _hand_wired_paper_solver(cfg)
        hand_result = hand.run(0.1)

        built = SystemBuilder(paper_spec(cfg, with_controller=False)).build()
        solver = built.build_solver(
            settings=default_solver_settings(cfg.excitation.frequency_hz)
        )
        spec_result = solver.run(0.1)

        for trace in ("storage_voltage", "generator_power"):
            assert np.array_equal(
                hand_result[trace].times, spec_result[trace].times
            ), f"{trace}: time grids differ"
            assert np.array_equal(
                hand_result[trace].values, spec_result[trace].values
            ), f"{trace}: waveforms differ"

    def test_builder_rejects_mismatched_terminals_role(self):
        spec = _minimal_spec(
            blocks=(
                BlockSpec("vibration_source", "generator", {"frequency_hz": 1.0, "amplitude_ms2": 1.0}),
                BlockSpec("dickson_multiplier", "multiplier", {"n_stages": 3}),
                BlockSpec("supercapacitor", "storage", {}),
            )
        )
        with pytest.raises(ConfigurationError, match="role"):
            SystemBuilder(spec)

    def test_default_solver_settings_alias(self):
        assert default_solver_settings is solver_settings_for_frequency

    def test_spec_scenario_settings_are_the_built_systems(self):
        scenario = piezoelectric_scenario(duration_s=0.01, excitation_frequency_hz=90.0)
        built = scenario.build_harvester()
        assert scenario.solver_settings() == built.default_solver_settings()
        assert scenario.solver_settings().step_control.h_max == pytest.approx(
            1.0 / (scenario.spec.solver.points_per_period * 90.0)
        )
