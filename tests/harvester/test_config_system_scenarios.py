"""Tests for the harvester configuration, system assembly and scenarios."""

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.harvester.config import (
    ExcitationConfig,
    TuningMechanismConfig,
    paper_harvester,
)
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_2,
    scenario_solver_settings,
)
from repro.harvester.system import default_solver_settings, paper_system


class TestHarvesterConfig:
    def test_defaults_are_valid(self):
        config = paper_harvester()
        assert config.generator.untuned_frequency_hz == pytest.approx(64.0)
        assert config.multiplier_stages == 5
        assert config.load_profile.tuning_ohm == pytest.approx(16.7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(paper_harvester(), multiplier_stages=1)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(paper_harvester(), initial_storage_voltage_v=-1.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(paper_harvester(), initial_tuned_frequency_hz=10.0)
        with pytest.raises(ConfigurationError):
            ExcitationConfig(frequency_hz=0.0)
        with pytest.raises(ConfigurationError):
            TuningMechanismConfig(min_gap_m=5e-3, max_gap_m=1e-3)

    def test_with_helpers_return_modified_copies(self):
        config = paper_harvester()
        changed = config.with_excitation(55.0, 0.3)
        assert changed.excitation.frequency_hz == 55.0
        assert changed.excitation.amplitude_ms2 == 0.3
        assert config.excitation.frequency_hz == 70.0  # original untouched
        assert config.with_initial_storage_voltage(1.0).initial_storage_voltage_v == 1.0
        assert config.with_initial_tuning(None).initial_tuned_frequency_hz is None


class TestDefaultSolverSettings:
    def test_step_bounded_by_excitation_period(self):
        settings = default_solver_settings(70.0, points_per_period=40)
        assert settings.step_control.h_max == pytest.approx(1.0 / 2800.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_solver_settings(0.0)
        with pytest.raises(ConfigurationError):
            default_solver_settings(70.0, points_per_period=2)


class TestPaperSystem:
    def test_assembled_model_size(self):
        harvester = paper_system()
        # 3 generator + 6 multiplier (Vin + 5 stages) + 3 supercapacitor
        assert harvester.n_states == 12
        assert harvester.assembler.n_terminals == 4
        assert set(harvester.assembler.net_names()) == {
            "generator_output_V",
            "generator_output_I",
            "storage_port_V",
            "storage_port_I",
        }

    def test_initial_tuning_applied(self):
        harvester = paper_system()
        generator = harvester.block("generator")
        assert generator.resonant_frequency_hz == pytest.approx(70.0, abs=0.01)
        controller = harvester.controller
        assert controller.actuator.position_m == pytest.approx(
            controller.tuning_model.gap_for_frequency(70.0)
        )

    def test_initial_state_includes_precharge(self):
        config = paper_harvester().with_initial_storage_voltage(2.5)
        harvester = paper_system(config)
        x0 = harvester.initial_state()
        storage = harvester.assembler.state_slice("storage")
        assert x0[storage] == pytest.approx([2.5, 2.5, 2.5])

    def test_without_controller_has_no_kernel(self):
        harvester = paper_system(with_controller=False)
        assert harvester.controller is None
        solver = harvester.build_solver()
        assert solver.digital_kernel is None

    @pytest.mark.parametrize("frequency_hz", [60.0, 70.0, 83.5])
    def test_default_settings_are_the_built_systems(self, frequency_hz):
        # one derivation: the solver's default is the built system's, and
        # that is the frequency rule for the configured excitation
        config = paper_harvester().with_excitation(frequency_hz=frequency_hz)
        harvester = paper_system(config)
        settings = harvester.build_solver().settings
        assert settings == harvester.default_solver_settings()
        assert settings == default_solver_settings(frequency_hz)

    def test_solver_wiring(self):
        harvester = paper_system()
        solver = harvester.build_solver()
        assert set(solver.interface.probe_names()) == {
            "ambient_frequency",
            "resonant_frequency",
            "storage_voltage",
        }
        assert set(solver.interface.control_names()) == {
            "load_resistance",
            "tuning_force",
        }
        assert solver.digital_kernel is not None

    def test_baseline_solver_shares_wiring(self):
        harvester = paper_system()
        solver = harvester.build_baseline_solver()
        assert "storage_voltage" in solver.interface.probe_names()

    def test_pretuning_below_untuned_frequency_rejected(self):
        config = paper_harvester()
        config = dataclasses.replace(config, initial_tuned_frequency_hz=64.0)
        config = config.with_excitation(50.0)
        # excitation below range is fine; the config itself refuses a
        # pre-tuning below the un-tuned frequency, before any build
        with pytest.raises(ConfigurationError, match="below the un-tuned"):
            config.with_initial_tuning(63.0)


class TestScenarios:
    def test_scenario_1_definition(self):
        scenario = scenario_1()
        assert scenario.config.excitation.frequency_hz == pytest.approx(70.0)
        assert scenario.frequency_steps[0].frequency_hz == pytest.approx(71.0)
        assert scenario.with_controller
        assert "Table II" in scenario.paper_reference

    def test_scenario_2_covers_the_maximum_tuning_range(self):
        scenario = scenario_2()
        assert scenario.config.excitation.frequency_hz == pytest.approx(64.0)
        shift = scenario.frequency_steps[0].frequency_hz - 64.0
        assert shift == pytest.approx(14.0)

    def test_charging_scenario_is_open_loop(self):
        scenario = charging_scenario()
        assert not scenario.with_controller
        assert scenario.config.initial_storage_voltage_v == 0.0

    def test_paper_timescale_variants_are_slower(self):
        fast = scenario_1()
        slow = scenario_1(paper_timescale=True)
        assert slow.duration_s > fast.duration_s
        assert (
            slow.config.controller.watchdog_period_s
            > fast.config.controller.watchdog_period_s
        )

    def test_build_harvester_returns_fresh_instances(self):
        scenario = scenario_1()
        first = scenario.build_harvester()
        second = scenario.build_harvester()
        assert first is not second
        assert first.controller is not second.controller

    def test_solver_settings_resolve_the_highest_scheduled_frequency(self):
        # the step limit follows the 78 Hz step, not the 64 Hz excitation
        scenario = scenario_2()
        assert scenario.solver_settings() == default_solver_settings(78.0)
        assert scenario_solver_settings(scenario) == scenario.solver_settings()

    def test_scaled_copy(self):
        scenario = scenario_1().scaled(1.5)
        assert scenario.duration_s == pytest.approx(1.5)

    def test_source_reflects_frequency_schedule(self):
        scenario = scenario_1(shift_time_s=0.5)
        source = scenario.build_source()
        assert source.frequency(0.1) == pytest.approx(70.0)
        assert source.frequency(0.9) == pytest.approx(71.0)
