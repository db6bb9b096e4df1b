"""Engine-level tests of the batched lane-parallel backend."""

from dataclasses import replace

import pytest

from repro.analysis.engine import SweepEngine
from repro.analysis.sweep import ParameterSweep, average_power_metric
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_solver_settings,
)


def make_sweep(duration_s=0.05, frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59)):
    scenario = charging_scenario(duration_s=duration_s)
    return ParameterSweep(
        scenario,
        {
            "excitation_frequency_hz": list(frequencies),
            "excitation_amplitude_ms2": list(amplitudes),
        },
        metric=average_power_metric,
        metric_name="average_power_W",
    )


class TestBatchedBackendParity:
    def test_fixed_step_scores_identical_to_process_backend(self):
        sweep = make_sweep()
        settings = replace(
            scenario_solver_settings(sweep.scenario), fixed_step=1e-4
        )
        serial = SweepEngine(1).run(sweep, settings=settings)
        batched = SweepEngine(1, backend="batched").run(sweep, settings=settings)
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # byte-identical waveforms
        info = batched.engine_info
        assert info.backend == "batched"
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 4  # runtime truth, not planning
        # the default compiled="off" mode marches on the numpy kernel
        assert info.compiled == "off"
        assert info.compiled_backend == "numpy"

    def test_adaptive_scores_within_documented_tolerance(self):
        sweep = make_sweep()
        serial = SweepEngine(1).run(sweep)
        batched = SweepEngine(1, backend="batched").run(sweep)
        for ref, got in zip(serial.points, batched.points):
            assert got.score == pytest.approx(ref.score, rel=0.10)
        assert serial.best().parameters == batched.best().parameters

    def test_lane_width_splits_blocks_without_changing_results(self):
        sweep = make_sweep()
        settings = replace(
            scenario_solver_settings(sweep.scenario), fixed_step=1e-4
        )
        whole = SweepEngine(1, backend="batched").run(sweep, settings=settings)
        split = SweepEngine(1, backend="batched", lane_width=2).run(
            sweep, settings=settings
        )
        assert split.engine_info.n_lane_blocks == 2
        for ref, got in zip(whole.points, split.points):
            assert got.score == ref.score

    def test_controller_candidates_fall_back_to_scalar_path(self):
        # scenario_1 runs the digital tuning controller: the batched
        # backend must route every candidate through the scalar solver and
        # reproduce the process backend exactly
        scenario = scenario_1(duration_s=0.05)
        sweep = ParameterSweep(
            scenario,
            {"excitation_frequency_hz": [70.0, 70.5]},
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        serial = SweepEngine(1).run(sweep)
        batched = SweepEngine(1, backend="batched").run(sweep)
        for ref, got in zip(serial.points, batched.points):
            assert got.score == ref.score
        info = batched.engine_info
        assert info.n_lane_blocks == 0
        assert info.n_batch_fallbacks == 2
        assert info.n_batched_candidates == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SweepEngine(1, backend="gpu")

    def test_batched_composes_with_worker_processes(self):
        sweep = make_sweep()
        settings = replace(
            scenario_solver_settings(sweep.scenario), fixed_step=1e-4
        )
        serial = SweepEngine(1, backend="batched").run(sweep, settings=settings)
        parallel = SweepEngine(2, backend="batched").run(sweep, settings=settings)
        assert parallel.engine_info.parallel
        assert parallel.engine_info.n_lane_blocks == 2  # one block per worker
        for ref, got in zip(serial.points, parallel.points):
            assert got.score == ref.score


class TestCheckpointGuard:
    def test_resume_with_same_grid_and_backend_is_accepted(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        sweep = make_sweep()
        first = SweepEngine(1, backend="batched", checkpoint_path=str(path)).run(
            sweep
        )
        resumed = SweepEngine(1, backend="batched", checkpoint_path=str(path)).run(
            sweep
        )
        assert resumed.engine_info.n_resumed == 4
        assert resumed.engine_info.n_evaluated == 0
        for ref, got in zip(first.points, resumed.points):
            assert got.score == ref.score

    def test_resume_with_different_backend_raises(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        sweep = make_sweep()
        SweepEngine(1, checkpoint_path=str(path)).run(sweep)
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepEngine(1, backend="batched", checkpoint_path=str(path)).run(sweep)

    def test_resume_with_changed_grid_values_raises(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        SweepEngine(1, checkpoint_path=str(path)).run(make_sweep())
        reshaped = make_sweep(frequencies=(64.0, 70.0))
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepEngine(1, checkpoint_path=str(path)).run(reshaped)

    def test_resume_with_changed_base_config_raises(self, tmp_path):
        # same grid axes, different base scenario (duration): the config
        # hash must refuse to stitch the stale scores in
        path = tmp_path / "ckpt.csv"
        SweepEngine(1, checkpoint_path=str(path)).run(make_sweep(duration_s=0.05))
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepEngine(1, checkpoint_path=str(path)).run(
                make_sweep(duration_s=0.02)
            )
