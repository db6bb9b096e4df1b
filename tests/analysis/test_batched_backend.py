"""Engine-level tests of the batched lane-parallel backend."""

import logging
from dataclasses import replace

import pytest

from repro import RunOptions, Study
from repro.analysis.sweep import average_power_metric
from repro.blocks.microcontroller import TuningController
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_solver_settings,
)
from repro.harvester.topologies import piezoelectric_scenario


def make_sweep(duration_s=0.05, frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59)):
    return Study.scenario(charging_scenario(duration_s=duration_s)).sweep(
        {
            "excitation_frequency_hz": list(frequencies),
            "excitation_amplitude_ms2": list(amplitudes),
        },
        metric=average_power_metric,
        metric_name="average_power_W",
    )


def fixed_step(sweep, h=1e-4):
    """Solver settings pinning the sweep's base scenario to a fixed step."""
    return replace(scenario_solver_settings(sweep.plan().scenario), fixed_step=h)


class TestBatchedBackendParity:
    def test_fixed_step_scores_identical_to_process_backend(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        serial = sweep.options(RunOptions(settings=settings)).run()
        batched = sweep.options(RunOptions.batched(settings=settings)).run()
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # byte-identical waveforms
        info = batched.engine_info
        assert info.backend == "batched"
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 4  # runtime truth, not planning

    def test_adaptive_scores_identical_to_process_backend(self):
        sweep = make_sweep()
        serial = sweep.run()
        batched = sweep.options(RunOptions.batched()).run()
        assert batched.engine_info.n_batched_candidates == 4
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # each lane is its scalar run

    def test_lane_width_splits_blocks_without_changing_results(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        whole = sweep.options(RunOptions.batched(settings=settings)).run()
        split = sweep.options(
            RunOptions.batched(lane_width=2, settings=settings)
        ).run()
        assert split.engine_info.n_lane_blocks == 2
        for ref, got in zip(whole.points, split.points):
            assert got.score == ref.score

    def test_controller_candidates_march_as_lanes(self):
        # scenario_1 runs the digital tuning controller: every candidate
        # marches as a lane with its own events and scores exactly as the
        # process backend's scalar run
        sweep = Study.scenario(scenario_1(duration_s=0.05)).sweep(
            {"excitation_frequency_hz": [70.0, 70.5]},
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        serial = sweep.run()
        batched = sweep.options(RunOptions.batched()).run()
        for ref, got in zip(serial.points, batched.points):
            assert got.score == ref.score
        info = batched.engine_info
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            RunOptions(backend="gpu")

    def test_batched_composes_with_worker_processes(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        serial = sweep.options(RunOptions.batched(settings=settings)).run()
        parallel = sweep.options(
            RunOptions.batched(n_workers=2, settings=settings)
        ).run()
        assert parallel.engine_info.parallel
        assert parallel.engine_info.n_lane_blocks == 2  # one block per worker
        for ref, got in zip(serial.points, parallel.points):
            assert got.score == ref.score


class TestScalarPathLogging:
    """Every scalar-path decision of the batched backend is one DEBUG record."""

    @staticmethod
    def _messages(caplog):
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.engine"
        ]

    def test_singleton_blocks_are_logged_per_block(self, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.engine")
        make_sweep().options(RunOptions.batched(lane_width=1)).run()
        messages = self._messages(caplog)
        assert len(messages) == 4
        assert all("lane block of one: scalar path" in m for m in messages)

    def test_failing_candidate_build_fails_like_the_process_sweep(self, caplog):
        # no degrade-to-scalar branch: a lane block ends in batched scores
        # or raises what the candidate's own scalar run raises
        caplog.set_level(logging.DEBUG, logger="repro.engine")
        # the spec sweep plans every candidate; the middle one's
        # multiplier refuses its capacitance only when it is built
        sweep = Study.scenario(piezoelectric_scenario(duration_s=0.01)).sweep(
            {"multiplier.stage_capacitance_f": [1e-6, -1e-6, 2e-6]}
        )
        errors = []
        for options in (RunOptions(), RunOptions.batched()):
            caplog.clear()
            with pytest.raises(ConfigurationError) as caught:
                sweep.options(options).run()
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert "stage capacitances must be positive" in errors[1][1]
        # the batched sweep logged no scalar-path decision on the way
        assert self._messages(caplog) == []

    def test_retired_lane_rerun_is_logged_with_lane_and_reason(
        self, caplog, monkeypatch
    ):
        execute = TuningController.execute

        def faulty_above_71_hz(self, t, analogue):
            if analogue.read("ambient_frequency") > 71.0:
                raise RuntimeError("controller fault")
            return execute(self, t, analogue)

        monkeypatch.setattr(TuningController, "execute", faulty_above_71_hz)
        caplog.set_level(logging.DEBUG, logger="repro.engine")
        sweep = Study.scenario(scenario_1(duration_s=0.02)).sweep(
            {"excitation_frequency_hz": [69.0, 72.0, 70.0]}
        )
        with pytest.raises(RuntimeError, match="controller fault"):
            sweep.options(RunOptions.batched(n_workers=1)).run()
        (message,) = self._messages(caplog)
        assert message.startswith("lane 1 (candidate 1, ")
        assert "'excitation_frequency_hz': 72.0" in message
        assert "controller fault" in message
        assert "exact scalar re-run" in message


class TestCheckpointGuard:
    def test_resume_with_same_grid_and_backend_is_accepted(self, tmp_path):
        path = tmp_path / "ckpt.csv"
        sweep = make_sweep().options(
            RunOptions.batched(checkpoint_path=str(path))
        )
        first = sweep.run()
        resumed = sweep.run()
        assert resumed.engine_info.n_resumed == 4
        assert resumed.engine_info.n_evaluated == 0
        for ref, got in zip(first.points, resumed.points):
            assert got.score == ref.score

    def test_process_checkpoint_resumes_on_the_batched_backend(self, tmp_path):
        # the backend never changes a score, so it is not part of what a
        # checkpoint must match: the two candidates the truncated process
        # checkpoint lacks march as batched lanes
        path = tmp_path / "ckpt.csv"
        sweep = make_sweep()
        first = sweep.options(checkpoint_path=str(path)).run()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))  # magic, header, two rows
        resumed = sweep.options(
            RunOptions.batched(checkpoint_path=str(path))
        ).run()
        assert resumed.engine_info.n_resumed == 2
        assert resumed.engine_info.n_batched_candidates == 2
        assert [p.score.hex() for p in resumed.points] == [
            p.score.hex() for p in first.points
        ]

    def test_resume_with_changed_grid_values_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.csv")
        make_sweep().options(checkpoint_path=path).run()
        reshaped = make_sweep(frequencies=(64.0, 70.0))
        with pytest.raises(ConfigurationError, match="different sweep"):
            reshaped.options(checkpoint_path=path).run()

    def test_resume_with_changed_base_config_raises(self, tmp_path):
        # same grid axes, different base scenario (duration): the config
        # hash must refuse to stitch the stale scores in
        path = str(tmp_path / "ckpt.csv")
        make_sweep(duration_s=0.05).options(checkpoint_path=path).run()
        with pytest.raises(ConfigurationError, match="different sweep"):
            make_sweep(duration_s=0.02).options(checkpoint_path=path).run()
