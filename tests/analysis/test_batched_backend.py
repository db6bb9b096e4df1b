"""Engine-level tests of lane-block sweeps (the one sweep dispatch)."""

import logging
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import RunOptions, Study
from repro.analysis.engine import DEFAULT_MAX_LANES, SweepEngine
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


class TestLanesMatchTheScalarPath:
    def test_fixed_step_scores_identical_to_the_scalar_path(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        serial = sweep.options(RunOptions(lane_width=1, settings=settings)).run()
        batched = sweep.options(RunOptions(settings=settings)).run()
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # byte-identical waveforms
        info = batched.engine_info
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 4  # runtime truth, not planning

    def test_adaptive_scores_identical_to_the_scalar_path(self):
        sweep = make_sweep()
        serial = sweep.options(lane_width=1).run()
        batched = sweep.run()
        assert batched.engine_info.n_batched_candidates == 4
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # each lane is its scalar run

    def test_lane_width_splits_blocks_without_changing_results(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        whole = sweep.options(RunOptions(settings=settings)).run()
        split = sweep.options(RunOptions(lane_width=2, settings=settings)).run()
        assert split.engine_info.n_lane_blocks == 2
        for ref, got in zip(whole.points, split.points):
            assert got.score == ref.score

    def test_controller_candidates_march_as_lanes(self):
        # scenario_1 runs the digital tuning controller: every candidate
        # marches as a lane with its own events and scores exactly as its
        # scalar run
        sweep = Study.scenario(scenario_1(duration_s=0.05)).sweep(
            {"excitation_frequency_hz": [70.0, 70.5]},
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        serial = sweep.options(lane_width=1).run()
        batched = sweep.run()
        for ref, got in zip(serial.points, batched.points):
            assert got.score == ref.score
        info = batched.engine_info
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 2

    def test_lane_width_one_counts_every_candidate_as_a_fallback(self):
        info = make_sweep().options(lane_width=1).run().engine_info
        assert info.n_lane_blocks == 0
        assert info.n_batch_fallbacks == 4
        assert info.n_batched_candidates == 0

    def test_batched_composes_with_worker_processes(self):
        sweep = make_sweep()
        settings = fixed_step(sweep)
        serial = sweep.options(RunOptions(settings=settings)).run()
        parallel = sweep.options(RunOptions(n_workers=2, settings=settings)).run()
        assert parallel.engine_info.parallel
        assert parallel.engine_info.n_lane_blocks == 2  # one block per worker
        for ref, got in zip(serial.points, parallel.points):
            assert got.score == ref.score


class TestLanePlan:
    @staticmethod
    def _tasks(n):
        scenario = SimpleNamespace(topology_key=lambda: ("one topology",))
        return [SimpleNamespace(index=i, scenario=scenario) for i in range(n)]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_default_width_is_capped(self, n_workers):
        engine = SweepEngine(RunOptions(n_workers=n_workers))
        blocks = engine._plan_lane_blocks(self._tasks(150))
        assert DEFAULT_MAX_LANES == 64
        assert [len(block) for block in blocks] == [64, 64, 22]
        assert [task.index for block in blocks for task in block] == list(
            range(150)
        )

    def test_explicit_width_is_not_capped(self):
        engine = SweepEngine(RunOptions(lane_width=100))
        blocks = engine._plan_lane_blocks(self._tasks(150))
        assert [len(block) for block in blocks] == [100, 50]


class TestScalarPathLogging:
    """Every scalar-path decision of a sweep is one DEBUG record."""

    @staticmethod
    def _messages(caplog):
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.engine"
        ]

    def test_singleton_blocks_are_logged_per_block(self, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.engine")
        make_sweep().options(RunOptions(lane_width=1)).run()
        messages = self._messages(caplog)
        assert len(messages) == 4
        assert all("lane block of one: scalar path" in m for m in messages)

    def test_failing_candidate_build_fails_like_the_scalar_path(self, caplog):
        # no degrade-to-scalar branch: a lane block ends in batched scores
        # or raises what the candidate's own scalar run raises
        caplog.set_level(logging.DEBUG, logger="repro.engine")
        # the spec sweep plans every candidate; the middle one's
        # multiplier refuses its capacitance only when it is built
        sweep = Study.scenario(piezoelectric_scenario(duration_s=0.01)).sweep(
            {"multiplier.stage_capacitance_f": [1e-6, -1e-6, 2e-6]}
        )
        errors = []
        for options in (RunOptions(lane_width=1), RunOptions()):
            caplog.clear()
            with pytest.raises(ConfigurationError) as caught:
                sweep.options(options).run()
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert "stage capacitances must be positive" in errors[1][1]
        # the lane sweep logged no scalar-path decision on the way
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
            sweep.options(RunOptions(n_workers=1)).run()
        (message,) = self._messages(caplog)
        assert message.startswith("lane 1 (candidate 1, ")
        assert "'excitation_frequency_hz': 72.0" in message
        assert "controller fault" in message
        assert "exact scalar re-run" in message
