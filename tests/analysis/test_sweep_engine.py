"""Tests for the parallel sweep engine."""

import pytest

from repro import RunOptions, Study
from repro.analysis.engine import SweepEngine
from repro.analysis.sweep import average_power_metric, sweep_excitation_frequency
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import Scenario, charging_scenario
from repro.io.csvio import read_checkpoint


def run_single(scenario, settings=None):
    return Study.scenario(scenario).options(settings=settings).run().result


def make_sweep(duration_s=0.05, frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59)):
    return Study.scenario(charging_scenario(duration_s=duration_s)).sweep(
        {
            "excitation_frequency_hz": list(frequencies),
            "excitation_amplitude_ms2": list(amplitudes),
        },
        metric=average_power_metric,
        metric_name="average_power_W",
    )


class TestOneBuildPerCandidate:
    @pytest.mark.parametrize("options", [RunOptions(lane_width=1), RunOptions()])
    def test_fresh_sweep_builds_each_candidate_once(self, monkeypatch, options):
        """No throwaway build: four candidates, four harvesters, any width."""
        builds = []
        build = Scenario.build_harvester

        def counting_build(self):
            builds.append(self.name)
            return build(self)

        monkeypatch.setattr(Scenario, "build_harvester", counting_build)
        sweep = Study.scenario(charging_scenario(duration_s=0.01)).sweep(
            {"excitation_frequency_hz": [66.0, 68.0, 70.0, 72.0]},
            metric=average_power_metric,
        )
        result = sweep.options(options).run()
        assert len(result.points) == 4
        assert len(builds) == 4


class TestSweepEngineParity:
    def test_parallel_results_identical_to_serial(self):
        """Scores, parameters and ordering must match bit-for-bit."""
        sweep = make_sweep()
        serial = sweep.run()
        parallel = sweep.options(n_workers=2).run()
        assert parallel.engine_info.parallel
        assert len(serial.points) == len(parallel.points) == 4
        for a, b in zip(serial.points, parallel.points):
            assert a.parameters == b.parameters
            assert a.score == b.score  # exact float equality, no tolerance
        assert serial.best().parameters == parallel.best().parameters

    def test_engine_serial_matches_direct_single_run(self):
        """The engine's serial path reproduces the plain per-candidate loop."""
        from dataclasses import replace as dc_replace

        sweep = make_sweep(frequencies=(70.0,), amplitudes=(0.59,))
        engine_result = sweep.run()
        base = sweep.plan().scenario
        scenario = dc_replace(base, config=base.config.with_excitation(70.0, 0.59))
        direct = average_power_metric(run_single(scenario))
        assert engine_result.points[0].score == direct

    def test_deterministic_candidate_ordering(self):
        sweep = make_sweep()
        expected = list(sweep.plan().sweep.candidates())
        result = sweep.options(n_workers=2).run()
        assert [dict(p.parameters) for p in result.points] == expected

    def test_non_picklable_metric_falls_back_to_serial(self):
        sweep = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(n_workers=2)
            .sweep(
                {"excitation_frequency_hz": [69.0, 70.0]},
                metric=lambda result: float(result["storage_voltage"].final()),
                metric_name="final_voltage_V",
            )
        )
        with pytest.warns(UserWarning, match="falling back to serial"):
            result = sweep.run()
        assert not result.engine_info.parallel
        assert len(result.points) == 2

    def test_engine_takes_one_run_options(self):
        with pytest.raises(ConfigurationError, match="RunOptions"):
            SweepEngine(2)
        assert SweepEngine(RunOptions(n_workers=None)).n_workers >= 1


class TestCheckpointResume:
    def test_round_trip_resume_skips_completed(self, tmp_path):
        sweep = make_sweep().options(checkpoint_path=str(tmp_path / "sweep.csv"))
        full = sweep.run()
        assert full.engine_info.n_evaluated == 4

        resumed = sweep.run()
        assert resumed.engine_info.n_resumed == 4
        assert resumed.engine_info.n_evaluated == 0
        assert [p.score for p in resumed.points] == [p.score for p in full.points]

    def test_partial_checkpoint_resumes_remaining(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep = make_sweep().options(checkpoint_path=str(path))
        full = sweep.run()

        # keep the header + magic + first two completed candidates
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))

        resumed = sweep.options(n_workers=2).run()
        assert resumed.engine_info.n_resumed == 2
        assert resumed.engine_info.n_evaluated == 2
        assert [p.score for p in resumed.points] == [p.score for p in full.points]

    def test_torn_final_row_is_skipped(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep = make_sweep().options(checkpoint_path=str(path))
        sweep.run()
        with path.open("a") as handle:
            handle.write("9,0.5")  # torn write: too few cells
        metadata, fieldnames, rows = read_checkpoint(path)
        assert len(rows) == 4  # torn row dropped
        resumed = sweep.run()
        assert resumed.engine_info.n_resumed == 4

    def test_checkpoint_with_same_names_different_values_rejected(self, tmp_path):
        """A reshaped grid must not silently reuse stale indexed scores."""
        path = str(tmp_path / "sweep.csv")
        make_sweep(frequencies=(68.0, 70.0)).options(checkpoint_path=path).run()
        reshaped = make_sweep(frequencies=(75.0, 78.0))  # same parameter names
        with pytest.raises(ConfigurationError, match="different sweep"):
            reshaped.options(checkpoint_path=path).run()

    def test_checkpoint_profile_change_rejected(self, tmp_path):
        """Exact and fast-profile scores must not be mixed in one checkpoint."""
        path = str(tmp_path / "sweep.csv")
        make_sweep().options(checkpoint_path=path).run()
        with pytest.raises(ConfigurationError, match="different sweep"):
            make_sweep().options(checkpoint_path=path, relinearise_interval=4).run()

    def test_checkpoint_of_different_sweep_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        make_sweep().options(checkpoint_path=path).run()
        other = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(checkpoint_path=path)
            .sweep(
                {"excitation_frequency_hz": [70.0]},
                metric=average_power_metric,
                metric_name="other_metric",
            )
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            other.run()

    def test_progress_callback_reports_best(self, tmp_path):
        seen = []
        make_sweep().options(
            progress=lambda done, total, best: seen.append((done, total, best.score))
        ).run()
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)
        # best-so-far score is monotonically non-decreasing
        scores = [s[2] for s in seen]
        assert scores == sorted(scores)


class TestFastProfile:
    def test_relinearise_hold_scores_close_and_ranking_stable(self):
        sweep = make_sweep(duration_s=0.08)
        exact = sweep.run()
        fast = sweep.options(relinearise_interval=3).run()
        assert fast.engine_info.relinearise_interval == 3
        for a, b in zip(fast.points, exact.points):
            assert a.score == pytest.approx(b.score, rel=0.15)
        assert fast.best().parameters == exact.best().parameters

    def test_hold_metadata_reported_by_solver(self):
        from dataclasses import replace

        scenario = charging_scenario(duration_s=0.05)
        from repro.harvester.scenarios import scenario_solver_settings

        settings = replace(scenario_solver_settings(scenario), relinearise_interval=4)
        result = run_single(scenario, settings=settings)
        assert result.metadata["relinearise_interval"] == 4
        assert result.metadata["n_jacobian_reuses"] > 0
        # roughly 3 of 4 steps reuse the held linearisation
        assert result.metadata["n_jacobian_reuses"] >= result.stats.n_steps // 2

    def test_default_interval_has_no_reuses(self):
        scenario = charging_scenario(duration_s=0.05)
        result = run_single(scenario)
        assert result.metadata["relinearise_interval"] == 1
        assert result.metadata["n_jacobian_reuses"] == 0


class TestConvenienceWrappers:
    def test_sweep_excitation_frequency_parallel(self):
        scenario = charging_scenario(duration_s=0.05)
        result = sweep_excitation_frequency(
            scenario, [69.0, 70.0, 71.0], n_workers=2
        )
        assert len(result.points) == 3
        serial = sweep_excitation_frequency(scenario, [69.0, 70.0, 71.0])
        assert [p.score for p in result.points] == [p.score for p in serial.points]
