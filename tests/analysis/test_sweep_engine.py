"""Tests for the parallel sweep engine."""

import pytest

from repro import RunOptions, Study
from repro.analysis.engine import SweepEngine
from repro.analysis.sweep import (
    average_power_metric,
    harvested_energy_metric,
    sweep_excitation_frequency,
)
from repro.cache import ResultStore
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import Scenario, charging_scenario


def run_single(scenario, settings=None):
    return Study.scenario(scenario).options(settings=settings).run().result


def make_sweep(
    duration_s=0.05,
    frequencies=(68.0, 70.0),
    amplitudes=(0.4, 0.59),
    metric=average_power_metric,
):
    return Study.scenario(charging_scenario(duration_s=duration_s)).sweep(
        {
            "excitation_frequency_hz": list(frequencies),
            "excitation_amplitude_ms2": list(amplitudes),
        },
        metric=metric,
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


class _Interrupted(Exception):
    pass


def _interrupt(done, total, best):
    raise _Interrupted


class TestResumeThroughCache:
    """An interrupted sweep resumes through the result cache alone.

    The first progress report comes after the first lane block has
    written its entries, so raising from it interrupts the sweep with
    exactly one block stored (serially; a parallel sweep still finishes
    the blocks already running on its workers, but not the queued ones).
    Lane width is not part of any cache key, so a sweep resumes at any
    width.
    """

    @pytest.mark.parametrize(
        "first, second",
        [
            (dict(lane_width=2), dict(lane_width=2)),
            (dict(lane_width=2), dict(lane_width=2, n_workers=2)),
            (dict(lane_width=2, n_workers=2), dict(lane_width=2, n_workers=2)),
            (dict(lane_width=2), dict(lane_width=1)),
            (dict(lane_width=1), {}),
        ],
        ids=[
            "serial",
            "serial_then_workers",
            "workers",
            "serial_then_scalar",
            "scalar_then_lanes",
        ],
    )
    def test_interrupted_sweep_resumes_bitwise(self, tmp_path, first, second):
        cache = dict(cache="readwrite", cache_dir=str(tmp_path))
        uninterrupted = make_sweep().run()
        with pytest.raises(_Interrupted):
            make_sweep().options(
                RunOptions(**first, **cache, progress=_interrupt)
            ).run()
        stats = ResultStore(tmp_path).stats()
        n_stored = stats["n_entries"]
        assert stats["n_corrupt"] == 0
        if first.get("n_workers", 1) == 1:
            assert n_stored == first["lane_width"]
        else:
            assert n_stored >= first["lane_width"]

        resumed = make_sweep().options(RunOptions(**second, **cache)).run()
        assert resumed.engine_info.n_cache_hits == n_stored
        assert resumed.engine_info.n_evaluated == 4 - n_stored
        assert [p.parameters for p in resumed.points] == [
            p.parameters for p in uninterrupted.points
        ]
        assert [p.score for p in resumed.points] == [
            p.score for p in uninterrupted.points
        ]

    def test_interrupted_parallel_sweep_cancels_the_queued_blocks(self, tmp_path):
        # sixteen one-candidate blocks on two workers: the interruption
        # waits for the blocks already running, and the queued ones are
        # never evaluated (nor cached)
        frequencies = [60.0 + i for i in range(16)]
        cache = dict(cache="readwrite", cache_dir=str(tmp_path))

        def sweep():
            return Study.scenario(charging_scenario(duration_s=0.05)).sweep(
                {"excitation_frequency_hz": frequencies}
            )

        with pytest.raises(_Interrupted):
            sweep().options(
                RunOptions(lane_width=1, n_workers=2, progress=_interrupt, **cache)
            ).run()
        n_stored = ResultStore(tmp_path).stats()["n_entries"]
        assert 1 <= n_stored < len(frequencies)

        resumed = sweep().options(RunOptions(lane_width=1, **cache)).run()
        assert resumed.engine_info.n_cache_hits == n_stored
        assert resumed.engine_info.n_evaluated == len(frequencies) - n_stored
        assert [p.score for p in resumed.points] == [
            p.score for p in sweep().run().points
        ]

    @pytest.mark.parametrize("damage", ["torn_write", "truncated_entry"])
    def test_damaged_entry_is_re_evaluated_on_resume(self, tmp_path, damage):
        # a writer killed mid-write leaves only its temporary file (the
        # entry is not there); a damaged entry.json is corrupt, warned
        # about and dropped.  Either way the resume re-evaluates that one
        # candidate and serves the other
        cache = dict(cache="readwrite", cache_dir=str(tmp_path))
        uninterrupted = make_sweep().run()
        with pytest.raises(_Interrupted):
            make_sweep().options(
                RunOptions(lane_width=2, progress=_interrupt, **cache)
            ).run()
        store = ResultStore(tmp_path)
        key = next(key for key, _ in store.entries())
        entry = tmp_path / key[:2] / key / "entry.json"
        text = entry.read_text()
        if damage == "torn_write":
            entry.rename(entry.with_name(".entry.json.tmp4242"))
            assert store.stats()["n_corrupt"] == 1
            resumed = make_sweep().options(RunOptions(**cache)).run()
        else:
            entry.write_text(text[: len(text) // 2])
            with pytest.warns(UserWarning, match="corrupt cache entry"):
                resumed = make_sweep().options(RunOptions(**cache)).run()

        assert resumed.engine_info.n_cache_hits == 1
        assert resumed.engine_info.n_evaluated == 3
        assert [p.score for p in resumed.points] == [
            p.score for p in uninterrupted.points
        ]
        stats = store.stats()
        assert stats["n_corrupt"] == 0
        assert stats["n_points"] == 4

    def test_changed_grid_hits_only_the_shared_candidates(self, tmp_path):
        cache = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
        old = make_sweep(frequencies=(68.0, 70.0)).options(cache).run()
        new = make_sweep(frequencies=(70.0, 75.0)).options(cache).run()
        # same parameter names, one shared frequency (two amplitudes each)
        assert new.engine_info.n_cache_hits == 2
        assert new.engine_info.n_evaluated == 2
        old_scores = {
            tuple(p.parameters.values()): p.score for p in old.points
        }
        for point in new.points:
            key = tuple(point.parameters.values())
            if key in old_scores:
                assert point.score == old_scores[key]

    @pytest.mark.parametrize(
        "options, sweep_kwargs",
        [
            (dict(relinearise_interval=4), {}),
            ({}, dict(metric=harvested_energy_metric)),
            ({}, dict(duration_s=0.02)),
        ],
        ids=["profile", "metric", "base_scenario"],
    )
    def test_changed_sweep_is_served_nothing(
        self, tmp_path, options, sweep_kwargs
    ):
        cache = dict(cache="readwrite", cache_dir=str(tmp_path))
        make_sweep().options(RunOptions(**cache)).run()
        rerun = make_sweep(**sweep_kwargs).options(RunOptions(**options, **cache)).run()
        assert rerun.engine_info.n_cache_hits == 0
        assert rerun.engine_info.n_evaluated == 4


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
