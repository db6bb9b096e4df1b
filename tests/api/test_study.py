"""Study dispatch: single runs, comparisons, sweeps, plans, result wrappers."""

import numpy as np
import pytest

from repro import (
    ParameterSweep,
    RunOptions,
    Study,
    charging_scenario,
)
from repro.api import ComparisonResult, ExecutionPlan, RunHandle, StudyResult
from repro.api.planner import execute_sweep
from repro.baselines import ImplicitSolverSettings
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import _simulate_proposed

DURATION_S = 0.03
GRID = {"excitation_frequency_hz": [68.0, 70.0]}


def scenario():
    return charging_scenario(duration_s=DURATION_S)


class TestSingleRun:
    def test_run_returns_handle_matching_the_primitive(self):
        handle = Study.scenario(scenario()).run()
        assert isinstance(handle, RunHandle)
        direct = _simulate_proposed(scenario())
        assert np.array_equal(
            handle["storage_voltage"].values, direct["storage_voltage"].values
        )

    def test_handle_access_and_summary(self):
        handle = Study.scenario(scenario()).run()
        assert "storage_voltage" in handle
        assert handle.final("storage_voltage") == handle[
            "storage_voltage"
        ].final()
        assert "generator_power" in handle.trace_names()
        summary = handle.summary()
        assert summary["scenario"] == "charging"
        assert summary["cpu_time_s"] > 0
        assert "solver" in handle.format()

    def test_export_csv_roundtrip(self, tmp_path):
        from repro.io import import_traces

        handle = Study.scenario(scenario()).run()
        path = handle.export_csv(
            tmp_path / "run.csv", trace_names=["storage_voltage"], n_samples=50
        )
        assert "storage_voltage" in import_traces(path)

    def test_fast_profile_changes_run_but_still_completes(self):
        exact = Study.scenario(scenario()).run()
        fast = Study.scenario(scenario()).options(RunOptions.fast()).run()
        assert fast.stats.final_time == pytest.approx(exact.stats.final_time)

    def test_options_keyword_overrides(self):
        study = Study.scenario(scenario()).options(relinearise_interval=2)
        assert study._options.relinearise_interval == 2

    def test_scenario_required(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            Study.scenario(object())

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError, match="solver"):
            Study.scenario(scenario()).solver("spice")

    def test_proposed_solver_kwargs_rejected_not_silently_dropped(self):
        from repro.core import RungeKutta4

        with pytest.raises(ConfigurationError, match="RunOptions"):
            Study.scenario(scenario()).solver("proposed", integrator=RungeKutta4())

    def test_sweep_only_options_rejected_at_plan_time(self):
        study = Study.scenario(scenario()).options(RunOptions(lane_width=2))
        with pytest.raises(ConfigurationError, match="lane_width"):
            study.plan()

    def test_proposed_knobs_rejected_for_baseline_solver(self):
        study = (
            Study.scenario(scenario())
            .options(RunOptions.fast())
            .solver("baseline")
        )
        with pytest.raises(ConfigurationError, match="relinearise_interval"):
            study.run()


class TestCompare:
    def test_compare_runs_both_solvers(self):
        comparison = (
            Study.scenario(scenario())
            .compare(
                "proposed",
                "baseline",
                settings=ImplicitSolverSettings(
                    step_size=2e-4, record_interval=1e-3
                ),
            )
            .run()
        )
        assert isinstance(comparison, ComparisonResult)
        assert comparison.solvers() == ["proposed", "baseline"]
        assert comparison["proposed"].stats.n_accepted_steps > 0
        assert comparison["baseline"].stats.n_newton_iterations > 0
        assert comparison.speedup() > 0
        assert "speedup" in comparison.summary()
        assert "CPU time" in comparison.format()

    def test_compare_defaults_and_duplicate_rejection(self):
        study = Study.scenario(scenario()).compare()
        assert study._compare_solvers == ("proposed", "baseline")
        with pytest.raises(ConfigurationError, match="distinct"):
            Study.scenario(scenario()).compare("proposed", "proposed")

    def test_compare_kwargs_with_several_non_proposed_solvers_rejected(self):
        with pytest.raises(ConfigurationError, match="non-proposed"):
            Study.scenario(scenario()).compare(
                "baseline",
                "reference",
                settings=ImplicitSolverSettings(step_size=2e-4),
            )

    def test_reference_solver_rejects_unknown_kwargs(self):
        study = Study.scenario(scenario()).solver("reference", rtol=1e-7)
        with pytest.raises(ConfigurationError, match="rtol"):
            study.run()

    def test_baseline_solver_rejects_unknown_kwargs_before_building(self, monkeypatch):
        from repro.api import planner

        def never(*args, **kwargs):
            raise AssertionError("the baseline was built")

        monkeypatch.setattr(planner, "_simulate_baseline", never)
        study = Study.scenario(scenario()).solver("baseline", max_iterations=40)
        with pytest.raises(ConfigurationError) as info:
            study.run()
        message = str(info.value)
        assert "max_iterations" in message
        assert "'formula'" in message and "'settings'" in message

    def test_missing_solver_lookup_raises_keyerror(self):
        comparison = ComparisonResult(
            {"proposed": Study.scenario(scenario()).run()}
        )
        with pytest.raises(KeyError, match="available"):
            comparison["baseline"]


class TestSweep:
    def test_sweep_matches_engine_path_exactly(self):
        facade = Study.scenario(scenario()).sweep(GRID).run()
        assert isinstance(facade, StudyResult)
        raw = execute_sweep(
            ParameterSweep(scenario(), GRID), RunOptions()
        ).result
        assert [p.score for p in facade.points] == [p.score for p in raw.points]

    def test_sweep_axes_by_keyword(self):
        result = (
            Study.scenario(scenario())
            .sweep(excitation_frequency_hz=[68.0, 70.0])
            .run()
        )
        assert len(result.points) == 2

    def test_sweep_axis_given_twice_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            Study.scenario(scenario()).sweep(
                GRID, excitation_frequency_hz=[70.0]
            )

    def test_lane_width_through_options(self):
        result = (
            Study.scenario(scenario())
            .options(RunOptions(lane_width=2))
            .sweep(GRID)
            .run()
        )
        assert result.engine_info.n_lane_blocks == 1
        assert result.engine_info.n_batched_candidates == 2

    def test_custom_metric_gets_named(self):
        from repro.analysis import average_power_metric

        result = (
            Study.scenario(scenario())
            .sweep(GRID, metric=average_power_metric)
            .run()
        )
        assert result.metric_name == "average_power_metric"

    def test_study_result_summary_and_export(self, tmp_path):
        result = Study.scenario(scenario()).sweep(GRID).run()
        summary = result.summary()
        assert summary["n_candidates"] == 2
        assert "backend" not in summary
        assert summary["n_workers"] == 1
        path = result.export_csv(tmp_path / "ranking.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("rank,")
        assert len(lines) == 3  # header + 2 candidates
        # best first: scores descending
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_sweep_with_compare_or_other_solver_rejected(self):
        with pytest.raises(ConfigurationError, match="compare"):
            Study.scenario(scenario()).sweep(GRID).compare().plan()
        with pytest.raises(ConfigurationError, match="solver"):
            Study.scenario(scenario()).sweep(GRID).solver("baseline").plan()


class TestPlan:
    def test_plan_kinds_and_describe(self):
        single = Study.scenario(scenario()).plan()
        assert isinstance(single, ExecutionPlan)
        assert single.kind == "single"
        assert "charging" in single.describe()

        sweep = Study.scenario(scenario()).sweep(GRID).plan()
        assert sweep.kind == "sweep"
        assert "excitation_frequency_hz[2]" in sweep.describe()

        compare = Study.scenario(scenario()).compare().plan()
        assert compare.kind == "compare"
        assert "baseline" in compare.describe()

    def test_fluent_steps_do_not_mutate(self):
        base = Study.scenario(scenario())
        base.options(RunOptions.fast())
        base.sweep(GRID)
        assert base.plan().kind == "single"
        assert base._options == RunOptions()
