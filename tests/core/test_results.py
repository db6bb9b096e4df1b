"""Tests for traces, recorders, statistics and result containers."""

import time

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.results import (
    SimulationResult,
    SolverStats,
    Stopwatch,
    Trace,
    TraceRecorder,
    merge_results,
)


class TestTrace:
    def test_append_and_read(self):
        trace = Trace("v", unit="V")
        trace.append(0.0, 1.0)
        trace.append(1.0, 3.0)
        assert len(trace) == 2
        assert trace.times == pytest.approx([0.0, 1.0])
        assert trace.values == pytest.approx([1.0, 3.0])
        assert trace.final() == pytest.approx(3.0)

    def test_non_monotonic_time_rejected(self):
        trace = Trace("v")
        trace.append(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            trace.append(0.5, 0.0)

    def test_extend_length_mismatch(self):
        trace = Trace("v")
        with pytest.raises(ConfigurationError):
            trace.extend([0.0, 1.0], [1.0])

    def test_interpolated_read(self):
        trace = Trace("v")
        trace.extend([0.0, 2.0], [0.0, 4.0])
        assert trace.at(1.0) == pytest.approx(2.0)

    def test_empty_trace_errors(self):
        trace = Trace("v")
        with pytest.raises(ConfigurationError):
            trace.at(0.0)
        with pytest.raises(ConfigurationError):
            trace.final()

    def test_resample_and_window(self):
        trace = Trace("v")
        trace.extend([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        resampled = trace.resample([0.5, 1.5])
        assert resampled.values == pytest.approx([0.5, 1.5])
        window = trace.window(1.0, 2.0)
        assert len(window) == 2
        assert window.times == pytest.approx([1.0, 2.0])

    def test_append_after_read_invalidates_cache(self):
        trace = Trace("v")
        trace.append(0.0, 1.0)
        _ = trace.values
        trace.append(1.0, 2.0)
        assert trace.values == pytest.approx([1.0, 2.0])


class TestSolverStats:
    def test_register_step(self):
        stats = SolverStats()
        stats.register_step(1e-3)
        stats.register_step(2e-3)
        stats.register_step(5e-4, accepted=False)
        assert stats.n_steps == 3
        assert stats.n_accepted_steps == 2
        assert stats.n_rejected_steps == 1
        assert stats.min_step == pytest.approx(1e-3)
        assert stats.max_step == pytest.approx(2e-3)

    def test_as_dict_round_trip(self):
        stats = SolverStats(solver_name="x", cpu_time_s=1.5)
        data = stats.as_dict()
        assert data["solver_name"] == "x"
        assert data["cpu_time_s"] == pytest.approx(1.5)


class TestTraceRecorder:
    def test_records_every_sample_without_interval(self):
        recorder = TraceRecorder()
        recorder.record(0.0, {"a": 1.0})
        recorder.record(0.001, {"a": 2.0})
        assert len(recorder.traces["a"]) == 2

    def test_decimation(self):
        recorder = TraceRecorder(record_interval=1.0)
        for t in np.linspace(0.0, 2.0, 21):
            recorder.record(float(t), {"a": float(t)})
        # only samples at least 1.0 apart are kept
        assert len(recorder.traces["a"]) == 3

    def test_force_overrides_decimation(self):
        recorder = TraceRecorder(record_interval=10.0)
        recorder.record(0.0, {"a": 1.0})
        recorder.record(0.1, {"a": 2.0}, force=True)
        assert len(recorder.traces["a"]) == 2


class TestSimulationResult:
    def test_trace_lookup_and_error(self):
        result = SimulationResult()
        trace = Trace("x")
        trace.append(0.0, 1.0)
        result.add_trace(trace)
        assert result["x"] is trace
        assert "x" in result
        with pytest.raises(KeyError):
            result["missing"]

    def test_duplicate_trace_rejected(self):
        result = SimulationResult()
        result.add_trace(Trace("x"))
        with pytest.raises(ConfigurationError):
            result.add_trace(Trace("x"))

    def test_trace_names_sorted(self):
        result = SimulationResult()
        result.add_trace(Trace("b"))
        result.add_trace(Trace("a"))
        assert result.trace_names() == ["a", "b"]


class TestMergeResults:
    def test_traces_concatenated_and_stats_summed(self):
        first = SimulationResult()
        t1 = Trace("v")
        t1.extend([0.0, 1.0], [0.0, 1.0])
        first.add_trace(t1)
        first.stats.cpu_time_s = 1.0
        first.stats.final_time = 1.0

        second = SimulationResult()
        t2 = Trace("v")
        t2.extend([1.0, 2.0], [1.0, 2.0])
        second.add_trace(t2)
        second.stats.cpu_time_s = 2.0
        second.stats.final_time = 2.0

        merged = merge_results([first, second])
        assert len(merged["v"]) == 4
        assert merged.stats.cpu_time_s == pytest.approx(3.0)
        assert merged.stats.final_time == pytest.approx(2.0)

    def test_every_counter_and_step_bound_is_merged(self):
        segments = []
        for n_jac, n_fev, steps in ((3, 7, (0.2, 0.5)), (4, 9, (0.1, 0.3))):
            result = SimulationResult()
            result.stats.n_jacobian_evaluations = n_jac
            result.stats.n_function_evaluations = n_fev
            for h in steps:
                result.stats.register_step(h)
            segments.append(result)

        stats = merge_results(segments).stats
        assert stats.n_jacobian_evaluations == 7
        assert stats.n_function_evaluations == 16
        assert stats.min_step == 0.1
        assert stats.max_step == 0.5
        assert stats.n_steps == 4


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.009
