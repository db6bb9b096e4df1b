"""Tests for traces, recorders, statistics and result containers."""

import time

import numpy as np
import pytest

from repro.core.batch import BatchedSolver
from repro.core.errors import ConfigurationError
from repro.core.results import (
    SimulationResult,
    SolverStats,
    Stopwatch,
    Trace,
    TraceRecorder,
    merge_results,
)
from repro.harvester.scenarios import charging_scenario, scenario_solver_settings


def _owner(array):
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


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

    def test_columns_are_read_only_float64(self):
        trace = Trace("v", times=[0.0, 1.0], values=[2, 3])
        for array in (trace.times, trace.values):
            assert array.dtype == np.float64 and not array.flags.writeable
        with pytest.raises(ValueError):
            trace.values[0] = 5.0
        assert type(trace.final()) is float and trace.final() == 3.0

    def test_read_only_columns_are_shared_and_writable_ones_copied(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([1.0, 2.0, 3.0])
        trace = Trace("v", times=times, values=values)
        values[0] = 9.0
        assert trace.values[0] == 1.0
        times.flags.writeable = False
        assert Trace("w", times=times, values=values).times is times

    @pytest.mark.parametrize(
        "times, values",
        [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[1.0, 2.0]]), ([1.0, 0.0], [1.0, 2.0])],
        ids=["length", "2-D", "non-monotonic"],
    )
    def test_malformed_columns_rejected(self, times, values):
        with pytest.raises(ConfigurationError):
            Trace("v", times=times, values=values)

    def test_derived_traces_are_array_backed(self):
        trace = Trace("v", "V", times=[0.0, 1.0, 2.0, 3.0], values=[0.0, 2.0, 4.0, 6.0])
        resampled = trace.resample(np.array([0.5, 2.5]))
        window = trace.window(1.0, 2.0)
        for derived in (resampled, window):
            assert derived.unit == "V" and not derived.values.flags.writeable
        assert resampled.values.tolist() == [1.0, 5.0]
        assert window.times.tolist() == [1.0, 2.0]
        with pytest.raises(ConfigurationError):
            trace.resample([2.0, 1.0])


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

    def test_traces_are_built_once_per_read_and_share_times(self):
        recorder = TraceRecorder()
        recorder.record(0.0, {"a": 1.0})
        recorder.record(1.0, {"a": 2.0, "b": 5.0})
        traces = recorder.traces
        assert recorder.traces is traces
        # a name first recorded later covers the points from then on
        assert traces["b"].times.tolist() == [1.0]
        assert np.shares_memory(traces["a"].times, traces["b"].times)
        recorder.record(2.0, {"a": 3.0, "b": 6.0})
        assert recorder.traces["a"].values.tolist() == [1.0, 2.0, 3.0]
        assert recorder.traces["b"].times.tolist() == [1.0, 2.0]


class TestRecordedTraceStructure:
    def test_lane_traces_share_one_times_buffer_within_a_column_bound(self):
        scenarios = [
            charging_scenario(duration_s=0.02, frequency_hz=66.0 + 0.5 * i)
            for i in range(16)
        ]
        harvesters = [s.build_harvester() for s in scenarios]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=[scenario_solver_settings(s) for s in scenarios],
        )
        for i, harvester in enumerate(harvesters):
            harvester._wire(solver.lane_wiring(i))
        batch = solver.run([s.duration_s for s in scenarios])
        assert not batch.failures
        for result in batch.results:
            traces = list(result.traces.values())
            times = traces[0].times
            owners = {}
            for trace in traces:
                for array in (trace.times, trace.values):
                    assert array.dtype == np.float64 and not array.flags.writeable
                    owners[id(_owner(array))] = _owner(array)
                assert np.shares_memory(trace.times, times)
                assert type(trace.final()) is float
            # one shared times column plus at most one float64 column per
            # trace: per-trace times copies would double it
            assert sum(o.nbytes for o in owners.values()) <= 8 * len(times) * (
                1 + len(traces)
            )


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
        assert merged["v"].values.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert merged.stats.cpu_time_s == pytest.approx(3.0)
        assert merged.stats.final_time == pytest.approx(2.0)

    def test_segments_out_of_time_order_rejected(self):
        late, early = SimulationResult(), SimulationResult()
        late.add_trace(Trace("v", times=[1.0, 2.0], values=[1.0, 2.0]))
        early.add_trace(Trace("v", times=[0.0, 0.5], values=[0.0, 0.5]))
        with pytest.raises(ConfigurationError):
            merge_results([late, early])

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
