"""Tests for the analysis layer: power, frequency, waveforms, speedup tables."""

import math

import numpy as np
import pytest

from repro.analysis.frequency import (
    detect_frequency_fft,
    detect_frequency_zero_crossing,
    frequency_mismatch,
    required_tuning_force,
    resonant_frequency,
    tuned_frequency,
)
from repro.analysis.power import (
    average_power,
    energy,
    power_before_after,
    rms_value,
    windowed_rms_power,
)
from repro.analysis.speedup import SpeedupTable, TimingEntry, speedup
from repro.analysis.waveforms import compare_traces, correlation_coefficient, normalised_rms_error
from repro.core.errors import ConfigurationError
from repro.core.results import SimulationResult, SolverStats, Trace


def sinusoid_trace(frequency=50.0, amplitude=2.0, duration=0.2, n=2001, name="v"):
    times = np.linspace(0.0, duration, n)
    trace = Trace(name)
    trace.extend(times.tolist(), (amplitude * np.sin(2 * np.pi * frequency * times)).tolist())
    return trace


class TestPowerMetrics:
    def test_rms_of_sinusoid(self):
        trace = sinusoid_trace(amplitude=2.0)
        assert rms_value(trace) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-3)

    def test_average_power_of_constant(self):
        trace = Trace("p")
        trace.extend([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert average_power(trace) == pytest.approx(3.0)

    def test_energy_integration(self):
        trace = Trace("p")
        trace.extend([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert energy(trace) == pytest.approx(2.0)
        assert energy(trace, 0.0, 1.0) == pytest.approx(1.0)

    def test_windowed_rms(self):
        trace = sinusoid_trace(frequency=100.0, amplitude=1.0, duration=0.1)
        windowed = windowed_rms_power(trace, window_s=0.02)
        mid = windowed.at(0.05)
        assert mid == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)

    def test_windowed_rms_is_the_per_sample_mask_loop_bitwise(self):
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0, 0.0], np.sort(rng.uniform(0.0, 0.1, 300))])
        trace = Trace("p", "W", times=times, values=rng.uniform(0.0, 2.0, times.size))
        kept_t, kept_v = [], []
        for t in times:
            mask = (times >= t - 0.01 / 2.0) & (times <= t + 0.01 / 2.0)
            if np.count_nonzero(mask) >= 2:
                seg_t, seg_v = times[mask], trace.values[mask]
                kept_t.append(t)
                kept_v.append(
                    float(np.sqrt(np.trapezoid(seg_v**2, seg_t) / (seg_t[-1] - seg_t[0])))
                )
        windowed = windowed_rms_power(trace, window_s=0.01)
        assert (windowed.name, windowed.unit) == ("p_rms", "W")
        assert windowed.times.tobytes() == np.array(kept_t).tobytes()
        assert windowed.values.tobytes() == np.array(kept_v).tobytes()

    def test_before_after_power(self):
        times = np.linspace(0.0, 2.0, 2001)
        values = np.where(times < 1.0, 4.0, 1.0)
        trace = Trace("p")
        trace.extend(times.tolist(), values.tolist())
        before, after = power_before_after(trace, event_time=1.0, window_s=0.5, settle_s=0.2)
        assert before == pytest.approx(4.0, rel=1e-3)
        assert after == pytest.approx(1.0, rel=1e-3)

    def test_errors(self):
        empty = Trace("p")
        empty.append(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            average_power(empty)
        with pytest.raises(ConfigurationError):
            windowed_rms_power(empty, window_s=0.0)


class TestFrequencyAnalysis:
    def test_resonant_frequency(self):
        assert resonant_frequency(2915.0, 0.018) == pytest.approx(64.0, abs=0.5)

    def test_eq12_helpers_roundtrip(self):
        force = required_tuning_force(64.0, 71.0, 4.5)
        assert tuned_frequency(64.0, force, 4.5) == pytest.approx(71.0)
        with pytest.raises(ConfigurationError):
            required_tuning_force(64.0, 60.0, 4.5)

    def test_zero_crossing_detection(self):
        trace = sinusoid_trace(frequency=70.0, duration=0.2, n=4001)
        assert detect_frequency_zero_crossing(trace) == pytest.approx(70.0, rel=1e-3)

    def test_fft_detection(self):
        trace = sinusoid_trace(frequency=64.0, duration=0.5, n=4001)
        assert detect_frequency_fft(trace) == pytest.approx(64.0, rel=0.05)

    def test_detection_needs_enough_samples(self):
        short = Trace("v")
        short.extend([0.0, 1e-3, 2e-3], [0.0, 1.0, 0.0])
        with pytest.raises(ConfigurationError):
            detect_frequency_zero_crossing(short)
        with pytest.raises(ConfigurationError):
            detect_frequency_fft(short)

    def test_frequency_mismatch(self):
        assert frequency_mismatch(70.0, 71.0) == pytest.approx(1.0)


class TestWaveformComparison:
    def test_identical_traces(self):
        a = sinusoid_trace()
        b = sinusoid_trace()
        comparison = compare_traces(a, b)
        assert comparison.rms_error == pytest.approx(0.0, abs=1e-12)
        assert comparison.correlation == pytest.approx(1.0)

    def test_offset_trace(self):
        a = Trace("a")
        a.extend([0.0, 1.0], [0.0, 0.0])
        b = Trace("b")
        b.extend([0.0, 1.0], [1.0, 1.0])
        comparison = compare_traces(a, b)
        assert comparison.max_absolute_error == pytest.approx(1.0)

    def test_normalised_error_and_correlation(self):
        reference = sinusoid_trace(amplitude=1.0)
        candidate = sinusoid_trace(amplitude=1.05)
        assert normalised_rms_error(reference, candidate) < 0.05
        assert correlation_coefficient(reference, candidate) == pytest.approx(1.0, abs=1e-6)

    def test_non_overlapping_traces_rejected(self):
        a = Trace("a")
        a.extend([0.0, 1.0], [0.0, 1.0])
        b = Trace("b")
        b.extend([2.0, 3.0], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            compare_traces(a, b)


class TestSpeedupTable:
    def make_result(self, name, cpu, final_time, steps=100):
        stats = SolverStats(solver_name=name, cpu_time_s=cpu, final_time=final_time)
        stats.n_accepted_steps = steps
        result = SimulationResult(stats=stats)
        result.metadata["integrator"] = "ab3"
        return result

    def test_speedup_function(self):
        assert speedup(100.0, 1.0) == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            speedup(10.0, 0.0)

    def test_table_rows_and_speedups(self):
        table = SpeedupTable(title="Table II", reference_label="proposed")
        table.add(TimingEntry.from_result("proposed", self.make_result("fast", 1.0, 2.0)))
        table.add(TimingEntry.from_result("baseline", self.make_result("slow", 50.0, 1.0)))
        assert table.entry("baseline").cpu_seconds_per_simulated_second == pytest.approx(50.0)
        assert table.speedup_of("proposed", "baseline") == pytest.approx(100.0)
        assert table.speedups()["baseline"] == pytest.approx(100.0)
        formatted = table.format()
        assert "Table II" in formatted and "proposed" in formatted and "speed-up" in formatted

    def test_missing_entry(self):
        table = SpeedupTable(title="t")
        with pytest.raises(ConfigurationError):
            table.entry("nope")
        with pytest.raises(ConfigurationError):
            table.speedups()
