"""Tests for CSV trace export/import and report formatting."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.results import SimulationResult, Trace
from repro.io.csvio import export_result, export_traces, import_traces
from repro.io.report import (
    format_duration,
    format_key_values,
    format_markdown_table,
    format_table,
)


def make_trace(name, offset=0.0):
    trace = Trace(name)
    times = np.linspace(0.0, 1.0, 11)
    trace.extend(times.tolist(), (times * 2.0 + offset).tolist())
    return trace


class TestCsvRoundTrip:
    def test_export_and_import(self, tmp_path):
        path = tmp_path / "out" / "traces.csv"
        export_traces([make_trace("a"), make_trace("b", offset=1.0)], path)
        loaded = import_traces(path)
        assert set(loaded) == {"a", "b"}
        assert loaded["a"].at(0.5) == pytest.approx(1.0, abs=1e-6)
        assert loaded["b"].at(0.5) == pytest.approx(2.0, abs=1e-6)
        # one read-only times column shared by every imported trace
        assert not loaded["a"].values.flags.writeable
        assert np.shares_memory(loaded["a"].times, loaded["b"].times)
        assert loaded["a"].times == pytest.approx(make_trace("a").times)

    def test_export_result_selected_traces(self, tmp_path):
        result = SimulationResult()
        result.add_trace(make_trace("x"))
        result.add_trace(make_trace("y"))
        path = export_result(result, tmp_path / "r.csv", trace_names=["x"])
        loaded = import_traces(path)
        assert list(loaded) == ["x"]

    def test_export_requires_traces_and_overlap(self, tmp_path):
        with pytest.raises(ConfigurationError):
            export_traces([], tmp_path / "x.csv")
        early = Trace("early")
        early.extend([0.0, 1.0], [0.0, 1.0])
        late = Trace("late")
        late.extend([2.0, 3.0], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            export_traces([early, late], tmp_path / "x.csv")

    def test_import_missing_or_malformed(self, tmp_path):
        with pytest.raises(ConfigurationError):
            import_traces(tmp_path / "missing.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            import_traces(bad)


class TestReportFormatting:
    def test_format_duration(self):
        assert format_duration(12.0) == "12.0 s"
        assert format_duration(125.0) == "2min 5s"
        assert format_duration(3 * 3600 + 300) == "3h 5min"
        with pytest.raises(ConfigurationError):
            format_duration(-1.0)

    def test_format_table_alignment_and_validation(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        assert "T" in text
        assert "333" in text
        with pytest.raises(ConfigurationError):
            format_table(["a"], [["1", "2"]])

    def test_markdown_table(self):
        text = format_markdown_table(["x", "y"], [["1", "2"]], title="My table")
        assert text.startswith("### My table")
        assert "| x | y |" in text
        assert "| 1 | 2 |" in text

    def test_key_values(self):
        text = format_key_values({"alpha": 1, "b": "two"}, title="facts")
        assert "facts" in text
        assert "alpha : 1" in text
        assert format_key_values({}) == ""
