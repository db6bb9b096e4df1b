"""Tests for the piecewise-linear lookup tables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.diode import build_diode_companion_table
from repro.core.errors import ConfigurationError, TableRangeError
from repro.core.pwl import CompanionTable, PWLTable, build_companion_table, build_table


class TestPWLTableConstruction:
    def test_requires_matching_lengths(self):
        with pytest.raises(ConfigurationError):
            PWLTable([0.0, 1.0, 2.0], [0.0, 1.0])

    def test_requires_two_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PWLTable([0.0], [1.0])

    def test_requires_strictly_increasing_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PWLTable([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ConfigurationError):
            PWLTable([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_rejects_two_dimensional_data(self):
        with pytest.raises(ConfigurationError):
            PWLTable(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_detects_uniform_grid(self):
        assert PWLTable([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]).is_uniform
        assert not PWLTable([0.0, 1.0, 3.0], [0.0, 1.0, 4.0]).is_uniform

    def test_len_and_domain(self):
        table = PWLTable([-1.0, 0.0, 2.0], [1.0, 0.0, 4.0])
        assert len(table) == 3
        assert table.domain == (-1.0, 2.0)


class TestPWLTableLookup:
    def test_exact_at_breakpoints(self):
        xs = [0.0, 0.5, 1.5, 4.0]
        ys = [1.0, -2.0, 3.0, 0.5]
        table = PWLTable(xs, ys)
        for x, y in zip(xs, ys):
            assert table(x) == pytest.approx(y)

    def test_midpoint_interpolation(self):
        table = PWLTable([0.0, 2.0], [0.0, 10.0])
        assert table(1.0) == pytest.approx(5.0)

    def test_slope(self):
        table = PWLTable([0.0, 1.0, 3.0], [0.0, 2.0, 2.0])
        assert table.slope(0.5) == pytest.approx(2.0)
        assert table.slope(2.0) == pytest.approx(0.0)

    def test_extrapolation_uses_edge_segment(self):
        table = PWLTable([0.0, 1.0], [0.0, 2.0])
        assert table(2.0) == pytest.approx(4.0)
        assert table(-1.0) == pytest.approx(-2.0)

    def test_range_error_when_extrapolation_disabled(self):
        table = PWLTable([0.0, 1.0], [0.0, 2.0], extrapolate=False)
        with pytest.raises(TableRangeError):
            table(1.5)
        with pytest.raises(TableRangeError):
            table.slope(-0.5)

    def test_evaluate_many(self):
        table = PWLTable([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        values = table.evaluate_many([0.0, 0.5, 1.5])
        assert values == pytest.approx([0.0, 0.5, 2.5])

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=3,
            max_size=12,
            unique=True,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolant_bounded_by_neighbouring_values(self, xs, fraction):
        """Within a segment the interpolant lies between the segment's values."""
        xs = sorted(xs)
        ys = [math.sin(x) for x in xs]
        table = PWLTable(xs, ys)
        # pick a query inside an interior segment
        x_query = xs[0] + fraction * (xs[-1] - xs[0])
        value = table(x_query)
        idx = table._segment_index(x_query)
        lo = min(ys[idx], ys[idx + 1])
        hi = max(ys[idx], ys[idx + 1])
        assert lo - 1e-12 <= value <= hi + 1e-12


class TestBuildTable:
    def test_build_table_samples_function(self):
        table = build_table(lambda x: x * x, 0.0, 2.0, n_points=101)
        assert table(1.0) == pytest.approx(1.0, abs=1e-3)
        assert table(2.0) == pytest.approx(4.0)

    def test_build_table_validates_domain(self):
        with pytest.raises(ConfigurationError):
            build_table(lambda x: x, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            build_table(lambda x: x, 0.0, 1.0, n_points=1)


class TestCompanionTable:
    def test_requires_identical_breakpoints(self):
        g = PWLTable([0.0, 1.0], [1.0, 1.0])
        j = PWLTable([0.0, 2.0], [0.0, 0.0])
        with pytest.raises(ConfigurationError):
            CompanionTable(g, j)

    def test_branch_current_reconstruction(self):
        # companion built from i = 2 v + 1 exactly reproduces the branch law
        table = build_companion_table(lambda v: 2.0 * v + 1.0, lambda v: 2.0, -1.0, 1.0, 16)
        for v in np.linspace(-1.0, 1.0, 9):
            assert table.branch_current(float(v)) == pytest.approx(2.0 * v + 1.0)

    def test_secant_mode_matches_function_at_breakpoints(self):
        table = build_companion_table(lambda v: v**3, None, -2.0, 2.0, 33)
        for v in np.linspace(-2.0, 2.0, 33):
            assert table.branch_current(float(v)) == pytest.approx(v**3, abs=5e-2)

    def test_evaluate_returns_pair(self):
        table = build_companion_table(lambda v: 3.0 * v, lambda v: 3.0, 0.0, 1.0, 8)
        g, j = table.evaluate(0.5)
        assert g == pytest.approx(3.0)
        assert j == pytest.approx(0.0, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            build_companion_table(lambda v: v, None, 1.0, 0.0)


# --------------------------------------------------------------------- #
# batched lookups: byte-identical to the scalar lookup
# --------------------------------------------------------------------- #

def _uniform_companion_table():
    """A uniform-grid companion table with a sharp exponential knee."""
    return build_companion_table(
        lambda v: 1e-9 * (math.exp(min(v, 2.0) / 0.05) - 1.0),
        lambda v: 2e-8 * math.exp(min(v, 2.0) / 0.05),
        -3.0,
        1.0,
        64,
    )


LOOKUP_TABLES = {
    "diode": build_diode_companion_table,
    "uniform": _uniform_companion_table,
}


def _lookup_queries(table):
    """Every breakpoint and its neighbouring floats, points outside the
    domain, signed zeros, NaN and both infinities, plus random voltages."""
    x = table.g_table.breakpoints
    lo, hi = table.domain
    rng = np.random.default_rng(4)
    return np.concatenate(
        [
            x,
            np.nextafter(x, -np.inf),
            np.nextafter(x, np.inf),
            rng.uniform(lo - 5.0, hi + 5.0, 5000),
            [lo - 100.0, hi + 100.0, -1e300, 1e300, -0.0, 0.0],
            [np.nan, np.inf, -np.inf],
        ]
    )


@pytest.mark.parametrize("name", sorted(LOOKUP_TABLES))
class TestBatchedLookupIdentity:
    def test_grid_kind(self, name):
        table = LOOKUP_TABLES[name]()
        assert table.g_table.is_uniform == (name == "uniform")

    def test_evaluate_batch_is_scalar_evaluate_bytewise(self, name):
        # tobytes, not array_equal: -0.0 and 0.0, and NaN payloads, count
        table = LOOKUP_TABLES[name]()
        vs = _lookup_queries(table)
        n = vs.size - vs.size % 3
        with np.errstate(over="ignore", invalid="ignore"):
            g, j = table.evaluate_batch(vs)
            # a stacked (B, n) query is the same element-wise lookup
            g2, j2 = table.evaluate_batch(vs[:n].reshape(-1, 3))
        pairs = [table.evaluate(float(v)) for v in vs]
        assert g.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert j.tobytes() == np.array([p[1] for p in pairs]).tobytes()
        assert g2.shape == j2.shape == (n // 3, 3)
        assert g2.tobytes() == g[:n].tobytes()
        assert j2.tobytes() == j[:n].tobytes()

    def test_non_finite_queries_land_on_the_edge_segments(self, name):
        # -inf to the first segment, +inf and NaN to the last, on both the
        # scalar and the batched path, without a cast warning
        table = LOOKUP_TABLES[name]().g_table
        last = len(table) - 2
        queries = np.array([-np.inf, np.inf, np.nan])
        assert [table._segment_index(float(v)) for v in queries] == [0, last, last]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.segment_indices(queries).tolist() == [0, last, last]
