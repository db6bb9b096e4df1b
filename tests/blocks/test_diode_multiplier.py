"""Tests for the diode model, its companion table and the Dickson multiplier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.diode import DiodeParameters, ShockleyDiode, build_diode_companion_table
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.errors import ConfigurationError
from repro.core.linearise import linearise_block_numerically


class TestShockleyDiode:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DiodeParameters(saturation_current_a=0.0)
        with pytest.raises(ConfigurationError):
            DiodeParameters(thermal_voltage_v=-1.0)
        with pytest.raises(ConfigurationError):
            DiodeParameters(series_resistance_ohm=0.0)

    def test_zero_bias_zero_current(self):
        diode = ShockleyDiode()
        assert diode.current(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_forward_conduction_and_reverse_blocking(self):
        diode = ShockleyDiode()
        assert diode.current(0.7) > 1e-4
        assert abs(diode.current(-5.0)) < 1e-7

    def test_series_resistance_limits_current(self):
        weak = ShockleyDiode(DiodeParameters(series_resistance_ohm=1000.0))
        strong = ShockleyDiode(DiodeParameters(series_resistance_ohm=10.0))
        assert weak.current(1.0) < strong.current(1.0)
        # at high forward bias the current approaches (V - Vknee)/Rs
        assert weak.current(5.0) == pytest.approx((5.0 - 0.55) / 1000.0, rel=0.25)

    def test_conductance_is_derivative(self):
        diode = ShockleyDiode()
        v = 0.55
        dv = 1e-6
        numeric = (diode.current(v + dv) - diode.current(v - dv)) / (2 * dv)
        assert diode.conductance(v) == pytest.approx(numeric, rel=1e-3)

    def test_companion_model_matches_current(self):
        diode = ShockleyDiode()
        g, j = diode.companion(0.6)
        assert g * 0.6 + j == pytest.approx(diode.current(0.6), rel=1e-9)

    @given(st.floats(min_value=-10.0, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_current_is_monotonic(self, v):
        diode = ShockleyDiode()
        assert diode.current(v + 1e-3) >= diode.current(v) - 1e-15


class _TwoSolveDiode:
    """The branch model as two separate junction solves, each iteration
    evaluating the exponential once for the current and once for the
    conductance: the reference the one-solve model must match bitwise."""

    def __init__(self, params):
        self.params = params

    def _junction_current(self, v_junction):
        p = self.params
        exponent = min(v_junction / p.thermal_voltage_v, 80.0)
        return p.saturation_current_a * (math.exp(exponent) - 1.0) + (
            p.reverse_conductance_s * v_junction
        )

    def _junction_conductance(self, v_junction):
        p = self.params
        exponent = min(v_junction / p.thermal_voltage_v, 80.0)
        return (
            p.saturation_current_a / p.thermal_voltage_v
        ) * math.exp(exponent) + p.reverse_conductance_s

    def _junction_voltage(self, v_branch):
        p = self.params
        v_j = min(v_branch, 0.8) if v_branch > 0 else v_branch
        for _ in range(60):
            f = v_j + p.series_resistance_ohm * self._junction_current(v_j) - v_branch
            df = 1.0 + p.series_resistance_ohm * self._junction_conductance(v_j)
            step = f / df
            v_j -= step
            if abs(step) < 1e-15:
                break
        return v_j

    def current(self, v_branch):
        return self._junction_current(self._junction_voltage(v_branch))

    def conductance(self, v_branch):
        g_j = self._junction_conductance(self._junction_voltage(v_branch))
        return g_j / (1.0 + self.params.series_resistance_ohm * g_j)


DIODE_PARAMETERS = [
    DiodeParameters(),
    DiodeParameters(saturation_current_a=1e-12, series_resistance_ohm=1000.0),
]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("params", DIODE_PARAMETERS, ids=["stock", "weak"])
def test_one_junction_solve_is_the_two_solve_model_bitwise(params):
    diode, reference = ShockleyDiode(params), _TwoSolveDiode(params)
    voltages = np.linspace(-30.0, 10.0, 4001).tolist() + [
        0.0, -0.0, 0.8, 1e-300, 200.0, math.inf, -math.inf, math.nan,
    ]
    currents = [reference.current(v) for v in voltages]
    conductances = [reference.conductance(v) for v in voltages]
    assert _bits([diode.current(v) for v in voltages]) == _bits(currents)
    assert _bits([diode.conductance(v) for v in voltages]) == _bits(conductances)
    pairs = [diode.companion(v) for v in voltages]
    assert _bits([g for g, _ in pairs]) == _bits(conductances)
    assert _bits([j for _, j in pairs]) == _bits(
        [i - g * v for i, g, v in zip(currents, conductances, voltages)]
    )


@pytest.mark.parametrize("params", DIODE_PARAMETERS, ids=["stock", "weak"])
def test_companion_table_is_the_two_solve_loop_bitwise(params):
    table = build_diode_companion_table(params, n_points=512)
    breakpoints = table.g_table.breakpoints.tolist()
    reference = _TwoSolveDiode(params)
    g_values = [reference.conductance(v) for v in breakpoints]
    j_values = [reference.current(v) - g * v for v, g in zip(breakpoints, g_values)]
    assert len(breakpoints) > 500
    assert table.j_table.breakpoints.tobytes() == _bits(breakpoints)
    assert table.g_table.values.tobytes() == _bits(g_values)
    assert table.j_table.values.tobytes() == _bits(j_values)


class TestCompanionTable:
    def test_table_matches_exact_model_at_breakpoints(self):
        params = DiodeParameters()
        table = build_diode_companion_table(params, v_min=-5.0, v_max=2.0, n_points=256)
        diode = ShockleyDiode(params)
        for v in np.linspace(-4.0, 1.0, 21):
            assert table.branch_current(float(v)) == pytest.approx(
                diode.current(float(v)), rel=0.05, abs=1e-7
            )

    def test_granularity_improves_accuracy(self):
        params = DiodeParameters()
        diode = ShockleyDiode(params)
        coarse = build_diode_companion_table(params, n_points=32)
        fine = build_diode_companion_table(params, n_points=1024)
        v = 0.52
        err_coarse = abs(coarse.branch_current(v) - diode.current(v))
        err_fine = abs(fine.branch_current(v) - diode.current(v))
        assert err_fine <= err_coarse

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_diode_companion_table(v_min=1.0, v_max=0.0)
        with pytest.raises(ConfigurationError):
            build_diode_companion_table(n_points=4)


class TestDicksonMultiplier:
    def make_block(self, **kwargs):
        kwargs.setdefault("use_exact_diode_in_derivatives", False)
        return DicksonMultiplier(**kwargs)

    def test_structure(self):
        block = self.make_block(n_stages=5)
        assert block.n_states == 6  # Vin + V1..V5
        assert block.state_names[0] == "Vin"
        assert block.terminal_names == ("Vm", "Im", "Vc", "Ic")
        assert block.n_algebraic == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DicksonMultiplier(n_stages=1)
        with pytest.raises(ConfigurationError):
            DicksonMultiplier(stage_capacitance_f=[1e-6, 1e-6])  # wrong length
        with pytest.raises(ConfigurationError):
            DicksonMultiplier(stage_capacitance_f=-1.0)
        with pytest.raises(ConfigurationError):
            DicksonMultiplier(input_capacitance_f=0.0)

    def test_per_stage_capacitances(self):
        block = self.make_block(
            n_stages=3, stage_capacitance_f=[1e-6, 2e-6, 3e-6], output_capacitance_f=None
        )
        assert block.capacitances == pytest.approx([1e-6, 2e-6, 3e-6])

    def test_output_capacitance_override(self):
        block = self.make_block(n_stages=3, stage_capacitance_f=1e-6, output_capacitance_f=5e-5)
        assert block.capacitances[-1] == pytest.approx(5e-5)

    def test_algebraic_ties_terminals_to_states(self):
        block = self.make_block()
        x = np.zeros(block.n_states)
        x[0] = 0.7  # Vin
        x[-1] = 2.5  # V5
        residual = block.algebraic_residual(0.0, x, np.array([0.7, 0.0, 2.5, 0.0]))
        assert residual == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_output_current_discharges_last_stage(self):
        block = self.make_block()
        x = np.zeros(block.n_states)
        dxdt = block.derivatives(0.0, x, np.array([0.0, 0.0, 0.0, 1e-3]))
        assert dxdt[-1] < 0.0  # drawing Ic out of the output capacitor

    def test_input_current_charges_input_node(self):
        block = self.make_block()
        x = np.zeros(block.n_states)
        dxdt = block.derivatives(0.0, x, np.array([0.0, 1e-3, 0.0, 0.0]))
        assert dxdt[0] > 0.0

    def test_analytic_linearisation_matches_finite_differences(self):
        block = self.make_block()
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.4, 0.4, size=block.n_states)
        y = rng.uniform(-0.3, 0.3, size=4)
        analytic = block.linearise(0.0, x, y)
        numeric = linearise_block_numerically(block, 0.0, x, y, eps=1e-6)
        # the differential rows use the *tabulated* conductance as the
        # Jacobian (the paper's companion model), which differs from the
        # exact derivative of the piecewise-linear branch current by the
        # table's interpolation error; compare against the dominant scale of
        # the matrix rather than element-wise
        scale_xx = np.max(np.abs(numeric.jxx))
        assert np.max(np.abs(analytic.jxx - numeric.jxx)) <= 0.02 * scale_xx
        scale_xy = max(np.max(np.abs(numeric.jxy)), 1.0)
        assert np.max(np.abs(analytic.jxy - numeric.jxy)) <= 0.02 * scale_xy
        # the algebraic rows are exact tie equations
        assert analytic.jyx == pytest.approx(numeric.jyx, rel=1e-6, abs=1e-9)
        assert analytic.jyy == pytest.approx(numeric.jyy, rel=1e-6, abs=1e-9)

    def test_linearised_model_matches_nonlinear_at_expansion_point(self):
        block = self.make_block()
        x = np.linspace(-0.2, 0.5, block.n_states)
        y = np.array([0.1, 1e-4, 0.5, 2e-5])
        lin = block.linearise(0.0, x, y)
        model = lin.jxx @ x + lin.jxy @ y + lin.ex
        exact = block.derivatives(0.0, x, y)
        assert model == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_ideal_gain_and_output_voltage_helpers(self):
        block = self.make_block(n_stages=4, output_capacitance_f=None)
        assert block.ideal_no_load_gain() == 4.0
        x = np.zeros(block.n_states)
        x[-1] = 3.3
        assert block.output_voltage(x) == pytest.approx(3.3)
