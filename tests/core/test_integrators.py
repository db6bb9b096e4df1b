"""Tests for the explicit and implicit integration formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integrators import (
    AdamsBashforth,
    BackwardEuler,
    ForwardEuler,
    RungeKutta2,
    RungeKutta4,
    Trapezoidal,
    adams_bashforth_coefficients,
    make_integrator,
)
from repro.core.integrators.adams_bashforth import (
    _WEIGHT_CACHE_SIZE,
    _shifted_weights,
    _variable_step_weights,
)


def integrate(integrator, func, x0, t_end, n_steps):
    """March a scalar/vector ODE with a constant step."""
    state = integrator.new_state()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    t = 0.0
    h = t_end / n_steps
    for _ in range(n_steps):
        x = integrator.step(func, t, x, h, state)
        t += h
    return x


class TestForwardEuler:
    def test_exact_for_constant_derivative(self):
        fe = ForwardEuler()
        x = integrate(fe, lambda t, x: np.array([2.0]), [0.0], 1.0, 10)
        assert x[0] == pytest.approx(2.0)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            ForwardEuler().step(lambda t, x: x, 0.0, np.array([1.0]), 0.0)

    def test_first_order_convergence(self):
        fe = ForwardEuler()
        func = lambda t, x: -x
        errors = []
        for n in (40, 80):
            x = integrate(fe, func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)


class TestAdamsBashforth:
    def test_classical_coefficients(self):
        assert adams_bashforth_coefficients(1) == (1.0,)
        assert adams_bashforth_coefficients(2) == (1.5, -0.5)
        assert adams_bashforth_coefficients(3)[0] == pytest.approx(23.0 / 12.0)
        with pytest.raises(ValueError):
            adams_bashforth_coefficients(6)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            AdamsBashforth(order=0)
        with pytest.raises(ValueError):
            AdamsBashforth(order=9)

    def test_variable_step_weights_reduce_to_classical_ab2(self):
        h = 0.01
        weights = _variable_step_weights([-h, 0.0], 0.0, h)
        # oldest sample first: classical AB2 is (-1/2, 3/2) * h
        assert weights[0] == pytest.approx(-0.5 * h)
        assert weights[1] == pytest.approx(1.5 * h)

    def test_variable_step_weights_reduce_to_classical_ab3(self):
        h = 0.02
        weights = _variable_step_weights([-2 * h, -h, 0.0], 0.0, h)
        assert weights[0] == pytest.approx(5.0 / 12.0 * h)
        assert weights[1] == pytest.approx(-16.0 / 12.0 * h)
        assert weights[2] == pytest.approx(23.0 / 12.0 * h)

    def test_memoised_weights_equal_the_uncached_solve(self):
        # a few step sizes and start times give repeated keys (hits), and
        # far more distinct keys than the cache holds (evictions)
        rng = np.random.default_rng(1234)
        steps = (1e-5, 2.5e-5, 1e-4)
        starts = rng.uniform(0.0, 0.5, size=40)
        _shifted_weights.cache_clear()
        for _ in range(6 * _WEIGHT_CACHE_SIZE):
            t = float(rng.choice(starts))
            history = rng.choice(steps, size=int(rng.integers(1, 6)))
            times = (t - np.concatenate([np.cumsum(history[::-1])[::-1][1:], [0.0]])).tolist()
            h = float(rng.choice(steps))

            shifted = np.asarray(times, dtype=float) - t
            vander = np.vander(shifted, N=shifted.size, increasing=True)
            span = (t + h) - t
            moments = np.array([span ** (j + 1) / (j + 1) for j in range(shifted.size)])
            expected = np.linalg.solve(vander.T, moments)

            assert np.array_equal(_variable_step_weights(times, t, t + h), expected)
            assert _shifted_weights.cache_info().currsize <= _WEIGHT_CACHE_SIZE
        info = _shifted_weights.cache_info()
        assert info.hits > 0
        assert info.misses > _WEIGHT_CACHE_SIZE

    def test_memoised_weights_are_read_only(self):
        weights = _variable_step_weights([-0.01, 0.0], 0.0, 0.01)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
        assert weights[0] == pytest.approx(-0.005)

    def test_first_step_uses_runge_kutta_starter(self):
        # for dx/dt = t the first AB step would be 0 (Forward Euler), while
        # the RK4 starter integrates it exactly to h^2/2
        ab = AdamsBashforth(order=3)
        state = ab.new_state()
        x = ab.step(lambda t, x: np.array([t]), 0.0, np.array([0.0]), 0.5, state)
        assert x[0] == pytest.approx(0.125)

    @pytest.mark.parametrize("order,expected_rate", [(2, 4.0), (3, 8.0)])
    def test_convergence_order(self, order, expected_rate):
        func = lambda t, x: -x
        errors = []
        for n in (50, 100):
            ab = AdamsBashforth(order=order)
            x = integrate(ab, func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(expected_rate, rel=0.35)

    def test_discontinuity_clears_history(self):
        ab = AdamsBashforth(order=3)
        state = ab.new_state()
        x = np.array([1.0])
        for i in range(3):
            x = ab.step(lambda t, x: -x, i * 0.1, x, 0.1, state)
        assert len(state) == 3
        ab.notify_discontinuity(state)
        assert len(state) == 0

    def test_without_state_behaves_as_forward_euler(self):
        ab = AdamsBashforth(order=3)
        x = ab.step(lambda t, x: np.array([2.0]), 0.0, np.array([0.0]), 0.25, None)
        assert x[0] == pytest.approx(0.5)

    def test_ab3_has_imaginary_axis_coverage(self):
        assert AdamsBashforth(order=3).stability_imag_extent > 0.0
        assert AdamsBashforth(order=2).stability_imag_extent == 0.0

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_for_polynomial_derivatives(self, order, h):
        """AB of order p integrates dx/dt = t^(p-1) exactly.

        The RK4 starter is also exact for polynomial derivatives up to
        degree 3, so the whole march must reproduce the analytic integral to
        round-off for every order up to 4.
        """
        ab = AdamsBashforth(order=order)
        state = ab.new_state()
        power = order - 1
        func = lambda t, x: np.array([t**power])
        x = np.array([0.0])
        t = 0.0
        n_steps = order + 4
        for _ in range(n_steps):
            x = ab.step(func, t, x, h, state)
            t += h
        exact = t ** (power + 1) / (power + 1)
        assert abs(x[0] - exact) <= 1e-9 * max(1.0, abs(exact))


class TestRungeKutta:
    def test_rk2_convergence(self):
        func = lambda t, x: -x
        errors = []
        for n in (20, 40):
            x = integrate(RungeKutta2(), func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)

    def test_rk4_high_accuracy(self):
        x = integrate(RungeKutta4(), lambda t, x: -x, [1.0], 1.0, 20)
        assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_rk4_oscillator(self):
        # harmonic oscillator x'' = -x integrated as a first-order system
        omega = 2.0 * math.pi

        def func(t, x):
            return np.array([x[1], -(omega**2) * x[0]])

        state = np.array([1.0, 0.0])
        rk = RungeKutta4()
        h = 1.0 / 200.0
        t = 0.0
        for _ in range(200):
            state = rk.step(func, t, state, h)
            t += h
        assert state[0] == pytest.approx(1.0, abs=1e-4)

    def test_step_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RungeKutta4().step(lambda t, x: x, 0.0, np.array([1.0]), -0.1)


class TestImplicitFormulas:
    def test_backward_euler_residual(self):
        x_next = np.array([2.0])
        f_next = np.array([3.0])
        x_curr = np.array([1.0])
        f_curr = np.array([10.0])
        residual = BackwardEuler.residual(x_next, f_next, x_curr, f_curr, 0.5)
        assert residual[0] == pytest.approx(2.0 - 1.0 - 0.5 * 3.0)

    def test_trapezoidal_residual_mixes_both_derivatives(self):
        residual = Trapezoidal.residual(
            np.array([2.0]), np.array([4.0]), np.array([1.0]), np.array([2.0]), 0.5
        )
        assert residual[0] == pytest.approx(2.0 - 1.0 - 0.5 * 0.5 * (4.0 + 2.0))

    def test_jacobian_shape_and_value(self):
        df = np.array([[-2.0]])
        jac = BackwardEuler.jacobian(df, 0.1)
        assert jac[0, 0] == pytest.approx(1.2)
        assert Trapezoidal.jacobian(df, 0.1)[0, 0] == pytest.approx(1.1)

    def test_orders(self):
        assert BackwardEuler.order == 1
        assert Trapezoidal.order == 2


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("forward_euler", ForwardEuler),
            ("euler", ForwardEuler),
            ("adams_bashforth", AdamsBashforth),
            ("ab", AdamsBashforth),
            ("rk2", RungeKutta2),
            ("rk4", RungeKutta4),
            ("Adams-Bashforth", AdamsBashforth),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_integrator(name), cls)

    def test_order_keyword(self):
        assert make_integrator("ab", order=4).order == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_integrator("simpson")
