"""Tests for the stability analysis helpers (Eq. 6-7 of the paper)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stability import (
    diagonal_dominance_step_limit,
    integrator_step_limit,
    integrator_step_limit_batch,
    is_diagonally_dominant,
    is_spectrally_stable,
    minimum_time_constant,
    spectral_radius,
    spectral_step_limit,
    stiffness_ratio,
)


EXTENTS = ((2.0, 0.0), (1.0, 0.0), (0.3, 0.0), (6.0 / 11.0, 0.72), (2.785, 2.828))


def _per_eigenvalue_limit(a, real_extent, imag_extent, safety):
    """The integrator bound evaluated one eigenvalue at a time, in Python floats."""
    limit = float("inf")
    for lam in np.linalg.eigvals(a) if a.size else ():
        alpha, beta = float(np.real(lam)), float(np.imag(lam))
        if alpha >= 0.0 and beta == 0.0:
            continue
        if imag_extent > 0.0:
            denom = abs(alpha) / real_extent + abs(beta) / imag_extent
            if denom <= 0.0:
                continue
            bound = 1.0 / denom
        elif alpha >= 0.0:
            continue
        else:
            bound = real_extent * (-alpha) / (alpha * alpha + beta * beta)
        limit = min(limit, bound)
    return safety * limit if np.isfinite(limit) else float("inf")


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        assert spectral_radius(np.diag([-3.0, 2.0])) == pytest.approx(3.0)

    def test_empty_matrix(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_rotation_matrix(self):
        theta = 0.3
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert spectral_radius(rot) == pytest.approx(1.0)


class TestSpectralStepLimit:
    def test_single_decay_mode(self):
        a = np.array([[-100.0]])
        # forward-Euler limit is 2/100 = 0.02, scaled by the safety factor
        assert spectral_step_limit(a, safety=1.0) == pytest.approx(0.02)

    def test_no_decaying_mode_gives_infinity(self):
        assert spectral_step_limit(np.array([[0.0]])) == np.inf
        assert spectral_step_limit(np.array([[1.0]])) == np.inf

    def test_stability_predicate_consistent_with_limit(self):
        a = np.array([[-50.0, 0.0], [0.0, -500.0]])
        h_limit = spectral_step_limit(a, safety=1.0)
        assert is_spectrally_stable(a, 0.99 * h_limit)
        assert not is_spectrally_stable(a, 1.5 * h_limit)

    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_limit_scales_inversely_with_rate(self, rate):
        a = np.array([[-rate]])
        assert spectral_step_limit(a, safety=1.0) == pytest.approx(2.0 / rate)


class TestIntegratorStepLimit:
    def test_real_mode_scales_with_real_extent(self):
        a = np.array([[-1000.0]])
        limit_fe = integrator_step_limit(a, real_extent=2.0, imag_extent=0.0, safety=1.0)
        limit_ab3 = integrator_step_limit(a, real_extent=6.0 / 11.0, imag_extent=0.72, safety=1.0)
        assert limit_fe == pytest.approx(2.0 / 1000.0)
        assert limit_ab3 == pytest.approx((6.0 / 11.0) / 1000.0)

    def test_oscillatory_mode_needs_imaginary_extent(self):
        # lightly damped oscillator: eigenvalues -1 +/- 440j
        a = np.array([[0.0, 1.0], [-(440.0**2), -2.0]])
        limit_fe = integrator_step_limit(a, real_extent=2.0, imag_extent=0.0, safety=1.0)
        limit_ab3 = integrator_step_limit(a, real_extent=6.0 / 11.0, imag_extent=0.72, safety=1.0)
        # FE collapses towards 2*zeta/omega while AB3 allows ~0.72/omega
        assert limit_fe < 2e-5
        assert limit_ab3 > 1e-3

    def test_requires_positive_real_extent(self):
        with pytest.raises(ValueError):
            integrator_step_limit(np.array([[-1.0]]), real_extent=0.0, imag_extent=0.0)

    def test_empty_matrix(self):
        assert integrator_step_limit(np.zeros((0, 0)), 2.0, 0.0) == np.inf

    def test_unrestricting_modes(self):
        # growing real mode imposes no limit from this criterion
        assert integrator_step_limit(np.array([[1.0]]), 2.0, 0.0) == np.inf

    @pytest.mark.parametrize("kind", ["random", "zero", "positive_real", "empty"])
    def test_bound_is_the_per_eigenvalue_formula_bitwise(self, kind):
        # the scalar bound is the stacked one on a batch of one, and the
        # Forward-Euler bound is it at extents (2, 0): every path must equal
        # the formula evaluated one eigenvalue at a time, in the last bit
        rng = np.random.default_rng(11)
        for n in range(0 if kind == "empty" else 1, 7):
            if kind == "random":
                scales = 10.0 ** rng.integers(-3, 6, size=(16, 1, 1))
                stack = rng.standard_normal((16, n, n)) * scales
            elif kind == "zero":
                stack = np.zeros((4, n, n))
            elif kind == "positive_real":
                stack = np.stack(
                    [np.diag(rng.uniform(0.0, 1e3, size=n)) for _ in range(4)]
                )
            else:
                stack = np.zeros((4, 0, 0))
            # FE, AB2, a circle bound whose scaling is inexact, AB3, RK4
            for real_extent, imag_extent in EXTENTS:
                safety = float(rng.uniform(0.1, 1.0))
                lanes = integrator_step_limit_batch(stack, real_extent, imag_extent, safety)
                for a, lane in zip(stack, lanes):
                    expected = _per_eigenvalue_limit(a, real_extent, imag_extent, safety)
                    scalar = integrator_step_limit(a, real_extent, imag_extent, safety)
                    assert type(scalar) is float
                    assert scalar == lane == expected
                    assert spectral_step_limit(a, safety) == _per_eigenvalue_limit(
                        a, 2.0, 0.0, safety
                    )
            if kind == "empty":
                break


class TestDiagonalDominance:
    def test_predicate(self):
        assert is_diagonally_dominant(np.array([[-2.0, 1.0], [0.5, -1.0]]))
        assert not is_diagonally_dominant(np.array([[-1.0, 2.0], [0.5, -1.0]]))
        assert not is_diagonally_dominant(
            np.array([[-1.0, 1.0], [0.5, -1.0]]), strict=True
        )

    def test_step_limit_single_pole(self):
        a = np.array([[-100.0]])
        assert diagonal_dominance_step_limit(a, safety=1.0) == pytest.approx(0.02)

    def test_step_limit_keeps_total_step_matrix_contractive(self):
        a = np.array([[-200.0, 50.0], [10.0, -100.0]])
        h = diagonal_dominance_step_limit(a, safety=1.0)
        assert spectral_radius(np.eye(2) + h * a) <= 1.0 + 1e-9

    def test_zero_matrix_gives_infinity(self):
        assert diagonal_dominance_step_limit(np.zeros((3, 3))) == np.inf


class TestTimeConstants:
    def test_minimum_time_constant(self):
        a = np.diag([-10.0, -1000.0])
        assert minimum_time_constant(a) == pytest.approx(1e-3)

    def test_no_decaying_modes(self):
        assert minimum_time_constant(np.array([[0.0]])) == np.inf

    def test_stiffness_ratio(self):
        a = np.diag([-1.0, -1e4])
        assert stiffness_ratio(a) == pytest.approx(1e4)
        assert stiffness_ratio(np.array([[-5.0]])) == 1.0
