"""Tests for the adaptive step-size controller."""

import numpy as np
import pytest

from repro.core import stepper
from repro.core.errors import ConfigurationError, StepSizeError
from repro.core.integrators import AdamsBashforth, ForwardEuler
from repro.core.stepper import (
    BatchedStepController,
    StepControlSettings,
    StepSizeController,
    frobenius_norm,
    relative_jacobian_drift,
)


def test_policy_constants_are_pinned():
    # the step-control policy is in no cache key: changing one of these
    # changes results without moving a key, so bump the cache schema salt
    # (repro.cache.store.CACHE_SCHEMA_VERSION) together with it
    assert (
        stepper.SAFETY,
        stepper.GROWTH_LIMIT,
        stepper.SHRINK_LIMIT,
        stepper.JACOBIAN_CHANGE_TARGET,
        stepper.STABILITY_RECOMPUTE_THRESHOLD,
        stepper.LLE_TOLERANCE,
    ) == (0.8, 2.0, 0.1, 0.1, 0.02, 0.1)


class TestSettingsValidation:
    def test_defaults_are_valid(self):
        StepControlSettings().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h_initial": 0.0},
            {"h_min": -1.0},
            {"h_min": 2.0, "h_max": 1.0},
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ConfigurationError):
            StepControlSettings(**kwargs).validate()


class TestStabilityLimit:
    def test_spectral_mode_uses_integrator_extents(self, monkeypatch):
        monkeypatch.setattr(stepper, "SAFETY", 1.0)
        settings = StepControlSettings()
        fe = StepSizeController(settings, integrator=ForwardEuler())
        ab3 = StepSizeController(settings, integrator=AdamsBashforth(order=3))
        oscillator = np.array([[0.0, 1.0], [-(440.0**2), -2.0]])
        assert ab3.stability_limit(oscillator) > 50 * fe.stability_limit(oscillator)

    def test_limit_is_cached_until_jacobian_drifts(self, monkeypatch):
        monkeypatch.setattr(stepper, "STABILITY_RECOMPUTE_THRESHOLD", 0.5)
        monkeypatch.setattr(stepper, "SAFETY", 1.0)
        controller = StepSizeController(StepControlSettings())
        a = np.array([[-100.0]])
        first = controller.stability_limit(a)
        # small drift: cached value reused even though the true limit changed
        second = controller.stability_limit(np.array([[-110.0]]))
        assert second == first
        # large drift: recomputed
        third = controller.stability_limit(np.array([[-1000.0]]))
        assert third == pytest.approx(2.0 / 1000.0)


class TestPropose:
    def test_respects_h_max(self):
        settings = StepControlSettings(h_initial=1e-3, h_max=2e-3)
        controller = StepSizeController(settings)
        h = controller.propose(np.array([[-1.0]]), 0.0)
        assert h <= 2e-3

    def test_respects_remaining_time(self):
        controller = StepSizeController(StepControlSettings(h_initial=1e-3))
        h = controller.propose(np.array([[-1.0]]), 0.0, t_remaining=1e-5)
        assert h == pytest.approx(1e-5)

    def test_growth_is_limited(self, monkeypatch):
        monkeypatch.setattr(stepper, "GROWTH_LIMIT", 1.5)
        settings = StepControlSettings(h_initial=1e-4, h_max=1.0)
        controller = StepSizeController(settings)
        first = controller.propose(np.array([[-1.0]]), 0.0)
        second = controller.propose(np.array([[-1.0]]), 0.0)
        assert second <= first * 1.5 + 1e-15

    def test_large_jacobian_change_shrinks_step(self, monkeypatch):
        monkeypatch.setattr(stepper, "JACOBIAN_CHANGE_TARGET", 0.01)
        settings = StepControlSettings(h_initial=1e-3, h_max=1.0)
        controller = StepSizeController(settings)
        controller.propose(np.array([[-1.0]]), 0.0)
        h_before = controller.current_step
        # ||[-100] - [-1]|| / ||[-1]||
        h_after = controller.propose(np.array([[-100.0]]), 99.0)
        assert h_after < h_before
        assert h_after == pytest.approx(h_before * 0.1)  # the shrink limit

    def test_never_below_h_min(self):
        settings = StepControlSettings(h_initial=1e-6, h_min=1e-6, h_max=1.0)
        controller = StepSizeController(settings)
        controller.propose(np.array([[-1.0]]), 0.0)
        h = controller.propose(np.array([[-1e9]]) * 1e6, 1e15)
        assert h >= 1e-6

    def test_stability_bound_enforced(self, monkeypatch):
        monkeypatch.setattr(stepper, "SAFETY", 1.0)
        settings = StepControlSettings(h_initial=1.0, h_max=1.0)
        controller = StepSizeController(settings, integrator=ForwardEuler())
        h = controller.propose(np.array([[-1000.0]]), 0.0)
        assert h <= 2.0 / 1000.0 + 1e-12

    def test_reset_restores_initial_step(self):
        controller = StepSizeController(StepControlSettings(h_initial=1e-4, h_max=1.0))
        for _ in range(5):
            controller.propose(np.array([[-1.0]]), 0.0)
        assert controller.current_step > 1e-4
        controller.reset()
        assert controller.current_step == pytest.approx(1e-4)

    def test_drift_is_consumed_not_measured(self):
        # the controller holds no previous Jacobian: a jump in the matrix
        # it is given changes nothing unless the drift says so
        # at the default change target 0.1
        settings = StepControlSettings(h_initial=1e-4, h_max=1.0)
        quiet, told = StepSizeController(settings), StepSizeController(settings)
        for controller in (quiet, told):
            controller.propose(np.array([[-1.0]]), 0.0)
        assert quiet.propose(np.array([[-2.0]]), 0.0) == pytest.approx(4e-4)
        assert told.propose(np.array([[-2.0]]), 1.0) == pytest.approx(2e-5)
        assert not hasattr(StepSizeController, "jacobian_change")


def test_batched_drift_is_the_scalar_norm_ratio_bitwise():
    # the batched lanes and the scalar monitor must read the same drift,
    # or step control could branch differently in the last bit
    rng = np.random.default_rng(7)
    exponents = rng.integers(-8, 8, size=(256, 1, 1)).astype(float)
    reference = rng.standard_normal((256, 12, 12)) * 10.0**exponents
    a = reference + rng.standard_normal((256, 12, 12)) * 1e-3 * 10.0**exponents
    reference[0] = 0.0  # a zero-norm reference falls back to scale 1
    expected = np.array(
        [
            np.linalg.norm(a_i - r_i) / (np.linalg.norm(r_i) or 1.0)
            for a_i, r_i in zip(a, reference)
        ]
    )
    assert relative_jacobian_drift(a, reference).tobytes() == expected.tobytes()


def test_scalar_norm_is_numpys_bitwise():
    # the scalar march's drift and divergence norms skip np.linalg.norm's
    # dispatch; the figure must stay its own, or step control could
    # branch differently in the last bit
    rng = np.random.default_rng(3)
    for shape in [(11,), (12, 12), (3, 3)]:
        for scale in (1e-8, 1.0, 1e150):
            m = rng.standard_normal(shape) * scale
            assert np.float64(frobenius_norm(m)).tobytes() == np.linalg.norm(m).tobytes()
    transposed = rng.standard_normal((5, 7)).T
    assert frobenius_norm(transposed) == np.linalg.norm(transposed)
    assert frobenius_norm(np.zeros((4, 4))) == 0.0


class TestBatchedInvalidStep:
    """An invalid batched proposal names the lane rows at fault."""

    @staticmethod
    def _controller():
        controller = BatchedStepController([StepControlSettings()] * 3)
        a = np.stack([np.diag([-1.0, -2.0])] * 3)
        return controller, a

    def test_every_lane_proposing(self):
        controller, a = self._controller()
        controller._h_current[1] = np.nan
        drift, stability = controller.drifts(a, a)
        with pytest.raises(StepSizeError, match=r"lane rows \[1\]: \[nan\]$"):
            controller.propose(a, drift, stability)

    def test_a_subset_proposing(self):
        controller, a = self._controller()
        controller._h_current[2] = np.nan
        lanes = np.array([0, 2])
        drift, stability = controller.drifts(a[lanes], a[lanes], lanes)
        with pytest.raises(StepSizeError, match=r"lane rows \[2\]: \[nan\]$"):
            controller.propose(a, drift, stability, lanes=lanes)
        # the proposal was refused: no lane's controller state advanced
        assert controller._h_current[0] == StepControlSettings().h_initial
