"""Adaptive step-size control for the explicit march-in-time sweep.

The paper controls the step size through two mechanisms:

1. **Stability** — the step must keep the point total-step matrix
   ``I + h A`` contractive (Eq. 7).  The paper ensures this through
   diagonal dominance; the controller bounds the step by the reduced
   matrix's eigenvalues inscribed in the integrator's stability region
   (:func:`~repro.core.stability.integrator_step_limit`), because the
   harvester's reduced matrix is far from diagonally dominant and the
   dominance bound would pin the step orders of magnitude lower.
2. **Accuracy** — the local linearisation error (Eq. 3) is "controlled by
   monitoring the changes in the Jacobian elements"; when the Jacobians
   change quickly the step is reduced, when they barely change the step
   may grow.

:class:`StepSizeController` combines both into a single ``propose`` call
used by the solver each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, StepSizeError
from .stability import integrator_step_limit, integrator_step_limit_batch

__all__ = [
    "StepControlSettings",
    "StepSizeController",
    "BatchedStepController",
    "relative_jacobian_drift",
]


def relative_jacobian_drift(a: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-lane relative Frobenius drift of stacked Jacobians.

    ``||a_i - reference_i||_F / ||reference_i||_F`` with a zero-norm
    reference falling back to an absolute scale of 1 — the batched
    counterpart of the scalar solver's drift figure, measured once per
    refresh and shared by step control and the ``lle_*`` metadata so the
    two can never desynchronise.  Each norm is a stacked ``matmul`` of the
    flattened lane with itself: the dot product ``np.linalg.norm`` takes,
    so every lane's drift is bitwise the scalar solver's.
    """
    scale = _frobenius_norms(reference)
    scale = np.where(scale == 0.0, 1.0, scale)
    return _frobenius_norms(a - reference) / scale


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(m.shape[0], 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


@dataclass
class StepControlSettings:
    """User-facing knobs of the adaptive step controller.

    Attributes
    ----------
    h_initial:
        First step size of the march.
    h_min, h_max:
        Hard bounds on the step size.
    safety:
        Multiplier (< 1) applied to the theoretical stability limit.
    growth_limit:
        Maximum factor by which the step may grow between consecutive
        accepted steps (prevents over-shooting right after a slow phase).
    shrink_limit:
        Maximum factor by which the step may shrink in a single adjustment.
    jacobian_change_target:
        Relative Jacobian change per step that the accuracy control aims
        for; larger observed changes shrink the step proportionally.
    stability_recompute_threshold:
        Relative Jacobian change above which the (expensive) eigenvalue
        bound is recomputed; below it the cached bound is reused.
    """

    h_initial: float = 1e-4
    h_min: float = 1e-9
    h_max: float = 1e-2
    safety: float = 0.8
    growth_limit: float = 2.0
    shrink_limit: float = 0.1
    jacobian_change_target: float = 0.1
    stability_recompute_threshold: float = 0.02

    def validate(self) -> None:
        """Sanity-check the settings, raising :class:`ConfigurationError`."""
        if self.h_initial <= 0.0:
            raise ConfigurationError("h_initial must be positive")
        if self.h_min <= 0.0 or self.h_max <= 0.0:
            raise ConfigurationError("h_min and h_max must be positive")
        if self.h_min > self.h_max:
            raise ConfigurationError("h_min must not exceed h_max")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError("safety must lie in (0, 1]")
        if self.growth_limit < 1.0:
            raise ConfigurationError("growth_limit must be >= 1")
        if not 0.0 < self.shrink_limit <= 1.0:
            raise ConfigurationError("shrink_limit must lie in (0, 1]")
        if self.jacobian_change_target <= 0.0:
            raise ConfigurationError("jacobian_change_target must be positive")
        if self.stability_recompute_threshold < 0.0:
            raise ConfigurationError("stability_recompute_threshold must be >= 0")


class StepSizeController:
    """Proposes the next step size from stability and accuracy information.

    Parameters
    ----------
    settings:
        Step-control settings.
    integrator:
        The explicit integrator whose stability region bounds the step.
        When omitted, Forward-Euler-like extents (2, 0) are assumed.
    """

    def __init__(
        self,
        settings: Optional[StepControlSettings] = None,
        integrator=None,
    ) -> None:
        self.settings = settings or StepControlSettings()
        self.settings.validate()
        self._real_extent = getattr(integrator, "stability_real_extent", 2.0)
        self._imag_extent = getattr(integrator, "stability_imag_extent", 0.0)
        self._h_current = self.settings.h_initial
        self._stability_jacobian: Optional[np.ndarray] = None
        self._stability_scale = 1.0
        self._cached_stability_limit: Optional[float] = None

    @property
    def current_step(self) -> float:
        """The most recently proposed step size."""
        return self._h_current

    def reset(self, h: Optional[float] = None) -> None:
        """Reset the controller (e.g. after a digital-event discontinuity)."""
        self._h_current = h if h is not None else self.settings.h_initial
        self._stability_jacobian = None
        self._cached_stability_limit = None

    # ------------------------------------------------------------------ #
    # individual criteria
    # ------------------------------------------------------------------ #
    def stability_limit(self, a_reduced: np.ndarray) -> float:
        """Largest stable step for the current reduced system matrix.

        The eigenvalue-based bound is only recomputed when the Jacobian has
        drifted by more than ``stability_recompute_threshold`` since the
        last computation; otherwise the cached value is reused.
        """
        settings = self.settings
        if self._cached_stability_limit is not None and self._stability_jacobian is not None:
            drift = np.linalg.norm(a_reduced - self._stability_jacobian) / self._stability_scale
            if drift <= settings.stability_recompute_threshold:
                return self._cached_stability_limit
        limit = integrator_step_limit(
            a_reduced,
            real_extent=self._real_extent,
            imag_extent=self._imag_extent,
            safety=settings.safety,
        )
        self._stability_jacobian = np.array(a_reduced, dtype=float, copy=True)
        self._stability_scale = np.linalg.norm(self._stability_jacobian) or 1.0
        self._cached_stability_limit = limit
        return limit

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def propose(
        self,
        a_reduced: np.ndarray,
        jacobian_change: float,
        *,
        t_remaining: Optional[float] = None,
    ) -> float:
        """Return the step size to use for the next explicit step.

        Parameters
        ----------
        a_reduced:
            Reduced system matrix ``A_r`` at the current time point.
        jacobian_change:
            Relative Frobenius drift of ``a_reduced`` since the previous
            proposal's matrix (0 for the first proposal after a reset).
            The solver measures it once per refresh; the controller only
            consumes it.
        t_remaining:
            Time left until the simulation (or the next digital event);
            the proposed step never overshoots it.
        """
        settings = self.settings
        h = self._h_current

        # accuracy control: shrink/grow according to the observed Jacobian drift
        if jacobian_change > settings.jacobian_change_target:
            factor = max(
                settings.shrink_limit,
                settings.jacobian_change_target / jacobian_change,
            )
            h = h * factor
        else:
            h = h * settings.growth_limit

        # stability control
        h_stable = self.stability_limit(a_reduced)
        h = min(h, h_stable, settings.h_max)
        h = max(h, settings.h_min)

        if t_remaining is not None and t_remaining > 0.0:
            h = min(h, t_remaining)

        if h <= 0.0 or not np.isfinite(h):
            raise StepSizeError(f"step controller produced invalid step {h!r}")

        self._h_current = h
        return h


class BatchedStepController:
    """Lane-parallel step-size control for the batched march.

    Runs the same accuracy/stability policy as ``B`` independent
    :class:`StepSizeController` instances — per-lane Jacobian-drift
    shrink/grow, per-lane cached spectral limits with drift-triggered
    recomputation — but holds everything in stacked arrays so one batched
    eigenvalue sweep serves every lane that needs a fresh stability bound.
    The caller measures the Jacobian drift that drives shrink/grow (the
    batched solver holds each lane's previous Jacobian, as the scalar
    solver does for its controller).
    Each lane keeps its own proposal: the batched solver marches every
    lane at its own step, so lane ``i``'s proposals are exactly its
    scalar controller's.

    Lanes may carry different :class:`StepControlSettings` (a frequency
    sweep gives every candidate its own ``h_max``); the per-lane knobs are
    stored as arrays.
    """

    def __init__(
        self,
        settings: Sequence[StepControlSettings],
        integrator=None,
    ) -> None:
        if not settings:
            raise ConfigurationError("BatchedStepController needs at least one lane")
        for lane_settings in settings:
            lane_settings.validate()
        self._real_extent = getattr(integrator, "stability_real_extent", 2.0)
        self._imag_extent = getattr(integrator, "stability_imag_extent", 0.0)

        def gather(attr: str) -> np.ndarray:
            return np.array([getattr(s, attr) for s in settings], dtype=float)

        self._h_initial = gather("h_initial")
        self._h_min = gather("h_min")
        self._h_max = gather("h_max")
        self._safety = gather("safety")
        self._growth = gather("growth_limit")
        self._shrink = gather("shrink_limit")
        self._change_target = gather("jacobian_change_target")
        self._recompute_threshold = gather("stability_recompute_threshold")
        self.reset()

    @property
    def n_lanes(self) -> int:
        """Number of lanes."""
        return self._h_current.shape[0]

    def reset(self, lanes: Optional[np.ndarray] = None) -> None:
        """Reset ``lanes`` (default: every lane), as
        :meth:`StepSizeController.reset` resets one run after a digital
        discontinuity."""
        if lanes is not None:
            self._h_current[lanes] = self._h_initial[lanes]
            self._cached_stability_limit[lanes] = np.inf
            self._has_stability[lanes] = False
            return
        b = self._h_initial.shape[0]
        self._h_current = self._h_initial.copy()
        # per-lane stability Jacobians, allocated on first use; the mask
        # says which lanes hold one yet
        self._stability_jacobian: Optional[np.ndarray] = None
        self._cached_stability_limit = np.full(b, np.inf)
        self._has_stability = np.zeros(b, dtype=bool)

    def select(self, keep: np.ndarray) -> None:
        """Drop retired lanes, keeping only the indices in ``keep``."""
        for attr in (
            "_h_initial",
            "_h_min",
            "_h_max",
            "_safety",
            "_growth",
            "_shrink",
            "_change_target",
            "_recompute_threshold",
            "_h_current",
            "_cached_stability_limit",
            "_has_stability",
            "_stability_jacobian",
        ):
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, value[keep])

    # ------------------------------------------------------------------ #
    # criteria
    # ------------------------------------------------------------------ #
    def stability_limits(
        self, a_reduced: np.ndarray, lanes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stable-step bounds of ``lanes`` (default: all) with drift-gated
        recomputation; ``a_reduced`` covers every lane."""
        # a slice selects every lane without copying
        sel = slice(None) if lanes is None else lanes
        a = a_reduced[sel]
        if self._stability_jacobian is None:
            self._stability_jacobian = np.zeros(a_reduced.shape)
        drift = relative_jacobian_drift(a, self._stability_jacobian[sel])
        recompute = ~self._has_stability[sel] | (
            drift > self._recompute_threshold[sel]
        )
        if np.any(recompute):
            fresh = integrator_step_limit_batch(
                a[recompute],
                real_extent=self._real_extent,
                imag_extent=self._imag_extent,
                safety=1.0,
            )
            targets = (
                np.flatnonzero(recompute) if lanes is None else lanes[recompute]
            )
            self._cached_stability_limit[targets] = np.where(
                np.isfinite(fresh), self._safety[targets] * fresh, float("inf")
            )
            self._stability_jacobian[targets] = a[recompute]
            self._has_stability[targets] = True
        return self._cached_stability_limit[sel]

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def propose(
        self,
        a_reduced: np.ndarray,
        jacobian_change: np.ndarray,
        *,
        t_remaining: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Step proposals for the lanes in ``lanes`` (default: all).

        ``a_reduced`` is the stacked ``(B, n, n)`` reduced system matrices
        and ``t_remaining`` the per-lane time left (or ``None``), both for
        every lane; only the ``lanes`` entries are read, and only their
        controller state advances.  ``jacobian_change`` is the selected
        lanes' :func:`relative_jacobian_drift` since their previous
        proposal (0 for a lane's first proposal after a reset).  Returns
        one proposal per selected lane.
        """
        sel = slice(None) if lanes is None else lanes
        h = self._h_current[sel]

        change_target = self._change_target[sel]
        shrink_factor = np.maximum(
            self._shrink[sel],
            np.divide(
                change_target,
                jacobian_change,
                out=np.ones_like(jacobian_change),
                where=jacobian_change > 0.0,
            ),
        )
        h = np.where(
            jacobian_change > change_target, h * shrink_factor, h * self._growth[sel]
        )

        h = np.minimum(h, self.stability_limits(a_reduced, lanes))
        h = np.minimum(h, self._h_max[sel])
        h = np.maximum(h, self._h_min[sel])
        if t_remaining is not None:
            remaining = t_remaining[sel]
            h = np.where(remaining > 0.0, np.minimum(h, remaining), h)

        if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
            raise StepSizeError(
                f"batched step controller produced invalid steps {h!r}"
            )
        self._h_current[sel] = h
        return h
