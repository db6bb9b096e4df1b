"""Adaptive step-size control for the explicit march-in-time sweep.

The paper controls the step size through two mechanisms:

1. **Stability** — the step must keep the point total-step matrix
   ``I + h A`` contractive (Eq. 7), ensured cheaply through diagonal
   dominance because the analogue blocks are passive.
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
from .stability import (
    diagonal_dominance_step_limit,
    integrator_step_limit,
    integrator_step_limit_batch,
)

__all__ = [
    "StepControlSettings",
    "StepSizeController",
    "BatchedStepController",
    "negotiate_shared_step",
    "relative_jacobian_drift",
]


def relative_jacobian_drift(a: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-lane relative Frobenius drift of stacked Jacobians.

    ``||a_i - reference_i||_F / ||reference_i||_F`` with a zero-norm
    reference falling back to an absolute scale of 1 — the batched
    counterpart of the scalar controllers' drift metric, shared by step
    control and the batched solver's LLE monitoring so the two can never
    desynchronise.
    """
    diff = a - reference
    scale = np.sqrt(np.sum(reference * reference, axis=(1, 2)))
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.sqrt(np.sum(diff * diff, axis=(1, 2))) / scale


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
    use_spectral_limit:
        When ``True`` (default) the controller uses the eigenvalue-based
        bound tailored to the integrator's stability region (accurate but
        O(n^3) per evaluation, mitigated by caching); when ``False`` it
        uses the cheap diagonal-dominance bound the paper recommends for
        passive systems.
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
    use_spectral_limit: bool = True
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
        self._previous_jacobian: Optional[np.ndarray] = None
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
        self._previous_jacobian = None
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
        if not settings.use_spectral_limit:
            return diagonal_dominance_step_limit(a_reduced, safety=settings.safety)
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

    def jacobian_change(self, a_reduced: np.ndarray) -> float:
        """Relative change of the reduced Jacobian since the previous step."""
        if self._previous_jacobian is None:
            return 0.0
        previous = self._previous_jacobian
        scale = np.linalg.norm(previous)
        if scale == 0.0:
            scale = 1.0
        return float(np.linalg.norm(a_reduced - previous) / scale)

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def propose(
        self,
        a_reduced: np.ndarray,
        *,
        t_remaining: Optional[float] = None,
        jacobian_change: Optional[float] = None,
    ) -> float:
        """Return the step size to use for the next explicit step.

        Parameters
        ----------
        a_reduced:
            Reduced system matrix ``A_r`` at the current time point.
        t_remaining:
            Time left until the simulation (or the next digital event);
            the proposed step never overshoots it.
        jacobian_change:
            The :meth:`jacobian_change` of ``a_reduced`` when the caller
            has already measured it against the same previous matrix (the
            solver shares its LLE monitor's figure); computed when omitted.
        """
        settings = self.settings
        h = self._h_current

        # accuracy control: shrink/grow according to the observed Jacobian drift
        change = (
            self.jacobian_change(a_reduced) if jacobian_change is None else jacobian_change
        )
        if change > settings.jacobian_change_target:
            factor = max(
                settings.shrink_limit, settings.jacobian_change_target / change
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

        self._previous_jacobian = np.array(a_reduced, dtype=float, copy=True)
        self._h_current = h
        return h


class BatchedStepController:
    """Lane-parallel step-size control for the batched lock-step march.

    Runs the same accuracy/stability policy as ``B`` independent
    :class:`StepSizeController` instances — per-lane Jacobian-drift
    shrink/grow, per-lane cached spectral limits with drift-triggered
    recomputation — but holds everything in stacked arrays so one batched
    eigenvalue sweep serves every lane that needs a fresh stability bound.

    The batched solver marches all lanes at the *minimum* of the per-lane
    proposals; :meth:`commit` feeds that shared step back so the per-lane
    growth limit references the step actually executed, exactly as the
    scalar controller's ``_h_current`` does.

    Lanes may carry different :class:`StepControlSettings` (a frequency
    sweep gives every candidate its own ``h_max``); the per-lane knobs are
    stored as arrays.  ``use_spectral_limit`` must agree across lanes.
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
        spectral = {lane_settings.use_spectral_limit for lane_settings in settings}
        if len(spectral) != 1:
            raise ConfigurationError(
                "all lanes of a batched march must agree on use_spectral_limit"
            )
        self._use_spectral = spectral.pop()
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

        self._h_current = self._h_initial.copy()
        self._previous_jacobian: Optional[np.ndarray] = None
        self._stability_jacobian: Optional[np.ndarray] = None
        self._cached_stability_limit: Optional[np.ndarray] = None

    @property
    def n_lanes(self) -> int:
        """Number of lanes."""
        return self._h_current.shape[0]

    def reset(self) -> None:
        """Reset every lane (mirrors :meth:`StepSizeController.reset`)."""
        self._h_current = self._h_initial.copy()
        self._previous_jacobian = None
        self._stability_jacobian = None
        self._cached_stability_limit = None

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
        ):
            setattr(self, attr, getattr(self, attr)[keep])
        for attr in (
            "_previous_jacobian",
            "_stability_jacobian",
            "_cached_stability_limit",
        ):
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, value[keep])

    # ------------------------------------------------------------------ #
    # criteria
    # ------------------------------------------------------------------ #
    def stability_limits(self, a_reduced: np.ndarray) -> np.ndarray:
        """Per-lane stable-step bounds with drift-gated recomputation."""
        b = a_reduced.shape[0]
        if not self._use_spectral:
            return np.array(
                [
                    diagonal_dominance_step_limit(
                        a_reduced[i], safety=float(self._safety[i])
                    )
                    for i in range(b)
                ]
            )
        if self._cached_stability_limit is None:
            recompute = np.ones(b, dtype=bool)
        else:
            drift = relative_jacobian_drift(a_reduced, self._stability_jacobian)
            recompute = drift > self._recompute_threshold
        if np.any(recompute):
            fresh = integrator_step_limit_batch(
                a_reduced[recompute],
                real_extent=self._real_extent,
                imag_extent=self._imag_extent,
                safety=1.0,
            )
            fresh = np.where(
                np.isfinite(fresh), self._safety[recompute] * fresh, float("inf")
            )
            if self._cached_stability_limit is None:
                self._cached_stability_limit = fresh
                self._stability_jacobian = np.array(a_reduced, dtype=float, copy=True)
            else:
                self._cached_stability_limit[recompute] = fresh
                self._stability_jacobian[recompute] = a_reduced[recompute]
        return self._cached_stability_limit

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def propose(
        self, a_reduced: np.ndarray, *, t_remaining: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-lane step proposals for the next shared explicit step.

        ``a_reduced`` is the stacked ``(B, n, n)`` reduced system matrices;
        ``t_remaining`` the per-lane time left (or ``None``).  Returns the
        ``(B,)`` array of proposals; the caller marches at their minimum.
        """
        h = self._h_current

        if self._previous_jacobian is None:
            change = np.zeros(h.shape[0])
        else:
            change = relative_jacobian_drift(a_reduced, self._previous_jacobian)
        shrink_factor = np.maximum(
            self._shrink,
            np.divide(
                self._change_target,
                change,
                out=np.ones_like(change),
                where=change > 0.0,
            ),
        )
        h = np.where(change > self._change_target, h * shrink_factor, h * self._growth)

        h = np.minimum(h, self.stability_limits(a_reduced))
        h = np.minimum(h, self._h_max)
        h = np.maximum(h, self._h_min)
        if t_remaining is not None:
            h = np.where(t_remaining > 0.0, np.minimum(h, t_remaining), h)

        if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
            raise StepSizeError(
                f"batched step controller produced invalid steps {h!r}"
            )
        self._previous_jacobian = np.array(a_reduced, dtype=float, copy=True)
        self._h_current = h
        return h

    def commit(self, h_shared: float) -> None:
        """Record the shared step actually executed by the lock-step march."""
        self._h_current = np.full(self.n_lanes, float(h_shared))


def negotiate_shared_step(
    controller: Optional["BatchedStepController"],
    reduced_a: Optional[np.ndarray],
    remaining: np.ndarray,
    fixed_step: Optional[float],
    refresh: bool,
    held_h: Optional[float],
) -> "Tuple[float, float, Optional[float]]":
    """One shared-step decision of the lock-step batched march.

    The step-choice block of ``BatchedSolver``'s march (which also feeds
    ``h_nominal`` to its burst kernels, whose in-burst schedule
    ``h_j = min(h_nominal, min(t_end) - t_j)`` replicates the held-step
    clamp below bitwise — that is what lets adaptive runs advance in
    multi-step bursts between negotiations):

    * fixed-step mode: ``h = min(fixed_step, min(remaining))``;
    * at a refresh: batched proposals against the fresh Jacobians, march
      at their minimum, commit it as the new held step;
    * on held steps: reuse the committed step, clamped to the remaining
      time.

    Returns ``(h, h_nominal, held_h)`` — the step to take now, the
    nominal step a burst may repeat until its next clamp/event, and the
    updated held step.
    """
    if fixed_step is not None:
        return (
            float(min(fixed_step, float(np.min(remaining)))),
            fixed_step,
            held_h,
        )
    if refresh:
        proposals = controller.propose(reduced_a, t_remaining=remaining)
        h = float(np.min(proposals))
        controller.commit(h)
        return h, h, h
    h = float(min(held_h, float(np.min(remaining))))
    return h, held_h, held_h
