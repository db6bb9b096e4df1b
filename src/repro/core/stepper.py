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

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, StepSizeError
from .stability import integrator_step_limit, integrator_step_limit_batch

__all__ = [
    "StepControlSettings",
    "StepSizeController",
    "BatchedStepController",
    "frobenius_norm",
    "jacobian_drifts",
    "relative_jacobian_drift",
    "SAFETY",
    "GROWTH_LIMIT",
    "SHRINK_LIMIT",
    "JACOBIAN_CHANGE_TARGET",
    "STABILITY_RECOMPUTE_THRESHOLD",
    "LLE_TOLERANCE",
]

# The step-control policy.  Every run uses these values: they are not
# settings, so they are in no cache key, and both march loops read them
# from this module when they run.
#: multiplier (< 1) applied to the theoretical stability limit
SAFETY = 0.8
#: largest factor by which the step may grow between consecutive proposals
GROWTH_LIMIT = 2.0
#: smallest factor by which one adjustment may shrink the step
SHRINK_LIMIT = 0.1
#: relative Jacobian change per refresh that the accuracy control aims
#: for; larger observed changes shrink the step proportionally
JACOBIAN_CHANGE_TARGET = 0.1
#: relative Jacobian change above which the eigenvalue bound is recomputed;
#: below it the cached bound is reused
STABILITY_RECOMPUTE_THRESHOLD = 0.02
#: relative Jacobian change between consecutive refreshes above which a
#: refresh counts as flagged (the ``lle_flagged_steps`` metadata)
LLE_TOLERANCE = 0.1


def frobenius_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m)`` of one array, bitwise, without its dispatch.

    NumPy's own fast path for the default norm: the square root of the
    flattened array's dot product with itself.
    """
    flat = m.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def relative_jacobian_drift(a: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-lane relative Frobenius drift of stacked Jacobians.

    ``||a_i - reference_i||_F / ||reference_i||_F`` with a zero-norm
    reference falling back to an absolute scale of 1 — the batched
    counterpart of the scalar solver's drift figure.  Each norm is a
    stacked ``matmul`` of the flattened lane with itself: the dot product
    ``np.linalg.norm`` takes, so every lane's drift is bitwise the scalar
    solver's.  :func:`jacobian_drifts` takes several references at once.
    """
    scale = _frobenius_norms(reference)
    scale = np.where(scale == 0.0, 1.0, scale)
    return _frobenius_norms(a - reference) / scale


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(m.shape[0], 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def jacobian_drifts(
    a: np.ndarray, *references: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, ...]:
    """:func:`relative_jacobian_drift` of ``a`` against each reference, bitwise.

    Each reference comes with its kept Frobenius norms, a
    ``(reference, norms)`` pair.  Every difference ``a - reference`` and
    ``a`` itself are rows of one ``((k + 1) * B, n*n)`` stack whose norms
    are one stacked ``matmul``: the same dot product per row as
    ``np.linalg.norm`` and as :func:`relative_jacobian_drift`, whatever
    the stack size.  Returns the ``k`` drifts followed by the norms of
    ``a``, which the caller keeps as the norms of the next refresh's
    reference.  The batched march measures both drifts of a refresh here:
    the LLE drift against each lane's previous Jacobian and the stability
    drift against its controller's bound matrix.
    """
    k = len(references)
    stack = np.empty((k + 1,) + a.shape)
    for j, (reference, _) in enumerate(references):
        np.subtract(a, reference, out=stack[j])
    stack[k] = a
    rows = stack.reshape((k + 1) * a.shape[0], 1, -1)
    norms = np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1))).reshape(k + 1, -1)
    scales = np.array([scale for _, scale in references])
    if np.count_nonzero(scales) != scales.size:
        # a zero-norm reference falls back to an absolute scale of 1
        scales[scales == 0.0] = 1.0
    return (*(norms[:k] / scales), norms[k])


@dataclass
class StepControlSettings:
    """The step bounds of the adaptive step controller.

    The policy between the bounds is fixed: see the module constants
    (:data:`SAFETY`, :data:`GROWTH_LIMIT`, :data:`SHRINK_LIMIT`,
    :data:`JACOBIAN_CHANGE_TARGET`, :data:`STABILITY_RECOMPUTE_THRESHOLD`).

    Attributes
    ----------
    h_initial:
        First step size of the march.
    h_min, h_max:
        Hard bounds on the step size.
    """

    h_initial: float = 1e-4
    h_min: float = 1e-9
    h_max: float = 1e-2

    def validate(self) -> None:
        """Sanity-check the settings, raising :class:`ConfigurationError`."""
        if self.h_initial <= 0.0:
            raise ConfigurationError("h_initial must be positive")
        if self.h_min <= 0.0 or self.h_max <= 0.0:
            raise ConfigurationError("h_min and h_max must be positive")
        if self.h_min > self.h_max:
            raise ConfigurationError("h_min must not exceed h_max")


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
        drifted by more than :data:`STABILITY_RECOMPUTE_THRESHOLD` since
        the last computation; otherwise the cached value is reused.
        """
        if self._cached_stability_limit is not None and self._stability_jacobian is not None:
            drift = frobenius_norm(a_reduced - self._stability_jacobian) / self._stability_scale
            if drift <= STABILITY_RECOMPUTE_THRESHOLD:
                return self._cached_stability_limit
        limit = integrator_step_limit(
            a_reduced,
            real_extent=self._real_extent,
            imag_extent=self._imag_extent,
            safety=SAFETY,
        )
        self._stability_jacobian = np.array(a_reduced, dtype=float, copy=True)
        self._stability_scale = frobenius_norm(self._stability_jacobian) or 1.0
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
        if jacobian_change > JACOBIAN_CHANGE_TARGET:
            h = h * max(SHRINK_LIMIT, JACOBIAN_CHANGE_TARGET / jacobian_change)
        else:
            h = h * GROWTH_LIMIT

        # stability control
        h_stable = self.stability_limit(a_reduced)
        h = min(h, h_stable, settings.h_max)
        h = max(h, settings.h_min)

        if t_remaining is not None and t_remaining > 0.0:
            h = min(h, t_remaining)

        if h <= 0.0 or not math.isfinite(h):
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
    The caller measures both drifts of a refresh in one stacked norm
    evaluation (:meth:`drifts`): the drift against each lane's previous
    Jacobian, which drives shrink/grow (the batched solver holds it, as the
    scalar solver does for its controller), and the drift against the
    matrix of the lane's cached bound, which gates its recomputation.
    When a bound is stored the lane keeps its matrix's norm, the scale of
    that drift, and ``min(bound, h_max)``, the cap of its proposals.
    Each lane keeps its own proposal: the batched solver marches every
    lane at its own step, so lane ``i``'s proposals are exactly its
    scalar controller's.

    Lanes may carry different :class:`StepControlSettings` (a frequency
    sweep gives every candidate its own ``h_max``); the per-lane bounds
    are stored as arrays, and every lane shares the module's policy
    constants.
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
        self.reset()

    @property
    def n_lanes(self) -> int:
        """Number of lanes."""
        return self._h_current.shape[0]

    def reset(self, lanes: Optional[np.ndarray] = None) -> None:
        """Reset ``lanes`` (default: every lane), as
        :meth:`StepSizeController.reset` resets one run after a digital
        discontinuity."""
        self._all_bound = False
        if lanes is not None:
            self._h_current[lanes] = self._h_initial[lanes]
            # a lane without a bound is capped by its ``h_max`` alone
            self._h_cap[lanes] = self._h_max[lanes]
            self._has_stability[lanes] = False
            return
        b = self._h_initial.shape[0]
        self._h_current = self._h_initial.copy()
        # per-lane matrices of the cached bounds, allocated on first use,
        # and their norms; the mask says which lanes hold one yet
        self._stability_jacobian: Optional[np.ndarray] = None
        self._bound_norm = np.zeros(b)
        self._has_stability = np.zeros(b, dtype=bool)
        # ``min(bound, h_max)`` per lane, updated when a bound is stored
        self._h_cap = self._h_max.copy()

    def select(self, keep: np.ndarray) -> None:
        """Drop retired lanes, keeping only the indices in ``keep``."""
        for attr in (
            "_h_initial",
            "_h_min",
            "_h_max",
            "_h_current",
            "_h_cap",
            "_bound_norm",
            "_has_stability",
            "_stability_jacobian",
        ):
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, value[keep])

    # ------------------------------------------------------------------ #
    # criteria
    # ------------------------------------------------------------------ #
    def _bound_matrices(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Every lane's cached-bound matrix (zeros where none is held)."""
        if self._stability_jacobian is None:
            self._stability_jacobian = np.zeros((self.n_lanes,) + tuple(shape[1:]))
        return self._stability_jacobian

    def drifts(
        self,
        a_reduced: np.ndarray,
        reference: np.ndarray,
        reference_norm: np.ndarray,
        lanes: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The two Jacobian drifts of the lanes in ``lanes`` (default: all).

        ``a_reduced`` and ``reference`` hold those lanes' fresh and
        previous Jacobians, ``reference_norm`` the previous Jacobians'
        kept norms.  Returns the drift against ``reference``, the drift
        against each lane's cached-bound matrix, which :meth:`propose`
        takes as ``stability_drift`` (a lane holding no bound recomputes
        it whatever its figure), and the norms of ``a_reduced`` to keep
        for the next refresh, all from one :func:`jacobian_drifts`
        evaluation against the bounds' norms kept since they were stored.
        """
        held = self._bound_matrices(a_reduced.shape)
        if lanes is None:
            bound = (held, self._bound_norm)
        else:
            bound = (held[lanes], self._bound_norm[lanes])
        return jacobian_drifts(a_reduced, (reference, reference_norm), bound)

    def _refresh_bounds(
        self,
        a_reduced: np.ndarray,
        stability_drift: np.ndarray,
        lanes: Optional[np.ndarray],
    ) -> None:
        """Recompute the stable-step bounds of ``lanes`` (default: all)
        that hold none or whose ``stability_drift`` (see :meth:`drifts`)
        exceeds :data:`STABILITY_RECOMPUTE_THRESHOLD`; ``a_reduced``
        covers every lane."""
        recompute = stability_drift > STABILITY_RECOMPUTE_THRESHOLD
        if not self._all_bound:
            held = self._has_stability if lanes is None else self._has_stability[lanes]
            recompute |= ~held
        if not np.count_nonzero(recompute):
            return
        rows = recompute.nonzero()[0]
        targets = rows if lanes is None else lanes[rows]
        a = a_reduced[targets]
        fresh = integrator_step_limit_batch(
            a,
            real_extent=self._real_extent,
            imag_extent=self._imag_extent,
            safety=1.0,
        )
        bound = np.where(np.isfinite(fresh), SAFETY * fresh, float("inf"))
        self._h_cap[targets] = np.minimum(bound, self._h_max[targets])
        self._bound_matrices(a_reduced.shape)[targets] = a
        self._bound_norm[targets] = _frobenius_norms(a)
        self._has_stability[targets] = True
        self._all_bound = np.count_nonzero(self._has_stability) == self.n_lanes

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def propose(
        self,
        a_reduced: np.ndarray,
        jacobian_change: np.ndarray,
        stability_drift: np.ndarray,
        *,
        t_remaining: Optional[np.ndarray] = None,
        lanes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Step proposals for the lanes in ``lanes`` (default: all).

        ``a_reduced`` is the stacked ``(B, n, n)`` reduced system matrices
        and ``t_remaining`` the per-lane time left (or ``None``), both for
        every lane; only the ``lanes`` entries are read, and only their
        controller state advances.  ``jacobian_change`` and
        ``stability_drift`` are the selected lanes' two :meth:`drifts`:
        the first since their previous proposal (0 for a lane's first
        proposal after a reset).  Returns one proposal per selected lane.
        """
        every = lanes is None
        h = self._h_current if every else self._h_current[lanes]

        # accuracy control: the scalar controller's shrink factor
        # ``max(SHRINK_LIMIT, target / change)`` where the drift exceeds
        # the target (the divisor is then the lane's drift), growth elsewhere
        shrink = jacobian_change > JACOBIAN_CHANGE_TARGET
        if np.count_nonzero(shrink):
            factor = np.maximum(
                SHRINK_LIMIT,
                JACOBIAN_CHANGE_TARGET
                / np.maximum(jacobian_change, JACOBIAN_CHANGE_TARGET),
            )
            h = h * np.where(shrink, factor, GROWTH_LIMIT)
        else:
            h = h * GROWTH_LIMIT

        # the stability bound and ``h_max`` in one kept cap: ``min`` is
        # exact, so ``min(h, min(bound, h_max))`` is the scalar
        # ``min(h, bound, h_max)`` bit for bit
        self._refresh_bounds(a_reduced, stability_drift, lanes)
        np.minimum(h, self._h_cap if every else self._h_cap[lanes], out=h)
        np.maximum(h, self._h_min if every else self._h_min[lanes], out=h)
        if t_remaining is not None:
            remaining = t_remaining if every else t_remaining[lanes]
            np.minimum(h, remaining, out=h, where=remaining > 0.0)

        # ``h >= h_min > 0`` here, so only NaN and inf can be invalid
        if np.count_nonzero(h < np.inf) != h.size:
            bad = (~(h < np.inf)).nonzero()[0]
            rows = bad if every else np.asarray(lanes)[bad]
            raise StepSizeError(
                "batched step controller produced invalid steps in lane rows "
                f"{rows.tolist()}: {h[bad].tolist()}"
            )
        if every:
            self._h_current[:] = h
        else:
            self._h_current[lanes] = h
        return h
