"""Variable-step Adams-Bashforth multi-step integration.

Eq. (5) of the paper advances the state with a multi-step Adams-Bashforth
formula whose coefficients "are dependent on the varying step-size".  This
module implements the general variable-step form: the derivative history
``f(t_{n-p+1}) ... f(t_n)`` is interpolated by the unique polynomial of
degree ``p-1`` through those samples, and that polynomial is integrated
exactly from ``t_n`` to ``t_{n+1}``:

.. math::

   x_{n+1} = x_n + \\int_{t_n}^{t_{n+1}} P_{p-1}(\\tau)\\,d\\tau
           = x_n + h \\sum_i \\beta_i f(t_i, x_i)

For a uniform grid the weights reduce to the classical Adams-Bashforth
coefficients (1), (3/2, -1/2), (23/12, -16/12, 5/12), ... which is checked
by the unit tests.  While the derivative history is still shorter than the
requested order (at simulation start and after every digital-event
discontinuity) the step is taken with a classical fourth-order Runge-Kutta
starter so that the formal convergence order is not degraded by the
start-up, while the derivative samples collected along the way fill the
Adams-Bashforth history.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import DerivativeFn, ExplicitIntegrator, IntegratorState

__all__ = ["AdamsBashforth", "adams_bashforth_coefficients"]

_MAX_ORDER = 5

#: Classical fixed-step Adams-Bashforth coefficients, newest sample first.
_CLASSICAL_COEFFICIENTS = {
    1: (1.0,),
    2: (3.0 / 2.0, -1.0 / 2.0),
    3: (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0),
    4: (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0),
    5: (
        1901.0 / 720.0,
        -2774.0 / 720.0,
        2616.0 / 720.0,
        -1274.0 / 720.0,
        251.0 / 720.0,
    ),
}


def adams_bashforth_coefficients(order: int) -> Tuple[float, ...]:
    """Classical fixed-step Adams-Bashforth coefficients (newest first)."""
    try:
        return _CLASSICAL_COEFFICIENTS[order]
    except KeyError:
        raise ValueError(
            f"Adams-Bashforth order must be in 1..{_MAX_ORDER}, got {order}"
        ) from None


#: bound on the memoised weight sets; an adaptive run that sits at its
#: step cap needs a handful, a digital-event restart a few more
_WEIGHT_CACHE_SIZE = 128


def _variable_step_weights(
    sample_times: Sequence[float], t_start: float, t_end: float
) -> np.ndarray:
    """Integration weights for the interpolating polynomial through
    ``sample_times``, integrated over ``[t_start, t_end]``.

    Weight ``w_i`` multiplies the derivative sample at ``sample_times[i]``;
    it equals the integral of the i-th Lagrange basis polynomial.  Times
    are shifted by ``t_start`` before forming the Vandermonde system to
    keep the computation well conditioned for the sub-millisecond steps
    used in harvester simulations.

    The weights depend only on the shifted times and the span, which
    repeat whenever the step size does, so the solve is memoised on
    exactly those floats.  The returned array is shared and read-only.
    """
    shifted = tuple(float(sample_t) - t_start for sample_t in sample_times)
    return _shifted_weights(shifted, t_end - t_start)


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _shifted_weights(times: Tuple[float, ...], span: float) -> np.ndarray:
    k = len(times)
    # Solve V^T c = m where V_{ij} = times[i]^j and m_j = span^(j+1)/(j+1):
    # this gives weights such that sum_i w_i * q(times[i]) = int_0^span q
    # for every polynomial q of degree < k.
    vander = np.vander(np.array(times), N=k, increasing=True)  # rows: samples, cols: powers
    moments = np.array([span ** (j + 1) / (j + 1) for j in range(k)])
    weights = np.linalg.solve(vander.T, moments)
    weights.flags.writeable = False
    return weights


#: approximate extent of the AB stability regions along the negative real
#: axis and the imaginary axis of the ``h * lambda`` plane, per order.
#: Orders 3 and 4 are the only ones whose region covers a usable stretch of
#: the imaginary axis, which matters for the harvester's lightly damped
#: mechanical resonance.
_STABILITY_EXTENTS = {
    1: (2.0, 0.0),
    2: (1.0, 0.0),
    3: (6.0 / 11.0, 0.72),
    4: (0.3, 0.43),
    5: (0.163, 0.0),
}


class AdamsBashforth(ExplicitIntegrator):
    """Variable-step Adams-Bashforth formula of order 1 to 5.

    Parameters
    ----------
    order:
        Requested order ``p``.  The method starts at order 1 and ramps up
        as derivative history accumulates.
    """

    name = "adams_bashforth"

    def __init__(self, order: int = 2) -> None:
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError(
                f"Adams-Bashforth order must be in 1..{_MAX_ORDER}, got {order}"
            )
        self.order = int(order)
        self.stability_real_extent, self.stability_imag_extent = _STABILITY_EXTENTS[
            self.order
        ]

    def step(
        self,
        func: DerivativeFn,
        t: float,
        x: np.ndarray,
        h: float,
        state: Optional[IntegratorState] = None,
    ) -> np.ndarray:
        if h <= 0.0:
            raise ValueError(f"step size must be positive, got {h}")
        x = np.asarray(x, dtype=float)
        derivative = np.asarray(func(t, x), dtype=float)
        if state is None:
            # degenerate use without history: behave as Forward Euler
            return x + h * derivative
        state.push(t, derivative, max_length=self.order)

        if len(state.history) < self.order and self.order > 1:
            # start-up (or restart after a discontinuity): take a classical
            # RK4 step so the overall order is not limited by the first steps
            return self._runge_kutta_start(func, t, x, h, derivative)

        samples: List[Tuple[float, np.ndarray]] = list(state.history)
        times = [sample_t for sample_t, _ in samples]
        derivatives = np.stack([sample_f for _, sample_f in samples])
        weights = _variable_step_weights(times, t_start=t, t_end=t + h)
        increment = weights @ derivatives
        return x + increment

    def step_batch(
        self,
        func: DerivativeFn,
        t: float,
        x: np.ndarray,
        h: float,
        state: Optional[IntegratorState] = None,
    ) -> np.ndarray:
        """Lock-step Adams-Bashforth update for a ``(B, n)`` lane stack.

        The history holds stacked ``(B, n)`` derivative samples at the
        shared step times, and the weight contraction runs as a stacked
        ``matmul`` — the same BLAS kernel per lane as the scalar
        ``weights @ derivatives`` — so every lane advances bit-identically
        to its scalar march.  The start-up RK4 step is element-wise and
        reuses the scalar helper unchanged.
        """
        if h <= 0.0:
            raise ValueError(f"step size must be positive, got {h}")
        x = np.asarray(x, dtype=float)
        derivative = np.asarray(func(t, x), dtype=float)
        if state is None:
            return x + h * derivative
        state.push(t, derivative, max_length=self.order)

        if len(state.history) < self.order and self.order > 1:
            return self._runge_kutta_start(func, t, x, h, derivative)

        samples: List[Tuple[float, np.ndarray]] = list(state.history)
        times = [sample_t for sample_t, _ in samples]
        # (B, k, n): lane-major stack of the k retained derivative samples
        derivatives = np.stack([sample_f for _, sample_f in samples], axis=1)
        weights = _variable_step_weights(times, t_start=t, t_end=t + h)
        increment = np.matmul(weights[None, None, :], derivatives)[:, 0, :]
        return x + increment

    @staticmethod
    def _runge_kutta_start(
        func: DerivativeFn, t: float, x: np.ndarray, h: float, k1: np.ndarray
    ) -> np.ndarray:
        """One classical RK4 step reusing the already-evaluated ``k1``."""
        k2 = np.asarray(func(t + h / 2.0, x + (h / 2.0) * k1), dtype=float)
        k3 = np.asarray(func(t + h / 2.0, x + (h / 2.0) * k2), dtype=float)
        k4 = np.asarray(func(t + h, x + h * k3), dtype=float)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
