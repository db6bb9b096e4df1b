"""Forward (explicit) Euler integration.

The simplest explicit formula, mentioned in the paper as one of the
admissible choices for the feed-forward march.  First-order accurate:
local truncation error O(h^2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import DerivativeFn, ExplicitIntegrator, IntegratorState

__all__ = ["ForwardEuler"]


class ForwardEuler(ExplicitIntegrator):
    """``x(t+h) = x(t) + h * f(t, x(t))``."""

    name = "forward_euler"
    order = 1
    stability_real_extent = 2.0
    stability_imag_extent = 0.0

    def step(
        self,
        func: DerivativeFn,
        t: float,
        x: np.ndarray,
        h: float,
        state: Optional[IntegratorState] = None,
    ) -> np.ndarray:
        if np.any(h <= 0.0):
            raise ValueError(f"step size must be positive, got {h}")
        derivative = np.asarray(func(t, x), dtype=float)
        if state is not None:
            state.push(t, derivative, max_length=1)
        return np.asarray(x, dtype=float) + h * derivative
