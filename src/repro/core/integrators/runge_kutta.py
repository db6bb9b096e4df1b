"""Explicit Runge-Kutta formulas (orders 2 and 4).

Single-step alternatives to Adams-Bashforth mentioned in the paper.  They
cost more derivative evaluations per step (each evaluation implies one
linearisation + terminal-variable elimination) but carry no history, which
makes them convenient right after digital-event discontinuities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import DerivativeFn, ExplicitIntegrator, IntegratorState

__all__ = ["RungeKutta2", "RungeKutta4"]


class RungeKutta2(ExplicitIntegrator):
    """Heun's method (explicit trapezoidal rule), second order."""

    name = "rk2"
    order = 2
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
        x = np.asarray(x, dtype=float)
        k1 = np.asarray(func(t, x), dtype=float)
        k2 = np.asarray(func(t + h, x + h * k1), dtype=float)
        return x + (h / 2.0) * (k1 + k2)


class RungeKutta4(ExplicitIntegrator):
    """The classical fourth-order Runge-Kutta formula."""

    name = "rk4"
    order = 4
    stability_real_extent = 2.785
    stability_imag_extent = 2.828

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
        x = np.asarray(x, dtype=float)
        k1 = np.asarray(func(t, x), dtype=float)
        k2 = np.asarray(func(t + h / 2.0, x + (h / 2.0) * k1), dtype=float)
        k3 = np.asarray(func(t + h / 2.0, x + (h / 2.0) * k2), dtype=float)
        k4 = np.asarray(func(t + h, x + h * k3), dtype=float)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
