"""Common interface for the explicit march-in-time integrators.

The linearised state-space solver evaluates the reduced derivative
``f(t, x) = A_r x + b_r`` once per step (after terminal-variable
elimination) and hands it to an :class:`ExplicitIntegrator` which produces
the state at the next time point in a single feed-forward computation —
no Newton iteration, which is the source of the speed-up reported in the
paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["DerivativeFn", "IntegratorState", "ExplicitIntegrator"]

# f(t, x) -> dx/dt
DerivativeFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class IntegratorState:
    """History carried between steps by multi-step methods.

    ``times`` holds the sample times of the most recent accepted steps,
    oldest first, and ``window`` their derivative samples as one
    C-contiguous stack, ``np.stack`` of the samples in ``times`` order.
    Each sample is copied once, into the window: while the history refills
    every push stacks a fresh window; once full, the window shifts one
    sample older in place, as :func:`repro.core.kernels.push_sample` does
    for the lanes.  Single-step methods ignore it.
    """

    times: List[float] = field(default_factory=list)
    window: Optional[np.ndarray] = None

    @property
    def history(self) -> List[Tuple[float, np.ndarray]]:
        """The ``(t, f(t, x))`` pairs held, newest last, each sample a copy."""
        if not self.times:
            return []
        return [(t, f.copy()) for t, f in zip(self.times, self.window)]

    def push(self, t: float, derivative: np.ndarray, max_length: int) -> None:
        """Record an accepted derivative sample, keeping at most ``max_length``."""
        times = self.times
        if len(times) < max_length:
            window = np.empty((len(times) + 1,) + np.shape(derivative))
            if times:
                window[:-1] = self.window
            self.window = window
        else:
            del times[0]
            window = self.window
            window[:-1] = window[1:]
        window[-1] = derivative
        times.append(t)

    def clear(self) -> None:
        """Drop all history (used after discontinuities / digital events)."""
        self.times.clear()
        self.window = None

    def __len__(self) -> int:
        return len(self.times)


class ExplicitIntegrator(ABC):
    """Base class for explicit one-step and multi-step formulas."""

    #: human-readable identifier used in reports and benchmark tables
    name: str = "explicit"

    #: formal order of accuracy (local truncation error is O(h^(order+1)))
    order: int = 1

    #: extent of the stability region along the negative real axis of the
    #: ``h * lambda`` plane (2.0 for Forward Euler)
    stability_real_extent: float = 2.0

    #: extent of the stability region along the imaginary axis; zero for
    #: formulas whose region only touches the axis (FE, AB2).  Lightly
    #: damped oscillatory modes (the harvester's mechanical resonance) need
    #: a formula with a non-zero imaginary extent (AB3+, RK4).
    stability_imag_extent: float = 0.0

    def new_state(self) -> IntegratorState:
        """Create a fresh (empty) history object for a new simulation."""
        return IntegratorState()

    @abstractmethod
    def step(
        self,
        func: DerivativeFn,
        t: float,
        x: np.ndarray,
        h: float,
        state: Optional[IntegratorState] = None,
    ) -> np.ndarray:
        """Advance the state from ``t`` to ``t + h``.

        Parameters
        ----------
        func:
            Derivative function ``f(t, x)``.
        t, x:
            Current time and state.
        h:
            Step size (must be positive).
        state:
            Multi-step history; may be ``None`` for single-step methods.
        """

    def step_batch(
        self,
        func: DerivativeFn,
        t: np.ndarray,
        x: np.ndarray,
        h: np.ndarray,
        state: Optional[IntegratorState] = None,
    ) -> np.ndarray:
        """Advance a ``(B, n)`` stack of lane states, each on its own clock.

        ``t`` and ``h`` are the ``(B,)`` per-lane times and steps; ``func``
        receives and returns ``(B, n)`` stacks.  The default delegates to
        :meth:`step` with ``(B, 1)`` columns, which is valid for
        single-step formulas (Forward Euler, Runge-Kutta): their update
        combines ``x`` and derivative evaluations purely element-wise, so
        the scalar code is shape-agnostic and each lane's result is
        bit-identical to its scalar march.  Multi-step formulas contract
        their derivative history with per-lane weights and override this
        (see
        :meth:`~repro.core.integrators.adams_bashforth.AdamsBashforth.step_batch`).
        """
        return self.step(func, t[:, None], x, h[:, None], state)

    def notify_discontinuity(self, state: Optional[IntegratorState]) -> None:
        """Inform the integrator that the model changed discontinuously.

        Multi-step methods must discard their derivative history because it
        was produced by a different vector field (e.g. after the
        microcontroller switches the load resistance).
        """
        if state is not None:
            state.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(order={self.order})"
