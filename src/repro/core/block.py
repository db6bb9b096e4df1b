"""Analogue block abstraction: local state equations plus terminal variables.

The paper (Section II, Fig. 3) divides the analogue part of a harvester
into component blocks.  Each block owns

* a vector of **state variables** ``x`` (energy-storage quantities such as
  displacement, velocity, inductor current, capacitor voltages),
* a set of **terminal variables** ``y`` (port voltages and currents that
  connect the block to its neighbours), and
* model equations

  .. math::

     \\dot x = f_x(t, x, y) \\qquad 0 = f_y(t, x, y)

  where ``f_y`` supplies the block's contribution to the algebraic part of
  the system (one equation per algebraic constraint the block imposes on
  its terminals).

At every time point the solver linearises both functions, producing the
Jacobian blocks of Eq. (2) of the paper.  Blocks may provide an analytic
:meth:`AnalogueBlock.linearise`; the default implementation falls back to
finite-difference Jacobians (see :mod:`repro.core.linearise`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "BlockLinearisation",
    "BatchedLinearisation",
    "PreparedBlockLineariser",
    "AnalogueBlock",
    "LinearBlock",
    "Terminal",
    "LINEARISATION_FIELDS",
    "add_keeping_first_nan",
]

#: field names of a (batched) linearisation, in canonical order — the only
#: names a :class:`PreparedBlockLineariser` may declare ``constant``
LINEARISATION_FIELDS = ("jxx", "jxy", "ex", "jyx", "jyy", "ey")


def add_keeping_first_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, with ``a``'s NaN wherever ``a`` is NaN.

    Given two NaNs, NumPy's vectorised addition keeps one or the other
    depending on the array length and the element's position (SIMD body or
    tail); given one, it keeps that one.  A stacked evaluation that must be
    bitwise a scalar call whose addition keeps its first operand's NaN adds
    through this.
    """
    total = a + b
    np.copyto(total, a, where=a != a)
    return total


@dataclass(frozen=True)
class Terminal:
    """A named terminal variable of a block.

    ``kind`` is either ``"voltage"`` or ``"current"``; it is purely
    informational (used for unit labelling and sanity checks when wiring
    blocks together) — the solver treats all terminal variables uniformly.
    """

    block_name: str
    name: str
    kind: str = "voltage"

    def __str__(self) -> str:
        return f"{self.block_name}.{self.name}"


@dataclass
class BlockLinearisation:
    """Affine model of a block at one linearisation point.

    The differential part is ``dx/dt = Jxx x + Jxy y + ex`` and the
    algebraic part is ``0 = Jyx x + Jyy y + ey``.  For linear blocks the
    affine model is exact; for nonlinear blocks the offsets ``ex``/``ey``
    are chosen so that the model matches the nonlinear functions at the
    linearisation point (first-order Taylor expansion, Eq. 2 of the paper).
    """

    jxx: np.ndarray
    jxy: np.ndarray
    ex: np.ndarray
    jyx: np.ndarray
    jyy: np.ndarray
    ey: np.ndarray

    @staticmethod
    def expected_shapes(
        n_states: int, n_terminals: int, n_algebraic: int
    ) -> Tuple[Tuple[int, ...], ...]:
        """Field shapes in :data:`LINEARISATION_FIELDS` order."""
        return (
            (n_states, n_states),
            (n_states, n_terminals),
            (n_states,),
            (n_algebraic, n_states),
            (n_algebraic, n_terminals),
            (n_algebraic,),
        )

    def shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """Actual field shapes, comparable with :meth:`expected_shapes`."""
        return (
            self.jxx.shape,
            self.jxy.shape,
            self.ex.shape,
            self.jyx.shape,
            self.jyy.shape,
            self.ey.shape,
        )

    def validate(self, n_states: int, n_terminals: int, n_algebraic: int) -> None:
        """Raise :class:`ConfigurationError` on any shape mismatch."""
        expected = self.expected_shapes(n_states, n_terminals, n_algebraic)
        for attr, shape in zip(LINEARISATION_FIELDS, expected):
            actual = getattr(self, attr).shape
            if actual != shape:
                raise ConfigurationError(
                    f"linearisation field {attr!r} has shape {actual}, expected {shape}"
                )


@dataclass
class BatchedLinearisation:
    """Affine models of ``B`` lanes of sibling blocks, stacked lane-first.

    One lane is one same-structure block instance (same class, same state
    and terminal layout, possibly different parameter values) evaluated at
    its own operating point.  The fields mirror
    :class:`BlockLinearisation` with a leading lane axis: ``jxx`` has shape
    ``(B, n_states, n_states)``, ``ex`` has shape ``(B, n_states)`` and so
    on.  ``lane(i)`` recovers the i-th scalar linearisation as views, and
    ``stack`` builds the batched object from per-lane scalar
    linearisations (the loop-over-lanes fallback for unported blocks).
    """

    jxx: np.ndarray
    jxy: np.ndarray
    ex: np.ndarray
    jyx: np.ndarray
    jyy: np.ndarray
    ey: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of stacked lanes ``B``."""
        return self.jxx.shape[0]

    @classmethod
    def stack(cls, lins: Sequence[BlockLinearisation]) -> "BatchedLinearisation":
        """Stack per-lane scalar linearisations into one batched object."""
        if not lins:
            raise ConfigurationError("cannot stack an empty lane list")
        return cls(
            jxx=np.stack([lin.jxx for lin in lins]),
            jxy=np.stack([lin.jxy for lin in lins]),
            ex=np.stack([lin.ex for lin in lins]),
            jyx=np.stack([lin.jyx for lin in lins]),
            jyy=np.stack([lin.jyy for lin in lins]),
            ey=np.stack([lin.ey for lin in lins]),
        )

    def lane(self, i: int) -> BlockLinearisation:
        """The i-th lane as a scalar :class:`BlockLinearisation` (views)."""
        return BlockLinearisation(
            jxx=self.jxx[i],
            jxy=self.jxy[i],
            ex=self.ex[i],
            jyx=self.jyx[i],
            jyy=self.jyy[i],
            ey=self.ey[i],
        )

    def validate(
        self, n_lanes: int, n_states: int, n_terminals: int, n_algebraic: int
    ) -> None:
        """Raise :class:`ConfigurationError` on any shape mismatch."""
        expected = {
            "jxx": (n_lanes, n_states, n_states),
            "jxy": (n_lanes, n_states, n_terminals),
            "ex": (n_lanes, n_states),
            "jyx": (n_lanes, n_algebraic, n_states),
            "jyy": (n_lanes, n_algebraic, n_terminals),
            "ey": (n_lanes, n_algebraic),
        }
        for attr, shape in expected.items():
            actual = getattr(self, attr).shape
            if actual != shape:
                raise ConfigurationError(
                    f"batched linearisation field {attr!r} has shape {actual}, "
                    f"expected {shape}"
                )


@dataclass
class PreparedBlockLineariser:
    """A lane-set-bound fast lineariser for repeated batched refreshes.

    ``lineariser(t, x_local, y_local)`` (``t`` the ``(B,)`` per-lane time
    points) must return a :class:`BatchedLinearisation` whose lane ``i``
    is bitwise ``lanes[i].linearise(t[i], x_local[i], y_local[i])`` — the
    stack :func:`repro.core.linearise.linearise_block_lanes` builds for a
    group without one.  The batched refresh swaps it in for that stack,
    so any numeric deviation breaks the lane-equals-scalar-run contract.

    ``constant`` names the fields (``"jxx"``, ``"jxy"``, ``"ex"``,
    ``"jyx"``, ``"jyy"``, ``"ey"``) whose arrays are *reused unchanged*
    across calls: the caller may scatter them into its workspace once and
    skip them on subsequent refreshes.  Fields not listed must be assumed
    freshly computed on every call (their array objects may still be
    reused buffers — callers must not hold references across calls).

    The batched refresh linearises a group whose six fields are all
    constant once per prepare, and holds its Eq. (4) solve when every
    group declares ``jxy``, ``jyx``, ``jyy`` and ``ey`` constant.  The
    declared fields must stay unchanged until a control write, after which
    the solvers re-prepare; a single run refreshes through a one-lane
    batched assembler, so it relies on the declaration too.
    """

    lineariser: Callable[[np.ndarray, np.ndarray, np.ndarray], "BatchedLinearisation"]
    constant: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in self.constant:
            if name not in LINEARISATION_FIELDS:
                raise ConfigurationError(
                    f"PreparedBlockLineariser declares constant field {name!r}, "
                    f"which is not a linearisation field {LINEARISATION_FIELDS}"
                )


class AnalogueBlock(ABC):
    """Base class for all analogue component blocks.

    Subclasses declare their state and terminal variable names and
    implement :meth:`derivatives` (``f_x``) and, when they impose algebraic
    constraints, :meth:`algebraic_residual` (``f_y``).
    """

    def __init__(
        self,
        name: str,
        state_names: Sequence[str],
        terminal_names: Sequence[str],
        terminal_kinds: Optional[Sequence[str]] = None,
        n_algebraic: int = 0,
    ) -> None:
        if not name:
            raise ConfigurationError("block name must be non-empty")
        if len(set(state_names)) != len(state_names):
            raise ConfigurationError(f"block {name!r} has duplicate state names")
        if len(set(terminal_names)) != len(terminal_names):
            raise ConfigurationError(f"block {name!r} has duplicate terminal names")
        self.name = name
        self.state_names: Tuple[str, ...] = tuple(state_names)
        self.terminal_names: Tuple[str, ...] = tuple(terminal_names)
        if terminal_kinds is None:
            terminal_kinds = ["voltage"] * len(self.terminal_names)
        if len(terminal_kinds) != len(self.terminal_names):
            raise ConfigurationError(
                f"block {name!r}: terminal_kinds length mismatch"
            )
        self._terminals: Dict[str, Terminal] = {
            tname: Terminal(name, tname, kind)
            for tname, kind in zip(self.terminal_names, terminal_kinds)
        }
        self.n_algebraic = int(n_algebraic)

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    @property
    def n_states(self) -> int:
        """Number of local state variables."""
        return len(self.state_names)

    @property
    def n_terminals(self) -> int:
        """Number of local terminal variables."""
        return len(self.terminal_names)

    def terminal(self, name: str) -> Terminal:
        """Return the :class:`Terminal` handle for terminal ``name``."""
        try:
            return self._terminals[name]
        except KeyError:
            raise ConfigurationError(
                f"block {self.name!r} has no terminal {name!r}; "
                f"terminals are {list(self.terminal_names)}"
            ) from None

    def qualified_state_names(self) -> Tuple[str, ...]:
        """State names prefixed with the block name (for trace labelling)."""
        return tuple(f"{self.name}.{s}" for s in self.state_names)

    # ------------------------------------------------------------------ #
    # model equations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate ``f_x(t, x, y)`` — the local state derivatives."""

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate ``f_y(t, x, y)`` — the block's algebraic constraints.

        The default implementation is valid only for blocks that declare
        ``n_algebraic == 0``.
        """
        if self.n_algebraic != 0:
            raise NotImplementedError(
                f"block {self.name!r} declares {self.n_algebraic} algebraic "
                "equations but does not implement algebraic_residual()"
            )
        return np.zeros(0)

    def initial_state(self) -> np.ndarray:
        """Initial values of the local state vector (zeros by default)."""
        return np.zeros(self.n_states)

    def linearise(self, t: float, x: np.ndarray, y: np.ndarray) -> Optional[BlockLinearisation]:
        """Return an analytic linearisation, or ``None`` to request a
        finite-difference linearisation from the solver.

        Blocks with analytically known Jacobians (all blocks in the paper's
        case study) should override this for both speed and accuracy.
        """
        return None

    # ------------------------------------------------------------------ #
    # stacked evaluation (one block, many points)
    # ------------------------------------------------------------------ #
    def derivatives_at(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`derivatives` at ``P`` points of this block at one time.

        ``x`` has shape ``(P, n_states)`` and ``y`` ``(P, n_terminals)``;
        row ``p`` of the ``(P, n_states)`` result is the scalar call at row
        ``p``.  The default stacks the scalar calls, so every block has it;
        a vectorised override must be bitwise that stack (same IEEE-754
        operations, element-wise across the point axis).  The
        Newton-Raphson baseline evaluates each block's perturbed Jacobian
        columns through it
        (:meth:`~repro.core.elimination.SystemAssembler.step_jacobian`).
        """
        return np.stack(
            [np.asarray(self.derivatives(t, xp, yp), dtype=float) for xp, yp in zip(x, y)]
        )

    def algebraic_residuals_at(
        self, t: float, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """:meth:`algebraic_residual` at ``P`` points, shape
        ``(P, n_algebraic)``; the stacked sibling of :meth:`derivatives_at`,
        under the same bitwise contract."""
        if not self.n_algebraic:
            return np.zeros((len(x), 0))
        return np.stack(
            [
                np.asarray(self.algebraic_residual(t, xp, yp), dtype=float)
                for xp, yp in zip(x, y)
            ]
        )

    # ------------------------------------------------------------------ #
    # batched (lane-parallel) evaluation
    # ------------------------------------------------------------------ #
    def evaluate_batch(
        self,
        lanes: Sequence["AnalogueBlock"],
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate ``f_x``/``f_y`` for ``B`` sibling lanes at once.

        ``lanes`` is the sequence of same-structure block instances being
        marched together (``lanes[0] is self``); ``t`` holds each lane's
        own time point, shape ``(B,)``; ``x`` has shape ``(B, n_states)``
        and ``y`` has shape ``(B, n_terminals)``.
        Returns ``(dxdt, residual_y)`` with shapes ``(B, n_states)`` and
        ``(B, n_algebraic)``.

        The default implementation loops over the lanes calling the scalar
        methods, so unported blocks keep working; vectorised overrides must
        produce bit-identical values (same IEEE-754 operations, merely
        element-wise across the lane axis) so that the batched solver's
        fixed-step byte-identity contract holds.
        """
        dxdt = np.empty((len(lanes), self.n_states))
        res_y = np.empty((len(lanes), self.n_algebraic))
        for i, (block, t_i) in enumerate(zip(lanes, t.tolist())):
            dxdt[i] = block.derivatives(t_i, x[i], y[i])
            if self.n_algebraic:
                res_y[i] = block.algebraic_residual(t_i, x[i], y[i])
        return dxdt, res_y

    def batched_lineariser(
        self, lanes: Sequence["AnalogueBlock"]
    ) -> Optional["PreparedBlockLineariser"]:
        """Bind a reusable fast lineariser to a fixed lane set, or ``None``.

        The only batched linearisation hook.  Called by the batched
        refresh with the same-structure lanes (``lanes[0] is self``) that
        will be relinearised together many times, once per march and
        again after a control write.  A block that can hoist lane-constant
        work (parameter stacks, constant Jacobian blocks, shared companion
        tables) returns a :class:`PreparedBlockLineariser` closing over the
        precomputed arrays; returning ``None`` leaves this block to
        :func:`~repro.core.linearise.linearise_block_lanes`, which stacks
        the lanes' scalar :meth:`linearise` (or their batched finite
        differences).  The prepared lineariser must be bitwise each lane's
        scalar :meth:`linearise` — it is a caching layer, not an
        alternative model.
        """
        return None

    # ------------------------------------------------------------------ #
    # digital / control hooks
    # ------------------------------------------------------------------ #
    def apply_control(self, name: str, value: float) -> None:
        """Apply a control input written by a digital process.

        Blocks that expose controllable parameters (load mode, tuning force
        ...) override this.  The default rejects unknown controls loudly so
        wiring errors do not pass silently.
        """
        raise ConfigurationError(
            f"block {self.name!r} does not accept control input {name!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"states={list(self.state_names)}, terminals={list(self.terminal_names)})"
        )


class LinearBlock(AnalogueBlock):
    """A block whose equations are linear time-invariant.

    The block is described directly by constant matrices:

    ``dx/dt = A x + B y + u(t)`` and ``0 = C x + D y + w(t)``

    where ``u`` and ``w`` are optional time-dependent excitations supplied
    as callables.  This is both a convenience for tests and the natural
    representation of the supercapacitor block (Eq. 15 of the paper).
    """

    def __init__(
        self,
        name: str,
        a: np.ndarray,
        b: np.ndarray,
        state_names: Sequence[str],
        terminal_names: Sequence[str],
        *,
        c: Optional[np.ndarray] = None,
        d: Optional[np.ndarray] = None,
        excitation=None,
        algebraic_excitation=None,
        terminal_kinds: Optional[Sequence[str]] = None,
        x0: Optional[Sequence[float]] = None,
    ) -> None:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        n_states = a.shape[0]
        n_terminals = b.shape[1] if b.size else len(terminal_names)
        if a.shape != (n_states, n_states):
            raise ConfigurationError(f"A matrix of block {name!r} must be square")
        if b.shape != (n_states, n_terminals):
            raise ConfigurationError(
                f"B matrix of block {name!r} has shape {b.shape}, "
                f"expected ({n_states}, {n_terminals})"
            )
        if len(state_names) != n_states:
            raise ConfigurationError(f"block {name!r}: state name count mismatch")
        if len(terminal_names) != n_terminals:
            raise ConfigurationError(f"block {name!r}: terminal name count mismatch")
        if c is None:
            c = np.zeros((0, n_states))
        if d is None:
            d = np.zeros((0, n_terminals))
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        if c.shape[0] != d.shape[0]:
            raise ConfigurationError(
                f"block {name!r}: C and D must have the same number of rows"
            )
        super().__init__(
            name,
            state_names,
            terminal_names,
            terminal_kinds=terminal_kinds,
            n_algebraic=c.shape[0],
        )
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self._excitation = excitation
        self._algebraic_excitation = algebraic_excitation
        self._x0 = np.zeros(n_states) if x0 is None else np.asarray(x0, dtype=float)
        if self._x0.shape != (n_states,):
            raise ConfigurationError(f"block {name!r}: x0 has wrong shape")

    def _u(self, t: float) -> np.ndarray:
        if self._excitation is None:
            return np.zeros(self.n_states)
        return np.asarray(self._excitation(t), dtype=float)

    def _w(self, t: float) -> np.ndarray:
        if self._algebraic_excitation is None:
            return np.zeros(self.n_algebraic)
        return np.asarray(self._algebraic_excitation(t), dtype=float)

    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b @ y + self._u(t)

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.c @ x + self.d @ y + self._w(t)

    def initial_state(self) -> np.ndarray:
        return self._x0.copy()

    def linearise(self, t: float, x: np.ndarray, y: np.ndarray) -> BlockLinearisation:
        lin = BlockLinearisation(
            jxx=self.a,
            jxy=self.b,
            ex=self._u(t),
            jyx=self.c,
            jyy=self.d,
            ey=self._w(t),
        )
        lin.validate(self.n_states, self.n_terminals, self.n_algebraic)
        return lin

    def batched_lineariser(
        self, lanes: Sequence[AnalogueBlock]
    ) -> PreparedBlockLineariser:
        # the constant matrices stack once; excitations stay on the scalar
        # per-lane path (bit-identity with linearise)
        jxx = np.stack([lane.a for lane in lanes])
        jxy = np.stack([lane.b for lane in lanes])
        jyx = np.stack([lane.c for lane in lanes])
        jyy = np.stack([lane.d for lane in lanes])
        constant = ["jxx", "jxy", "jyx", "jyy"]
        ex_static = None
        if all(lane._excitation is None for lane in lanes):
            ex_static = np.zeros((len(lanes), self.n_states))
            constant.append("ex")
        ey_static = None
        if all(lane._algebraic_excitation is None for lane in lanes):
            ey_static = np.zeros((len(lanes), self.n_algebraic))
            constant.append("ey")

        def lineariser(
            t: np.ndarray, x: np.ndarray, y: np.ndarray
        ) -> BatchedLinearisation:
            times = t.tolist()
            ex = ex_static
            if ex is None:
                ex = np.stack([lane._u(t_i) for lane, t_i in zip(lanes, times)])
            ey = ey_static
            if ey is None:
                ey = np.stack([lane._w(t_i) for lane, t_i in zip(lanes, times)])
            return BatchedLinearisation(
                jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey
            )

        return PreparedBlockLineariser(
            lineariser=lineariser, constant=tuple(constant)
        )
