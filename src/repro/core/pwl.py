"""Piecewise-linear lookup tables used to linearise nonlinear devices.

Section III-B of the paper represents the Shockley diode by a companion
model ``Id = G * Vd + J`` where the conductance ``G`` and current source
``J`` are *piecewise-linear functions of the diode voltage* stored in a
lookup table.  Because the solver marches forward explicitly, the Jacobian
entries can be fetched from the table without re-evaluating the physical
exponential at every step.  The paper notes that the table granularity can
be made arbitrarily fine without affecting simulation speed; the lookup is
O(log n) (binary search) or O(1) for uniform grids.

This module provides the generic table machinery; device-specific table
construction (e.g. the diode) lives with the corresponding block model.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, TableRangeError

__all__ = [
    "PWLTable",
    "CompanionTable",
    "build_table",
    "build_companion_table",
]


@dataclass(frozen=True)
class _TableData:
    """Immutable backing arrays of a lookup table."""

    x: np.ndarray
    y: np.ndarray
    uniform: bool
    dx: float


class PWLTable:
    """A one-dimensional piecewise-linear lookup table ``y = f(x)``.

    Parameters
    ----------
    x:
        Strictly increasing breakpoint abscissae.
    y:
        Table values at the breakpoints; same length as ``x``.
    extrapolate:
        If ``True`` (default) queries outside ``[x[0], x[-1]]`` are linearly
        extrapolated from the nearest segment.  If ``False`` such queries
        raise :class:`TableRangeError`.

    The table detects a uniform grid at construction time and then uses an
    O(1) index computation instead of a binary search.
    """

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        *,
        extrapolate: bool = True,
    ) -> None:
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        if x_arr.ndim != 1 or y_arr.ndim != 1:
            raise ConfigurationError("PWLTable requires one-dimensional data")
        if x_arr.size != y_arr.size:
            raise ConfigurationError(
                f"breakpoint/value length mismatch: {x_arr.size} vs {y_arr.size}"
            )
        if x_arr.size < 2:
            raise ConfigurationError("PWLTable requires at least two breakpoints")
        dx = np.diff(x_arr)
        if np.any(dx <= 0.0):
            raise ConfigurationError("PWLTable breakpoints must be strictly increasing")
        uniform = bool(np.allclose(dx, dx[0], rtol=1e-9, atol=0.0))
        self._data = _TableData(x=x_arr, y=y_arr, uniform=uniform, dx=float(dx[0]))
        self._extrapolate = extrapolate
        # scalar-lookup fast path: the solver queries the table once per
        # diode per step, so the hot lookup works on plain Python floats
        # (identical IEEE-754 arithmetic, a fraction of the interpreter
        # overhead of numpy scalar indexing)
        self._x_list: List[float] = x_arr.tolist()
        self._y_list: List[float] = y_arr.tolist()
        self._x0: float = self._x_list[0]
        self._n_segments: int = len(self._x_list) - 2
        self._interior = x_arr[1:-1]

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def breakpoints(self) -> np.ndarray:
        """Breakpoint abscissae (read-only view)."""
        return self._data.x

    @property
    def values(self) -> np.ndarray:
        """Table ordinates (read-only view)."""
        return self._data.y

    @property
    def domain(self) -> Tuple[float, float]:
        """Tuple ``(xmin, xmax)`` covered by the table."""
        return float(self._data.x[0]), float(self._data.x[-1])

    @property
    def is_uniform(self) -> bool:
        """Whether the breakpoints form a uniform grid (O(1) lookups)."""
        return self._data.uniform

    def __len__(self) -> int:
        return int(self._data.x.size)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _segment_index(self, x: float) -> int:
        if self._data.uniform:
            q = (x - self._x0) / self._data.dx
            if not math.isfinite(q):
                # as the binary search: -inf to the first segment, +inf
                # and NaN to the last
                return 0 if q < 0.0 else self._n_segments
            idx = math.floor(q)
        else:
            idx = bisect_right(self._x_list, x) - 1
        if idx < 0:
            return 0
        return min(idx, self._n_segments)

    def _check_range(self, x: float) -> None:
        lo, hi = self.domain
        if x < lo or x > hi:
            raise TableRangeError(
                f"lookup at {x!r} outside table domain [{lo!r}, {hi!r}]"
            )

    def _interpolate_at(self, idx: int, x: float) -> float:
        """Linear interpolation on segment ``idx`` (no bounds checks)."""
        xs = self._x_list
        ys = self._y_list
        x0 = xs[idx]
        y0 = ys[idx]
        t = (x - x0) / (xs[idx + 1] - x0)
        return y0 + t * (ys[idx + 1] - y0)

    def __call__(self, x: float) -> float:
        """Evaluate the interpolant at ``x``."""
        if not self._extrapolate:
            self._check_range(x)
        return float(self._interpolate_at(self._segment_index(x), x))

    def slope(self, x: float) -> float:
        """Return the local segment slope ``dy/dx`` at ``x``."""
        if not self._extrapolate:
            self._check_range(x)
        idx = self._segment_index(x)
        xs = self._x_list
        ys = self._y_list
        return float((ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx]))

    def evaluate_many(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorised evaluation for an array of query points."""
        return np.array([self(float(x)) for x in np.asarray(xs, dtype=float)])

    # ------------------------------------------------------------------ #
    # batched lookup (lane-parallel solver hot path)
    # ------------------------------------------------------------------ #
    def segment_indices(self, xs: np.ndarray) -> np.ndarray:
        """Segment index of every query in ``xs`` (vectorised).

        Bit-compatible with the scalar :meth:`_segment_index`, non-finite
        queries included (-inf to the first segment, +inf and NaN to the
        last).  The uniform grid uses the same ``floor((x - x0) / dx)``
        arithmetic element-wise, clamped while still a float.  The
        non-uniform grid searches the interior breakpoints only: that
        ``searchsorted`` count is the scalar ``bisect_right`` index
        already clamped to ``[0, n_segments]`` (NaN sorts last).
        """
        xs = np.asarray(xs, dtype=float)
        if not self._data.uniform:
            return self._interior.searchsorted(xs, side="right")
        q = (xs - self._x0) / self._data.dx
        # fmin sends NaN and +inf to the last segment, fmax -inf to the
        # first; on [0, n_segments] truncation is the floor
        return np.fmax(np.fmin(q, self._n_segments), 0.0).astype(np.intp)


class CompanionTable:
    """Paired lookup tables ``(G(v), J(v))`` for a linearised companion model.

    A nonlinear branch ``i = f(v)`` is replaced, on each table segment, by
    the affine model ``i = G * v + J`` that matches the chord of ``f`` over
    the segment (secant linearisation) or its tangent at the segment centre.
    The paper stores exactly such tables for the Dickson multiplier diodes.
    """

    def __init__(self, g_table: PWLTable, j_table: PWLTable) -> None:
        if len(g_table) != len(j_table):
            raise ConfigurationError("G and J tables must share breakpoints")
        if not np.array_equal(g_table.breakpoints, j_table.breakpoints):
            raise ConfigurationError("G and J tables must share breakpoints")
        self._g = g_table
        self._j = j_table
        self._gj_segments = self.segment_table("gj")

    @property
    def g_table(self) -> PWLTable:
        """Conductance table ``G(v)``."""
        return self._g

    @property
    def j_table(self) -> PWLTable:
        """Current-source table ``J(v)``."""
        return self._j

    @property
    def domain(self) -> Tuple[float, float]:
        """Voltage range covered by the companion model."""
        return self._g.domain

    @property
    def extrapolates(self) -> bool:
        """Whether both tables extrapolate: a lookup never range-checks."""
        return self._g._extrapolate and self._j._extrapolate

    def conductance(self, v: float) -> float:
        """Companion conductance at operating voltage ``v``."""
        return self._g(v)

    def current_source(self, v: float) -> float:
        """Companion current source at operating voltage ``v``."""
        return self._j(v)

    def evaluate(self, v: float) -> Tuple[float, float]:
        """Return the pair ``(G, J)`` at operating voltage ``v``.

        The two tables share their breakpoints (checked at construction),
        so one segment search serves both interpolations.
        """
        g = self._g
        if not self.extrapolates:
            return self._g(v), self._j(v)  # preserve per-table range checks
        idx = g._segment_index(v)
        return float(g._interpolate_at(idx, v)), float(self._j._interpolate_at(idx, v))

    def branch_current(self, v: float) -> float:
        """Reconstruct the branch current ``i = G(v)*v + J(v)``."""
        g, j = self.evaluate(v)
        return g * v + j

    def evaluate_batch(self, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`evaluate` over an array of operating voltages.

        The :meth:`lookup` of the ``"gj"`` :meth:`segment_table`, so the
        result is bit-identical to calling :meth:`evaluate` per element.
        """
        vs = np.asarray(vs, dtype=float)
        if not self.extrapolates:
            flat = vs.reshape(-1)
            pairs = [self.evaluate(float(v)) for v in flat]
            g_vals = np.array([p[0] for p in pairs]).reshape(vs.shape)
            j_vals = np.array([p[1] for p in pairs]).reshape(vs.shape)
            return g_vals, j_vals
        gj = self.lookup(vs, self._gj_segments)
        return gj[..., 0], gj[..., 1]

    def segment_table(self, order: str) -> np.ndarray:
        """Per-segment rows for :meth:`lookup`, its columns bound once.

        Row ``i`` is segment ``i``'s left breakpoint and width, then the
        left value and then the rise of the table each character of
        ``order`` names (``"g"`` or ``"j"``, repeats allowed): the floats
        the scalar interpolation computes.  A caller that wants ``G``
        beside every column of a matrix it multiplies asks for as many
        ``"g"`` columns as the matrix has.
        """
        if not order or set(order) - {"g", "j"}:
            raise ConfigurationError(f"segment_table order must spell g/j, got {order!r}")
        x = self._g.breakpoints
        tables = {"g": self._g.values, "j": self._j.values}
        ys = np.stack([tables[c] for c in order], axis=1)
        return np.column_stack([x[:-1], x[1:] - x[:-1], ys[:-1], ys[1:] - ys[:-1]])

    def lookup(self, vs: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Interpolated columns of ``table`` (a :meth:`segment_table`) at ``vs``.

        One segment search and one ``take`` of the table rows;
        ``t = (v - x0) / width`` and ``y0 + t * rise`` are the scalar
        :meth:`evaluate`'s floats, so column ``c`` of the result, shape
        ``vs.shape + (len(order),)``, is bitwise the scalar ``G`` or
        ``J`` that ``order[c]`` names.  Extrapolating tables only (see
        :attr:`extrapolates`): no range check is made.
        """
        seg = table.take(self._g.segment_indices(vs), axis=0)
        n_values = (table.shape[1] - 2) // 2
        t = (vs - seg[..., 0]) / seg[..., 1]
        return seg[..., 2 : 2 + n_values] + t[..., None] * seg[..., 2 + n_values :]


def build_table(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    n_points: int = 256,
    *,
    extrapolate: bool = True,
) -> PWLTable:
    """Sample ``func`` on a uniform grid and build a :class:`PWLTable`.

    Parameters
    ----------
    func:
        Scalar function to tabulate.
    lo, hi:
        Domain bounds, ``lo < hi``.
    n_points:
        Number of breakpoints (at least 2).
    """
    if hi <= lo:
        raise ConfigurationError(f"invalid table domain [{lo}, {hi}]")
    if n_points < 2:
        raise ConfigurationError("a table needs at least two breakpoints")
    xs = np.linspace(lo, hi, n_points)
    ys = np.array([func(float(x)) for x in xs])
    return PWLTable(xs, ys, extrapolate=extrapolate)


def build_companion_table(
    current: Callable[[float], float],
    conductance: Optional[Callable[[float], float]],
    lo: float,
    hi: float,
    n_points: int = 256,
) -> CompanionTable:
    """Build a :class:`CompanionTable` from a branch equation ``i = f(v)``.

    If ``conductance`` (``df/dv``) is given it is used directly (tangent
    linearisation); otherwise the secant slope of each table segment is
    used, which guarantees the companion model reproduces ``f`` exactly at
    every breakpoint.

    The companion current source is chosen so that the affine model matches
    the true current at the breakpoint: ``J = f(v) - G * v``.
    """
    if hi <= lo:
        raise ConfigurationError(f"invalid table domain [{lo}, {hi}]")
    if n_points < 2:
        raise ConfigurationError("a table needs at least two breakpoints")
    vs = np.linspace(lo, hi, n_points)
    i_vals = np.array([current(float(v)) for v in vs])
    if conductance is not None:
        g_vals = np.array([conductance(float(v)) for v in vs])
    else:
        g_vals = np.gradient(i_vals, vs)
    j_vals = i_vals - g_vals * vs
    g_table = PWLTable(vs, g_vals)
    j_table = PWLTable(vs, j_vals)
    return CompanionTable(g_table, j_table)
