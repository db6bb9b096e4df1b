"""Numerical linearisation helpers (finite-difference Jacobians).

Every block may supply analytic Jacobians via ``AnalogueBlock.linearise``;
for blocks that do not, the solver falls back to the central-difference
Jacobians computed here.  The functions are also used by the tests to
cross-check the analytic linearisations of the physical blocks.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .block import AnalogueBlock, BatchedLinearisation, BlockLinearisation
from .errors import ConfigurationError

__all__ = [
    "finite_difference_jacobian",
    "linearise_block_numerically",
    "linearise_block",
    "linearise_lanes_numerically",
    "linearise_block_lanes",
]

_DEFAULT_EPS = 1e-7


def finite_difference_jacobian(
    func: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    *,
    eps: float = _DEFAULT_EPS,
) -> np.ndarray:
    """Central-difference Jacobian of ``func`` at ``point``.

    The perturbation for each coordinate is scaled with the coordinate's
    magnitude so that both very small (micro-amp currents) and very large
    (mega-ohm sleep-mode resistances) quantities are differentiated with a
    sensible relative step.
    """
    point = np.asarray(point, dtype=float)
    f0 = np.asarray(func(point), dtype=float)
    n_out, n_in = f0.size, point.size
    jac = np.zeros((n_out, n_in))
    for j in range(n_in):
        h = eps * max(1.0, abs(point[j]))
        plus = point.copy()
        minus = point.copy()
        plus[j] += h
        minus[j] -= h
        f_plus = np.asarray(func(plus), dtype=float)
        f_minus = np.asarray(func(minus), dtype=float)
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    return jac


def linearise_block_numerically(
    block: AnalogueBlock,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    *,
    eps: float = _DEFAULT_EPS,
) -> BlockLinearisation:
    """First-order Taylor expansion of a block's equations at ``(t, x, y)``.

    The affine offsets are chosen so that the linearised model reproduces
    the nonlinear functions exactly at the expansion point:

    ``ex = f_x(x0, y0) - Jxx x0 - Jxy y0`` (and analogously for ``ey``),
    which is exactly the local linearisation of Eq. (2) in the paper.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    fx0 = np.asarray(block.derivatives(t, x, y), dtype=float)
    jxx = finite_difference_jacobian(lambda xv: block.derivatives(t, xv, y), x, eps=eps)
    if block.n_terminals:
        jxy = finite_difference_jacobian(
            lambda yv: block.derivatives(t, x, yv), y, eps=eps
        )
    else:
        jxy = np.zeros((block.n_states, 0))
    ex = fx0 - jxx @ x - jxy @ y

    if block.n_algebraic:
        fy0 = np.asarray(block.algebraic_residual(t, x, y), dtype=float)
        jyx = finite_difference_jacobian(
            lambda xv: block.algebraic_residual(t, xv, y), x, eps=eps
        )
        jyy = finite_difference_jacobian(
            lambda yv: block.algebraic_residual(t, x, yv), y, eps=eps
        )
        ey = fy0 - jyx @ x - jyy @ y
    else:
        jyx = np.zeros((0, block.n_states))
        jyy = np.zeros((0, block.n_terminals))
        ey = np.zeros(0)

    lin = BlockLinearisation(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)
    _check_shapes(block, lin, None)
    return lin


def linearise_block(
    block: AnalogueBlock,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    shapes: Optional[Tuple[Tuple[int, ...], ...]] = None,
) -> BlockLinearisation:
    """Linearise a block, preferring its analytic Jacobians when available.

    ``shapes`` are the block's
    :meth:`~repro.core.block.BlockLinearisation.expected_shapes`; callers
    that linearise the same block every step pass them precomputed, so the
    per-call check is one tuple comparison.  A mismatch raises
    :class:`ConfigurationError` naming the block and the field.
    """
    lin = block.linearise(t, x, y)
    if lin is None:
        return linearise_block_numerically(block, t, x, y)
    _check_shapes(block, lin, shapes)
    return lin


def _check_shapes(block: AnalogueBlock, lin: BlockLinearisation, shapes) -> None:
    if shapes is None:
        shapes = BlockLinearisation.expected_shapes(
            block.n_states, block.n_terminals, block.n_algebraic
        )
    if lin.shapes() != shapes:
        try:
            lin.validate(block.n_states, block.n_terminals, block.n_algebraic)
        except ConfigurationError as exc:
            raise ConfigurationError(f"block {block.name!r}: {exc}") from None


# ---------------------------------------------------------------------- #
# batched (lane-parallel) linearisation
# ---------------------------------------------------------------------- #
def linearise_lanes_numerically(
    lanes: Sequence[AnalogueBlock],
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    *,
    eps: float = _DEFAULT_EPS,
) -> BatchedLinearisation:
    """Batched central-difference linearisation of ``B`` sibling lanes.

    The lane-parallel sibling of :func:`linearise_block_numerically`: one
    perturbation sweep serves every lane, so a coordinate perturbation
    costs two :meth:`~repro.core.block.AnalogueBlock.evaluate_batch` calls
    for the whole batch instead of two scalar evaluations per lane.  The
    per-lane arithmetic (perturbation size ``eps * max(1, |x_j|)``, the
    central difference, the affine offsets) is element-wise identical to
    the scalar path, so lanes of blocks with a vectorised
    ``evaluate_batch`` produce bit-identical Jacobians to their scalar
    finite-difference runs.
    """
    rep = lanes[0]
    b = len(lanes)
    n_states, n_terminals, n_algebraic = rep.n_states, rep.n_terminals, rep.n_algebraic
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    fx0, fy0 = rep.evaluate_batch(lanes, t, x, y)
    jxx = np.zeros((b, n_states, n_states))
    jxy = np.zeros((b, n_states, n_terminals))
    jyx = np.zeros((b, n_algebraic, n_states))
    jyy = np.zeros((b, n_algebraic, n_terminals))

    def sweep(point: np.ndarray, other: np.ndarray, perturb_states: bool) -> None:
        n_in = point.shape[1]
        for j in range(n_in):
            h = eps * np.maximum(1.0, np.abs(point[:, j]))
            plus = point.copy()
            minus = point.copy()
            plus[:, j] += h
            minus[:, j] -= h
            if perturb_states:
                fx_p, fy_p = rep.evaluate_batch(lanes, t, plus, other)
                fx_m, fy_m = rep.evaluate_batch(lanes, t, minus, other)
            else:
                fx_p, fy_p = rep.evaluate_batch(lanes, t, other, plus)
                fx_m, fy_m = rep.evaluate_batch(lanes, t, other, minus)
            scale = (2.0 * h)[:, None]
            target_x = jxx if perturb_states else jxy
            target_x[:, :, j] = (fx_p - fx_m) / scale
            if n_algebraic:
                target_y = jyx if perturb_states else jyy
                target_y[:, :, j] = (fy_p - fy_m) / scale

    sweep(x, y, perturb_states=True)
    if n_terminals:
        sweep(y, x, perturb_states=False)

    # affine offsets so the model is exact at the expansion point; the
    # stacked mat-vec products are bit-identical to per-lane `J @ v`
    ex = fx0 - np.matmul(jxx, x[..., None])[..., 0] - np.matmul(jxy, y[..., None])[..., 0]
    if n_algebraic:
        ey = (
            fy0
            - np.matmul(jyx, x[..., None])[..., 0]
            - np.matmul(jyy, y[..., None])[..., 0]
        )
    else:
        ey = np.zeros((b, 0))

    lin = BatchedLinearisation(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)
    lin.validate(b, n_states, n_terminals, n_algebraic)
    return lin


def linearise_block_lanes(
    lanes: Sequence[AnalogueBlock],
    t: float,
    x: np.ndarray,
    y: np.ndarray,
) -> BatchedLinearisation:
    """Linearise ``B`` sibling lanes, preferring the batched block API.

    Dispatch order mirrors the scalar :func:`linearise_block`:

    1. the block's own vectorised ``linearise_batch`` when ported;
    2. otherwise a loop over the lanes' scalar ``linearise`` stacked into
       one batched object (unported analytic blocks keep working);
    3. blocks without analytic Jacobians fall back to the batched
       finite-difference sweep of :func:`linearise_lanes_numerically`.
    """
    rep = lanes[0]
    lin = rep.linearise_batch(lanes, t, x, y)
    if lin is not None:
        lin.validate(len(lanes), rep.n_states, rep.n_terminals, rep.n_algebraic)
        return lin
    scalar = [lane.linearise(t, x[i], y[i]) for i, lane in enumerate(lanes)]
    if all(s is not None for s in scalar):
        return BatchedLinearisation.stack(scalar)
    if any(s is not None for s in scalar):
        # mixed analytic/numeric lanes (heterogeneous subclasses): degrade
        # to the scalar per-lane dispatcher rather than guessing
        return BatchedLinearisation.stack(
            [linearise_block(lane, t, x[i], y[i]) for i, lane in enumerate(lanes)]
        )
    return linearise_lanes_numerically(lanes, t, x, y)
