"""Numerical-stability analysis for the explicit march-in-time process.

Eq. (6)-(7) of the paper: the forward iteration
``x_{n+1} = x_n + h (A x_n + b)`` is numerically stable when the spectral
radius of the point total-step matrix ``I + h A`` lies within the unit
circle.  The spectral radius is governed by the system's minimum time
constant which is generally unknown, but because the analogue parts of an
energy harvester are passive, stability can be ensured "in a
straightforward way by adjusting the step size such that the point
total-step matrix is diagonally dominant".

This module provides these criteria:

* :func:`spectral_radius` / :func:`is_spectrally_stable` — the exact
  condition, used by the tests and by the ablation benchmarks;
* :func:`integrator_step_limit` (and its stacked form
  :func:`integrator_step_limit_batch`) — the bound the step controllers
  use during the march: the reduced matrix's eigenvalues inscribed in
  the explicit integrator's stability region;
* :func:`diagonal_dominance_step_limit` — the paper's cheap sufficient
  condition, kept as an analysis function: the harvester's reduced
  matrix is far from diagonally dominant, so its bound is orders of
  magnitude below the spectral one there;
* :func:`minimum_time_constant` — the physical quantity that determines
  the stability limit, reported in solver diagnostics.
"""

from __future__ import annotations


import numpy as np

__all__ = [
    "spectral_radius",
    "is_spectrally_stable",
    "spectral_step_limit",
    "integrator_step_limit",
    "diagonal_dominance_step_limit",
    "is_diagonally_dominant",
    "minimum_time_constant",
    "stiffness_ratio",
]


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of ``matrix``."""
    eigenvalues = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    if eigenvalues.size == 0:
        return 0.0
    return float(np.max(np.abs(eigenvalues)))


def is_spectrally_stable(a: np.ndarray, h: float) -> bool:
    """Exact stability predicate: ``rho(I + h A) < 1`` (Eq. 7)."""
    a = np.asarray(a, dtype=float)
    total_step = np.eye(a.shape[0]) + h * a
    return spectral_radius(total_step) < 1.0


def spectral_step_limit(a: np.ndarray, safety: float = 0.9) -> float:
    """Largest step size for which ``rho(I + h A) < 1``.

    For an eigenvalue ``lambda = alpha + i beta`` with ``alpha < 0`` the
    stability bound of the forward-Euler-type iteration is
    ``h < -2 alpha / (alpha^2 + beta^2)``; the limit over all eigenvalues is
    returned, scaled by ``safety``.  Eigenvalues with non-negative real part
    (an unstable or marginally stable physical mode) impose no finite limit
    from this formula and are skipped — the caller should rely on accuracy
    control in that case.  Returns ``inf`` when no eigenvalue restricts the
    step.  This is :func:`integrator_step_limit` with the Forward-Euler
    extents (2, 0).
    """
    return integrator_step_limit(a, 2.0, 0.0, safety)


def integrator_step_limit(
    a: np.ndarray,
    real_extent: float,
    imag_extent: float,
    safety: float = 0.9,
) -> float:
    """Step-size bound tailored to a specific explicit integrator.

    The stability region of an explicit formula extends ``real_extent``
    along the negative real axis of the ``h * lambda`` plane and
    ``imag_extent`` along the imaginary axis (0 for formulas such as
    Forward Euler and AB2 whose regions only touch the axis).  For each
    eigenvalue ``lambda = alpha + i beta`` of the system matrix the bound
    used is the diamond (L1) inscription of that region,

    ``h <= 1 / (|alpha| / real_extent + |beta| / imag_extent)``

    which is conservative but captures the crucial property the harvester
    model relies on: lightly damped mechanical modes (nearly imaginary
    eigenvalues) are only integrable by formulas whose region covers part
    of the imaginary axis (AB3+, RK4), in which case the limit scales with
    ``imag_extent / |beta|`` rather than collapsing towards zero.

    When ``imag_extent`` is zero, oscillatory eigenvalues fall back to the
    circle criterion ``h <= real_extent * |alpha| / |lambda|^2``.
    Eigenvalues with non-negative real part impose no limit.  Returns
    ``inf`` when nothing restricts the step.
    """
    batch = np.asarray(a, dtype=float)[None]
    return float(integrator_step_limit_batch(batch, real_extent, imag_extent, safety)[0])


def integrator_step_limit_batch(
    a: np.ndarray,
    real_extent: float,
    imag_extent: float,
    safety: float = 0.9,
) -> np.ndarray:
    """Per-lane :func:`integrator_step_limit` for a stacked ``(B, n, n)`` batch.

    One batched eigenvalue sweep serves every lane, and the scalar
    function is this one on a batch of one, so each lane's limit is
    bitwise its scalar value.  Returns an array of shape ``(B,)``
    (``inf`` where nothing restricts the step).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    if real_extent <= 0.0:
        raise ValueError("real_extent must be positive")
    b = a.shape[0]
    if a.shape[1] == 0:
        return np.full(b, float("inf"))
    eigenvalues = np.linalg.eigvals(a)  # (B, n)
    alpha = np.real(eigenvalues)
    beta = np.imag(eigenvalues)
    bounds = np.full(alpha.shape, float("inf"))
    if imag_extent > 0.0:
        denom = np.abs(alpha) / real_extent + np.abs(beta) / imag_extent
        restrictive = ~((alpha >= 0.0) & (beta == 0.0)) & (denom > 0.0)
        np.divide(1.0, denom, out=bounds, where=restrictive)
    else:
        restrictive = alpha < 0.0
        magnitude_sq = alpha * alpha + beta * beta
        np.divide(
            real_extent * (-alpha), magnitude_sq, out=bounds, where=restrictive
        )
    limits = np.min(bounds, axis=1)
    return np.where(np.isfinite(limits), safety * limits, float("inf"))


def is_diagonally_dominant(matrix: np.ndarray, *, strict: bool = False) -> bool:
    """Row diagonal dominance test used as the cheap stability surrogate."""
    matrix = np.asarray(matrix, dtype=float)
    diagonal = np.abs(np.diag(matrix))
    off_diagonal = np.sum(np.abs(matrix), axis=1) - diagonal
    if strict:
        return bool(np.all(diagonal > off_diagonal))
    return bool(np.all(diagonal >= off_diagonal))


def diagonal_dominance_step_limit(a: np.ndarray, safety: float = 0.9) -> float:
    """Step-size bound that keeps ``I + h A`` diagonally dominant with all
    Gershgorin discs inside the unit circle.

    For row ``i`` the disc of ``I + h A`` is centred at ``1 + h a_ii`` with
    radius ``h r_i`` where ``r_i`` is the off-diagonal absolute row sum.
    Requiring ``|1 + h a_ii| + h r_i <= 1`` for a passive system
    (``a_ii <= 0``) gives ``h <= 2|a_ii| / (a_ii^2 ... )`` — in the common
    regime ``h (|a_ii| + r_i) <= 2`` and ``h r_i <= -h a_ii`` simultaneously,
    which simplifies to ``h <= 2 / (|a_ii| + r_i)`` whenever
    ``r_i <= |a_ii|`` (diagonal dominance of ``A`` itself).  Rows where
    ``A`` is not diagonally dominant fall back to the conservative
    Gershgorin bound ``h <= 2 / (|a_ii| + r_i)`` as well, which still keeps
    every disc inside the unit circle when ``a_ii < 0``.

    Returns ``inf`` for an empty or all-zero matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return float("inf")
    diagonal = np.diag(a)
    off_diagonal = np.sum(np.abs(a), axis=1) - np.abs(diagonal)
    limit = float("inf")
    for a_ii, r_i in zip(diagonal, off_diagonal):
        denom = abs(a_ii) + r_i
        if denom <= 0.0:
            continue
        limit = min(limit, 2.0 / denom)
    return safety * limit if np.isfinite(limit) else float("inf")


def minimum_time_constant(a: np.ndarray) -> float:
    """Smallest time constant ``1/|Re(lambda)|`` over the decaying modes.

    The paper notes that the spectral radius (and hence the explicit-method
    step limit) "is determined by the system's minimum time constant".
    Returns ``inf`` when the matrix has no decaying mode.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return float("inf")
    real_parts = np.real(np.linalg.eigvals(a))
    decaying = real_parts[real_parts < 0.0]
    if decaying.size == 0:
        return float("inf")
    return float(1.0 / np.max(np.abs(decaying)))


def stiffness_ratio(a: np.ndarray) -> float:
    """Ratio of the largest to the smallest decaying-mode rate.

    A large ratio identifies a stiff system, for which the paper notes the
    explicit technique "is unlikely to offer a speed advantage" because the
    step size must stay below the fastest time constant.  Returns 1.0 when
    fewer than two decaying modes exist.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 1.0
    real_parts = np.abs(np.real(np.linalg.eigvals(a)))
    decaying = real_parts[real_parts > 0.0]
    if decaying.size < 2:
        return 1.0
    return float(np.max(decaying) / np.min(decaying))
