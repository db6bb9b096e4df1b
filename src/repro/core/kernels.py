"""Compiled held-model march kernels for the batched lock-step loop.

Between relinearisations the batched solver marches every lane through the
*same* affine model ``x' = A_r x + b_r`` with a held step size.  Those held
steps are pure data-parallel arithmetic — no Python-level decisions — so
they can be advanced ``K`` steps per call by a march kernel, where ``K``
is bounded by the next *event* the batched loop must handle itself::

    K = min(steps_until_refresh, steps_until_record, steps_until_t_end)

Rather than precomputing ``K`` (fragile under accumulated floating-point
time), each kernel re-evaluates the batched loop's own exit conditions
at the top of every internal iteration and returns as soon as one trips:

* the hold budget ``max_steps`` (``relinearise_interval`` minus the steps
  already taken on this model) is exhausted,
* any lane reaches its end time (``t >= min(t_end) - END_EPS``),
* any lane's trace recorder becomes due (``t - last_record >= threshold``),
* any lane trips the state-drift refresh check
  (``max|x - x_ref| > rtol * (max|x_ref| + 1e-300)``),
* any lane trips the divergence guard after a step (the kernel stops so
  the caller can retire the flagged lanes exactly as a single step
  would).

A kernel call that makes zero steps is a no-op by contract; the caller
then takes one single step itself, so progress is guaranteed.

Backends
--------
``numpy``
    Always available, and what ``compiled="off"`` runs.  Replicates the
    single-step array expressions of the batched loop operation for
    operation, so its waveforms are byte-identical to a one-step-at-a-time
    march — it is both the default and the reference the numba backend is
    validated against.
``numba``
    An ``@njit`` translation of the march (requires the optional
    ``numba`` + ``scipy`` extras, ``pip install repro[compiled]``).

``resolve_compiled`` maps a user-facing mode (``"off" | "auto" |
"numba"``) to a backend name: ``"off"`` is the numpy kernel, ``"auto"``
prefers numba and falls back to numpy without failing.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "COMPILED_MODES",
    "MarchResult",
    "available_backends",
    "batched_state_norms",
    "get_eliminate_kernel",
    "get_march_kernel",
    "resolve_compiled",
]

#: user-facing values of the ``compiled`` knob: ``"off"`` runs the
#: always-available numpy kernel, ``"auto"`` picks the best importable
#: backend and never fails, ``"numba"`` pins numba.
COMPILED_MODES = ("off", "auto", "numba")

#: must match ``repro.core.batch._END_EPS`` — the end-time slack of the
#: batched loop's "lane finished" check
_END_EPS = 1e-15


def batched_state_norms(x: np.ndarray) -> np.ndarray:
    """Overflow-safe per-lane 2-norms of a ``(B, n)`` state stack.

    ``sqrt(sum(x**2))`` overflows to ``inf`` once any component exceeds
    ~1e154 even though the true norm is representable, which would make
    the divergence guard mislabel a finite (if large) state as
    non-finite.  Lanes whose plain norm overflows while their components
    are all finite are recomputed in scaled form,
    ``max|x| * sqrt(sum((x / max|x|)**2))``; all other lanes keep the
    plain expression bit for bit.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(x * x, axis=1))
    overflowed = np.isinf(norms) & np.all(np.isfinite(x), axis=1)
    if np.any(overflowed):
        sub = x[overflowed]
        scale = np.max(np.abs(sub), axis=1)
        scaled = sub / scale[:, None]
        norms[overflowed] = scale * np.sqrt(np.sum(scaled * scaled, axis=1))
    return norms


@dataclass
class MarchResult:
    """Outcome of one compiled burst of held-model steps.

    ``steps`` may be zero (an exit condition tripped before the first
    internal step); the caller's loop then handles the event itself.
    ``x_prev`` is the state the last step departed from — the caller
    derives the lagged terminal variables ``y`` from it.
    ``history`` is the refreshed Adams-Bashforth window (oldest first),
    and ``diverged`` is a per-lane guard mask for the final step or
    ``None`` when no lane tripped.
    """

    steps: int
    t: float
    x: np.ndarray
    x_prev: np.ndarray
    history: List[Tuple[float, np.ndarray]]
    h_min: float
    h_max: float
    h_last: float
    diverged: Optional[np.ndarray]


# --------------------------------------------------------------------- #
# backend discovery
# --------------------------------------------------------------------- #

_PROBE_CACHE: Dict[str, bool] = {}


def _backend_importable(name: str) -> bool:
    """Whether backend ``name``'s package can be imported (cached probe)."""
    if name == "numpy":
        return True
    cached = _PROBE_CACHE.get(name)
    if cached is None:
        cached = importlib.util.find_spec(name) is not None
        _PROBE_CACHE[name] = cached
    return cached


def available_backends() -> Tuple[str, ...]:
    """Importable march-kernel backends, best first (numpy always last)."""
    return tuple(
        name for name in ("numba", "numpy") if _backend_importable(name)
    )


def resolve_compiled(mode: str) -> str:
    """Map a ``compiled`` mode to the backend name that will run.

    ``"off"`` is the numpy kernel; ``"auto"`` degrades from numba to
    numpy and never raises; an explicitly requested ``"numba"`` that is
    not importable raises a :class:`~repro.core.errors.ConfigurationError`
    naming the install extras.
    """
    if mode == "off":
        return "numpy"
    if mode == "auto":
        return available_backends()[0]
    if mode == "numba":
        if not _backend_importable(mode):
            raise ConfigurationError(
                f"compiled={mode!r} requested but {mode!r} is not importable "
                f"— install the compiled extras (pip install repro[compiled]) "
                f"or use compiled='auto' to fall back to the numpy kernel"
            )
        return mode
    raise ConfigurationError(
        f"unknown compiled mode {mode!r}; choose one of {COMPILED_MODES}"
    )


# --------------------------------------------------------------------- #
# numpy reference kernel
# --------------------------------------------------------------------- #

def _burst_schedule(
    t: float,
    h_nominal: float,
    t_end_min: float,
    max_steps: int,
    rec_last: np.ndarray,
    rec_thresh: np.ndarray,
) -> Tuple[List[float], List[float]]:
    """Precompute the burst's step schedule ``(t_j, h_j)``.

    Within a held-model burst the step sequence depends on *time only*:
    ``h_j = min(h_nominal, t_end_min - t_j)`` and ``t_{j+1} = t_j + h_j``
    replicate the single-step float arithmetic exactly (the
    per-lane ``min(t_end - t)`` clamp equals ``min(t_end) - t`` bitwise
    because float subtraction of a shared ``t`` is monotonic).  The
    schedule stops at the first time-based event: hold budget, earliest
    lane end time, or any lane's trace record coming due.
    """
    uniform = (
        rec_last.size > 0
        and float(np.min(rec_last)) == float(np.max(rec_last))
        and float(np.min(rec_thresh)) == float(np.max(rec_thresh))
    )
    rec_last_s = float(rec_last[0]) if uniform else 0.0
    rec_thresh_s = float(rec_thresh[0]) if uniform else 0.0

    times: List[float] = []
    steps_h: List[float] = []
    while len(times) < max_steps:
        if t >= t_end_min - _END_EPS:
            break
        if uniform:
            if t - rec_last_s >= rec_thresh_s:
                break
        elif bool(np.any((t - rec_last) >= rec_thresh)):
            break
        h = min(h_nominal, t_end_min - t)
        times.append(t)
        steps_h.append(h)
        t = t + h
    return times, steps_h


def _burst_weights(
    times: Sequence[float],
    steps_h: Sequence[float],
    history_times: Sequence[float],
    order: int,
) -> np.ndarray:
    """All Adams-Bashforth weight vectors of a burst, ``(K, order)``.

    Stacked replication of ``_variable_step_weights``: for step ``j`` the
    sample window is the last ``order`` entries of
    ``history_times + times[:j+1]``, the Vandermonde powers are built by
    cumulative multiplication (matching ``np.vander(increasing=True)``)
    and all ``K`` transposed systems are solved in one stacked LAPACK
    call — bitwise the same solves single steps make one by one.
    """
    k = order
    n_steps = len(times)
    all_times = list(history_times) + list(times)
    window = np.empty((n_steps, k))
    for j in range(n_steps):
        base = j + 1  # window ends at times[j] == all_times[len(hist)-1+j+1-1]
        start = len(history_times) + base - k
        for s in range(k):
            window[j, s] = all_times[start + s] - times[j]
    # powers via cumulative products, as np.vander(increasing=True) does
    vander = np.ones((n_steps, k, k))
    if k > 1:
        np.cumprod(
            np.broadcast_to(window[:, :, None], (n_steps, k, k - 1)),
            axis=2,
            out=vander[:, :, 1:],
        )
    moments = np.array(
        [
            [h ** (p + 1) / (p + 1) for p in range(k)]
            for h in ((t + h) - t for t, h in zip(times, steps_h))
        ]
    )
    return np.linalg.solve(np.swapaxes(vander, 1, 2), moments[:, :, None])[
        :, :, 0
    ]


def _march_numpy(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    t: float,
    h_nominal: float,
    t_end: np.ndarray,
    max_steps: int,
    history: Sequence[Tuple[float, np.ndarray]],
    rec_last: np.ndarray,
    rec_thresh: np.ndarray,
    state_rtol: np.ndarray,
    x_ref: np.ndarray,
    divergence_limit: np.ndarray,
) -> MarchResult:
    """Reference kernel: the single-step expressions, verbatim.

    The per-step state update replicates the batched loop's single step
    (``BatchedReducedSystem.derivative`` + ``AdamsBashforth.step_batch``)
    operation for operation, so fixed-step results are byte-identical.
    The time-based exit events and all step weights are precomputed by
    ``_burst_schedule``/``_burst_weights``; the state-dependent checks
    (divergence guard, and the drift-refresh check when a
    ``relinearise_state_rtol`` is set) run vectorised on kernel exit —
    see DESIGN.md §7 for the in-burst guard-sampling semantics.
    """
    history = list(history)
    order = len(history)
    t_end_min = float(np.min(t_end))
    rtol_active = bool(np.any(np.isfinite(state_rtol)))

    times, steps_h = _burst_schedule(
        t, h_nominal, t_end_min, max_steps, rec_last, rec_thresh
    )
    empty = MarchResult(
        steps=0,
        t=t,
        x=x,
        x_prev=x,
        history=history,
        h_min=np.inf,
        h_max=0.0,
        h_last=0.0,
        diverged=None,
    )
    if not times:
        return empty
    if rtol_active:
        # a drift-triggered refresh is a *state*-based exit the
        # time-based schedule cannot see; stop the burst before the step
        # on which the batched loop would refresh
        ref_scale = np.max(np.abs(x_ref), axis=1)
        drift_limit = state_rtol * (ref_scale + 1e-300)
        if bool(np.any(np.max(np.abs(x - x_ref), axis=1) > drift_limit)):
            return empty

    weights = _burst_weights(
        times, steps_h, [sample_t for sample_t, _ in history], order
    )

    steps = 0
    x_prev = x
    for j, t_j in enumerate(times):
        derivative = np.matmul(a, x[..., None])[..., 0] + b
        history.append((t_j, derivative))
        if len(history) > order:
            history.pop(0)
        derivatives = np.stack([sample_f for _, sample_f in history], axis=1)
        x_prev = x
        x = x + np.matmul(weights[j][None, None, :], derivatives)[:, 0, :]
        steps += 1
        if rtol_active and j + 1 < len(times):
            if bool(np.any(np.max(np.abs(x - x_ref), axis=1) > drift_limit)):
                break
            norms = batched_state_norms(x)
            bad = (
                ~np.all(np.isfinite(x), axis=1)
                | ~np.isfinite(norms)
                | (norms > divergence_limit)
            )
            if bool(np.any(bad)):
                break

    t = times[steps - 1] + steps_h[steps - 1]
    h_taken = steps_h[:steps]

    # divergence guard, vectorised on kernel exit
    norms = batched_state_norms(x)
    bad = (
        ~np.all(np.isfinite(x), axis=1)
        | ~np.isfinite(norms)
        | (norms > divergence_limit)
    )
    return MarchResult(
        steps=steps,
        t=t,
        x=x,
        x_prev=x_prev,
        history=history,
        h_min=min(h_taken),
        h_max=max(h_taken),
        h_last=steps_h[steps - 1],
        diverged=bad if bool(np.any(bad)) else None,
    )


# --------------------------------------------------------------------- #
# numba backend
# --------------------------------------------------------------------- #

def _march_loops_impl(
    a,
    b_vec,
    x,
    t,
    h_nominal,
    t_end,
    t_end_min,
    max_steps,
    hist_t,
    hist_f,
    rec_last,
    rec_thresh,
    rtol_active,
    state_rtol,
    x_ref,
    ref_scale,
    div_limit,
):
    """Loop-explicit march over ``(k, B, n)`` history stacks.

    Written in the numba-compilable subset (plain loops, sequential
    accumulation in the same order as numpy's matmul inner loops, one
    LAPACK solve per step for the Adams-Bashforth weights).  Compiled by
    ``_build_numba_kernel``; also runnable as plain Python for tests.
    """
    n_lanes, n = x.shape
    k = hist_t.shape[0]
    x = x.copy()
    x_prev = x.copy()
    hist_t = hist_t.copy()
    hist_f = hist_f.copy()
    diverged = np.zeros(n_lanes, np.bool_)
    any_div = False
    steps = 0
    h_min = np.inf
    h_max = 0.0
    h_last = 0.0
    vander_t = np.empty((k, k))
    moments = np.empty(k)

    while steps < max_steps:
        if t >= t_end_min - 1e-15:
            break
        rec_due = False
        for i in range(n_lanes):
            if t - rec_last[i] >= rec_thresh[i]:
                rec_due = True
                break
        if rec_due:
            break
        if rtol_active:
            trip = False
            for i in range(n_lanes):
                drift = 0.0
                for j in range(n):
                    d = abs(x[i, j] - x_ref[i, j])
                    if d > drift:
                        drift = d
                if drift > state_rtol[i] * (ref_scale[i] + 1e-300):
                    trip = True
                    break
            if trip:
                break

        rem_min = t_end[0] - t
        for i in range(1, n_lanes):
            r = t_end[i] - t
            if r < rem_min:
                rem_min = r
        h = h_nominal if h_nominal < rem_min else rem_min

        # rotate the window and append the fresh derivative A x + b
        for s in range(k - 1):
            hist_t[s] = hist_t[s + 1]
            hist_f[s, :, :] = hist_f[s + 1, :, :]
        hist_t[k - 1] = t
        for i in range(n_lanes):
            for row in range(n):
                acc = 0.0
                for col in range(n):
                    acc += a[i, row, col] * x[i, col]
                hist_f[k - 1, i, row] = acc + b_vec[i, row]

        # Adams-Bashforth weights: solve V^T w = moments as
        # `_variable_step_weights` does (powers built by
        # cumulative multiplication, matching np.vander)
        span = (t + h) - t
        for s in range(k):
            dt = hist_t[s] - t
            power = 1.0
            vander_t[0, s] = 1.0
            for j in range(1, k):
                power = power * dt
                vander_t[j, s] = power
        for j in range(k):
            moments[j] = span ** (j + 1) / (j + 1)
        weights = np.linalg.solve(vander_t, moments)

        x_prev = x
        x_new = np.empty_like(x)
        for i in range(n_lanes):
            for j in range(n):
                inc = 0.0
                for s in range(k):
                    inc += weights[s] * hist_f[s, i, j]
                x_new[i, j] = x[i, j] + inc
        x = x_new

        steps += 1
        h_last = h
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        t = t + h

        # overflow-safe divergence guard (see batched_state_norms)
        for i in range(n_lanes):
            finite = True
            amax = 0.0
            sumsq = 0.0
            for j in range(n):
                v = x[i, j]
                if not np.isfinite(v):
                    finite = False
                    break
                av = abs(v)
                if av > amax:
                    amax = av
                sumsq += v * v
            if not finite:
                diverged[i] = True
                any_div = True
                continue
            norm = np.sqrt(sumsq)
            if np.isinf(norm) and amax > 0.0:
                scaled_sq = 0.0
                for j in range(n):
                    sv = x[i, j] / amax
                    scaled_sq += sv * sv
                norm = amax * np.sqrt(scaled_sq)
            if not np.isfinite(norm) or norm > div_limit[i]:
                diverged[i] = True
                any_div = True
        if any_div:
            break

    return (
        steps,
        t,
        x,
        x_prev,
        hist_t,
        hist_f,
        h_min,
        h_max,
        h_last,
        diverged,
        any_div,
    )


def _wrap_loops_impl(inner: Callable) -> Callable:
    """Adapt ``_march_loops_impl``-shaped callables to the kernel API."""

    def kernel(
        a,
        b,
        x,
        t,
        h_nominal,
        t_end,
        max_steps,
        history,
        rec_last,
        rec_thresh,
        state_rtol,
        x_ref,
        divergence_limit,
    ) -> MarchResult:
        order = len(history)
        hist_t = np.array([sample_t for sample_t, _ in history], dtype=float)
        hist_f = np.ascontiguousarray(
            np.stack([sample_f for _, sample_f in history], axis=0)
        )
        rtol_active = bool(np.any(np.isfinite(state_rtol)))
        ref_scale = np.max(np.abs(x_ref), axis=1)
        (
            steps,
            t_out,
            x_out,
            x_prev,
            hist_t_out,
            hist_f_out,
            h_min,
            h_max,
            h_last,
            diverged,
            any_div,
        ) = inner(
            np.ascontiguousarray(a),
            np.ascontiguousarray(b),
            np.ascontiguousarray(x),
            float(t),
            float(h_nominal),
            np.ascontiguousarray(t_end),
            float(np.min(t_end)),
            int(max_steps),
            hist_t,
            hist_f,
            np.ascontiguousarray(rec_last),
            np.ascontiguousarray(rec_thresh),
            rtol_active,
            np.ascontiguousarray(state_rtol),
            np.ascontiguousarray(x_ref),
            np.ascontiguousarray(ref_scale),
            np.ascontiguousarray(divergence_limit),
        )
        new_history = [
            (float(hist_t_out[s]), hist_f_out[s].copy()) for s in range(order)
        ]
        return MarchResult(
            steps=int(steps),
            t=float(t_out),
            x=np.asarray(x_out),
            x_prev=np.asarray(x_prev),
            history=new_history,
            h_min=float(h_min),
            h_max=float(h_max),
            h_last=float(h_last),
            diverged=np.asarray(diverged) if any_div else None,
        )

    return kernel


def _build_numba_kernel() -> Callable:
    """Compile the loop-explicit march with numba and smoke-run it once.

    The smoke run forces the jit compile (and its LAPACK binding, which
    needs scipy) to happen here, so an unusable numba install surfaces as
    a build error that ``"auto"`` mode can degrade from instead of
    failing mid-march.
    """
    from numba import njit  # noqa: PLC0415 — optional dependency

    inner = njit(cache=True)(_march_loops_impl)
    kernel = _wrap_loops_impl(inner)
    kernel(
        a=np.zeros((1, 1, 1)),
        b=np.zeros((1, 1)),
        x=np.zeros((1, 1)),
        t=0.0,
        h_nominal=0.5,
        t_end=np.ones(1),
        max_steps=1,
        history=[(0.0, np.zeros((1, 1)))],
        rec_last=np.zeros(1),
        rec_thresh=np.ones(1),
        state_rtol=np.full(1, np.inf),
        x_ref=np.zeros((1, 1)),
        divergence_limit=np.ones(1),
    )
    return kernel


# --------------------------------------------------------------------- #
# kernel registry
# --------------------------------------------------------------------- #

_KERNELS: Dict[str, Callable] = {}


def get_march_kernel(backend: str) -> Callable:
    """Build (once) and return the march kernel for ``backend``.

    numba compiles lazily on first use; a failed build raises, which
    callers in ``"auto"`` mode catch to degrade to ``"numpy"``.
    """
    kernel = _KERNELS.get(backend)
    if kernel is None:
        if backend == "numpy":
            kernel = _march_numpy
        elif backend == "numba":
            kernel = _build_numba_kernel()
        else:
            raise ConfigurationError(
                f"unknown march-kernel backend {backend!r}"
            )
        _KERNELS[backend] = kernel
    return kernel


# --------------------------------------------------------------------- #
# fused lane elimination (batched refresh hot loop)
# --------------------------------------------------------------------- #

def _eliminate_lanes_impl(
    jxx: np.ndarray,
    jxy: np.ndarray,
    ex: np.ndarray,
    jyx: np.ndarray,
    jyy: np.ndarray,
    ey: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane terminal elimination — plain loops, numba-compilable.

    Mirrors the stacked-NumPy elimination in
    :meth:`repro.core.elimination.BatchedAssembler.eliminate` operation
    for operation: one LAPACK solve of ``jyy`` against ``[jyx | ey]``
    per lane, then the Schur-style reduction of the state Jacobian.  The
    offset product keeps its trailing unit dimension so the BLAS call is
    the same dgemm NumPy issues for the stacked ``matmul`` — the caller
    verifies bitwise agreement on live data before trusting this kernel.

    Returns ``(elimination_matrix, elimination_offset, a_reduced,
    b_reduced)``.
    """
    n_lanes, n, _ = jxx.shape
    m = jyy.shape[1]
    em = np.empty((n_lanes, m, n))
    eo = np.empty((n_lanes, m))
    a_red = np.empty((n_lanes, n, n))
    b_red = np.empty((n_lanes, n))
    for i in range(n_lanes):
        rhs = np.empty((m, n + 1))
        rhs[:, :n] = jyx[i]
        rhs[:, n] = ey[i]
        sol = np.linalg.solve(np.ascontiguousarray(jyy[i]), rhs)
        em[i] = -sol[:, :n]
        eo[i] = -sol[:, n]
        a_red[i] = jxx[i] + np.dot(jxy[i], np.ascontiguousarray(em[i]))
        b_red[i] = ex[i] + np.dot(jxy[i], eo[i].copy().reshape(m, 1))[:, 0]
    return em, eo, a_red, b_red


def _build_numba_eliminate() -> Callable:
    """Compile the fused elimination with numba and smoke-run it once."""
    from numba import njit  # noqa: PLC0415 — optional dependency

    kernel = njit(cache=True)(_eliminate_lanes_impl)
    kernel(
        np.zeros((1, 2, 2)),
        np.zeros((1, 2, 1)),
        np.zeros((1, 2)),
        np.zeros((1, 1, 2)),
        np.full((1, 1, 1), 2.0),
        np.zeros((1, 1)),
    )
    return kernel


_ELIM_KERNELS: Dict[str, Optional[Callable]] = {}


def get_eliminate_kernel(backend: str) -> Optional[Callable]:
    """Build (once) the fused eliminate kernel for ``backend``, or None.

    Only ``"numba"`` has a fused elimination — the stacked-NumPy path in
    :class:`~repro.core.elimination.BatchedAssembler` *is* the numpy
    backend.  A failed build caches
    ``None`` so the caller silently keeps the stacked path.
    """
    if backend not in _ELIM_KERNELS:
        kernel: Optional[Callable] = None
        if backend == "numba":
            try:
                kernel = _build_numba_eliminate()
            except Exception:  # noqa: BLE001 — degrade, never fail a run
                kernel = None
        _ELIM_KERNELS[backend] = kernel
    return _ELIM_KERNELS[backend]
