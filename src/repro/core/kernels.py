"""The held-model march kernel of the batched loop.

Between relinearisations every lane of the batched solver marches its own
held affine model ``x' = A_r x + b_r`` on its own clock.  Those held steps
are pure data-parallel arithmetic — no Python-level decisions — so the
kernel advances all lanes ``K`` steps per call, where ``K`` is bounded by
the next *event* the batched loop must handle itself:

* the hold budget ``max_steps`` (the smallest ``relinearise_interval``
  remainder of any lane) is exhausted,
* any lane reaches its end time (``t_i >= t_end_i - END_EPS``),
* any lane's next digital event comes due (``t_event_i <= t_i + END_EPS``,
  the scalar solver's own check), so the caller runs it between steps,
* any lane trips the divergence guard after a step (checked after every
  step, as the scalar solver does, so the caller retires the flagged
  lanes at the same step time) -- the only exit that depends on the
  state.

Each lane steps with ``h_i = min(h_held_i, boundary_i - t_i)``, where the
boundary is the lane's end time or its next digital event, whichever
comes first — exactly the scalar solver's held/fixed step.  Trace
records are *not* burst events: the kernel returns every record row that
comes due inside the burst, in step order, and the caller writes them
after the call.

There is one kernel, written in NumPy; it replicates the single-step
array expressions operation for operation, so every lane is bitwise its
scalar :class:`~repro.core.solver.LinearisedStateSpaceSolver` run.  A
burst of one step (every call at ``relinearise_interval`` 1) skips the
burst set-up and takes the same expressions directly.
``resolve_compiled`` maps a ``compiled`` mode (``"off" | "auto"``, the
argument ``RunOptions.batched`` validates and drops) to that kernel's
backend name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "COMPILED_MODES",
    "END_EPS",
    "MarchResult",
    "available_backends",
    "batched_state_norms",
    "divergence_guard",
    "diverged_lanes",
    "get_march_kernel",
    "record_due",
    "resolve_compiled",
]

#: the march-kernel modes ``resolve_compiled`` accepts; both run the NumPy kernel
COMPILED_MODES = ("off", "auto")

#: end-time slack of a lane: it has finished at ``t >= t_end - END_EPS``
#: and an event is due at ``t_event <= t + END_EPS`` (the batched loop
#: and the march kernel share it)
END_EPS = 1e-15

#: largest finite norm; a plain norm above it is inf or NaN
_MAX_NORM = float(np.finfo(float).max)


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
    infinite = np.isinf(norms)
    if infinite.any():
        overflowed = infinite & np.all(np.isfinite(x), axis=1)
        if overflowed.any():
            sub = x[overflowed]
            scale = np.max(np.abs(sub), axis=1)
            scaled = sub / scale[:, None]
            norms[overflowed] = scale * np.sqrt(np.sum(scaled * scaled, axis=1))
    return norms


def divergence_guard(divergence_limit: np.ndarray) -> np.ndarray:
    """Per-lane divergence limits in the form the guard compares against.

    Clamped to the largest finite norm, so that a non-finite norm always
    trips, even under an infinite limit.  The batched march clamps its
    lanes' limits once per run and hands the result to the kernel.
    """
    return np.minimum(divergence_limit, _MAX_NORM)


def diverged_lanes(x: np.ndarray, guard: np.ndarray) -> Optional[np.ndarray]:
    """Per-lane divergence-guard mask, or ``None`` when no lane tripped.

    ``guard`` is each lane's :func:`divergence_guard`.  A lane trips when
    its state norm is not at most its guard: a non-finite state or norm,
    or a norm above the limit.  The plain norm settles the common
    all-healthy case; only a lane it cannot clear takes the overflow-safe
    :func:`batched_state_norms`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(x * x, axis=1))
    if (norms <= guard).all():
        return None
    bad = ~(batched_state_norms(x) <= guard)
    return bad if bad.any() else None


def record_due(t: np.ndarray, last: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Which lanes' trace recorders are due at per-lane times ``t``.

    Replicates ``TraceRecorder.should_record``: a lane that has never
    recorded (``last`` is NaN) or records every step (``threshold`` is
    ``-inf``) is always due, otherwise when ``t - last >= threshold``.
    """
    return ~((t - last) < threshold)


@dataclass
class MarchResult:
    """Outcome of one burst of held-model steps.

    ``steps`` is the number of steps every lane took.  ``t`` holds the
    per-lane times after the burst and ``x_prev`` the states the last step
    departed from — the caller derives the lagged terminal variables
    ``y`` from it.  ``history`` is the refreshed Adams-Bashforth window
    (oldest first, per-lane sample times).  ``h_min``/``h_max``/``h_last``
    are per-lane step statistics, ``diverged`` is the guard mask of the
    final step or ``None``, and ``records`` lists the ``(t, due, x)`` rows
    that came due inside the burst, in step order.
    """

    steps: int
    t: np.ndarray
    x: np.ndarray
    x_prev: np.ndarray
    history: List[Tuple[np.ndarray, np.ndarray]]
    h_min: np.ndarray
    h_max: np.ndarray
    h_last: np.ndarray
    diverged: Optional[np.ndarray]
    records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def available_backends() -> Tuple[str, ...]:
    """March-kernel backends available on this host."""
    return ("numpy",)


def resolve_compiled(mode: str) -> str:
    """Map a ``compiled`` mode to the backend name that will run."""
    if mode not in COMPILED_MODES:
        raise ConfigurationError(
            f"unknown compiled mode {mode!r}; choose one of {COMPILED_MODES}"
        )
    return "numpy"


def get_march_kernel(backend: str) -> Callable:
    """The march kernel for ``backend`` (only ``"numpy"`` exists)."""
    if backend != "numpy":
        raise ConfigurationError(f"unknown march-kernel backend {backend!r}")
    return _march_numpy


# --------------------------------------------------------------------- #
# schedule and step weights
# --------------------------------------------------------------------- #

def _burst_schedule(
    t: np.ndarray,
    h_held: np.ndarray,
    t_end: np.ndarray,
    max_steps: int,
    rec_last: np.ndarray,
    rec_thresh: np.ndarray,
    t_event: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[Tuple[int, np.ndarray]]]:
    """Precompute the burst's per-lane step schedule ``(t_j, h_j)``.

    Within a held-model burst each lane's steps depend on *time only*:
    ``h_j = min(h_held, boundary - t_j)`` and ``t_{j+1} = t_j + h_j``
    replicate the scalar solver's float arithmetic exactly.  The boundary
    is ``t_end``, or the lane's next digital event ``t_event`` when that
    comes first (no event is due inside a burst, so the scalar solver's
    ``max(t_event, t + END_EPS)`` is ``t_event`` here).  The schedule
    stops at the hold budget or before the first step at which any lane
    has reached its end time or has an event due.  Record due-ness is a
    function of time too, so the rows due at steps ``j >= 1`` (step 0's
    record is the caller's) are listed here as ``(j, due)``.
    """
    limit = t_end - END_EPS
    boundary = t_end if t_event is None else np.minimum(t_end, t_event)
    last = rec_last
    times: List[np.ndarray] = []
    steps_h: List[np.ndarray] = []
    rows: List[Tuple[int, np.ndarray]] = []
    while len(times) < max_steps:
        if np.any(t >= limit):
            break
        if t_event is not None and np.any(t_event <= t + END_EPS):
            break
        if times:
            due = record_due(t, last, rec_thresh)
            if due.any():
                rows.append((len(times), due))
                last = np.where(due, t, last)
        h = np.minimum(h_held, boundary - t)
        times.append(t)
        steps_h.append(h)
        t = t + h
    return times, steps_h, rows


def _burst_weights(
    times: np.ndarray,
    steps_h: np.ndarray,
    history_times: np.ndarray,
    order: int,
) -> np.ndarray:
    """All per-lane Adams-Bashforth weight vectors of a burst, ``(K, B, k)``.

    Stacked replication of ``_variable_step_weights``: for lane ``i`` at
    step ``j`` the sample window is the last ``order`` entries of its
    ``history_times + times[:j+1]``, shifted by ``times[j]``, integrated
    over the span ``(t_j + h_j) - t_j``.  ``times``/``steps_h`` are
    ``(K, B)`` and ``history_times`` is ``(m, B)`` with
    ``m >= order - 1``.  The weights depend only on the shifted windows
    and the spans, which repeat from burst to burst while the lanes hold
    their steps, so the solve is memoised on exactly those floats (see
    :func:`_solve_weights`).
    """
    k = order
    n_steps = times.shape[0]
    m = history_times.shape[0]
    all_times = np.concatenate([history_times, times])
    index = (m + 1 - k) + np.arange(n_steps)[:, None] + np.arange(k)[None, :]
    # (K, B, k): lane-major sample windows, shifted by each step's start
    window = np.ascontiguousarray(
        np.swapaxes(all_times[index] - times[:, None, :], 1, 2)
    )
    spans = (times + steps_h) - times
    return _solve_weights(window.tobytes(), spans.tobytes(), window.shape)


@lru_cache(maxsize=128)
def _solve_weights(
    window: bytes, spans: bytes, shape: Tuple[int, int, int]
) -> np.ndarray:
    """The weights of ``_burst_weights``, memoised on the raw float bytes.

    The transposed Vandermonde matrices are built by repeated
    multiplication, as ``np.vander(increasing=True)`` builds them, the
    moments ``span**(p+1)/(p+1)`` with Python ``**`` (libm ``pow``) as
    the scalar weights compute them, and all ``K * B`` systems are solved
    in one stacked LAPACK call — bitwise the solves the scalar steps make
    one by one.  A hit returns the array the same solve produced; it is
    read-only so no caller can poison the memo.
    """
    k = shape[2]
    window_arr = np.frombuffer(window).reshape(shape)
    vander_t = np.empty(shape + (k,))
    vander_t[..., 0, :] = 1.0
    if k > 1:
        vander_t[..., 1, :] = window_arr
    for p in range(2, k):
        np.multiply(vander_t[..., p - 1, :], window_arr, out=vander_t[..., p, :])
    moments = np.array(
        [
            [span ** (p + 1) / (p + 1) for p in range(k)]
            for span in np.frombuffer(spans).tolist()
        ]
    ).reshape(shape)
    weights = np.linalg.solve(vander_t, moments[..., None])[..., 0]
    weights.flags.writeable = False
    return weights


# --------------------------------------------------------------------- #
# the kernel
# --------------------------------------------------------------------- #

def _march_numpy(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    h_held: np.ndarray,
    t_end: np.ndarray,
    max_steps: int,
    history: Sequence[Tuple[np.ndarray, np.ndarray]],
    order: int,
    rec_last: np.ndarray,
    rec_thresh: np.ndarray,
    guard: np.ndarray,
    t_event: Optional[np.ndarray] = None,
) -> MarchResult:
    """March every lane up to ``max_steps`` held-model steps.

    A burst of one step -- every call at ``relinearise_interval`` 1 --
    takes :func:`_march_one`; longer bursts take :func:`_march_burst`.
    Both give the same :class:`MarchResult` bit for bit.
    """
    if max_steps == 1:
        return _march_one(
            a, b, x, t, h_held, t_end, history, order, guard, t_event
        )
    return _march_burst(
        a, b, x, t, h_held, t_end, max_steps, history, order, rec_last,
        rec_thresh, guard, t_event,
    )


def _march_one(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    h_held: np.ndarray,
    t_end: np.ndarray,
    history: Sequence[Tuple[np.ndarray, np.ndarray]],
    order: int,
    guard: np.ndarray,
    t_event: Optional[np.ndarray] = None,
) -> MarchResult:
    """One held-model step: :func:`_march_burst` at ``max_steps`` 1.

    The burst loop's first step has no record row (the caller records
    step 0), so one step is the boundary, the step, its
    sample window, the memoised :func:`_solve_weights`, the derivative,
    the update and the divergence guard.  Each is the burst loop's own
    expression on the same floats (the window is the last ``order``
    sample times shifted by ``t``, the weights are looked up under the
    same bytes and shape), so the result is bitwise the burst loop's,
    without its schedule, weight-window and record-list set-up.
    """
    boundary = t_end if t_event is None else np.minimum(t_end, t_event)
    h = np.minimum(h_held, boundary - t)
    t_new = t + h
    samples = list(history)
    samples.append((t, np.matmul(a, x[..., None])[..., 0] + b))
    if len(samples) > order:
        del samples[0]
    # the (B, k) window read through a transpose: ``tobytes`` gives the
    # C-order bytes of the burst loop's stacked window all the same
    window = np.array([sample_t for sample_t, _ in samples[-order:]]).T - t[:, None]
    weights = _solve_weights(
        window.tobytes(), (t_new - t).tobytes(), (1,) + window.shape
    )
    # the burst loop's ``np.stack(..., axis=1)``, filled in place
    derivatives = np.empty((x.shape[0], len(samples), x.shape[1]))
    for j, (_, sample_f) in enumerate(samples):
        derivatives[:, j] = sample_f
    x_new = x + np.matmul(weights[0][:, None, :], derivatives)[:, 0, :]
    return MarchResult(
        steps=1,
        t=t_new,
        x=x_new,
        x_prev=x,
        history=samples,
        h_min=h,
        h_max=h,
        h_last=h,
        diverged=diverged_lanes(x_new, guard),
        records=[],
    )


def _march_burst(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    h_held: np.ndarray,
    t_end: np.ndarray,
    max_steps: int,
    history: Sequence[Tuple[np.ndarray, np.ndarray]],
    order: int,
    rec_last: np.ndarray,
    rec_thresh: np.ndarray,
    guard: np.ndarray,
    t_event: Optional[np.ndarray] = None,
) -> MarchResult:
    """March every lane up to ``max_steps`` held-model steps, in one burst.

    The per-step state update replicates the scalar step
    (``ReducedSystem.derivative`` + ``AdamsBashforth.step``) operation for
    operation.  The step schedule, the record rows and all step weights
    are precomputed by ``_burst_schedule``/``_burst_weights``; the one
    state-dependent check, the divergence guard, runs after every step.
    ``t_event`` holds each lane's next
    digital event time (``inf`` for none), or is ``None`` when no lane
    has digital events.  ``history`` holds at least ``order - 1``
    samples; the caller guarantees at least one scheduled step (no lane
    finished or due for an event, hold budget left), so ``steps >= 1``.
    """
    times, steps_h, rows = _burst_schedule(
        t, h_held, t_end, max_steps, rec_last, rec_thresh, t_event
    )
    hist_t = [sample_t for sample_t, _ in history]
    hist_f = [sample_f for _, sample_f in history]
    weights = _burst_weights(
        np.array(times),
        np.array(steps_h),
        np.array(hist_t).reshape(len(hist_t), t.shape[0]),
        order,
    )
    due_at = dict(rows)

    records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    diverged = None
    steps = 0
    x_prev = x
    for j, t_j in enumerate(times):
        due = due_at.get(j)
        if due is not None:
            records.append((t_j, due, x))
        hist_t.append(t_j)
        hist_f.append(np.matmul(a, x[..., None])[..., 0] + b)
        if len(hist_f) > order:
            del hist_t[0], hist_f[0]
        derivatives = np.stack(hist_f, axis=1)
        x_prev = x
        x = x + np.matmul(weights[j][:, None, :], derivatives)[:, 0, :]
        steps += 1
        diverged = diverged_lanes(x, guard)
        if diverged is not None:
            break

    taken = np.array(steps_h[:steps])
    return MarchResult(
        steps=steps,
        t=times[steps - 1] + steps_h[steps - 1],
        x=x,
        x_prev=x_prev,
        history=list(zip(hist_t, hist_f)),
        h_min=taken.min(axis=0),
        h_max=taken.max(axis=0),
        h_last=steps_h[steps - 1],
        diverged=diverged,
        records=records,
    )
