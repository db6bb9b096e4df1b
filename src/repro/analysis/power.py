"""Power and energy metrics over simulation traces.

Used to reproduce the quantities reported around Fig. 8(a): the RMS output
power of the microgenerator before and after a tuning event (the paper
reports 118 uW at 70 Hz and 117 uW at 71 Hz against a measured 116 uW).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.results import Trace

#: numpy renamed ``trapz`` to ``trapezoid`` in 2.0; support both
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))

__all__ = [
    "average_power",
    "rms_power",
    "rms_value",
    "energy",
    "windowed_rms_power",
    "power_before_after",
]


def _window(trace: Trace, t_start: Optional[float], t_end: Optional[float]) -> Trace:
    if t_start is None and t_end is None:
        return trace
    lo = trace.times[0] if t_start is None else t_start
    hi = trace.times[-1] if t_end is None else t_end
    return trace.window(lo, hi)


def average_power(
    power_trace: Trace,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> float:
    """Time-averaged value of an instantaneous-power trace (trapezoidal)."""
    window = _window(power_trace, t_start, t_end)
    if len(window) < 2:
        raise ConfigurationError("need at least two samples to average power")
    duration = window.times[-1] - window.times[0]
    if duration <= 0.0:
        raise ConfigurationError("power window has zero duration")
    return float(_trapezoid(window.values, window.times) / duration)


def rms_value(
    trace: Trace,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> float:
    """Root-mean-square of a waveform over a window (trapezoidal)."""
    window = _window(trace, t_start, t_end)
    if len(window) < 2:
        raise ConfigurationError("need at least two samples to compute an RMS value")
    duration = window.times[-1] - window.times[0]
    if duration <= 0.0:
        raise ConfigurationError("window has zero duration")
    mean_square = _trapezoid(window.values**2, window.times) / duration
    return float(np.sqrt(mean_square))


def rms_power(
    power_trace: Trace,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> float:
    """RMS of an instantaneous power waveform over a window.

    The paper quotes "simulated RMS power"; for a rectified sinusoidal
    power waveform the RMS and the mean differ by a constant factor, so
    both are provided (see :func:`average_power`).
    """
    return rms_value(power_trace, t_start, t_end)


def energy(
    power_trace: Trace,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> float:
    """Integral of a power trace over a window (joules)."""
    window = _window(power_trace, t_start, t_end)
    if len(window) < 2:
        raise ConfigurationError("need at least two samples to integrate energy")
    return float(_trapezoid(window.values, window.times))


def windowed_rms_power(power_trace: Trace, window_s: float) -> Trace:
    """Sliding-window RMS of a power trace (for plotting Fig. 8(a)-style data)."""
    if window_s <= 0.0:
        raise ConfigurationError("window length must be positive")
    times = power_trace.times
    values = power_trace.values
    # the window [t - w/2, t + w/2] of each sample, as slices of the
    # sorted times
    starts = np.searchsorted(times, times - window_s / 2.0, side="left")
    ends = np.searchsorted(times, times + window_s / 2.0, side="right")
    kept = np.flatnonzero(ends - starts >= 2)
    rms = np.empty(kept.size)
    for k, (lo, hi) in enumerate(zip(starts[kept].tolist(), ends[kept].tolist())):
        seg_t = times[lo:hi]
        mean_square = _trapezoid(values[lo:hi] ** 2, seg_t) / (seg_t[-1] - seg_t[0])
        rms[k] = np.sqrt(mean_square)
    return Trace(
        f"{power_trace.name}_rms", power_trace.unit, times=times[kept], values=rms
    )


def power_before_after(
    power_trace: Trace,
    event_time: float,
    window_s: float,
    *,
    settle_s: float = 0.0,
) -> Tuple[float, float]:
    """RMS power in windows before and after an event (a retune).

    ``settle_s`` skips an interval right after the event so transients do
    not contaminate the "after" window.  This is the quantity pair the
    paper reports for Fig. 8(a): 118 uW before vs 117 uW after the 1 Hz
    retune.
    """
    if window_s <= 0.0:
        raise ConfigurationError("window length must be positive")
    before = rms_power(power_trace, event_time - window_s, event_time)
    after_start = event_time + settle_s
    after = rms_power(power_trace, after_start, after_start + window_s)
    return before, after
