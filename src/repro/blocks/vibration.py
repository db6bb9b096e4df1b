"""Ambient vibration sources.

The microgenerator is excited by the acceleration of its base.  The paper's
scenarios use a sinusoidal ambient vibration whose frequency steps from one
value to another (70 -> 71 Hz in Scenario 1, a 14 Hz shift in Scenario 2);
the tuning controller then re-tunes the harvester to the new frequency.

:class:`VibrationSource` produces the base acceleration ``a(t)`` and exposes
the instantaneous ambient frequency — the quantity a real system would
estimate from the generator waveform and that the microcontroller probe
reads.  Frequency changes preserve phase continuity so that the excitation
waveform has no jump at the switching instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError

__all__ = [
    "FrequencyStep",
    "VibrationSource",
    "MultiToneVibrationSource",
    "batch_acceleration",
    "PreparedAcceleration",
]


def batch_acceleration(
    sources: Sequence[Callable[[float], float]], t: np.ndarray
) -> np.ndarray:
    """Base acceleration of ``B`` lane excitations at per-lane time points.

    Used by the batched block models: each lane of a batched sweep carries
    its own excitation (its own frequency/amplitude/schedule) and its own
    clock, so lane ``i`` is evaluated at ``t[i]``.  Deliberately a loop
    over the scalar sources rather than an ``np.sin``-vectorised
    evaluation: the scalar sources go through libm's ``sin``, and NumPy's
    SIMD ``sin`` is not guaranteed bit-identical to it, which would break
    each batched lane's bitwise identity with its scalar run.  This makes
    one Python call per lane per evaluation; a caller that evaluates the
    same lanes at every refresh prepares them once with
    :class:`PreparedAcceleration` instead.
    """
    return np.array(
        [float(source(t_i)) for source, t_i in zip(sources, t.tolist())]
    )


class PreparedAcceleration:
    """:func:`batch_acceleration` of fixed lane sources, prepared once.

    A lane whose source is a :meth:`VibrationSource.acceleration` gets its
    segment table when this object is built: each segment's start,
    ``2 * pi * frequency`` (the product ``acceleration`` forms first),
    amplitude and start phase.  A call walks each such lane's table as
    ``VibrationSource._segment_at`` walks its segments and forms the
    phase argument and the product with the amplitude as
    :meth:`VibrationSource.acceleration` does -- the same IEEE operations
    in the same order, and libm's ``math.sin`` -- without the two method
    calls per lane.  Any other source (:class:`MultiToneVibrationSource`,
    a user function) is called per lane, as :func:`batch_acceleration`
    calls it.  Either way every value is bitwise its scalar call.
    """

    def __init__(self, sources: Sequence[Callable[[float], float]]) -> None:
        self._sources = list(sources)
        self._segments = [_table_segments(source) for source in self._sources]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Every lane's base acceleration, lane ``i`` at ``t[i]``."""
        values = []
        for source, segments, t_i in zip(self._sources, self._segments, t.tolist()):
            if segments is None:
                values.append(float(source(t_i)))
                continue
            current = segments[0]
            for segment in segments:
                if segment[0] <= t_i:
                    current = segment
                else:
                    break
            t_start, omega, amp, phase = current
            values.append(amp * math.sin(phase + omega * (t_i - t_start)))
        return np.array(values)


def _table_segments(
    source: Callable[[float], float]
) -> Optional[List[Tuple[float, float, float, float]]]:
    """``(start, 2 * pi * frequency, amplitude, phase)`` of each segment of
    a :meth:`VibrationSource.acceleration` source, or ``None`` for any
    other callable."""
    owner = getattr(source, "__self__", None)
    if (
        not isinstance(owner, VibrationSource)
        or getattr(source, "__func__", None) is not VibrationSource.acceleration
        or type(owner)._segment_at is not VibrationSource._segment_at
    ):
        return None
    # ``2.0 * math.pi * freq`` is the product ``acceleration`` forms first
    return [
        (t_start, 2.0 * math.pi * freq, amp, phase)
        for t_start, freq, amp, phase in owner._segments
    ]


@dataclass(frozen=True)
class FrequencyStep:
    """A scheduled change of the ambient vibration."""

    time: float
    frequency_hz: float
    amplitude_ms2: Optional[float] = None


class VibrationSource:
    """Single-tone sinusoidal base acceleration with scheduled changes.

    Parameters
    ----------
    frequency_hz:
        Initial ambient frequency.
    amplitude_ms2:
        Acceleration amplitude in m/s^2 (peak).
    steps:
        Optional schedule of :class:`FrequencyStep` changes, applied in time
        order.  Phase is kept continuous across each change.
    """

    def __init__(
        self,
        frequency_hz: float,
        amplitude_ms2: float,
        steps: Optional[Sequence[FrequencyStep]] = None,
    ) -> None:
        if frequency_hz <= 0.0:
            raise ConfigurationError("ambient frequency must be positive")
        if amplitude_ms2 < 0.0:
            raise ConfigurationError("acceleration amplitude must be non-negative")
        self._initial_frequency = float(frequency_hz)
        self._initial_amplitude = float(amplitude_ms2)
        schedule = sorted(steps or [], key=lambda s: s.time)
        for step in schedule:
            if step.time < 0.0:
                raise ConfigurationError("frequency steps must occur at t >= 0")
            if step.frequency_hz <= 0.0:
                raise ConfigurationError("stepped frequency must be positive")
        self._steps: List[FrequencyStep] = list(schedule)
        # precompute segment boundaries with accumulated phase for continuity
        self._segments = self._build_segments()

    def _build_segments(self) -> List[Tuple[float, float, float, float]]:
        """Return segments as ``(t_start, frequency, amplitude, phase_at_start)``."""
        segments: List[Tuple[float, float, float, float]] = []
        t_prev = 0.0
        freq = self._initial_frequency
        amp = self._initial_amplitude
        phase = 0.0
        segments.append((t_prev, freq, amp, phase))
        for step in self._steps:
            # accumulate phase up to the step time with the old frequency
            phase = phase + 2.0 * math.pi * freq * (step.time - t_prev)
            t_prev = step.time
            freq = step.frequency_hz
            if step.amplitude_ms2 is not None:
                amp = step.amplitude_ms2
            segments.append((t_prev, freq, amp, phase))
        return segments

    def _segment_at(self, t: float) -> Tuple[float, float, float, float]:
        current = self._segments[0]
        for segment in self._segments:
            if segment[0] <= t:
                current = segment
            else:
                break
        return current

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #
    def frequency(self, t: float) -> float:
        """Instantaneous ambient frequency in Hz at time ``t``."""
        return self._segment_at(t)[1]

    def frequencies(self, times: np.ndarray) -> np.ndarray:
        """:meth:`frequency` at each of ``times``, in one segment lookup."""
        starts = np.array([segment[0] for segment in self._segments])
        values = np.array([segment[1] for segment in self._segments])
        index = np.searchsorted(starts, times, side="right") - 1
        # times before the first segment read it, as ``_segment_at`` does
        return values[np.maximum(index, 0)]

    def amplitude(self, t: float) -> float:
        """Instantaneous acceleration amplitude (m/s^2) at time ``t``."""
        return self._segment_at(t)[2]

    def acceleration(self, t: float) -> float:
        """Base acceleration ``a(t)`` in m/s^2 (phase-continuous)."""
        t_start, freq, amp, phase = self._segment_at(t)
        return amp * math.sin(phase + 2.0 * math.pi * freq * (t - t_start))

    def step_times(self) -> List[float]:
        """Times at which the ambient excitation changes."""
        return [step.time for step in self._steps]

    def __call__(self, t: float) -> float:
        return self.acceleration(t)


class MultiToneVibrationSource:
    """Superposition of several sinusoidal tones (broadband-ish ambient).

    Useful for the design-exploration example: real environments rarely
    contain a single clean tone, and the tuning controller must lock onto
    the dominant one.
    """

    def __init__(self, tones: Sequence[Tuple[float, float]]) -> None:
        """``tones`` is a sequence of ``(frequency_hz, amplitude_ms2)`` pairs."""
        if not tones:
            raise ConfigurationError("at least one tone is required")
        for freq, amp in tones:
            if freq <= 0.0:
                raise ConfigurationError("tone frequency must be positive")
            if amp < 0.0:
                raise ConfigurationError("tone amplitude must be non-negative")
        self._tones = [(float(f), float(a)) for f, a in tones]

    @property
    def tones(self) -> List[Tuple[float, float]]:
        """The ``(frequency, amplitude)`` pairs of this source."""
        return list(self._tones)

    def dominant_frequency(self) -> float:
        """Frequency of the strongest tone (what a tuner should target)."""
        return max(self._tones, key=lambda tone: tone[1])[0]

    def frequency(self, t: float) -> float:
        """Report the dominant frequency (time-invariant for this source)."""
        return self.dominant_frequency()

    def amplitude(self, t: float) -> float:
        """Amplitude of the dominant tone."""
        return max(self._tones, key=lambda tone: tone[1])[1]

    def acceleration(self, t: float) -> float:
        """Sum of all tones at time ``t``."""
        return sum(
            amp * math.sin(2.0 * math.pi * freq * t) for freq, amp in self._tones
        )

    def __call__(self, t: float) -> float:
        return self.acceleration(t)
