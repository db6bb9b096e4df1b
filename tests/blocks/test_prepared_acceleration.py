"""The prepared excitation lookup is bitwise the per-lane scalar calls.

``PreparedAcceleration`` hoists each ``VibrationSource.acceleration``
lane's segment table out of the refresh and forms the phase argument
itself; every other callable is still called per lane.  Each value must
be the scalar call's, bit for bit, wherever the lane's clock stands:
before 0, exactly on a step time, just either side of one and between
steps, through amplitude steps and a step at time 0.
"""

import math

import numpy as np
import pytest

from repro.blocks.vibration import (
    FrequencyStep,
    MultiToneVibrationSource,
    PreparedAcceleration,
    VibrationSource,
    batch_acceleration,
)

SOURCES = {
    "one_tone": VibrationSource(70.0, 0.6),
    "frequency_step": VibrationSource(70.0, 0.5, [FrequencyStep(0.2, 71.0)]),
    "amplitude_steps": VibrationSource(
        64.0,
        0.3,
        [
            FrequencyStep(0.01, 78.0, amplitude_ms2=1.2),
            FrequencyStep(0.013, 78.0, amplitude_ms2=0.0),
            FrequencyStep(0.05, 55.5, amplitude_ms2=0.7),
        ],
    ),
    # two steps at one time: the later one wins, as the walk picks it
    "coincident_steps": VibrationSource(
        50.0, 1.0, [FrequencyStep(0.02, 60.0), FrequencyStep(0.02, 61.0, 0.4)]
    ),
    "step_at_zero": VibrationSource(80.0, 0.9, [FrequencyStep(0.0, 82.0, 0.8)]),
}


class _Subclassed(VibrationSource):
    """A subclass with its own segment walk: not tabled, called per lane."""

    def _segment_at(self, t):
        return self._segments[-1]


def _times(source):
    """Times before 0, on and around every step time, and between steps."""
    times = [-1.0, -1e-300, 0.0, 5e-324, 1e-6, 0.0137, 0.1, 0.25, 3.0]
    for step_time in source.step_times():
        times += [
            step_time,
            np.nextafter(step_time, -np.inf),
            np.nextafter(step_time, np.inf),
            step_time + 7.3e-5,
        ]
    return np.array(times)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_each_lane_is_its_scalar_call_bitwise(name):
    source = SOURCES[name]
    times = _times(source)
    prepared = PreparedAcceleration([source.acceleration] * times.size)
    expected = [float(source.acceleration(t)) for t in times.tolist()]
    assert _bits(prepared(times)) == _bits(expected)


def test_lanes_of_different_schedules_in_one_block():
    sources = [SOURCES[name] for name in sorted(SOURCES)]
    rng = np.random.default_rng(4)
    prepared = PreparedAcceleration([source.acceleration for source in sources])
    for _ in range(200):
        times = rng.uniform(-0.01, 0.3, size=len(sources))
        expected = [
            float(source.acceleration(t)) for source, t in zip(sources, times.tolist())
        ]
        assert _bits(prepared(times)) == _bits(expected)
        assert _bits(batch_acceleration(
            [source.acceleration for source in sources], times
        )) == _bits(expected)


def test_other_callables_are_called_per_lane():
    calls = []

    def user_function(t):
        calls.append(t)
        return 0.25 * math.sin(400.0 * t)

    tones = MultiToneVibrationSource([(50.0, 0.1), (70.0, 0.5)])
    subclassed = _Subclassed(70.0, 0.5, [FrequencyStep(0.2, 71.0)])
    stepped = SOURCES["amplitude_steps"]
    sources = [
        tones.acceleration,
        stepped.acceleration,
        user_function,
        subclassed.acceleration,
        stepped,  # the source object itself is a plain callable here
    ]
    prepared = PreparedAcceleration(sources)
    # only the bound VibrationSource.acceleration lane is tabled
    assert [segments is not None for segments in prepared._segments] == [
        False, True, False, False, False,
    ]
    for times in (np.array([0.0137, 0.0125, 0.2, 0.21, -0.5]), np.linspace(-0.1, 0.3, 5)):
        calls.clear()
        expected = [float(source(t)) for source, t in zip(sources, times.tolist())]
        calls.clear()
        assert _bits(prepared(times)) == _bits(expected)
        assert calls == [times[2]]
