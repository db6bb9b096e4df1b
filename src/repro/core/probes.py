"""Recording probes with a column or model form.

A probe is any callable ``probe(t, x, y) -> float`` handed to a solver's
``add_probe``.  Every state-space solver — the scalar solver, the
Newton-Raphson and reference baselines and each batched lane — records
through one :class:`~repro.core.results.ColumnRecorder`, which knows two
further forms and calls neither of them per row:

* a :class:`ColumnProbe` maps one lane's recorded ``(times, states,
  nets)`` columns to its whole trace in one call, when the run (or lane)
  finishes;
* a :class:`ModelProbe` reads a model quantity (a block attribute) that
  only a digital activation can change, so the recorder samples it at
  the start and after each digital activation and every recorded row
  reads the latest sample.

Any other callable is a row probe, called at every recorded row.  Each
form's column values are bitwise its row-wise values, and each keeps the
row-wise ``__call__``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "ColumnProbe",
    "ModelProbe",
    "PowerProbe",
    "ProbeFn",
    "SourceFrequencyProbe",
    "StateProbe",
    "TerminalProbe",
]

#: Signature of a row probe: ``probe(t, x_global, y_global) -> float``.
ProbeFn = Callable[[float, np.ndarray, np.ndarray], float]


class ColumnProbe:
    """A probe whose trace is one function of a lane's recorded columns."""

    __slots__ = ()

    def columns(
        self, times: np.ndarray, states: np.ndarray, nets: np.ndarray
    ) -> np.ndarray:
        """The probe at every recorded row: ``times`` is ``(rows,)``,
        ``states`` ``(rows, n)`` and ``nets`` ``(rows, m)``."""
        raise NotImplementedError


class TerminalProbe(ColumnProbe):
    """The value of global net ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return float(y[self.index])

    def columns(self, times, states, nets):
        return nets[:, self.index]


class PowerProbe(ColumnProbe):
    """The product of two global nets (a voltage and a current)."""

    __slots__ = ("voltage", "current")

    def __init__(self, voltage: int, current: int) -> None:
        self.voltage = voltage
        self.current = current

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return float(y[self.voltage] * y[self.current])

    def columns(self, times, states, nets):
        return nets[:, self.voltage] * nets[:, self.current]


class StateProbe(ColumnProbe):
    """The value of global state ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return float(x[self.index])

    def columns(self, times, states, nets):
        return states[:, self.index]


class SourceFrequencyProbe(ColumnProbe):
    """The excitation source's instantaneous frequency ``frequency(t)``.

    A source with a vectorised ``frequencies(times)`` (such as
    :class:`~repro.blocks.vibration.VibrationSource`) serves the column in
    one lookup; any other source is called once per recorded row.
    """

    __slots__ = ("source",)

    def __init__(self, source) -> None:
        self.source = source

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.source.frequency(t))

    def columns(self, times, states, nets):
        frequencies = getattr(self.source, "frequencies", None)
        if frequencies is not None:
            return frequencies(times)
        return np.array([float(self.source.frequency(t)) for t in times.tolist()])


class ModelProbe:
    """A float attribute of a model object, e.g. a block's tuned frequency.

    Contract: the attribute changes only inside a digital activation (a
    controller's write or its own bookkeeping), never while the analogue
    model marches.
    """

    __slots__ = ("owner", "attr")

    def __init__(self, owner: object, attr: str) -> None:
        self.owner = owner
        self.attr = attr

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> float:
        return float(getattr(self.owner, self.attr))
