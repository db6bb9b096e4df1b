"""The exploration-strategy protocol: budgeted search over a design grid.

The paper motivates fast simulation with automated design-space
exploration, and until this layer existed the repo could only spend its
simulation budget one way: the dense cartesian grid hard-wired into
:class:`~repro.analysis.sweep.ParameterSweep`.  An
:class:`ExplorationStrategy` makes candidate *generation* a first-class,
pluggable axis, mirroring what :mod:`repro.api.planner` did for candidate
*execution*: the sweep engine drives any strategy through one round-based
protocol and its one lane-packing dispatch (lane blocks over worker
processes), checkpointing and the per-candidate result cache compose
unchanged.

The protocol is deliberately tiny:

* :meth:`~ExplorationStrategy.propose` — the candidates of one round,
  each a :class:`Proposal` carrying the grid-point parameters plus a
  *horizon* (the fraction of the scenario duration to simulate; 1.0 is a
  full-length run, successive halving spends short horizons early);
* :meth:`~ExplorationStrategy.observe` — the scores of the round just
  evaluated, as :class:`Observation` records in proposal order;
* :meth:`~ExplorationStrategy.done` — whether the search is finished.

Strategies must be **deterministic given their configuration and the
observed scores**: the engine's checkpoint resume replays rounds from
recorded scores, and the content-addressed result cache assumes a seeded
strategy re-proposes the exact same candidates.  Anything random must
flow from an explicit ``seed``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError

__all__ = [
    "Proposal",
    "Observation",
    "RoundPlan",
    "ExplorationStrategy",
    "ExplorationRoundRecord",
    "ExplorationRun",
    "grid_candidates",
    "grid_size",
]


@dataclass(frozen=True)
class Proposal:
    """One candidate a strategy wants evaluated.

    ``horizon`` scales the scenario duration (1.0 = the full run); the
    engine simulates ``scenario.scaled(duration_s * horizon)`` and the
    resulting short-horizon score is what the strategy observes.
    """

    parameters: Mapping[str, object]
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ConfigurationError("a proposal needs at least one parameter")
        if not 0.0 < self.horizon <= 1.0:
            raise ConfigurationError(
                f"proposal horizon must be in (0, 1], got {self.horizon}"
            )


@dataclass(frozen=True)
class Observation:
    """The evaluated score of one proposal (fed back via ``observe``)."""

    parameters: Mapping[str, object]
    horizon: float
    score: float


@dataclass(frozen=True)
class RoundPlan:
    """Static preview of one planned round (for inspectable plans)."""

    n_candidates: int
    horizon: float

    def describe(self) -> str:
        if self.horizon >= 1.0:
            return f"{self.n_candidates} full-horizon"
        return f"{self.n_candidates} @ {self.horizon:.3g}x horizon"


class ExplorationStrategy:
    """Base class of every candidate-generation strategy.

    Subclasses implement :meth:`propose` / :meth:`observe` / :meth:`done`
    (and usually :meth:`schedule`).  ``name`` identifies the strategy in
    options, specs and reports.
    """

    #: registry name (``RunOptions(explore=...)`` value)
    name: str = ""

    def propose(self, round_index: int) -> List[Proposal]:
        """The candidates of round ``round_index`` (empty when exhausted)."""
        raise NotImplementedError

    def observe(self, observations: Sequence[Observation]) -> None:
        """Feed back the scores of the round just proposed."""
        raise NotImplementedError

    def done(self) -> bool:
        """Whether the search is finished (no further rounds)."""
        raise NotImplementedError

    def schedule(self) -> Optional[List[RoundPlan]]:
        """Planned rounds, when statically known (``None`` otherwise)."""
        return None

    def fingerprint(self) -> Optional[Dict[str, object]]:
        """Checkpoint-identity record of this strategy's configuration.

        ``None`` means "legacy grid-compatible": the engine then writes
        exactly the checkpoint metadata a plain dense sweep writes, so
        grid exploration resumes pre-existing dense-sweep checkpoints
        (and vice versa).  Every other strategy must return a dict naming
        its configuration — resuming a checkpoint against a *different*
        search raises instead of stitching scores into the wrong rounds.
        """
        return {"strategy": self.name}


# ---------------------------------------------------------------------- #
# the one grid enumeration (extracted from ParameterSweep.candidates)
# ---------------------------------------------------------------------- #
def grid_candidates(
    parameters: Mapping[str, Sequence[object]],
) -> Iterator[Dict[str, object]]:
    """Enumerate the full cartesian grid in axis-insertion order.

    This is *the* canonical enumeration order of the codebase — the
    legacy :meth:`ParameterSweep.candidates` delegates here, candidate
    indices in checkpoints refer to it, and :class:`GridStrategy`
    proposes it verbatim (the byte-identity contract of the refactor).
    """
    names = list(parameters)
    for combination in itertools.product(*(parameters[n] for n in names)):
        yield dict(zip(names, combination))


def grid_size(parameters: Mapping[str, Sequence[object]]) -> int:
    """Number of points in the full cartesian grid."""
    size = 1
    for values in parameters.values():
        size *= len(values)
    return size


# ---------------------------------------------------------------------- #
# what an exploration run produces (assembled by the sweep engine)
# ---------------------------------------------------------------------- #
@dataclass
class ExplorationRoundRecord:
    """Bookkeeping of one evaluated round."""

    index: int
    horizon: float
    #: evaluated points of this round, in proposal order
    points: List[object] = field(default_factory=list)
    n_evaluated: int = 0
    n_cache_hits: int = 0
    n_resumed: int = 0


@dataclass
class ExplorationRun:
    """Everything one exploration run produced (the engine's raw output).

    ``final`` is a :class:`~repro.analysis.sweep.SweepResult` holding the
    *full-horizon* points only (short-horizon screening scores live in
    ``rounds``), so ``final.best()`` is always a score comparable to a
    dense sweep's.  ``work_units`` measures simulation work in
    full-candidate-equivalents: a candidate simulated at horizon ``h``
    costs ``h`` units, cache hits and checkpoint resumes cost nothing —
    ``work_units / full_grid_work`` is the headline budget fraction the
    explore benchmark asserts.
    """

    strategy: str
    final: object  # SweepResult
    rounds: List[ExplorationRoundRecord]
    #: parameters of the candidates still alive after the last round
    survivors: List[Dict[str, object]]
    n_candidates: int
    n_simulations: int
    n_cache_hits: int
    n_resumed: int
    work_units: float
    full_grid_work: float

    @property
    def work_fraction(self) -> float:
        """Simulation work spent, as a fraction of the dense full grid."""
        if self.full_grid_work <= 0:
            return 0.0
        return self.work_units / self.full_grid_work
