"""Pluggable exploration layer: candidate generation as a strategy.

This package is the search-axis counterpart of the execution seam in
:mod:`repro.api.planner`: where the planner decides *how* candidates
run (lane blocks over worker processes), an :class:`ExplorationStrategy` decides
*which* candidates run, round by round.  The sweep engine drives any
strategy through the protocol in :mod:`repro.explore.base`
(``propose(round) -> proposals``, ``observe(scores)``, ``done()``), and
every engine feature — worker processes, batched lanes, checkpoints, the
per-candidate result cache — composes with every strategy unchanged.

Shipped strategies (``RunOptions(explore=...)`` names):

* ``"grid"`` — the legacy dense cartesian sweep, byte-identical to the
  historical ``ParameterSweep`` path (the refactor's equivalence
  contract);
* ``"extend"`` — the same dense enumeration over a *superset* grid, with
  previously swept points served from the content-addressed cache
  (requires ``cache != "off"``);
* ``"random"`` / ``"latin"`` — seeded uniform / latin-hypercube subsets
  of ``budget`` grid points (the seed is folded into the execution
  fingerprint, so sampled runs cache reproducibly);
* ``"halving"`` — successive halving: short-horizon screening rounds
  eliminate weak candidates early, survivors re-score at full horizon.
"""

from typing import Mapping, Optional, Sequence

from ..core.errors import ConfigurationError
from .base import (
    ExplorationRoundRecord,
    ExplorationRun,
    ExplorationStrategy,
    Observation,
    Proposal,
    RoundPlan,
    grid_candidates,
    grid_size,
)
from .grid import GridExtensionStrategy, GridStrategy
from .halving import SuccessiveHalvingStrategy
from .sampling import LatinHypercubeStrategy, RandomStrategy

__all__ = [
    "EXPLORE_STRATEGIES",
    "ExplorationRoundRecord",
    "ExplorationRun",
    "ExplorationStrategy",
    "GridExtensionStrategy",
    "GridStrategy",
    "LatinHypercubeStrategy",
    "Observation",
    "Proposal",
    "RandomStrategy",
    "RoundPlan",
    "SuccessiveHalvingStrategy",
    "grid_candidates",
    "grid_size",
    "make_strategy",
]

#: registry of strategy names accepted by ``RunOptions(explore=...)``
EXPLORE_STRATEGIES = {
    "grid": GridStrategy,
    "extend": GridExtensionStrategy,
    "random": RandomStrategy,
    "latin": LatinHypercubeStrategy,
    "halving": SuccessiveHalvingStrategy,
}


def make_strategy(
    name: str,
    parameters: Mapping[str, Sequence[object]],
    *,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    **strategy_kwargs,
) -> ExplorationStrategy:
    """Build a registered strategy over the given sweep axes.

    ``budget``/``seed`` are forwarded to the strategies that take them;
    passing them to a strategy that doesn't (the dense ``grid``/
    ``extend`` enumerations) raises by name — a silently ignored knob
    would misreport what ran.  Extra keyword arguments reach the strategy
    constructor (e.g. ``eta=`` / ``min_horizon=`` for halving).
    """
    cls = EXPLORE_STRATEGIES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown exploration strategy {name!r}; choose from "
            f"{sorted(EXPLORE_STRATEGIES)}"
        )
    if issubclass(cls, GridStrategy):
        for knob, value in (("budget", budget), ("seed", seed)):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent exploration: {knob}={value!r} with "
                    f"explore={name!r} — the dense enumeration takes no "
                    f"{knob}; drop it or pick a sampling/halving strategy"
                )
        return cls(parameters, **strategy_kwargs)
    return cls(parameters, budget=budget, seed=seed, **strategy_kwargs)
