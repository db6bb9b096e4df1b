"""Dense-grid strategies: the legacy enumeration, and grid *extension*.

:class:`GridStrategy` is the refactor's equivalence contract: one round,
every cartesian grid point at full horizon, in exactly the enumeration
order the historical ``ParameterSweep.candidates()`` produced — running
it through the engine's round loop is byte-identical to the legacy dense
path at every lane width and worker count.

:class:`GridExtensionStrategy` (``explore="extend"``) is the same
enumeration with a different contract: the grid is a *superset* of one
already swept, and every previously simulated point is served straight
from the per-candidate content-addressed cache (the cache keys digest the
candidate scenario + execution fingerprint, so a subset run's entries are
inherited with no extra machinery).  Requiring ``cache != "off"`` is
enforced at the options layer — extension without a cache would silently
re-simulate everything.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from ..core.errors import ConfigurationError
from .base import (
    ExplorationStrategy,
    Observation,
    Proposal,
    RoundPlan,
    grid_candidates,
    grid_size,
)

__all__ = ["GridStrategy", "GridExtensionStrategy"]


class GridStrategy(ExplorationStrategy):
    """Every grid point, one full-horizon round (the legacy dense sweep)."""

    name = "grid"

    def __init__(self, parameters: Mapping[str, Sequence[object]]) -> None:
        if not parameters:
            raise ConfigurationError("at least one swept parameter is required")
        self.parameters = {name: list(values) for name, values in parameters.items()}
        for name, values in self.parameters.items():
            if not values:
                raise ConfigurationError(
                    f"parameter {name!r} has no values to sweep"
                )
        self._observed = False

    def propose(self, round_index: int) -> List[Proposal]:
        if round_index > 0 or self._observed:
            return []
        return [
            Proposal(parameters=candidate)
            for candidate in grid_candidates(self.parameters)
        ]

    def observe(self, observations: Sequence[Observation]) -> None:
        self._observed = True

    def done(self) -> bool:
        return self._observed

    def schedule(self) -> List[RoundPlan]:
        return [RoundPlan(n_candidates=grid_size(self.parameters), horizon=1.0)]


class GridExtensionStrategy(GridStrategy):
    """A superset grid whose inherited points come from the result cache.

    Functionally identical to :class:`GridStrategy` — the enumeration
    covers the *whole* (extended) grid — but declared as its own strategy
    so the intent is visible in specs/reports and the options layer can
    require a cache mode (``cache="read"``/``"readwrite"``): candidates
    already simulated by the subset sweep are cache hits, only the new
    points cost simulation work.
    """

    name = "extend"
