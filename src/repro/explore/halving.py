"""Successive halving: kill weak candidates early on short-horizon scores.

The classic budgeted-search schedule (Jamieson & Talwalkar; the backbone
of Hyperband): start with the whole candidate pool simulated at a short
horizon — a fraction of the scenario duration, which the engine realises
through ``scenario.scaled(...)`` — rank the round's scores, keep the top
``1/eta``, multiply the horizon by ``eta`` and repeat until the survivors
run at full horizon.  Total work is a geometric series instead of
``n_candidates`` full simulations: for 16 candidates at ``eta=3`` the
schedule is ``16 @ 1/9 → 6 @ 1/3 → 2 @ 1.0`` ≈ 36 % of the dense grid.

Short-horizon scores are *screening* scores: ranking by them assumes a
candidate that harvests poorly early keeps harvesting poorly.  The final
round always re-scores the survivors at full horizon, so the winner's
reported score is a true full-length score (comparable to, and cached
interchangeably with, a dense sweep's).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError
from .base import (
    ExplorationStrategy,
    Observation,
    Proposal,
    RoundPlan,
    grid_candidates,
    grid_size,
)
from .sampling import RandomStrategy

__all__ = ["SuccessiveHalvingStrategy"]


class SuccessiveHalvingStrategy(ExplorationStrategy):
    """Round-based elimination over the grid (or a seeded random subset).

    Parameters
    ----------
    parameters:
        The sweep axes (same mapping as the dense grid).
    budget:
        Optional initial-pool size.  ``None`` starts from the full grid;
        a value below the grid size starts from a seeded random subset
        (``seed`` then required, exactly as for ``explore="random"``).
    seed:
        Seed for the initial-pool subsample (only meaningful with
        ``budget``; rejected otherwise so a no-op knob can't look
        load-bearing).
    eta:
        Elimination factor: each round keeps ``ceil(n / eta)`` candidates
        and multiplies the horizon by ``eta``.
    min_horizon:
        Floor on the first round's horizon fraction — very short runs
        score mostly transient behaviour, so the schedule depth is capped
        rather than letting a huge pool push the first horizon toward 0.
    """

    name = "halving"

    def __init__(
        self,
        parameters: Mapping[str, Sequence[object]],
        *,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        eta: int = 3,
        min_horizon: float = 1.0 / 16.0,
    ) -> None:
        if not parameters:
            raise ConfigurationError("at least one swept parameter is required")
        self.parameters = {name: list(values) for name, values in parameters.items()}
        for name, values in self.parameters.items():
            if not values:
                raise ConfigurationError(f"parameter {name!r} has no values to sweep")
        if int(eta) < 2:
            raise ConfigurationError(f"halving eta must be at least 2, got {eta}")
        if not 0.0 < min_horizon <= 1.0:
            raise ConfigurationError(
                f"min_horizon must be in (0, 1], got {min_horizon}"
            )
        self.eta = int(eta)
        self.min_horizon = float(min_horizon)
        self.budget = None if budget is None else int(budget)
        self.seed = None if seed is None else int(seed)

        size = grid_size(self.parameters)
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError(f"budget must be at least 1, got {budget}")
        if self.budget is not None and self.budget < size:
            # a random initial pool rides the same seeded sampler as
            # explore="random", so the subset is reproducible
            pool = RandomStrategy(
                self.parameters, budget=self.budget, seed=self.seed
            )._candidates
        else:
            if self.seed is not None:
                raise ConfigurationError(
                    "incoherent exploration: seed without a sub-grid budget "
                    "— successive halving over the full grid is "
                    "deterministic; drop seed or pass budget < grid size"
                )
            pool = list(grid_candidates(self.parameters))
        self._pool: List[Dict[str, object]] = pool

        n0 = len(pool)
        n_rounds = 1
        while self.eta**n_rounds <= n0:
            n_rounds += 1
        max_depth = 0
        while (self.eta ** (max_depth + 1)) * self.min_horizon <= 1.0 + 1e-12:
            max_depth += 1
        n_rounds = min(n_rounds, max_depth + 1)
        self.n_rounds = n_rounds
        self.horizons: List[float] = [
            float(self.eta) ** (k - (n_rounds - 1)) for k in range(n_rounds)
        ]
        self.counts: List[int] = [
            max(1, -(-n0 // self.eta**k)) for k in range(n_rounds)
        ]
        self._round = 0
        self._ranked_final: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    def propose(self, round_index: int) -> List[Proposal]:
        if round_index != self._round:
            raise ConfigurationError(
                f"halving proposals are strictly round-ordered: asked for "
                f"round {round_index}, current round is {self._round}"
            )
        if self.done():
            return []
        horizon = self.horizons[self._round]
        return [
            Proposal(parameters=candidate, horizon=horizon)
            for candidate in self._pool
        ]

    def observe(self, observations: Sequence[Observation]) -> None:
        if len(observations) != len(self._pool):
            raise ConfigurationError(
                f"halving round {self._round} proposed {len(self._pool)} "
                f"candidates but observed {len(observations)} scores"
            )
        # rank by score, ties broken by pool (enumeration) order
        order = sorted(
            range(len(observations)),
            key=lambda i: (-float(observations[i].score), i),
        )
        last_round = self._round == self.n_rounds - 1
        if last_round:
            self._ranked_final = [self._pool[i] for i in order]
        else:
            keep = self.counts[self._round + 1]
            kept = sorted(order[:keep])  # back to enumeration order
            self._pool = [self._pool[i] for i in kept]
        self._round += 1

    def done(self) -> bool:
        return self._round >= self.n_rounds

    def schedule(self) -> List[RoundPlan]:
        return [
            RoundPlan(n_candidates=count, horizon=horizon)
            for count, horizon in zip(self.counts, self.horizons)
        ]

    def survivors(self) -> List[Dict[str, object]]:
        """Final-round candidates, best full-horizon score first."""
        return [dict(candidate) for candidate in self._ranked_final]
