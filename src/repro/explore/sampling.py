"""Sampling strategies: seeded random and latin-hypercube subsets.

Both spend a fixed ``budget`` of full-horizon simulations on a subset of
the grid instead of enumerating all of it.  Determinism is part of the
contract: the ``seed`` is required, all randomness flows through one
``random.Random(seed)`` (whose sequence is platform- and
process-independent), and the chosen candidates are emitted in canonical
grid-enumeration order — so a re-run, a worker process and a resumed
sweep all agree on the candidate list, and the seed folded into the
execution fingerprint (:func:`repro.api.options.execution_fingerprint`)
makes cached sampled runs reproducible by construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError
from .base import (
    ExplorationStrategy,
    Observation,
    Proposal,
    RoundPlan,
    grid_size,
)

__all__ = ["RandomStrategy", "LatinHypercubeStrategy"]


def _check_grid(parameters: Mapping[str, Sequence[object]]) -> Dict[str, list]:
    if not parameters:
        raise ConfigurationError("at least one swept parameter is required")
    grid = {name: list(values) for name, values in parameters.items()}
    for name, values in grid.items():
        if not values:
            raise ConfigurationError(f"parameter {name!r} has no values to sweep")
    return grid


def _check_sampling_config(name: str, budget: Optional[int], seed: Optional[int]):
    if budget is None:
        raise ConfigurationError(
            f"explore={name!r} needs a budget — the number of grid points "
            "to sample; pass RunOptions(budget=...)"
        )
    if budget < 1:
        raise ConfigurationError(f"budget must be at least 1, got {budget}")
    if seed is None:
        raise ConfigurationError(
            f"explore={name!r} needs a seed — sampled candidate sets must "
            "be reproducible (the seed is part of the execution "
            "fingerprint); pass RunOptions(seed=...)"
        )


def _decode_index(grid: Dict[str, list], index: int) -> Dict[str, object]:
    """The grid point at enumeration-order ``index`` (mixed-radix decode)."""
    names = list(grid)
    sizes = [len(grid[name]) for name in names]
    digits: List[int] = []
    for size in reversed(sizes):
        digits.append(index % size)
        index //= size
    digits.reverse()
    return {name: grid[name][digit] for name, digit in zip(names, digits)}


def _encode_candidate(grid: Dict[str, list], candidate: Mapping[str, object]) -> int:
    """Enumeration-order index of a grid point (inverse of ``_decode_index``)."""
    index = 0
    for name, values in grid.items():
        index = index * len(values) + values.index(candidate[name])
    return index


class _SingleRoundSampler(ExplorationStrategy):
    """Shared shape of the one-round sampling strategies."""

    def __init__(
        self,
        parameters: Mapping[str, Sequence[object]],
        *,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.parameters = _check_grid(parameters)
        _check_sampling_config(self.name, budget, seed)
        self.budget = int(budget)
        self.seed = int(seed)
        self._candidates = self._sample()
        self._observed = False

    def _sample(self) -> List[Dict[str, object]]:
        raise NotImplementedError

    def propose(self, round_index: int) -> List[Proposal]:
        if round_index > 0 or self._observed:
            return []
        return [Proposal(parameters=candidate) for candidate in self._candidates]

    def observe(self, observations: Sequence[Observation]) -> None:
        self._observed = True

    def done(self) -> bool:
        return self._observed

    def schedule(self) -> List[RoundPlan]:
        return [RoundPlan(n_candidates=len(self._candidates), horizon=1.0)]


class RandomStrategy(_SingleRoundSampler):
    """``budget`` distinct grid points, drawn uniformly without replacement.

    The budget is capped at the grid size (a budget covering the whole
    grid degenerates to the dense sweep).  Candidates are emitted in
    canonical enumeration order, so only *which* points run depends on
    the seed — never their ordering.
    """

    name = "random"

    def _sample(self) -> List[Dict[str, object]]:
        size = grid_size(self.parameters)
        k = min(self.budget, size)
        rng = random.Random(self.seed)
        indices = sorted(rng.sample(range(size), k))
        return [_decode_index(self.parameters, index) for index in indices]


class LatinHypercubeStrategy(_SingleRoundSampler):
    """Stratified sampling: every axis is covered evenly across the budget.

    Classic latin-hypercube on the discrete grid levels: each axis's
    value indices are stratified over ``budget`` bins and independently
    shuffled, then the columns are zipped into candidates.  Duplicate
    grid points (possible when an axis has fewer values than the budget)
    are dropped, so the realised candidate count can be *below* the
    budget — the strategy reports what it actually proposes via
    :meth:`schedule`.
    """

    name = "latin"

    def _sample(self) -> List[Dict[str, object]]:
        n = min(self.budget, grid_size(self.parameters))
        rng = random.Random(self.seed)
        columns: Dict[str, List[int]] = {}
        for name, values in self.parameters.items():
            m = len(values)
            column = [(i * m) // n for i in range(n)]
            rng.shuffle(column)
            columns[name] = column
        seen = set()
        candidates: List[Dict[str, object]] = []
        for row in range(n):
            candidate = {
                name: self.parameters[name][columns[name][row]]
                for name in self.parameters
            }
            key = _encode_candidate(self.parameters, candidate)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(candidate)
        candidates.sort(key=lambda c: _encode_candidate(self.parameters, c))
        return candidates
