"""Strategy-layer unit tests: enumeration, sampling, halving schedules.

No simulations here — these pin the pure search behaviour every
strategy must honour: the canonical grid enumeration order, seeded
determinism of the samplers, the halving schedule arithmetic and the
round protocol (strict ordering, observation counts, survivors).
"""

import itertools

import pytest

from repro.core.errors import ConfigurationError
from repro.explore import (
    EXPLORE_STRATEGIES,
    GridStrategy,
    LatinHypercubeStrategy,
    Observation,
    Proposal,
    RandomStrategy,
    SuccessiveHalvingStrategy,
    grid_candidates,
    grid_size,
    make_strategy,
)

AXES = {"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0]}


def observe_all(strategy, proposals, scores):
    strategy.observe(
        [
            Observation(parameters=p.parameters, horizon=p.horizon, score=s)
            for p, s in zip(proposals, scores)
        ]
    )


# ---------------------------------------------------------------------- #
# the canonical enumeration
# ---------------------------------------------------------------------- #
def test_grid_candidates_match_the_legacy_itertools_product():
    names = list(AXES)
    legacy = [
        dict(zip(names, combo))
        for combo in itertools.product(*(AXES[n] for n in names))
    ]
    assert list(grid_candidates(AXES)) == legacy
    assert grid_size(AXES) == len(legacy) == 6


def test_parameter_sweep_candidates_delegate_to_grid_candidates():
    from repro import charging_scenario
    from repro.analysis.sweep import ParameterSweep

    sweep = ParameterSweep(
        charging_scenario(duration_s=0.05),
        {"excitation_frequency_hz": [66.0, 70.0], "excitation_amplitude_ms2": [0.3]},
    )
    assert list(sweep.candidates()) == list(grid_candidates(sweep.parameters))


# ---------------------------------------------------------------------- #
# grid / extend
# ---------------------------------------------------------------------- #
def test_grid_strategy_proposes_the_dense_grid_once_at_full_horizon():
    strategy = GridStrategy(AXES)
    assert not strategy.done()
    proposals = strategy.propose(0)
    assert [dict(p.parameters) for p in proposals] == list(grid_candidates(AXES))
    assert all(p.horizon == 1.0 for p in proposals)
    observe_all(strategy, proposals, range(len(proposals)))
    assert strategy.done()
    assert strategy.propose(1) == []


# ---------------------------------------------------------------------- #
# seeded samplers
# ---------------------------------------------------------------------- #
def test_random_strategy_is_deterministic_per_seed():
    first = RandomStrategy(AXES, budget=4, seed=42).propose(0)
    second = RandomStrategy(AXES, budget=4, seed=42).propose(0)
    assert [dict(p.parameters) for p in first] == [
        dict(p.parameters) for p in second
    ]
    assert len(first) == 4


def test_random_strategy_emits_candidates_in_enumeration_order():
    grid = list(grid_candidates(AXES))
    proposals = RandomStrategy(AXES, budget=4, seed=7).propose(0)
    indices = [grid.index(dict(p.parameters)) for p in proposals]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_random_strategy_caps_the_budget_at_the_grid_size():
    proposals = RandomStrategy(AXES, budget=50, seed=0).propose(0)
    assert [dict(p.parameters) for p in proposals] == list(grid_candidates(AXES))


def test_latin_strategy_covers_every_axis_level_once():
    axes = {"x": [1.0, 2.0, 3.0, 4.0], "y": [5.0, 6.0, 7.0, 8.0]}
    proposals = LatinHypercubeStrategy(axes, budget=4, seed=3).propose(0)
    assert len(proposals) == 4
    for name in axes:
        covered = sorted(p.parameters[name] for p in proposals)
        assert covered == axes[name]


def test_samplers_require_budget_and_seed():
    with pytest.raises(ConfigurationError, match="needs a budget"):
        RandomStrategy(AXES, seed=1)
    with pytest.raises(ConfigurationError, match="needs a seed"):
        RandomStrategy(AXES, budget=3)
    with pytest.raises(ConfigurationError, match="budget must be at least 1"):
        LatinHypercubeStrategy(AXES, budget=0, seed=1)


def test_sampler_is_a_single_round():
    strategy = RandomStrategy(AXES, budget=3, seed=1)
    proposals = strategy.propose(0)
    assert not strategy.done()
    observe_all(strategy, proposals, range(len(proposals)))
    assert strategy.done()
    assert strategy.propose(1) == []


# ---------------------------------------------------------------------- #
# successive halving
# ---------------------------------------------------------------------- #
def test_halving_schedule_16_candidates_eta_3():
    strategy = SuccessiveHalvingStrategy({"x": [float(i) for i in range(16)]})
    assert strategy.counts == [16, 6, 2]
    assert strategy.horizons == [1.0 / 9.0, 1.0 / 3.0, 1.0]
    plans = strategy.schedule()
    assert [plan.n_candidates for plan in plans] == [16, 6, 2]
    assert [plan.horizon for plan in plans] == strategy.horizons
    # the geometric schedule spends well under half the dense-grid work
    work = sum(c * h for c, h in zip(strategy.counts, strategy.horizons))
    assert work / 16.0 < 0.5


def test_halving_eliminates_on_scores_and_reranks_the_final_round():
    strategy = SuccessiveHalvingStrategy({"x": [0.0, 1.0, 2.0, 3.0]}, eta=2)
    assert strategy.counts == [4, 2, 1]
    assert strategy.horizons == [0.25, 0.5, 1.0]

    round0 = strategy.propose(0)
    assert [p.parameters["x"] for p in round0] == [0.0, 1.0, 2.0, 3.0]
    observe_all(strategy, round0, [1.0, 4.0, 2.0, 3.0])

    round1 = strategy.propose(1)  # survivors, back in enumeration order
    assert [p.parameters["x"] for p in round1] == [1.0, 3.0]
    assert all(p.horizon == 0.5 for p in round1)
    observe_all(strategy, round1, [5.0, 9.0])

    round2 = strategy.propose(2)
    assert [p.parameters["x"] for p in round2] == [3.0]
    assert round2[0].horizon == 1.0
    observe_all(strategy, round2, [7.0])

    assert strategy.done()
    assert strategy.survivors() == [{"x": 3.0}]


def test_halving_rounds_are_strictly_ordered():
    strategy = SuccessiveHalvingStrategy({"x": [0.0, 1.0, 2.0, 3.0]}, eta=2)
    with pytest.raises(ConfigurationError, match="strictly round-ordered"):
        strategy.propose(1)


def test_halving_observation_count_mismatch_raises():
    strategy = SuccessiveHalvingStrategy({"x": [0.0, 1.0, 2.0, 3.0]}, eta=2)
    proposals = strategy.propose(0)
    with pytest.raises(ConfigurationError, match="observed"):
        observe_all(strategy, proposals[:2], [1.0, 2.0])


def test_halving_seeded_pool_matches_the_random_sampler():
    axes = {"x": [float(i) for i in range(10)]}
    halving = SuccessiveHalvingStrategy(axes, budget=4, seed=3)
    sampled = RandomStrategy(axes, budget=4, seed=3).propose(0)
    assert [dict(p.parameters) for p in halving.propose(0)] == [
        dict(p.parameters) for p in sampled
    ]


def test_halving_rejects_seed_without_a_sub_grid_budget():
    with pytest.raises(ConfigurationError, match="sub-grid budget"):
        SuccessiveHalvingStrategy(AXES, seed=1)
    with pytest.raises(ConfigurationError, match="sub-grid budget"):
        SuccessiveHalvingStrategy(AXES, budget=6, seed=1)  # == grid size


def test_halving_validates_eta_and_min_horizon():
    with pytest.raises(ConfigurationError, match="eta"):
        SuccessiveHalvingStrategy(AXES, eta=1)
    with pytest.raises(ConfigurationError, match="min_horizon"):
        SuccessiveHalvingStrategy(AXES, min_horizon=0.0)


def test_min_horizon_caps_the_schedule_depth():
    # 81 candidates at eta=3 would want horizons 1/27..1, but the floor
    # at 1/9 trims the schedule to three rounds
    axes = {"x": [float(i) for i in range(81)]}
    strategy = SuccessiveHalvingStrategy(axes, min_horizon=1.0 / 9.0)
    assert strategy.horizons[0] >= 1.0 / 9.0
    assert strategy.horizons[-1] == 1.0


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
def test_make_strategy_builds_every_registered_name():
    for name in EXPLORE_STRATEGIES:
        kwargs = {}
        if name in ("random", "latin"):
            kwargs = {"budget": 3, "seed": 1}
        strategy = make_strategy(name, AXES, **kwargs)
        assert strategy.name == name


def test_make_strategy_rejects_unknown_names_listing_the_registry():
    with pytest.raises(ConfigurationError, match="halving"):
        make_strategy("annealing", AXES)


def test_make_strategy_rejects_budget_and_seed_on_dense_grids():
    with pytest.raises(ConfigurationError, match="budget"):
        make_strategy("grid", AXES, budget=3)
    with pytest.raises(ConfigurationError, match="seed"):
        make_strategy("extend", AXES, seed=1)


def test_proposal_validates_its_horizon():
    with pytest.raises(ConfigurationError, match="horizon"):
        Proposal(parameters={"x": 1.0}, horizon=0.0)
    with pytest.raises(ConfigurationError, match="horizon"):
        Proposal(parameters={"x": 1.0}, horizon=1.5)
