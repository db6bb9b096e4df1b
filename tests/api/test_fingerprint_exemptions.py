"""Every ``FINGERPRINT_EXEMPT`` claim is an executable test.

An exempt ``RunOptions`` knob stays out of cache keys on the claim that
it cannot change a result.  Each case below runs a small sweep at two
values of one knob and asserts the per-candidate scores are bitwise
equal.  The test is parametrised over the exemption
table itself, so a new exemption without a case here fails.
"""

import inspect
from dataclasses import fields, replace

import pytest

from repro import RunOptions, Study, charging_scenario, scenario_1
from repro.api import options as options_module
from repro.api.options import FINGERPRINT_EXEMPT, execution_fingerprint
from repro.core import AdamsBashforth, SolverSettings
from repro.harvester.scenarios import scenario_solver_settings

AXES = {"excitation_frequency_hz": [66.0, 70.0, 74.0]}
DURATION_S = 0.05


def fixed_step_settings():
    scenario = charging_scenario(duration_s=DURATION_S)
    return replace(scenario_solver_settings(scenario), fixed_step=1e-4)


def run_sweep(options, scenario=None):
    """Scores by candidate of one small sweep (the charging run by default)."""
    if scenario is None:
        scenario = charging_scenario(duration_s=DURATION_S)
    result = (
        Study.scenario(scenario)
        .options(options)
        .sweep(AXES)
        .run()
    )
    return {
        tuple(sorted(point.parameters.items())): point.score
        for point in result.points
    }


#: two option sets per exempt knob, differing only in that knob (and in
#: the store they write to, so the second run is never served by the
#: first run's cache entries)
CASES = {
    "n_workers": lambda tmp: (RunOptions(), RunOptions(n_workers=2)),
    "n_workers_scalar_path": lambda tmp: (
        RunOptions(lane_width=1),
        RunOptions(lane_width=1, n_workers=2),
    ),
    "lane_width": lambda tmp: (
        RunOptions(lane_width=2, settings=fixed_step_settings()),
        RunOptions(lane_width=3, settings=fixed_step_settings()),
    ),
    "lane_width_adaptive": lambda tmp: (
        RunOptions(lane_width=2),
        RunOptions(lane_width=3),
    ),
    # a lane block of one is the scalar run: every candidate alone on the
    # scalar path against all of them packed as lanes of one block
    "lane_width_scalar_path": lambda tmp: (RunOptions(lane_width=1), RunOptions()),
    "lane_width_scalar_path_scenario_1": lambda tmp: (
        RunOptions(lane_width=1),
        RunOptions(),
    ),
    "progress": lambda tmp: (
        RunOptions(),
        RunOptions(progress=lambda done, total, best: None),
    ),
    "cache": lambda tmp: (
        RunOptions(),
        RunOptions(cache="readwrite", cache_dir=str(tmp / "store")),
    ),
    "cache_dir": lambda tmp: (
        RunOptions(cache="readwrite", cache_dir=str(tmp / "a")),
        RunOptions(cache="readwrite", cache_dir=str(tmp / "b")),
    ),
    "store_traces": lambda tmp: (
        RunOptions(cache="readwrite", cache_dir=str(tmp / "a")),
        RunOptions(cache="readwrite", cache_dir=str(tmp / "b"), store_traces=False),
    ),
    "explore": lambda tmp: (RunOptions(), RunOptions(explore="grid")),
    "budget": lambda tmp: (
        RunOptions(explore="random", budget=2, seed=7),
        RunOptions(explore="random", budget=3, seed=7),
    ),
}


#: cases that sweep another base scenario than the charging run: the
#: tuning scenario's watchdog, measurement and tuning activations (at
#: 0 s, 0.2 s and after) ride the batched lanes too
SCENARIOS = {
    "lane_width_scalar_path_scenario_1": lambda: scenario_1(
        duration_s=0.25, shift_time_s=0.2
    ),
}


@pytest.mark.parametrize(
    "case",
    sorted(FINGERPRINT_EXEMPT)
    + [
        "lane_width_adaptive",
        "lane_width_scalar_path",
        "lane_width_scalar_path_scenario_1",
        "n_workers_scalar_path",
    ],
)
def test_exempt_knob_never_changes_a_score(case, tmp_path):
    if case not in CASES:
        pytest.fail(
            f"FINGERPRINT_EXEMPT lists {case!r} but no executable case backs "
            "the claim; add one to CASES"
        )
    first, second = CASES[case](tmp_path)
    scenario = SCENARIOS[case]() if case in SCENARIOS else None
    a, b = run_sweep(first, scenario), run_sweep(second, scenario)
    common = set(a) & set(b)
    assert len(common) >= 2
    for candidate in sorted(common):
        assert a[candidate] == b[candidate], candidate


#: the keyword parameters of ``execution_fingerprint``
FINGERPRINTED = set(inspect.signature(execution_fingerprint).parameters)


def test_every_field_is_fingerprinted_or_exempt():
    parameters = inspect.signature(execution_fingerprint).parameters
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in parameters.values())
    assert FINGERPRINTED.isdisjoint(FINGERPRINT_EXEMPT)
    field_names = {f.name for f in fields(RunOptions)}
    assert field_names == FINGERPRINTED | set(FINGERPRINT_EXEMPT)


@pytest.mark.parametrize("knob", sorted(FINGERPRINT_EXEMPT))
def test_exemption_reason_is_spelled_out(knob):
    assert len("".join(FINGERPRINT_EXEMPT[knob].split())) >= 10, knob


def test_fingerprint_passes_each_field_by_name(monkeypatch):
    options = RunOptions(
        integrator=AdamsBashforth(order=3),
        settings=SolverSettings(),
        relinearise_interval=4,
        explore="random",
        budget=4,
        seed=3,
    )
    received = {}
    monkeypatch.setattr(
        options_module, "execution_fingerprint", lambda **kw: received.update(kw)
    )
    options.fingerprint()
    assert set(received) == FINGERPRINTED
    for name, value in received.items():
        assert value is getattr(options, name), name
