"""RunOptions: profiles, validation and incoherent-pair rejection."""

import json

import pytest

from repro import RunOptions
from repro.core import AdamsBashforth, SolverSettings, StepControlSettings
from repro.core.errors import ConfigurationError
from repro.core.serialise import encode_value


class TestProfiles:
    def test_default_is_exact_serial(self):
        options = RunOptions()
        assert options.relinearise_interval is None
        assert options.n_workers == 1
        assert options.lane_width is None

    def test_exact_profile_matches_default(self):
        assert RunOptions.exact() == RunOptions()

    def test_fast_profile_sets_relinearise_interval(self):
        assert RunOptions.fast().relinearise_interval == 4
        assert RunOptions.fast(relinearise_interval=8).relinearise_interval == 8

    def test_batched_profile_only_names_the_lane_width(self):
        options = RunOptions.batched(lane_width=16, n_workers=2)
        assert options == RunOptions(lane_width=16, n_workers=2)
        assert RunOptions.batched() == RunOptions()

    def test_profiles_accept_common_overrides(self):
        integrator = AdamsBashforth(order=3)
        settings = SolverSettings()
        options = RunOptions.fast(integrator=integrator, settings=settings)
        assert options.integrator is integrator
        assert options.settings is settings

    def test_replace_revalidates(self):
        options = RunOptions(lane_width=4)
        with pytest.raises(ConfigurationError, match="lane_width"):
            options.replace(lane_width=0)


class TestValidation:
    def test_lane_width_needs_no_other_knob(self):
        assert RunOptions(lane_width=4).lane_width == 4
        assert RunOptions(lane_width=1, n_workers=2).lane_width == 1

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ConfigurationError, match="lane_width"):
            RunOptions(lane_width=0)
        with pytest.raises(ConfigurationError, match="n_workers"):
            RunOptions(n_workers=0)
        with pytest.raises(ConfigurationError, match="relinearise_interval"):
            RunOptions(relinearise_interval=0)
        with pytest.raises(ConfigurationError, match="progress"):
            RunOptions(progress="not-callable")

    def test_sweep_only_knobs_rejected_for_single_runs(self):
        for options, fragment in [
            (RunOptions(checkpoint_path="x.csv"), "checkpoint_path"),
            (RunOptions(progress=lambda *a: None), "progress"),
            (RunOptions(lane_width=2), "lane_width"),
            (RunOptions(n_workers=4), "n_workers"),
        ]:
            with pytest.raises(ConfigurationError, match=fragment):
                options.validate_for_single_run()

    def test_single_run_accepts_run_knobs(self):
        RunOptions.fast().validate_for_single_run()
        RunOptions(n_workers=None).validate_for_single_run()


#: invalid constructions, each with a pattern its error message must match
INVALID_OPTIONS = {
    "zero-lane-width": (dict(lane_width=0), "lane_width must be at least 1"),
    "negative-lane-width": (dict(lane_width=-3), "lane_width must be at least 1"),
    "zero-workers": (dict(n_workers=0), "n_workers must be at least 1"),
    "negative-workers": (dict(n_workers=-2), "n_workers must be at least 1"),
    "zero-relinearise-interval": (
        dict(relinearise_interval=0),
        "relinearise_interval must be at least 1",
    ),
    "non-callable-progress": (dict(progress=42), "progress must be callable"),
    "unknown-cache-mode": (dict(cache="write"), "unknown cache mode 'write'"),
    "cache-dir-with-cache-off": (
        dict(cache_dir="somewhere"),
        "cache_dir='somewhere' with cache='off'",
    ),
    "unknown-strategy": (dict(explore="bayes"), "unknown exploration strategy"),
    "budget-without-explore": (dict(budget=3), "budget=3 without explore"),
    "seed-without-explore": (dict(seed=1), "seed=1 without explore"),
    "grid-with-seed": (dict(explore="grid", seed=1), "takes no seed"),
    "extend-without-cache": (dict(explore="extend"), "explore='extend' with cache='off'"),
}


@pytest.mark.parametrize("case", sorted(INVALID_OPTIONS))
def test_invalid_options_are_rejected_at_construction(case):
    kwargs, pattern = INVALID_OPTIONS[case]
    with pytest.raises(ConfigurationError, match=pattern):
        RunOptions(**kwargs)
    if "progress" in kwargs:
        return  # a callback has no declarative form
    # the declarative form goes through the same validation
    with pytest.raises(ConfigurationError, match=pattern):
        RunOptions.from_dict(kwargs)


def test_options_have_no_queue_profile():
    assert not hasattr(RunOptions, "queue")


@pytest.mark.parametrize("field", ["store_url", "lease_timeout_s"])
def test_removed_queue_fields_are_not_options(field):
    with pytest.raises(TypeError, match=field):
        RunOptions(**{field: 1})
    with pytest.raises(ConfigurationError, match=f"unknown fields \\['{field}'\\]"):
        RunOptions.from_dict({"cache": "readwrite", field: 1})


#: knobs that only apply to sweeps, each as options that set it
SWEEP_ONLY_KNOBS = {
    "checkpoint_path": dict(checkpoint_path="sweep.csv"),
    "progress": dict(progress=lambda *args: None),
    "lane_width": dict(lane_width=2),
    "explore": dict(explore="grid"),
}


@pytest.mark.parametrize("knob", sorted(SWEEP_ONLY_KNOBS))
@pytest.mark.parametrize(
    "dispatch", ["validate_for_single_run", "validate_for_compare"]
)
def test_sweep_only_knob_is_rejected_by_run_and_compare(dispatch, knob):
    options = RunOptions(**SWEEP_ONLY_KNOBS[knob])
    with pytest.raises(ConfigurationError, match=f"incoherent options: {knob}="):
        getattr(options, dispatch)()


def test_compare_fans_legs_out_but_a_single_run_does_not():
    options = RunOptions(n_workers=4)
    options.validate_for_compare()
    with pytest.raises(ConfigurationError, match="n_workers=4 with a single run"):
        options.validate_for_single_run()


#: configurations whose declarative form must round-trip exactly
ROUND_TRIP_OPTIONS = {
    "default": lambda: RunOptions(),
    "fast": lambda: RunOptions.fast(),
    "batched": lambda: RunOptions.batched(lane_width=4, n_workers=2),
    "adams-bashforth-3": lambda: RunOptions(integrator=AdamsBashforth(order=3)),
    "fixed-step": lambda: RunOptions(settings=SolverSettings(fixed_step=1e-5)),
    "cache": lambda: RunOptions(
        cache="readwrite", cache_dir="cache", store_traces=False
    ),
    "random-explore": lambda: RunOptions(explore="random", budget=3, seed=7),
    "checkpoint": lambda: RunOptions(checkpoint_path="sweep.csv", n_workers=None),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_OPTIONS))
def test_declarative_form_round_trips(case):
    options = ROUND_TRIP_OPTIONS[case]()
    data = json.loads(json.dumps(options.to_dict()))
    rebuilt = RunOptions.from_dict(data)
    assert rebuilt.to_dict() == data
    assert rebuilt.fingerprint() == options.fingerprint()
    assert rebuilt.settings == options.settings
    assert rebuilt.replace(integrator=None) == options.replace(integrator=None)


#: malformed integrator tables, each with the error it must raise
BAD_INTEGRATORS = {
    "not-a-table": ("adams_bashforth", "must be a"),
    "no-name": ({"order": 2}, "must be a"),
    "unknown-field": ({"name": "rk4", "stages": 4}, r"unknown fields \['stages'\]"),
    "unknown-name": ({"name": "leapfrog"}, "unknown integrator 'leapfrog'"),
    "fixed-order-mismatch": ({"name": "rk4", "order": 2}, "fixed order 4"),
}


@pytest.mark.parametrize("case", sorted(BAD_INTEGRATORS))
def test_malformed_integrator_table_is_rejected(case):
    integrator, pattern = BAD_INTEGRATORS[case]
    with pytest.raises(ConfigurationError, match=pattern):
        RunOptions.from_dict({"integrator": integrator})


#: settable values that were retired, each with an owner whose
#: constructor and declarative form must now refuse it
REMOVED_FIELDS = {
    "monitor_lle": SolverSettings,
    "keep_lle_history": SolverSettings,
    "lle_tolerance": SolverSettings,
    "compiled": RunOptions,
    "backend": RunOptions,
}


@pytest.mark.parametrize("name", sorted(REMOVED_FIELDS))
def test_removed_fields_are_rejected(name):
    owner = REMOVED_FIELDS[name]
    with pytest.raises(TypeError, match=name):
        owner(**{name: "auto" if owner is RunOptions else True})
    if owner is RunOptions:
        data = {name: "auto"}
    else:
        settings = encode_value(SolverSettings())
        settings[name] = True
        data = {"settings": settings}
    with pytest.raises(ConfigurationError, match=rf"unknown fields \['{name}'\]"):
        RunOptions.from_dict(data)


def test_process_fingerprint_value_is_pinned():
    # cache keys and checkpoint hashes derive from this dict; a change to
    # it orphans every existing cache entry.  Lane packing never moves
    # it: every lane is bitwise its scalar run
    assert RunOptions().fingerprint() == {
        "integrator": None,
        "settings": None,
        "relinearise_interval": None,
        "backend": "process",
        "seed": None,
        "compiled": "off",
    }
    for lane_width in (1, 2):
        assert RunOptions(lane_width=lane_width).fingerprint() == (
            RunOptions().fingerprint()
        )


#: step-control values that became constants of repro.core.stepper
REMOVED_STEP_CONTROL_FIELDS = (
    "safety",
    "growth_limit",
    "shrink_limit",
    "jacobian_change_target",
    "stability_recompute_threshold",
)


@pytest.mark.parametrize("name", REMOVED_STEP_CONTROL_FIELDS)
def test_removed_step_control_fields_are_rejected(name):
    # stored settings that still carry a retired value are refused by
    # name: the run they describe can no longer be reproduced
    with pytest.raises(TypeError, match=name):
        StepControlSettings(**{name: 0.5})
    settings = encode_value(SolverSettings())
    settings["step_control"][name] = 0.5
    with pytest.raises(ConfigurationError, match=rf"unknown fields \['{name}'\]"):
        RunOptions.from_dict({"settings": settings})
