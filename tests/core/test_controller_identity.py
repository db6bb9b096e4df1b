"""The batched step controller proposes exactly what the scalar one does.

``StepSizeController`` drives a single run and ``BatchedStepController``
drives every lane of a batched run.  Both read the step-control policy
from the constants of :mod:`repro.core.stepper`, so the same
``(A_r, drift, t_remaining)`` sequence must give bitwise-equal proposals
on a one-lane and on a three-lane batched controller.  The sequences are
drawn so that every branch is taken, and each test counts that it was:
shrink (at and above the shrink limit), grow, a recomputed and a reused
stability bound, the ``h_min``, ``h_max`` and ``t_remaining`` clamps,
and a reset.

The batched controller does not measure the drift that gates its bound's
recomputation: the batched march measures it next to the LLE drift, in
one stacked norm evaluation (``BatchedStepController.drifts``), scaled by
the norms kept with each reference.  Every batched proposal here takes
its stability drift from that call, and each call's two drifts are
checked against two ``relative_jacobian_drift`` calls.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import stepper
from repro.core.integrators import AdamsBashforth
from repro.core.stepper import (
    BatchedStepController,
    StepControlSettings,
    StepSizeController,
    frobenius_norm,
    jacobian_drifts,
    relative_jacobian_drift,
)

#: step bounds per lane; lane 1 has a narrow range so both clamps bind
LANE_SETTINGS = (
    StepControlSettings(h_initial=1e-3, h_min=1e-6, h_max=2e-2),
    StepControlSettings(h_initial=5e-4, h_min=2e-4, h_max=1e-3),
    StepControlSettings(h_initial=2e-3, h_min=1e-7, h_max=5e-2),
)

#: every branch of ``propose``, each of which a sequence must take
REQUIRED_BRANCHES = (
    "shrink",
    "shrink_limited",
    "grow",
    "stability",
    "recompute",
    "reuse",
    "h_min",
    "h_max",
    "t_remaining",
    "reset",
)

#: the module's policy, and a different one: both controllers must read
#: the constants when they run
POLICIES = {
    "default": {},
    "patched": {
        "SAFETY": 0.5,
        "GROWTH_LIMIT": 1.5,
        "SHRINK_LIMIT": 0.25,
        "JACOBIAN_CHANGE_TARGET": 0.03,
        "STABILITY_RECOMPUTE_THRESHOLD": 0.1,
    },
}


def _lane_script(rng, n_ticks):
    """One lane's inputs: per tick a matrix, a drift and a remaining time,
    or ``None`` for a reset."""
    base = np.diag([-5.0, -40.0]) + np.array([[0.0, 3.0], [-3.0, 0.0]])
    scale = 1.0
    script = []
    for _ in range(n_ticks):
        if rng.random() < 0.06:
            script.append(None)
            continue
        kind = rng.random()
        if kind < 0.15:
            # a large jump: the bound is recomputed and may bind
            scale = float(np.clip(scale * 10.0 ** rng.uniform(-1.5, 1.5), 1e-2, 1e4))
        elif kind < 0.3:
            scale *= 1.0 + rng.uniform(-0.3, 0.5)
        else:
            # a small wobble: the cached bound is reused
            scale *= 1.0 + rng.uniform(-0.005, 0.005)
        a = base * scale + rng.normal(0.0, 1e-3, size=(2, 2))
        drift = float(10.0 ** rng.uniform(-5.0, 1.0)) if rng.random() < 0.6 else 0.0
        remaining = float(10.0 ** rng.uniform(-5.0, -1.0))
        if rng.random() < 0.1:
            remaining = 0.0
        script.append((a, drift, remaining))
    return script


def _branches(controller, drift, remaining, h_before):
    """Names of the branches the scalar controller's last proposal took."""
    s = controller.settings
    taken = []
    if drift > stepper.JACOBIAN_CHANGE_TARGET:
        ratio = stepper.JACOBIAN_CHANGE_TARGET / drift
        taken.append("shrink_limited" if ratio < stepper.SHRINK_LIMIT else "shrink")
        accurate = h_before * max(stepper.SHRINK_LIMIT, ratio)
    else:
        taken.append("grow")
        accurate = h_before * stepper.GROWTH_LIMIT
    stable = controller._cached_stability_limit
    if stable < min(accurate, s.h_max):
        taken.append("stability")
    if s.h_max < min(accurate, stable):
        taken.append("h_max")
    bounded = min(accurate, stable, s.h_max)
    if bounded < s.h_min:
        taken.append("h_min")
    if 0.0 < remaining < max(bounded, s.h_min):
        taken.append("t_remaining")
    return taken


class _Recording(StepSizeController):
    """A scalar controller that also reports whether its bound was recomputed."""

    def stability_limit(self, a_reduced):
        held = self._stability_jacobian
        limit = super().stability_limit(a_reduced)
        self.recomputed = self._stability_jacobian is not held
        return limit


def _run_scalar(settings, script, integrator, with_remaining):
    controller = _Recording(settings, integrator=integrator)
    proposals, taken = [], Counter()
    for entry in script:
        if entry is None:
            controller.reset()
            proposals.append(None)
            taken["reset"] += 1
            continue
        a, drift, remaining = entry
        h_before = controller.current_step
        h = controller.propose(
            a, drift, t_remaining=remaining if with_remaining else None
        )
        proposals.append(h)
        taken.update(
            _branches(controller, drift, remaining if with_remaining else 0.0, h_before)
        )
        taken["recompute" if controller.recomputed else "reuse"] += 1
    return proposals, taken


def _propose(batched, a_all, drift, remaining, lanes=None):
    """One batched proposal, its stability drift measured as the march does.

    ``drifts`` measures the selected lanes against an LLE reference (here
    half their matrices, with its norms) and against their cached-bound
    matrices, with the norms the controller kept when it stored them, at
    once; both figures must be the two separate ``relative_jacobian_drift``
    calls, bit for bit, and the returned norms those of ``a``.
    """
    a = a_all if lanes is None else a_all[lanes]
    reference = 0.5 * a
    held = None
    if batched._stability_jacobian is not None:
        held = batched._stability_jacobian[slice(None) if lanes is None else lanes]
    lle, stability, norms = batched.drifts(a, reference, _norms(reference), lanes)
    assert lle.tobytes() == relative_jacobian_drift(a, reference).tobytes()
    assert norms.tobytes() == _norms(a).tobytes()
    if held is not None:
        assert stability.tobytes() == relative_jacobian_drift(a, held).tobytes()
    return batched.propose(
        a_all, drift, stability, t_remaining=remaining, lanes=lanes
    )


def _norms(m):
    """Per-lane Frobenius norms, one scalar ``np.linalg.norm`` each."""
    return np.array([frobenius_norm(lane) for lane in m])


def _assert_bitwise(expected, got, where):
    assert np.float64(expected).tobytes() == np.float64(got).tobytes(), (where, expected, got)


@pytest.fixture(params=sorted(POLICIES))
def policy(request, monkeypatch):
    for name, value in POLICIES[request.param].items():
        monkeypatch.setattr(stepper, name, value)
    return request.param


@pytest.mark.parametrize("with_remaining", [True, False], ids=["t_remaining", "no_t_remaining"])
def test_one_lane_matches_the_scalar_controller_bitwise(policy, with_remaining):
    integrator = AdamsBashforth(order=3)
    taken = Counter()
    for lane, settings in enumerate(LANE_SETTINGS):
        script = _lane_script(np.random.default_rng(11 + lane), 400)
        expected, lane_taken = _run_scalar(settings, script, integrator, with_remaining)
        taken.update(lane_taken)
        batched = BatchedStepController([settings], integrator=integrator)
        for tick, (entry, h) in enumerate(zip(script, expected)):
            if entry is None:
                batched.reset()
                continue
            a, drift, remaining = entry
            got = _propose(
                batched,
                a[None],
                np.array([drift]),
                np.array([remaining]) if with_remaining else None,
            )
            _assert_bitwise(h, got[0], (lane, tick))
    missing = set(REQUIRED_BRANCHES) - set(taken)
    if not with_remaining:
        missing.discard("t_remaining")
    assert not missing, sorted(missing)


def test_three_lanes_match_their_scalar_controllers_bitwise(policy):
    """Lanes propose in changing subsets, reset alone and retire; each
    lane's proposals stay its scalar controller's."""
    integrator = AdamsBashforth(order=3)
    n_ticks = 600
    rng = np.random.default_rng(5)
    scripts = [_lane_script(np.random.default_rng(31 + i), n_ticks) for i in range(3)]
    scalars = [_Recording(s, integrator=integrator) for s in LANE_SETTINGS]
    batched = BatchedStepController(list(LANE_SETTINGS), integrator=integrator)
    rows = [0, 1, 2]  # the batched row of each live lane
    taken = Counter()
    for tick in range(n_ticks):
        if tick == n_ticks // 2:
            # lane 1 retires: the batched controller keeps rows 0 and 2
            batched.select(np.array([0, 2]))
            rows = [0, None, 1]
        live = [lane for lane in range(3) if rows[lane] is not None]
        resets = [lane for lane in live if scripts[lane][tick] is None]
        for lane in resets:
            scalars[lane].reset()
            taken["reset"] += 1
        if resets:
            batched.reset(np.array([rows[lane] for lane in resets]))
        proposing = [
            lane for lane in live if scripts[lane][tick] is not None and rng.random() < 0.8
        ]
        if not proposing:
            continue
        n_rows = len(live)
        a_all = np.zeros((n_rows, 2, 2))
        remaining_all = np.full(n_rows, -1.0)
        for lane in proposing:
            a, _, remaining = scripts[lane][tick]
            a_all[rows[lane]] = a
            remaining_all[rows[lane]] = remaining
        drifts = np.array([scripts[lane][tick][1] for lane in proposing])
        selected = np.array([rows[lane] for lane in proposing])
        every_row = len(proposing) == n_rows
        got = _propose(
            batched, a_all, drifts, remaining_all, None if every_row else selected
        )
        for k, lane in enumerate(proposing):
            a, drift, remaining = scripts[lane][tick]
            controller = scalars[lane]
            h_before = controller.current_step
            h = controller.propose(a, drift, t_remaining=remaining)
            taken.update(_branches(controller, drift, remaining, h_before))
            taken["recompute" if controller.recomputed else "reuse"] += 1
            _assert_bitwise(h, got[k], (lane, tick))
    missing = set(REQUIRED_BRANCHES) - set(taken)
    assert not missing, sorted(missing)


@pytest.mark.parametrize("entries", [9, 144, 256])
def test_stacked_drifts_are_two_separate_drifts_bitwise(entries):
    # one stacked norm evaluation must not depend on the stack size or on
    # its neighbours: each drift is its own relative_jacobian_drift call
    n = int(np.sqrt(entries))
    rng = np.random.default_rng(entries)
    for b in (1, 2, 3, 8, 17, 64):
        exponents = rng.integers(-8, 8, size=(b, 1, 1)).astype(float)
        lle_ref = rng.standard_normal((b, n, n)) * 10.0**exponents
        bound_ref = rng.standard_normal((b, n, n)) * 10.0**exponents
        a = lle_ref + rng.standard_normal((b, n, n)) * 1e-3 * 10.0**exponents
        lle_ref[0] = 0.0  # a zero-norm reference falls back to scale 1
        bound_ref[-1] = 0.0
        lle, stability, norms = jacobian_drifts(
            a, (lle_ref, _norms(lle_ref)), (bound_ref, _norms(bound_ref))
        )
        assert lle.tobytes() == relative_jacobian_drift(a, lle_ref).tobytes(), b
        assert stability.tobytes() == relative_jacobian_drift(a, bound_ref).tobytes(), b
        # the stacked norm of ``a`` is the one its next drift is scaled by
        assert norms.tobytes() == _norms(a).tobytes(), b
        alone, alone_norms = jacobian_drifts(a, (lle_ref, _norms(lle_ref)))
        assert alone.tobytes() == lle.tobytes(), b
        assert alone_norms.tobytes() == norms.tobytes(), b
