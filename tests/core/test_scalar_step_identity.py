"""The scalar step reproduces the generic per-step code bit for bit.

The scalar solver refreshes through a one-lane ``BatchedAssembler``: a
persistent workspace, constant fields scattered once, all-constant blocks
linearised once and a held Eq. (4) solve.  The ``reference_step``
fixture swaps in the per-step pieces as they were written before any of
that:

* the generic assemble loop: fresh zero matrices, netlist look-ups per
  block, every block linearised through its scalar ``linearise`` and
  every field scattered by fancy index, and a full
  ``BlockLinearisation.validate`` per block;
* the generic eliminate: one ``np.linalg.solve`` of Eq. (4) per refresh,
  so a held solve that outlives a model change shows as a difference;
* ``_variable_step_weights`` solving its Vandermonde system on every call;
* the Adams-Bashforth step keeping its history as a deque of ``(t, f)``
  pairs, each sample copied on push, and stacking a fresh window from
  ``list(history)`` on every step;
* the solver booking every step into its ``SolverStats`` through
  ``register_step`` as it is taken, instead of once after the loop;
* the step controller measuring the Jacobian drift itself, against its
  own copy of the previous proposal's matrix (forgotten on reset), and
  re-taking that matrix's norm on every call, instead of consuming the
  drift the solver measured once;
* the Dickson multiplier's row-by-row stage loop.

Each scenario factory then runs under the reference and under the
optimised code, and the two must agree byte for byte.  The reference is
code, not stored digests, so the comparison holds on any BLAS.
"""

from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.api.experiment import SCENARIO_FACTORIES
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core import stepper
from repro.core.block import BlockLinearisation, LinearBlock
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import ReducedSystem, SystemAssembler
from repro.core.integrators import AdamsBashforth, adams_bashforth
from repro.core.linearise import linearise_block_numerically
from repro.core.netlist import Netlist
from repro.core.results import SolverStats
from repro.core.solver import LinearisedStateSpaceSolver
from repro.core.stability import integrator_step_limit
from repro.core.stepper import StepSizeController
from repro.harvester.scenarios import (
    _simulate_proposed,
    charging_scenario,
    scenario_solver_settings,
)

from .test_block_netlist import make_rc_block

DURATIONS = {
    "scenario_1": 0.02,
    "scenario_2": 0.02,
    "charging": 0.02,
    "piezoelectric_charging": 0.01,
    "electrostatic_charging": 0.01,
}

SETTINGS = {
    "adaptive": {},
    "relinearise_4": {"relinearise_interval": 4},
    "fixed_step": {"fixed_step": 5e-5},
}


# ---------------------------------------------------------------------- #
# the per-step pieces before preparation
# ---------------------------------------------------------------------- #
def generic_assemble(self, t, x_global, y_global):
    structure = self.structure
    n_states, n_terminals = structure.n_states, structure.n_terminals
    n_algebraic = structure.n_algebraic
    jxx = np.zeros((n_states, n_states))
    jxy = np.zeros((n_states, n_terminals))
    ex = np.zeros(n_states)
    jyx = np.zeros((n_algebraic, n_states))
    jyy = np.zeros((n_algebraic, n_terminals))
    ey = np.zeros(n_algebraic)
    for block in self.blocks:
        s = self.state_slice(block.name)
        terminal_idx = structure.terminal_maps[block.name]
        x_local = x_global[s]
        y_local = y_global[terminal_idx]
        lin = block.linearise(t, x_local, y_local)
        if lin is None:
            lin = linearise_block_numerically(block, t, x_local, y_local)
        else:
            lin.validate(block.n_states, block.n_terminals, block.n_algebraic)
        jxx[s, s] = lin.jxx
        ex[s] = lin.ex
        if block.n_terminals:
            jxy[s.start : s.stop, terminal_idx] += lin.jxy
        if block.n_algebraic:
            r0 = structure.alg_offsets[block.name]
            rows = slice(r0, r0 + block.n_algebraic)
            jyx[rows, s] = lin.jyx
            if block.n_terminals:
                jyy[r0 : r0 + block.n_algebraic, terminal_idx] += lin.jyy
            ey[rows] = lin.ey
    generic_assemble.calls += 1
    return SimpleNamespace(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)


generic_assemble.calls = 0


def generic_eliminate(self, lin, x_global):
    jyy = lin.jyy
    if jyy.size == 0:
        return ReducedSystem(
            a_reduced=lin.jxx.copy(),
            b_reduced=lin.ex.copy(),
            y_solution=np.zeros(0),
            elimination_matrix=np.zeros((0, lin.jxx.shape[0])),
            elimination_offset=np.zeros(0),
        )
    rhs = np.empty((jyy.shape[0], lin.jyx.shape[1] + 1))
    rhs[:, :-1] = lin.jyx
    rhs[:, -1] = lin.ey
    solution = np.linalg.solve(jyy, rhs)
    elimination_matrix = -solution[:, :-1]
    elimination_offset = -solution[:, -1]
    return ReducedSystem(
        a_reduced=lin.jxx + lin.jxy @ elimination_matrix,
        b_reduced=lin.ex + lin.jxy @ elimination_offset,
        y_solution=elimination_matrix @ x_global + elimination_offset,
        elimination_matrix=elimination_matrix,
        elimination_offset=elimination_offset,
    )


def generic_refresh(self, batched):
    # the solver's one refresh helper, on the generic pieces: the one-lane
    # batched refresh it is handed is left unused
    lin = generic_assemble(self.assembler, self._t, self._x, self._y)
    return generic_eliminate(self.assembler, lin, self._x)


def unmemoised_weights(sample_times, t_start, t_end):
    times = np.asarray(sample_times, dtype=float) - t_start
    span = t_end - t_start
    k = times.size
    vander = np.vander(times, N=k, increasing=True)
    moments = np.array([span ** (j + 1) / (j + 1) for j in range(k)])
    return np.linalg.solve(vander.T, moments)


def own_controller_drift(self, a_reduced):
    previous = getattr(self, "_reference_jacobian", None)
    if previous is None:
        return 0.0
    scale = np.linalg.norm(previous)
    if scale == 0.0:
        scale = 1.0
    return float(np.linalg.norm(a_reduced - previous) / scale)


_propose = StepSizeController.propose
_reset = StepSizeController.reset


def propose_measuring_own_drift(self, a_reduced, jacobian_change, *, t_remaining=None):
    # the solver's figure is ignored: the controller holds its own
    # previous matrix, so a drift the solver measures wrongly shows
    h = _propose(
        self, a_reduced, own_controller_drift(self, a_reduced), t_remaining=t_remaining
    )
    self._reference_jacobian = np.array(a_reduced, dtype=float, copy=True)
    return h


def reset_forgetting_own_drift(self, h=None):
    _reset(self, h)
    self._reference_jacobian = None


def unscaled_stability_limit(self, a_reduced):
    if self._cached_stability_limit is not None and self._stability_jacobian is not None:
        scale = np.linalg.norm(self._stability_jacobian)
        if scale == 0.0:
            scale = 1.0
        drift = np.linalg.norm(a_reduced - self._stability_jacobian) / scale
        if drift <= stepper.STABILITY_RECOMPUTE_THRESHOLD:
            return self._cached_stability_limit
    limit = integrator_step_limit(
        a_reduced,
        real_extent=self._real_extent,
        imag_extent=self._imag_extent,
        safety=stepper.SAFETY,
    )
    self._stability_jacobian = np.array(a_reduced, dtype=float, copy=True)
    self._cached_stability_limit = limit
    return limit


def row_by_row_dickson(self, t, x, y):
    n = self.n_stages
    coefficients = self._vd_coefficients
    vd = coefficients @ x
    g = np.empty(n)
    j = np.empty(n)
    for k in range(n):
        g[k], j[k] = self.companion_table.evaluate(float(vd[k]))
    jxx = np.zeros((n + 1, n + 1))
    jxy = np.zeros((n + 1, 4))
    ex = np.zeros(n + 1)
    cin = self.input_capacitance_f
    jxy[0, 1] = 1.0 / cin
    for k in range(n):
        if not self._pump_active[k]:
            continue
        jxx[0, :] += g[k] * coefficients[k, :] / cin
        ex[0] += j[k] / cin
        if k + 1 < n:
            jxx[0, :] -= g[k + 1] * coefficients[k + 1, :] / cin
            ex[0] -= j[k + 1] / cin
        else:
            jxy[0, 3] -= 1.0 / cin
    for k in range(n - 1):
        ck = self.capacitances[k]
        jxx[k + 1, :] = (g[k] * coefficients[k, :] - g[k + 1] * coefficients[k + 1, :]) / ck
        ex[k + 1] = (j[k] - j[k + 1]) / ck
    cn = self.capacitances[-1]
    jxx[n, :] = g[n - 1] * coefficients[n - 1, :] / cn
    jxy[n, 3] = -1.0 / cn
    ex[n] = j[n - 1] / cn
    return BlockLinearisation(
        jxx=jxx,
        jxy=jxy,
        ex=ex,
        jyx=self._jyx_template.copy(),
        jyy=self._jyy_template.copy(),
        ey=np.zeros(2),
    )


class DequeHistory:
    """The integrator state before the stacked window: a deque of
    ``(t, f)`` pairs, each sample copied on push, plus the solver's
    per-step ``SolverStats`` booking."""

    def __init__(self):
        self.history = deque()
        self.booked = SolverStats()

    def push(self, t, derivative, max_length):
        self.history.append((t, np.asarray(derivative, dtype=float).copy()))
        while len(self.history) > max_length:
            self.history.popleft()

    def clear(self):
        self.history.clear()

    def __len__(self):
        return len(self.history)


def stacking_step(self, func, t, x, h, state=None):
    x = np.asarray(x, dtype=float)
    derivative = np.asarray(func(t, x), dtype=float)
    state.push(t, derivative, max_length=self.order)
    state.booked.n_function_evaluations += 1
    state.booked.register_step(h, accepted=True)
    stacking_step.calls += 1
    if len(state.history) < self.order and self.order > 1:
        return self._runge_kutta_start(func, t, x, h, derivative)
    samples = list(state.history)
    times = [sample_t for sample_t, _ in samples]
    derivatives = np.stack([sample_f for _, sample_f in samples])
    weights = adams_bashforth._variable_step_weights(times, t_start=t, t_end=t + h)
    return x + weights @ derivatives


stacking_step.calls = 0

#: the ``SolverStats`` fields a step books
STEP_FIELDS = (
    "n_steps",
    "n_accepted_steps",
    "n_rejected_steps",
    "n_function_evaluations",
    "min_step",
    "max_step",
)

_run_solver = LinearisedStateSpaceSolver.run


def run_booking_every_step(self, *args, **kwargs):
    # the run's step fields are those its steps booked one by one
    history = DequeHistory()
    with mock.patch.object(self.integrator, "new_state", return_value=history):
        result = _run_solver(self, *args, **kwargs)
    for name in STEP_FIELDS:
        setattr(result.stats, name, getattr(history.booked, name))
    return result


@pytest.fixture
def reference_step(monkeypatch):
    """Context manager running the code inside it on the reference pieces."""

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            patch.setattr(LinearisedStateSpaceSolver, "_refresh", generic_refresh)
            patch.setattr(adams_bashforth, "_variable_step_weights", unmemoised_weights)
            patch.setattr(StepSizeController, "propose", propose_measuring_own_drift)
            patch.setattr(StepSizeController, "reset", reset_forgetting_own_drift)
            patch.setattr(StepSizeController, "stability_limit", unscaled_stability_limit)
            patch.setattr(DicksonMultiplier, "linearise", row_by_row_dickson)
            patch.setattr(AdamsBashforth, "step", stacking_step)
            patch.setattr(LinearisedStateSpaceSolver, "run", run_booking_every_step)
            calls = generic_assemble.calls
            steps = stacking_step.calls
            yield
            assert generic_assemble.calls > calls, "the reference assembler never ran"
            assert stacking_step.calls > steps, "the reference step never ran"

    return swapped


def assert_runs_identical(reference, result):
    assert sorted(reference.traces) == sorted(result.traces)
    for name in reference.traces:
        assert reference[name].times.tobytes() == result[name].times.tobytes(), name
        assert reference[name].values.tobytes() == result[name].values.tobytes(), name
    expected, got = reference.stats.as_dict(), result.stats.as_dict()
    del expected["cpu_time_s"], got["cpu_time_s"]
    assert expected == got
    for key in ("lle_max_jacobian_change", "lle_flagged_steps", "n_jacobian_reuses"):
        assert reference.metadata[key] == result.metadata[key], key


def _run(factory, label):
    scenario = SCENARIO_FACTORIES[factory](duration_s=DURATIONS[factory])
    settings = replace(scenario_solver_settings(scenario), **SETTINGS[label])
    return _simulate_proposed(scenario, settings=settings)


@pytest.mark.parametrize("label", sorted(SETTINGS))
@pytest.mark.parametrize("factory", sorted(SCENARIO_FACTORIES))
def test_prepared_step_matches_reference_bitwise(reference_step, factory, label):
    with reference_step():
        reference = _run(factory, label)
    assert_runs_identical(reference, _run(factory, label))


def test_drift_limited_steps_match_reference_bitwise(reference_step, monkeypatch):
    # the default target never binds on these short runs (the drift stays
    # near 1e-6); a tight one makes the solver's drift set the step size
    default_steps = _run("charging", "adaptive").stats.n_steps
    monkeypatch.setattr(stepper, "JACOBIAN_CHANGE_TARGET", 1e-7)
    scenario = charging_scenario(duration_s=0.02)
    settings = scenario_solver_settings(scenario)
    with reference_step():
        reference = _simulate_proposed(scenario, settings=settings)
    result = _simulate_proposed(scenario, settings=settings)
    assert result.stats.n_steps > default_steps
    assert_runs_identical(reference, result)


class _SwitchLoad(DigitalProcess):
    """Writes the storage load once, mid-run: the model changes under the step."""

    def __init__(self, time_s):
        super().__init__("switch_load", start_time=time_s)

    def execute(self, t, analogue):
        analogue.write("load_resistance", 5e3)
        return None


def _run_with_mid_run_event(label):
    scenario = charging_scenario(duration_s=0.02)
    harvester = scenario.build_harvester()
    settings = replace(scenario_solver_settings(scenario), **SETTINGS[label])
    solver = harvester.build_solver(settings=settings)
    kernel = DigitalEventKernel()
    kernel.add_process(_SwitchLoad(0.011))
    solver.digital_kernel = kernel
    return solver.run(0.02)


@pytest.mark.parametrize("label", sorted(SETTINGS))
def test_mid_run_model_change_matches_reference_bitwise(reference_step, label):
    # the reference controller forgets its previous Jacobian at the
    # event, so the solver's drift must restart from zero in step
    with reference_step():
        reference = _run_with_mid_run_event(label)
    result = _run_with_mid_run_event(label)
    assert result.metadata["digital_activations"] == 1
    assert_runs_identical(reference, result)


def test_non_contiguous_terminals_scatter_like_fancy_indexing():
    # block "b" lists its port as (I, V), so its terminals map to nets
    # [1, 0] and the plan keeps an index array rather than a slice; its
    # jxy holds a -0.0, which a scatter into fresh zeros stores as 0.0.
    # The one-lane batched assembly must scatter it so
    netlist = Netlist()
    a = netlist.add_block(make_rc_block("a", 10.0, 1e-3))
    b = netlist.add_block(
        LinearBlock(
            "b",
            np.array([[-1.0 / 0.04]]),
            np.array([[-0.0, 1.0 / 0.04]]),
            state_names=["Vc"],
            terminal_names=["I", "V"],
            c=np.array([[1.0 / 20.0]]),
            d=np.array([[1.0, -1.0 / 20.0]]),
            terminal_kinds=["current", "voltage"],
        )
    )
    netlist.connect_port(a, b, voltage=("V", "V"), current=("I", "I"))
    assembler = SystemAssembler(netlist)
    assert not isinstance(assembler._plan[1].terminals, slice)
    x, y = np.array([1.0, -0.5]), np.array([0.25, 2.0])
    got = assembler.assemble(0.0, x, y)
    expected = generic_assemble(assembler, 0.0, x, y)
    for name in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
        assert getattr(got, name)[0].tobytes() == getattr(expected, name).tobytes(), name


#: adaptive runs whose every proposal is checked: each scenario factory,
#: plus a control write that resets the drift mid-run
DRIFT_RUNS = {
    **{factory: (lambda factory=factory: _run(factory, "adaptive")) for factory in SCENARIO_FACTORIES},
    "mid_run_event": lambda: _run_with_mid_run_event("adaptive"),
}


@pytest.mark.parametrize("case", sorted(DRIFT_RUNS))
def test_solver_drift_is_the_controllers_own_measure(monkeypatch, case):
    # the default drift target rarely binds, so a wrong figure could leave
    # every step unchanged: compare the two figures at every proposal
    pairs = []

    def propose_recording(self, a_reduced, jacobian_change, *, t_remaining=None):
        pairs.append((jacobian_change, own_controller_drift(self, a_reduced)))
        return propose_measuring_own_drift(
            self, a_reduced, jacobian_change, t_remaining=t_remaining
        )

    monkeypatch.setattr(StepSizeController, "propose", propose_recording)
    monkeypatch.setattr(StepSizeController, "reset", reset_forgetting_own_drift)
    DRIFT_RUNS[case]()
    assert len(pairs) > 50
    assert [solver for solver, _ in pairs] == [own for _, own in pairs]
