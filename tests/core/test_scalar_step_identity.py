"""The prepared scalar step reproduces the generic per-step code bit for bit.

The ``reference_step`` fixture swaps in the per-step pieces as they were
written before the scalar path was prepared:

* the generic ``SystemAssembler.assemble`` loop: fresh zero matrices,
  netlist look-ups per block, fancy-index scatters and a full
  ``BlockLinearisation.validate`` per block;
* ``_variable_step_weights`` solving its Vandermonde system on every call;
* the step controller and the LLE monitor each measuring the Jacobian
  drift themselves, re-taking the norm of every reference matrix;
* the Dickson multiplier's row-by-row stage loop.

Each scenario factory then runs under the reference and under the
optimised code, and the two must agree byte for byte.  The reference is
code, not stored digests, so the comparison holds on any BLAS.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.api.experiment import SCENARIO_FACTORIES
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.block import BlockLinearisation, LinearBlock
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import GlobalLinearisation, SystemAssembler
from repro.core.integrators import adams_bashforth
from repro.core.linearise import linearise_block_numerically
from repro.core.lle import LLEMonitor
from repro.core.netlist import Netlist
from repro.core.stability import (
    diagonal_dominance_step_limit,
    integrator_step_limit,
)
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
    return GlobalLinearisation(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)


generic_assemble.calls = 0


def unmemoised_weights(sample_times, t_start, t_end):
    times = np.asarray(sample_times, dtype=float) - t_start
    span = t_end - t_start
    k = times.size
    vander = np.vander(times, N=k, increasing=True)
    moments = np.array([span ** (j + 1) / (j + 1) for j in range(k)])
    return np.linalg.solve(vander.T, moments)


def own_lle_drift(self, jacobian):
    if self._previous_jacobian is None:
        return 0.0
    scale = np.linalg.norm(self._previous_jacobian)
    if scale == 0.0:
        scale = 1.0
    return float(np.linalg.norm(jacobian - self._previous_jacobian) / scale)


def unscaled_stability_limit(self, a_reduced):
    settings = self.settings
    if not settings.use_spectral_limit:
        return diagonal_dominance_step_limit(a_reduced, safety=settings.safety)
    if self._cached_stability_limit is not None and self._stability_jacobian is not None:
        scale = np.linalg.norm(self._stability_jacobian)
        if scale == 0.0:
            scale = 1.0
        drift = np.linalg.norm(a_reduced - self._stability_jacobian) / scale
        if drift <= settings.stability_recompute_threshold:
            return self._cached_stability_limit
    limit = integrator_step_limit(
        a_reduced,
        real_extent=self._real_extent,
        imag_extent=self._imag_extent,
        safety=settings.safety,
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


@pytest.fixture
def reference_step(monkeypatch):
    """Context manager running the code inside it on the reference pieces."""
    propose = StepSizeController.propose

    def propose_measuring_own_drift(self, a_reduced, *, t_remaining=None, jacobian_change=None):
        return propose(self, a_reduced, t_remaining=t_remaining)

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            patch.setattr(SystemAssembler, "assemble", generic_assemble)
            patch.setattr(adams_bashforth, "_variable_step_weights", unmemoised_weights)
            patch.setattr(LLEMonitor, "jacobian_change", own_lle_drift)
            patch.setattr(StepSizeController, "propose", propose_measuring_own_drift)
            patch.setattr(StepSizeController, "stability_limit", unscaled_stability_limit)
            patch.setattr(DicksonMultiplier, "linearise", row_by_row_dickson)
            calls = generic_assemble.calls
            yield
            assert generic_assemble.calls > calls, "the reference assembler never ran"

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


def test_drift_limited_steps_match_reference_bitwise(reference_step):
    # the default target never binds on these short runs (the drift stays
    # near 1e-6); a tight one makes the shared drift set the step size
    scenario = charging_scenario(duration_s=0.02)
    settings = scenario_solver_settings(scenario)
    settings = replace(
        settings, step_control=replace(settings.step_control, jacobian_change_target=1e-7)
    )
    with reference_step():
        reference = _simulate_proposed(scenario, settings=settings)
    result = _simulate_proposed(scenario, settings=settings)
    assert result.stats.n_steps > _run("charging", "adaptive").stats.n_steps
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
    # the controller and the monitor both forget their previous Jacobian
    # at the event, so the shared drift must restart from zero in step
    with reference_step():
        reference = _run_with_mid_run_event(label)
    result = _run_with_mid_run_event(label)
    assert result.metadata["digital_activations"] == 1
    assert_runs_identical(reference, result)


def test_non_contiguous_terminals_scatter_like_fancy_indexing(reference_step):
    # block "b" lists its port as (I, V), so its terminals map to nets
    # [1, 0] and the plan keeps an index array rather than a slice; its
    # jxy holds a -0.0, which a scatter into fresh zeros stores as 0.0
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
    with reference_step():
        expected = assembler.assemble(0.0, x, y)
    for name in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
