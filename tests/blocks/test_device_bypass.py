"""The exact-device bypass of the nonlinear block models, against fresh evaluation.

``DicksonMultiplier._diode_currents`` reuses a branch current it has
solved for a bitwise-equal branch voltage, and
``ElectromagneticMicrogenerator`` builds its constant Eq. (13) stamps once
per ``(params, tuning force)``.  These tests hold both to what evaluating
afresh gives, byte for byte: the bypass may only ever skip work.
"""

import math

import numpy as np
import pytest

from repro.blocks.diode import DiodeParameters, ShockleyDiode
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.harvester.scenarios import charging_scenario

NAN = float("nan")
INF = float("inf")


def fresh_currents(vd):
    diode = ShockleyDiode(DiodeParameters())
    return np.array([diode.current(float(v)) for v in vd])


def branch_voltage_sequence():
    """Diode-voltage vectors with repeats, signed zeros, NaN, infinities and
    single-entry perturbations, in the order a Newton iteration reads them."""
    base = np.array([-0.31, 0.42, -1.7, 0.65, 3.2])
    vectors = [base, base.copy(), np.array([0.0, -0.0, 0.0, -0.0, 0.0])]
    vectors.append(np.array([-0.0, 0.0, -0.0, 0.0, -0.0]))
    vectors.append(np.array([NAN, 0.42, NAN, -NAN, 3.2]))
    vectors.append(np.array([INF, -INF, 0.42, INF, -INF]))
    for k in range(base.size):
        for direction in (INF, -INF):
            moved = base.copy()
            moved[k] = np.nextafter(moved[k], direction)
            vectors.append(moved)
            vectors.append(base.copy())
    vectors.append(np.array([5e-324, -5e-324, 1e-300, -1e-300, 0.0]))
    return vectors


def test_diode_currents_equal_fresh_shockley_bytewise():
    block = DicksonMultiplier()
    for vd in branch_voltage_sequence():
        got = block._diode_currents(vd)
        want = fresh_currents(vd)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), vd


def test_diode_currents_stay_exact_across_memo_clears():
    block = DicksonMultiplier()
    rng = np.random.default_rng(7)
    pool = rng.uniform(-2.0, 1.0, 3 * block._DIODE_MEMO_SIZE)
    for _ in range(4 * block._DIODE_MEMO_SIZE // block.n_stages):
        vd = rng.choice(pool, block.n_stages)
        assert block._diode_currents(vd).tobytes() == fresh_currents(vd).tobytes()
        assert len(block._diode_memo) < block._DIODE_MEMO_SIZE + block.n_stages


def test_bypass_solves_only_moved_branches(monkeypatch):
    block = DicksonMultiplier()
    solved = []
    real_solve = ShockleyDiode._solve

    def counting_solve(self, v):
        solved.append(v)
        return real_solve(self, v)

    monkeypatch.setattr(ShockleyDiode, "_solve", counting_solve)
    base = np.array([-0.31, 0.42, -1.7, 0.65, 3.2])
    block._diode_currents(base)
    assert len(solved) == 5
    block._diode_currents(base.copy())
    assert len(solved) == 5
    moved = base.copy()
    moved[1] += 1e-9
    block._diode_currents(moved)
    assert solved[5:] == [moved[1]]
    # -0.0 and 0.0 are different keys; a NaN is solved every time
    block._diode_currents(np.array([0.0, 0.0, -0.0, NAN, NAN]))
    assert len(solved) == 6 + 4
    assert math.copysign(1.0, solved[7]) == -1.0
    block._diode_currents(np.array([0.0, -0.0, NAN, 0.0, -0.0]))
    assert len(solved) == 6 + 4 + 1


def test_table_diode_path_keeps_no_memo():
    block = DicksonMultiplier(use_exact_diode_in_derivatives=False)
    vd = np.array([-0.31, 0.42, -1.7, 0.65, 3.2])
    table = block.companion_table
    want = np.array([table.branch_current(float(v)) for v in vd])
    assert block._diode_currents(vd).tobytes() == want.tobytes()
    assert block._diode_memo == {}


def generator():
    return charging_scenario(0.01).build_harvester().block("generator")


def generator_with_force(force):
    block = generator()
    block.apply_control("tuning_force", force)
    return block


def fresh_stamps(block):
    block._stamp_cache = None
    return block._stamps()


def test_returned_stamps_are_read_only():
    block = generator()
    jxx, jxy, ex = block._matrices(0.0)
    for stamp in (jxx, jxy):
        with pytest.raises(ValueError):
            stamp[0, 0] = 1.0
    lin = block.linearise(0.0, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        lin.jxx[1, 0] = 1.0
    # the per-call excitation column stays the caller's
    ex[1] = 1.0


def test_stamps_are_rebuilt_when_the_tuning_force_or_params_change():
    block = generator()
    before = block._stamps()
    assert block._stamps()[0] is before[0]
    block.apply_control("tuning_force", 1.25)
    after = block._stamps()
    assert after[0] is not before[0]
    for got, want in zip(after, fresh_stamps(generator_with_force(1.25))):
        assert got.tobytes() == want.tobytes()
    # a stamp held across the write keeps the values it was built with
    for got, want in zip(before, fresh_stamps(generator())):
        assert got.tobytes() == want.tobytes()

    fields = {name: getattr(block.params, name) for name in block.params._FIELDS}
    fields["coil_inductance"] *= 2.0
    block.params = type(block.params)(**fields)
    rebuilt = block._stamps()
    assert rebuilt[1] is not after[1]
    assert rebuilt[1][2, 0] == -1.0 / fields["coil_inductance"]


def test_derivatives_equal_fresh_stamps_bytewise():
    block = generator()
    rng = np.random.default_rng(3)
    for force in (0.0, 0.7, 0.7, -0.0, 2.5):
        block.apply_control("tuning_force", force)
        x, y = rng.normal(size=3), rng.normal(size=2)
        got = block.derivatives(0.013, x, y)
        jxx, jxy = fresh_stamps(generator_with_force(force))
        _, _, ex = block._matrices(0.013)
        want = jxx @ x + jxy @ y + ex
        assert got.tobytes() == want.tobytes()
