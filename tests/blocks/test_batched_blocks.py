"""Batched vs scalar block equivalence (the lane-parallel contract).

Property-style check: for every registered stock analogue block, the
batched linearisation of ``B`` parameter-varied lanes must stack exactly
the per-lane scalar linearisations — bit-identical, not merely close —
at randomised operating points.  This is the contract that makes every
batched lane bitwise its scalar run, and it covers both each block's
``batched_lineariser`` (electromagnetic generator, Dickson multiplier,
supercapacitor, and the electrostatic generator's bound
finite-difference sweep) and the fallback of
:func:`~repro.core.linearise.linearise_block_lanes` for blocks without
one (piezoelectric via stacked scalar ``linearise``).
"""

import math

import numpy as np
import pytest

from repro.blocks.diode import (
    DiodeParameters,
    ShockleyDiode,
    build_diode_companion_table,
)
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.block import BatchedLinearisation, LinearBlock
from repro.core.builder import BuildContext
from repro.core.linearise import (
    linearise_block,
    linearise_block_lanes,
    linearise_lanes_numerically,
)
from repro.core.pwl import CompanionTable, PWLTable, build_companion_table
from repro.core.registry import BLOCK_REGISTRY

BLOCK_REGISTRY.ensure_default_library()

N_LANES = 5


def _lane_accelerations(rng):
    """Per-lane sinusoidal excitations with distinct frequency/amplitude."""
    sources = []
    for _ in range(N_LANES):
        freq = float(rng.uniform(40.0, 90.0))
        amp = float(rng.uniform(0.2, 1.0))
        sources.append(
            lambda t, f=freq, a=amp: a * math.sin(2.0 * math.pi * f * t)
        )
    return sources


def _jitter(rng, value, spread=0.4):
    """Multiplicative per-lane perturbation of a positive base value."""
    return float(value * (1.0 + spread * (rng.random() - 0.5)))


def _build_lanes(key, rng, param_fn):
    accelerations = _lane_accelerations(rng)
    lanes = []
    for i in range(N_LANES):
        context = BuildContext(acceleration=accelerations[i])
        lanes.append(
            BLOCK_REGISTRY.create(key, "block", param_fn(rng, i), context)
        )
    return lanes


def _lane_params(key, rng, i):
    """Randomised per-lane parameters for each registered stock block."""
    if key == "electromagnetic_generator":
        return {
            "proof_mass_kg": _jitter(rng, 0.05),
            "parasitic_damping": _jitter(rng, 0.1),
            "spring_stiffness": _jitter(rng, 9000.0),
            "flux_linkage": _jitter(rng, 14.0),
            "coil_resistance": _jitter(rng, 1500.0),
            "coil_inductance": _jitter(rng, 1.0),
            "buckling_load_n": _jitter(rng, 4.5),
            "initial_tuning_force_n": float(rng.uniform(0.0, 3.0)),
        }
    if key == "piezoelectric_generator":
        return {
            "proof_mass_kg": _jitter(rng, 0.008),
            "spring_stiffness": _jitter(rng, 1500.0),
            "series_resistance_ohm": float(rng.uniform(0.0, 100.0)),
        }
    if key == "electrostatic_generator":
        # odd lanes exercise the bias-replenishment + series-R path, even
        # lanes the strict charge-constrained model
        return {
            "proof_mass_kg": _jitter(rng, 0.002),
            "spring_stiffness": _jitter(rng, 400.0),
            "plate_area_m2": _jitter(rng, 4e-4),
            "nominal_gap_m": _jitter(rng, 100e-6),
            "bias_charge_c": _jitter(rng, 2e-8),
            "series_resistance_ohm": 1e6 if i % 2 else 0.0,
            "bias_voltage_v": 5.0 if i % 2 else 0.0,
            "recharge_resistance_ohm": 2e6 if i % 2 else 0.0,
        }
    if key == "dickson_multiplier":
        return {
            "stage_capacitance_f": _jitter(rng, 10e-6),
            "output_capacitance_f": _jitter(rng, 220e-6),
            "input_capacitance_f": _jitter(rng, 0.1e-6),
        }
    if key == "supercapacitor":
        return {
            "immediate_resistance_ohm": _jitter(rng, 2.5),
            "immediate_capacitance_f": _jitter(rng, 0.9),
            "delayed_resistance_ohm": _jitter(rng, 90.0),
            "leakage_resistance_ohm": 5000.0 if i % 2 else 0.0,
            "initial_voltage_v": float(rng.uniform(0.0, 4.0)),
            "load_awake_ohm": _jitter(rng, 33.0),
        }
    raise AssertionError(f"no lane parameters defined for {key!r}")


def _operating_points(rng, block):
    x = rng.standard_normal((N_LANES, block.n_states)) * 0.5
    y = rng.standard_normal((N_LANES, block.n_terminals)) * 0.5
    return x, y


def _assert_stacks_equal(batched, lanes, t, x, y):
    """Batched linearisation must equal per-lane scalar results bitwise
    (``tobytes`` tells -0.0 from 0.0).

    ``t`` holds each lane's own time point.
    """
    assert isinstance(batched, BatchedLinearisation)
    rep = lanes[0]
    batched.validate(len(lanes), rep.n_states, rep.n_terminals, rep.n_algebraic)
    for i, lane in enumerate(lanes):
        scalar = linearise_block(lane, float(t[i]), x[i], y[i])
        for attr in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
            got = np.ascontiguousarray(getattr(batched, attr)[i])
            want = np.ascontiguousarray(getattr(scalar, attr))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                f"{type(lane).__name__}.{attr} lane {i}: batched != scalar "
                f"(max abs diff {np.max(np.abs(got - want))})"
            )


STOCK_ANALOGUE_KEYS = sorted(BLOCK_REGISTRY.keys(role="analogue"))


def test_all_stock_analogue_blocks_are_covered():
    # the parameterised test below must enumerate the full stock library;
    # a newly registered analogue block has to be added to _lane_params
    assert STOCK_ANALOGUE_KEYS == [
        "dickson_multiplier",
        "electromagnetic_generator",
        "electrostatic_generator",
        "piezoelectric_generator",
        "supercapacitor",
    ]


#: stock blocks that define a batched lineariser; the others are
#: linearised through linearise_block_lanes
PREPARED_KEYS = {
    "dickson_multiplier",
    "electromagnetic_generator",
    "electrostatic_generator",
    "supercapacitor",
}


@pytest.mark.parametrize("key", STOCK_ANALOGUE_KEYS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_lineariser_stacks_scalar_linearise(key, seed):
    rng = np.random.default_rng(seed)
    lanes = _build_lanes(key, rng, lambda r, i: _lane_params(key, r, i))
    # bound positionally, the way the batched assembler binds it, then
    # called at several points as the refresh calls it
    prepared = lanes[0].batched_lineariser(lanes)
    assert (prepared is not None) == (key in PREPARED_KEYS)
    for _ in range(3):
        x, y = _operating_points(rng, lanes[0])
        t = rng.uniform(0.0, 0.05, size=N_LANES)  # every lane on its own clock
        if prepared is None:
            batched = linearise_block_lanes(lanes, t, x, y)
        else:
            batched = prepared.lineariser(t, x, y)
        _assert_stacks_equal(batched, lanes, t, x, y)


@pytest.mark.parametrize("key", STOCK_ANALOGUE_KEYS)
def test_evaluate_batch_stacks_scalar_evaluation(key):
    rng = np.random.default_rng(7)
    lanes = _build_lanes(key, rng, lambda r, i: _lane_params(key, r, i))
    x, y = _operating_points(rng, lanes[0])
    t = 0.0123 + 0.001 * np.arange(N_LANES)
    dxdt, res_y = lanes[0].evaluate_batch(lanes, t, x, y)
    assert dxdt.shape == (N_LANES, lanes[0].n_states)
    assert res_y.shape == (N_LANES, lanes[0].n_algebraic)
    for i, lane in enumerate(lanes):
        t_i = float(t[i])
        assert np.array_equal(dxdt[i], lane.derivatives(t_i, x[i], y[i]))
        if lane.n_algebraic:
            assert np.array_equal(
                res_y[i], lane.algebraic_residual(t_i, x[i], y[i])
            )


def test_electrostatic_batched_fd_matches_scalar_fd():
    # the electrostatic block has no analytic linearise: its bound
    # lineariser is the vectorised finite-difference sweep, bit-identical
    # to each lane's scalar central differences and to the unbound sweep,
    # and it evaluates each lane's excitation once per refresh (not once
    # per each of the sweep's 11 evaluations)
    rng = np.random.default_rng(3)
    calls = [0] * N_LANES

    def counted(i, source):
        def acceleration(t):
            calls[i] += 1
            return source(t)

        return acceleration

    sources = _lane_accelerations(rng)
    lanes = [
        BLOCK_REGISTRY.create(
            "electrostatic_generator",
            "block",
            _lane_params("electrostatic_generator", rng, i),
            BuildContext(acceleration=counted(i, sources[i])),
        )
        for i in range(N_LANES)
    ]
    assert all(
        lane.linearise(0.0, np.zeros(3), np.zeros(2)) is None for lane in lanes
    )
    prepared = lanes[0].batched_lineariser(lanes)
    assert prepared.constant == ()
    for trial in range(2):
        x, y = _operating_points(rng, lanes[0])
        # use plate-charge-scaled states so the relative FD step paths
        # (both |x| < 1 and |x| > 1) are exercised
        x[:, 2] = rng.uniform(0.5, 2.0, size=N_LANES) * 2e-8
        t = 0.01 + 0.001 * trial + 1e-4 * np.arange(N_LANES)
        calls[:] = [0] * N_LANES
        batched = prepared.lineariser(t, x, y)
        assert calls == [1] * N_LANES, f"refresh {trial}: excitation calls {calls}"
        _assert_stacks_equal(batched, lanes, t, x, y)
        unbound = linearise_lanes_numerically(lanes, t, x, y)
        for attr in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
            assert getattr(batched, attr).tobytes() == getattr(unbound, attr).tobytes()


def test_dickson_mixed_diode_tables_take_the_lane_loop():
    # lanes with different diode parameters cannot share one companion
    # table; the batched linearisation must still stack the scalar results
    rng = np.random.default_rng(11)
    params = []
    for i in range(N_LANES):
        p = _lane_params("dickson_multiplier", rng, i)
        p["diode_saturation_current_a"] = float(1e-8 * (1 + i))
        params.append(p)
    lanes = _build_lanes("dickson_multiplier", rng, lambda r, i: params[i])
    tables = {id(lane.companion_table) for lane in lanes}
    assert len(tables) == N_LANES
    x, y = _operating_points(rng, lanes[0])
    t = np.zeros(N_LANES)
    batched = linearise_block_lanes(lanes, t, x, y)
    _assert_stacks_equal(batched, lanes, t, x, y)


def _dickson_states(rng, lane):
    """Per-lane states whose diode voltages sweep reverse bias, the knee
    and forward bias (a least-squares solve of ``vd = C @ x``)."""
    coefficients = lane._diode_voltage_coefficients()
    n = lane.n_stages
    regions = [(-8.0, -0.5), (0.2, 0.7), (0.8, 3.0)]
    vd = np.stack(
        [
            [rng.uniform(*regions[(i + k) % 3]) for k in range(n)]
            for i in range(N_LANES)
        ]
    )
    x = np.linalg.lstsq(coefficients, vd.T, rcond=None)[0].T
    return x, vd


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_lane"])
def test_dickson_plan_is_stacked_scalar_linearise_bytewise(shared):
    # one Jacobian assembly for lanes: the plan reused across refreshes
    # and a fresh plan are both the scalar linearise byte for byte
    # (tobytes tells -0.0 from 0.0), with one shared companion table or
    # one per lane
    rng = np.random.default_rng(13)
    lanes = [
        DicksonMultiplier(
            stage_capacitance_f=_jitter(rng, 10e-6),
            output_capacitance_f=_jitter(rng, 220e-6),
            input_capacitance_f=_jitter(rng, 0.1e-6),
            diode_params=DiodeParameters(
                saturation_current_a=1e-8 if shared else 1e-8 * (1 + i)
            ),
        )
        for i in range(N_LANES)
    ]
    n_tables = len({id(lane.companion_table) for lane in lanes})
    assert n_tables == (1 if shared else N_LANES)
    plan = lanes[0].batched_lineariser(lanes)
    for trial in range(20):
        x, vd = _dickson_states(rng, lanes[0])
        y = rng.standard_normal((N_LANES, 4))
        t = rng.uniform(0.0, 0.05, size=N_LANES)
        reused = plan.lineariser(t, x, y)
        fresh = lanes[0].batched_lineariser(lanes).lineariser(t, x, y)
        for i, lane in enumerate(lanes):
            scalar = lane.linearise(float(t[i]), x[i], y[i])
            for attr in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
                want = getattr(scalar, attr).tobytes()
                for lin in (reused, fresh):
                    got = np.ascontiguousarray(getattr(lin, attr)[i]).tobytes()
                    assert got == want, f"trial {trial} lane {i} {attr}"
    # the states covered every bias region
    assert vd.min() < -0.5 and vd.max() > 0.8
    assert np.any((vd > 0.2) & (vd < 0.7))


def _uniform_table():
    """A uniform-grid diode companion table (the O(1) floor lookup)."""
    diode = ShockleyDiode(DiodeParameters())
    table = build_companion_table(diode.current, None, -3.0, 1.5, 181)
    assert table.g_table.is_uniform and table.extrapolates
    return table


def _range_checked_table():
    """The stock diode table with both lookups range-checked."""
    stock = build_diode_companion_table(DiodeParameters())
    g, j = stock.g_table, stock.j_table
    table = CompanionTable(
        PWLTable(g.breakpoints, g.values, extrapolate=False),
        PWLTable(j.breakpoints, j.values, extrapolate=False),
    )
    assert not table.extrapolates
    return table


#: companion tables of the lock-in test: the stock (non-uniform,
#: extrapolating) table, a uniform grid and a range-checked table
LOCK_IN_TABLES = {
    "stock": lambda: build_diode_companion_table(DiodeParameters()),
    "uniform": _uniform_table,
    "range_checked": _range_checked_table,
}


def _lock_in_states(rng, lanes, in_range):
    """Per-lane states across reverse bias, the knee and forward bias,
    with signed zeros, NaN and (unless the table range-checks) ±inf."""
    n = lanes[0].n_stages
    x = rng.uniform(-1.5, 1.5, size=(len(lanes), n + 1))
    special = rng.random(x.shape) < 0.15
    values = [0.0, -0.0, np.nan, -np.nan] + ([] if in_range else [np.inf, -np.inf])
    x[special] = rng.choice(values, size=int(special.sum()))
    return x


@pytest.mark.parametrize("table_kind", sorted(LOCK_IN_TABLES))
@pytest.mark.parametrize("n_stages", range(2, 8))
@pytest.mark.parametrize("n_lanes", [1, 8, 64])
def test_dickson_lineariser_locks_in_scalar_linearise_bytewise(
    table_kind, n_stages, n_lanes
):
    # every pump pattern (2-7 stages) at every lane count, bytewise (NaN
    # bits and signed zeros included) each lane's scalar linearise; the
    # first result is held across a second call on the same plan, so a
    # reused buffer must not alias what a caller still holds
    rng = np.random.default_rng(1000 * n_stages + n_lanes)
    table = LOCK_IN_TABLES[table_kind]()
    lanes = [
        DicksonMultiplier(
            n_stages=n_stages,
            stage_capacitance_f=_jitter(rng, 10e-6),
            output_capacitance_f=_jitter(rng, 220e-6),
            input_capacitance_f=_jitter(rng, 0.1e-6),
            companion_table=table,
        )
        for _ in range(n_lanes)
    ]
    plan = lanes[0].batched_lineariser(lanes).lineariser
    in_range = not table.extrapolates
    calls = []
    for _ in range(2):
        x = _lock_in_states(rng, lanes, in_range)
        y = rng.standard_normal((n_lanes, 4))
        t = rng.uniform(0.0, 0.05, size=n_lanes)
        with np.errstate(invalid="ignore", over="ignore"):
            calls.append((t, x, y, plan(t, x, y)))
    for call, (t, x, y, lin) in enumerate(calls):
        for i, lane in enumerate(lanes):
            with np.errstate(invalid="ignore", over="ignore"):
                scalar = lane.linearise(float(t[i]), x[i], y[i])
            for attr in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
                got = np.ascontiguousarray(getattr(lin, attr)[i]).tobytes()
                want = getattr(scalar, attr).tobytes()
                assert got == want, f"call {call} lane {i} {attr}"


def test_linear_block_batched_port():
    rng = np.random.default_rng(5)
    lanes = []
    for i in range(3):
        a = -np.diag(rng.uniform(1.0, 5.0, size=2))
        b = rng.standard_normal((2, 1))
        c = rng.standard_normal((1, 2))
        d = rng.standard_normal((1, 1)) + 2.0
        lanes.append(
            LinearBlock(
                "lin",
                a,
                b,
                state_names=("s0", "s1"),
                terminal_names=("p",),
                c=c,
                d=d,
                excitation=lambda t, k=i: np.array([math.sin(t + k), 0.0]),
            )
        )
    x = rng.standard_normal((3, 2))
    y = rng.standard_normal((3, 1))
    t = np.array([0.2, 0.3, 0.4])
    prepared = lanes[0].batched_lineariser(lanes)
    _assert_stacks_equal(prepared.lineariser(t, x, y), lanes, t, x, y)
