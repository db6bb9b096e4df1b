"""The stacked evaluation forms against the scalar model equations.

``derivatives_at`` / ``algebraic_residuals_at`` evaluate a block at ``P``
points in one call; the Newton-Raphson baseline's Jacobian evaluates each
block's perturbed columns through them.  Every vectorised override must be
``np.stack`` of the scalar calls byte for byte (random points, signed
zeros, infinities and NaN, diode-memo clears, the table-mode multiplier, a
retuned generator), and :func:`~repro.core.linearise.stacked_forms` must
fall back to the per-point default wherever an override would bypass a
scalar method that a subclass or an instance replaced.
"""

import numpy as np
import pytest

from repro.blocks.supercapacitor import Supercapacitor
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.block import AnalogueBlock
from repro.core.linearise import finite_difference_jacobian, stacked_forms
from repro.harvester.scenarios import charging_scenario

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def harvester_block(name):
    harvester = charging_scenario(0.01).build_harvester()
    return next(block for block in harvester.assembler.blocks if block.name == name)


def points(block, n_points, seed, scale=1.0, special_share=0.25):
    """``n_points`` random ``(x, y)`` rows, about ``special_share`` of the
    entries replaced by a signed zero, an infinity or NaN."""
    rng = np.random.default_rng(seed)
    width = block.n_states + block.n_terminals
    z = rng.standard_normal((n_points, width)) * scale
    special = rng.random((n_points, width)) < special_share
    z[special] = rng.choice(SPECIAL, int(special.sum()))
    x = np.ascontiguousarray(z[:, : block.n_states])
    y = np.ascontiguousarray(z[:, block.n_states :])
    return x, y


def assert_stacked_is_scalar(block, reference, x, y, t=0.0123):
    """``block``'s stacked forms against ``reference``'s scalar calls, each
    on a fresh copy of its point."""
    with np.errstate(all="ignore"):
        got_fx = block.derivatives_at(t, x, y)
        got_fy = block.algebraic_residuals_at(t, x, y)
        want_fx = np.stack(
            [reference.derivatives(t, xp.copy(), yp.copy()) for xp, yp in zip(x, y)]
        )
        want_fy = np.stack(
            [reference.algebraic_residual(t, xp.copy(), yp.copy()) for xp, yp in zip(x, y)]
        )
    for got, want in ((got_fx, want_fx), (got_fy, want_fy)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), np.argwhere(
            ~((got == want) | (np.isnan(got) & np.isnan(want)))
        ).tolist()


#: stack heights across SIMD bodies and tails (the Jacobian's are 2K)
SIZES = (1, 2, 3, 5, 9, 13, 20, 40)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "table"])
@pytest.mark.parametrize("size", SIZES)
def test_multiplier_stacked_forms_are_the_scalar_calls_bytewise(exact, size):
    block = DicksonMultiplier(use_exact_diode_in_derivatives=exact)
    reference = DicksonMultiplier(use_exact_diode_in_derivatives=exact)
    for seed in range(3):
        assert_stacked_is_scalar(block, reference, *points(block, size, seed))
        assert_stacked_is_scalar(block, reference, *points(block, size, seed, scale=0.3))
        nan_heavy = points(block, size, seed, special_share=0.6)
        assert_stacked_is_scalar(block, reference, *nan_heavy)
    if not exact:
        assert block._diode_memo == {}


def test_multiplier_stacked_forms_stay_exact_across_memo_clears():
    block = DicksonMultiplier()
    reference = DicksonMultiplier()
    # 60 points are 300 branch voltages a call, more than the memo holds,
    # so each later call starts by emptying it
    x, y = points(block, 60, seed=5, scale=0.5, special_share=0.02)
    for call in range(4):
        assert_stacked_is_scalar(block, reference, x, y)
        assert len(block._diode_memo) >= block._DIODE_MEMO_SIZE
        # half the points again, half moved by one ulp
        x = x.copy()
        x[::2] = np.nextafter(x[::2], np.inf)


@pytest.mark.parametrize("n_stages", [2, 3, 6])
def test_multiplier_stacked_forms_for_other_stage_counts(n_stages):
    block = DicksonMultiplier(n_stages=n_stages)
    reference = DicksonMultiplier(n_stages=n_stages)
    assert_stacked_is_scalar(block, reference, *points(block, 30, seed=n_stages))


def numpy_scalar_derivatives(block, x, y):
    """The multiplier's derivatives as a loop over NumPy scalars."""
    _vm, im, _vc, ic = y
    i_d = block._diode_currents(block._vd_coefficients @ x)
    n = block.n_stages
    dxdt = np.zeros(n + 1)
    pump_current = 0.0
    for k in range(n):
        if block._pump_active[k]:
            downstream = i_d[k + 1] if k + 1 < n else ic
            pump_current += downstream - i_d[k]
    dxdt[0] = (im - pump_current) / block.input_capacitance_f
    for k in range(n - 1):
        dxdt[k + 1] = (i_d[k] - i_d[k + 1]) / block.capacitances[k]
    dxdt[n] = (i_d[n - 1] - ic) / block.capacitances[n - 1]
    return dxdt


@pytest.mark.parametrize("n_stages", [2, 5, 6])
def test_multiplier_float_loop_is_the_numpy_scalar_loop_bytewise(n_stages):
    block = DicksonMultiplier(n_stages=n_stages)
    for seed in range(3):
        x, y = points(block, 200, seed, special_share=0.3)
        with np.errstate(all="ignore"):
            for xp, yp in zip(x, y):
                got = block.derivatives(0.0, xp, yp)
                want = numpy_scalar_derivatives(block, xp, yp)
                assert got.tobytes() == want.tobytes(), (xp, yp)


@pytest.mark.parametrize("size", SIZES)
def test_generator_stacked_forms_are_the_scalar_calls_bytewise(size):
    block = harvester_block("generator")
    x, y = points(block, size, size, scale=1e-3, special_share=0.5)
    assert_stacked_is_scalar(block, block, x, y)
    # a retune rebuilds the stamps both forms read
    block.apply_control("tuning_force", 1.75)
    assert_stacked_is_scalar(block, block, x, y, t=0.5)
    fresh = harvester_block("generator")
    fresh.apply_control("tuning_force", 1.75)
    assert_stacked_is_scalar(block, fresh, x, y, t=0.5)


@pytest.mark.parametrize("size", SIZES)
def test_supercapacitor_stacked_forms_are_the_scalar_calls_bytewise(size):
    block = harvester_block("storage")
    for seed in range(3):
        assert_stacked_is_scalar(block, block, *points(block, size, seed))
        assert_stacked_is_scalar(block, block, *points(block, size, seed, special_share=0.6))
    block.apply_control("load_resistance", 470.0)
    assert_stacked_is_scalar(block, block, *points(block, size, 10))


def test_supercapacitor_branch_sum_keeps_signed_zeros():
    block = harvester_block("storage")
    # every branch current -0.0: the scalar np.sum starts from +0.0
    x = np.zeros((4, 3))
    y = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]])
    assert_stacked_is_scalar(block, block, x, y)
    assert_stacked_is_scalar(block, block, -x, y)


# ---------------------------------------------------------------------- #
# the override guard
# ---------------------------------------------------------------------- #
class PatchedSupercapacitor(Supercapacitor):
    """Overrides both scalar methods below the stacked overrides."""

    def derivatives(self, t, x, y):
        return 2.0 * super().derivatives(t, x, y)

    def algebraic_residual(self, t, x, y):
        return super().algebraic_residual(t, x, y) - 1.0


def is_default(form, name):
    return getattr(form, "func", None) is getattr(AnalogueBlock, name)


def test_class_overrides_count_for_their_own_class():
    for name in ("multiplier", "generator", "storage"):
        block = harvester_block(name)
        derivatives_at, residuals_at = stacked_forms(block)
        assert derivatives_at == block.derivatives_at
        assert residuals_at == block.algebraic_residuals_at
        assert not is_default(derivatives_at, "derivatives_at")


def test_subclass_scalar_override_falls_back_to_the_default():
    block = PatchedSupercapacitor()
    derivatives_at, residuals_at = stacked_forms(block)
    assert is_default(derivatives_at, "derivatives_at")
    assert is_default(residuals_at, "algebraic_residuals_at")
    x, y = points(block, 8, seed=3, special_share=0.0)
    assert derivatives_at(0.0, x, y).tobytes() == np.stack(
        [block.derivatives(0.0, xp, yp) for xp, yp in zip(x, y)]
    ).tobytes()
    assert residuals_at(0.0, x, y).tobytes() == np.stack(
        [block.algebraic_residual(0.0, xp, yp) for xp, yp in zip(x, y)]
    ).tobytes()


def test_instance_patch_falls_back_per_form(monkeypatch):
    block = harvester_block("generator")
    monkeypatch.setattr(block, "derivatives", lambda t, x, y: np.full(3, 7.0))
    derivatives_at, residuals_at = stacked_forms(block)
    assert is_default(derivatives_at, "derivatives_at")
    # the residual is still the class's own, so its override still counts
    assert residuals_at == block.algebraic_residuals_at
    x, y = points(block, 5, seed=1)
    assert np.all(derivatives_at(0.0, x, y) == 7.0)


class Decay(AnalogueBlock):
    """One state, no terminals, no algebraic rows: only the defaults."""

    def __init__(self):
        super().__init__("decay", state_names=("v",), terminal_names=())

    def derivatives(self, t, x, y):
        return -t * x

    def algebraic_residual(self, t, x, y):
        raise AssertionError("a block with no algebraic rows is never asked")


def test_default_forms_stack_the_scalar_calls():
    block = Decay()
    x = np.array([[1.5], [-0.0], [np.inf]])
    y = np.zeros((3, 0))
    want = np.stack([block.derivatives(2.0, xp, yp) for xp, yp in zip(x, y)])
    assert block.derivatives_at(2.0, x, y).tobytes() == want.tobytes()
    assert block.algebraic_residuals_at(2.0, x, y).shape == (3, 0)


@pytest.mark.parametrize("patch", ["subclass", "instance", "instance_after_a_jacobian"])
def test_step_jacobian_reads_a_replaced_scalar_method(patch, monkeypatch):
    # the assembler decides each block's class part of stacked_forms once,
    # on its first Jacobian; an instance patch made after that still counts
    harvester = charging_scenario(0.01).build_harvester()
    assembler = harvester.assembler
    storage = next(block for block in assembler.blocks if block.name == "storage")
    n = assembler.n_states
    rng = np.random.default_rng(4)
    z = rng.standard_normal(n + assembler.n_terminals)

    def state_rows(states, x, f_x):
        return x - 1e-4 * f_x

    def residual(zv):
        f_x, f_y = assembler.full_residual(0.01, zv[:n], zv[n:])
        return np.concatenate([zv[:n] - 1e-4 * f_x, f_y])

    if patch == "subclass":
        monkeypatch.setattr(storage, "__class__", PatchedSupercapacitor)
    else:
        if patch == "instance_after_a_jacobian":
            unpatched = assembler.step_jacobian(0.01, z, state_rows)
        derivatives = storage.derivatives
        monkeypatch.setattr(
            storage, "derivatives", lambda t, x, y: 2.0 * derivatives(t, x, y)
        )
    jac = assembler.step_jacobian(0.01, z, state_rows)
    assert jac.tobytes() == finite_difference_jacobian(residual, z).tobytes()
    if patch == "instance_after_a_jacobian":
        assert jac.tobytes() != unpatched.tobytes()
