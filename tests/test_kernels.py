"""Tests for the kernel functions: defining first-order systems and values."""

import cmath
import random
from fractions import Fraction

import pytest

from diffkern.kernels import (
    default_gamma_sign,
    kern_phi0,
    kern_psi_mult,
    phi_A,
    phi_BC,
    phi_BC_product,
    phi_minus_k,
    psi_A,
    psi_BC,
)
from diffkern.laurent import LaurentPoly
from diffkern.operators import ParamsA, ParamsBC
from diffkern.sigma import FamilyKind, GammaSign, SigmaFamily, qpoch, sigma_eval

RNG_SEED = 90210

DELTA = 0.15 + 0.45j
KAPPA = -0.21 + 0.33j
V_PAR = 0.07 - 0.11j

MU_POOL = (
    0.11 + 0.07j,
    -0.19 + 0.05j,
    0.23 - 0.14j,
    0.31 + 0.17j,
    -0.12 - 0.21j,
    0.16 + 0.25j,
    -0.27 + 0.09j,
    0.21 - 0.11j,
)


def close(a, b, tol=1e-10):
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


def random_point(rng, m, spread=0.25):
    return tuple(
        complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(m)
    )


@pytest.fixture(scope="module")
def families():
    return {
        "rational": SigmaFamily.rational(),
        "trig": SigmaFamily.trigonometric(),
        "elliptic": SigmaFamily.elliptic(),
    }


def a_params(fam):
    return ParamsA(DELTA, KAPPA, fam)


def bc_params(fam, kappa=KAPPA):
    return ParamsBC(MU_POOL[: 2 * fam.rho], DELTA, kappa, fam)


# ======================================================================
# parameter bundles
# ======================================================================


def test_kernels_reject_mismatched_bundles(families):
    fam = families["trig"]
    x, y = (0.1,), (0.2,)
    with pytest.raises(TypeError, match="ParamsA"):
        phi_A(bc_params(fam), x, y)
    with pytest.raises(TypeError, match="ParamsBC"):
        phi_BC(a_params(fam), x, y)
    with pytest.raises(TypeError, match="ParamsBC"):
        phi_BC_product(a_params(fam), x, y)


def test_kernel_rejects_wrong_bundle_class_with_type_error(families):
    # a valid BC bundle handed to the type-A kernel; the check must survive
    # python -O, so it is a raise, not an assert
    with pytest.raises(TypeError, match="ParamsA"):
        phi_A(bc_params(families["trig"]), (0.1, 0.2), (0.05, -0.1))


def test_default_gamma_signs(families):
    assert default_gamma_sign(families["trig"]) is GammaSign.MINUS
    assert default_gamma_sign(families["elliptic"]) is GammaSign.PLUS
    assert default_gamma_sign(families["rational"]) is GammaSign.PLUS


# ======================================================================
# type A Cauchy kernel
# ======================================================================


def test_phi_A_trivial_cases(families):
    # kappa = 0 cannot go through ParamsA (lattice point rejected), so the
    # exercisable trivial cases are the empty products
    rng = random.Random(RNG_SEED)
    for fam in families.values():
        x, y = random_point(rng, 2), random_point(rng, 2)
        p = a_params(fam)
        assert phi_A(p, (), y, V_PAR) == 1
        assert phi_A(p, x, (), V_PAR) == 1


def test_phi_A_shift_ratio_system(families):
    # T_delta(x_i) Phi / Phi = prod_l [x_i + y_l + v - kappa]/[x_i + y_l + v]
    rng = random.Random(RNG_SEED + 1)
    for name, fam in families.items():
        p = a_params(fam)
        tol = 1e-7 if name == "elliptic" else 1e-9
        for _ in range(3):
            x, y = random_point(rng, 2), random_point(rng, 2)
            base = phi_A(p, x, y, V_PAR)
            shifted = phi_A(p, (x[0] + DELTA, x[1]), y, V_PAR)
            want = 1 + 0j
            for yl in y:
                want *= sigma_eval(fam, x[0] + yl + V_PAR - KAPPA)
                want /= sigma_eval(fam, x[0] + yl + V_PAR)
            assert close(shifted / base, want, tol), name


def test_phi_A_both_gamma_signs_satisfy_system(families):
    rng = random.Random(RNG_SEED + 2)
    fam = families["trig"]
    x, y = random_point(rng, 1), random_point(rng, 2)
    p = a_params(fam)
    for sign in (GammaSign.MINUS, GammaSign.PLUS):
        base = phi_A(p, x, y, V_PAR, sign=sign)
        shifted = phi_A(p, (x[0] + DELTA,), y, V_PAR, sign=sign)
        want = 1 + 0j
        for yl in y:
            want *= sigma_eval(fam, x[0] + yl + V_PAR - KAPPA)
            want /= sigma_eval(fam, x[0] + yl + V_PAR)
        assert close(shifted / base, want, 1e-9), sign


def test_psi_A_values(families):
    fam = families["trig"]
    x = (0.3 + 0.1j, -0.2 + 0.05j)
    y = (0.12 - 0.07j,)
    want = 1 + 0j
    for xj in x:
        for yl in y:
            want *= sigma_eval(fam, xj - yl + V_PAR)
    assert close(psi_A(x, y, V_PAR, fam), want, 1e-12)
    # a vanishing factor kills the product
    assert abs(psi_A((y[0] - V_PAR,), y, V_PAR, fam)) < 1e-12


def test_psi_A_shift_ratio_system(families):
    # second compatible case: T_kappa(y_k) Psi / Psi
    # = prod_j [y_k - x_j - v + kappa]/[y_k - x_j - v]
    rng = random.Random(RNG_SEED + 3)
    for name, fam in families.items():
        x, y = random_point(rng, 2), random_point(rng, 2)
        base = psi_A(x, y, V_PAR, fam)
        shifted = psi_A(x, (y[0] + KAPPA, y[1]), V_PAR, fam)
        want = 1 + 0j
        for xj in x:
            want *= sigma_eval(fam, y[0] - xj - V_PAR + KAPPA)
            want /= sigma_eval(fam, y[0] - xj - V_PAR)
        tol = 1e-8 if name == "elliptic" else 1e-10
        assert close(shifted / base, want, tol), name


# ======================================================================
# type BC Cauchy kernel
# ======================================================================


def test_phi_BC_shift_ratio_system_both_forms(families):
    # T_delta(x_i) Phi / Phi
    # = prod_l [x_i +- y_l + (delta-kappa)/2]/[x_i +- y_l + (delta+kappa)/2]
    rng = random.Random(RNG_SEED + 4)
    for name, fam in families.items():
        for kernel in (phi_BC, phi_BC_product):
            p = bc_params(fam)
            tol = 1e-6 if name == "elliptic" else 1e-9
            x, y = random_point(rng, 2, 0.2), random_point(rng, 2, 0.2)
            base = kernel(p, x, y)
            shifted = kernel(p, (x[0] + DELTA, x[1]), y)
            want = 1 + 0j
            for yl in y:
                for eps in (1, -1):
                    u = x[0] + eps * yl
                    want *= sigma_eval(fam, u + (DELTA - KAPPA) / 2)
                    want /= sigma_eval(fam, u + (DELTA + KAPPA) / 2)
            assert close(shifted / base, want, tol), (name, kernel.__name__)


def test_phi_BC_y_shift_ratio(families):
    rng = random.Random(RNG_SEED + 5)
    fam = families["trig"]
    p = bc_params(fam)
    x, y = random_point(rng, 2, 0.2), random_point(rng, 2, 0.2)
    base = phi_BC(p, x, y)
    shifted = phi_BC(p, x, (y[0] + DELTA, y[1]))
    want = 1 + 0j
    for xj in x:
        for eps in (1, -1):
            u = y[0] + eps * xj
            want *= sigma_eval(fam, u + (DELTA - KAPPA) / 2)
            want /= sigma_eval(fam, u + (DELTA + KAPPA) / 2)
    assert close(shifted / base, want, 1e-9)


def test_phi_BC_forms_differ_by_delta_periodic_factor(families):
    # the ratio(form1/form2) must be exactly delta-periodic in x_1
    rng = random.Random(RNG_SEED + 6)
    for name in ("trig", "elliptic"):
        fam = families[name]
        p = bc_params(fam)
        x, y = random_point(rng, 2, 0.2), random_point(rng, 2, 0.2)
        xs = (x[0] + DELTA, x[1])
        ratio_here = phi_BC(p, x, y) / phi_BC_product(p, x, y)
        ratio_shift = phi_BC(p, xs, y) / phi_BC_product(p, xs, y)
        tol = 1e-6 if name == "elliptic" else 1e-9
        assert close(ratio_here, ratio_shift, tol), name


def test_phi_BC_kappa_equals_delta_collapses(families):
    # with kappa = delta the ratio form telescopes to prod 1/[x +- y]
    rng = random.Random(RNG_SEED + 7)
    for name, fam in families.items():
        p = bc_params(fam, kappa=DELTA)
        x, y = random_point(rng, 1, 0.2), random_point(rng, 1, 0.2)
        got = phi_BC(p, x, y)
        want = 1 / (
            sigma_eval(fam, x[0] + y[0]) * sigma_eval(fam, x[0] - y[0])
        )
        tol = 1e-6 if name == "elliptic" else 1e-9
        assert close(got, want, tol), name


def test_phi_BC_empty_is_one(families):
    assert phi_BC(bc_params(families["trig"]), (), ()) == 1


def test_psi_BC_values_and_symmetry(families):
    rng = random.Random(RNG_SEED + 8)
    for fam in families.values():
        x, y = random_point(rng, 2), random_point(rng, 2)
        want = 1 + 0j
        for xj in x:
            for yl in y:
                want *= sigma_eval(fam, xj + yl) * sigma_eval(fam, xj - yl)
        got = psi_BC(x, y, fam)
        assert close(got, want, 1e-10)
        # each y_l -> -y_l swaps the two factors of every (j, l) pair, so
        # the kernel is exactly even in every y variable
        assert close(psi_BC(x, (-y[0], y[1]), fam), got, 1e-9)
        x1 = (x[0],)
        assert close(psi_BC(x1, (-y[0], y[1]), fam), psi_BC(x1, y, fam), 1e-9)
    assert psi_BC((), (0.3,), families["trig"]) == 1
    assert abs(psi_BC((0.25,), (0.25,), families["trig"])) < 1e-12


def test_psi_BC_shift_ratio_system(families):
    # T_delta(x_i) Psi / Psi = prod_l [x_i +- y_l + delta]/[x_i +- y_l]
    rng = random.Random(RNG_SEED + 9)
    for name, fam in families.items():
        x, y = random_point(rng, 2, 0.2), random_point(rng, 2, 0.2)
        base = psi_BC(x, y, fam)
        shifted = psi_BC((x[0] + DELTA, x[1]), y, fam)
        want = 1 + 0j
        for yl in y:
            for eps in (1, -1):
                want *= sigma_eval(fam, x[0] + eps * yl + DELTA)
                want /= sigma_eval(fam, x[0] + eps * yl)
        tol = 1e-8 if name == "elliptic" else 1e-10
        assert close(shifted / base, want, tol), name


# ======================================================================
# multiplicative trigonometric kernels
# ======================================================================


@pytest.mark.parametrize("variant", ["zero", "plus", "minus"])
def test_kern_phi0_shift_ratio_system(variant):
    # all variants satisfy the same first-order system as the BC Cauchy
    # kernel; this also pins down the prefactors
    fam = SigmaFamily.trigonometric()
    rng = random.Random(RNG_SEED + 10)
    x, y = random_point(rng, 2, 0.2), random_point(rng, 1, 0.2)
    base = kern_phi0(x, y, DELTA, KAPPA, variant=variant)
    shifted = kern_phi0((x[0] + DELTA, x[1]), y, DELTA, KAPPA, variant=variant)
    want = 1 + 0j
    for yl in y:
        for eps in (1, -1):
            u = x[0] + eps * yl
            want *= sigma_eval(fam, u + (DELTA - KAPPA) / 2)
            want /= sigma_eval(fam, u + (DELTA + KAPPA) / 2)
    assert close(shifted / base, want, 1e-9), variant


@pytest.mark.parametrize("variant", ["zero", "plus", "minus"])
def test_kern_phi0_y_shift_ratio(variant):
    fam = SigmaFamily.trigonometric()
    rng = random.Random(RNG_SEED + 11)
    x, y = random_point(rng, 1, 0.2), random_point(rng, 2, 0.2)
    base = kern_phi0(x, y, DELTA, KAPPA, variant=variant)
    shifted = kern_phi0(x, (y[0] + DELTA, y[1]), DELTA, KAPPA, variant=variant)
    want = 1 + 0j
    for xj in x:
        for eps in (1, -1):
            u = y[0] + eps * xj
            want *= sigma_eval(fam, u + (DELTA - KAPPA) / 2)
            want /= sigma_eval(fam, u + (DELTA + KAPPA) / 2)
    assert close(shifted / base, want, 1e-9), variant


def test_kern_phi0_infinity_is_inverted_zero():
    rng = random.Random(RNG_SEED + 12)
    x, y = random_point(rng, 2, 0.2), random_point(rng, 1, 0.2)
    a = kern_phi0(x, y, DELTA, KAPPA, variant="infinity")
    b = kern_phi0(tuple(-v for v in x), y, DELTA, KAPPA, variant="zero")
    assert close(a, b, 1e-12)


def test_kern_phi0_unknown_variant():
    with pytest.raises(ValueError):
        kern_phi0((0.1,), (0.2,), DELTA, KAPPA, variant="best")


# ======================================================================
# exact kernels
# ======================================================================


def test_kern_psi_mult_structure():
    psi = kern_psi_mult(2, 1)
    assert psi.m == 3
    # degree m*n = 2 in the z block (doubled exponents)
    assert max(exp[0] + exp[1] for exp in psi.terms) == 4
    # z_1 = w_1 kills the product: evaluate on the sqrt diagonal
    assert abs(psi.eval_at((0.7 + 0.2j, 1.1, 0.7 + 0.2j))) < 1e-12
    # numeric agreement with the defining product
    pt = (0.9 + 0.3j, 0.8 - 0.1j, 1.05 + 0.2j)
    z = [s * s for s in pt[:2]]
    w = [pt[2] ** 2]
    want = 1 + 0j
    for zj in z:
        for wl in w:
            want *= zj + 1 / zj - wl - 1 / wl
    assert close(psi.eval_at(pt), want, 1e-12)


def test_kern_psi_mult_W_invariance_blockwise():
    psi = kern_psi_mult(2, 2)
    # swap z_1, z_2
    assert psi.permute((1, 0, 2, 3)) == psi
    # invert z_1
    assert psi.substitute(0, invert=True) == psi
    # swap w_1, w_2 and invert w_2
    assert psi.permute((0, 1, 3, 2)) == psi
    assert psi.substitute(3, invert=True) == psi


def test_phi_minus_k_base_cases():
    assert phi_minus_k(1, 1, Fraction(1, 4), 0) == LaurentPoly.one(2)
    got = phi_minus_k(1, 1, Fraction(1, 4), 1)
    want = LaurentPoly(
        2,
        {
            (0, 2): Fraction(1),
            (0, -2): Fraction(1),
            (2, 0): Fraction(-1),
            (-2, 0): Fraction(-1),
        },
    )
    assert got == want


def test_phi_minus_k_odd_k_allows_non_square_q():
    # k = 1 uses only integer powers of q
    got = phi_minus_k(1, 1, Fraction(1, 3), 1)
    assert got.coefficient((0, 2)) == 1


def test_phi_minus_k_even_k_requires_square_q():
    with pytest.raises(ValueError):
        phi_minus_k(1, 1, Fraction(1, 3), 2)


def test_phi_minus_k_against_direct_product():
    q = Fraction(1, 4)
    sq = Fraction(1, 2)
    got = phi_minus_k(2, 1, q, 2)
    # direct evaluation of prod_{j} [w; q^(-1/2) z_j][w; q^(1/2) z_j]
    pt = (0.9 + 0.3j, 0.8 - 0.2j, 1.1 + 0.15j)
    z = [s * s for s in pt[:2]]
    w = pt[2] ** 2
    want = 1 + 0j
    for zj in z:
        for aval in (zj / complex(sq), zj * complex(sq)):
            want *= w + 1 / w - aval - 1 / aval
    assert close(got.eval_at(pt), want, 1e-12)


def test_phi_minus_k_negative_k():
    with pytest.raises(ValueError):
        phi_minus_k(1, 1, Fraction(1, 4), -1)
