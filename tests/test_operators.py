"""Tests for the difference operators, numeric and exact."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from diffkern.koornwinder import eigenvalue_d, koornwinder_poly
from diffkern import laurent
from diffkern.laurent import (
    ExactParams,
    InexactDivisionError,
    LaurentPoly,
    Partition,
    _two_term,
    divide_exact,
    orbit_sum,
    partitions_in_box,
    sym_orbit_sum,
)
from diffkern.operators import (
    ParamsA,
    ParamsBC,
    _koorn_factors,
    _koorn_own_factors,
    _product,
    apply_A,
    apply_A_higher,
    apply_D_BC,
    apply_E_BC,
    apply_koorn_mult,
    apply_macdonald_mult,
    bc_constant,
    coeff_BC,
    coeff_BC_zero,
)
from diffkern.sigma import DomainError, FamilyKind, PoleError, SigmaFamily, sigma_eval

from bc_duplication import apply_E_BC_dup, dup_prefactor
from division_spy import integer_product, primitive_part, spy_on_integer_division

RNG_SEED = 7041


def close(a, b, tol=1e-10):
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


def random_point(rng, m, spread=0.3):
    return tuple(
        complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(m)
    )


def probe_fn(x):
    return cmath.exp(0.31 * sum(x)) * (1 + 0.2 * x[0]) if x else 1.0 + 0j


@pytest.fixture(scope="module")
def families():
    return {
        "rational": SigmaFamily.rational(),
        "trig": SigmaFamily.trigonometric(),
        "elliptic": SigmaFamily.elliptic(),
    }


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

DELTA = 0.17 + 0.13j
KAPPA = -0.23 + 0.31j


def bc_params(fam):
    return ParamsBC(MU_POOL[: 2 * fam.rho], DELTA, KAPPA, fam)


# ======================================================================
# parameter validation
# ======================================================================


def test_params_A_rejects_lattice_points(families):
    with pytest.raises(DomainError):
        ParamsA(0.0, 0.3, families["rational"])
    with pytest.raises(DomainError):
        ParamsA(2.0, 0.3 + 0.1j, families["trig"])
    fam = families["elliptic"]
    with pytest.raises(DomainError):
        ParamsA(fam.omega2, 0.3 + 0.1j, fam)
    # generic values pass
    ParamsA(0.4 + 0.2j, 0.3 + 0.1j, fam)


def test_params_BC_rejects_lattice_points(families):
    mu = MU_POOL[:4]
    trig = families["trig"]
    with pytest.raises(DomainError, match="kappa = 1.0 lies in the period lattice"):
        ParamsBC(mu, 0.3 + 0.1j, 1.0, trig)
    with pytest.raises(DomainError, match="delta = -2.0 lies"):
        ParamsBC(mu, -2.0, 0.3 + 0.1j, trig)
    with pytest.raises(DomainError, match="kappa"):
        ParamsBC(MU_POOL[:2], 0.3, 0.0, families["rational"])
    fam = families["elliptic"]
    with pytest.raises(DomainError, match="delta"):
        ParamsBC(MU_POOL[:8], fam.omega1 + fam.omega2, 0.3 + 0.1j, fam)
    # generic values pass, and so do the derived bundles
    p = ParamsBC(MU_POOL[:8], 0.4 + 0.2j, 0.3 + 0.1j, fam)
    p.negated(), p.dual_nu(), p.swapped()


@pytest.mark.parametrize(
    "fam",
    [
        SigmaFamily.trigonometric(omega1=2.0),
        SigmaFamily.elliptic(omega1=2.0, omega2=0.62 + 2.4j),
        SigmaFamily.elliptic(omega1=2.0, omega2=20 + 0.02j),
    ],
    ids=["trig", "elliptic", "degenerate"],
)
def test_bundles_reject_values_within_the_lattice_band(fam):
    # the band is 1e-9 * |omega1| wide around every node, whatever the basis
    node = -3 * fam.omega1 if fam.omega2 is None else fam.omega1 - 2 * fam.omega2
    unit = abs(fam.omega1)
    mu = MU_POOL[: 2 * fam.rho]
    for turn in (1, 1j, cmath.exp(2.2j)):
        inside = node + 0.9e-9 * unit * turn
        with pytest.raises(DomainError, match="delta = .* lies in the period lattice"):
            ParamsA(inside, KAPPA, fam)
        with pytest.raises(DomainError, match="kappa = .* lies in the period lattice"):
            ParamsBC(mu, DELTA, inside, fam)
        outside = node + 1e-6 * unit * turn
        ParamsA(outside, KAPPA, fam)
        ParamsBC(mu, DELTA, outside, fam)


def test_params_BC_requires_two_rho_parameters(families):
    for name, count in (("rational", 2), ("trig", 4), ("elliptic", 8)):
        fam = families[name]
        ParamsBC(MU_POOL[:count], DELTA, KAPPA, fam)
        with pytest.raises(ValueError):
            ParamsBC(MU_POOL[: count - 1], DELTA, KAPPA, fam)


def test_c_const_matches_definition(families):
    fam = families["trig"]
    p = bc_params(fam)
    expected = sum(MU_POOL[:4]) - (DELTA + KAPPA) + fam.omega1
    assert close(p.c_const, expected)


# ======================================================================
# type A
# ======================================================================


def test_apply_A_single_variable_is_the_shift(families):
    # A_0 is an empty product at m = 1, and there is no term at m = 0
    p = ParamsA(DELTA, KAPPA, families["trig"])
    x = (0.37 + 0.05j,)
    assert apply_A(p, probe_fn, x) == probe_fn((x[0] + DELTA,))
    assert apply_A(p, probe_fn, ()) == 0


def test_apply_A_on_constants_trig_rational(families):
    # sum_i A_i = [m kappa]/[kappa] in the trigonometric and rational cases
    rng = random.Random(RNG_SEED)
    for name in ("rational", "trig"):
        fam = families[name]
        p = ParamsA(DELTA, KAPPA, fam)
        for m in (1, 2, 3):
            x = random_point(rng, m)
            got = apply_A(p, lambda _: 1.0, x)
            want = sigma_eval(fam, m * KAPPA) / sigma_eval(fam, KAPPA)
            assert close(got, want), (name, m)


def test_apply_A_higher_r1_matches_first_order(families):
    rng = random.Random(RNG_SEED + 1)
    for fam in families.values():
        p = ParamsA(DELTA, KAPPA, fam)
        x = random_point(rng, 3)
        assert close(
            apply_A_higher(p, 1, probe_fn, x), apply_A(p, probe_fn, x), 1e-12
        )


def test_apply_A_higher_top_order_shifts_everything(families):
    rng = random.Random(RNG_SEED + 2)
    for fam in families.values():
        p = ParamsA(DELTA, KAPPA, fam)
        x = random_point(rng, 3)
        shifted = tuple(v + DELTA for v in x)
        assert close(apply_A_higher(p, 3, probe_fn, x), probe_fn(shifted), 1e-12)


def test_apply_A_higher_order_validation(families):
    p = ParamsA(DELTA, KAPPA, families["trig"])
    with pytest.raises(ValueError):
        apply_A_higher(p, 0, probe_fn, (0.1, 0.2))
    with pytest.raises(ValueError):
        apply_A_higher(p, 3, probe_fn, (0.1, 0.2))


def test_higher_A_operators_commute(families):
    # D_1 and D_2 commute; checked pointwise through nested application
    rng = random.Random(RNG_SEED + 3)
    for name in ("trig", "elliptic"):
        fam = families[name]
        p = ParamsA(DELTA, KAPPA, fam)
        x = random_point(rng, 3, 0.25)

        def d1_then_d2(pt):
            return apply_A_higher(p, 1, lambda y: apply_A_higher(p, 2, probe_fn, y), pt)

        def d2_then_d1(pt):
            return apply_A_higher(p, 2, lambda y: apply_A_higher(p, 1, probe_fn, y), pt)

        tol = 1e-9 if name == "elliptic" else 1e-11
        assert close(d1_then_d2(x), d2_then_d1(x), tol), name


# ======================================================================
# type BC, numeric
# ======================================================================


def test_coeff_BC_minus_is_plus_at_negated_point(families):
    rng = random.Random(RNG_SEED + 4)
    for fam in families.values():
        p = bc_params(fam)
        x = random_point(rng, 2)
        neg = tuple(-v for v in x)
        for i in range(2):
            assert close(coeff_BC(p, x, i, -1), coeff_BC(p, neg, i, +1), 1e-12)


def test_coeff_BC_zero_index_validation(families):
    p = bc_params(families["trig"])
    with pytest.raises(ValueError):
        coeff_BC_zero(p, (0.2,), 2)
    with pytest.raises(ValueError):
        coeff_BC(p, (0.2,), 0, 0)


def test_coeff_BC_zero_builds_its_constant_part_once_per_task(families):
    rng = random.Random(RNG_SEED + 12)
    for name, fam in families.items():
        memo = fam.memoized()
        mus = MU_POOL[: 2 * fam.rho]
        # a signed-zero twin of one mu is a second parameter set
        twins = [mus, (complex(-0.0, mus[0].imag),) + mus[1:]]
        pairs = [
            (ParamsBC(mu, DELTA, KAPPA, fam), ParamsBC(mu, DELTA, KAPPA, memo))
            for mu in twins
        ]
        for _ in range(2):
            for m in (0, 1, 2):
                x = random_point(rng, m)
                for plain, memoized in pairs:
                    for r in range(fam.rho):
                        want = repr(coeff_BC_zero(plain, x, r))
                        assert repr(coeff_BC_zero(memoized, x, r)) == want, (name, m, r)
        # one entry per (mu, m, r); the value memo holds only bracket values
        assert len(memo._constants) == 2 * 3 * fam.rho, name
        assert all(key[0] == "coeff_BC_zero" for key in memo._constants)
        assert all(
            isinstance(key, complex) or key[0] in (complex, float, int)
            for key in memo._memo
        ), name


def test_coeff_BC_zero_stores_no_pole():
    # kappa - delta = omega_1 - omega_2 zeroes [(omega_2 - omega_1 + kappa - delta)/2]
    memo = SigmaFamily.trigonometric().memoized()
    p = ParamsBC(MU_POOL[:4], DELTA, DELTA + 1, memo)
    for _ in range(2):
        with pytest.raises(PoleError) as err:
            coeff_BC_zero(p, (0.2 + 0.1j,), 1)
        assert err.value.where == "[(omega_2 - omega_1 + kappa - delta)/2]"
    assert memo._constants == {}


def test_E_in_zero_variables_is_multiplication_by_C(families):
    for fam in families.values():
        p = bc_params(fam)
        got = apply_E_BC(p, lambda _: 3.5, ())
        assert close(got, 3.5 * bc_constant(p), 1e-10)


def test_sign_symmetry_of_E(families):
    # E with (mu | -delta, -kappa) equals E with (-mu | delta, kappa)
    rng = random.Random(RNG_SEED + 5)
    for name, fam in families.items():
        flipped = ParamsBC(MU_POOL[: 2 * fam.rho], -DELTA, -KAPPA, fam)
        negated = ParamsBC(
            tuple(-v for v in MU_POOL[: 2 * fam.rho]), DELTA, KAPPA, fam
        )
        x = random_point(rng, 2, 0.25)
        a = apply_E_BC(flipped, probe_fn, x)
        b = apply_E_BC(negated, probe_fn, x)
        tol = 1e-8 if name == "elliptic" else 1e-10
        assert close(a, b, tol), name


def test_negated_helper_matches_sign_symmetry(families):
    fam = families["trig"]
    p = bc_params(fam)
    q = p.negated()
    assert q.mu == tuple(-v for v in p.mu)
    assert q.delta == -DELTA and q.kappa == -KAPPA


def test_duplication_rewrite_of_E(families):
    # (1/4) prod [omega_s/2]^2 * E f agrees with the collapsed-denominator
    # form; this exercises every coefficient, including the constant-term
    # exponentials, against the duplication formula
    rng = random.Random(RNG_SEED + 6)
    for name, fam in families.items():
        p = bc_params(fam)
        for m in (1, 2):
            x = random_point(rng, m, 0.22)
            lhs = dup_prefactor(p) * apply_E_BC(p, probe_fn, x)
            rhs = apply_E_BC_dup(p, probe_fn, x)
            tol = 1e-7 if name == "elliptic" else 1e-9
            assert close(lhs, rhs, tol), (name, m)


def test_D_is_E_minus_constant_part(families):
    rng = random.Random(RNG_SEED + 7)
    for name, fam in families.items():
        p = bc_params(fam)
        x = random_point(rng, 2, 0.25)
        e_val = apply_E_BC(p, probe_fn, x)
        e_one = apply_E_BC(p, lambda _: 1.0, x)
        d_val = apply_D_BC(p, probe_fn, x)
        zero_sum = sum(coeff_BC_zero(p, x, r) for r in range(fam.rho))
        tol = 1e-8 if name == "elliptic" else 1e-10
        # E f = D f + E(1) f and E(1) = sum of shifts of 1 plus constants
        assert close(e_val, d_val + e_one * probe_fn(x), tol), name
        got_zero = e_one - (
            sum(coeff_BC(p, x, i, s) for i in range(2) for s in (1, -1))
        )
        assert close(got_zero, zero_sum, tol), name


def test_E_on_constants_trig_rational(families):
    # E(1) = C + ([2m kappa + c] - [c]) / [kappa] away from the elliptic case
    rng = random.Random(RNG_SEED + 8)
    for name in ("rational", "trig"):
        fam = families[name]
        p = bc_params(fam)
        for m in (1, 2, 3):
            x = random_point(rng, m, 0.24)
            got = apply_E_BC(p, lambda _: 1.0, x)
            c = p.c_const
            want = bc_constant(p) + (
                sigma_eval(fam, 2 * m * KAPPA + c) - sigma_eval(fam, c)
            ) / sigma_eval(fam, KAPPA)
            assert close(got, want, 1e-9), (name, m)


def test_balanced_elliptic_E_on_constants(families):
    # with 2 m kappa + c = 0, [kappa] E(1) = -[delta] C(mu | kappa, delta)
    fam = families["elliptic"]
    rng = random.Random(RNG_SEED + 9)
    m = 2
    mu = list(MU_POOL[: 2 * fam.rho])
    base = ParamsBC(tuple(mu), DELTA, KAPPA, fam)
    mu[-1] -= base.c_const + 2 * m * KAPPA
    p = ParamsBC(tuple(mu), DELTA, KAPPA, fam)
    assert abs(2 * m * KAPPA + p.c_const) < 1e-12
    x = random_point(rng, m, 0.2)
    lhs = sigma_eval(fam, KAPPA) * apply_E_BC(p, lambda _: 1.0, x)
    rhs = -sigma_eval(fam, DELTA) * bc_constant(p.swapped())
    assert close(lhs, rhs, 1e-7)


# ======================================================================
# exact Koornwinder operator
# ======================================================================


def numeric_koorn_apply(ep, f, sqrt_pt, m):
    """Independent float implementation of the bracket-form operator."""
    sa, sb, sc, sd = (complex(Fraction(v)) for v in (ep.sa, ep.sb, ep.sc, ep.sd))
    sq, st = complex(ep.sq), complex(ep.st)

    def br(w):
        return w - 1 / w

    def coeff(s_vec, i):
        si = s_vec[i]
        num = br(sa * si) * br(sb * si) * br(sc * si) * br(sd * si)
        den = br(si * si) * br(sq * si * si)
        for j in range(m):
            if j == i:
                continue
            sj = s_vec[j]
            num *= br(st * si * sj) * br(st * si / sj)
            den *= br(si * sj) * br(si / sj)
        return num / den

    inv = [1 / s for s in sqrt_pt]
    total = 0j
    base = f.eval_at(sqrt_pt)
    for i in range(m):
        up = list(sqrt_pt)
        up[i] *= sq
        down = list(sqrt_pt)
        down[i] /= sq
        total += coeff(sqrt_pt, i) * (f.eval_at(up) - base)
        total += coeff(inv, i) * (f.eval_at(down) - base)
    return total


def pair_factor(m, k, l):
    """[z_k z_l][z_k / z_l] from two two-term brackets, built apart from
    ``bracket_zw``, which the operator uses."""
    return _two_term(m, {k: 1, l: 1}, Fraction(1)) * _two_term(m, {k: 1, l: -1}, Fraction(1))


def reference_koorn_mult(ep, f, m):
    """The Koornwinder operator assembled variable by variable: each
    variable i builds its own shared factor S_i, both numerator bracket
    products n_i^+- and both shifted differences, with no use of the
    operator's W-invariance."""
    if f.m != m:
        raise ValueError(f"f has {f.m} variables, expected {m}")
    sq = ep.sq
    own = [_product(_koorn_own_factors(m, i, sq), m) for i in range(m)]
    pair = {(k, l): pair_factor(m, k, l) for k in range(m) for l in range(k + 1, m)}
    shared = []
    for i in range(m):
        s_i = LaurentPoly.const(m, (-1) ** i)
        for k in range(m):
            if k != i:
                s_i = s_i * own[k]
        for (k, l), fac in pair.items():
            if i not in (k, l):
                s_i = s_i * fac
        shared.append(s_i)
    d_total = own[0]
    for l in range(1, m):
        d_total = d_total * pair[0, l]
    d_total = d_total * shared[0]

    numerator = LaurentPoly.zero(m)
    for i in range(m):
        n_plus = LaurentPoly.one(m)
        for root in (ep.sa, ep.sb, ep.sc, ep.sd):
            n_plus = n_plus * _two_term(m, {i: 1}, root)
        for j in range(m):
            if j == i:
                continue
            n_plus = n_plus * _two_term(m, {i: 1, j: 1}, ep.st)
            n_plus = n_plus * _two_term(m, {i: 1, j: -1}, ep.st)
        n_minus = n_plus.invert_all()
        _, q_up, q_down = _koorn_own_factors(m, i, sq)
        up = (f.substitute(i, sqrt_scale=sq) - f) * q_down
        down = (f.substitute(i, sqrt_scale=1 / sq) - f) * q_up
        numerator = numerator + (n_plus * up - n_minus * down) * shared[i]
    return divide_exact(numerator, d_total)


def outcome(apply, ep, f, m):
    """The image, or the exception class raised.  The offending exponent
    belongs to whichever division raised, so only its shape is checked."""
    try:
        return apply(ep, f, m)
    except InexactDivisionError as exc:
        exp = exc.offending_exponent
        assert isinstance(exp, tuple) and len(exp) == m, exp
        return InexactDivisionError


KOORN_PARAMS = {
    "EP": ExactParams.default(),
    "EP_ALT": ExactParams(
        sa=Fraction(3, 5),
        sb=Fraction(5, 8),
        sc=Fraction(4, 3),
        sd=Fraction(6, 7),
        sq=Fraction(1, 3),
        st=Fraction(3, 7),
    ),
    "NEG": ExactParams.default().replace(sa=Fraction(-2, 3), sq=Fraction(-1, 2)),
}


@pytest.mark.parametrize("name", sorted(KOORN_PARAMS))
def test_koorn_matches_reference_on_eigenpolynomials(name):
    # W-invariant inputs: every transposition and the inversion hit the
    # per-call memo, so one shift term serves every variable
    ep = KOORN_PARAMS[name]
    for lam, m in (((2,), 1), ((2, 1), 2), ((1, 1), 3), ((1,), 4)):
        f = koornwinder_poly(lam, ep, m) * Fraction(-7, 3)
        got = apply_koorn_mult(ep, f, m)
        assert got == reference_koorn_mult(ep, f, m), (lam, m)
        assert got == f * eigenvalue_d(lam, ep, m), (lam, m)


def _off_memo_inputs(m):
    """Inputs whose transpositions or inversion differ from themselves."""
    sym = LaurentPoly.zero(m)
    for k in range(m):
        sym = sym + LaurentPoly.var_power(m, k, 4)
    return {
        "symmetric, not inversion-invariant": sym,
        "inversion-invariant, not symmetric": LaurentPoly.var_power(m, 0, 4)
        + LaurentPoly.var_power(m, 0, -4),
        "z_0 + (3/5) z_(m-1)^-2": LaurentPoly.var_power(m, 0, 2)
        + LaurentPoly.var_power(m, m - 1, -4, Fraction(3, 5)),
        "x_(m-1)": LaurentPoly.var_power(m, m - 1, 2)
        + LaurentPoly.var_power(m, m - 1, -2),
    }


@pytest.mark.parametrize(
    "m, name",
    # m = 4 is the first size where the cofactor c_0 holds several pairs
    [(m, name) for m in (1, 2, 3) for name in sorted(KOORN_PARAMS)] + [(4, "EP")],
)
def test_koorn_matches_reference_off_the_memo(name, m):
    # the same image, or the same exception class
    ep = KOORN_PARAMS[name]
    for what, f in _off_memo_inputs(m).items():
        if (m, what) == (4, "inversion-invariant, not symmetric"):
            # every M_i is exact, and the reference's remainder over D_total
            # fails only after about a minute; x_(m-1) also reaches V here, and
            # test_koorn_numerator_from_one_cofactor_is_the_formula checks
            # this input's numerator and its division by V
            continue
        want = outcome(reference_koorn_mult, ep, f, m)
        assert outcome(apply_koorn_mult, ep, f, m) == want, what


def own_numerator(ep, f, m, i=0):
    """own_i and N_i = n_i^+ (T_i f - f) [q z_i^-2] - n_i^- (T_i^-1 f - f)
    [q z_i^2], assembled as the formulas read."""
    sq = ep.sq
    n_plus = LaurentPoly.one(m)
    for root in (ep.sa, ep.sb, ep.sc, ep.sd):
        n_plus = n_plus * _two_term(m, {i: 1}, root)
    for j in range(m):
        if j != i:
            n_plus = n_plus * _two_term(m, {i: 1, j: 1}, ep.st)
            n_plus = n_plus * _two_term(m, {i: 1, j: -1}, ep.st)
    own = _koorn_own_factors(m, i, sq)
    _, q_up, q_down = own
    up = (f.substitute(i, sqrt_scale=sq) - f) * q_down
    down = (f.substitute(i, sqrt_scale=1 / sq) - f) * q_up
    return _product(own, m), n_plus * up - n_plus.invert_all() * down


def x_cofactor(m, i):
    """c_i = prod_{k<l, i not in (k, l)} (x_k - x_l), x = z + 1/z, as the
    formula reads (i = None: the whole Vandermonde)."""
    x = [LaurentPoly.var_power(m, k, 2) + LaurentPoly.var_power(m, k, -2) for k in range(m)]
    c = LaurentPoly.one(m)
    for k in range(m):
        for l in range(k + 1, m):
            if i not in (k, l):
                c = c * (x[k] - x[l])
    return c


def swap_with_0(m, i):
    perm = list(range(m))
    perm[0], perm[i] = i, 0
    return perm


def bracket(m, entries, root):
    """root z^(e/2) - root^-1 z^(-e/2) for entries {var: doubled exponent},
    from Fraction coefficients, apart from the operator's ``_two_term``."""
    up = [0] * m
    for var, e2 in entries.items():
        up[var] = e2
    return LaurentPoly(m, {tuple(up): root, tuple(-e for e in up): -1 / root})


def divisor_poly(divisor, m, formula_factors):
    """The polynomial a cached divisor stands for, after checking it against
    the product of ``formula_factors``, which the cache never builds: its
    factors are primitive two-term numerators whose product is the
    product's primitive form, and its scale and bound are the product's
    ``_primitive_form`` scale and exponent bound (Gauss's lemma)."""
    formula = LaurentPoly.one(m)
    for factor in formula_factors:
        formula = formula * factor
    scale, prim = laurent._primitive_form(formula)
    for factor in divisor.factors:
        assert len(factor) == 2 and math.gcd(*factor.values()) == 1
    product = integer_product(divisor.factors, m)
    assert (product._num, product._den) == (prim, 1)
    assert divisor.scale == scale
    assert divisor.bound == formula._exp_bound
    return product * (1 / divisor.scale)


def n_plus_formula(ep, m):
    """n_0^+ = [a z_0][b z_0][c z_0][d z_0] prod_{j>0} [t z_0 z_j][t z_0 / z_j]."""
    n_plus = LaurentPoly.one(m)
    for root in (ep.sa, ep.sb, ep.sc, ep.sd):
        n_plus = n_plus * bracket(m, {0: 1}, root)
    for j in range(1, m):
        n_plus = n_plus * bracket(m, {0: 1, j: 1}, ep.st) * bracket(m, {0: 1, j: -1}, ep.st)
    return n_plus


def test_koorn_factors_are_the_formulas():
    # n_0^+, c_0 and the divisors [q z_0^2], [z_0^2] and V (as its m(m - 1)
    # two-term factors) against their definitions; the identity the
    # operator rests on, N_0(g) = [q z_0^-2][q z_0^2] (R(g) - iota R(iota g))
    # with R(g) = n_0^+ (T_0 g - g) / [q z_0^2], on a g invariant under
    # z_0 -> 1/z_0 but not W-invariant; and the sign identity
    # sigma_i(c_0) = (-1)^(i-1) c_i for every i >= 1
    for ep in KOORN_PARAMS.values():
        for m in (1, 2, 3, 4):
            n_plus, c_0, q_up, z_sq, vandermonde = _koorn_factors(ep, m)
            assert n_plus == n_plus_formula(ep, m), m
            for divisor, root in ((q_up, ep.sq), (z_sq, Fraction(1))):
                bracket_0 = bracket(m, {0: 2}, root)
                assert divisor_poly(divisor, m, [bracket_0]) == bracket_0, m
            assert len(q_up.factors) == len(z_sq.factors) == 1, m
            assert c_0 == (x_cofactor(m, 0) if m > 2 else None), m
            if m == 1:
                assert vandermonde is None
            else:
                pairs = list(itertools.combinations(range(m), 2))
                v_factors = [bracket(m, {k: 1, l: e}, Fraction(1)) for e in (1, -1) for k, l in pairs]
                assert divisor_poly(vandermonde, m, v_factors) == x_cofactor(m, None), m
                assert len(vandermonde.factors) == m * (m - 1), m
            x_0 = LaurentPoly.var_power(m, 0, 2) + LaurentPoly.var_power(m, 0, -2)
            rest = LaurentPoly.var_power(m, m - 1, -4, Fraction(3, 5)) if m > 1 else 1
            f = x_0 * x_0 + rest

            def r_of(g):
                shifted = g.substitute(0, sqrt_scale=ep.sq) - g
                return n_plus_formula(ep, m) * divide_exact(shifted, bracket(m, {0: 2}, ep.sq))

            own_0, n_0 = own_numerator(ep, f, m)
            difference = r_of(f) - r_of(f.invert_all()).invert_all()
            q_pair = bracket(m, {0: 2}, ep.sq) * bracket(m, {0: -2}, ep.sq)
            assert q_pair * difference == n_0, m
            m_0 = divide_exact(difference, bracket(m, {0: 2}, Fraction(1)))
            assert m_0 == divide_exact(n_0, own_0), m
            for i in range(1, m):
                sigma_c_0 = LaurentPoly.one(m) if c_0 is None else c_0.permute(swap_with_0(m, i))
                assert sigma_c_0 == x_cofactor(m, i) * (-1) ** (i - 1), (m, i)


def formula_numerators(ep, f, m):
    """sum_i (-1)^i M_i c_i with M_i = N_i / own_i built for each variable as
    the formula reads, and K(f) - sum_{i>=1} sigma_i(K(sigma_i f)) with
    K(g) = c_0 M_0(g); an inexact M_i gives InexactDivisionError instead."""

    def quotient(g, i=0):
        own_i, n_i = own_numerator(ep, g, m, i)
        try:
            return divide_exact(n_i, own_i)
        except InexactDivisionError:
            return InexactDivisionError

    spread = [quotient(f, i) for i in range(m)]
    moved = [quotient(f.permute(swap_with_0(m, i))) for i in range(m)]
    if InexactDivisionError in spread or InexactDivisionError in moved:
        return spread.count(InexactDivisionError), moved.count(InexactDivisionError)
    by_formula = LaurentPoly.zero(m)
    for i, m_i in enumerate(spread):
        by_formula = by_formula + m_i * x_cofactor(m, i) * (-1) ** i
    c_0 = x_cofactor(m, 0)
    by_cofactor = c_0 * moved[0]
    for i in range(1, m):
        perm = swap_with_0(m, i)
        by_cofactor = by_cofactor - (c_0 * moved[i]).permute(perm)
    return by_formula, by_cofactor


def exact_outcome(divide, *args):
    """The result, or the error's class, message and offending exponent."""
    try:
        return divide(*args)
    except InexactDivisionError as exc:
        return type(exc), str(exc), exc.offending_exponent


@pytest.mark.parametrize("m", [3, 4])
def test_koorn_numerator_from_one_cofactor_is_the_formula(m):
    # K(f) - sum_{i>=1} sigma_i(K(sigma_i f)) = sum_i (-1)^i M_i c_i, on
    # eigenpolynomials and off the memo, and the operator's image or error
    # is that of the formula's numerator over V; where some M_i is not a
    # Laurent polynomial, exactly as many M_0(sigma_i f) are not either
    ep = KOORN_PARAMS["NEG"]
    inputs = dict(_off_memo_inputs(m))
    for lam in ((1,), (1, 1)):
        inputs[lam] = koornwinder_poly(lam, ep, m)
    exact = 0
    for what, f in inputs.items():
        by_formula, by_cofactor = formula_numerators(ep, f, m)
        assert by_formula == by_cofactor, what
        if isinstance(by_formula, LaurentPoly):
            exact += 1
            want = exact_outcome(divide_exact, by_formula, x_cofactor(m, None))
            assert exact_outcome(apply_koorn_mult, ep, f, m) == want, what
    assert exact == 4, exact


def test_koorn_factor_cache_is_shared_and_bounded():
    # equal parameters built apart share one entry, a sweep of fresh sq
    # stays within the bound, and cleared factors give the same images
    base = ExactParams.default()
    twin = ExactParams(base.sa, base.sb, base.sc, base.sd, base.sq, base.st)
    f = koornwinder_poly((1, 1), base, 3)
    before = apply_koorn_mult(base, f, 3)
    hits = _koorn_factors.cache_info().hits
    assert apply_koorn_mult(twin, f, 3) == before
    assert _koorn_factors.cache_info().hits == hits + 1
    for k in range(_koorn_factors.cache_info().maxsize + 6):
        ep = base.replace(sq=Fraction(101 + k, 7))
        apply_koorn_mult(ep, LaurentPoly.one(2), 2)
        info = _koorn_factors.cache_info()
        assert info.currsize <= info.maxsize, k
    _koorn_factors.cache_clear()
    assert _koorn_factors.cache_info().currsize == 0
    assert apply_koorn_mult(base, f, 3) == before


def test_koorn_own_divides_the_numerator_of_eigenpolynomials():
    # the first division of the operator: own_0 | N_0 on eigenpolynomials,
    # at EP, NEG and fresh sq = (11 + k)/7
    base = ExactParams.default()
    params = [KOORN_PARAMS["EP"], KOORN_PARAMS["NEG"]]
    params += [base.replace(sq=Fraction(11 + k, 7)) for k in range(8)]
    for ep in params:
        for lam, m in (((2,), 1), ((2, 1), 2), ((1,), 3), ((1,), 4)):
            f = koornwinder_poly(lam, ep, m)
            own_0, n_0 = own_numerator(ep, f, m)
            assert not n_0.is_zero(), (ep, lam, m)
            assert divide_exact(n_0, own_0) * own_0 == n_0, (ep, lam, m)


def assert_first_division_is_of_the_shift_difference(seen, ep, f, m):
    """The operator's first division, as spied: its dividend is +- the
    primitive numerators of (T_0 - 1) f, its divisor the primitive part of
    [q z_0^2], and a refusal is divide_exact's, on those polynomials and on
    the formulas themselves."""
    dividend, divisor, got = seen[0]
    shifted = f.substitute(0, sqrt_scale=ep.sq) - f
    q_up = bracket(m, {0: 2}, ep.sq)
    assert primitive_part(dividend) in (primitive_part(shifted), -primitive_part(shifted))
    assert divisor == primitive_part(q_up)
    want = exact_outcome(divide_exact, dividend, divisor)
    if isinstance(want, LaurentPoly):
        assert (got[0], dict(got[1]), got[3]) == (m, want._num, want._exp_bound)
    else:
        assert got == want
        assert got == exact_outcome(divide_exact, shifted, q_up)


def test_koorn_own_division_refuses_a_non_invariant_input(monkeypatch):
    # negative control: z_0 is not invariant under z_0 -> 1/z_0, so the
    # first division, of (T_0 - 1) z_0 by [q z_0^2], already leaves a
    # remainder; the operator then refuses z_0 as the reference does, and
    # own_0 does not divide N_0 either
    import diffkern.operators as operators

    seen = spy_on_integer_division(monkeypatch, operators, "_divide_binomials")
    ep = ExactParams.default()
    for m in (1, 2, 3):
        f = LaurentPoly.var_power(m, 0, 2)
        own_0, n_0 = own_numerator(ep, f, m)
        seen.clear()
        assert outcome(apply_koorn_mult, ep, f, m) is InexactDivisionError
        assert outcome(reference_koorn_mult, ep, f, m) is InexactDivisionError
        assert_first_division_is_of_the_shift_difference(seen, ep, f, m)
        assert seen[0][2][0] is InexactDivisionError, m
        with pytest.raises(InexactDivisionError):
            divide_exact(n_0, own_0)


def assert_canonical(image):
    """image has the fields of the polynomial built from its coefficients:
    a positive denominator prime to the numerators.  The exponent bound is
    an upper bound, so it need only reach the exact one."""
    canon = LaurentPoly(image.m, dict(image.terms))
    assert (image.m, image._num, image._den) == (canon.m, canon._num, canon._den)
    assert image._den > 0
    assert math.gcd(image._den, *image._num.values()) == 1
    assert image._exp_bound >= canon._exp_bound


# numerators that share the primes 2, 3, 5, 7 and 11 of EP's denominators
SHARED_PRIME_MULTIPLES = [Fraction(2310, 13), Fraction(-15, 77), Fraction(4, 9), Fraction(-49, 10)]


def test_koorn_image_is_exact_and_canonical():
    # P_lambda over the 3 x 3 box and at m = 4, times multiples whose
    # numerators share primes with the parameters' denominators: every
    # scale the integer pipeline carries meets a common factor somewhere,
    # and the one final gcd must still leave the canonical form
    ep = KOORN_PARAMS["EP"]
    cases = [(lam, m) for m in (1, 2, 3) for lam in partitions_in_box(m, 3)]
    cases += [(Partition((1,)), 4), (Partition((1, 1, 1, 1)), 4)]
    for k, (lam, m) in enumerate(cases):
        f = koornwinder_poly(lam, ep, m) * SHARED_PRIME_MULTIPLES[k % 4]
        image = apply_koorn_mult(ep, f, m)
        assert image == reference_koorn_mult(ep, f, m), (lam, m)
        assert_canonical(image)


def test_koorn_asymmetric_z0_range_matches_the_reference(monkeypatch):
    # z_0's digits run over -2..4 in f and -4..2 in iota f, so R(f) and
    # R(iota f) carry different scales (2^4 and 2^2 at EP's sqrt(q) = 1/2) and
    # meet over their lcm; f is not invariant under z_0 -> 1/z_0, and the
    # first division, of (T_0 - 1) f by [q z_0^2], gives divide_exact's
    # outcome.  The operator's outcome is the reference's
    import diffkern.operators as operators

    seen = spy_on_integer_division(monkeypatch, operators, "_divide_binomials")
    for name in sorted(KOORN_PARAMS):
        ep = KOORN_PARAMS[name]
        for m in (1, 2, 3):
            f = LaurentPoly.var_power(m, 0, 4, Fraction(10, 3)) + LaurentPoly.var_power(
                m, 0, -2, Fraction(-6, 7)
            )
            if m > 1:
                f = f + LaurentPoly.var_power(m, m - 1, 2, Fraction(5, 11))
            seen.clear()
            assert outcome(apply_koorn_mult, ep, f, m) == outcome(reference_koorn_mult, ep, f, m)
            assert_first_division_is_of_the_shift_difference(seen, ep, f, m)


def test_koorn_keeps_the_domain_where_n_plus_shares_a_root_with_q_z0_squared():
    # at sa^2 = sq (sa = 1/2, sq = 1/4), [a z_0] and [q z_0^2] both vanish
    # at z_0 = 1/sq.  This f is not invariant under z_0 -> 1/z_0, so [q z_0^2]
    # does not divide (T_0 - 1) f; it divides n_0^+ (T_0 - 1) f, and the
    # operator maps f to the reference's image
    ep = ExactParams.default().replace(sa=Fraction(1, 2), sq=Fraction(1, 4))
    z = LaurentPoly.var_power(1, 0, 2)
    f = z + z**2 * Fraction(262148, 1118481) - z**3 * Fraction(256, 65793)
    f = f - z**4 * Fraction(1024, 1118481)
    shifted = f.substitute(0, sqrt_scale=ep.sq) - f
    with pytest.raises(InexactDivisionError):
        divide_exact(shifted, bracket(1, {0: 2}, ep.sq))
    image = apply_koorn_mult(ep, f, 1)
    assert image == reference_koorn_mult(ep, f, 1)
    assert not image.is_zero()
    assert_canonical(image)


@pytest.mark.parametrize("sq", [Fraction(1), Fraction(-1), Fraction(1, 2)])
def test_koorn_half_powers_and_unit_q_keep_their_outcome(sq):
    # z_0^(1/2) + z_0^(-1/2) and its W-symmetrisation have half-integer
    # exponents, which T_0 at sqrt(q) = -1 negates, so q = 1 does not kill
    # them there; orbit_sum((1,), m) does not have them.  Each input keeps
    # the outcome the operator gave before its divisions were reordered
    # (an image, zero at q = 1, or InexactDivisionError), which is the
    # reference's
    ep = ExactParams.default().replace(sq=sq)
    for m in (1, 2, 3):
        halves = [
            LaurentPoly.var_power(m, k, 1) + LaurentPoly.var_power(m, k, -1) for k in range(m)
        ]
        inputs = {
            "z_0^(1/2) + z_0^(-1/2)": (halves[0], sq != 1),
            "its W-symmetrisation": (sum(halves[1:], halves[0]), sq != 1),
            "orbit_sum((1,), m)": (orbit_sum((1,), m), False),
        }
        for what, (f, refused) in inputs.items():
            got = outcome(apply_koorn_mult, ep, f, m)
            assert (got is InexactDivisionError) == refused, (what, m)
            assert got == outcome(reference_koorn_mult, ep, f, m), (what, m)
            if not refused and sq in (1, -1):
                assert got.is_zero(), (what, m)


def test_koorn_pair_factors_give_x_differences():
    # [z_k z_l][z_k / z_l] = x_k - x_l with x = z + 1/z, the Vandermonde
    # factors of the divided difference
    for m in (2, 3, 4):
        x = [
            LaurentPoly.var_power(m, k, 2) + LaurentPoly.var_power(m, k, -2)
            for k in range(m)
        ]
        for k in range(m):
            for l in range(k + 1, m):
                assert pair_factor(m, k, l) == x[k] - x[l]


def test_two_term_is_the_fraction_built_polynomial():
    # the integer-built root z^(e/2) - root^-1 z^(-e/2) against the same
    # polynomial built from Fraction coefficients, for positive, negative
    # and unit roots and every root of the parameter sets
    roots = {
        Fraction(s * n, d)
        for s in (1, -1)
        for n, d in ((1, 1), (5, 3), (3, 10), (7, 1), (1, 9))
    }
    for ep in KOORN_PARAMS.values():
        roots.update((ep.sa, ep.sb, ep.sc, ep.sd, ep.sq, ep.st))
    for m in (1, 2, 3):
        for entries in ({0: 1}, {0: 2}, {m - 1: -2}, {0: 1, m - 1: 1}, {0: 1, m - 1: -1}):
            up = [0] * m
            for var, e2 in entries.items():
                up[var] = e2
            for root in roots:
                want = LaurentPoly(m, {tuple(up): root, tuple(-e for e in up): -1 / root})
                got = _two_term(m, entries, root)
                assert got == want, (m, entries, root)
                assert got._exp_bound == want._exp_bound, (m, entries, root)


def test_koorn_image_vanishes_at_q_one():
    # T_q is the identity at q = 1, so every N_i is 0: invariant or not,
    # and the image is the canonical zero
    ep = ExactParams.default().replace(sq=Fraction(1))
    for m in (1, 2, 3):
        inputs = [orbit_sum((2,), m), LaurentPoly.var_power(m, 0, 2)]
        inputs += [f * Fraction(-14, 9) for f in _off_memo_inputs(m).values()]
        for f in inputs:
            image = apply_koorn_mult(ep, f, m)
            assert image.is_zero(), m
            assert_canonical(image)
            assert reference_koorn_mult(ep, f, m).is_zero(), m


def test_koorn_kills_constants():
    ep = ExactParams.default()
    for m in (1, 2):
        assert apply_koorn_mult(ep, LaurentPoly.one(m), m).is_zero()


def test_koorn_matches_numeric_oracle():
    ep = ExactParams.default()
    rng = random.Random(RNG_SEED + 10)
    for m, mu in ((1, (1,)), (2, (1, 1)), (2, (2,))):
        f = orbit_sum(mu, m)
        exact = apply_koorn_mult(ep, f, m)
        for _ in range(3):
            pt = [
                cmath.rect(rng.uniform(0.85, 1.2), rng.uniform(0, 6.28))
                for _ in range(m)
            ]
            want = numeric_koorn_apply(ep, f, pt, m)
            got = exact.eval_at(pt)
            assert close(got, want, 1e-9), (m, mu)


def test_koorn_dominant_coefficient_is_eigenvalue():
    # triangular action: the coefficient on the dominant monomial of m_mu is
    # the eigenvalue sum_i [alpha t^(m-i) q^(mu_i); alpha t^(m-i)]
    ep = ExactParams.default()
    q, t, alpha = ep.q, ep.t, ep.alpha

    def pair_bracket(x, y):
        return x + 1 / x - y - 1 / y

    for m, mu in ((1, (1,)), (2, (1,)), (2, (1, 1)), (2, (2,))):
        f = orbit_sum(mu, m)
        result = apply_koorn_mult(ep, f, m)
        padded = tuple(mu) + (0,) * (m - len(mu))
        dominant = tuple(2 * e for e in padded)
        want = sum(
            pair_bracket(alpha * t ** (m - 1 - i) * q ** padded[i], alpha * t ** (m - 1 - i))
            for i in range(m)
        )
        assert result.coefficient(dominant) == want, (m, mu)


def test_koorn_output_invariant_and_triangular():
    from diffkern.laurent import is_W_invariant

    ep = ExactParams.default()
    f = orbit_sum((2, 1), 2)
    result = apply_koorn_mult(ep, f, 2)
    assert is_W_invariant(result)
    # support stays inside the doubled box of the input weight
    for exp in result.terms:
        assert max(abs(e) for e in exp) <= 4


def test_koorn_rejects_wrong_variable_count():
    ep = ExactParams.default()
    with pytest.raises(ValueError):
        apply_koorn_mult(ep, LaurentPoly.one(2), 3)


def test_koorn_non_invariant_input_fails_structurally():
    ep = ExactParams.default()
    bad = LaurentPoly.var_power(2, 0, 2)  # z_1 alone, not W-invariant
    with pytest.raises(InexactDivisionError):
        apply_koorn_mult(ep, bad, 2)


def test_koorn_non_invariant_input_fails_structurally_at_m3():
    # a non-invariant input leaves a nonzero remainder at one of the two
    # divisions, by own_0 or by the Vandermonde in x = z + 1/z
    ep = ExactParams.default()
    bad = orbit_sum((1,), 3) + LaurentPoly.var_power(3, 1, 2, Fraction(2, 3))
    with pytest.raises(InexactDivisionError) as info:
        apply_koorn_mult(ep, bad, 3)
    assert isinstance(info.value.offending_exponent, tuple)
    assert len(info.value.offending_exponent) == 3


def test_koorn_eigen_equation_at_m4():
    ep = ExactParams.default()
    lam = (1, 1, 1, 1)
    p = koornwinder_poly(lam, ep, 4)
    assert apply_koorn_mult(ep, p, 4) == p * eigenvalue_d(lam, ep, 4)


# ======================================================================
# exact Macdonald operators
# ======================================================================


def test_macdonald_on_constants():
    q, t = Fraction(1, 4), Fraction(4, 25)
    for m in (1, 2, 3):
        got = apply_macdonald_mult(q, t, 1, LaurentPoly.one(m), m)
        want = sum(t**k for k in range(m))
        assert got == LaurentPoly.const(m, want), m


def test_macdonald_top_order_is_global_shift():
    q, t = Fraction(1, 4), Fraction(4, 25)
    f = sym_orbit_sum((1,), 2)
    got = apply_macdonald_mult(q, t, 2, f, 2)
    # binom(2,2) coefficient is 1, so D_2 = t * T_{q,z_1} T_{q,z_2}
    assert got == f * (t * q)


def test_macdonald_order_validation():
    q, t = Fraction(1, 4), Fraction(4, 25)
    with pytest.raises(ValueError):
        apply_macdonald_mult(q, t, 0, LaurentPoly.one(2), 2)
    with pytest.raises(ValueError):
        apply_macdonald_mult(q, t, 3, LaurentPoly.one(2), 2)


def test_macdonald_operators_commute_exactly():
    q, t = Fraction(1, 3), Fraction(2, 7)
    f = sym_orbit_sum((2, 1), 3)
    d1 = lambda g: apply_macdonald_mult(q, t, 1, g, 3)
    d2 = lambda g: apply_macdonald_mult(q, t, 2, g, 3)
    assert d1(d2(f)) == d2(d1(f))


def test_macdonald_dominant_coefficient():
    q, t = Fraction(1, 4), Fraction(4, 25)
    f = sym_orbit_sum((2, 1), 2)
    got = apply_macdonald_mult(q, t, 1, f, 2)
    assert got.coefficient((4, 2)) == q**2 * t + q


def test_macdonald_numeric_cross_check():
    q, t = Fraction(1, 4), Fraction(4, 25)
    rng = random.Random(RNG_SEED + 11)
    m = 3
    f = sym_orbit_sum((2, 1, 1), m)
    exact = apply_macdonald_mult(q, t, 2, f, m)
    sq = cmath.sqrt(complex(q))
    for _ in range(2):
        pt = [
            cmath.rect(rng.uniform(0.9, 1.15), rng.uniform(0, 6.28))
            for _ in range(m)
        ]
        z = [s * s for s in pt]
        total = 0j
        import itertools as it

        for subset in it.combinations(range(m), 2):
            inside = set(subset)
            coeff = complex(t)  # t^binom(2,2... r=2 -> t^1
            for i in subset:
                for j in range(m):
                    if j not in inside:
                        coeff *= (complex(t) * z[i] - z[j]) / (z[i] - z[j])
            shifted = [s * sq if k in inside else s for k, s in enumerate(pt)]
            total += coeff * f.eval_at(shifted)
        assert close(exact.eval_at(pt), total, 1e-9)
