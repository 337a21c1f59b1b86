"""Tests for sigma families, truncated products, and gamma functions."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from diffkern.sigma import (
    DEFAULT_TRUNCATION,
    DomainError,
    FamilyKind,
    POLE_THRESHOLD,
    GammaSign,
    PoleError,
    SigmaFamily,
    Truncation,
    _exact_key,
    duplication_residual,
    elliptic_gamma,
    euler_gamma,
    gamma_fn,
    phase,
    qpoch,
    quasi_period_residual,
    riemann_residual,
    sigma_eval,
    theta_eval,
)

RNG_SEED = 20260822


def _random_points(n, box=0.8, seed=RNG_SEED):
    rng = random.Random(seed)
    return [
        complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(n)
    ]


@pytest.fixture(scope="module")
def families():
    return {
        "rational": SigmaFamily.rational(),
        "trig": SigmaFamily.trigonometric(omega1=1.0),
        "elliptic": SigmaFamily.elliptic(omega1=1.0, omega2=0.31 + 1.2j),
    }


# ----------------------------------------------------------------------
# sigma values
# ----------------------------------------------------------------------


def test_rational_sigma_is_identity():
    fam = SigmaFamily.rational()
    assert sigma_eval(fam, 0.0) == 0.0
    assert sigma_eval(fam, 1.7 + 0.2j) == 1.7 + 0.2j


def test_trig_sigma_is_sine():
    fam = SigmaFamily.trigonometric(omega1=2.0)
    u = 0.3 - 0.1j
    assert abs(sigma_eval(fam, u) - cmath.sin(math.pi * u / 2.0)) < 1e-15


def test_elliptic_sigma_matches_product_form():
    # omega2 chosen so the nome is exactly p = 0.1
    omega2 = complex(0, math.log(10) / (2 * math.pi))
    fam = SigmaFamily.elliptic(omega1=1.0, omega2=omega2)
    p = fam.nome
    assert abs(p - 0.1) < 1e-14
    u = 0.3
    z = phase(u)
    direct = 2j * cmath.sin(math.pi * u)
    for i in range(64):
        direct *= (1 - p ** (i + 1) * z) * (1 - p ** (i + 1) / z)
    assert abs(sigma_eval(fam, u) - direct) < 1e-13


def test_oddness_all_families(families):
    for name, fam in families.items():
        for u in _random_points(25):
            lhs = sigma_eval(fam, -u)
            rhs = -sigma_eval(fam, u)
            if name == "rational":
                assert lhs == rhs
            else:
                assert abs(lhs - rhs) < 1e-12


def test_scale_multiplies_sigma():
    fam = SigmaFamily.trigonometric(omega1=1.0, scale=2j)
    u = 0.4 + 0.1j
    assert abs(sigma_eval(fam, u) - 2j * cmath.sin(math.pi * u)) < 1e-15


def test_sigma_rejects_non_finite():
    with pytest.raises(DomainError):
        sigma_eval(SigmaFamily.rational(), float("nan"))


def test_elliptic_family_validates_nome():
    with pytest.raises(DomainError):
        SigmaFamily.elliptic(omega1=1.0, omega2=0.5 - 0.2j)


def test_nome_is_phase_of_tau():
    for omega2 in (0.31 + 1.2j, 2.3 + 0.45j):
        fam = SigmaFamily.elliptic(omega1=1.0, omega2=omega2)
        assert fam.nome == phase(fam.omega2 / fam.omega1)
    with pytest.raises(DomainError):
        SigmaFamily.trigonometric().nome


def test_elliptic_sigma_is_bit_exact_theta_product():
    for omega2 in (0.31 + 1.2j, 2.3 + 0.45j):
        fam = SigmaFamily.elliptic(omega1=1.0, omega2=omega2)
        p = phase(fam.omega2 / fam.omega1)
        for u in _random_points(40, box=1.5):
            z = phase(u / fam.omega1)
            theta = qpoch(z, p) * qpoch(p / z, p)
            expected = fam.scale * (-phase(-u / (2 * fam.omega1)) * theta)
            assert sigma_eval(fam, u) == expected


# ----------------------------------------------------------------------
# quasi-periodicity and the classical identities
# ----------------------------------------------------------------------


def test_quasi_periodicity_all_families(families):
    # box kept moderate: the residual bound is absolute, and elliptic sigma
    # grows like |e(-u/omega1)| under the omega_2/omega_3 shifts
    for fam in families.values():
        for u in _random_points(20, box=0.35):
            for r in range(1, fam.rho + 1):
                assert quasi_period_residual(fam, u, r) < 1e-10


def test_riemann_relation(families):
    pts = _random_points(120)
    for name, fam in families.items():
        tol = 1e-10 if name == "elliptic" else 1e-12
        for k in range(0, 120, 4):
            x, y, u, v = pts[k : k + 4]
            assert riemann_residual(fam, x, y, u, v) < tol


def test_riemann_structural_zero(families):
    u = 0.37 + 0.11j
    for fam in families.values():
        assert riemann_residual(fam, 0.5, 0.25, u, u) < 1e-12


def test_duplication(families):
    rng = random.Random(7)
    for name, fam in families.items():
        tol = 1e-10 if name == "elliptic" else 1e-12
        for _ in range(20):
            u = complex(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
            c = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            assert duplication_residual(fam, u, c) < tol


# ----------------------------------------------------------------------
# truncated products
# ----------------------------------------------------------------------


def test_qpoch_finite_and_trivial():
    assert qpoch(0.7, 0.3, 0) == 1
    assert qpoch(0.7, 0.3, 2) == (1 - 0.7) * (1 - 0.3 * 0.7)
    assert qpoch(0.0, 0.3, None) == 1


def test_qpoch_oracle_value():
    # frozen mpmath oracle: qp(0.5, 0.3)
    assert abs(qpoch(0.5, 0.3, None) - 0.3980822043018777) < 1e-14


def test_qpoch_depth_doubling():
    v50 = qpoch(0.5, 0.3, None, Truncation(max_terms=50))
    v100 = qpoch(0.5, 0.3, None, Truncation(max_terms=100))
    assert abs(v50 - v100) < 1e-14


def test_qpoch_divergence_rejected():
    with pytest.raises(DomainError):
        qpoch(0.5, 1.1, None)


def test_theta_basics():
    value, err = theta_eval(0.4 + 0.1j, 0.0)
    assert abs(value - (1 - (0.4 + 0.1j))) < 1e-15
    z, p = 0.7 + 0.2j, 0.15
    t1 = theta_eval(z, p).value
    t2 = theta_eval(p / z, p).value
    assert abs(t1 - t2) < 1e-14
    # frozen mpmath oracle
    assert abs(t1 - (0.21013255123536193 - 0.12772327849032375j)) < 1e-13
    assert err >= 0


def test_theta_rejects_bad_nome():
    with pytest.raises(DomainError):
        theta_eval(0.5, 1.0)


def test_theta_is_product_of_public_qpoch_with_its_tail_bound():
    # theta_eval forms both products without the public qpoch; the floats and
    # the truncation-error estimate must stay those of the two-qpoch form
    # (the values are those the two-qpoch form gave).
    cases = [
        (0.7 + 0.2j, 0.15, Truncation(max_terms=8), 6.925455867003038e-08),
        (0.7 + 0.2j, 0.15, DEFAULT_TRUNCATION, 5.0298931050142486e-54),
        (1.3 - 0.4j, 0.2 + 0.5j, Truncation(max_terms=12), 0.0016702606300535358),
    ]
    for z, p, tr, trunc_error in cases:
        out = theta_eval(z, p, tr)
        assert out.value == qpoch(z, p, None, tr) * qpoch(p / z, p, None, tr)
        assert out.trunc_error == trunc_error


def test_theta_rejects_zero_and_non_finite():
    with pytest.raises(DomainError):
        theta_eval(0.0, 0.3)
    with pytest.raises(DomainError):
        theta_eval(float("nan"), 0.3)
    with pytest.raises(DomainError):
        theta_eval(0.5, complex(float("inf"), 0.0))
    with pytest.raises(DomainError):
        theta_eval(1e-320, 0.5)  # p/z overflows


def test_value_only_theta_keeps_the_value_and_every_check():
    # sigma_eval reads only the value; it must be theta_eval's, bit for bit
    from diffkern.sigma import _theta_value

    rng = random.Random(11)
    for _ in range(40):
        z = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi))
        p = cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(-math.pi, math.pi))
        assert _theta_value(z, p, DEFAULT_TRUNCATION) == theta_eval(z, p).value
    for z, p in (
        (0.0, 0.3),
        (float("nan"), 0.3),
        (0.5, complex(float("inf"), 0.0)),
        (1e-320, 0.5),
        (0.5, 1.0),
    ):
        with pytest.raises(DomainError):
            _theta_value(z, p, DEFAULT_TRUNCATION)


def test_elliptic_gamma_inversion_and_shift():
    p, q = 0.15, 0.2 + 0.1j
    rng = random.Random(3)
    for _ in range(10):
        z = cmath.exp(complex(rng.uniform(-0.2, 0.2), rng.uniform(0.1, 2.0)) * 1j) * rng.uniform(0.7, 1.3)
        g = elliptic_gamma(z, p, q)
        g_inv = elliptic_gamma(p * q / z, p, q)
        assert abs(g * g_inv - 1) < 1e-12
        shift = elliptic_gamma(q * z, p, q)
        assert abs(shift - theta_eval(z, p).value * g) < 1e-12


def test_elliptic_gamma_p_zero_reduces_to_qpoch():
    z, q = 0.3 + 0.2j, 0.25
    assert abs(elliptic_gamma(z, 0.0, q) - 1 / qpoch(z, q, None)) < 1e-13


def test_elliptic_gamma_pole_error():
    with pytest.raises(PoleError):
        elliptic_gamma(1.0, 0.15, 0.2)


def oracle_elliptic_gamma(z, p, q, tr=DEFAULT_TRUNCATION):
    """elliptic_gamma as a double loop that forms every base p^i q^j on
    every call; the table-driven one must give the same bits."""
    for v in (z, p, q):
        if not cmath.isfinite(v):
            raise DomainError(f"elliptic_gamma: non-finite input {v!r}")
    if abs(p) >= 1 or abs(q) >= 1:
        raise DomainError("elliptic gamma needs |p| < 1 and |q| < 1")
    if z == 0:
        raise DomainError("elliptic gamma needs z != 0")
    num = 1 + 0j
    den = 1 + 0j
    pq_over_z = p * q / z
    p_i = 1 + 0j
    for i in range(tr.max_terms + 1):
        q_j = 1 + 0j
        for j in range(tr.max_terms + 1 - i):
            base = p_i * q_j
            num_factor = 1 - base * pq_over_z
            den_factor = 1 - base * z
            if abs(den_factor) < POLE_THRESHOLD:
                raise PoleError(
                    f"elliptic gamma pole: factor (1 - p^{i} q^{j} z) = "
                    f"{den_factor} with z = {z}",
                    where=f"(1 - p^{i} q^{j} z)",
                )
            num *= num_factor
            den *= den_factor
            q_j *= q
            if abs(base) < tr.term_tol:
                break
        p_i *= p
        if abs(p_i) < tr.term_tol:
            break
    return num / den


def _gamma_outcome(call, *args):
    """repr of the value (signed zeros included), or the error with its
    message and, for a pole, its ``where``."""
    try:
        return repr(call(*args))
    except PoleError as exc:
        return ("PoleError", str(exc), exc.where)
    except DomainError as exc:
        return ("DomainError", str(exc))


def test_elliptic_gamma_matches_the_double_loop_oracle():
    rng = random.Random(20261020)
    cases = []
    for _ in range(200):
        z = cmath.rect(rng.uniform(0.05, 4.0), rng.uniform(-math.pi, math.pi))
        p = cmath.rect(rng.uniform(0.0, 0.7), rng.uniform(-math.pi, math.pi))
        q = cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))
        cases.append((z, p, q))
    cases += [
        (0.3 + 0.2j, 0.0, 0.25),  # p = 0: one row
        (0.3 + 0.2j, 0j, complex(0.25, -0.0)),
        (0.7 - 0.4j, 0.15 + 0.05j, complex(0.5, 0.0)),  # q with +0.0 and -0.0
        (0.7 - 0.4j, 0.15 + 0.05j, complex(0.5, -0.0)),
        (complex(0.7, -0.0), complex(0.15, -0.0), complex(0.5, -0.0)),
        (-0.7 + 0.4j, -0.2, -0.6),
        (1.0, 0.15, 0.2),  # pole at (1 - p^0 q^0 z)
        (1 / (0.3 * 0.5**2), 0.3, 0.5),  # pole at (1 - p^1 q^2 z)
        (1 / (0.3**2 * 0.5), 0.3, 0.5),  # pole at (1 - p^2 q^1 z)
        (0.0, 0.3, 0.5),
        (0.4, 1.0, 0.5),
        (complex(0.4, math.nan), 0.3, 0.5),
    ]
    truncations = (
        DEFAULT_TRUNCATION,
        Truncation(max_terms=5),
        Truncation(max_terms=30, term_tol=1e-6),
    )
    poles = set()
    for z, p, q in cases:
        for tr in truncations:
            want = _gamma_outcome(oracle_elliptic_gamma, z, p, q, tr)
            assert _gamma_outcome(elliptic_gamma, z, p, q, tr) == want, (z, p, q, tr)
            if want[0] == "PoleError":
                poles.add(want[2])
    assert {"(1 - p^0 q^0 z)", "(1 - p^1 q^2 z)", "(1 - p^2 q^1 z)"} <= poles


# ----------------------------------------------------------------------
# gamma functions
# ----------------------------------------------------------------------


def test_euler_gamma_against_real_factorials():
    for n in range(1, 8):
        assert abs(euler_gamma(n) - math.gamma(n)) < 1e-10 * math.gamma(n)
    assert abs(euler_gamma(0.5) - math.sqrt(math.pi)) < 1e-12


def test_euler_gamma_frozen_complex_oracles():
    oracles = {
        (2.5, 1.5): 0.3099362258407414 + 0.7340842736214813j,
        (0.3, -0.7): 0.30968625674374917 + 0.8567877529392706j,
        (-1.2, 0.4): 0.8113318949290951 + 1.5355543668434897j,
        (4.0, 0.0): 6.0 + 0.0j,
    }
    for (re, im), expected in oracles.items():
        got = euler_gamma(complex(re, im))
        assert abs(got - expected) < 1e-11 * max(1.0, abs(expected))


def test_euler_gamma_pole():
    with pytest.raises(PoleError):
        euler_gamma(0.0)
    with pytest.raises(PoleError):
        euler_gamma(-3.0)


def _gamma_difference_check(fam, delta, points, tol):
    for sign, target in ((GammaSign.PLUS, 1), (GammaSign.MINUS, -1)):
        for u in points:
            num = gamma_fn(fam, sign, u + delta, delta)
            den = gamma_fn(fam, sign, u, delta)
            expected = target * sigma_eval(fam, u)
            assert abs(num / den - expected) < tol * max(1.0, abs(expected))


def test_gamma_difference_equation_rational():
    fam = SigmaFamily.rational()
    pts = [u for u in _random_points(50, box=0.9) if abs(u) > 1e-2]
    _gamma_difference_check(fam, 1.0, pts, 1e-10)
    _gamma_difference_check(fam, 0.4 + 0.3j, pts, 1e-10)


def test_gamma_difference_equation_trig():
    fam = SigmaFamily.trigonometric(omega1=1.0)
    delta = 0.15 + 0.45j  # Im(delta/omega1) > 0
    pts = _random_points(50, box=0.45)
    _gamma_difference_check(fam, delta, pts, 1e-10)


def test_gamma_difference_equation_elliptic():
    fam = SigmaFamily.elliptic(omega1=1.0, omega2=0.31 + 1.2j)
    delta = 0.12 + 0.55j
    pts = _random_points(50, box=0.4)
    _gamma_difference_check(fam, delta, pts, 1e-9)


def test_gamma_difference_equation_scaled_trig():
    # the 2i-normalized family used by the factorized Koornwinder checks
    fam = SigmaFamily.trigonometric(omega1=1.0, scale=2j)
    delta = 0.2 + 0.5j
    pts = _random_points(20, box=0.45)
    _gamma_difference_check(fam, delta, pts, 1e-10)


def test_gamma_rational_euler_recurrence():
    fam = SigmaFamily.rational()
    for u in (0.7, 1.3 + 0.4j, 2.2 - 0.3j):
        ratio = gamma_fn(fam, GammaSign.PLUS, u + 1, 1.0) / gamma_fn(
            fam, GammaSign.PLUS, u, 1.0
        )
        assert abs(ratio - u) < 1e-10 * max(1.0, abs(u))


def test_gamma_requires_upper_half_ratio():
    fam = SigmaFamily.trigonometric(omega1=1.0)
    with pytest.raises(DomainError):
        gamma_fn(fam, GammaSign.PLUS, 0.3, -0.5j)


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(max_terms=0)
    assert DEFAULT_TRUNCATION.max_terms == 64


def test_family_tables():
    trig = SigmaFamily.trigonometric(omega1=2.0)
    assert trig.rho == 2
    assert trig.omegas == (2.0, 0.0)
    assert trig.epsilons == (-1, 1)
    ell = SigmaFamily.elliptic(omega1=1.0, omega2=0.31 + 1.2j)
    assert ell.rho == 4
    assert ell.omegas[2] == -(1.0 + 0.31 + 1.2j)
    assert ell.etas[1] == -1.0
    assert ell.etas[2] == 1.0
    rat = SigmaFamily.rational()
    assert rat.rho == 1 and rat.kind is FamilyKind.RATIONAL


# ----------------------------------------------------------------------
# the memo of a family copy
# ----------------------------------------------------------------------

# Arguments that are equal as dict keys but not the same number: signed
# zeros in either part, and real, integer and complex forms of one value.
_MEMO_ARGS = (
    0.0,
    -0.0,
    0j,
    -0j,
    complex(0.0, -0.0),
    complex(-0.0, 0.0),
    0,
    0.5,
    0.5 + 0j,
    complex(0.5, -0.0),
    0.25j,
    complex(-0.0, 0.25),
    1,
    1.0,
    0.3 + 0.2j,
    -0.3 - 0.2j,
)
_MEMO_DELTAS = (0.4 + 0.6j, 0.6j, complex(-0.0, 0.6))
# a str equals and hashes like the GammaSign member of its value, so
# gamma_fn must read it as that member, stored or not
_MEMO_SIGNS = (GammaSign.PLUS, GammaSign.MINUS, "plus", "minus")


def _outcome(call, *args):
    """repr of the value, or the class and message of the error raised."""
    try:
        return repr(call(*args))
    except (PoleError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_memo_keys_are_equal_only_for_identical_arguments(families):
    # equal keys would alias values that differ: trig [-0.0] is (-0+0j)
    assert repr(sigma_eval(families["trig"], -0.0)) == "(-0+0j)"
    assert repr(sigma_eval(families["trig"], 0.0)) == "0j"
    for a in _MEMO_ARGS:
        for b in _MEMO_ARGS:
            identical = type(a) is type(b) and repr(complex(a)) == repr(complex(b))
            assert (_exact_key(a) == _exact_key(b)) is identical, (a, b)


@pytest.mark.parametrize("name", ["rational", "trig", "elliptic"])
def test_memo_values_are_bit_exact(families, name):
    fam = families[name]
    for order in (_MEMO_ARGS, _MEMO_ARGS[::-1]):
        memo = fam.memoized()
        for _ in range(2):  # the second pass reads what the first stored
            for u in order:
                assert repr(sigma_eval(memo, u)) == repr(sigma_eval(fam, u)), u
                for sign in _MEMO_SIGNS:
                    for delta in _MEMO_DELTAS:
                        args = (sign, u, delta)
                        assert _outcome(gamma_fn, memo, *args) == _outcome(
                            gamma_fn, fam, *args
                        ), args


def test_memo_reads_back_what_it_stored(families):
    u, delta = 0.3 + 0.2j, 0.4 + 0.6j
    for name in ("trig", "elliptic"):
        memo = families[name].memoized()
        assert sigma_eval(memo, u) is sigma_eval(memo, u)
        assert gamma_fn(memo, GammaSign.PLUS, u, delta) is gamma_fn(
            memo, GammaSign.PLUS, u, delta
        )
        assert len(memo._memo) == 2
    # a rational bracket is one multiply and is not stored; its gamma is
    rational = families["rational"].memoized()
    sigma_eval(rational, u)
    assert rational._memo == {}
    gamma_fn(rational, GammaSign.MINUS, u, delta)
    assert len(rational._memo) == 1


def test_memo_copy_equals_its_family_and_leaves_it_alone(families):
    for fam in families.values():
        memo = fam.memoized()
        assert memo == fam
        assert hash(memo) == hash(fam)
        assert repr(memo) == repr(fam)
        assert fam._memo is None and memo._memo == {}
        assert fam.memoized()._memo is not memo._memo
        # the per-task constants are as private to each copy
        assert fam._constants is None and memo._constants == {}
        assert fam.memoized()._constants is not memo._constants


@pytest.mark.parametrize("name", ["rational", "trig", "elliptic"])
def test_str_sign_gives_the_bits_of_its_member(families, name):
    fam = families[name]
    for member in GammaSign:
        for u in (0.3, 0.3 + 0.2j, -1.7 + 0.4j):
            for delta in _MEMO_DELTAS:
                want = _outcome(gamma_fn, fam, member, u, delta)
                assert _outcome(gamma_fn, fam, member.value, u, delta) == want
    # the two signs differ here, so reading one as the other would show
    u, delta = 0.3, 0.6j
    assert gamma_fn(fam, "plus", u, delta) != gamma_fn(fam, "minus", u, delta)


@pytest.mark.parametrize("name", ["rational", "trig", "elliptic"])
def test_str_sign_and_its_member_share_one_memo_entry(families, name):
    # a str sign is read as its member before the memo lookup, so either
    # spelling, whichever comes first, stores and reads back one value
    fam = families[name]
    u, delta = 0.3 + 0.2j, 0.4 + 0.6j
    for member in GammaSign:
        want = repr(gamma_fn(fam, member, u, delta))
        for first, second in ((member.value, member), (member, member.value)):
            memo = fam.memoized()
            value = gamma_fn(memo, first, u, delta)
            assert repr(value) == want
            assert gamma_fn(memo, second, u, delta) is value
            assert list(memo._memo) == [(member, _exact_key(u), _exact_key(delta))]
            assert type(next(iter(memo._memo))[0]) is GammaSign


def test_gamma_rejects_an_unknown_sign(families):
    # a typo must not select a branch silently, also under python -O
    for fam in families.values():
        memo = fam.memoized()
        for sign in ("bogus", "PLUS", None, 1):
            for target in (fam, memo):
                with pytest.raises(ValueError):
                    gamma_fn(target, sign, 0.3, 0.6j)
        assert memo._memo == {}


@pytest.mark.parametrize("name", ["trig", "elliptic"])
def test_memo_stores_no_pole(name):
    # G_-(0|delta) divides by (z;q)_inf, or by (z;p,q)_inf, at z = 1
    fam = {"trig": SigmaFamily.trigonometric(), "elliptic": SigmaFamily.elliptic()}[name]
    memo = fam.memoized()
    for _ in range(2):
        with pytest.raises(PoleError):
            gamma_fn(memo, GammaSign.MINUS, 0.0, 0.4 + 0.6j)
    assert memo._memo == {}


_NON_FINITE = (
    math.nan,
    math.inf,
    -math.inf,
    complex(0.3, math.nan),
    complex(math.nan, 0.0),
    complex(-math.inf, 0.2),
    complex(0.3, math.inf),
)


@pytest.mark.parametrize("name", ["rational", "trig", "elliptic"])
def test_memo_rejects_non_finite_arguments_and_stores_nothing(families, name):
    # the memo is read before the finiteness check; a non-finite argument
    # is never stored, so it must still reach the check
    memo = families[name].memoized()
    for _ in range(2):
        for bad in _NON_FINITE:
            with pytest.raises(DomainError):
                sigma_eval(memo, bad)
            for sign in GammaSign:
                with pytest.raises(DomainError):
                    gamma_fn(memo, sign, bad, 0.4 + 0.6j)
                with pytest.raises(DomainError):
                    gamma_fn(memo, sign, 0.3 + 0.2j, bad)
    assert memo._memo == {} and memo._constants == {}


def test_memo_builds_one_gamma_table_per_nome(families):
    fam = families["elliptic"]
    memo = fam.memoized()
    omega2 = fam.omega2
    poles = set()
    for delta in (0.4 + 0.6j, 0.6j, complex(-0.0, 0.6), 0.4 + 0.6j):
        # G_- has a pole where 1 - p^i q^j z vanishes, at u = -(j delta + i omega2)
        points = [0.3 + 0.2j, -1.7 + 0.4j] + [
            -(j * delta + i * omega2) for i in (0, 1) for j in (0, 2)
        ]
        for u in points:
            for sign in GammaSign:
                want = _gamma_outcome(gamma_fn, fam, sign, u, delta)
                assert _gamma_outcome(gamma_fn, memo, sign, u, delta) == want
                if want[0] == "PoleError":
                    poles.add(want[2])
    assert "(1 - p^1 q^2 z)" in poles
    # 0.6j and complex(-0.0, 0.6) give the same nome q, bit for bit
    tags = [key[0] for key in memo._constants]
    assert tags == ["gamma table"] * 2
    tables = list(memo._constants.values())
    gamma_fn(memo, GammaSign.PLUS, 0.9 + 0.1j, 0.4 + 0.6j)
    assert list(memo._constants.values()) == tables
    assert all(type(value) is complex for value in memo._memo.values())
