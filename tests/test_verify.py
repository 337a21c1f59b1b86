"""Tests for the residual verification harness."""

import cmath
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffkern.verify as verify
from diffkern.kernels import kern_phi0, kern_psi_mult, pi_macdonald, psi_BC
from diffkern.operators import (
    ParamsA,
    ParamsBC,
    apply_A,
    apply_D_BC,
    coeff_BC,
    coeff_BC_zero,
)
from diffkern.sigma import (
    DomainError,
    FamilyKind,
    GammaSign,
    PoleError,
    SigmaFamily,
    _LATTICE_REACH,
    _reduced_basis,
    duplication_residual,
    euler_gamma,
    gamma_fn,
    lattice_dist,
    lattice_unit,
    phase,
)
from diffkern.verify import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    FAMILY_TOLERANCES,
    BalancingError,
    IdentityId,
    applicable_families,
    first_failure,
    load_defaults,
    reports_to_json,
    residual,
    run_suite,
    sample_params,
    sample_point,
    solve_balancing,
)

from bc_duplication import apply_E_BC_dup


@pytest.fixture(scope="module")
def families():
    return {
        "rational": SigmaFamily.rational(),
        "trig": SigmaFamily.trigonometric(),
        "elliptic": SigmaFamily.elliptic(),
    }


def task_rng(seed, ident, fam, m, n):
    return random.Random(f"{seed}|{ident.value}|{fam.kind.value}|{m}|{n}")


def sampled_residual(ident, fam, m, n, seed=11, points=3):
    rng = task_rng(seed, ident, fam, m, n)
    params = sample_params(ident, fam, m, n, rng)
    worst = 0.0
    for _ in range(points):
        pt = sample_point(ident, fam, m, n, params, rng)
        worst = max(worst, residual(ident, fam, m, n, params, pt))
    return worst


# ======================================================================
# identity catalogue
# ======================================================================


def test_every_identity_has_a_unique_evaluator():
    assert len(IdentityId) == 22
    values = {i.value for i in IdentityId}
    assert len(values) == 22
    # spot-check the public spellings
    assert "thm-ae1" in values
    assert "prop-exp-f" in values
    assert "factorized-c" in values
    assert "quasi-period" in values


def test_tolerances_come_from_config():
    cfg = load_defaults()
    assert FAMILY_TOLERANCES[FamilyKind.RATIONAL] == cfg["tolerances"]["rational"]
    assert FAMILY_TOLERANCES[FamilyKind.TRIGONOMETRIC] == cfg["tolerances"]["trig"]
    assert FAMILY_TOLERANCES[FamilyKind.ELLIPTIC] == cfg["tolerances"]["elliptic"]
    assert DEFAULT_SEED == cfg["seed"]
    assert DEFAULT_SAMPLES == cfg["samples"]


def test_applicability_table(families):
    assert applicable_families(IdentityId.RIEMANN) == (
        FamilyKind.RATIONAL,
        FamilyKind.TRIGONOMETRIC,
        FamilyKind.ELLIPTIC,
    )
    assert FamilyKind.ELLIPTIC not in applicable_families(IdentityId.THM_AT1)
    assert applicable_families(IdentityId.THM41_1) == (FamilyKind.TRIGONOMETRIC,)
    with pytest.raises(DomainError):
        residual(IdentityId.THM_AT1, families["elliptic"], 1, 1, {}, {})
    with pytest.raises(DomainError):
        sample_params(
            IdentityId.THM41_2, families["rational"], 1, 1, random.Random(0)
        )


# ======================================================================
# balancing conditions
# ======================================================================


def test_balancing_ae2_linear_solve(families):
    delta = 0.21 + 0.33j
    out = solve_balancing(
        IdentityId.THM_AE2, families["trig"], 2, 3, {"delta": delta, "v": 0.1}
    )
    assert out["kappa"] == -3 * delta / 2
    assert out["delta"] == delta and out["v"] == 0.1


def test_balancing_ae1_asserts_square(families):
    params = {"delta": 0.2 + 0.3j, "kappa": 0.1, "v": 0.0}
    assert solve_balancing(IdentityId.THM_AE1, families["trig"], 2, 2, params) == params
    with pytest.raises(BalancingError):
        solve_balancing(IdentityId.THM_AE1, families["trig"], 2, 3, params)


def test_balancing_ae2_unsatisfiable(families):
    with pytest.raises(BalancingError):
        solve_balancing(IdentityId.THM_AE2, families["trig"], 0, 0, {"delta": 0.3j})


def test_balancing_bce_constraints(families):
    delta, kappa = 0.08 + 0.29j, 0.09 + 0.04j
    for name in ("rational", "trig", "elliptic"):
        fam = families[name]
        mu = tuple(0.1 * k + 0.05j * (-1) ** k for k in range(2 * fam.rho))
        for ident, m, n in (
            (IdentityId.THM_BCE1, 2, 3),
            (IdentityId.THM_BCE2, 1, 2),
        ):
            out = solve_balancing(
                ident, fam, m, n, {"mu": mu, "delta": delta, "kappa": kappa}
            )
            p = ParamsBC(tuple(out["mu"]), delta, kappa, fam)
            if ident is IdentityId.THM_BCE1:
                constraint = 2 * (m - n) * kappa + p.c_const
            else:
                constraint = 2 * m * kappa + 2 * n * delta + p.c_const
            assert abs(constraint) < 1e-13


def test_balancing_key_identity_sums_to_zero(families):
    out = solve_balancing(
        IdentityId.KEY_IDENTITY_ELLIPTIC,
        families["elliptic"],
        2,
        2,
        {"cs": (0.1 + 0.2j, -0.3j, 0.07, 0.5)},
    )
    assert abs(sum(out["cs"])) < 1e-15


def test_balancing_leaves_unconstrained_ids_alone(families):
    params = {"delta": 0.1 + 0.3j, "kappa": 0.05, "v": 0.2}
    assert solve_balancing(IdentityId.THM_AT1, families["trig"], 3, 1, params) == params


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=5),
    re=st.floats(min_value=-0.4, max_value=0.4),
    im=st.floats(min_value=0.05, max_value=0.5),
)
def test_balancing_ae2_exact_property(m, n, re, im):
    delta = complex(re, im)
    out = solve_balancing(
        IdentityId.THM_AE2, SigmaFamily.trigonometric(), m, n, {"delta": delta}
    )
    assert abs(m * out["kappa"] + n * delta) <= 1e-14 * abs(n * delta)


# ======================================================================
# residual evaluators
# ======================================================================


@pytest.mark.parametrize("w1", [1.0, 0.8 + 0.3j])
@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_thm41_2_kernel_is_the_exact_dual_cauchy_kernel(m, n, w1):
    # psi_BC on the pinned trig family, thm41-2's kernel, against
    # kern_psi_mult evaluated at the square roots s = e(x/(2 omega1)).  The
    # real parts are spread over (0, 1/2), where cos is one to one, so no
    # factor z + 1/z - w - 1/w is small and the expanded exact form is well
    # conditioned.
    poly = kern_psi_mult(m, n)
    pinned = verify._pinned(SigmaFamily.trigonometric(omega1=w1))
    rng = random.Random(10 * m + n)
    for _ in range(3):
        re = [(k + 0.5) / (2 * (m + n)) for k in range(m + n)]
        rng.shuffle(re)
        pts = [w1 * complex(r, rng.uniform(-0.1, 0.1)) for r in re]
        exact = poly.eval_at([phase(v / (2 * w1)) for v in pts])
        numeric = psi_BC(pts[:m], pts[m:], pinned)
        assert abs(numeric - exact) <= 1e-12 * abs(exact)


def reference_koorn_shift_apply(mu4, shift, coupling, f, x, omega1):
    """The bracket-normalised Koornwinder operator minus the identity, in
    z_i = e(x_i/omega1) with a_s = e(mu_s/omega1), q = e(shift/omega1) and
    t = e(coupling/omega1), written from its multiplicative coefficients

        (a, b, c, d)^(-1/2) q^(1/2) t^(1-m) prod_s (1 - a_s z_i)
            / ((1 - z_i^2)(1 - q z_i^2))
            * prod_{j != i} (1 - t z_i z_j)(1 - t z_i/z_j)
                          / ((1 - z_i z_j)(1 - z_i/z_j)),

    and z_i -> 1/z_i with the inverse shift, with no sigma function."""
    count = len(x)
    zs = [phase(xi / omega1) for xi in x]
    avals = [phase(ms / omega1) for ms in mu4]
    qv = phase(shift / omega1)
    tv = phase(coupling / omega1)
    norm = phase((sum(mu4) - shift) / (2 * omega1)) * tv ** (count - 1)
    total = 0j
    for i in range(count):
        for inv in (1, -1):
            zi = zs[i] if inv == 1 else 1 / zs[i]
            coeff = 1 + 0j
            for a in avals:
                coeff *= 1 - a * zi
            coeff /= norm * (1 - zi * zi) * (1 - qv * zi * zi)
            for j in range(count):
                if j != i:
                    zj = zs[j] if inv == 1 else 1 / zs[j]
                    coeff *= (1 - tv * zi * zj) * (1 - tv * zi / zj)
                    coeff /= (1 - zi * zj) * (1 - zi / zj)
            shifted = list(x)
            shifted[i] = x[i] + inv * shift
            total += coeff * (f(tuple(shifted)) - f(tuple(x)))
    return total


@pytest.mark.parametrize("w1", [1.0, 0.8 + 0.3j])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ident", [IdentityId.THM41_1, IdentityId.THM41_2])
def test_bc_difference_operator_is_minus_the_koornwinder_operator(ident, m, w1):
    # on the pinned trig family apply_D_BC is minus the multiplicative
    # operator, with shift and coupling either way round, at the points
    # and parameters the thm41 samplers draw, on both variable sets
    fam = SigmaFamily.trigonometric(omega1=w1)
    pinned = verify._pinned(fam)
    n = 2
    rng = task_rng(41, ident, fam, m, n)
    params = sample_params(ident, fam, m, n, rng)
    mu, delta, kappa = params["mu"], params["delta"], params["kappa"]
    for _ in range(3):
        pt = sample_point(ident, fam, m, n, params, rng)
        x, y = pt["x"], pt["y"]
        if ident is IdentityId.THM41_2:
            kern = lambda xs, ys: psi_BC(xs, ys, pinned)
        else:
            kern = lambda xs, ys: kern_phi0(xs, ys, delta, kappa, omega1=w1)
        for shift, coupling in ((delta, kappa), (kappa, delta)):
            p = ParamsBC(mu, shift, coupling, pinned)
            for f, var in ((lambda xs: kern(xs, y), x), (lambda ys: kern(x, ys), y)):
                want = reference_koorn_shift_apply(mu, shift, coupling, f, var, w1)
                got = -apply_D_BC(p, f, var)
                assert abs(got - want) <= 1e-12 * abs(want)


def test_riemann_structural_zero_when_arguments_coincide(families):
    pt = {"x": 0.21 + 0.03j, "y": -0.11 + 0.02j, "u": 0.07 - 0.01j, "v": 0.07 - 0.01j}
    for fam in families.values():
        assert residual(IdentityId.RIEMANN, fam, 1, 1, {}, pt) == 0.0


def test_at2_small_case_example(families):
    worst = sampled_residual(IdentityId.THM_AT2, families["trig"], 1, 1, points=5)
    assert worst < 1e-10


def test_ae1_elliptic_nome_point_two():
    # |p| = 0.2 needs Im(omega2) = ln(5) / (2 pi)
    omega2 = 0.17 + math.log(5.0) / (2 * math.pi) * 1j
    fam = SigmaFamily.elliptic(omega2=omega2)
    assert abs(fam.nome) == pytest.approx(0.2, rel=1e-12)
    worst = sampled_residual(IdentityId.THM_AE1, fam, 2, 2, points=3)
    assert worst < 1e-8


def test_every_identity_meets_family_tolerance(families):
    for ident in IdentityId:
        for name, fam in families.items():
            if fam.kind not in applicable_families(ident):
                continue
            m, n = (2, 2) if ident in (IdentityId.THM_AE1, IdentityId.HIGHER_A_KERNEL) else (2, 1)
            worst = sampled_residual(ident, fam, m, n)
            assert worst < FAMILY_TOLERANCES[fam.kind], (ident, name, worst)


def test_prop_exp_f_matches_direct_evaluation_all_families(families):
    # the expansion evaluator compares the coefficient form against F(z)
    # directly, so a small residual is exactly the required agreement
    for name, fam in families.items():
        worst = sampled_residual(IdentityId.PROP_EXP_F, fam, 2, 2, points=5)
        assert worst < FAMILY_TOLERANCES[fam.kind], (name, worst)


def test_factorized_constant_is_scale_pinned(families):
    # incoming scale must not matter: the statement fixes the normalization
    fam_a = SigmaFamily.trigonometric(scale=1.0)
    fam_b = SigmaFamily.trigonometric(scale=-3.7j)
    params = {"kappa": 0.11 + 0.02j, "lambda": 0.07 - 0.03j, "c": 0.19 + 0.23j}
    r_a = residual(IdentityId.FACTORIZED_C, fam_a, 2, 1, params, {})
    r_b = residual(IdentityId.FACTORIZED_C, fam_b, 2, 1, params, {})
    assert r_a == r_b
    assert r_a < 1e-12


def test_pinned_family_is_kept_in_the_task_memo(families):
    # a memoized family builds its pinned copy once; a plain one builds a
    # fresh memoized copy per call; an elliptic one raises and stores nothing
    for name in ("rational", "trig"):
        fam = families[name]
        memo = fam.memoized()
        pinned = verify._pinned(memo)
        assert verify._pinned(memo) is pinned, name
        assert pinned._memo == {} and pinned == verify._pinned_copy(fam), name
        first, second = verify._pinned(fam), verify._pinned(fam)
        assert first is not second and first == second == pinned, name
        assert first._memo is not None and first._memo is not second._memo, name
    elliptic = families["elliptic"].memoized()
    with pytest.raises(DomainError):
        verify._pinned(elliptic)
    assert elliptic._constants == {}


def test_bctd_respects_incoming_scale_via_pinning(families):
    fam = SigmaFamily.trigonometric(scale=0.7 + 0.1j)
    worst = sampled_residual(IdentityId.THM_BCTD1, fam, 2, 1)
    assert worst < 1e-10


def test_rational_difference_variant_rhs_is_zero(families):
    # same statement, rational family: the factor collapses and the
    # difference of operators annihilates the kernel outright
    for ident in (IdentityId.THM_BCTD1, IdentityId.THM_BCTD2, IdentityId.FACTORIZED_C):
        worst = sampled_residual(ident, families["rational"], 2, 2)
        assert worst < 1e-11, ident


def test_higher_order_kernel_identity_all_orders(families):
    rng = task_rng(3, IdentityId.HIGHER_A_KERNEL, families["trig"], 2, 2)
    params = sample_params(IdentityId.HIGHER_A_KERNEL, families["trig"], 2, 2, rng)
    pt = sample_point(IdentityId.HIGHER_A_KERNEL, families["trig"], 2, 2, params, rng)
    # r=None sweeps every order; a single order can also be pinned
    assert residual(IdentityId.HIGHER_A_KERNEL, families["trig"], 2, 2, params, pt) < 1e-10
    single = dict(params)
    single["r"] = 2
    assert residual(IdentityId.HIGHER_A_KERNEL, families["trig"], 2, 2, single, pt) < 1e-10


def test_pole_error_names_the_subexpression(families):
    fam = families["trig"]
    params = {"cs": (0.1 + 0.05j, -0.2 + 0.1j)}
    pt = {"xs": (0.3 + 0.01j, -0.2 + 0.04j), "z": 0.3 + 0.01j}
    with pytest.raises(PoleError) as err:
        residual(IdentityId.PARTIAL_FRACTION, fam, 1, 1, params, pt)
    assert "z - x" in str(err.value)


_TRIG = SigmaFamily.trigonometric()
_POLE_MU = (0.11 + 0.02j, -0.07 + 0.05j, 0.13 - 0.04j, 0.05 + 0.03j)
_POLE_BC = ParamsBC(_POLE_MU, 0.3 + 0.1j, 0.2 + 0.05j, _TRIG)
# x + y = -(delta - kappa)/2 puts (q^(1/2) t^(-1/2) z w; q)_inf on its zero
_PHI0_AT_POLE = ((0.1,), (-0.2 - 0.2j,), 0.3 + 0.6j, 0.1 + 0.2j)

# (where, call) for one pole at each site that applies the pole rule
_POLE_SITES = {
    "duplication_residual": (
        "[2u]", lambda: duplication_residual(_TRIG, 0.5, 0.3)
    ),
    "euler_gamma": ("sin(pi z)", lambda: euler_gamma(-2.0)),
    "gamma_fn": (
        "(z;q)_inf",
        lambda: gamma_fn(_TRIG, GammaSign.MINUS, 0.0, 0.4 + 0.6j),
    ),
    "coeff_BC-half-period": (
        "[x_0 - omega_1/2]",
        lambda: coeff_BC(_POLE_BC, (0.5, 0.2 + 0.1j), 0, 1),
    ),
    "coeff_BC-pair": (
        "[x_0 - x_1]",
        lambda: coeff_BC(_POLE_BC, (0.3 + 0.1j, 0.3 + 0.1j), 0, 1),
    ),
    "coeff_BC_zero": (
        "[(omega_1 - delta)/2 - x_0]",
        lambda: coeff_BC_zero(_POLE_BC, ((1 - _POLE_BC.delta) / 2,), 0),
    ),
    "apply_E_BC_dup": (
        "[2x_0][2x_0 + delta]",
        lambda: apply_E_BC_dup(_POLE_BC, lambda x: 1, (0.0,)),
    ),
    "apply_A": (
        "[x_0 - x_1]",
        lambda: apply_A(
            ParamsA(0.3 + 0.1j, 0.2 + 0.05j, _TRIG), lambda x: 1, (0.2j, 0.2j)
        ),
    ),
    "pi_macdonald": (
        "(z w; q)_inf", lambda: pi_macdonald((2.0,), (0.5,), 0.3, 0.7)
    ),
    "kern_phi0-zero": (
        "(q^(1/2) t^(-1/2) z w; q)_inf",
        lambda: kern_phi0(*_PHI0_AT_POLE),
    ),
    "kern_phi0-minus": (
        "(q^(1/2) t^(-1/2) z w; q)_inf",
        lambda: kern_phi0(*_PHI0_AT_POLE, variant="minus"),
    ),
    "prop-exp-f": (
        "[z + (delta - omega_s)/2]",
        lambda: residual(
            IdentityId.PROP_EXP_F,
            _TRIG,
            1,
            1,
            {"mu": _POLE_MU, "delta": 0.3 + 0.1j, "kappa": 0.2 + 0.05j,
             "lambda": 0.15 + 0.07j},
            {"x": (0.21 + 0.03j,), "y": (-0.12 + 0.04j,), "z": (0.7 - 0.1j) / 2},
        ),
    ),
}


@pytest.mark.parametrize("site", sorted(_POLE_SITES))
def test_pole_error_names_the_factor(site):
    where, call = _POLE_SITES[site]
    with pytest.raises(PoleError) as err:
        call()
    assert err.value.where == where
    assert where in str(err.value)


# ======================================================================
# pole guards
# ======================================================================


def window_dist(fam, u, radius):
    """Distance from u to the nearest node in a (2r+1)x(2r+1) window of the
    elliptic lattice, centred on the node u's rounded coordinates name."""
    w1, w2 = fam.omega1, fam.omega2
    det = w1.real * w2.imag - w1.imag * w2.real
    a = (u.real * w2.imag - u.imag * w2.real) / det
    b = (w1.real * u.imag - w1.imag * u.real) / det
    span = range(-radius, radius + 1)
    return min(
        abs(u - ((round(a) + da) * w1 + (round(b) + db) * w2)) for da in span for db in span
    )


def guard_points(fam, limit, rng, count=300):
    """Points within ``limit`` of a lattice node, just outside it, and anywhere."""
    points = []
    for k in range(count):
        node = rng.randint(-3, 3) * fam.omega1 + rng.randint(-3, 3) * fam.omega2
        reach = (rng.uniform(0.0, 0.999), rng.uniform(1.001, 1.05), rng.uniform(1.05, 40.0))[k % 3]
        points.append(node + cmath.rect(reach * limit, rng.uniform(0.0, 2 * math.pi)))
    return points


GUARD_LATTICES = {
    "default": (0.31 + 1.2j, True),
    "skewed": (2.3 + 0.45j, True),
    "degenerate": (10 + 0.01j, False),
}


def scan_radius(fam, limit):
    """Smallest window radius (at least 2, a 5x5 scan) that holds every node
    within ``limit`` of a point: a node that close moves each rounded
    coordinate by at most limit * max(|w1|, |w2|) / |det|."""
    w1, w2 = fam.omega1, fam.omega2
    det = abs(w1.real * w2.imag - w1.imag * w2.real)
    return max(2, math.ceil(limit * max(abs(w1), abs(w2)) / det) + 1)


def test_guard_margins_stay_within_the_lattice_reach():
    # lattice_dist is exact only up to its reach; a wider margin could
    # measure a farther node and let a near-pole point through
    assert max(verify.POLE_MARGIN, verify._SEPARATION_MARGIN) <= _LATTICE_REACH


@pytest.mark.parametrize("lattice", sorted(GUARD_LATTICES))
def test_lattice_guard_matches_window_scan(lattice):
    omega2, single_node = GUARD_LATTICES[lattice]
    plain = SigmaFamily.elliptic(omega2=omega2)
    window = plain._guard_basis[2]
    assert window is not single_node
    for fam in (plain, plain.memoized()):
        rng = random.Random(f"guard|{lattice}")
        for margin in (verify.POLE_MARGIN, verify._SEPARATION_MARGIN):
            limit = margin * abs(fam.omega1)
            # 5x5 everywhere but on the degenerate lattice at the wider
            # margin, where a node within it can sit 20 steps of omega1
            # from the rounded coordinates (and a 5x5 scan misses it)
            radius = scan_radius(fam, limit)
            for u in guard_points(fam, limit, rng):
                near = lattice_dist(fam, u) < limit
                assert near == (window_dist(fam, u, radius) < limit), (margin, u)
    # the family picked its basis at construction; guarding stores nothing
    assert fam._constants == {}
    assert fam._guard_basis[2] is window


def oracle_guard_gamma_ladder(fam, delta, *bases):
    """The gamma-ladder guard as it measured each elliptic rung at four
    points a lattice vector apart (offsets -omega2, 0, omega2, 2 omega2)."""
    offsets = (0.0,)
    if fam.kind is FamilyKind.ELLIPTIC:
        offsets = (-fam.omega2, 0.0, fam.omega2, 2 * fam.omega2)
    margin = verify.POLE_MARGIN * lattice_unit(fam)
    for base in bases:
        for k in range(-2, 5):
            for off in offsets:
                if lattice_dist(fam, base + k * delta + off) < margin:
                    raise verify._Reject


def _rejects(guard, *args):
    try:
        guard(*args)
    except verify._Reject:
        return True
    return False


@pytest.mark.parametrize("lattice", sorted(GUARD_LATTICES))
def test_ladder_guard_matches_the_four_offset_oracle(lattice):
    plain = SigmaFamily.elliptic(omega2=GUARD_LATTICES[lattice][0])
    limit = verify.POLE_MARGIN * abs(plain.omega1)
    decisions = {True: 0, False: 0}
    for fam in (plain, plain.memoized()):
        rng = random.Random(f"ladder|{lattice}")
        for idx in range(1500):
            delta = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.5))
            node = rng.randint(-3, 3) * fam.omega1 + rng.randint(-3, 3) * fam.omega2
            # a base one of whose rungs lies within, just outside or far
            # from the margin
            reach = (
                rng.uniform(0.0, 0.999), rng.uniform(1.001, 1.05), rng.uniform(1.05, 40.0)
            )[idx % 3]
            rung = rng.randint(-2, 4)
            near = node + cmath.rect(reach * limit, rng.uniform(0.0, 2 * math.pi))
            base = near - rung * delta
            want = _rejects(oracle_guard_gamma_ladder, fam, delta, base)
            assert _rejects(verify._guard_gamma_ladder, fam, delta, base) == want, (delta, base)
            decisions[want] += 1
    assert min(decisions.values()) > 500


@pytest.mark.parametrize("omega2", [10 + 0.01j, 2.3 + 0.45j, -3.7 + 0.2j])
def test_reduced_basis_is_a_short_basis_of_the_same_lattice(omega2):
    w1, w2 = 1.0 + 0j, omega2
    r1, r2 = _reduced_basis(w1, w2)
    det = w1.real * w2.imag - w1.imag * w2.real
    assert math.isclose(abs(r1.real * r2.imag - r1.imag * r2.real), abs(det))
    assert abs(r1) <= abs(r2)
    assert abs((r2 * r1.conjugate()).real) <= abs(r1) ** 2 / 2 + 1e-12
    # each reduced vector is an integer combination of the given basis
    for r in (r1, r2):
        a = (r.real * w2.imag - r.imag * w2.real) / det
        b = (w1.real * r.imag - w1.imag * r.real) / det
        assert abs(a - round(a)) < 1e-9 and abs(b - round(b)) < 1e-9
    # a family too skewed for its given basis guards in the reduced one
    r1_, r2_, window = SigmaFamily.elliptic(omega1=w1, omega2=w2)._guard_basis
    assert (r1_, r2_) == ((r1, r2) if window else (w1, w2))


# ======================================================================
# negative control
# ======================================================================


def test_broken_balancing_is_detected(families):
    fam = families["elliptic"]
    ident = IdentityId.THM_BCE2
    rng = task_rng(7, ident, fam, 2, 2)
    params = sample_params(ident, fam, 2, 2, rng)
    # a wide fixed point keeps the kernel O(1), so the perturbation is visible
    pt = {"x": (0.31 + 0.04j, -0.17 + 0.09j), "y": (0.23 - 0.05j, 0.08 + 0.11j)}
    assert residual(ident, fam, 2, 2, params, pt) < 1e-7
    broken = dict(params)
    broken["kappa"] = params["kappa"] + 1e-3
    assert residual(ident, fam, 2, 2, broken, pt) > 1e-4


# ======================================================================
# suite runner
# ======================================================================

SUBSET = (
    IdentityId.RIEMANN,
    IdentityId.THM_AT1,
    IdentityId.THM_AT2,
    IdentityId.THM_BCT1,
    IdentityId.THM_BCE2,
    IdentityId.THM41_1,
)


def test_suite_trig_subset_passes_at_1e9():
    reports = run_suite(ids=SUBSET, fam=SigmaFamily.trigonometric(), samples=8, seed=5)
    assert reports
    assert first_failure(reports, 1e-9) is None


def test_suite_accepts_string_ids():
    reports = run_suite(
        ids=["riemann", "thm-at2"], fam=SigmaFamily.trigonometric(), samples=4
    )
    assert {r.id for r in reports} == {IdentityId.RIEMANN, IdentityId.THM_AT2}


def test_suite_reports_are_sorted_and_complete():
    reports = run_suite(
        ids=[IdentityId.THM_AT2, IdentityId.RIEMANN],
        fam=SigmaFamily.trigonometric(),
        size_grid=[(2, 1), (1, 1)],
        samples=3,
    )
    keys = [(r.id.value, r.m, r.n) for r in reports]
    assert keys == sorted(keys)
    assert len(reports) == 4


def test_suite_filters_inapplicable_and_nonsquare():
    assert run_suite(ids=[IdentityId.THM41_1], fam=SigmaFamily.rational(), samples=2) == []
    reports = run_suite(
        ids=[IdentityId.THM_AE1],
        fam=SigmaFamily.trigonometric(),
        size_grid=[(1, 2), (2, 2)],
        samples=2,
    )
    assert [(r.m, r.n) for r in reports] == [(2, 2)]


def test_suite_deterministic_json():
    kwargs = dict(ids=SUBSET[:3], fam=SigmaFamily.trigonometric(), samples=4, seed=99)
    first = reports_to_json(run_suite(**kwargs))
    second = reports_to_json(run_suite(**kwargs))
    assert first == second


def test_suite_redraws_a_pole_point_from_its_retry_stream(monkeypatch):
    ident, fam = IdentityId.RIEMANN, SigmaFamily.trigonometric()
    real = verify.residual
    seen = []

    def pole_on_second_call(*args):
        seen.append(args[5])
        if len(seen) == 2:
            raise PoleError("forced pole", where="test")
        return real(*args)

    monkeypatch.setattr(verify, "residual", pole_on_second_call)
    run_suite(ids=[ident], fam=fam, size_grid=[(1, 1)], samples=3, seed=7)

    rng = task_rng(7, ident, fam, 1, 1)
    params = sample_params(ident, fam, 1, 1, rng)
    points = [sample_point(ident, fam, 1, 1, params, rng) for _ in range(3)]
    retry = random.Random(f"7|retry|{ident.value}|{fam.kind.value}|1|1|1")
    redrawn = sample_point(ident, fam, 1, 1, params, retry)
    assert seen == [points[0], points[1], redrawn, points[2]]


def test_suite_gives_each_task_a_memo_of_its_own(monkeypatch, families):
    real = verify.residual
    memos = {}

    def record(ident, fam, m, n, params, point):
        memos.setdefault((ident, m, n), []).append(fam._memo)
        return real(ident, fam, m, n, params, point)

    monkeypatch.setattr(verify, "residual", record)
    ids = [IdentityId.RIEMANN, IdentityId.THM_BCE1]
    for name in ("trig", "elliptic"):
        fam = families[name]
        twin = SigmaFamily(fam.kind, fam.omega1, fam.omega2)
        before = (repr(fam), hash(fam))
        memos.clear()
        run_suite(ids, fam, size_grid=[(1, 1), (2, 1)], samples=2, seed=5)
        # one filled dict per task, the same for all of its points
        assert len(memos) == 4
        for seen in memos.values():
            assert isinstance(seen[0], dict) and seen[0]
            assert all(memo is seen[0] for memo in seen)
        assert len({id(seen[0]) for seen in memos.values()}) == len(memos)
        # the caller's family holds no state and is unchanged
        assert fam._memo is None
        assert fam == twin
        assert (repr(fam), hash(fam)) == before


def test_bc_kernel_is_looked_up_when_the_residual_runs(monkeypatch):
    # perfbench's traced runs time phi_BC by replacing verify's name for it;
    # a kernel bound when verify is imported would escape that span
    real = verify.phi_BC
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "phi_BC", counted)
    sampled_residual(IdentityId.THM_BCT1, SigmaFamily.trigonometric(), 1, 1, points=1)
    assert calls


#: sha256 of reports_to_json(run_suite(None, fam, samples=2, seed=20261018))
#: over the default grid.  These pin the draw order of every sampler and the
#: arithmetic of every evaluator on this CPython and libm: a reordered draw
#: or a changed residual changes the digest.
GOLDEN_SUITE_SHA256 = {
    "rational": "a7144e2e444edb3d38eaa2a1fb7b1f3a681d569ec50af1ddc1c7459235e8f86c",
    "trig": "9e492de50164df7030a11025d977336d59ef0da8fe89434ea2adf4e02dd0cc05",
    "elliptic": "7e23425d6fe960200432935bdfb628a7fd5e4fe650f18e7f34555908a881c5cd",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SUITE_SHA256))
def test_suite_reports_match_golden_digest(families, name):
    text = reports_to_json(run_suite(None, families[name], samples=2, seed=20261018))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SUITE_SHA256[name]


#: sha256 of reports_to_json(run_suite(None, fam, samples=3, seed=s)) for a
#: few seeds, on the default elliptic lattice and on a skewed one, so the
#: elliptic guards and theta products are pinned beyond the single seed above.
WIDE_ELLIPTIC_SHA256 = {
    ("default", 1): "ea7a4d79673c1cd2a40a88f90291452faa7501e81f3d1112ff89f8d267b4e9ed",
    ("default", 2): "82b4281c8c4c936ae9bf82d56c22c7257b9fdbbb2cb2f4fe07446d2d201f015b",
    ("default", 3): "8e4124253e2cd6f7aa49a70b1b35821019df240a29835ef60bb56c07f9e37351",
    ("skewed", 1): "99f1fa71abe9d9cbc1c676c17e9b040a6333cc1deb0c6cb1fed3c0240afcb711",
    ("skewed", 2): "95c03c8496759822d95214edeba04a7e7d786429943849729421ad22937a581b",
    ("skewed", 3): "4724e8602087ca8bb9c6695b8068a982273cd99f13e76c38c6c73bd9128f818b",
}

ELLIPTIC_LATTICES = {
    "default": SigmaFamily.elliptic(),
    "skewed": SigmaFamily.elliptic(omega2=2.3 + 0.45j),
}


@pytest.mark.parametrize(
    "lattice,seed", sorted(WIDE_ELLIPTIC_SHA256), ids=lambda v: str(v)
)
def test_elliptic_reports_match_wide_golden_digest(lattice, seed):
    fam = ELLIPTIC_LATTICES[lattice]
    text = reports_to_json(run_suite(None, fam, samples=3, seed=seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == WIDE_ELLIPTIC_SHA256[(lattice, seed)]


def test_suite_takes_no_tolerance():
    # tolerances apply in first_failure; the suite only measures
    with pytest.raises(TypeError):
        run_suite(ids=[IdentityId.RIEMANN], samples=1, tol=1e-9)


def test_suite_rejects_zero_samples():
    # with no points there is no residual to report
    with pytest.raises(ValueError):
        run_suite(ids=[IdentityId.RIEMANN], samples=0)


def test_report_json_shape():
    reports = run_suite(ids=[IdentityId.THM_AT2], fam=SigmaFamily.trigonometric(), samples=2)
    payload = json.loads(reports_to_json(reports))
    assert isinstance(payload, list) and payload
    entry = payload[0]
    assert list(entry.keys()) == [
        "id",
        "family",
        "m",
        "n",
        "seed",
        "samples",
        "max_residual",
        "params",
    ]
    assert entry["id"] == "thm-at2"
    assert entry["family"] == "trig"
    assert entry["samples"] == 2
    # complex parameters serialize as strings that parse back
    assert complex(entry["params"]["delta"])


def test_first_failure_uses_family_tolerances():
    reports = run_suite(ids=[IdentityId.RIEMANN], fam=SigmaFamily.trigonometric(), samples=3)
    assert first_failure(reports) is None
    assert first_failure(reports, 1e-30) is reports[0]
