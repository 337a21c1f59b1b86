"""Checks on diffkern's outputs, computed apart from diffkern.

Nothing here calls diffkern: the Koornwinder operator is evaluated at a
rational point from its defining formula, the eigenvalue comes from its
own closed form, the dominance basis is enumerated afresh, the identity
table and family tolerances are restated, and sigma and gamma values are
recomputed with mpmath.  Each check raises :class:`CheckFailed` naming
what went wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


# ======================================================================
# exact layer
# ======================================================================


def basis_below(lam: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Every partition mu <= lam in BC dominance with at most m parts.

    BC dominance: |mu| <= |lam| and every prefix sum of mu is bounded by the
    matching prefix sum of lam.  Partitions are padded to length m.
    """
    top = lam[0] if lam else 0
    lam_pad = tuple(lam) + (0,) * (m - len(lam))
    out = []

    def rec(prefix: list[int], cap: int) -> None:
        if len(prefix) == m:
            mu = tuple(prefix)
            if sum(mu) <= sum(lam_pad) and all(
                sum(mu[: k + 1]) <= sum(lam_pad[: k + 1]) for k in range(m)
            ):
                out.append(mu)
            return
        for part in range(cap, -1, -1):
            rec(prefix + [part], part)

    rec([], top)
    return out


def eigenvalue(lam: tuple[int, ...], roots: tuple[Fraction, ...], m: int) -> Fraction:
    """d_lam = sum_i [alpha t^(m-i) q^(lam_i); alpha t^(m-i)], i = 1..m.

    ``roots`` are the square roots (sa, sb, sc, sd, sq, st); alpha is
    (abcd/q)^(1/2) = sa sb sc sd / sq and [x; y] = x + 1/x - y - 1/y.
    """
    sa, sb, sc, sd, sq, st = roots
    alpha = sa * sb * sc * sd / sq
    q, t = sq * sq, st * st
    lam_pad = tuple(lam) + (0,) * (m - len(lam))
    total = Fraction(0)
    for i, part in enumerate(lam_pad, start=1):
        y = alpha * t ** (m - i)
        x = y * q**part
        total += x + 1 / x - y - 1 / y
    return total


def eigenvalues_distinct(lam: tuple[int, ...], roots, m: int) -> bool:
    values = [eigenvalue(mu, roots, m) for mu in basis_below(lam, m)]
    return len(set(values)) == len(values)


def _orbit_size(mu: tuple[int, ...]) -> int:
    return len(set(permutations(mu))) * 2 ** sum(1 for e in mu if e)


def check_koornwinder(terms, lam: tuple[int, ...], m: int) -> None:
    """W-invariance, unit leading coefficient and dominance support of P_lam.

    ``terms`` maps doubled exponents (z_i^(e/2)) to Fraction coefficients.
    Every term must sit on the orbit of a basis partition mu <= lam, every
    member of that orbit must carry the same coefficient, and the monomial
    z^lam must have coefficient 1.
    """
    allowed = set(basis_below(lam, m))
    seen: dict[tuple[int, ...], int] = {}
    for exp, coeff in terms.items():
        if len(exp) != m or any(e % 2 for e in exp):
            raise CheckFailed(f"P_{lam}: exponent {exp} is off the integral lattice")
        mu = tuple(sorted((abs(e) // 2 for e in exp), reverse=True))
        if mu not in allowed:
            raise CheckFailed(f"P_{lam}: term {exp} lies outside the orbits of mu <= lam")
        head = tuple(2 * e for e in mu)
        if terms.get(head) != coeff:
            raise CheckFailed(
                f"P_{lam}: coefficient at {exp} differs from the one at {head}; "
                "not W-invariant"
            )
        seen[mu] = seen.get(mu, 0) + 1
    for mu, count in seen.items():
        if count != _orbit_size(mu):
            raise CheckFailed(f"P_{lam}: orbit of {mu} has {count} of {_orbit_size(mu)} terms")
    lead = tuple(2 * e for e in lam) + (0,) * (m - len(lam))
    if terms.get(lead) != 1:
        raise CheckFailed(f"P_{lam}: coefficient of z^lam is {terms.get(lead)}, not 1")


def _bracket(root: Fraction) -> Fraction:
    """[x] = x^(1/2) - x^(-1/2), from the square root of x."""
    return root - 1 / root


def _coeff_plus(s: tuple[Fraction, ...], i: int, roots) -> Fraction:
    """A_i^+ at z_j = s_j^2, from its product formula.

    A_i^+ = [a z_i][b z_i][c z_i][d z_i] / ([z_i^2][q z_i^2])
            * prod_{j != i} [t z_i z_j][t z_i / z_j] / ([z_i z_j][z_i / z_j])
    """
    sa, sb, sc, sd, sq, st = roots
    si = s[i]
    num = Fraction(1)
    for r in (sa, sb, sc, sd):
        num *= _bracket(r * si)
    den = _bracket(si * si) * _bracket(sq * si * si)
    for j, sj in enumerate(s):
        if j != i:
            num *= _bracket(st * si * sj) * _bracket(st * si / sj)
            den *= _bracket(si * sj) * _bracket(si / sj)
    if not den:
        raise ZeroDivisionError("point lies on a pole of the operator")
    return num / den


def eval_poly(terms, s: tuple[Fraction, ...]) -> Fraction:
    """Exact value at z_j = s_j^2 of a polynomial on doubled exponents."""
    total = Fraction(0)
    for exp, coeff in terms.items():
        value = coeff
        for sj, e in zip(s, exp):
            if e:
                value *= sj**e
        total += value
    return total


def koornwinder_operator_at(terms, s: tuple[Fraction, ...], roots) -> Fraction:
    """(D f)(z) at z_j = s_j^2 for the Koornwinder operator

    D f = sum_i A_i^+(z) (T_{q,z_i} - 1) f + A_i^-(z) (T_{q,z_i}^-1 - 1) f,
    A_i^-(z) = A_i^+(z^-1).
    """
    sq = roots[4]
    f0 = eval_poly(terms, s)
    inv = tuple(1 / sj for sj in s)
    total = Fraction(0)
    for i in range(len(s)):
        up = s[:i] + (s[i] * sq,) + s[i + 1:]
        down = s[:i] + (s[i] / sq,) + s[i + 1:]
        total += _coeff_plus(s, i, roots) * (eval_poly(terms, up) - f0)
        total += _coeff_plus(inv, i, roots) * (eval_poly(terms, down) - f0)
    return total


def draw_point(rng, m: int, roots) -> tuple[Fraction, ...]:
    """A rational point off every pole of the operator's coefficients."""
    while True:
        s = tuple(Fraction(rng.randrange(2, 40), rng.randrange(2, 40)) for _ in range(m))
        try:
            for i in range(m):
                _coeff_plus(s, i, roots)
                _coeff_plus(tuple(1 / sj for sj in s), i, roots)
        except ZeroDivisionError:
            continue
        return s


def check_eigen_at_point(terms, lam, m: int, roots, s) -> None:
    """D P = d_lam P at the rational point s, exactly."""
    lhs = koornwinder_operator_at(terms, s, roots)
    rhs = eigenvalue(lam, roots, m) * eval_poly(terms, s)
    if lhs != rhs:
        raise CheckFailed(f"P_{lam}: D P != d_lam P at the point {s}")


def check_scaled_image(image_terms, input_terms, d: Fraction) -> None:
    """image = d * input as an exact polynomial identity."""
    expected = {e: c * d for e, c in input_terms.items() if c * d}
    if dict(image_terms) != expected:
        bad = next(
            (e for e in set(expected) | set(image_terms)
             if image_terms.get(e) != expected.get(e)),
            None,
        )
        raise CheckFailed(f"operator image differs from d * input at exponent {bad}")


# ======================================================================
# numeric layer
# ======================================================================

#: Family tolerances on the absolute residual, as the paper's checks state them.
TOLERANCES = {"rational": 1e-10, "trig": 1e-10, "elliptic": 1e-7}

_ALL = ("rational", "trig", "elliptic")
_NO_ELLIPTIC = ("rational", "trig")

#: identity -> (families it is stated for, whether it needs m == n)
IDENTITIES = {
    "riemann": (_ALL, False),
    "partial-fraction": (_ALL, False),
    "key-identity-elliptic": (_ALL, False),
    "key-identity-trig": (_NO_ELLIPTIC, False),
    "thm-ae1": (_ALL, True),
    "thm-ae2": (_ALL, False),
    "thm-at1": (_NO_ELLIPTIC, False),
    "thm-at2": (_NO_ELLIPTIC, False),
    "prop-exp-f": (_ALL, False),
    "thm-bce1": (_ALL, False),
    "thm-bce2": (_ALL, False),
    "thm-bct1": (_NO_ELLIPTIC, False),
    "thm-bct2": (_NO_ELLIPTIC, False),
    "thm-bctd1": (_NO_ELLIPTIC, False),
    "thm-bctd2": (_NO_ELLIPTIC, False),
    "thm41-1": (("trig",), False),
    "thm41-2": (("trig",), False),
    "higher-a-kernel": (_ALL, True),
    "duplication": (_ALL, False),
    "quasi-period": (_ALL, False),
    "e-const-lemma": (_NO_ELLIPTIC, False),
    "factorized-c": (_NO_ELLIPTIC, False),
}


def size_grid(family: str) -> list[tuple[int, int]]:
    """The (m, n) grid run_suite covers by default for a family."""
    if family == "elliptic":
        return [(1, 1), (1, 2), (2, 1), (2, 2)]
    return [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


def applicable(family: str) -> list[str]:
    """Every identity the suite checks for the family, in table order."""
    return [ident for ident, (families, _) in IDENTITIES.items() if family in families]


def expected_tasks(family: str, ids=None) -> set[tuple[str, int, int]]:
    """Every (identity, m, n) a suite over ``ids`` (default: all) must report."""
    wanted = applicable(family) if ids is None else ids
    return {
        (ident, m, n)
        for ident, (families, square) in IDENTITIES.items()
        if family in families and ident in wanted
        for m, n in size_grid(family)
        if not square or m == n
    }


def check_reports(reports, family: str, seed: int, samples: int, ids=None) -> None:
    """One report per expected task, each within the family tolerance."""
    tol = TOLERANCES[family]
    got = []
    for rep in reports:
        key = (rep.id.value, rep.m, rep.n)
        got.append(key)
        if rep.family.value != family or rep.seed != seed or rep.samples != samples:
            raise CheckFailed(f"{family} report {key} carries the wrong family, seed or samples")
        if not 0 <= rep.max_residual <= tol:
            raise CheckFailed(
                f"{family} report {key}: residual {rep.max_residual!r} exceeds {tol}"
            )
    expected = expected_tasks(family, ids)
    if len(got) != len(expected) or set(got) != expected:
        raise CheckFailed(
            f"{family}: {len(got)} reports, expected {len(expected)} from the grid"
        )


def spot_check_sigma_gamma(sigma_mod, rng) -> None:
    """sigma, theta, the gamma functions and the elliptic gamma against mpmath.

    ``sigma_mod`` is diffkern.sigma; values are compared at seeded points
    with a relative tolerance well above double rounding and far below any
    real defect.
    """
    import mpmath

    mpmath.mp.dps = 30
    rel = 1e-9
    e = lambda u: mpmath.exp(2j * mpmath.pi * u)  # noqa: E731

    def close(got: complex, want, what: str) -> None:
        want = complex(want)
        if not abs(got - want) <= rel * max(1.0, abs(want)):
            raise CheckFailed(f"{what}: diffkern {got!r}, mpmath {want!r}")

    fam_r = sigma_mod.SigmaFamily.rational()
    fam_t = sigma_mod.SigmaFamily.trigonometric()
    fam_e = sigma_mod.SigmaFamily.elliptic()
    p = e(mpmath.mpc(fam_e.omega2) / fam_e.omega1)
    plus, minus = sigma_mod.GammaSign.PLUS, sigma_mod.GammaSign.MINUS
    for _ in range(3):
        u = complex(rng.uniform(0.05, 0.4), rng.uniform(-0.1, 0.1))
        uu = mpmath.mpc(u)
        close(sigma_mod.sigma_eval(fam_r, u), uu, f"rational sigma({u})")
        close(sigma_mod.sigma_eval(fam_t, u), mpmath.sin(mpmath.pi * uu), f"trig sigma({u})")
        z = e(uu)
        theta = mpmath.qp(z, p) * mpmath.qp(p / z, p)
        close(sigma_mod.sigma_eval(fam_e, u), -e(-uu / 2) * theta, f"elliptic sigma({u})")

        delta = complex(rng.uniform(0.05, 0.2), rng.uniform(0.25, 0.45))
        dd = mpmath.mpc(delta)
        x = uu / dd
        # rational: G_+(u|delta) = delta^(u/delta) Gamma(u/delta)
        close(
            sigma_mod.gamma_fn(fam_r, plus, u, delta),
            mpmath.exp(x * mpmath.log(dd)) * mpmath.gamma(x),
            f"rational gamma({u}|{delta})",
        )
        # trig, [u] = sin(pi u) = c (z^(1/2) - z^(-1/2)) with c = 1/(2i):
        # G_-(u|delta) = c^(u/delta) / (e(delta binom(u/delta, 2) / 2) (z; q)_inf)
        q = e(dd)
        quad = e(dd / 2 * x * (x - 1) / 2)
        c_pow = mpmath.exp(x * mpmath.log(mpmath.mpc(0, -0.5)))
        close(
            sigma_mod.gamma_fn(fam_t, minus, u, delta),
            c_pow / quad / mpmath.qp(z, q),
            f"trig gamma_-({u}|{delta})",
        )
        close(
            sigma_mod.gamma_fn(fam_t, plus, u, delta),
            c_pow * quad * mpmath.qp(q / z, q),
            f"trig gamma_+({u}|{delta})",
        )
        # elliptic gamma Gamma(z; p, q) = prod_{i,j>=0} (1 - p^(i+1) q^(j+1) / z) / (1 - p^i q^j z)
        want = mpmath.mpf(1)
        for i in range(12):
            for j in range(40):
                base = p**i * q**j
                want *= (1 - base * p * q / z) / (1 - base * z)
        close(sigma_mod.elliptic_gamma(complex(z), complex(p), complex(q)), want,
              f"elliptic gamma at u={u}, delta={delta}")
