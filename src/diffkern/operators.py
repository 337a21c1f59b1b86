"""Difference operators of Ruijsenaars type, numeric and exact.

Type A (first order and the commuting higher-order family):

    D_x f = sum_i A_i(x) f(x + delta e_i),
    A_i(x) = prod_{j != i} [x_i - x_j + kappa] / [x_i - x_j]

    D_{r,x} f = sum_{|I|=r} prod_{i in I, j not in I}
                [x_i - x_j + kappa]/[x_i - x_j] * f(x + delta sum_{i in I} e_i)

apply_A is the order-1 case of apply_A_higher (and 0 in zero variables).
Every coefficient is a product of sigma ratios, checked against the pole
rule of the sigma module through ``nonvanishing`` and ``sigma_ratio``.

Type BC (van Diejen / Komori-Hikami first-order operator):

    E_x f = sum_i A_i^+ f(x + delta e_i) + sum_i A_i^- f(x - delta e_i)
            + (sum_r A_r^0) f(x)

with A_i^+ built from 2*rho numerator parameters mu_s, half-period
denominators, and pair interactions [x_i +- x_j + kappa]/[x_i +- x_j];
A_i^-(x) = A_i^+(-x); and constant terms A_r^0 carrying the quasi-period
exponential e(-(m kappa + c/2) eta_r).  The Koornwinder-type variant is

    D_x f = sum_i A_i^+ (f(x + delta e_i) - f(x))
          + sum_i A_i^- (f(x - delta e_i) - f(x))  =  E_x f - E_x(1) f.

On the trigonometric family pinned to [u] = e(u/2 omega1) - e(-u/2 omega1),
D is minus the bracket-normalised Koornwinder operator in z_i = e(x_i/omega1)
with (a, b, c, d) = e(mu/omega1), q = e(delta/omega1), t = e(kappa/omega1):
its A_i^+ is -(abcd)^(-1/2) q^(1/2) t^(1-m) prod_s (1 - a_s z_i)
/ ((1 - z_i^2)(1 - q z_i^2)) * prod_{j != i} (1 - t z_i z_j)(1 - t z_i/z_j)
/ ((1 - z_i z_j)(1 - z_i/z_j)).  The numeric checks of the multiplicative
kernel identities (Theorem 4.1) run on apply_D_BC there.

The exact multiplicative operators act on Laurent polynomials over Fraction:
the Koornwinder operator in bracket normalization (eigenvalues
sum_i [alpha t^(m-i) q^(lambda_i); alpha t^(m-i)]) and the Macdonald
operators of order r.  Both end in exact multivariate division; a nonzero
remainder (possible only on non-invariant input) surfaces as
InexactDivisionError.  The Koornwinder operator is a divided difference in
x_i = z_i + 1/z_i, and every division in it is by two-term factors.  With
R(g) = n_0^+ ((T_0 g - g) / [q z_0^2]), variable 0's quotient is
(R(g) - iota R(iota g)) / [z_0^2], iota the inversion of every variable;
where [q z_0^2] does not divide T_0 g - g it divides n_0^+ (T_0 g - g),
since a numerator bracket may hold the root it misses.  The hyperoctahedral
group W carries that quotient to every other variable, and the Vandermonde
in x, one factor [z_k z_l] or [z_k / z_l] at a time, ends it; the first
division that refuses raises ``divide_exact``'s error.  The Macdonald
operators are divided by the Vandermonde in z.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

from .laurent import (
    _POLY_CACHE_SIZE,
    ExactParams,
    InexactDivisionError,
    LaurentPoly,
    _check_bound,
    _convolve,
    _digit_moves,
    _divide_binomials,
    _moved_items,
    _primitive_form,
    _shift_factors,
    _two_term,
    bracket_zw,
    divide_exact,
)
from .sigma import (
    DomainError,
    SigmaFamily,
    _exact_key,
    lattice_dist,
    lattice_unit,
    nonvanishing,
    phase,
    sigma_eval,
    sigma_ratio,
)

FnM = Callable[[Sequence[complex]], complex]

_LATTICE_TOL = 1e-9


# ======================================================================
# parameter bundles
# ======================================================================


def _check_off_lattice(bundle: "ParamsA | ParamsBC") -> None:
    """Raise DomainError naming delta or kappa of the bundle when it lies in
    the period lattice, where [delta] or [kappa] vanishes.  A value closer
    to it than ``_LATTICE_TOL`` * |omega1| (absolute in the rational family,
    which has no period) counts as in it."""
    fam = bundle.fam
    for name in ("delta", "kappa"):
        value = getattr(bundle, name)
        if lattice_dist(fam, complex(value)) < _LATTICE_TOL * lattice_unit(fam):
            raise DomainError(f"{name} = {value} lies in the period lattice")


@dataclass(frozen=True)
class ParamsA:
    """Type-A operator data: shift unit delta, coupling kappa, sigma family."""

    delta: complex
    kappa: complex
    fam: SigmaFamily

    def __post_init__(self) -> None:
        _check_off_lattice(self)


@dataclass(frozen=True)
class ParamsBC:
    """Type-BC operator data: 2*rho parameters mu_s plus (delta, kappa).

    The derived constant c = sum(mu) - (rho/2)(delta+kappa) + sum(omega_s)
    is recomputed on access, never stored.  As for ParamsA, a delta or
    kappa in the period lattice raises DomainError naming it.
    """

    mu: tuple[complex, ...]
    delta: complex
    kappa: complex
    fam: SigmaFamily

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(self.mu))
        if len(self.mu) != 2 * self.fam.rho:
            raise ValueError(
                f"need {2 * self.fam.rho} mu parameters for this family, "
                f"got {len(self.mu)}"
            )
        _check_off_lattice(self)

    @property
    def c_const(self) -> complex:
        rho = self.fam.rho
        return (
            sum(self.mu)
            - (rho / 2) * (self.delta + self.kappa)
            + sum(self.fam.omegas)
        )

    def negated(self) -> "ParamsBC":
        """(-mu | -delta, -kappa), the sign-symmetry partner."""
        return ParamsBC(
            tuple(-m for m in self.mu), -self.delta, -self.kappa, self.fam
        )

    def dual_nu(self) -> "ParamsBC":
        """nu_r = (delta+kappa)/2 - mu_r, parameters for the y side of the
        Cauchy-kernel identity (same delta, kappa)."""
        half = (self.delta + self.kappa) / 2
        return ParamsBC(
            tuple(half - m for m in self.mu), self.delta, self.kappa, self.fam
        )

    def swapped(self) -> "ParamsBC":
        """(mu | kappa, delta): shift and coupling exchanged."""
        return ParamsBC(self.mu, self.kappa, self.delta, self.fam)


# ======================================================================
# numeric type A
# ======================================================================


def _shift(x: Sequence[complex], i: int, delta: complex) -> tuple[complex, ...]:
    out = list(x)
    out[i] = out[i] + delta
    return tuple(out)


def apply_A(p: ParamsA, f: FnM, x: Sequence[complex]) -> complex:
    """First-order type-A operator applied to a black-box function at x:
    order-1 :func:`apply_A_higher`, and 0 in zero variables."""
    return apply_A_higher(p, 1, f, x) if len(x) else 0


def apply_A_higher(p: ParamsA, r: int, f: FnM, x: Sequence[complex]) -> complex:
    """Order-r type-A operator: subsets I of size r shift simultaneously."""
    m = len(x)
    if not 1 <= r <= m:
        raise ValueError(f"order r must satisfy 1 <= r <= {m}, got {r}")
    total = 0 + 0j
    for subset in itertools.combinations(range(m), r):
        inside = set(subset)
        coeff = 1 + 0j
        for i in subset:
            for j in range(m):
                if j in inside:
                    continue
                coeff *= sigma_ratio(
                    p.fam, x[i] - x[j] + p.kappa, x[i] - x[j], "[x_{} - x_{}]", i, j
                )
        shifted = tuple(
            xi + p.delta if k in inside else xi for k, xi in enumerate(x)
        )
        total += coeff * f(shifted)
    return total


# ======================================================================
# numeric type BC
# ======================================================================


def _pair_product(
    fam: SigmaFamily, c: complex, x: Sequence[complex], kappa: complex,
    skip: int | None, name: str,
) -> complex:
    """prod_{j != skip} [c + x_j + kappa]/[c + x_j] * [c - x_j + kappa]/[c - x_j],
    the pair interaction of the BC coefficients; ``name`` labels c in a
    PoleError."""
    out = 1 + 0j
    for j, xj in enumerate(x):
        if j == skip:
            continue
        out *= sigma_ratio(fam, c + xj + kappa, c + xj, "[{} + x_{}]", name, j)
        out *= sigma_ratio(fam, c - xj + kappa, c - xj, "[{} - x_{}]", name, j)
    return out


def _coeff_BC_plus(p: ParamsBC, x: Sequence[complex], i: int) -> complex:
    fam = p.fam
    xi = x[i]
    num = 1 + 0j
    for mu_s in p.mu:
        num *= sigma_eval(fam, xi + mu_s)
    den = 1 + 0j
    for s, w in enumerate(fam.omegas, start=1):
        den *= nonvanishing(sigma_eval(fam, xi - w / 2), "[x_{} - omega_{}/2]", i, s)
        den *= nonvanishing(
            sigma_eval(fam, xi + (p.delta - w) / 2),
            "[x_{} + (delta - omega_{})/2]", i, s,
        )
    return num / den * _pair_product(fam, xi, x, p.kappa, i, f"x_{i}")


def coeff_BC(p: ParamsBC, x: Sequence[complex], i: int, sign: int) -> complex:
    """A_i^{+-}(x; mu | delta, kappa); sign +1 or -1, with A^-(x) = A^+(-x)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == 1:
        return _coeff_BC_plus(p, x, i)
    return _coeff_BC_plus(p, tuple(-v for v in x), i)


def coeff_BC_zero(p: ParamsBC, x: Sequence[complex], r: int) -> complex:
    """A_r^0(x; mu | delta, kappa) for r = 0..rho-1 (table index).

    Includes the quasi-period exponential e(-(m kappa + c/2) eta_r); in the
    trigonometric and rational cases eta_r = 0 and the exponential is 1.
    The part that does not depend on x is built once per (mu, delta,
    kappa, m, r) on a memoized family (:meth:`SigmaFamily.constant`).
    """
    fam = p.fam
    rho = fam.rho
    if not 0 <= r < rho:
        raise ValueError(f"constant-term index r must be in 0..{rho - 1}")
    m = len(x)
    key = (
        "coeff_BC_zero",
        tuple(map(_exact_key, p.mu)),
        _exact_key(p.delta),
        _exact_key(p.kappa),
        m,
        r,
    )
    head = fam.constant(key, _coeff_BC_zero_head, p, m, r)
    base = (fam.omegas[r] - p.delta) / 2
    pair = _pair_product(fam, base, x, p.kappa, None, f"(omega_{r + 1} - delta)/2")
    return head * pair


def _coeff_BC_zero_head(p: ParamsBC, m: int, r: int) -> complex:
    """The factor of A_r^0 in m variables that does not depend on x: the
    exponential times prod_s [base + mu_s] over its denominator."""
    fam = p.fam
    rho = fam.rho
    w_r = fam.omegas[r]
    eta_r = fam.etas[r]
    expo = phase(-(m * p.kappa + p.c_const / 2) * eta_r)

    num = 1 + 0j
    base = (w_r - p.delta) / 2
    for mu_s in p.mu:
        num *= sigma_eval(fam, base + mu_s)

    den = nonvanishing(sigma_eval(fam, p.kappa), "[kappa]")
    for s in range(rho):
        if s != r:
            den *= nonvanishing(
                sigma_eval(fam, (w_r - fam.omegas[s]) / 2),
                "[(omega_{} - omega_{})/2]", r + 1, s + 1,
            )
    for s in range(rho):
        den *= nonvanishing(
            sigma_eval(fam, (w_r - fam.omegas[s] + p.kappa - p.delta) / 2),
            "[(omega_{} - omega_{} + kappa - delta)/2]", r + 1, s + 1,
        )
    return expo * num / den


def apply_E_BC(p: ParamsBC, f: FnM, x: Sequence[complex]) -> complex:
    """Full BC Ruijsenaars operator E applied to f at x."""
    m = len(x)
    total = 0 + 0j
    for i in range(m):
        total += coeff_BC(p, x, i, +1) * f(_shift(x, i, p.delta))
        total += coeff_BC(p, x, i, -1) * f(_shift(x, i, -p.delta))
    zero_sum = sum(coeff_BC_zero(p, x, r) for r in range(p.fam.rho))
    return total + zero_sum * f(x)


def apply_D_BC(p: ParamsBC, f: FnM, x: Sequence[complex]) -> complex:
    """Koornwinder-type variant D = E - E(1): shifts minus the identity."""
    m = len(x)
    fx = f(x)
    total = 0 + 0j
    for i in range(m):
        total += coeff_BC(p, x, i, +1) * (f(_shift(x, i, p.delta)) - fx)
        total += coeff_BC(p, x, i, -1) * (f(_shift(x, i, -p.delta)) - fx)
    return total


def bc_constant(p: ParamsBC) -> complex:
    """C, the value of the BC operator in zero variables (multiplication constant)."""
    return sum(coeff_BC_zero(p, (), r) for r in range(p.fam.rho))


# ======================================================================
# exact multiplicative operators
# ======================================================================


def _koorn_own_factors(m: int, i: int, sq: Fraction) -> list[LaurentPoly]:
    """[z_i^2], [q z_i^2], [q z_i^-2] in canonical orientation."""
    return [
        _two_term(m, {i: 2}, Fraction(1)),
        _two_term(m, {i: 2}, sq),
        _two_term(m, {i: -2}, sq),
    ]


def _product(factors: Sequence[LaurentPoly], m: int) -> LaurentPoly:
    """The product of ``factors``, one for none."""
    return functools.reduce(operator.mul, factors) if factors else LaurentPoly.one(m)


class _Divisor(NamedTuple):
    """A product of primitive two-term factors, as ``_divide_binomials``
    takes it, with the product's den / content."""

    factors: tuple[dict[int, int], ...]
    prim: dict[int, int]  # the product's primitive numerators
    bound: int  # and its exponent bound
    scale: Fraction


def _divisor(factors: Sequence[LaurentPoly], m: int) -> _Divisor:
    product = _product(factors, m)
    scale, prim = _primitive_form(product)
    prims = tuple(_primitive_form(g)[1] for g in factors)
    return _Divisor(prims, prim, product._exp_bound, scale)


class _KoornFactors(NamedTuple):
    """The operator's factors that depend on (ep, m) only."""

    n_plus: LaurentPoly  # n_0^+
    c_0: LaurentPoly | None  # prod_{1<=k<l} (x_k - x_l), None at m <= 2
    q_z0_sq: _Divisor  # [q z_0^2]
    z0_sq: _Divisor  # [z_0^2]
    vandermonde: _Divisor | None  # prod_{k<l} [z_k z_l][z_k / z_l], None at m = 1


@functools.lru_cache(maxsize=_POLY_CACHE_SIZE)
def _koorn_factors(ep: ExactParams, m: int) -> _KoornFactors:
    """The factors of ``apply_koorn_mult`` at (ep, m).  Polynomials are
    immutable and no caller writes to the primitive numerators, so calls
    share them safely."""
    z0_sq, q_z0_sq, _ = _koorn_own_factors(m, 0, ep.sq)
    n_plus = _product(
        [_two_term(m, {0: 1}, root) for root in (ep.sa, ep.sb, ep.sc, ep.sd)]
        + [_two_term(m, {0: 1, j: e}, ep.st) for j in range(1, m) for e in (1, -1)],
        m,
    )
    pairs = list(itertools.combinations(range(m), 2))
    c_0 = _product([bracket_zw(m, k, l) for k, l in pairs if k], m) if m > 2 else None
    # x_k - x_l = [z_k z_l][z_k / z_l]; every [z_k z_l] first, which at m = 3
    # shrinks the later dividends the most
    v_factors = [_two_term(m, {k: 1, l: e}, Fraction(1)) for e in (1, -1) for k, l in pairs]
    return _KoornFactors(
        n_plus,
        c_0,
        _divisor([q_z0_sq], m),
        _divisor([z0_sq], m),
        _divisor(v_factors, m) if m > 1 else None,
    )


def apply_koorn_mult(ep: ExactParams, f: LaurentPoly, m: int) -> LaurentPoly:
    """Exact Koornwinder operator in bracket normalization.

    D f = sum_i A_i^+(z) (T_{q,z_i} - 1) f + sum_i A_i^-(z) (T_{q,z_i}^-1 - 1) f,

    A_i^+ = [a z_i][b z_i][c z_i][d z_i] / ([z_i^2][q z_i^2])
            * prod_{j != i} [t z_i z_j][t z_i / z_j] / ([z_i z_j][z_i / z_j]),
    A_i^-(z) = A_i^+(z^-1)  (all variables inverted).

    Eigenvalues on P_lambda are sum_i [alpha t^(m-i) q^(lambda_i); alpha t^(m-i)].
    The pair brackets are differences of x_k = z_k + 1/z_k,
    [z_k z_l][z_k / z_l] = x_k - x_l, so D is a divided difference:

        D f = sum_i (N_i / own_i) / prod_{j != i} (x_i - x_j),
        N_i = n_i^+ (T_i f - f) [q z_i^-2] - n_i^- (T_i^-1 f - f) [q z_i^2],

    with own_i = [z_i^2][q z_i^2][q z_i^-2], T_i = T_{q,z_i} and n_i^+- the
    numerator brackets of A_i^+-.  Only variable 0's quotient M_0 = N_0 /
    own_0 is built, and N_0 never is: n_0^- (T_0^-1 g - g) [q z_0^2] is the
    inversion iota of every variable applied to n_0^+ (T_0 h - h) [q z_0^-2]
    at h = iota g, so with R(g) = n_0^+ ((T_0 g - g) / [q z_0^2])

        N_0(g) = [q z_0^-2][q z_0^2] (R(g) - iota R(iota g)),
        M_0(g) = (R(g) - iota R(iota g)) / [z_0^2].

    Where g is invariant under z_0 -> 1/z_0, T_0 g - g vanishes at
    q z_0^2 = 1 and [q z_0^2] divides it.  Where that division refuses,
    R(g) = (n_0^+ (T_0 g - g)) / [q z_0^2] instead, as n_0^+ may share a
    root with [q z_0^2] ([a z_0] does at a^2 = q); for q != 1, [q z_0^2] is
    prime to [q z_0^-2], so this is exact exactly when own_0 divides
    N_0(g).  The operator is invariant under signed permutations, so
    M_i = sigma_i(M_0(sigma_i f)), sigma_i the transposition of z_0 and z_i.
    Over the Vandermonde V = prod_{k<l} (x_k - x_l) the numerator is
    sum_i (-1)^i M_i c_i with c_i = prod_{k<l, i not in (k, l)} (x_k - x_l)
    = (-1)^(i-1) sigma_i(c_0) for i >= 1, so with K(g) = c_0 M_0(g)

        D f = (K(f) - sum_{i>=1} sigma_i(K(sigma_i f))) / V,

    one exact division (none at m = 1, where D f = M_0(f)).  n_0^+, c_0 and
    the divisors [q z_0^2], [z_0^2] and V, with their primitive forms, come
    from a cache of _POLY_CACHE_SIZE (ep, m) entries.

    Every step runs on packed-key integer numerator dicts; each intermediate
    carries its rational scale beside it, and one canonical polynomial is
    built at the end with one gcd.  With sqrt(q) = p/q' and z_0's digits
    of g in lo..hi, T_0 g - g is 1/Q times the numerators of g, each times
    the integer P p^(e-lo) q'^(hi-e) - Q of its digit e, where
    P/Q = p^lo / q'^hi; R(g) and R(iota g) (whose digit range is
    -hi..-lo, so its Q may differ) meet over the lcm of their Q.  Every
    division is by two-term factors in ``_divide_binomials``, V by its
    m(m - 1) factors [z_k z_l] and [z_k / z_l]; each divides by primitive
    numerators and multiplies the scale by den / content, and a refusal
    raises ``divide_exact``'s error on that dividend and the whole divisor.
    f is tested for iota- and sigma_i-invariance on its packed keys; an
    invariant f reuses R(f) and K(f) (a W-invariant f costs one shift
    term, two binomial divisions and, at m >= 3, one product by c_0 before
    V), and sigma_i f and K(sigma_i f) are built only where the test fails.
    For q != 1, own_i is squarefree and prime to every x_k - x_l and only
    term i has poles on it, so the divisions are exact precisely on inputs
    the operator maps to Laurent polynomials (W-invariant f in particular).
    Any other input raises InexactDivisionError at the first division that
    refuses: for f, then each sigma_i f that K is built for, the division
    of n_0^+ (T_0 g - g) by [q z_0^2] for g or iota g, or that by [z_0^2];
    else the division by V.  At q = 1 every N_i is 0.
    """
    if f.m != m:
        raise ValueError(f"f has {f.m} variables, expected {m}")
    if m < 1:
        raise ValueError("need at least one variable")
    n_plus, c_0, q_z0_sq, z0_sq, vandermonde = _koorn_factors(ep, m)
    if f.is_zero():
        return LaurentPoly.zero(m)
    sq = ep.sq
    # T_0, iota and sigma_i keep f's exponent bound; R adds n_0^+'s
    s_bound = f._exp_bound + n_plus._exp_bound

    def divide(num: dict[int, int], bound: int, by: _Divisor) -> tuple[dict[int, int], int]:
        return _divide_binomials(num, bound, by.factors, by.prim, by.bound, m)

    def shift_term(g: dict[int, int]) -> tuple[dict[int, int], int]:
        """Q and the numerators of Q * den(n_0^+) / scale([q z_0^2]) * R(g)."""
        digits, lo, table, big_q = _shift_factors(g, m, 0, sq)
        step = [t - big_q for t in table]
        diff = {}
        for (key, n), e in zip(g.items(), digits):
            c = step[e - lo]
            if c:  # 0 where sqrt(q)^e = 1, at e = 0 and for q = 1
                diff[key] = n * c
        if diff:
            _check_bound(s_bound)
        try:
            return _convolve(divide(diff, f._exp_bound, q_z0_sq)[0], n_plus._num), big_q
        except InexactDivisionError:  # n_0^+ may hold the root it misses
            return divide(_convolve(diff, n_plus._num), s_bound, q_z0_sq)[0], big_q

    def cofactor_term(g: dict[int, int]) -> tuple[dict[int, int], Fraction, int]:
        """The numerators of K(g), their scale and an exponent bound."""
        up, q_up = shift_term(g)
        inverted = {-key: n for key, n in g.items()}
        down, q_down = (up, q_up) if inverted == g else shift_term(inverted)
        # R(g) - iota R(iota g) over the common 1 / lcm(q_up, q_down)
        common = lcm(q_up, q_down)
        u_up, u_down = common // q_up, common // q_down
        r_diff = dict(up) if u_up == 1 else {key: n * u_up for key, n in up.items()}
        get = r_diff.get
        for key, n in down.items():
            new = get(-key, 0) - (n if u_down == 1 else n * u_down)
            if new:
                r_diff[-key] = new
            else:
                del r_diff[-key]
        quotient, bound = divide(r_diff, s_bound, z0_sq)
        scale = q_z0_sq.scale * z0_sq.scale / (common * n_plus._den)
        if c_0 is None or not quotient:
            return quotient, scale, bound
        bound = _check_bound(bound + c_0._exp_bound)
        return _convolve(quotient, c_0._num), scale / c_0._den, bound

    k_f = cofactor_term(f._num)
    if vandermonde is None:
        num, scale, bound = k_f
        return LaurentPoly._from_scaled(m, num, scale / f._den, bound)
    terms = [(k_f, [])]  # K(sigma_i f) and the moves of sigma_i's keys
    get_f = f._num.get
    for i in range(1, m):
        perm = list(range(m))
        perm[0], perm[i] = i, 0  # sigma_i
        moves = _digit_moves(m, perm)
        if all(get_f(key) == n for key, n in _moved_items(f._num, m, moves)):
            terms.append((k_f, moves))
        else:
            terms.append((cofactor_term(dict(_moved_items(f._num, m, moves))), moves))
    # K(f) - sum_{i>=1} sigma_i(K(sigma_i f)) over the common scale
    common = Fraction(
        gcd(*(s.numerator for (_, s, _), _ in terms)),
        lcm(*(s.denominator for (_, s, _), _ in terms)),
    )
    acc: dict[int, int] = {}
    get = acc.get
    for i, ((num, scale, _), moves) in enumerate(terms):
        u = (scale / common).numerator * (-1 if i else 1)
        items = _moved_items(num, m, moves) if moves else num.items()
        for key, n in items:
            acc[key] = get(key, 0) + u * n
    numerator = {key: n for key, n in acc.items() if n}
    quotient, bound = divide(numerator, max(bound for (_, _, bound), _ in terms), vandermonde)
    return LaurentPoly._from_scaled(m, quotient, common * vandermonde.scale / f._den, bound)


def _linear_factor(m: int, i: int, j: int, scale: Fraction) -> LaurentPoly:
    """scale * z_i - z_j on the doubled lattice (integral exponents)."""
    return LaurentPoly.var_power(m, i, 2, scale) - LaurentPoly.var_power(m, j, 2)


def apply_macdonald_mult(
    q: Fraction, t: Fraction, r: int, f: LaurentPoly, m: int
) -> LaurentPoly:
    """Exact order-r Macdonald operator

        D_r f = t^binom(r,2) sum_{|I|=r} prod_{i in I, j not in I}
                (t z_i - z_j)/(z_i - z_j) * (prod_{i in I} T_{q,z_i}) f,

    computed over the common denominator prod_{k<l}(z_k - z_l).
    """
    if f.m != m:
        raise ValueError(f"f has {f.m} variables, expected {m}")
    if not 1 <= r <= m:
        raise ValueError(f"order r must satisfy 1 <= r <= {m}, got {r}")
    q = Fraction(q)
    t = Fraction(t)
    t_pref = t ** (r * (r - 1) // 2)

    vandermonde = LaurentPoly.one(m)
    for k in range(m):
        for l in range(k + 1, m):
            vandermonde = vandermonde * _linear_factor(m, k, l, Fraction(1))

    numerator = LaurentPoly.zero(m)
    for subset in itertools.combinations(range(m), r):
        inside = set(subset)
        outside = [j for j in range(m) if j not in inside]
        flips = sum(1 for i in inside for j in outside if i > j)
        piece = LaurentPoly.const(m, t_pref * Fraction(-1) ** flips)
        for i in subset:
            for j in outside:
                piece = piece * _linear_factor(m, i, j, t)
        # complement of the subset's denominator inside the Vandermonde
        for k in range(m):
            for l in range(k + 1, m):
                if (k in inside) == (l in inside):
                    piece = piece * _linear_factor(m, k, l, Fraction(1))
        shifted = f
        for i in subset:
            shifted = _scale_var(shifted, i, q)
        numerator = numerator + piece * shifted
    return divide_exact(numerator, vandermonde)


def _scale_var(f: LaurentPoly, i: int, q: Fraction) -> LaurentPoly:
    """T_{q,z_i}: z_i -> q z_i, exact for any rational q on even (integral)
    exponents; genuine half powers would need an irrational root and raise."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in f.terms.items():
        e2 = exps[i]
        if e2 % 2:
            raise ValueError(
                "q-shift of a genuine half power needs q to be a perfect "
                "square; shift the squared variable instead"
            )
        terms[exps] = coeff * q ** (e2 // 2)
    return LaurentPoly(f.m, terms)
