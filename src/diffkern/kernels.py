"""Kernel functions paired with the difference operators.

Numeric kernels (Cauchy type, built from the gamma function G(u|delta), and
dual Cauchy type, built from sigma brackets) are evaluated from additive
variables so that fractional powers never hit a branch cut.  Exact kernels
exist where the object genuinely is a Laurent polynomial: the multiplicative
dual Cauchy kernel prod (z_j + 1/z_j - w_l - 1/w_l) and the truncated kernel
prod [w_l; q^((1-k)/2) z_j]_{q,k} at t = q^(-k).

The Cauchy-type kernels satisfy first-order systems in each variable, e.g.

    T_delta(x_i) Phi / Phi = prod_l [x_i +- y_l + (delta-kappa)/2]
                                  / [x_i +- y_l + (delta+kappa)/2]

in the BC case; those shift ratios are the contract every variant here is
tested against.  Each Cauchy-type kernel is a plain function of its
parameter bundle and the two point sets: ``phi_A(ParamsA, x, y)``,
``phi_BC(ParamsBC, x, y)`` and ``phi_BC_product(ParamsBC, x, y)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPoly, bracket_zw, sqrt_fraction
from .operators import ParamsA, ParamsBC
from .sigma import (
    DEFAULT_TRUNCATION,
    DomainError,
    FamilyKind,
    GammaSign,
    SigmaFamily,
    Truncation,
    gamma_fn,
    nonvanishing,
    phase,
    qpoch,
    sigma_eval,
)


def default_gamma_sign(fam: SigmaFamily) -> GammaSign:
    """G_minus in the trigonometric case, G_plus otherwise."""
    if fam.kind is FamilyKind.TRIGONOMETRIC:
        return GammaSign.MINUS
    return GammaSign.PLUS


# ======================================================================
# Cauchy-type kernels, additive variables
# ======================================================================


def phi_A(
    p: ParamsA,
    x: Sequence[complex],
    y: Sequence[complex],
    v: complex = 0.0,
    sign: GammaSign | None = None,
) -> complex:
    """prod_{j,l} G(x_j + y_l + v - kappa | delta) / G(x_j + y_l + v | delta).

    ``v`` is the free translation parameter; ``sign`` picks the gamma
    function, ``None`` meaning :func:`default_gamma_sign` of the family.
    """
    if not isinstance(p, ParamsA):
        raise TypeError(f"phi_A needs a ParamsA bundle, got {type(p).__name__}")
    sign = sign if sign is not None else default_gamma_sign(p.fam)
    out = 1 + 0j
    for xj in x:
        for yl in y:
            base = xj + yl + v
            out *= gamma_fn(p.fam, sign, base - p.kappa, p.delta)
            out /= gamma_fn(p.fam, sign, base, p.delta)
    return out


def psi_A(
    x: Sequence[complex], y: Sequence[complex], v: complex, fam: SigmaFamily
) -> complex:
    """prod_{j,l} [x_j - y_l + v]."""
    out = 1 + 0j
    for xj in x:
        for yl in y:
            out *= sigma_eval(fam, xj - yl + v)
    return out


def phi_BC(
    p: ParamsBC,
    x: Sequence[complex],
    y: Sequence[complex],
    sign: GammaSign | None = None,
) -> complex:
    """Cauchy-type BC kernel, ratio form:

        prod_{j,l} G(x_j +- y_l + (delta-kappa)/2 | delta)
                 / G(x_j +- y_l + (delta+kappa)/2 | delta)

    ``sign`` picks the gamma function as in :func:`phi_A`.
    """
    if not isinstance(p, ParamsBC):
        raise TypeError(f"phi_BC needs a ParamsBC bundle, got {type(p).__name__}")
    fam = p.fam
    sign = sign if sign is not None else default_gamma_sign(fam)
    half_minus = (p.delta - p.kappa) / 2
    half_plus = (p.delta + p.kappa) / 2
    out = 1 + 0j
    for xj in x:
        for yl in y:
            for eps in (1, -1):
                u = xj + eps * yl
                out *= gamma_fn(fam, sign, u + half_minus, p.delta)
                out /= gamma_fn(fam, sign, u + half_plus, p.delta)
    return out


def phi_BC_product(
    p: ParamsBC,
    x: Sequence[complex],
    y: Sequence[complex],
    sign: GammaSign | None = None,
) -> complex:
    """Cauchy-type BC kernel, four-fold product form:

        prod_{j,l} prod_{e1,e2} G(e1 x_j + e2 y_l + (delta-kappa)/2 | delta)

    It differs from :func:`phi_BC` by a factor that is delta-periodic in
    every variable, so the two satisfy the same first-order system.
    """
    if not isinstance(p, ParamsBC):
        raise TypeError(
            f"phi_BC_product needs a ParamsBC bundle, got {type(p).__name__}"
        )
    fam = p.fam
    sign = sign if sign is not None else default_gamma_sign(fam)
    half_minus = (p.delta - p.kappa) / 2
    out = 1 + 0j
    for xj in x:
        for yl in y:
            for e1 in (1, -1):
                for e2 in (1, -1):
                    out *= gamma_fn(
                        fam, sign, e1 * xj + e2 * yl + half_minus, p.delta
                    )
    return out


def psi_BC(
    x: Sequence[complex], y: Sequence[complex], fam: SigmaFamily
) -> complex:
    """prod_{j,l} [x_j + y_l][x_j - y_l], the dual Cauchy kernel."""
    out = 1 + 0j
    for xj in x:
        for yl in y:
            out *= sigma_eval(fam, xj + yl) * sigma_eval(fam, xj - yl)
    return out


# ======================================================================
# trigonometric multiplicative kernels
# ======================================================================


def pi_macdonald(
    z: Sequence[complex],
    w: Sequence[complex],
    q: complex,
    t: complex,
    tr: Truncation | None = None,
) -> complex:
    """prod_{j,l} (t z_j w_l; q)_inf / (z_j w_l; q)_inf, |q| < 1."""
    if abs(q) >= 1:
        raise DomainError(f"need |q| < 1, got |q| = {abs(q)}")
    tr = tr if tr is not None else DEFAULT_TRUNCATION
    out = 1 + 0j
    for zj in z:
        for wl in w:
            num = qpoch(t * zj * wl, q, tr=tr)
            den = nonvanishing(qpoch(zj * wl, q, tr=tr), "(z w; q)_inf")
            out *= num / den
    return out


def kern_phi0(
    x: Sequence[complex],
    y: Sequence[complex],
    delta: complex,
    kappa: complex,
    omega1: complex = 1.0,
    variant: str = "zero",
    tr: Truncation | None = None,
) -> complex:
    """Cauchy-type kernels for the Koornwinder operator, from additive data.

    With z_j = e(x_j/omega1), w_l = e(y_l/omega1), q = e(delta/omega1),
    t = e(kappa/omega1) and beta = kappa/delta:

    variant "zero"      (z_1...z_m)^(n beta)
                        prod (q^(1/2) t^(1/2) z_j w_l^±1; q)_inf
                           / (q^(1/2) t^(-1/2) z_j w_l^±1; q)_inf
    variant "infinity"  the same with every z_j inverted (x -> -x)
    variant "plus"      e(+f/(omega1 delta)) prod over all four sign pairs of
                        (q^(1/2) t^(1/2) z^e1 w^e2; q)_inf
    variant "minus"     e(-f/(omega1 delta)) over the inverse products with
                        t^(-1/2), where f = n sum x_j^2 + m sum y_l^2
                                          + (m n / 4)(kappa^2 - delta^2)

    Additive inputs keep the fractional powers (z_1...z_m)^(n beta) and the
    quadratic exponentials single-valued.
    """
    if variant == "infinity":
        return kern_phi0(
            tuple(-v for v in x), y, delta, kappa, omega1, "zero", tr
        )
    if variant not in ("zero", "plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    tr = tr if tr is not None else DEFAULT_TRUNCATION
    q = phase(delta / omega1)
    if abs(q) >= 1:
        raise DomainError("need Im(delta/omega1) > 0 so that |q| < 1")
    m, n = len(x), len(y)
    root_qt = phase((delta + kappa) / (2 * omega1))  # (qt)^(1/2)
    root_q_over_t = phase((delta - kappa) / (2 * omega1))  # (q/t)^(1/2)
    zs = [phase(v / omega1) for v in x]
    ws = [phase(v / omega1) for v in y]

    if variant == "zero":
        beta_pref = phase(n * (kappa / delta) * sum(x) / omega1)
        out = beta_pref
        for zj in zs:
            for wl in ws:
                for wv in (wl, 1 / wl):
                    num = qpoch(root_qt * zj * wv, q, tr=tr)
                    den = qpoch(root_q_over_t * zj * wv, q, tr=tr)
                    out *= num / nonvanishing(den, "(q^(1/2) t^(-1/2) z w; q)_inf")
        return out

    f_quad = (
        n * sum(v * v for v in x)
        + m * sum(v * v for v in y)
        + m * n * (kappa * kappa - delta * delta) / 4
    )
    if variant == "plus":
        out = phase(f_quad / (omega1 * delta))
        for zj in zs:
            for wl in ws:
                for zv in (zj, 1 / zj):
                    for wv in (wl, 1 / wl):
                        out *= qpoch(root_qt * zv * wv, q, tr=tr)
        return out

    out = phase(-f_quad / (omega1 * delta))
    for zj in zs:
        for wl in ws:
            for zv in (zj, 1 / zj):
                for wv in (wl, 1 / wl):
                    den = qpoch(root_q_over_t * zv * wv, q, tr=tr)
                    out /= nonvanishing(den, "(q^(1/2) t^(-1/2) z w; q)_inf")
    return out


# ======================================================================
# exact multiplicative kernels
# ======================================================================


def kern_psi_mult(m: int, n: int) -> LaurentPoly:
    """Psi(z; w) = prod_{j,l} (z_j + 1/z_j - w_l - 1/w_l), exact.

    Returned over m + n variables: z_1..z_m first, then w_1..w_n.
    """
    total = m + n
    out = LaurentPoly.one(total)
    for j in range(m):
        for l in range(n):
            out = out * bracket_zw(total, j, m + l)
    return out


def phi_minus_k(m: int, n: int, q: Fraction, k: int) -> LaurentPoly:
    """Truncated Cauchy kernel at t = q^(-k):

        Phi_{-k}(z; w) = prod_{j,l} [w_l; q^((1-k)/2) z_j]_{q,k},

    expanded exactly over m + n variables (z block first).  The half power
    q^((1-k)/2) requires q to be a perfect rational square when k is even.
    """
    if k < 0:
        raise ValueError("truncation order k must be nonnegative")
    q = Fraction(q)
    total = m + n
    out = LaurentPoly.one(total)
    if k == 0:
        return out
    # e2 = 1 - k + 2i below has the parity of 1 - k for every i: odd
    # (genuine half powers of q) exactly when k is even
    sq = sqrt_fraction(q) if k % 2 == 0 else None
    for j in range(m):
        for l in range(n):
            for i in range(k):
                e2 = 1 - k + 2 * i
                aval = q ** (e2 // 2) if sq is None else sq**e2
                out = out * bracket_zw(total, m + l, j, aval)
    return out
