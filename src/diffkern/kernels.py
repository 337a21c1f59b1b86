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
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .laurent import ExactParams, LaurentPoly, bracket_zw, sqrt_fraction
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

# ======================================================================
# kernel descriptors
# ======================================================================


class KernelKind(str, Enum):
    PHI_A = "PhiA"
    PSI_A = "PsiA"
    PHI_BC_RATIO = "PhiBC_ratio"
    PHI_BC_PRODUCT = "PhiBC_product"
    PSI_BC = "PsiBC"
    PI_MACDONALD = "PiMacdonald"
    PHI_ZERO = "Phi0"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_MULT = "PsiMult"
    PHI_MINUS_K = "PhiMinusK"


_NEEDS_A = frozenset({KernelKind.PHI_A, KernelKind.PSI_A})
_NEEDS_BC = frozenset(
    {KernelKind.PHI_BC_RATIO, KernelKind.PHI_BC_PRODUCT, KernelKind.PSI_BC}
)
_NEEDS_TRIG_AB = frozenset(
    {
        KernelKind.PI_MACDONALD,
        KernelKind.PHI_ZERO,
        KernelKind.PHI_PLUS,
        KernelKind.PHI_MINUS,
    }
)
_NEEDS_EXACT = frozenset({KernelKind.PSI_MULT, KernelKind.PHI_MINUS_K})


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel, in how many variables, with which parameter bundle.

    ``v`` is the free translation parameter of the type-A kernels; it is
    ignored by kinds that do not use it.  ``gamma_sign`` picks the gamma
    function for the Cauchy-type kernels; ``None`` selects the default for
    the family (G_minus trigonometric, G_plus elsewhere).
    """

    kind: KernelKind
    m: int
    n: int
    v: complex = 0.0
    gamma_sign: GammaSign | None = None
    params: ParamsA | ParamsBC | ExactParams | None = None

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("variable counts must be nonnegative")
        kind = KernelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _NEEDS_A and not isinstance(self.params, ParamsA):
            raise TypeError(f"{kind.value} needs a ParamsA bundle")
        if kind in _NEEDS_BC and not isinstance(self.params, ParamsBC):
            raise TypeError(f"{kind.value} needs a ParamsBC bundle")
        if kind in _NEEDS_TRIG_AB and not isinstance(
            self.params, (ParamsA, ParamsBC)
        ):
            raise TypeError(f"{kind.value} needs additive (delta, kappa) data")
        if kind in _NEEDS_EXACT and not isinstance(self.params, ExactParams):
            raise TypeError(f"{kind.value} needs an ExactParams bundle")


def _params_of(spec: KernelSpec, *expected: type):
    """``spec.params``, checked against the bundle classes the caller needs."""
    p = spec.params
    if not isinstance(p, expected):
        names = " or ".join(cls.__name__ for cls in expected)
        raise TypeError(
            f"expected a {names} bundle, got {type(p).__name__} "
            f"(kernel kind {spec.kind.value})"
        )
    return p


def default_gamma_sign(fam: SigmaFamily) -> GammaSign:
    """G_minus in the trigonometric case, G_plus otherwise."""
    if fam.kind is FamilyKind.TRIGONOMETRIC:
        return GammaSign.MINUS
    return GammaSign.PLUS


def _resolve_sign(spec: KernelSpec, fam: SigmaFamily) -> GammaSign:
    return spec.gamma_sign if spec.gamma_sign is not None else default_gamma_sign(fam)


# ======================================================================
# Cauchy-type kernels, additive variables
# ======================================================================


def phi_A(
    spec: KernelSpec, x: Sequence[complex], y: Sequence[complex]
) -> complex:
    """prod_{j,l} G(x_j + y_l + v - kappa | delta) / G(x_j + y_l + v | delta)."""
    p = _params_of(spec, ParamsA)
    sign = _resolve_sign(spec, p.fam)
    out = 1 + 0j
    for xj in x:
        for yl in y:
            base = xj + yl + spec.v
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
    spec: KernelSpec, x: Sequence[complex], y: Sequence[complex]
) -> complex:
    """Cauchy-type BC kernel, ratio or four-fold product form by kind.

    ratio form    prod_{j,l} G(x_j +- y_l + (delta-kappa)/2 | delta)
                           / G(x_j +- y_l + (delta+kappa)/2 | delta)
    product form  prod_{j,l} prod_{e1,e2} G(e1 x_j + e2 y_l + (delta-kappa)/2)

    The two differ by a factor that is delta-periodic in every variable, so
    they satisfy the same first-order system.
    """
    p = _params_of(spec, ParamsBC)
    fam = p.fam
    sign = _resolve_sign(spec, fam)
    half_minus = (p.delta - p.kappa) / 2
    half_plus = (p.delta + p.kappa) / 2
    out = 1 + 0j
    if spec.kind is KernelKind.PHI_BC_RATIO:
        for xj in x:
            for yl in y:
                for eps in (1, -1):
                    u = xj + eps * yl
                    out *= gamma_fn(fam, sign, u + half_minus, p.delta)
                    out /= gamma_fn(fam, sign, u + half_plus, p.delta)
        return out
    if spec.kind is KernelKind.PHI_BC_PRODUCT:
        for xj in x:
            for yl in y:
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        out *= gamma_fn(
                            fam, sign, e1 * xj + e2 * yl + half_minus, p.delta
                        )
        return out
    raise ValueError(f"not a BC Cauchy kernel kind: {spec.kind}")


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


# ======================================================================
# dispatch
# ======================================================================


def kernel_value(
    spec: KernelSpec, x: Sequence[complex], y: Sequence[complex]
) -> complex:
    """Evaluate a numeric kernel at additive points x, y."""
    kind = spec.kind
    if kind is KernelKind.PHI_A:
        return phi_A(spec, x, y)
    if kind is KernelKind.PSI_A:
        p = _params_of(spec, ParamsA)
        return psi_A(x, y, spec.v, p.fam)
    if kind in (KernelKind.PHI_BC_RATIO, KernelKind.PHI_BC_PRODUCT):
        return phi_BC(spec, x, y)
    if kind is KernelKind.PSI_BC:
        p = _params_of(spec, ParamsBC)
        return psi_BC(x, y, p.fam)
    if kind in (KernelKind.PHI_ZERO, KernelKind.PHI_PLUS, KernelKind.PHI_MINUS):
        p = _params_of(spec, ParamsA, ParamsBC)
        variant = {
            KernelKind.PHI_ZERO: "zero",
            KernelKind.PHI_PLUS: "plus",
            KernelKind.PHI_MINUS: "minus",
        }[kind]
        return kern_phi0(
            x, y, p.delta, p.kappa, p.fam.omega1, variant, p.fam.trunc
        )
    if kind is KernelKind.PI_MACDONALD:
        p = _params_of(spec, ParamsA, ParamsBC)
        w1 = p.fam.omega1
        q = phase(p.delta / w1)
        t = phase(p.kappa / w1)
        z = [phase(v / w1) for v in x]
        w = [phase(v / w1) for v in y]
        return pi_macdonald(z, w, q, t, p.fam.trunc)
    raise ValueError(f"{kind.value} is an exact kernel; evaluate the polynomial")
