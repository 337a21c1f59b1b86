"""Sigma-function families and their gamma functions.

The whole operator theory is built from one odd function ``[u]`` satisfying
the Riemann relation

    [x+u][x-u][y+v][y-v] - [x+v][x-v][y+u][y-u] = [x+y][x-y][u+v][u-v].

Up to constant multiples there are three families:

    rational        [u] = u                      rho = 1
    trigonometric   [u] = sin(pi*u/omega1)       rho = 2
    elliptic        [u] = -z^(-1/2) theta(z;p)   rho = 4
                    with z = e(u/omega1), p = e(omega2/omega1),
                    theta(z;p) = (z;p)_inf (p/z;p)_inf, e(u) = exp(2*pi*i*u)

Each family comes with quasi-period data (omega_r, eta_r, epsilon_r) for
r = 1..rho governing

    [u + omega_r] = epsilon_r * e(eta_r*(u + omega_r/2)) * [u],

and with gamma functions G_{+-}(u|delta) solving

    G_{+-}(u+delta|delta) = +-[u] * G_{+-}(u|delta).

A family may carry a constant ``scale`` multiplier (default 1).  Every
identity in this package is invariant under rescaling [u] -> c[u] except the
factorized Koornwinder-type right-hand sides, which require the
z^(1/2)-z^(-1/2) normalization; the verify module builds a scale=2i family
for exactly those checks.  Gamma functions absorb the scale through the
c^(u/delta) rule, so the difference equations above hold with the family
bracket whatever the scale.

[u] vanishes exactly on the period lattice, the integer span of the
nonzero omega_r; :func:`lattice_dist` measures the distance of u from it,
exactly up to a reach of 2e-2 * |omega1|, which bounds every pole guard.

Truncated products (theta, q-Pochhammer, elliptic gamma) follow an explicit
Truncation policy; elliptic double products are truncated on the triangle
i + j <= max_terms.

Pole rule: a denominator factor of magnitude below POLE_THRESHOLD is a pole,
and PoleError is raised with ``where`` naming that factor as written, e.g.
``[2u]`` or ``sin(pi z)``.  Every numeric layer applies the rule through
:func:`nonvanishing` (one checked factor) or :func:`sigma_ratio` (the ratio
[num]/[den] with [den] checked); both take the label as a format string and
its arguments, formatted only when the pole is hit, so a clear factor costs
no string work.  ``elliptic_gamma`` is the one exception: it checks each
factor of its double product inline, because a call per factor there costs
measurably in the elliptic family's hottest loop.  That loop runs over a
table of the z-independent bases p^i q^j, which ends each row and the whole
triangle where the truncation policy stops; the public ``elliptic_gamma``
builds the table on every call, and ``gamma_fn`` on a memoized family
builds it once per nome q (see :meth:`SigmaFamily.memoized`).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, TypeVar

_T = TypeVar("_T")

# ======================================================================
# errors and policy constants
# ======================================================================

#: magnitude below which a denominator factor is treated as a pole
POLE_THRESHOLD = 1e-10


class DomainError(ValueError):
    """Input outside the mathematical domain (non-finite, divergent request)."""


class PoleError(ArithmeticError):
    """Evaluation too close to a pole; names the offending sub-expression."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.where = where or message


@dataclass(frozen=True)
class Truncation:
    """Policy for infinite products: hard term cap plus early-stop tolerance."""

    max_terms: int = 64
    term_tol: float = 1e-16

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.term_tol < 0:
            raise ValueError("term_tol must be nonnegative")


DEFAULT_TRUNCATION = Truncation()


# ======================================================================
# elementary helpers
# ======================================================================


def phase(u: complex) -> complex:
    """e(u) = exp(2*pi*i*u)."""
    return cmath.exp(2j * math.pi * u)


def binom2(x: complex) -> complex:
    """The quadratic binom(x,2) = x(x-1)/2, for complex x."""
    return x * (x - 1) / 2


def nonvanishing(value: complex, where: str, *args: object) -> complex:
    """``value``, checked against the pole rule.

    Raises PoleError when ``abs(value) < POLE_THRESHOLD``; its ``where`` is
    ``where.format(*args)``, formatted only then.
    """
    if abs(value) < POLE_THRESHOLD:
        label = where.format(*args)
        raise PoleError(f"pole: {label} = {value}", where=label)
    return value


def _require_finite(name: str, *values: complex) -> None:
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"{name}: non-finite input {v!r}")


# ======================================================================
# families
# ======================================================================


class FamilyKind(str, Enum):
    RATIONAL = "rational"
    TRIGONOMETRIC = "trig"
    ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class SigmaFamily:
    """One concrete sigma function together with its quasi-period tables.

    Fields omega_r / eta_r / epsilon_r follow the fixed ordering
    omega_1, ..., omega_rho with omega_rho = 0; the exponential prefactor
    e(a u^2) of the general classification is fixed to a = 0, which is what
    makes these constant tables valid.
    """

    kind: FamilyKind
    omega1: complex = 1.0
    omega2: complex | None = None
    scale: complex = 1.0
    rho: int = field(init=False, default=1)
    omegas: tuple[complex, ...] = field(init=False, default=())
    etas: tuple[complex, ...] = field(init=False, default=())
    epsilons: tuple[int, ...] = field(init=False, default=())
    trunc: Truncation = DEFAULT_TRUNCATION
    _nome: complex | None = field(init=False, repr=False, compare=False, default=None)
    _guard_basis: tuple[complex, complex, bool] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _memo: dict | None = field(init=False, repr=False, compare=False, default=None)
    _constants: dict | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.scale == 0:
            raise ValueError("sigma scale must be nonzero")
        if self.kind is FamilyKind.RATIONAL:
            tables = (1, (0.0,), (0.0,), (1,))
        elif self.kind is FamilyKind.TRIGONOMETRIC:
            if self.omega1 == 0:
                raise ValueError("trigonometric family needs omega1 != 0")
            tables = (2, (self.omega1, 0.0), (0.0, 0.0), (-1, 1))
        elif self.kind is FamilyKind.ELLIPTIC:
            if self.omega1 == 0 or self.omega2 is None:
                raise ValueError("elliptic family needs omega1 and omega2")
            tau = self.omega2 / self.omega1
            if tau.imag <= 0:
                raise DomainError(
                    f"elliptic family needs Im(omega2/omega1) > 0, got {tau}"
                )
            omega3 = -self.omega1 - self.omega2
            tables = (
                4,
                (self.omega1, self.omega2, omega3, 0.0),
                (0.0, -1 / self.omega1, 1 / self.omega1, 0.0),
                (-1, -1, -1, 1),
            )
            object.__setattr__(self, "_nome", phase(tau))
            object.__setattr__(
                self, "_guard_basis", _guard_basis(self.omega1, self.omega2)
            )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown family kind {self.kind}")
        object.__setattr__(self, "rho", tables[0])
        object.__setattr__(self, "omegas", tables[1])
        object.__setattr__(self, "etas", tables[2])
        object.__setattr__(self, "epsilons", tables[3])

    # constructors ------------------------------------------------------

    @classmethod
    def rational(cls, scale: complex = 1.0) -> "SigmaFamily":
        return cls(FamilyKind.RATIONAL, omega1=0.0, scale=scale)

    @classmethod
    def trigonometric(
        cls,
        omega1: complex = 1.0,
        scale: complex = 1.0,
        trunc: Truncation = DEFAULT_TRUNCATION,
    ) -> "SigmaFamily":
        return cls(FamilyKind.TRIGONOMETRIC, omega1=omega1, scale=scale, trunc=trunc)

    @classmethod
    def elliptic(
        cls,
        omega1: complex = 1.0,
        omega2: complex = 0.31 + 1.2j,
        scale: complex = 1.0,
        trunc: Truncation = DEFAULT_TRUNCATION,
    ) -> "SigmaFamily":
        return cls(
            FamilyKind.ELLIPTIC, omega1=omega1, omega2=omega2, scale=scale, trunc=trunc
        )

    @property
    def nome(self) -> complex:
        """p = e(omega2/omega1); only meaningful for the elliptic family."""
        if self.kind is not FamilyKind.ELLIPTIC:
            raise DomainError("nome is defined only for the elliptic family")
        return self._nome

    def memoized(self) -> "SigmaFamily":
        """A copy of this family, equal to it, that remembers its values.

        The copy holds two fresh dicts.  In the value dict :func:`sigma_eval`
        and :func:`gamma_fn` store each value they compute and look it up
        again, bit for bit the same; it holds nothing else.  The constants
        dict holds what :meth:`constant` builds: values that depend on the
        family and a key but not on the point, such as the p^i q^j bases of
        ``elliptic_gamma`` for one nome q.  Both dicts live as long as the
        copy; this family itself stays without them.
        """
        copy = dataclasses.replace(self)
        object.__setattr__(copy, "_memo", {})
        object.__setattr__(copy, "_constants", {})
        return copy

    def constant(self, key: object, build: Callable[..., _T], *args: object) -> _T:
        """``build(*args)``, built on every call on a plain family and once
        per ``key`` on a memoized copy, which keeps it in its constants dict.

        ``key`` must determine the value together with the family, and start
        with a tag of its caller, so that no two callers share a key.
        ``build`` must not return None; when it raises, nothing is stored.
        """
        constants = self._constants
        if constants is None:
            return build(*args)
        value = constants.get(key)
        if value is None:
            value = constants[key] = build(*args)
        return value


# ======================================================================
# the period lattice
# ======================================================================

#: widest distance, in units of |omega1|, at which lattice_dist is exact
_LATTICE_REACH = 2e-2


def _reduced_basis(w1: complex, w2: complex) -> tuple[complex, complex]:
    """A shortest basis of the lattice spanned by w1 and w2.

    Lagrange-Gauss reduction (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 1.3.14): subtract the nearest integer multiple of
    the shorter vector from the longer until the longer one stays longer.
    In a reduced basis the node nearest a point is in the 3x3 window
    around its rounded coordinates, however skewed the given basis is.
    """
    long, short = (w1, w2) if abs(w1) >= abs(w2) else (w2, w1)
    while True:
        k = round((long * short.conjugate()).real / abs(short) ** 2)
        long -= k * short
        if abs(long) >= abs(short):
            return short, long
        long, short = short, long


def _guard_basis(w1: complex, w2: complex) -> tuple[complex, complex, bool]:
    """The basis :func:`lattice_dist` rounds a point's coordinates in, and
    whether it must then search the 3x3 window around them.

    The given basis needs no window when every node within the reach of a
    point is the node its rounded coordinates name.  The coordinates of u
    are B^-1 u, where B is the basis matrix.  A node within L of u moves
    each coordinate by at most L*||B^-1|| (the norm from the plane to the
    larger coordinate), which is L*max(|w1|, |w2|)/|det B|.  Below 1/2,
    rounding the coordinates of u lands on that node, so no other node can
    be within L.  Otherwise the reduced basis and its window are used.
    """
    det = w1.real * w2.imag - w1.imag * w2.real
    limit = _LATTICE_REACH * abs(w1)
    if limit * max(abs(w1), abs(w2)) < 0.5 * abs(det):
        return w1, w2, False
    return (*_reduced_basis(w1, w2), True)


def lattice_unit(fam: SigmaFamily) -> float:
    """|omega1|, the length lattice distances are measured in; 1 for the
    rational family, which has no period."""
    return abs(fam.omega1) if fam.kind is not FamilyKind.RATIONAL else 1.0


def lattice_dist(fam: SigmaFamily, u: complex) -> float:
    """Distance from u to the period lattice, the zero set of [u].

    Exact up to ``_LATTICE_REACH`` * |omega1|; beyond it the elliptic value
    may be the distance to a node other than the nearest, which is farther
    still, so it only answers whether u is within the reach or farther.
    """
    if fam.kind is FamilyKind.RATIONAL:
        return abs(u)
    if fam.kind is FamilyKind.TRIGONOMETRIC:
        w1 = fam.omega1
        t = u / w1
        return abs(t - round(t.real)) * abs(w1)
    r1, r2, window = fam._guard_basis
    det = r1.real * r2.imag - r1.imag * r2.real
    a = round((u.real * r2.imag - u.imag * r2.real) / det)
    b = round((r1.real * u.imag - r1.imag * u.real) / det)
    if not window:
        return abs(u - (a * r1 + b * r2))
    best = math.inf
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            best = min(best, abs(u - ((a + da) * r1 + (b + db) * r2)))
    return best


# ======================================================================
# truncated products
# ======================================================================


def qpoch(
    z: complex,
    q: complex,
    n: int | None = None,
    tr: Truncation = DEFAULT_TRUNCATION,
) -> complex:
    """(z;q)_n = prod_{i<n} (1 - q^i z); n = None means the infinite product."""
    _require_finite("qpoch", z, q)
    if n is not None:
        if n < 0:
            raise ValueError("finite q-Pochhammer length must be nonnegative")
        out = 1 + 0j
        factor = complex(z)
        for _ in range(n):
            out *= 1 - factor
            factor *= q
        return out
    if abs(q) >= 1:
        raise DomainError(f"(z;q)_infinity diverges for |q| = {abs(q)} >= 1")
    return _qpoch_inf(z, q, tr)


def _qpoch_inf(z: complex, q: complex, tr: Truncation) -> complex:
    """(z;q)_inf for finite z and |q| < 1, which the caller has checked."""
    term_tol = tr.term_tol
    out = 1 + 0j
    factor = complex(z)
    for _ in range(tr.max_terms):
        out *= 1 - factor
        factor *= q
        if abs(factor) < term_tol:
            break
    return out


class ThetaValue(NamedTuple):
    value: complex
    trunc_error: float


def theta_eval(
    z: complex, p: complex, tr: Truncation = DEFAULT_TRUNCATION
) -> ThetaValue:
    """theta(z;p) = (z;p)_inf (p/z;p)_inf, with a truncation-error estimate.

    The estimate bounds the relative error of dropping all factors past the
    cap: sum of |p^i z| + |p^(i+1)/z| over the tail, times |value|.
    """
    value = _theta_value(z, p, tr)
    ap = abs(p)
    tail = ap**tr.max_terms * (abs(z) + ap / abs(z)) / (1 - ap) if ap else 0.0
    return ThetaValue(value, tail * abs(value))


def _theta_value(z: complex, p: complex, tr: Truncation) -> complex:
    """theta(z;p) alone, with every check of :func:`theta_eval` but no
    tail bound, for callers that read only the value."""
    if not (cmath.isfinite(z) and cmath.isfinite(p)):
        _require_finite("theta_eval", z, p)
    ap = abs(p)
    if ap >= 1:
        raise DomainError(f"theta needs |p| < 1, got |p| = {ap}")
    if z == 0:
        raise DomainError("theta needs z != 0")
    p_over_z = p / z
    if not cmath.isfinite(p_over_z):
        raise DomainError(f"theta_eval: p/z = {p_over_z!r} overflows for z = {z!r}")
    return _qpoch_inf(z, p, tr) * _qpoch_inf(p_over_z, p, tr)


def elliptic_gamma(
    z: complex,
    p: complex,
    q: complex,
    tr: Truncation = DEFAULT_TRUNCATION,
) -> complex:
    """Gamma(z;p,q) = (pq/z;p,q)_inf / (z;p,q)_inf on the triangle i+j <= depth."""
    return _elliptic_gamma(z, p, q, tr, None)


class _GammaTable(NamedTuple):
    """The z-independent bases p^i q^j of the elliptic gamma product, in
    the order of its double loop, and their exponents (i, j)."""

    bases: tuple[complex, ...]
    exponents: tuple[tuple[int, int], ...]


def _gamma_table(p: complex, q: complex, tr: Truncation) -> _GammaTable:
    """The table of :class:`_GammaTable` for (p, q): each row i ends after
    the first base below ``tr.term_tol``, and the rows end after the first
    p^i below it, or at the triangle i + j <= ``tr.max_terms``."""
    depth = tr.max_terms
    term_tol = tr.term_tol
    bases = []
    exponents = []
    p_i = 1 + 0j
    for i in range(depth + 1):
        q_j = 1 + 0j
        for j in range(depth + 1 - i):
            base = p_i * q_j
            bases.append(base)
            exponents.append((i, j))
            q_j *= q
            if abs(base) < term_tol:
                break
        p_i *= p
        if abs(p_i) < term_tol:
            break
    return _GammaTable(tuple(bases), tuple(exponents))


def _elliptic_gamma(
    z: complex, p: complex, q: complex, tr: Truncation, fam: SigmaFamily | None
) -> complex:
    """Gamma(z;p,q) with every check of :func:`elliptic_gamma`; the table of
    bases is built for this call, or once per q on the memoized family
    ``fam`` whose nome is p and whose truncation is ``tr``."""
    _require_finite("elliptic_gamma", z, p, q)
    if abs(p) >= 1 or abs(q) >= 1:
        raise DomainError("elliptic gamma needs |p| < 1 and |q| < 1")
    if z == 0:
        raise DomainError("elliptic gamma needs z != 0")
    if fam is None:
        table = _gamma_table(p, q, tr)
    else:
        table = fam.constant(("gamma table", _exact_key(q)), _gamma_table, p, q, tr)
    pole = POLE_THRESHOLD
    num = 1 + 0j
    den = 1 + 0j
    pq_over_z = p * q / z
    for base in table.bases:
        den_factor = 1 - base * z
        if abs(den_factor) < pole:
            # the first base whose factor fails is this one
            i, j = next(
                ij
                for ij, b in zip(table.exponents, table.bases)
                if abs(1 - b * z) < pole
            )
            raise PoleError(
                f"elliptic gamma pole: factor (1 - p^{i} q^{j} z) = "
                f"{den_factor} with z = {z}",
                where=f"(1 - p^{i} q^{j} z)",
            )
        num *= 1 - base * pq_over_z
        den *= den_factor
    return num / den


# ======================================================================
# sigma evaluation
# ======================================================================


def _exact_key(u: complex) -> object:
    """A dict key for a finite number u, equal only for arguments that give
    bit-identical values: u itself when neither part is zero (then == is
    bitwise equality), else u with its type and the signs of its parts,
    because 0.0 == -0.0 == 0j as keys."""
    if u.real and u.imag:
        return u
    return (type(u), math.copysign(1.0, u.real), math.copysign(1.0, u.imag), u)


def sigma_eval(fam: SigmaFamily, u: complex) -> complex:
    """[u] for the given family (includes the family's scale multiplier).

    On a family made by :meth:`SigmaFamily.memoized` a trig or elliptic
    value is computed once per exact argument and then read back; a
    rational value, one multiply, never is.  ``run_suite`` gives each task
    such a copy of its own, so nothing is shared between tasks or callers.
    The memo is read before u is checked: only finite arguments are ever
    stored, so a non-finite one misses and raises DomainError.
    """
    if fam.kind is FamilyKind.RATIONAL:
        if not cmath.isfinite(u):
            _require_finite("sigma_eval", u)
        return fam.scale * u
    memo = fam._memo
    if memo is not None:
        key = _exact_key(u)
        value = memo.get(key)
        if value is not None:
            return value
    if not cmath.isfinite(u):
        _require_finite("sigma_eval", u)
    value = _sigma_value(fam, u)
    if memo is not None:
        memo[key] = value
    return value


def _sigma_value(fam: SigmaFamily, u: complex) -> complex:
    """[u] for the trig and elliptic families, finite u, no memo."""
    if fam.kind is FamilyKind.TRIGONOMETRIC:
        return fam.scale * cmath.sin(math.pi * u / fam.omega1)
    # elliptic: -z^(-1/2) theta(z;p), the half power taken from u itself so
    # the branch is consistent by construction; e(w) as in phase()
    w1 = fam.omega1
    z = cmath.exp(2j * math.pi * (u / w1))
    z_inv_half = cmath.exp(2j * math.pi * (-u / (2 * w1)))
    theta = _theta_value(z, fam._nome, fam.trunc)
    return fam.scale * (-z_inv_half * theta)


def sigma_ratio(
    fam: SigmaFamily, num: complex, den: complex, where: str, *args: object
) -> complex:
    """[num]/[den]; [den] is checked first, and a pole there raises
    PoleError labelled ``where.format(*args)`` (see :func:`nonvanishing`)."""
    den_value = nonvanishing(sigma_eval(fam, den), where, *args)
    return sigma_eval(fam, num) / den_value


def quasi_period_residual(fam: SigmaFamily, u: complex, r: int) -> float:
    """| [u+omega_r] - epsilon_r e(eta_r (u + omega_r/2)) [u] | for r = 1..rho."""
    if not 1 <= r <= fam.rho:
        raise ValueError(f"period index r must be in 1..{fam.rho}")
    omega = fam.omegas[r - 1]
    eta = fam.etas[r - 1]
    eps = fam.epsilons[r - 1]
    lhs = sigma_eval(fam, u + omega)
    rhs = eps * phase(eta * (u + omega / 2)) * sigma_eval(fam, u)
    return abs(lhs - rhs)


def riemann_residual(
    fam: SigmaFamily, x: complex, y: complex, u: complex, v: complex
) -> float:
    """Residual of the Riemann relation at (x, y, u, v)."""
    s = lambda w: sigma_eval(fam, w)  # noqa: E731 - local shorthand
    lhs = s(x + u) * s(x - u) * s(y + v) * s(y - v) - s(x + v) * s(x - v) * s(
        y + u
    ) * s(y - u)
    rhs = s(x + y) * s(x - y) * s(u + v) * s(u - v)
    return abs(lhs - rhs)


def duplication_residual(fam: SigmaFamily, u: complex, c: complex) -> float:
    """Max residual of the two duplication identities.

    (i)   [2u] = 2[u] prod_{s<rho} [u - omega_s/2]/[-omega_s/2]
    (ii)  [2u+c]/[2u] = prod_{s<=rho} [u + (c-omega_s)/2]/[u - omega_s/2]
    """
    s = lambda w: sigma_eval(fam, w)  # noqa: E731
    two_u = s(2 * u)
    prod1 = 2 * s(u)
    for idx in range(fam.rho - 1):
        w = fam.omegas[idx]
        prod1 *= sigma_ratio(fam, u - w / 2, -w / 2, "[-omega_{}/2]", idx + 1)
    res1 = abs(two_u - prod1)

    nonvanishing(two_u, "[2u]")
    prod2 = 1 + 0j
    for idx in range(fam.rho):
        w = fam.omegas[idx]
        prod2 *= sigma_ratio(
            fam, u + (c - w) / 2, u - w / 2, "[u - omega_{}/2]", idx + 1
        )
    res2 = abs(s(2 * u + c) / two_u - prod2)
    return max(res1, res2)


# ======================================================================
# gamma functions
# ======================================================================

# Lanczos approximation of the Euler gamma function, g = 7, 9 coefficients.
# Documented accuracy ~1e-13 on the test strip; reflection handles Re < 1/2.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def euler_gamma(z: complex) -> complex:
    """Complex Euler gamma via the Lanczos approximation (g = 7)."""
    _require_finite("euler_gamma", z)
    z = complex(z)
    if z.real < 0.5:
        sin_piz = nonvanishing(cmath.sin(math.pi * z), "sin(pi z)")
        return math.pi / (sin_piz * euler_gamma(1 - z))
    z -= 1
    acc = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


class GammaSign(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


def _scale_adjustment(fam: SigmaFamily) -> complex:
    """The constant c with [u]_fam = c * [u]_base, where [u]_base is the
    normalization the closed-form gamma functions are built for
    (u rational, z^(1/2)-z^(-1/2) trigonometric, -z^(-1/2)theta elliptic)."""
    if fam.kind is FamilyKind.TRIGONOMETRIC:
        return fam.scale / 2j
    return fam.scale


def gamma_fn(fam: SigmaFamily, sign: GammaSign, u: complex, delta: complex) -> complex:
    """G_{+-}(u|delta) with G_{+-}(u+delta|delta) = +-[u] G_{+-}(u|delta).

    The family bracket [u] here includes the family scale; the base
    closed forms are multiplied by c^(u/delta) (c from _scale_adjustment),
    which is exactly the rescaling a gamma function picks up when sigma is
    rescaled by c.

    ``sign`` is a :class:`GammaSign` or its value ("plus", "minus"); any
    other value raises ``ValueError``.  On a family made by
    :meth:`SigmaFamily.memoized` each value is computed once per exact
    (sign, u, delta) and then read back; a call that raises stores
    nothing.  As in :func:`sigma_eval` the memo is read before u and delta
    are checked, and a non-finite one misses and raises DomainError.
    ``run_suite`` gives each task such a copy of its own, so nothing is
    shared between tasks or callers.
    """
    if not isinstance(sign, GammaSign):
        sign = GammaSign(sign)
    memo = fam._memo
    if memo is not None:
        key = (sign, _exact_key(u), _exact_key(delta))
        value = memo.get(key)
        if value is not None:
            return value
    _require_finite("gamma_fn", u, delta)
    value = _gamma_value(fam, sign, u, delta)
    if memo is not None:
        memo[key] = value
    return value


def _gamma_value(
    fam: SigmaFamily, sign: GammaSign, u: complex, delta: complex
) -> complex:
    """G_{+-}(u|delta) for finite u and delta, no memo."""
    if delta == 0:
        raise DomainError("gamma_fn needs delta != 0")
    tr = fam.trunc
    c = _scale_adjustment(fam)
    adjust = cmath.exp((u / delta) * cmath.log(c)) if c != 1 else 1.0

    if fam.kind is FamilyKind.RATIONAL:
        base_delta = delta if sign is GammaSign.PLUS else -delta
        prefactor = cmath.exp((u / delta) * cmath.log(base_delta))
        return adjust * prefactor * euler_gamma(u / delta)

    ratio = delta / fam.omega1
    if ratio.imag <= 0:
        raise DomainError(
            f"gamma_fn needs Im(delta/omega1) > 0, got {ratio}"
        )
    q = phase(ratio)
    z = phase(u / fam.omega1)
    quad = phase((delta / (2 * fam.omega1)) * binom2(u / delta))

    if fam.kind is FamilyKind.TRIGONOMETRIC:
        if sign is GammaSign.MINUS:
            den = nonvanishing(qpoch(z, q, None, tr), "(z;q)_inf")
            return adjust / quad / den
        return adjust * quad * qpoch(q / z, q, None, tr)

    # elliptic
    p = fam._nome
    if sign is GammaSign.MINUS:
        return adjust / quad * _elliptic_gamma(z, p, q, tr, fam)
    return adjust * quad * _elliptic_gamma(p * z, p, q, tr, fam)
