"""Koornwinder and Macdonald polynomials, computed exactly.

Eigen-solve route: the Koornwinder operator acts triangularly on
hyperoctahedral orbit sums with known diagonal entries, so P_lambda is
obtained by building the exact operator matrix on the basis of all
mu <= lambda (dominance) and back-substituting the triangular
eigen-system.  No inner product is needed, and every coefficient stays an
exact rational on the doubled exponent lattice of :mod:`diffkern.laurent`.

Explicit route: the elementary family E_r(z;a|t) built from two-variable
brackets [z;w] = z + 1/z - w - 1/w, the row family H_l(z;a|q,t), the monic
Askey-Wilson polynomials, and the finite expansion formulas that tie these
to P_(1^r) and P_(l).  The two routes are compared literally by
:func:`theorem_equality`; interpolation (vanishing-grid) properties and
the Cauchy / dual Cauchy expansions are checked as exact polynomial
identities.

Parameters travel as :class:`~diffkern.laurent.ExactParams`: the square
roots sa..st are rational, so each constant the formulas call for (for
instance [ab], alpha = (abcd/q)^(1/2), or (qt)^(1/2)/a) is again rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .laurent import (
    ExactParams,
    LaurentPoly,
    Partition,
    bracket_pair_const,
    bracket_factorial_const,
    bracket_za,
    dominance_leq,
    orbit_sum,
    partitions_in_box,
    partitions_of,
    poly_to_json,
    sym_orbit_sum,
)
from .operators import apply_koorn_mult, apply_macdonald_mult

__all__ = [
    "AWBase",
    "CollisionError",
    "DegenerateParameterError",
    "InterpKind",
    "InterpReport",
    "KoornBasis",
    "TheoremKind",
    "TriangularSolveError",
    "askey_wilson_p",
    "cauchy_check_macdonald",
    "cauchy_series",
    "column_formula",
    "compute_with_resampling",
    "connection_bracket_to_AW",
    "dual_cauchy_check",
    "eigenvalue_d",
    "expansion_check_E",
    "expansion_check_H",
    "interpolation_checks",
    "koorn_basis",
    "koornwinder_json",
    "koornwinder_poly",
    "lambda_star",
    "macdonald_eigenvalue",
    "macdonald_poly",
    "perturbed_params",
    "poly_E",
    "poly_H",
    "row_formula",
    "theorem_equality",
]


class CollisionError(ValueError):
    """Two basis partitions share an eigenvalue at the chosen parameters."""


class DegenerateParameterError(ValueError):
    """A denominator of an explicit formula vanishes at the chosen parameters."""


class TriangularSolveError(RuntimeError):
    """An invariant of the triangular eigen-solve does not hold.

    The theory guarantees each one, so this signals a defect: the solve
    would otherwise return a wrong polynomial.
    """


class AWBase(Enum):
    """Base of an Askey-Wilson family: the q-side or the t-side."""

    Q = "q"
    T = "t"


class InterpKind(Enum):
    COLUMN_E = "ColumnE"
    ROW_H = "RowH"


class TheoremKind(Enum):
    COLUMN = "Column"
    ROW = "Row"


def _coerce(value, enum_cls):
    return value if isinstance(value, enum_cls) else enum_cls(value)


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


# ======================================================================
# bases and eigenvalues
# ======================================================================


@dataclass(frozen=True)
class KoornBasis:
    """Dominance-closed orbit basis for the triangular eigen-solve.

    ``mu_list`` holds every partition mu <= lam that fits in m variables,
    with lam first; the listing order is a linear extension of dominance
    (whenever nu < mu, mu appears before nu).
    """

    lam: Partition
    mu_list: tuple[Partition, ...]
    m: int


@lru_cache(maxsize=None)
def koorn_basis(lam: Partition, m: int) -> KoornBasis:
    if m < 1:
        raise ValueError("need at least one variable")
    if len(lam) > m:
        raise ValueError(f"partition {lam.parts} does not fit in {m} variables")
    members = [
        mu for mu in partitions_in_box(m, lam.part(0)) if dominance_leq(mu, lam)
    ]
    # size descending, then parts in descending lex order: a linear extension
    # of dominance, since a strict dominance step forces a lex step
    members.sort(key=lambda mu: (mu.size, mu.parts), reverse=True)
    if members[0] != lam:
        raise TriangularSolveError(f"basis for {lam.parts} does not start at lambda")
    return KoornBasis(lam=lam, mu_list=tuple(members), m=m)


def eigenvalue_d(lam, ep: ExactParams, m: int) -> Fraction:
    """Koornwinder eigenvalue sum_i [alpha t^(m-i) q^(lam_i); alpha t^(m-i)].

    With alpha = (abcd/q)^(1/2) = sa sb sc sd / sq; the empty partition
    gives 0.
    """
    part = _as_partition(lam)
    if len(part) > m:
        raise ValueError(f"partition {part.parts} does not fit in {m} variables")
    alpha = ep.alpha
    q, t = ep.q, ep.t
    total = Fraction(0)
    for i, li in enumerate(part.padded(m)):
        base = alpha * t ** (m - 1 - i)
        shifted = base * q**li
        total += shifted + 1 / shifted - base - 1 / base
    return total


def macdonald_eigenvalue(lam, q, t, m: int) -> Fraction:
    """Eigenvalue sum_i q^(lam_i) t^(m-i) of the first Macdonald operator."""
    part = _as_partition(lam)
    if len(part) > m:
        raise ValueError(f"partition {part.parts} does not fit in {m} variables")
    q = Fraction(q)
    t = Fraction(t)
    total = Fraction(0)
    for i, li in enumerate(part.padded(m)):
        total += q**li * t ** (m - 1 - i)
    return total


# ======================================================================
# triangular eigen-solve
# ======================================================================

# Capacities of the parameter-keyed solve caches.  Unbounded, they would
# keep every polynomial and column solved for as long as the process lives,
# so a caller sweeping parameters would grow without limit.  64 polynomials
# hold the whole 3 x 3 box for m = 1..3 at one parameter set (34 labels);
# a solve of P_lam reads one column per basis label (20 at most there).
_POLY_CACHE_SIZE = 64
_COLUMN_CACHE_SIZE = 256


def _rep_exponent(mu: Partition, m: int) -> tuple[int, ...]:
    """Doubled-lattice exponent of the dominant monomial z^mu."""
    return tuple(2 * e for e in mu.padded(m))


def _decompose(
    g: LaurentPoly,
    candidates: Sequence[Partition],
    basis_poly: Callable[[Partition], LaurentPoly],
    m: int,
) -> dict[Partition, Fraction]:
    """Write g as a combination of the candidate orbit sums, exactly.

    Each orbit sum contains its dominant monomial exactly once with
    coefficient 1, and distinct orbits are disjoint, so the coefficients
    read off directly.  The reassembled combination must reproduce g on
    the nose; a mismatch means the operator action escaped the
    dominance-closed basis, which the triangular theory forbids.
    """
    coeffs: dict[Partition, Fraction] = {}
    rebuilt = LaurentPoly.zero(m)
    for nu in candidates:
        c = g.coefficient(_rep_exponent(nu, m))
        if c:
            coeffs[nu] = c
            rebuilt = rebuilt + basis_poly(nu) * c
    if rebuilt != g:
        raise TriangularSolveError("operator action escapes the dominance-closed basis")
    return coeffs


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _koorn_column(
    ep: ExactParams, m: int, mu: Partition
) -> tuple[tuple[Partition, Fraction], ...]:
    """Decomposition of the operator image of the orbit sum m_mu."""
    basis = koorn_basis(mu, m)
    image = apply_koorn_mult(ep, orbit_sum(mu, m), m)
    coeffs = _decompose(image, basis.mu_list, lambda nu: orbit_sum(nu, m), m)
    if coeffs.get(mu, Fraction(0)) != eigenvalue_d(mu, ep, m):
        raise TriangularSolveError(
            f"koornwinder: diagonal entry for {mu.parts} is not its eigenvalue"
        )
    return tuple(sorted(coeffs.items(), key=lambda kv: kv[0].parts))


@lru_cache(maxsize=None)
def _macdonald_basis(lam: Partition, m: int) -> tuple[Partition, ...]:
    members = [
        mu for mu in partitions_of(lam.size, m) if dominance_leq(mu, lam)
    ]
    members.sort(key=lambda mu: mu.parts, reverse=True)
    return tuple(members)


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _macdonald_column(
    q: Fraction, t: Fraction, m: int, mu: Partition
) -> tuple[tuple[Partition, Fraction], ...]:
    image = apply_macdonald_mult(q, t, 1, sym_orbit_sum(mu, m), m)
    coeffs = _decompose(
        image, _macdonald_basis(mu, m), lambda nu: sym_orbit_sum(nu, m), m
    )
    if coeffs.get(mu, Fraction(0)) != macdonald_eigenvalue(mu, q, t, m):
        raise TriangularSolveError(
            f"macdonald: diagonal entry for {mu.parts} is not its eigenvalue"
        )
    return tuple(sorted(coeffs.items(), key=lambda kv: kv[0].parts))


def _triangular_eigen_solve(
    basis_list: Sequence[Partition],
    column_of: Callable[[Partition], Mapping[Partition, Fraction]],
    eig: Callable[[Partition], Fraction],
    basis_poly: Callable[[Partition], LaurentPoly],
    m: int,
    what: str,
) -> LaurentPoly:
    """Unit-leading eigenvector through back-substitution.

    The eigen-system (d_lam - D) P = 0 on a dominance-ordered basis is
    triangular, so once c_lam = 1 each remaining coefficient is a single
    division by d_lam - d_nu; equality of those eigenvalues is exactly the
    collision case the parameters must avoid.
    """
    lam = basis_list[0]
    d_lam = eig(lam)
    for mu in basis_list[1:]:
        if eig(mu) == d_lam:
            raise CollisionError(
                f"{what}: eigenvalue of {mu.parts} collides with {lam.parts} at "
                "the supplied parameters; perturb one square root "
                "(ExactParams.replace) and retry"
            )
    coeffs: dict[Partition, Fraction] = {lam: Fraction(1)}
    for nu in basis_list[1:]:
        s = Fraction(0)
        for mu, c_mu in coeffs.items():
            s += column_of(mu).get(nu, Fraction(0)) * c_mu
        coeffs[nu] = s / (d_lam - eig(nu))
    out = LaurentPoly.zero(m)
    for mu, c in coeffs.items():
        if c:
            out = out + basis_poly(mu) * c
    return out


@lru_cache(maxsize=_POLY_CACHE_SIZE)
def _koornwinder_cached(lam: Partition, ep: ExactParams, m: int) -> LaurentPoly:
    basis = koorn_basis(lam, m)
    return _triangular_eigen_solve(
        basis.mu_list,
        lambda mu: dict(_koorn_column(ep, m, mu)),
        lambda mu: eigenvalue_d(mu, ep, m),
        lambda mu: orbit_sum(mu, m),
        m,
        "koornwinder",
    )


def koornwinder_poly(lam, ep: ExactParams, m: int) -> LaurentPoly:
    """Koornwinder polynomial P_lambda(z; a,b,c,d | q,t), exactly.

    Unit coefficient on the orbit sum m_lambda; W-invariant; eigenfunction
    of the operator :func:`diffkern.operators.apply_koorn_mult` with
    eigenvalue :func:`eigenvalue_d`.  Raises :class:`CollisionError` when
    some mu < lambda shares the eigenvalue at these parameters.
    """
    return _koornwinder_cached(_as_partition(lam), ep, m)


@lru_cache(maxsize=_POLY_CACHE_SIZE)
def _macdonald_cached(
    lam: Partition, q: Fraction, t: Fraction, m: int
) -> LaurentPoly:
    basis = _macdonald_basis(lam, m)
    return _triangular_eigen_solve(
        basis,
        lambda mu: dict(_macdonald_column(q, t, m, mu)),
        lambda mu: macdonald_eigenvalue(mu, q, t, m),
        lambda mu: sym_orbit_sum(mu, m),
        m,
        "macdonald",
    )


def macdonald_poly(lam, q, t, m: int) -> LaurentPoly:
    """Macdonald polynomial P_lambda(z | q,t) on the symmetric orbit basis."""
    part = _as_partition(lam)
    if len(part) > m:
        raise ValueError(f"partition {part.parts} does not fit in {m} variables")
    return _macdonald_cached(part, Fraction(q), Fraction(t), m)


# ----------------------------------------------------------------------
# collision-retry harness


_ROOT_NAMES = ("sa", "sb", "sc", "sd", "sq", "st")


def perturbed_params(ep: ExactParams, attempt: int) -> ExactParams:
    """One-square-root perturbation used by the retry harness.

    Cycles through the six roots and bumps the chosen one by a small
    rational that shrinks with the attempt number, always starting from
    the original parameters.
    """
    name = _ROOT_NAMES[attempt % len(_ROOT_NAMES)]
    bump = Fraction(1, 101 + 6 * attempt)
    value = getattr(ep, name) + bump
    if not value:
        value = getattr(ep, name) - bump
    return ep.replace(**{name: value})


def compute_with_resampling(
    lam, ep: ExactParams, m: int, retries: int = 5
) -> tuple[LaurentPoly, ExactParams, list[str]]:
    """:func:`koornwinder_poly` with bounded collision retries.

    Returns (polynomial, parameters actually used, retry log); the log
    carries one line per collision hit so callers can surface it.
    """
    part = _as_partition(lam)
    log: list[str] = []
    current = ep
    for attempt in range(retries + 1):
        try:
            return koornwinder_poly(part, current, m), current, log
        except CollisionError as exc:
            log.append(f"attempt {attempt}: {exc}")
            current = perturbed_params(ep, attempt)
    raise CollisionError(
        f"no collision-free parameters for {part.parts} after {retries} "
        "retries; " + "; ".join(log)
    )


# ======================================================================
# explicit families: Askey-Wilson, E_r, H_l
# ======================================================================


def _sqrt_base(ep: ExactParams, base) -> Fraction:
    return ep.sq if _coerce(base, AWBase) is AWBase.Q else ep.st


def _bracket_factorial_on(
    mv: int, var: int, ref: Fraction, base: Fraction, l: int
) -> LaurentPoly:
    """[z_var; ref]_{base,l} as a polynomial in an mv-variable ring."""
    out = LaurentPoly.one(mv)
    for i in range(l):
        out = out * bracket_za(mv, var, ref * base**i)
    return out


def askey_wilson_p(r: int, ep: ExactParams, base="q") -> LaurentPoly:
    """Monic one-variable Askey-Wilson polynomial p_r(w) for the given base.

    Assembled from the finite expansion over the bracket factorials
    [w;a]_{base,s} with coefficients

        [base^(s+1), base^s ab, base^s ac, base^s ad]_{base, r-s}
        / [base, abcd base^(r+s-1)]_{base, r-s},

    which is exactly the terminating basic hypergeometric sum in monic
    normalization.  Vanishing denominators raise
    :class:`DegenerateParameterError`.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    sbase = _sqrt_base(ep, base)
    base_val = sbase**2
    sabcd = ep.sa * ep.sb * ep.sc * ep.sd
    out = LaurentPoly.zero(1)
    for s in range(r + 1):
        length = r - s
        num = Fraction(1)
        for root in (
            sbase ** (s + 1),
            sbase**s * ep.sa * ep.sb,
            sbase**s * ep.sa * ep.sc,
            sbase**s * ep.sa * ep.sd,
        ):
            num *= bracket_factorial_const(root, sbase, length)
        den = Fraction(1)
        for root in (sbase, sabcd * sbase ** (r + s - 1)):
            factor = bracket_factorial_const(root, sbase, length)
            if not factor:
                raise DegenerateParameterError(
                    f"vanishing bracket factorial of length {length} in the "
                    f"degree-{r} expansion; parameters are degenerate for "
                    f"base {_coerce(base, AWBase).value}"
                )
            den *= factor
        if num:
            out = out + _bracket_factorial_on(1, 0, ep.a, base_val, s) * (num / den)
    return out


def poly_E(r: int, ep: ExactParams, m: int) -> LaurentPoly:
    """Elementary family E_r(z; a | t) with reference point a.

    Defined by the nested-index sum over 1 <= i_1 < ... < i_r <= m of
    prod_k [z_{i_k}; t^(i_k - k) a]; built here by the two-branch
    recurrence (use the current variable against the current reference,
    or skip it and step the reference by t), which keeps the work
    polynomial in m.
    """
    if not 0 <= r <= m:
        raise ValueError(f"order must satisfy 0 <= r <= {m}, got {r}")
    a, t = ep.a, ep.t
    memo: dict[tuple[int, int, int], LaurentPoly] = {}

    def build(start: int, need: int, j: int) -> LaurentPoly:
        if need == 0:
            return LaurentPoly.one(m)
        if need > m - start:
            return LaurentPoly.zero(m)
        key = (start, need, j)
        if key not in memo:
            taken = bracket_za(m, start, a * t**j) * build(start + 1, need - 1, j)
            memo[key] = taken + build(start + 1, need, j + 1)
        return memo[key]

    return build(0, r, 0)


def _compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


def poly_H(l: int, ep: ExactParams, m: int) -> LaurentPoly:
    """Row family H_l(z; a | q,t): composition sum with q-stepped references.

    Each composition (nu_1, ..., nu_m) of l contributes

        prod_j ([t]_{q,nu_j} / [q]_{q,nu_j})
          * prod_j [z_j; t^(j-1) q^(nu_1+...+nu_(j-1)) a]_{q,nu_j}.
    """
    if l < 0:
        raise ValueError("order must be nonnegative")
    a, q, t = ep.a, ep.q, ep.t
    total = LaurentPoly.zero(m)
    for nu in _compositions(l, m):
        coeff = Fraction(1)
        for part in nu:
            den = bracket_factorial_const(ep.sq, ep.sq, part)
            if not den:
                raise DegenerateParameterError(
                    "[q]-factorial vanishes; q is a root of unity"
                )
            coeff *= bracket_factorial_const(ep.st, ep.sq, part) / den
        if not coeff:
            continue
        piece = LaurentPoly.one(m)
        prefix = 0
        for j, part in enumerate(nu):
            ref = t**j * q**prefix * a
            for i in range(part):
                piece = piece * bracket_za(m, j, ref * q**i)
            prefix += part
        total = total + piece * coeff
    return total


# ======================================================================
# closed formulas for single columns and single rows
# ======================================================================


def column_formula(r: int, ep: ExactParams, m: int) -> LaurentPoly:
    """Finite E-expansion attached to the column (1^r).

    sum over l of
        [t^(m-r+1), t^(m-r)ab, t^(m-r)ac, t^(m-r)ad]_{t,l}
        / [t, t^(2(m-r))abcd]_{t,l} * E_(r-l)(z; a | t).
    """
    if not 0 <= r <= m:
        raise ValueError(f"column length must satisfy 0 <= r <= {m}, got {r}")
    st = ep.st
    sabcd = ep.sa * ep.sb * ep.sc * ep.sd
    out = LaurentPoly.zero(m)
    for l in range(r + 1):
        num = Fraction(1)
        for root in (
            st ** (m - r + 1),
            st ** (m - r) * ep.sa * ep.sb,
            st ** (m - r) * ep.sa * ep.sc,
            st ** (m - r) * ep.sa * ep.sd,
        ):
            num *= bracket_factorial_const(root, st, l)
        den = Fraction(1)
        for root in (st, st ** (2 * (m - r)) * sabcd):
            factor = bracket_factorial_const(root, st, l)
            if not factor:
                raise DegenerateParameterError(
                    f"vanishing t-factorial of length {l} in the column "
                    "expansion; parameters are degenerate"
                )
            den *= factor
        if num:
            out = out + poly_E(r - l, ep, m) * (num / den)
    return out


def row_formula(r: int, ep: ExactParams, m: int) -> LaurentPoly:
    """Finite H-expansion attached to the row (r), normalized to P_(r).

    The raw expansion carries the prefactor [t]_{q,r} / [q]_{q,r}; the
    returned polynomial divides it away, so a vanishing [t]_{q,r} is an
    error rather than a silent rescale.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    if r < 0:
        raise ValueError("row length must be nonnegative")
    sq, st = ep.sq, ep.st
    sabcd = ep.sa * ep.sb * ep.sc * ep.sd
    t_fact = bracket_factorial_const(st, sq, r)
    if not t_fact:
        raise DegenerateParameterError(
            f"[t]_(q,{r}) vanishes at these parameters; the row normalization "
            "divides by it"
        )
    q_fact = bracket_factorial_const(sq, sq, r)

    front_roots = (
        st**m,
        st ** (m - 1) * ep.sa * ep.sb,
        st ** (m - 1) * ep.sa * ep.sc,
        st ** (m - 1) * ep.sa * ep.sd,
    )
    balancing_root = st ** (2 * (m - 1)) * sabcd * sq ** (r - 1)
    front_num = Fraction(1)
    for root in front_roots:
        front_num *= bracket_factorial_const(root, sq, r)
    front_den = Fraction(1)
    for root in (sq, balancing_root):
        factor = bracket_factorial_const(root, sq, r)
        if not factor:
            raise DegenerateParameterError(
                "vanishing q-factorial in the row prefactor; parameters are "
                "degenerate"
            )
        front_den *= factor

    acc = LaurentPoly.zero(m)
    for l in range(r + 1):
        num = bracket_factorial_const(sq ** (-r), sq, l) * bracket_factorial_const(
            balancing_root, sq, l
        )
        den = Fraction(1)
        for root in front_roots:
            factor = bracket_factorial_const(root, sq, l)
            if not factor:
                raise DegenerateParameterError(
                    f"vanishing q-factorial of length {l} in the row "
                    "expansion; parameters are degenerate"
                )
            den *= factor
        c = Fraction(-1) ** l * num / den
        if c:
            acc = acc + poly_H(l, ep, m) * c
    return acc * (q_fact * front_num / (t_fact * front_den))


def connection_bracket_to_AW(l: int, ep: ExactParams, base="t") -> list[Fraction]:
    """Coefficients writing [w;a]_{base,l} over the monic p_r(w | base).

    Entry r multiplies p_r and already carries the alternating sign:

        (-1)^(l-r) [base^(r+1), base^r ab, base^r ac, base^r ad]_{base,l-r}
                   / [base, abcd base^(2r)]_{base,l-r}.
    """
    if l < 0:
        raise ValueError("length must be nonnegative")
    sbase = _sqrt_base(ep, base)
    sabcd = ep.sa * ep.sb * ep.sc * ep.sd
    coeffs: list[Fraction] = []
    for r in range(l + 1):
        length = l - r
        num = Fraction(1)
        for root in (
            sbase ** (r + 1),
            sbase**r * ep.sa * ep.sb,
            sbase**r * ep.sa * ep.sc,
            sbase**r * ep.sa * ep.sd,
        ):
            num *= bracket_factorial_const(root, sbase, length)
        den = Fraction(1)
        for root in (sbase, sabcd * sbase ** (2 * r)):
            factor = bracket_factorial_const(root, sbase, length)
            if not factor:
                raise DegenerateParameterError(
                    f"vanishing bracket factorial of length {length} in the "
                    "connection coefficients; parameters are degenerate"
                )
            den *= factor
        coeffs.append(Fraction(-1) ** length * num / den)
    return coeffs


# ======================================================================
# exact expansion identities
# ======================================================================


def _embed(f: LaurentPoly, mv: int, at: Sequence[int]) -> LaurentPoly:
    """Relabel f's variables into positions ``at`` of an mv-variable ring."""
    positions = list(at)
    if len(positions) != f.m:
        raise ValueError("position list does not match the variable count")
    terms: dict[tuple[int, ...], Fraction] = {}
    for exp, coeff in f.terms.items():
        new = [0] * mv
        for i, e in enumerate(exp):
            new[positions[i]] = e
        terms[tuple(new)] = coeff
    return LaurentPoly(mv, terms)


def _bracket_two_vars(mv: int, i: int, j: int) -> LaurentPoly:
    """[z_i; z_j] = z_i + 1/z_i - z_j - 1/z_j in an mv-variable ring."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for var, sign in ((i, Fraction(1)), (j, Fraction(-1))):
        for e in (2, -2):
            key = [0] * mv
            key[var] = e
            terms[tuple(key)] = sign
    return LaurentPoly(mv, terms)


def _bracket_var_scaled(mv: int, i: int, j: int, c: Fraction) -> LaurentPoly:
    """[z_i; c z_j] = z_i + 1/z_i - c z_j - 1/(c z_j), c a nonzero rational."""
    if not c:
        raise ValueError("scale must be nonzero")
    up = [0] * mv
    up[i] = 2
    dn = [0] * mv
    dn[i] = -2
    ju = [0] * mv
    ju[j] = 2
    jd = [0] * mv
    jd[j] = -2
    return LaurentPoly(
        mv,
        {
            tuple(up): Fraction(1),
            tuple(dn): Fraction(1),
            tuple(ju): -c,
            tuple(jd): Fraction(-1) / c,
        },
    )


def expansion_check_E(m: int, ep: ExactParams) -> bool:
    """prod_j [w; z_j] == sum_r (-1)^r E_r(z;a|t) [w;a]_{t,m-r}, exactly.

    This is the expansion that characterizes E_r and proves its
    W-invariance; both sides live in the (m+1)-variable ring with w last.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    mv = m + 1
    w = m
    lhs = LaurentPoly.one(mv)
    for j in range(m):
        lhs = lhs * _bracket_two_vars(mv, w, j)
    rhs = LaurentPoly.zero(mv)
    for r in range(m + 1):
        term = _embed(poly_E(r, ep, m), mv, range(m)) * _bracket_factorial_on(
            mv, w, ep.a, ep.t, m - r
        )
        rhs = rhs + term * Fraction(-1) ** r
    return lhs == rhs


def expansion_check_H(m: int, k: int, ep: ExactParams) -> bool:
    """Truncated kernel at t = q^(-k) against the H_l expansion, exactly.

    prod_j [w; q^((1-k)/2) z_j]_{q,k}
        == sum_l H_l(z;a|q,t) [w; (qt)^(1/2)/a]_{q,km-l}.

    Pre: ep already carries the substitution, with the matching branch
    st = sq^(-k) so that every bracket constant agrees with the
    q-binomial derivation of the expansion.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if ep.st != ep.sq ** (-k):
        raise ValueError(
            "parameters must satisfy st = sq**(-k) exactly for the truncated "
            "kernel; build them with ep.replace(st=ep.sq**(-k))"
        )
    mv = m + 1
    w = m
    lhs = LaurentPoly.one(mv)
    for j in range(m):
        for i in range(k):
            lhs = lhs * _bracket_var_scaled(mv, w, j, ep.sq ** (1 - k + 2 * i))
    a_twisted = ep.sqrt_qt_over_a()
    rhs = LaurentPoly.zero(mv)
    for l in range(k * m + 1):
        term = _embed(poly_H(l, ep, m), mv, range(m)) * _bracket_factorial_on(
            mv, w, a_twisted, ep.q, k * m - l
        )
        rhs = rhs + term
    return lhs == rhs


# ======================================================================
# interpolation properties
# ======================================================================


def _eval_exact(f: LaurentPoly, sqrt_point: Sequence[Fraction]) -> Fraction:
    """Evaluate on the doubled lattice with rational square-root coordinates."""
    total = Fraction(0)
    for exp, coeff in f.terms.items():
        value = coeff
        for s, e in zip(sqrt_point, exp):
            if e:
                value *= Fraction(s) ** e
        total += value
    return total


def _grid_sqrt_point(
    mu: Partition, ep: ExactParams, m: int
) -> tuple[Fraction, ...]:
    """Square roots of the interpolation point z_i = q^(mu_i) t^(m-i) a."""
    return tuple(
        ep.sq ** mu.part(i) * ep.st ** (m - 1 - i) * ep.sa for i in range(m)
    )


def _pair_factorial_const(
    sx: Fraction, sy: Fraction, sbase: Fraction, l: int
) -> Fraction:
    """[x; y]_{base,l} = prod_j (x + 1/x - base^j y - 1/(base^j y))."""
    out = Fraction(1)
    for j in range(l):
        out *= bracket_pair_const(sx, sbase**j * sy)
    return out


@dataclass(frozen=True)
class InterpReport:
    """Outcome of a vanishing-grid and normalization run."""

    kind: InterpKind
    m: int
    orders: tuple[int, ...]
    points_checked: int
    vanishing_ok: bool
    normalization_ok: bool

    @property
    def passed(self) -> bool:
        return self.vanishing_ok and self.normalization_ok

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "m": self.m,
            "orders": list(self.orders),
            "points_checked": self.points_checked,
            "vanishing_ok": self.vanishing_ok,
            "normalization_ok": self.normalization_ok,
            "passed": self.passed,
        }


def interpolation_checks(kind, m: int, ep: ExactParams) -> InterpReport:
    """Exact vanishing grid and normalization values at the shifted points.

    The grid point of a partition mu is z_i = q^(mu_i) t^(m-i) a, with mu
    running over all partitions inside the (3^m) box.  E_r must vanish
    whenever the diagram of mu misses the column (1^r), in other words
    len(mu) < r, with threshold value (-1)^r [t^(m-r)a; q t^(m-r)a]_{t,r};
    H_l must vanish whenever mu_1 < l, with threshold value
    [t]_{q,l} [q^l t^(2(m-1)) a^2]_{q,l}.
    """
    kd = _coerce(kind, InterpKind)
    if m < 1:
        raise ValueError("need at least one variable")
    grid = partitions_in_box(m, 3)
    checked = 0
    vanishing_ok = True
    normalization_ok = True
    if kd is InterpKind.COLUMN_E:
        orders = tuple(range(m + 1))
        for r in orders:
            poly = poly_E(r, ep, m)
            for mu in grid:
                if len(mu) < r:
                    checked += 1
                    if _eval_exact(poly, _grid_sqrt_point(mu, ep, m)):
                        vanishing_ok = False
            threshold = _eval_exact(
                poly, _grid_sqrt_point(Partition((1,) * r), ep, m)
            )
            expected = Fraction(-1) ** r * _pair_factorial_const(
                ep.st ** (m - r) * ep.sa,
                ep.sq * ep.st ** (m - r) * ep.sa,
                ep.st,
                r,
            )
            if threshold != expected:
                normalization_ok = False
    else:
        orders = tuple(range(4))
        for l in orders:
            poly = poly_H(l, ep, m)
            for mu in grid:
                if mu.part(0) < l:
                    checked += 1
                    if _eval_exact(poly, _grid_sqrt_point(mu, ep, m)):
                        vanishing_ok = False
            threshold = _eval_exact(
                poly, _grid_sqrt_point(Partition((l,)), ep, m)
            )
            expected = bracket_factorial_const(
                ep.st, ep.sq, l
            ) * bracket_factorial_const(
                ep.sq**l * ep.st ** (2 * (m - 1)) * ep.sa**2, ep.sq, l
            )
            if threshold != expected:
                normalization_ok = False
    return InterpReport(
        kind=kd,
        m=m,
        orders=orders,
        points_checked=checked,
        vanishing_ok=vanishing_ok,
        normalization_ok=normalization_ok,
    )


# ======================================================================
# Cauchy and dual Cauchy expansions
# ======================================================================


def lambda_star(lam: Partition, m: int, n: int) -> Partition:
    """Complement of lam in the m x n rectangle, as a partition of length <= n.

    With lam' the conjugate padded to n parts, the complement reads
    (m - lam'_n, ..., m - lam'_1).
    """
    part = _as_partition(lam)
    if len(part) > m or part.part(0) > n:
        raise ValueError(f"partition {part.parts} does not fit in {m} x {n}")
    conj = part.conjugate().padded(n)
    return Partition(tuple(m - conj[n - 1 - i] for i in range(n)))


def dual_cauchy_check(m: int, n: int, ep: ExactParams) -> bool:
    """prod_{j,l} [z_j; w_l] against the signed double expansion, exactly.

    The right side pairs P_lambda(z | q,t) with the base-swapped
    P_(lambda*)(w | t,q) over all lambda inside the n^m box, with sign
    (-1)^(size of the complement).  Collisions propagate from
    :func:`koornwinder_poly`.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    mv = m + n
    lhs = LaurentPoly.one(mv)
    for j in range(m):
        for l in range(n):
            lhs = lhs * _bracket_two_vars(mv, j, m + l)
    swapped = ExactParams(
        sa=ep.sa, sb=ep.sb, sc=ep.sc, sd=ep.sd, sq=ep.st, st=ep.sq
    )
    rhs = LaurentPoly.zero(mv)
    for lam in partitions_in_box(m, n):
        star = lambda_star(lam, m, n)
        p_z = _embed(koornwinder_poly(lam, ep, m), mv, range(m))
        p_w = _embed(koornwinder_poly(star, swapped, n), mv, range(m, mv))
        rhs = rhs + p_z * p_w * Fraction(-1) ** star.size
    return lhs == rhs


def _qpoch_ratio_coeff(t: Fraction, q: Fraction, k: int) -> Fraction:
    """Coefficient of x^k in (t x; q)_infinity / (x; q)_infinity.

    The q-binomial theorem gives (t;q)_k / (q;q)_k.
    """
    num = Fraction(1)
    den = Fraction(1)
    for i in range(k):
        num *= 1 - t * q**i
        den *= 1 - q ** (i + 1)
    if not den:
        raise DegenerateParameterError("q is a root of unity in the series")
    return num / den


def _truncate_z_degree(f: LaurentPoly, m: int, cap: int) -> LaurentPoly:
    kept = {e: c for e, c in f.terms.items() if sum(e[:m]) <= 2 * cap}
    return LaurentPoly(f.m, kept)


def cauchy_series(m: int, n: int, q, t, degree_cap: int) -> LaurentPoly:
    """Exact truncation of prod_{j,l} (t z_j w_l; q)_inf / (z_j w_l; q)_inf.

    Terms of total z-degree above the cap are dropped; since every factor
    raises z-degree and w-degree together, the result is the full
    bidegree-(d, d) part of the product for every d <= degree_cap.
    """
    if m < 1 or n < 1 or degree_cap < 0:
        raise ValueError("need m, n >= 1 and a nonnegative cap")
    q = Fraction(q)
    t = Fraction(t)
    mv = m + n
    out = LaurentPoly.one(mv)
    for j in range(m):
        for l in range(n):
            factor: dict[tuple[int, ...], Fraction] = {}
            for k in range(degree_cap + 1):
                key = [0] * mv
                key[j] = 2 * k
                key[m + l] = 2 * k
                factor[tuple(key)] = _qpoch_ratio_coeff(t, q, k)
            out = _truncate_z_degree(out * LaurentPoly(mv, factor), m, degree_cap)
    return out


def cauchy_check_macdonald(m: int, n: int, q, t, degree_cap: int = 3) -> bool:
    """Coefficient identity of Cauchy type for Macdonald polynomials.

    Solves sum_lambda b_lambda P_lambda(z) P_lambda(w) against the exact
    series truncation, one scalar per partition (degree by degree,
    dominance descending), and requires the residual to vanish through
    the cap; a leftover term would mean no single per-partition scalar
    exists.
    """
    q = Fraction(q)
    t = Fraction(t)
    mv = m + n
    residual = cauchy_series(m, n, q, t, degree_cap)
    for d in range(degree_cap + 1):
        layer = sorted(
            partitions_of(d, min(m, n)), key=lambda p: p.parts, reverse=True
        )
        for lam in layer:
            probe = tuple(2 * e for e in lam.padded(m)) + tuple(
                2 * e for e in lam.padded(n)
            )
            b = residual.coefficient(probe)
            if b:
                p_z = _embed(macdonald_poly(lam, q, t, m), mv, range(m))
                p_w = _embed(macdonald_poly(lam, q, t, n), mv, range(m, mv))
                residual = residual - p_z * p_w * b
    return residual.is_zero()


# ======================================================================
# theorem-level equalities and serialization
# ======================================================================


def theorem_equality(kind, r: int, m: int, ep: ExactParams) -> bool:
    """Closed formula against the eigen-solve, as exact polynomial equality.

    Column: column_formula(r) == P_(1^r).  Row: row_formula(r) == P_(r).
    Collision and degeneracy errors propagate so callers can resample.
    """
    kd = _coerce(kind, TheoremKind)
    if kd is TheoremKind.COLUMN:
        if not 0 <= r <= m:
            raise ValueError(f"column length must satisfy 0 <= r <= {m}")
        return column_formula(r, ep, m) == koornwinder_poly(
            Partition((1,) * r), ep, m
        )
    if r < 0:
        raise ValueError("row length must be nonnegative")
    return row_formula(r, ep, m) == koornwinder_poly(Partition((r,)), ep, m)


def koornwinder_json(lam, ep: ExactParams, m: int) -> dict:
    """Laurent JSON of P_lambda plus eigenvalue and parameter metadata."""
    part = _as_partition(lam)
    poly = koornwinder_poly(part, ep, m)
    d = eigenvalue_d(part, ep, m)
    out = poly_to_json(poly)
    out["meta"] = {
        "lambda": list(part.parts),
        "m": m,
        "params": ep.as_dict(),
        "eigenvalue": {"num": str(d.numerator), "den": str(d.denominator)},
    }
    return out
