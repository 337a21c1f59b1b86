"""Koornwinder and Macdonald polynomials, computed exactly.

Eigen-solve route: the Koornwinder operator D maps the span of the
hyperoctahedral orbit sums m_mu, mu <= lambda (dominance), into itself,
triangularly with known diagonal entries d_mu.  So P_lambda, with unit
coefficient on m_lambda, is fixed by the eigen-equation (D - d_lambda) P = 0,
whose left side lies in the span of the k - 1 orbit sums below lambda (k
the size of the basis).  The solve evaluates that equation exactly at
k - 1 integer points, where the orbit sums and the operator, with rational
coefficients A_i^(+-) and shifts s_i -> sq^(+-1) s_i of the square-root
coordinates, take rational values.  Each coefficient comes as an integer
pair (numerator, positive denominator), and each row brings them and
-d_lambda over one positive common denominator, so the rows are integer
vectors built without Fraction arithmetic.  The orbit values at the
points do not depend on the parameters and are kept per basis across
solves, so a solve at new parameters builds only the weights.  The k - 1
unknown coefficients follow from one fraction-free solve (Bareiss 1968), as
primitive integers over one positive denominator, and P is expanded from
them once (:func:`diffkern.laurent.orbit_expansion`).  A k-th point
checks the eigen-equation exactly, so the solve never calls the symbolic
operator of :mod:`diffkern.operators`, which stays an independent oracle.
The Macdonald polynomials take the same route with the first Macdonald
operator.  No inner product is needed, and every coefficient stays an
exact rational on the doubled exponent lattice of :mod:`diffkern.laurent`.

Explicit route: the elementary family E_r(z;a|t) built from two-variable
brackets [z;w] = z + 1/z - w - 1/w, the row family H_l(z;a|q,t), the monic
Askey-Wilson polynomials, and the finite expansion formulas that tie these
to P_(1^r) and P_(l); E_r and H_l are both built by memoized recurrences.
The two routes are compared literally by :func:`theorem_equality`;
interpolation (vanishing-grid) properties and the Cauchy / dual Cauchy
expansions are checked as exact polynomial identities, in disjoint z and w
variables joined by :func:`diffkern.laurent.block_product`.

Parameters travel as :class:`~diffkern.laurent.ExactParams`: the square
roots sa..st are rational, so each constant the formulas call for (for
instance [ab], alpha = (abcd/q)^(1/2), or (qt)^(1/2)/a) is again rational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, takewhile
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .kernels import kern_psi_mult
from .laurent import (
    _POLY_CACHE_SIZE,
    ExactParams,
    LaurentPoly,
    Partition,
    bracket_pair_const,
    bracket_factorial_const,
    bracket_factorial_poly,
    bracket_za,
    bracket_zw,
    block_product,
    dominance_leq,
    orbit_expansion,
    partitions_in_box,
    partitions_of,
    poly_to_json,
    truncate_degree,
)

__all__ = [
    "AWBase",
    "CollisionError",
    "DegenerateParameterError",
    "InterpKind",
    "InterpReport",
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


@lru_cache(maxsize=_POLY_CACHE_SIZE)
def koorn_basis(lam: Partition, m: int) -> tuple[Partition, ...]:
    """Dominance-closed orbit basis for the triangular eigen-solve.

    Every partition mu <= lam that fits in m variables, with lam first; the
    listing order is a linear extension of dominance (whenever nu < mu, mu
    appears before nu).  ``lam.padded`` raises when lam does not fit.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    members = [
        mu for mu in partitions_in_box(m, lam.padded(m)[0]) if dominance_leq(mu, lam)
    ]
    # size descending, then parts in descending lex order: a linear extension
    # of dominance, since a strict dominance step forces a lex step
    members.sort(key=lambda mu: (mu.size, mu.parts), reverse=True)
    if members[0] != lam:
        raise TriangularSolveError(f"basis for {lam.parts} does not start at lambda")
    return tuple(members)


def _eigenvalue_pairs(
    parts: Sequence[Partition], ep: ExactParams, m: int
) -> list[tuple[int, int]]:
    """:func:`eigenvalue_d` of each partition as an integer pair (num, den),
    den nonzero but of either sign and not reduced.  alpha's pair and the
    powers of q and t are built once for all of ``parts``."""
    an, ad = ep.sq.denominator, ep.sq.numerator
    for root in (ep.sa, ep.sb, ep.sc, ep.sd):
        an *= root.numerator
        ad *= root.denominator
    qn, qd = ep.sq.numerator ** 2, ep.sq.denominator ** 2
    tn, td = ep.st.numerator ** 2, ep.st.denominator ** 2
    # y_i = bn/bd = alpha t^(m-1-i), with bn^2 + bd^2
    ys = []
    for i in range(m):
        bn, bd = an * tn ** (m - 1 - i), ad * td ** (m - 1 - i)
        ys.append((bn, bd, bn * bn + bd * bd))
    top = max((part.part(0) for part in parts), default=0)
    q_powers = [(qn**li, qd**li) for li in range(top + 1)]
    pairs = []
    for part in parts:
        num, den = 0, 1
        for (bn, bd, b_sum), li in zip(ys, part.padded(m)):
            if not li:
                continue
            # x = sn/sd = y q^li, so sn sd = bn bd qn^li qd^li and
            # x + 1/x - y - 1/y is term_num / (sn sd)
            qli, dli = q_powers[li]
            sn, sd = bn * qli, bd * dli
            term_num = sn * sn + sd * sd - b_sum * qli * dli
            term_den = sn * sd
            num, den = num * term_den + term_num * den, den * term_den
        pairs.append((num, den))
    return pairs


def eigenvalue_d(lam, ep: ExactParams, m: int) -> Fraction:
    """Koornwinder eigenvalue sum_i [alpha t^(m-i) q^(lam_i); alpha t^(m-i)].

    With alpha = (abcd/q)^(1/2) = sa sb sc sd / sq; the empty partition
    gives 0.  Each term is x + 1/x - y - 1/y for x = y q^(lam_i), summed
    on integer pairs; only the total becomes a Fraction.
    """
    return Fraction(*_eigenvalue_pairs([_as_partition(lam)], ep, m)[0])


def _macdonald_eigenvalue_pairs(
    parts: Sequence[Partition], q: Fraction, t: Fraction, m: int
) -> list[tuple[int, int]]:
    """:func:`macdonald_eigenvalue` of each partition as an integer pair
    (num, den > 0), not reduced; the powers of t are built once for all of
    ``parts``."""
    qn, qd = q.numerator, q.denominator
    tn, td = t.numerator, t.denominator
    t_powers = [tn ** (m - 1 - i) * td**i for i in range(m)]
    t_den = td ** max(m - 1, 0)
    pairs = []
    for part in parts:
        top = part.part(0)
        num = 0
        for tt, li in zip(t_powers, part.padded(m)):
            num += qn**li * qd ** (top - li) * tt
        pairs.append((num, qd**top * t_den))
    return pairs


def macdonald_eigenvalue(lam, q, t, m: int) -> Fraction:
    """Eigenvalue sum_i q^(lam_i) t^(m-i) of the first Macdonald operator,
    summed over the one positive denominator q_den^lam_1 t_den^(m-1)."""
    parts = [_as_partition(lam)]
    return Fraction(*_macdonald_eigenvalue_pairs(parts, Fraction(q), Fraction(t), m)[0])


# ======================================================================
# triangular eigen-solve
# ======================================================================

# Point streams drawn for one solve before it gives up.  A stream is
# abandoned only when the interpolation matrix of its points is singular or
# when more than half its points hit a pole of the operator; either is
# rare, so a solve that exhausts its streams points at a defect rather than
# at bad luck.
_POINT_DRAWS = 8


class _Pole(Exception):
    """Internal: an operator coefficient has a pole at a drawn point."""


def _point_stream(
    lam: Partition, m: int, count: int, attempt: int
) -> Iterator[tuple[int, ...]]:
    """Distinct sorted integer points 2 <= s_1 < ... < s_m, in random order.

    The coordinates are the square roots s_i = z_i^(1/2).  Orbit sums are
    invariant under permutations, so a point is a sorted set; drawing the
    sets at random keeps them in general position, where runs of
    neighbouring sets (which share coordinates) can make the orbit-sum
    matrix singular.  The stream is keyed by (lam, m, attempt) alone, so
    a solve is reproducible.  The coordinates run over 2 (m + count)
    integers, so at most half of the points contain any one of them and
    there are more than 2 count points to draw.
    """
    rng = random.Random(f"{lam.parts} {m} {attempt}")
    coords = range(2, 2 + 2 * (m + count))
    seen: set[tuple[int, ...]] = set()
    while True:
        point = tuple(sorted(rng.sample(coords, m)))
        if point not in seen:
            seen.add(point)
            yield point


def _laurent_table(n: int, d: int, top: int) -> tuple[list[int], int]:
    """Values of x^v + x^-v (1 at v = 0) for v = 0..top at x = n/d, all
    times the scale (n d)^top, with that scale."""
    nd = n * d
    scale = nd**top
    values = [scale]
    for v in range(1, top + 1):
        values.append((n ** (2 * v) + d ** (2 * v)) * nd ** (top - v))
    return values, scale


def _power_table(n: int, d: int, top: int) -> tuple[list[int], int]:
    """Values of x^v for v = 0..top at x = n/d, times the scale d^top."""
    return [n**v * d ** (top - v) for v in range(top + 1)], d**top


_Weight = tuple[int, int]
_Moves = tuple[_Weight, list[tuple[int, tuple[int, int], _Weight]]]


_KoornConstants = tuple[tuple[tuple[int, int], ...], _Weight, _Weight, int, int]


def _koorn_constants(ep: ExactParams, m: int) -> _KoornConstants:
    """The integers :func:`_koorn_moves` takes from (ep, m), built once per
    solve: the squares (num^2, den^2) of sa..sd, q^2 and t^2 as integer
    pairs, and the numerator and denominator of the constant factor of
    every weight."""
    roots = (ep.sa, ep.sb, ep.sc, ep.sd)
    qn, qd = ep.sq.numerator, ep.sq.denominator
    const_den = (ep.st.numerator * ep.st.denominator) ** (2 * (m - 1))
    for r in roots:
        const_den *= r.numerator * r.denominator
    return (
        tuple((r.numerator**2, r.denominator**2) for r in roots),
        (qn * qn, qd * qd),
        (ep.st.numerator**2, ep.st.denominator**2),
        qn * qd,
        const_den,
    )


def _koorn_moves(const: _KoornConstants, point: Sequence[int]) -> _Moves:
    """Koornwinder operator at a point: sum_i A_i^+ (T_i - 1) + A_i^- (T_i^-1 - 1).

    Returns the weight of the unshifted value and, for every shift, the
    variable it moves, the moved value z_i q^(+-1) as an integer pair and
    its weight A_i^(+-), with A_i^- (z) = A_i^+ (1/z) as in
    :func:`diffkern.operators.apply_koorn_mult`.  Every weight is an
    integer pair (num, den) with den > 0, not reduced; the unshifted
    weight comes over the lcm of the shift denominators.  ``const`` is
    :func:`_koorn_constants` of (ep, len(point)), which a solve builds once
    for all its points.

    A bracket [x] = x^(1/2) - x^(-1/2) whose square root is a ratio u/v of
    integers is (u^2 - v^2) / (u v).  In A_i^+ each u v is a product of
    the parameters' square roots and the point's coordinates s_j, and the
    s_j cancel between top and bottom, so a weight is the product of the
    integers u^2 - v^2, written in the squares z_j = s_j^2, times the
    constant sq_num sq_den / (sa_num sa_den ... sd_num sd_den
    (st_num st_den)^(2(m-1))).
    """
    squares, (q2n, q2d), (t2n, t2d), const_num, const_den = const
    zs = [s * s for s in point]
    # per variable, [num, den] of the up shift (z_i) and the down shift
    # (1/z_i); top: [a z_i] ... [d z_i]; bottom: [z_i^2] [q z_i^2]
    up, down = [], []
    for z in zs:
        up_num = down_num = const_num
        for an, ad in squares:
            up_num *= an * z - ad
            down_num *= an - ad * z
        zz = z * z
        up.append([up_num, const_den * (zz - 1) * (q2n * zz - q2d)])
        down.append([down_num, const_den * (1 - zz) * (q2n - q2d * zz)])
    # top: [t z_i z_j] [t z_i / z_j]; bottom: [z_i z_j] [z_i / z_j].  Both
    # shifts of z_i and of z_j share the bottom (z_i z_j - 1)(z_i - z_j) up
    # to sign, and the four tops are products of four brackets
    for i, zi in enumerate(zs):
        for j in range(i + 1, len(zs)):
            zj = zs[j]
            zz = zi * zj
            bottom = (zz - 1) * (zi - zj)
            t_zz, t_over = t2n * zz - t2d, t2n - t2d * zz
            t_ij, t_ji = t2n * zi - t2d * zj, t2n * zj - t2d * zi
            up[i][0] *= t_zz * t_ij
            up[i][1] *= bottom
            up[j][0] *= t_zz * t_ji
            up[j][1] *= -bottom
            down[i][0] *= t_over * t_ji
            down[i][1] *= bottom
            down[j][0] *= t_over * t_ij
            down[j][1] *= -bottom
    moves = []
    for weights, (shift_num, shift_den) in ((up, (q2n, q2d)), (down, (q2d, q2n))):
        for i, (num, den) in enumerate(weights):
            if not den:
                raise _Pole
            moved = (zs[i] * shift_num, shift_den)
            moves.append((i, moved, (-num, -den) if den < 0 else (num, den)))
    # the unshifted value's weight, minus the sum of the others
    common = lcm(*(den for _, _, (_, den) in moves))
    identity = -sum(num * (common // den) for _, _, (num, den) in moves)
    return (identity, common), moves


def _macdonald_moves(q: Fraction, t: Fraction, point: Sequence[int]) -> _Moves:
    """First Macdonald operator at a point: sum_i prod_(j != i)
    (t z_i - z_j) / (z_i - z_j) T_(q, z_i); same shape as :func:`_koorn_moves`."""
    z = [s * s for s in point]
    moves = []
    for i, zi in enumerate(z):
        num = den = 1
        for j, zj in enumerate(z):
            if j != i:
                num *= t.numerator * zi - t.denominator * zj
                den *= t.denominator * (zi - zj)
        weight = (-num, -den) if den < 0 else (num, den)
        moves.append((i, (zi * q.numerator, q.denominator), weight))
    return (0, 1), moves


def _splits(padded: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(v, rest) for each distinct entry v of a padded label: its orbit sum
    is sum_v phi_v(z_i) * (orbit sum of rest in the other variables)."""
    return [
        (v, padded[:at] + padded[at + 1 :])
        for at, v in enumerate(padded)
        if not at or padded[at - 1] != v
    ]


_SplitTable = dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]


def _split_table(labels: Iterable[tuple[int, ...]]) -> _SplitTable:
    """The :func:`_splits` of each padded label and of every shorter label
    its splits reach, shorter labels first, built once per basis."""
    table: _SplitTable = {}
    todo = list(labels)
    while todo:
        label = todo.pop()
        if label and label not in table:
            table[label] = _splits(label)
            todo.extend(rest for _, rest in table[label])
    return dict(sorted(table.items(), key=lambda item: len(item[0])))


def _orbit_values(
    tables: Sequence[Sequence[int]], splits: _SplitTable
) -> Callable[[tuple[int, ...]], int]:
    """Orbit sums over the variables of ``tables``: rho -> the sum over the
    distinct orderings pi of rho of prod_j tables[j][pi_j], for the empty
    label and every label of ``splits`` with at most len(tables) entries.
    ``splits`` lists shorter labels first, so every rest is valued before
    the labels that split into it."""
    n = len(tables)
    values: dict[tuple[int, ...], int] = {(): 1}
    for rho, rho_splits in splits.items():
        if len(rho) > n:
            break
        row = tables[n - len(rho)]
        got = 0
        for v, rest in rho_splits:
            got += row[v] * values[rest]
        values[rho] = got
    return values.__getitem__


_Table = Callable[[int, int, int], tuple[list[int], int]]
# per point: each variable's base scale, variable 0's base values, and per
# label the orbit values its row entry takes the dot product of with the
# mixture entries at the label's index
_PointValues = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


class _SolveFrame:
    """The parameter-free part of one basis's rows, kept per (padded
    labels, top, table) across parameters by :func:`_solve_frame`: the
    split table, per label the mixture entries of its splits, the points
    each stream has given so far and the values at each point a row was
    built at.  Streams and points fill in as solves reach them.  It takes
    no lock: solves of one basis in several threads at once may each
    extend a stream, which can change the points later solves meet but not
    the polynomial they return."""

    def __init__(self, labels: tuple[tuple[int, ...], ...], top: int, table: _Table):
        self.labels = labels
        self.top = top
        self.table = table
        self.splits = _split_table(labels)
        # per label, the mixture entry of each split (v, rest) along variable
        # i, at i (top + 1) + v, in the order of _point_values's values
        width = top + 1
        self.index = tuple(
            tuple(
                at + v
                for at in range(0, len(label) * width, width)
                for v, _ in self.splits[label]
            )
            for label in labels
        )
        self.streams: dict[int, list[tuple[int, ...]]] = {}
        self.points: dict[tuple[int, ...], _PointValues] = {}

    def stream(self, attempt: int) -> Iterator[tuple[int, ...]]:
        """:func:`_point_stream` of the basis, drawn only past the points
        kept so far."""
        head = self.labels[0]
        drawn = self.streams.setdefault(attempt, [])
        yield from drawn
        fresh = _point_stream(Partition(head), len(head), len(self.labels), attempt)
        for point in islice(fresh, len(drawn), None):
            drawn.append(point)
            yield point

    def _point_values(self, point: tuple[int, ...]) -> _PointValues:
        """Expand every orbit sum along each variable i in turn: m_label is
        sum_(v, rest) phi_v(z_i) * (orbit sum of rest over the other
        variables), so its values are those orbit sums, variable by variable
        and split by split.  Built the first time a row reaches the point."""
        got = self.points.get(point)
        if got is None:
            splits = self.splits
            base = [self.table(s * s, 1, self.top) for s in point]
            tables = [values for values, _ in base]
            others = [
                _orbit_values(tables[:i] + tables[i + 1 :], splits)
                for i in range(len(point))
            ]
            got = self.points[point] = (
                tuple(scale for _, scale in base),
                tuple(tables[0]),
                tuple(
                    tuple([other(r) for other in others for _, r in splits[label]])
                    for label in self.labels
                ),
            )
        return got

    def row(
        self,
        point: tuple[int, ...],
        moves: Callable[[Sequence[int]], _Moves],
        eig: Fraction,
    ) -> list[int]:
        """One integer row [((D - eig) m_nu)(point) ...], scaled by a positive
        factor and then divided by its content.

        Every value is expanded along one variable i: the shifts of i change
        only the one-variable factor, and the orbit sums over the other
        variables are shared, the point's values of the frame.  The operator
        weights, integer pairs with positive denominators, and -eig, folded
        into the weight of the unshifted value, go over one positive common
        denominator, so the row is built from integer products alone and its
        primitive form does not depend on which common denominator was taken.
        ``moves`` runs first, so a pole point keeps no values.
        """
        (id_num, id_den), moved = moves(point)
        scales, base, orbit = self._point_values(point)
        top, table = self.top, self.table
        width = top + 1
        # (offset, weight num, weight den, one-variable values), each weight
        # already carrying the ratio of the moved variable's scale to its base
        # scale; every den is positive
        eig_num, eig_den = eig.numerator, eig.denominator
        parts = [(0, id_num * eig_den - eig_num * id_den, id_den * eig_den, base)]
        for i, (n, d), (w_num, w_den) in moved:
            values, scale = table(n, d, top)
            parts.append((i * width, w_num * scales[i], w_den * scale, values))
        common = lcm(*(den for _, _, den, _ in parts))
        mixed = [0] * (len(point) * width)
        for at, num, den, values in parts:
            factor = num * (common // den)
            for v, value in enumerate(values, at):
                mixed[v] += factor * value
        entry = mixed.__getitem__
        row = [
            sum(map(mul, map(entry, index), values))
            for index, values in zip(self.index, orbit)
        ]
        content = gcd(*row) or 1
        return [e // content for e in row]


_solve_frame = lru_cache(maxsize=_POLY_CACHE_SIZE)(_SolveFrame)


def _bareiss_solve(rows: list[list[int]], n: int) -> tuple[int, list[int]] | None:
    """Solve A x = b for integer n x n A, given the rows [A | b].

    Fraction-free elimination (Bareiss 1968): every division is exact and
    every entry stays an integer minor of [A | b].  Returns (D, y) with
    D = +-det A and y = D A^-1 b, which is integral; None when A is
    singular.
    """
    a = [list(row) for row in rows]
    prev = 1
    for p in range(n):
        if not a[p][p]:
            swap = next((r for r in range(p + 1, n) if a[r][p]), None)
            if swap is None:
                return None
            a[p], a[swap] = a[swap], a[p]
        pivot_row = a[p]
        pivot = pivot_row[p]
        for r in range(p + 1, n):
            row = a[r]
            lead = row[p]
            for c in range(p + 1, n + 1):
                row[c] = (row[c] * pivot - lead * pivot_row[c]) // prev
            row[p] = 0
        prev = pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = prev * row[n] - sum(row[l] * y[l] for l in range(i + 1, n))
        y[i], rem = divmod(acc, row[i])
        if rem:
            raise TriangularSolveError("fraction-free back-substitution is inexact")
    return prev, y


class _OrbitCoefficients(NamedTuple):
    """P = sum_nu coeffs[nu] m_nu / den over the basis labels: the
    coefficients are primitive integers, den > 0, and coeffs[0] == den."""

    labels: tuple[Partition, ...]
    coeffs: tuple[int, ...]
    den: int


def _eigen_solve(
    basis: Sequence[Partition],
    m: int,
    table: _Table,
    moves: Callable[[Sequence[int]], _Moves],
    eig: Callable[[Sequence[Partition]], list[tuple[int, int]]],
    what: str,
) -> _OrbitCoefficients:
    """Unit-leading eigenfunction P = sum_nu c_nu m_nu of D, by interpolation.

    D maps the span of the dominance-closed basis into itself,
    triangularly with diagonal eig(nu), so with c_lam = 1 the image
    (D - d_lam) P lies in the span of the k - 1 orbit sums below lam.  It
    vanishes once it vanishes at k - 1 points where those orbit sums are
    independent, which is exactly where the (k - 1) x (k - 1) system for
    the c_nu is regular; equal eigenvalues d_nu = d_lam would make it
    singular everywhere, so they are reported first as a collision,
    found by comparing crosswise the integer pairs (num, den) that ``eig``
    gives for the whole basis at once.  A k-th point must satisfy the
    eigen-equation exactly, or :class:`TriangularSolveError` is raised.  A
    point where the operator has a pole is replaced by the next one of the
    stream, and a singular system starts a new stream.

    The back end works on integers in three steps:

    1. the operator weights at each point are integer pairs (num, den > 0)
       and each row is an integer vector, so only d_lam becomes a Fraction;
    2. the fraction-free solve gives det * c_nu as integers, returned as
       the orbit coefficients of P: primitive integers over one positive
       denominator, the head coefficient equal to it;
    3. the caller expands P once, with
       :func:`diffkern.laurent.orbit_expansion`.

    What depends only on the basis, m and the table is kept across solves
    in its :class:`_SolveFrame`, looked up once per solve.  The frames sit
    in one ``lru_cache`` of _POLY_CACHE_SIZE entries, the bound of the
    polynomial caches, so a sweep over parameters reuses one frame per
    basis and a sweep over bases keeps at most _POLY_CACHE_SIZE of them.
    Per solve, ``moves`` and ``eig`` take the parameters' constants once;
    per point, only the operator weights, the moved one-variable tables,
    their mixture and one integer dot product per label are built.
    """
    lam = basis[0]
    (lam_num, lam_den), *others = eig(basis)
    for mu, (mu_num, mu_den) in zip(basis[1:], others):
        if mu_num * lam_den == lam_num * mu_den:
            raise CollisionError(
                f"{what}: eigenvalue of {mu.parts} collides with {lam.parts} at "
                "the supplied parameters; perturb one square root "
                "(ExactParams.replace) and retry"
            )
    d_lam = Fraction(lam_num, lam_den)
    k = len(basis)
    top = lam.part(0)
    labels = tuple(mu.padded(m) for mu in basis)
    frame = _solve_frame(labels, top, table)
    for attempt in range(_POINT_DRAWS):
        # a point where a coefficient has a pole is replaced by the next
        # one; an attempt that meets more poles than it needs points fails
        rows = []
        for point in islice(frame.stream(attempt), 2 * k):
            try:
                rows.append(frame.row(point, moves, d_lam))
            except _Pole:
                continue
            if len(rows) == k:
                break
        if len(rows) < k:
            continue
        solved = _bareiss_solve([row[1:] + [-row[0]] for row in rows[:-1]], k - 1)
        if solved is None:
            continue
        det, y = solved
        check = rows[-1]
        if det * check[0] + sum(e * c for e, c in zip(check[1:], y)):
            raise TriangularSolveError(
                f"{what}: P_{lam.parts} fails the eigen-equation at the check "
                "point; the eigenvalue is wrong or the operator image is not "
                "in the span of the basis"
            )
        # c_nu = y_nu / det: over the positive denominator |det| / g
        g = gcd(det, *y)
        if det < 0:
            g = -g
        coeffs = (det // g, *(c // g for c in y))
        return _OrbitCoefficients(tuple(basis), coeffs, coeffs[0])
    raise TriangularSolveError(
        f"{what}: each of {_POINT_DRAWS} point streams for {lam.parts} in "
        f"{m} variables gave a singular interpolation matrix or more poles "
        "than points"
    )


def _macdonald_basis(lam: Partition, m: int) -> tuple[Partition, ...]:
    """The members of :func:`koorn_basis` of lam's size, which it lists first."""
    return tuple(takewhile(lambda mu: mu.size == lam.size, koorn_basis(lam, m)))


@lru_cache(maxsize=_POLY_CACHE_SIZE)
def _koornwinder_cached(lam: Partition, ep: ExactParams, m: int) -> LaurentPoly:
    solved = _eigen_solve(
        koorn_basis(lam, m),
        m,
        _laurent_table,
        partial(_koorn_moves, _koorn_constants(ep, m)),
        partial(_eigenvalue_pairs, ep=ep, m=m),
        "koornwinder",
    )
    return orbit_expansion(*solved, m)


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
    solved = _eigen_solve(
        _macdonald_basis(lam, m),
        m,
        _power_table,
        partial(_macdonald_moves, q, t),
        partial(_macdonald_eigenvalue_pairs, q=q, t=t, m=m),
        "macdonald",
    )
    return orbit_expansion(*solved, m, signed=False)


def macdonald_poly(lam, q, t, m: int) -> LaurentPoly:
    """Macdonald polynomial P_lambda(z | q,t) on the symmetric orbit basis."""
    return _macdonald_cached(_as_partition(lam), Fraction(q), Fraction(t), m)


# ----------------------------------------------------------------------
# collision-retry harness


def perturbed_params(ep: ExactParams, attempt: int) -> ExactParams:
    """One-square-root perturbation used by the retry harness.

    Cycles through the six roots and bumps the chosen one by a small
    rational that shrinks with the attempt number, always starting from
    the original parameters.
    """
    roots = fields(ep)
    name = roots[attempt % len(roots)].name
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
    if retries < 0:
        raise ValueError(f"retries must be nonnegative, got {retries}")
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


def _aw_top(ep: ExactParams, x: Fraction, first: Fraction) -> tuple[Fraction, ...]:
    """Square roots (x first, x ab, x ac, x ad) of the Askey-Wilson
    numerator entries, given x = base^(s/2) and first = base^(1/2)."""
    return (x * first, x * ep.sa * ep.sb, x * ep.sa * ep.sc, x * ep.sa * ep.sd)


def _factorial_ratio(
    top: Sequence[Fraction],
    bottom: Sequence[Fraction],
    sbase: Fraction,
    length: int,
    what: str,
) -> Fraction:
    """prod_{x in top} [x]_{base,length} / prod_{x in bottom} [x]_{base,length}.

    Entries are square roots, as :func:`bracket_factorial_const` takes
    them.  A vanishing denominator raises
    :class:`DegenerateParameterError` naming ``what``.
    """
    den = Fraction(1)
    for root in bottom:
        factor = bracket_factorial_const(root, sbase, length)
        if not factor:
            raise DegenerateParameterError(
                f"vanishing bracket factorial of length {length} in {what}; "
                "parameters are degenerate"
            )
        den *= factor
    num = Fraction(1)
    for root in top:
        num *= bracket_factorial_const(root, sbase, length)
    return num / den


def _aw_ratio(
    ep: ExactParams, sbase: Fraction, s: int, y: int, length: int, what: str
) -> Fraction:
    """[base^(s+1), base^s ab, base^s ac, base^s ad]_{base,length}
    / [base, abcd base^y]_{base,length} for sbase = base^(1/2), the one
    Askey-Wilson ratio of the explicit formulas; raises as
    :func:`_factorial_ratio` does."""
    sabcd = ep.sa * ep.sb * ep.sc * ep.sd
    bottom = (sbase, sabcd * sbase**y)
    return _factorial_ratio(_aw_top(ep, sbase**s, sbase), bottom, sbase, length, what)


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
    what = f"the degree-{r} expansion for base {_coerce(base, AWBase).value}"
    out = LaurentPoly.zero(1)
    for s in range(r + 1):
        coeff = _aw_ratio(ep, sbase, s, r + s - 1, r - s, what)
        if coeff:
            out = out + bracket_factorial_poly(ep.a, sbase**2, s) * coeff
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


def poly_H(l: int, ep: ExactParams, m: int) -> LaurentPoly:
    """Row family H_l(z; a | q,t) with q-stepped references.

    Defined by the sum over compositions (nu_1, ..., nu_m) of l of

        prod_j ([t]_{q,nu_j} / [q]_{q,nu_j})
          * prod_j [z_j; t^(j-1) q^(nu_1+...+nu_(j-1)) a]_{q,nu_j};

    built here, as :func:`poly_E` is, by a recurrence memoized on (j, need),
    the variable and the degree left: it sums over the next part k the
    terms c_k [z_j; t^(j-1) q^(l-need) a]_{q,k} times the rest, and the last
    variable takes k = need.  Each c_k = [t]_{q,k} / [q]_{q,k} is built
    once; [q]_{q,k} is a prefix of [q]_{q,l}, so one that vanishes raises.
    """
    if l < 0:
        raise ValueError("order must be nonnegative")
    if m < 1:
        # no variables: H_0 = 1 and every higher H_l is the empty sum
        return LaurentPoly.const(m, int(not l))
    a, q, t = ep.a, ep.q, ep.t
    ratios = [
        _factorial_ratio((ep.st,), (ep.sq,), ep.sq, k, "the [t]/[q] ratio of H_l")
        for k in range(l + 1)
    ]
    memo: dict[tuple[int, int], LaurentPoly] = {}

    def build(j: int, need: int) -> LaurentPoly:
        ref = t**j * q ** (l - need) * a
        if j == m - 1:
            return bracket_factorial_poly(ref, q, need, m, j) * ratios[need]
        key = (j, need)
        if key not in memo:
            total = LaurentPoly.zero(m)
            for k in range(need + 1):
                head = bracket_factorial_poly(ref, q, k, m, j) * ratios[k]
                total = total + head * build(j + 1, need - k)
            memo[key] = total
        return memo[key]

    return build(0, l)


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
    out = LaurentPoly.zero(m)
    for l in range(r + 1):
        coeff = _aw_ratio(ep, ep.st, m - r, 2 * (m - r), l, "the column expansion")
        if coeff:
            out = out + poly_E(r - l, ep, m) * coeff
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
    norm = _factorial_ratio((sq,), (st,), sq, r, "the row normalization [t]_(q,r)")
    front_roots = _aw_top(ep, st ** (m - 1), st)
    balancing_root = st ** (2 * (m - 1)) * sabcd * sq ** (r - 1)
    front = _factorial_ratio(
        front_roots, (sq, balancing_root), sq, r, "the row prefactor"
    )
    acc = LaurentPoly.zero(m)
    for l in range(r + 1):
        c = Fraction(-1) ** l * _factorial_ratio(
            (sq ** (-r), balancing_root), front_roots, sq, l, "the row expansion"
        )
        if c:
            acc = acc + poly_H(l, ep, m) * c
    return acc * (norm * front)


def connection_bracket_to_AW(l: int, ep: ExactParams, base="t") -> list[Fraction]:
    """Coefficients writing [w;a]_{base,l} over the monic p_r(w | base).

    Entry r multiplies p_r and already carries the alternating sign:

        (-1)^(l-r) [base^(r+1), base^r ab, base^r ac, base^r ad]_{base,l-r}
                   / [base, abcd base^(2r)]_{base,l-r}.
    """
    if l < 0:
        raise ValueError("length must be nonnegative")
    sbase = _sqrt_base(ep, base)
    coeffs: list[Fraction] = []
    for r in range(l + 1):
        ratio = _aw_ratio(ep, sbase, r, 2 * r, l - r, "the connection coefficients")
        coeffs.append(Fraction(-1) ** (l - r) * ratio)
    return coeffs


# ======================================================================
# exact expansion identities
# ======================================================================


def expansion_check_E(m: int, ep: ExactParams) -> bool:
    """prod_j [w; z_j] == sum_r (-1)^r E_r(z;a|t) [w;a]_{t,m-r}, exactly.

    This is the expansion that characterizes E_r and proves its
    W-invariance; both sides live in the (m+1)-variable ring with w last.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    # [w; z_j] = -[z_j; w], so the product is (-1)^m Psi(z; w)
    lhs = kern_psi_mult(m, 1) * (-1) ** m
    rhs = LaurentPoly.zero(m + 1)
    for r in range(m + 1):
        w_side = bracket_factorial_poly(ep.a, ep.t, m - r)
        rhs = rhs + block_product(poly_E(r, ep, m), w_side) * Fraction(-1) ** r
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
    lhs = LaurentPoly.one(m + 1)
    for j in range(m):
        for i in range(k):
            lhs = lhs * bracket_zw(m + 1, m, j, ep.sq ** (1 - k + 2 * i))
    a_twisted = ep.sqrt_qt_over_a()
    rhs = LaurentPoly.zero(m + 1)
    for l in range(k * m + 1):
        w_side = bracket_factorial_poly(a_twisted, ep.q, k * m - l)
        rhs = rhs + block_product(poly_H(l, ep, m), w_side)
    return lhs == rhs


# ======================================================================
# interpolation properties
# ======================================================================


def _grid_sqrt_point(
    mu: Partition, ep: ExactParams, m: int
) -> tuple[Fraction, ...]:
    """Square roots of the interpolation point z_i = q^(mu_i) t^(m-i) a."""
    return tuple(
        ep.sq ** mu.part(i) * ep.st ** (m - 1 - i) * ep.sa for i in range(m)
    )


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
    running over all partitions inside the (3^m) box.  Each polynomial must
    vanish wherever the diagram of mu misses its corner partition, and take
    a known value at the corner: E_r has the corner (1^r) (it vanishes where
    len(mu) < r) and the value (-1)^r [t^(m-r)a; q t^(m-r)a]_{t,r}; H_l has
    the corner (l) (it vanishes where mu_1 < l) and the value
    [t]_{q,l} [q^l t^(2(m-1)) a^2]_{q,l}.
    """
    kd = _coerce(kind, InterpKind)
    if m < 1:
        raise ValueError("need at least one variable")
    if kd is InterpKind.COLUMN_E:
        orders = tuple(range(m + 1))
        build = poly_E

        def corner(r: int) -> tuple[Partition, Fraction]:
            # [x; q x]_{t,r} = prod_j [x; t^j q x] at x = t^(m-r) a
            sx = ep.st ** (m - r) * ep.sa
            pairs = (bracket_pair_const(sx, ep.st**j * ep.sq * sx) for j in range(r))
            return Partition((1,) * r), Fraction(-1) ** r * prod(pairs)

    else:
        orders = tuple(range(4))
        build = poly_H

        def corner(l: int) -> tuple[Partition, Fraction]:
            sx = ep.sq**l * ep.st ** (2 * (m - 1)) * ep.sa**2
            value = bracket_factorial_const(sx, ep.sq, l)
            return Partition((l,)), bracket_factorial_const(ep.st, ep.sq, l) * value

    grid = partitions_in_box(m, 3)
    checked = 0
    vanishing_ok = True
    normalization_ok = True
    for r in orders:
        poly = build(r, ep, m)
        top, value = corner(r)
        for mu in grid:
            if not mu.contains(top):
                checked += 1
                if poly.eval_exact(_grid_sqrt_point(mu, ep, m)):
                    vanishing_ok = False
        if poly.eval_exact(_grid_sqrt_point(top, ep, m)) != value:
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
    lhs = kern_psi_mult(m, n)
    swapped = ep.replace(sq=ep.st, st=ep.sq)
    rhs = LaurentPoly.zero(m + n)
    for lam in partitions_in_box(m, n):
        star = lambda_star(lam, m, n)
        pair = block_product(
            koornwinder_poly(lam, ep, m), koornwinder_poly(star, swapped, n)
        )
        rhs = rhs + pair * Fraction(-1) ** star.size
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
            out = truncate_degree(out * LaurentPoly(mv, factor), m, degree_cap)
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
                pair = block_product(
                    macdonald_poly(lam, q, t, m), macdonald_poly(lam, q, t, n)
                )
                residual = residual - pair * b
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
        return column_formula(r, ep, m) == koornwinder_poly(
            Partition((1,) * r), ep, m
        )
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
