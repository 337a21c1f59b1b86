"""Tests for exact Koornwinder and Macdonald polynomials."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial

import pytest

import diffkern.koornwinder as kw
from diffkern.koornwinder import (
    CollisionError,
    DegenerateParameterError,
    InterpKind,
    TriangularSolveError,
    askey_wilson_p,
    cauchy_check_macdonald,
    cauchy_series,
    column_formula,
    compute_with_resampling,
    connection_bracket_to_AW,
    dual_cauchy_check,
    eigenvalue_d,
    expansion_check_E,
    expansion_check_H,
    interpolation_checks,
    koorn_basis,
    koornwinder_json,
    koornwinder_poly,
    lambda_star,
    macdonald_eigenvalue,
    macdonald_poly,
    poly_E,
    poly_H,
    row_formula,
    theorem_equality,
)
from diffkern.laurent import (
    ExactParams,
    LaurentPoly,
    Partition,
    bracket_factorial_const,
    bracket_factorial_poly,
    bracket_za,
    dominance_leq,
    is_W_invariant,
    orbit_sum,
    partitions_in_box,
    partitions_of,
    poly_dumps,
    sym_orbit_sum,
)
from diffkern.kernels import kern_psi_mult, phi_minus_k
from diffkern.operators import apply_koorn_mult, apply_macdonald_mult

EP = ExactParams.default()

# second square-rational parameter set, generic for every identity below
EP_ALT = ExactParams(
    sa=Fraction(3, 5),
    sb=Fraction(5, 8),
    sc=Fraction(4, 3),
    sd=Fraction(6, 7),
    sq=Fraction(1, 3),
    st=Fraction(3, 7),
)

# square roots of (a,b,c,d,q,t) = (1/4, 1/9, 4, 9/4, 1/4, 4/9)
EP_SPECIAL = ExactParams(
    sa=Fraction(1, 2),
    sb=Fraction(1, 3),
    sc=Fraction(2),
    sd=Fraction(3, 2),
    sq=Fraction(1, 2),
    st=Fraction(2, 3),
)


def bruteforce_E(r, ep, m):
    """Nested-index definition: sum over i_1 < ... < i_r of the brackets."""
    import itertools

    a, t = ep.a, ep.t
    out = LaurentPoly.zero(m)
    for chosen in itertools.combinations(range(1, m + 1), r):
        piece = LaurentPoly.one(m)
        for k, ik in enumerate(chosen, start=1):
            piece = piece * bracket_za(m, ik - 1, t ** (ik - k) * a)
        out = out + piece
    return out


def bruteforce_H(l, ep, m):
    """Composition-sum definition: each composition (nu_1, ..., nu_m) of l
    contributes prod_j [t]_{q,nu_j} / [q]_{q,nu_j}
    * [z_j; t^(j-1) q^(nu_1+...+nu_(j-1)) a]_{q,nu_j}."""
    out = LaurentPoly.zero(m)
    for nu in itertools.product(range(l + 1), repeat=m):
        if sum(nu) != l:
            continue
        piece = LaurentPoly.one(m)
        for j, part in enumerate(nu):
            coeff = bracket_factorial_const(ep.st, ep.sq, part) / bracket_factorial_const(
                ep.sq, ep.sq, part
            )
            ref = ep.t**j * ep.q ** sum(nu[:j]) * ep.a
            piece = piece * bracket_factorial_poly(ref, ep.q, part, m, j) * coeff
        out = out + piece
    return out


def h_by_last_variable_split(l, ep, m):
    """Split off z_m: the tail contributes a single bracket factorial."""
    if m == 1:
        return poly_H(l, ep, 1)
    q, t = ep.q, ep.t
    out = LaurentPoly.zero(m)
    for r in range(l + 1):
        coeff = bracket_factorial_const(ep.st, ep.sq, l - r) / bracket_factorial_const(
            ep.sq, ep.sq, l - r
        )
        if not coeff:
            continue
        tail = LaurentPoly.one(m)
        ref = t ** (m - 1) * q**r * ep.a
        for i in range(l - r):
            tail = tail * bracket_za(m, m - 1, ref * q**i)
        head = poly_H(r, ep, m - 1)
        lifted = {exp + (0,): c for exp, c in head.terms.items()}
        out = out + LaurentPoly(m, lifted) * tail * coeff
    return out


# ======================================================================
# basis and eigenvalues
# ======================================================================


def test_basis_lists_lam_first_and_dominance_closed():
    basis = koorn_basis(Partition((2, 1)), 2)
    assert basis[0] == Partition((2, 1))
    for mu in basis:
        assert dominance_leq(mu, Partition((2, 1)))
    assert Partition((1, 1)) in basis
    assert Partition(()) in basis


def test_basis_order_is_linear_extension_of_dominance():
    mus = koorn_basis(Partition((3, 2, 1)), 3)
    for i, earlier in enumerate(mus):
        for later in mus[i + 1 :]:
            # nothing listed later may strictly dominate an earlier entry
            assert not (dominance_leq(earlier, later) and earlier != later)


def test_basis_rejects_too_long_partition():
    with pytest.raises(ValueError):
        koorn_basis(Partition((1, 1, 1)), 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_macdonald_basis_is_the_dominated_partitions_of_lams_size(m):
    for lam in partitions_in_box(m, 4):
        brute = sorted(
            (mu for mu in partitions_of(lam.size, m) if dominance_leq(mu, lam)),
            key=lambda mu: mu.parts,
            reverse=True,
        )
        assert kw._macdonald_basis(lam, m) == tuple(brute), lam.parts


def test_macdonald_poly_needs_a_variable():
    with pytest.raises(ValueError, match="need at least one variable"):
        macdonald_poly((), Fraction(1, 3), Fraction(2, 7), 0)
    with pytest.raises(ValueError, match=r"\(1, 1, 1\) does not fit in 2 variables"):
        macdonald_poly((1, 1, 1), Fraction(1, 3), Fraction(2, 7), 2)


def test_eigenvalue_of_empty_partition_is_zero():
    for m in (1, 2, 3):
        assert eigenvalue_d((), EP, m) == 0


def test_eigenvalue_single_box_closed_form():
    alpha, q = EP.alpha, EP.q
    want = alpha * q + 1 / (alpha * q) - alpha - 1 / alpha
    assert eigenvalue_d((1,), EP, 1) == want


def test_eigenvalue_frozen_value():
    # alpha = 1 at these parameters, so d = [t q^2; t] + [q; 1] = 427/12
    assert eigenvalue_d((2, 1), EP_SPECIAL, 2) == Fraction(427, 12)


def test_macdonald_eigenvalue_formula():
    q, t = Fraction(1, 4), Fraction(4, 9)
    assert macdonald_eigenvalue((2, 1), q, t, 3) == q**2 * t**2 + q * t + 1


# ======================================================================
# Koornwinder polynomials through the eigen-solve
# ======================================================================


def test_empty_partition_gives_one():
    assert koornwinder_poly((), EP, 2) == LaurentPoly.one(2)


def test_unit_coefficient_on_dominant_orbit():
    P = koornwinder_poly((2, 1), EP, 2)
    assert P.coefficient((4, 2)) == 1


def test_koornwinder_is_W_invariant():
    for lam, m in (((1,), 2), ((2, 1), 2), ((1, 1, 1), 3)):
        assert is_W_invariant(koornwinder_poly(lam, EP, m)), lam


@pytest.mark.parametrize(
    "lam,m", [((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 1), 2), ((2, 2), 2)]
)
def test_eigen_equation_holds_exactly(lam, m):
    P = koornwinder_poly(lam, EP, m)
    d = eigenvalue_d(lam, EP, m)
    assert apply_koorn_mult(EP, P, m) == P * d


def test_eigen_equation_at_alternate_parameters():
    P = koornwinder_poly((2, 1), EP_ALT, 2)
    d = eigenvalue_d((2, 1), EP_ALT, 2)
    assert apply_koorn_mult(EP_ALT, P, 2) == P * d


@pytest.mark.parametrize("lam,m", [((3,), 1), ((1, 1, 1), 3)])
def test_eigen_equation_holds_at_alternate_parameters(lam, m):
    # the independent oracle: the symbolic operator applied to P
    P = koornwinder_poly(lam, EP_ALT, m)
    assert apply_koorn_mult(EP_ALT, P, m) == P * eigenvalue_d(lam, EP_ALT, m)


def test_wrong_eigenvalue_raises_typed_error(monkeypatch):
    # the guard must survive python -O, so it cannot be an assert
    real = kw._eigenvalue_pairs

    def plus_one(parts, ep, m):
        return [(num + den, den) for num, den in real(parts, ep, m)]

    monkeypatch.setattr(kw, "_eigenvalue_pairs", plus_one)
    # parameters used nowhere else, so no cached polynomial is hit
    fresh = EP_ALT.replace(sa=Fraction(11, 13))
    with pytest.raises(TriangularSolveError, match="check point"):
        koornwinder_poly((2, 1), fresh, 2)


def test_corrupted_operator_weight_fails_the_check_point(monkeypatch):
    # a wrong weight makes the image leave the span of the basis
    real = kw._koorn_moves

    def moves(const, point):
        identity, moved = real(const, point)
        (i, shift, (num, den)), *rest = moved
        return identity, [(i, shift, (num * 1001, den * 1000)), *rest]

    monkeypatch.setattr(kw, "_koorn_moves", moves)
    with pytest.raises(TriangularSolveError, match="check point"):
        kw._koornwinder_cached.__wrapped__(Partition((2, 1)), EP, 2)


# ----------------------------------------------------------------------
# the interpolation solve


@pytest.fixture
def fresh_frames():
    """Clear the solve frames before and after the test: a warm frame
    keeps the values of the points it has met, and values built under a
    patch must not reach later solves."""
    kw._solve_frame.cache_clear()
    yield
    kw._solve_frame.cache_clear()


def _assert_rows_match_the_operator(basis, m, table, moves, eig, image):
    """Each interpolation row is a positive multiple of the values of
    (D - eig) m_mu at its point, with D the symbolic operator ``image``."""
    labels = tuple(mu.padded(m) for mu in basis)
    frame = kw._SolveFrame(labels, basis[0].part(0), table)
    images = [image(mu) for mu in basis]
    checked = 0
    for point in _solve_points(basis, m):
        try:
            row = frame.row(point, moves, eig)
        except kw._Pole:
            continue
        exact = [f.eval_exact(point) for f in images]
        # a one-label basis is the eigenfunction itself: its row vanishes
        scale = next((Fraction(r, e) for r, e in zip(row, exact) if e), 1)
        assert scale > 0, point
        assert row == [scale * e for e in exact], point
        checked += 1
    assert checked >= len(basis)


@pytest.mark.parametrize("lam,m", [((3,), 1), ((2, 1), 2), ((1, 1, 1), 3)])
def test_interpolated_columns_match_the_operator(lam, m):
    # the independent oracle: the operator applied to each orbit sum
    basis = koorn_basis(Partition(lam), m)
    d = eigenvalue_d(lam, EP_ALT, m)
    _assert_rows_match_the_operator(
        basis,
        m,
        kw._laurent_table,
        partial(kw._koorn_moves, kw._koorn_constants(EP_ALT, m)),
        d,
        lambda mu: apply_koorn_mult(EP_ALT, orbit_sum(mu, m), m)
        - orbit_sum(mu, m) * d,
    )


def test_interpolated_macdonald_columns_match_the_operator():
    q, t = Fraction(1, 3), Fraction(2, 7)
    for lam in ((2, 1, 1), (2, 1)):
        d = macdonald_eigenvalue(lam, q, t, 3)
        _assert_rows_match_the_operator(
            kw._macdonald_basis(Partition(lam), 3),
            3,
            kw._power_table,
            partial(kw._macdonald_moves, q, t),
            d,
            lambda mu, d=d: apply_macdonald_mult(q, t, 1, sym_orbit_sum(mu, 3), 3)
            - sym_orbit_sum(mu, 3) * d,
        )


# ----------------------------------------------------------------------
# the integer weights, rows and eigenvalues against Fraction references


def reference_bracket_ratio(top, bottom):
    """prod [x] over ``top`` over prod [x] over ``bottom`` as a Fraction,
    each bracket given by its square root as an integer pair (u, v)."""
    out = Fraction(1)
    for u, v in top:
        out *= Fraction(u * u - v * v, u * v)
    for u, v in bottom:
        if u * u == v * v:
            raise kw._Pole
        out /= Fraction(u * u - v * v, u * v)
    return out


def reference_koorn_moves(ep, point):
    """The Koornwinder operator's weights at a point, in Fraction."""
    roots = [(r.numerator, r.denominator) for r in (ep.sa, ep.sb, ep.sc, ep.sd)]
    qn, qd = ep.sq.numerator, ep.sq.denominator
    tn, td = ep.st.numerator, ep.st.denominator
    moves = []
    for up in (True, False):
        coords = [(s, 1) if up else (1, s) for s in point]
        for i, (u, v) in enumerate(coords):
            top = [(rn * u, rd * v) for rn, rd in roots]
            bottom = [(u * u, v * v), (qn * u * u, qd * v * v)]
            for j, (x, y) in enumerate(coords):
                if j != i:
                    top += [(tn * u * x, td * v * y), (tn * u * y, td * v * x)]
                    bottom += [(u * x, v * y), (u * y, v * x)]
            z = point[i] ** 2
            moved = (z * qn * qn, qd * qd) if up else (z * qd * qd, qn * qn)
            moves.append((i, moved, reference_bracket_ratio(top, bottom)))
    return -sum(w for _, _, w in moves), moves


def reference_macdonald_moves(q, t, point):
    """The first Macdonald operator's weights at a point, in Fraction."""
    z = [s * s for s in point]
    moves = []
    for i, zi in enumerate(z):
        weight = Fraction(1)
        for j, zj in enumerate(z):
            if j != i:
                weight *= (t * zi - zj) / (zi - zj)
        moves.append((i, (zi * q.numerator, q.denominator), weight))
    return Fraction(0), moves


def reference_interpolation_row(labels, splits, point, top, table, moves, eig):
    """The interpolation row with Fraction weights: each entry the exact
    value of (D - eig) m_nu at the point times the product of the base
    scales, then the row divided by the lcm of the entries' denominators
    and by its content."""
    identity, moved = moves(point)
    base = [table(s * s, 1, top) for s in point]
    parts = [[] for _ in point]
    parts[0].append((identity - eig, base[0][0]))
    for i, (n, d), weight in moved:
        values, scale = table(n, d, top)
        parts[i].append((weight * base[i][1] / scale, values))
    mixed = [
        [sum(w * values[v] for w, values in part) for v in range(top + 1)]
        for part in parts
    ]
    tables = [values for values, _ in base]
    others = [
        kw._orbit_values(tables[:i] + tables[i + 1 :], splits)
        for i in range(len(point))
    ]
    row = [
        sum(
            mix[v] * other(rest)
            for mix, other in zip(mixed, others)
            for v, rest in splits[label]
        )
        for label in labels
    ]
    common = math.lcm(*(e.denominator for e in row))
    ints = [int(e * common) for e in row]
    content = math.gcd(*ints) or 1
    return [e // content for e in ints]


def reference_eigenvalue_d(lam, ep, m):
    total = Fraction(0)
    for i, li in enumerate(Partition(lam).padded(m)):
        base = ep.alpha * ep.t ** (m - 1 - i)
        shifted = base * ep.q**li
        total += shifted + 1 / shifted - base - 1 / base
    return total


def reference_macdonald_eigenvalue(lam, q, t, m):
    total = Fraction(0)
    for i, li in enumerate(Partition(lam).padded(m)):
        total += Fraction(q) ** li * Fraction(t) ** (m - 1 - i)
    return total


EP_NEG = EP.replace(sa=-EP.sa, sq=-EP.sq)
EP_NEG_ALT = EP_ALT.replace(sq=Fraction(-1, 3), sd=Fraction(-6, 7))
# negative square roots make some bracket denominators negative
ORACLE_PARAMS = {"EP": EP, "EP_ALT": EP_ALT, "NEG": EP_NEG, "NEG_ALT": EP_NEG_ALT}

# per m, the Koornwinder and the Macdonald label whose basis points the
# oracle tests evaluate
_ORACLE_LABELS = {
    1: ((3,), (2,)),
    2: ((2, 2), (3, 1)),
    3: ((2, 2, 1), (3, 1)),
    4: ((2, 1, 1, 1), (2, 2)),
}


def _solve_points(basis, m):
    """The label points of ``basis`` at the offsets 0 and 1."""
    for offset in range(2):
        for mu in basis:
            yield kw._label_point(mu.padded(m), offset)


def _outcome_or_pole(call, *args):
    try:
        return call(*args)
    except kw._Pole:
        return "pole"


def _assert_weights_match(got, want):
    """Integer-pair moves equal the Fraction moves, every den positive."""
    if want == "pole":
        assert got == "pole"
        return
    (id_num, id_den), moved = got
    identity, ref_moved = want
    assert id_den > 0 and Fraction(id_num, id_den) == identity
    assert len(moved) == len(ref_moved)
    for (i, shift, (num, den)), (ref_i, ref_shift, weight) in zip(moved, ref_moved):
        assert (i, shift) == (ref_i, ref_shift)
        assert den > 0 and Fraction(num, den) == weight


@pytest.mark.parametrize("name", sorted(ORACLE_PARAMS))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_integer_weights_and_rows_match_the_fraction_reference(name, m):
    ep = ORACLE_PARAMS[name]
    koorn_lam, mac_lam = _ORACLE_LABELS[m]
    q, t = ep.q, ep.t
    cases = [
        (
            koorn_basis(Partition(koorn_lam), m),
            kw._laurent_table,
            partial(kw._koorn_moves, kw._koorn_constants(ep, m)),
            partial(reference_koorn_moves, ep),
            partial(eigenvalue_d, ep=ep, m=m),
        ),
        (
            kw._macdonald_basis(Partition(mac_lam), m),
            kw._power_table,
            partial(kw._macdonald_moves, q, t),
            partial(reference_macdonald_moves, q, t),
            lambda mu: macdonald_eigenvalue(mu, q, t, m),
        ),
    ]
    rows = 0
    for basis, table, moves, ref_moves, eig in cases:
        labels = tuple(mu.padded(m) for mu in basis)
        splits = kw._split_table(labels)
        top = basis[0].part(0)
        frame = kw._SolveFrame(labels, top, table)
        d = eig(basis[0])
        for point in _solve_points(basis, m):
            _assert_weights_match(
                _outcome_or_pole(moves, point), _outcome_or_pole(ref_moves, point)
            )
            got = _outcome_or_pole(frame.row, point, moves, d)
            args = (labels, splits, point, top, table, ref_moves, d)
            want = _outcome_or_pole(reference_interpolation_row, *args)
            assert got == want, point
            rows += got != "pole"
    assert rows >= 2 * len(cases)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_split_table_holds_the_splits_of_every_label_it_reaches(m):
    labels = [mu.padded(m) for mu in partitions_in_box(m, 3)]
    table = kw._split_table(labels)
    rests = {rest for splits in table.values() for _, rest in splits}
    assert set(labels) <= set(table)
    assert set(table) == (set(labels) | rests) - {()}
    for label, splits in table.items():
        assert splits == kw._splits(label), label


def test_eigenvalues_match_the_fraction_reference():
    rng = random.Random(20261019)
    for _ in range(240):
        roots = [
            Fraction(rng.randint(1, 13), rng.randint(1, 13)) * rng.choice((1, -1))
            for _ in range(6)
        ]
        ep = ExactParams(*roots)
        m = rng.randint(1, 4)
        labels = [Partition(())] + rng.sample(partitions_in_box(m, 3), 3)
        for lam in labels:
            got = eigenvalue_d(lam, ep, m)
            assert isinstance(got, Fraction)
            assert got == reference_eigenvalue_d(lam, ep, m), (ep, lam, m)
            for q, t in ((ep.q, ep.t), (ep.sq, ep.st)):
                got = macdonald_eigenvalue(lam, q, t, m)
                assert isinstance(got, Fraction)
                want = reference_macdonald_eigenvalue(lam, q, t, m)
                assert got == want, (q, t, lam, m)


def _recorded_points(monkeypatch):
    """Log every point a solve evaluates, with whether it hit a pole."""
    log = []
    real = kw._SolveFrame.row

    def row(frame, point, *rest):
        try:
            out = real(frame, point, *rest)
        except kw._Pole:
            log.append((point, "pole"))
            raise
        log.append((point, "ok"))
        return out

    monkeypatch.setattr(kw._SolveFrame, "row", row)
    return log


def test_pole_point_is_replaced_deterministically(monkeypatch, fresh_frames):
    # sq = 1/4 puts a pole of [q z^2] at s = 2, which every label ending in
    # 0 meets at offset 0: the solve moves on to offset 1
    ep = EP.replace(sq=Fraction(1, 4))
    lam = Partition((1, 1))
    labels = tuple(mu.padded(2) for mu in koorn_basis(lam, 2))
    log = _recorded_points(monkeypatch)
    # the first solve builds the frame, the second replays it
    first = kw._koornwinder_cached.__wrapped__(lam, ep, 2)
    runs = [list(log)]
    log.clear()
    assert kw._koornwinder_cached.__wrapped__(lam, ep, 2) == first
    runs.append(list(log))
    assert runs[0] == runs[1]
    poles = [p for p, what in runs[0] if what == "pole"]
    assert poles and all(2 in p for p in poles)
    # offset 1: the lower labels, then lam's own point (1, 1) + (1, 0) + 2 + 1
    ok = [p for p, what in runs[0] if what == "ok"]
    assert ok == [kw._label_point(label, 1) for label in labels[1:] + labels[:1]]
    assert ok[-1] == (5, 4)
    # a pole point gets no point frame
    frame = kw._solve_frame(labels, 1, kw._laurent_table)
    assert set(frame.points) == set(ok)
    assert apply_koorn_mult(ep, first, 2) == first * eigenvalue_d(lam, ep, 2)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_every_basis_in_the_box_is_regular_at_its_label_points(m, n):
    # the regularity the solve relies on, for both operators over a box;
    # any singular system would raise TriangularSolveError
    q, t = EP.q, EP.t
    for lam in partitions_in_box(m, n):
        for basis, table, moves, eig in (
            (
                koorn_basis(lam, m),
                kw._laurent_table,
                partial(kw._koorn_moves, kw._koorn_constants(EP, m)),
                partial(kw._eigenvalue_pairs, ep=EP, m=m),
            ),
            (
                kw._macdonald_basis(lam, m),
                kw._power_table,
                partial(kw._macdonald_moves, q, t),
                partial(kw._macdonald_eigenvalue_pairs, q=q, t=t, m=m),
            ),
        ):
            solved = kw._eigen_solve(basis, m, table, moves, eig, "box")
            assert solved.den > 0


@pytest.mark.parametrize("cause", ["singular", "poles"])
def test_unsolvable_points_raise_typed_error(monkeypatch, fresh_frames, cause):
    # the give-up must survive python -O, so it cannot be an assert
    lam = Partition((2, 1))
    if cause == "singular":
        # one point for every label: equal rows, so the system is singular
        monkeypatch.setattr(kw, "_label_point", lambda label, offset: (5, 3))
        match = r"basis \[\(2, 1\), .*\] at the points \[\(5, 3\), .* is singular"
        moves = partial(kw._koorn_moves, kw._koorn_constants(EP, 2))
    else:
        met = []

        def moves(point):
            met.append(point)
            raise kw._Pole

        match = r"every offset 0\.\.4 puts a pole"
    with pytest.raises(TriangularSolveError, match=match):
        kw._eigen_solve(
            koorn_basis(lam, 2),
            2,
            kw._laurent_table,
            moves,
            partial(kw._eigenvalue_pairs, ep=EP, m=2),
            "koornwinder",
        )
    if cause == "poles":
        # lam_1 + m + 1 offsets, each given up at its first point
        first = koorn_basis(lam, 2)[1].padded(2)
        assert met == [kw._label_point(first, o) for o in range(5)]


def test_singular_interpolation_matrix_raises_without_a_retry(
    monkeypatch, fresh_frames
):
    # only a pole moves the solve to the next offset: a singular system
    # met through the cached entry raises at once, after the k points of
    # offset 0
    offsets = []

    def label_point(label, offset):
        offsets.append(offset)
        return (5, 3)  # one point for every label: equal rows

    monkeypatch.setattr(kw, "_label_point", label_point)
    with pytest.raises(TriangularSolveError, match="is singular"):
        kw._koornwinder_cached.__wrapped__(Partition((2, 1)), EP, 2)
    assert offsets == [0] * len(koorn_basis(Partition((2, 1)), 2))


def test_missing_basis_label_fails_the_check_point():
    # without the constant orbit the solve points fit a wrong polynomial,
    # which the check point exposes
    basis = koorn_basis(Partition((2,)), 1)
    assert basis[-1] == Partition(())
    with pytest.raises(TriangularSolveError, match="check point"):
        kw._eigen_solve(
            basis[:-1],
            1,
            kw._laurent_table,
            partial(kw._koorn_moves, kw._koorn_constants(EP, 1)),
            partial(kw._eigenvalue_pairs, ep=EP, m=1),
            "koornwinder",
        )


def _recorded_rows(monkeypatch):
    """Log the arguments and the result of every row a solve builds."""
    log = []
    real = kw._SolveFrame.row

    def row(*args):
        out = real(*args)
        log.append((args, out))
        return out

    monkeypatch.setattr(kw._SolveFrame, "row", row)
    return log


def _assert_cold_and_warm_solves_agree(solve, ref_moves, log):
    """Solve with the frames cleared, then again with them warm: the same
    polynomial, and every row equal to the Fraction reference."""
    kw._solve_frame.cache_clear()
    runs = []
    for _ in range(2):
        log.clear()
        poly = solve()
        for (frame, point, _moves, eig), out in log:
            args = (frame.labels, frame.splits, point, frame.top, frame.table)
            assert out == reference_interpolation_row(*args, ref_moves, eig), point
        runs.append((poly_dumps(poly), [out for _, out in log]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["EP", "NEG"])
def test_cold_and_warm_frames_give_the_same_solves(monkeypatch, fresh_frames, name):
    ep = ORACLE_PARAMS[name]
    q, t = ep.sq, ep.st
    cases = [(lam, m) for m in (1, 2, 3) for lam in partitions_in_box(m, 3)]
    cases.append((Partition((2, 1, 1, 1)), 4))
    log = _recorded_rows(monkeypatch)
    for lam, m in cases:
        _assert_cold_and_warm_solves_agree(
            partial(kw._koornwinder_cached.__wrapped__, lam, ep, m),
            partial(reference_koorn_moves, ep),
            log,
        )
        _assert_cold_and_warm_solves_agree(
            partial(kw._macdonald_cached.__wrapped__, lam, q, t, m),
            partial(reference_macdonald_moves, q, t),
            log,
        )


def test_a_solve_looks_its_frame_up_once(monkeypatch, fresh_frames):
    # cold, then warm: one cache lookup per solve, however many rows it builds
    log = _recorded_points(monkeypatch)
    for lookup in ("misses", "hits"):
        for lam, m in ((Partition((2, 2)), 2), (Partition((1,)), 3)):
            before = kw._solve_frame.cache_info()
            log.clear()
            kw._koornwinder_cached.__wrapped__(lam, EP, m)
            after = kw._solve_frame.cache_info()
            assert len(log) > 1
            lookups = after.hits + after.misses - before.hits - before.misses
            assert lookups == 1
            assert getattr(after, lookup) - getattr(before, lookup) == 1


def test_koornwinder_and_macdonald_solves_keep_apart_frames(fresh_frames):
    # the empty label has the same padded labels and top degree in both,
    # so only the table tells its two frames apart
    q, t = EP.q, EP.t
    for lam, m in ((Partition((2, 1)), 2), (Partition(()), 2)):
        kw._solve_frame.cache_clear()
        koorn = kw._koornwinder_cached.__wrapped__(lam, EP, m)
        mac = kw._macdonald_cached.__wrapped__(lam, q, t, m)
        info = kw._solve_frame.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        koorn_frame = kw._solve_frame(
            tuple(mu.padded(m) for mu in koorn_basis(lam, m)),
            lam.part(0),
            kw._laurent_table,
        )
        mac_frame = kw._solve_frame(
            tuple(mu.padded(m) for mu in kw._macdonald_basis(lam, m)),
            lam.part(0),
            kw._power_table,
        )
        assert kw._solve_frame.cache_info().misses == 2
        assert koorn_frame is not mac_frame
        # each equals its own solve on cleared frames, in the other order
        kw._solve_frame.cache_clear()
        assert kw._macdonald_cached.__wrapped__(lam, q, t, m) == mac
        kw._solve_frame.cache_clear()
        assert kw._koornwinder_cached.__wrapped__(lam, EP, m) == koorn


# ----------------------------------------------------------------------
# the solve's orbit coefficients and the one-pass expansion


def additive_assembly(solved, basis_poly):
    """The reference assembly: m_lam plus c_nu / den times m_nu for each
    nonzero c_nu, one product and one sum per label."""
    labels, coeffs, den = solved
    out = basis_poly(labels[0])
    for nu, c in zip(labels[1:], coeffs[1:]):
        if c:
            out = out + basis_poly(nu) * Fraction(c, den)
    return out


def _recorded_solves(monkeypatch):
    """Log the determinant sign of every elimination and the arguments and
    result of every expansion the solves make."""
    dets, expansions = [], []
    real_solve, real_expand = kw._bareiss_solve, kw.orbit_expansion

    def solve(rows, n):
        out = real_solve(rows, n)
        if out is not None:
            dets.append(out[0] > 0)
        return out

    def expand(labels, coeffs, den, m, signed=True):
        out = real_expand(labels, coeffs, den, m, signed)
        expansions.append(((labels, coeffs, den), out))
        return out

    monkeypatch.setattr(kw, "_bareiss_solve", solve)
    monkeypatch.setattr(kw, "orbit_expansion", expand)
    return dets, expansions


def _assert_expansion_matches_the_assembly(solved, got, basis, basis_poly):
    labels, coeffs, den = solved
    assert labels == tuple(basis) and len(coeffs) == len(basis)
    assert den > 0 and coeffs[0] == den
    assert math.gcd(*coeffs) == 1
    want = additive_assembly(solved, basis_poly)
    assert got == want
    # the same terms in the same order, over the same denominator
    assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("name", ["EP", "NEG"])
def test_one_pass_expansion_matches_the_additive_assembly(monkeypatch, name):
    ep = ORACLE_PARAMS[name]
    cases = [(lam, m) for m in (1, 2, 3) for lam in partitions_in_box(m, 3)]
    cases.append((Partition((2, 1, 1, 1)), 4))
    dets, expansions = _recorded_solves(monkeypatch)
    for lam, m in cases:
        expansions.clear()
        got = kw._koornwinder_cached.__wrapped__(lam, ep, m)
        (solved, out), = expansions
        assert out is got
        _assert_expansion_matches_the_assembly(
            solved, got, koorn_basis(lam, m), partial(orbit_sum, m=m)
        )
        assert got == koornwinder_poly(lam, ep, m)
    # both signs of the determinant reach the normalization
    assert set(dets) == {True, False}


@pytest.mark.parametrize("name", ["EP", "NEG"])
def test_one_pass_macdonald_expansion_matches_the_additive_assembly(
    monkeypatch, name
):
    ep = ORACLE_PARAMS[name]
    dets, expansions = _recorded_solves(monkeypatch)
    for q, t in ((ep.q, ep.t), (ep.sq, ep.st)):
        for m in (1, 2, 3, 4):
            for lam in (p for n in range(5) for p in partitions_of(n, m)):
                expansions.clear()
                got = kw._macdonald_cached.__wrapped__(lam, q, t, m)
                (solved, out), = expansions
                assert out is got
                _assert_expansion_matches_the_assembly(
                    solved,
                    got,
                    kw._macdonald_basis(lam, m),
                    partial(sym_orbit_sum, m=m),
                )
                assert got == macdonald_poly(lam, q, t, m)
    assert set(dets) == {True, False}


def test_one_variable_P1_is_askey_wilson():
    assert koornwinder_poly((1,), EP, 1) == askey_wilson_p(1, EP, "q")


def test_expansion_coefficients_are_rational_combinations_of_orbits():
    P = koornwinder_poly((2,), EP, 2)
    acc = LaurentPoly.zero(2)
    for mu in koorn_basis(Partition((2,)), 2):
        c = P.coefficient(tuple(2 * e for e in mu.padded(2)))
        acc = acc + orbit_sum(mu, 2) * c
    assert acc == P


# ----------------------------------------------------------------------
# collisions


# alpha^2 q^3 = 1 forces d_(2) == d_(1) in one variable
EP_COLLIDING = ExactParams(
    sa=Fraction(4),
    sb=Fraction(1),
    sc=Fraction(1),
    sd=Fraction(1),
    sq=Fraction(1, 2),
    st=Fraction(2, 5),
)


def test_collision_is_reported():
    with pytest.raises(CollisionError):
        koornwinder_poly((2,), EP_COLLIDING, 1)


def test_resampling_recovers_from_collision():
    poly, used, log = compute_with_resampling((2,), EP_COLLIDING, 1)
    assert used != EP_COLLIDING
    assert len(log) == 1 and "collides" in log[0]
    assert apply_koorn_mult(used, poly, 1) == poly * eigenvalue_d((2,), used, 1)


def test_resampling_with_no_retries_propagates():
    with pytest.raises(CollisionError):
        compute_with_resampling((2,), EP_COLLIDING, 1, retries=0)


def test_resampling_rejects_negative_retries():
    with pytest.raises(ValueError, match="retries"):
        compute_with_resampling((2,), EP, 1, retries=-1)


# ======================================================================
# Macdonald polynomials
# ======================================================================


def test_macdonald_single_row_two_variables():
    q, t = Fraction(1, 4), Fraction(4, 9)
    c = (1 + q) * (1 - t) / (1 - q * t)
    want = sym_orbit_sum((2,), 2) + sym_orbit_sum((1, 1), 2) * c
    assert macdonald_poly((2,), q, t, 2) == want


def test_macdonald_minimal_partitions_are_pure_orbits():
    q, t = Fraction(1, 4), Fraction(4, 9)
    assert macdonald_poly((1,), q, t, 2) == sym_orbit_sum((1,), 2)
    assert macdonald_poly((1, 1), q, t, 2) == sym_orbit_sum((1, 1), 2)


def test_macdonald_eigen_equation():
    q, t = Fraction(1, 3), Fraction(2, 7)
    for lam, m in (((2, 1), 2), ((2, 1), 3), ((3,), 2), ((2, 1, 1), 3)):
        P = macdonald_poly(lam, q, t, m)
        d = macdonald_eigenvalue(lam, q, t, m)
        assert apply_macdonald_mult(q, t, 1, P, m) == P * d, lam


def test_macdonald_is_homogeneous():
    q, t = Fraction(1, 4), Fraction(4, 9)
    P = macdonald_poly((2, 1), q, t, 2)
    assert {sum(exp) for exp in P.terms} == {6}


# ======================================================================
# Askey-Wilson polynomials
# ======================================================================


def test_aw_degree_zero_is_one():
    assert askey_wilson_p(0, EP, "q") == LaurentPoly.one(1)
    assert askey_wilson_p(0, EP, "t") == LaurentPoly.one(1)


@pytest.mark.parametrize("base", ["q", "t"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_aw_is_monic(base, r):
    p = askey_wilson_p(r, EP, base)
    assert p.coefficient((2 * r,)) == 1


def test_aw_degree_one_agrees_across_bases():
    # the degree-one constant involves only ab, ac, ad, abcd brackets
    assert askey_wilson_p(1, EP, "q") == askey_wilson_p(1, EP, "t")


@pytest.mark.parametrize("base", ["q", "t"])
@pytest.mark.parametrize("l", [1, 2])
def test_aw_specialization_to_bracket_factorial(base, l):
    # with d = base^(1-l)/a the polynomial collapses to [w;a]_{base,l}
    sbase = EP.sq if base == "q" else EP.st
    ep = EP.replace(sd=sbase ** (1 - l) / EP.sa)
    got = askey_wilson_p(l, ep, base)
    assert got == bracket_factorial_poly(ep.a, sbase**2, l)


def test_aw_degenerate_parameters_raise():
    # abcd = 1 kills the lowest balancing denominator
    ep = EP.replace(sd=1 / (EP.sa * EP.sb * EP.sc))
    with pytest.raises(DegenerateParameterError, match="degree-1 expansion for base q"):
        askey_wilson_p(1, ep, "q")


def test_aw_negative_degree_rejected():
    with pytest.raises(ValueError):
        askey_wilson_p(-1, EP, "q")


# ======================================================================
# E and H families
# ======================================================================


def test_E_order_zero_is_one():
    assert poly_E(0, EP, 3) == LaurentPoly.one(3)


def test_E_first_order_two_variables():
    want = bracket_za(2, 0, EP.a) + bracket_za(2, 1, EP.t * EP.a)
    assert poly_E(1, EP, 2) == want


def test_E_top_order_is_product_of_brackets():
    want = LaurentPoly.one(3)
    for i in range(3):
        want = want * bracket_za(3, i, EP.a)
    assert poly_E(3, EP, 3) == want


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_E_recurrence_matches_nested_sum(r):
    assert poly_E(r, EP, 3) == bruteforce_E(r, EP, 3)
    assert poly_E(r, EP_ALT, 3) == bruteforce_E(r, EP_ALT, 3)


@pytest.mark.parametrize("r,m", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_E_is_W_invariant(r, m):
    assert is_W_invariant(poly_E(r, EP, m))


def test_E_order_out_of_range():
    with pytest.raises(ValueError):
        poly_E(3, EP, 2)


def test_H_order_zero_is_one():
    assert poly_H(0, EP, 2) == LaurentPoly.one(2)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_H_one_variable_closed_form(l):
    coeff = bracket_factorial_const(EP.st, EP.sq, l) / bracket_factorial_const(
        EP.sq, EP.sq, l
    )
    assert poly_H(l, EP, 1) == bracket_factorial_poly(EP.a, EP.q, l) * coeff


@pytest.mark.parametrize("l", [1, 2, 3])
def test_H_matches_last_variable_split(l):
    assert poly_H(l, EP, 2) == h_by_last_variable_split(l, EP, 2)


@pytest.mark.parametrize("ep", [EP, EP_ALT, EP_NEG], ids=["EP", "EP_ALT", "NEG"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_H_recurrence_matches_composition_sum(ep, m):
    for l in range(5):
        assert poly_H(l, ep, m) == bruteforce_H(l, ep, m), l


def test_H_leading_coefficient():
    # coefficient of the dominant monomial z_1^l is [t]_{q,l} / [q]_{q,l}
    for l in (1, 2, 3):
        want = bracket_factorial_const(EP.st, EP.sq, l) / bracket_factorial_const(
            EP.sq, EP.sq, l
        )
        assert poly_H(l, EP, 2).coefficient((2 * l, 0)) == want


@pytest.mark.parametrize("l,m", [(1, 2), (2, 2), (2, 3)])
def test_H_is_W_invariant(l, m):
    assert is_W_invariant(poly_H(l, EP, m))


# ======================================================================
# closed formulas against the eigen-solve
# ======================================================================


def test_column_formula_order_zero_is_one():
    assert column_formula(0, EP, 2) == LaurentPoly.one(2)


def test_row_formula_order_zero_is_one():
    assert row_formula(0, EP, 2) == LaurentPoly.one(2)


@pytest.mark.parametrize("r,m", [(0, 1), (1, 1), (1, 2), (2, 2)])
def test_theorem_column_small_grid(r, m):
    assert theorem_equality("Column", r, m, EP)
    assert theorem_equality("Column", r, m, EP_ALT)


@pytest.mark.parametrize("r,m", [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_theorem_row_small_grid(r, m):
    assert theorem_equality("Row", r, m, EP)
    assert theorem_equality("Row", r, m, EP_ALT)


def test_theorem_column_needs_enough_variables():
    with pytest.raises(ValueError):
        theorem_equality("Column", 3, 2, EP)


def test_row_formula_checks_its_normalizing_factor():
    # st = sq makes t = q and [t]_{q,1} = [q^... the first factor of the
    # divisor [t]_{q,r} vanishes when t q^j = 1 for some j < r
    ep = EP.replace(st=1 / EP.sq)
    with pytest.raises(DegenerateParameterError, match="row normalization"):
        row_formula(2, ep, 2)


# abcd = 1 kills the balancing bracket of the column, connection and row
# prefactor denominators; ab = 1 kills a row-expansion denominator at
# l = 1; q = 1 kills [q]_{q,1}.
_ABCD_1 = EP.replace(sd=1 / (EP.sa * EP.sb * EP.sc))


@pytest.mark.parametrize(
    "call,site",
    [
        (partial(column_formula, 1, _ABCD_1, 1), "the column expansion"),
        (partial(connection_bracket_to_AW, 1, _ABCD_1, "t"), "connection"),
        (partial(poly_H, 1, EP.replace(sq=Fraction(1)), 1), r"\[t\]/\[q\] ratio"),
        (partial(row_formula, 1, _ABCD_1, 1), "the row prefactor"),
        (partial(row_formula, 1, EP.replace(sb=1 / EP.sa), 1), "the row expansion"),
    ],
    ids=["column", "connection", "H", "row-prefactor", "row-expansion"],
)
def test_degenerate_parameters_name_the_vanishing_factorial(call, site):
    with pytest.raises(DegenerateParameterError, match=site):
        call()


# ======================================================================
# connection coefficients and expansion identities
# ======================================================================


def test_connection_length_zero():
    assert connection_bracket_to_AW(0, EP, "t") == [Fraction(1)]


@pytest.mark.parametrize("base", ["q", "t"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_connection_reassembles_bracket_factorial(l, base):
    coeffs = connection_bracket_to_AW(l, EP, base)
    sbase = EP.sq if base == "q" else EP.st
    acc = LaurentPoly.zero(1)
    for r, c in enumerate(coeffs):
        acc = acc + askey_wilson_p(r, EP, base) * c
    assert acc == bracket_factorial_poly(EP.a, sbase**2, l)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expansion_E(m):
    assert expansion_check_E(m, EP)
    assert expansion_check_E(m, EP_ALT)


@pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (1, 2)])
def test_expansion_H_at_negative_q_powers(k, m):
    ep = EP.replace(st=EP.sq ** (-k))
    assert expansion_check_H(m, k, ep)


def test_expansion_H_requires_matching_branch():
    with pytest.raises(ValueError):
        expansion_check_H(1, 1, EP)


# ======================================================================
# interpolation grids
# ======================================================================


@pytest.mark.parametrize("m", [1, 2])
def test_interpolation_column_E(m):
    report = interpolation_checks("ColumnE", m, EP)
    assert report.passed
    assert report.kind is InterpKind.COLUMN_E
    assert report.orders == tuple(range(m + 1))


@pytest.mark.parametrize("m", [1, 2])
def test_interpolation_row_H(m):
    report = interpolation_checks("RowH", m, EP)
    assert report.passed
    assert report.points_checked > 0


@pytest.mark.parametrize("kind,builder", [("ColumnE", "poly_E"), ("RowH", "poly_H")])
def test_interpolation_catches_a_shifted_polynomial(monkeypatch, kind, builder):
    # negative control: the true polynomial plus 1 vanishes nowhere
    true = getattr(kw, builder)
    monkeypatch.setattr(kw, builder, lambda order, ep, m: true(order, ep, m) + 1)
    report = interpolation_checks(kind, 2, EP)
    assert report.vanishing_ok is False
    assert report.passed is False


def test_interpolation_report_serializes():
    report = interpolation_checks("RowH", 1, EP)
    blob = report.to_json_dict()
    assert blob["kind"] == "RowH"
    assert blob["passed"] is True
    json.dumps(blob)


def test_interpolation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        interpolation_checks("Diagonal", 2, EP)


# ======================================================================
# Cauchy and dual Cauchy identities
# ======================================================================


def test_lambda_star_complements_the_rectangle():
    assert lambda_star(Partition(()), 2, 3) == Partition((2, 2, 2))
    assert lambda_star(Partition((3, 1)), 2, 3) == Partition((1, 1))
    star = lambda_star(Partition((2, 1)), 3, 2)
    assert Partition((2, 1)).size + star.size == 6


def test_lambda_star_requires_containment():
    with pytest.raises(ValueError):
        lambda_star(Partition((4,)), 2, 3)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_dual_cauchy(m, n):
    assert dual_cauchy_check(m, n, EP)


def test_cauchy_series_coefficients_one_variable_pair():
    q, t = Fraction(1, 4), Fraction(4, 9)
    series = cauchy_series(1, 1, q, t, 3)
    for k in range(4):
        num, den = Fraction(1), Fraction(1)
        for i in range(k):
            num *= 1 - t * q**i
            den *= 1 - q ** (i + 1)
        assert series.coefficient((2 * k, 2 * k)) == num / den


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_cauchy_macdonald(m, n):
    assert cauchy_check_macdonald(m, n, Fraction(1, 4), Fraction(4, 9), 3)


def tuple_cauchy_series(m, n, q, t, cap):
    """``cauchy_series`` truncated after every factor through the exponent
    tuples and the tuple-keyed constructor, as it was built before the
    packed-key ``truncate_degree``."""
    mv = m + n
    out = LaurentPoly.one(mv)
    for j in range(m):
        for l in range(n):
            factor = {}
            for k in range(cap + 1):
                key = [0] * mv
                key[j] = key[m + l] = 2 * k
                num, den = Fraction(1), Fraction(1)
                for i in range(k):
                    num *= 1 - t * q**i
                    den *= 1 - q ** (i + 1)
                factor[tuple(key)] = num / den
            product = out * LaurentPoly(mv, factor)
            out = LaurentPoly(
                mv, {e: c for e, c in product.terms.items() if sum(e[:m]) <= 2 * cap}
            )
    return out


@pytest.mark.parametrize("m,n,cap", [(1, 1, 4), (2, 2, 3), (3, 3, 4)])
def test_cauchy_series_matches_the_tuple_truncation(m, n, cap):
    q, t = Fraction(1, 4), Fraction(4, 9)
    series = cauchy_series(m, n, q, t, cap)
    want = tuple_cauchy_series(m, n, q, t, cap)
    assert series == want
    assert series._exp_bound >= want._exp_bound


# ======================================================================
# serialization
# ======================================================================


def test_koornwinder_json_metadata():
    blob = koornwinder_json((2, 1), EP, 2)
    assert blob["meta"]["lambda"] == [2, 1]
    assert blob["meta"]["m"] == 2
    d = eigenvalue_d((2, 1), EP, 2)
    assert blob["meta"]["eigenvalue"] == {
        "num": str(d.numerator),
        "den": str(d.denominator),
    }
    assert blob["lattice"] == "half"


def test_koornwinder_json_is_deterministic():
    one = json.dumps(koornwinder_json((2,), EP, 2), sort_keys=True)
    two = json.dumps(koornwinder_json((2,), EP, 2), sort_keys=True)
    assert one == two


# ======================================================================
# solve caches
# ======================================================================


def test_solve_caches_stay_within_their_bounds(fresh_frames):
    # more fresh parameter sets than either polynomial cache holds; one
    # frame per basis serves all of them
    for k in range(140):
        koornwinder_poly((2,), EP.replace(sa=Fraction(100 + k, 7)), 1)
    assert kw._koornwinder_cached.cache_info().currsize == kw._POLY_CACHE_SIZE
    assert kw._solve_frame.cache_info().currsize == 1
    for k in range(140):
        macdonald_poly((3,), Fraction(1, 3), Fraction(2, 7 + k), 3)
    assert kw._macdonald_cached.cache_info().currsize == kw._POLY_CACHE_SIZE
    assert kw._solve_frame.cache_info().currsize == 2
    # more bases than the frame cache holds
    for n in range(140):
        macdonald_poly((n,), Fraction(1, 3), Fraction(2, 7), 1)
    assert kw._solve_frame.cache_info().currsize == kw._POLY_CACHE_SIZE


def test_basis_cache_is_bounded():
    # the 4^4 box has 70 partitions, more than the bound
    for lam in partitions_in_box(4, 4):
        koorn_basis(lam, 4)
    assert koorn_basis.cache_info().maxsize == kw._POLY_CACHE_SIZE
    assert koorn_basis.cache_info().currsize <= 64


def test_equal_params_built_apart_share_a_hash_and_a_cache_entry():
    # the hash is computed once per instance from the six roots, the value
    # the frozen dataclass gives, so equal parameters keep one cache key
    roots = (Fraction(13, 17),) + tuple(getattr(EP, r) for r in ("sb", "sc", "sd", "sq", "st"))
    one = ExactParams(*roots)
    from_strings = ExactParams(*(str(r) for r in roots))
    replaced = EP.replace(sa=Fraction(13, 17))
    assert one == from_strings == replaced
    assert hash(one) == hash(from_strings) == hash(replaced) == hash(roots)
    first = koornwinder_poly((1,), one, 2)
    before = kw._koornwinder_cached.cache_info()
    assert koornwinder_poly((1,), from_strings, 2) is first
    assert koornwinder_poly((1,), replaced, 2) is first
    after = kw._koornwinder_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_cached_polynomial_terms_are_read_only():
    poly = koornwinder_poly((2, 1), EP, 2)
    before = poly_dumps(poly)
    head = (4, 2)
    with pytest.raises(TypeError):
        poly.terms[head] = Fraction(7)
    with pytest.raises(TypeError):
        del poly.terms[head]
    again = koornwinder_poly((2, 1), EP, 2)
    assert again.terms[head] == 1
    assert poly_dumps(again) == before


# ======================================================================
# golden exact corpus
# ======================================================================

# sha256 over "<parts> <poly_dumps(P_lam)>\n" for every lam in
# partitions_in_box(m, 3), in that order.  Any change to an exact
# coefficient or to the JSON text of a polynomial in the 3 x 3 box shows
# up here.
GOLDEN_BOX_DIGESTS = {
    ("EP", 1): "2657c587df6c6b74a2493f2357bae20d41832f465b16339c79572f932d541c88",
    ("EP", 2): "535a5f1d81d4d813cb07b80bd1b77ab6c7c36fa734a23dd3f08fa820237a47f0",
    ("EP", 3): "e4e3bdea04f6354331b6e3688db5eaf90e317ebde5ec11a60a16c620d08bdfcf",
    ("EP_ALT", 1): "5dc78e222b9a23ea660c3d96df8b3835b01afce792aea7bd4615cf44c31eb321",
    ("EP_ALT", 2): "13a5773c0c40a35d016969d894d780d9bf86a647a541e562451a39e155226a1e",
    ("EP_ALT", 3): "40cfdc3c7702db4f4286adee33661f9a2873eb86353fe43d5bd8b34de24df12b",
}


@pytest.mark.parametrize("name,m", sorted(GOLDEN_BOX_DIGESTS))
def test_box_polynomials_match_golden_digest(name, m):
    ep = {"EP": EP, "EP_ALT": EP_ALT}[name]
    digest = hashlib.sha256()
    for lam in partitions_in_box(m, 3):
        text = poly_dumps(koornwinder_poly(lam, ep, m))
        digest.update(f"{list(lam.parts)} {text}\n".encode())
    assert digest.hexdigest() == GOLDEN_BOX_DIGESTS[name, m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_terms_items_match_lookups_across_the_box(m):
    for lam in partitions_in_box(m, 3):
        terms = koornwinder_poly(lam, EP_ALT, m).terms
        assert dict(terms.items()) == {e: terms[e] for e in terms}


# sha256 of poly_dumps(P_lam) for two labels in four variables, where the
# solve has most unknowns per coefficient.
GOLDEN_M4_DIGESTS = {
    (1, 1, 1, 1): "2c9cf7164cde745c81610a713d331fc14e6e3238ac681e96f020db365e932baf",
    (2, 1, 1, 1): "d1b468ecd7b14f13960dcd0798659d231772fc7201df05b6bcf529cc86c3089e",
    (2, 2, 2, 2): "48cfde25c36a4b76bbc84dadb1cf73240cdbd7f66a8336efdcad4e48a0576c1d",
}


@pytest.mark.parametrize("lam", sorted(GOLDEN_M4_DIGESTS))
def test_four_variable_polynomials_match_golden_digest(lam):
    text = poly_dumps(koornwinder_poly(lam, EP, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_M4_DIGESTS[lam]


# sha256 over "<m> <parts> <poly_dumps(P_lam)>\n" for every Macdonald P_lam
# with |lam| <= 4 in m = 1..3 variables at (q, t) = (1/3, 2/7), in the order
# of the loops below.
GOLDEN_MACDONALD_DIGEST = (
    "f38f3279c44981d680f6bb7619443af80d75e2baa55ff35fafc1875679e5ec13"
)


def test_macdonald_polynomials_match_golden_digest():
    q, t = Fraction(1, 3), Fraction(2, 7)
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for size in range(5):
            for lam in partitions_of(size, m):
                text = poly_dumps(macdonald_poly(lam, q, t, m))
                digest.update(f"{m} {list(lam.parts)} {text}\n".encode())
    assert digest.hexdigest() == GOLDEN_MACDONALD_DIGEST


# Parameter sets for the explicit-route pin: two generic sets, two with
# negative square roots (a negative sq included), and two degenerate ones
# (abcd = 1, and t q = 1), where the formulas raise.
ROUTE_PARAMS = {
    "EP": EP,
    "EP_ALT": EP_ALT,
    "NEG": EP_NEG,
    "NEG_ALT": EP_NEG_ALT,
    "ABCD_1": EP.replace(sd=1 / (EP.sa * EP.sb * EP.sc)),
    "TQ_1": EP.replace(st=1 / EP.sq),
}


def _route_calls(ep):
    """(label, thunk) for every explicit-route output pinned at ``ep``."""
    for base in ("q", "t"):
        for r in range(5):
            yield f"aw {base} {r}", partial(askey_wilson_p, r, ep, base)
            yield f"conn {base} {r}", partial(connection_bracket_to_AW, r, ep, base)
    for m in (1, 2, 3):
        for r in range(m + 1):
            yield f"E {r} {m}", partial(poly_E, r, ep, m)
            yield f"col {r} {m}", partial(column_formula, r, ep, m)
            yield f"thm col {r} {m}", partial(theorem_equality, "Column", r, m, ep)
        for l in range(4):
            yield f"H {l} {m}", partial(poly_H, l, ep, m)
            yield f"row {l} {m}", partial(row_formula, l, ep, m)
            yield f"thm row {l} {m}", partial(theorem_equality, "Row", l, m, ep)
        yield f"expE {m}", partial(expansion_check_E, m, ep)
        for kind in ("ColumnE", "RowH"):
            yield f"interp {kind} {m}", partial(interpolation_checks, kind, m, ep)
    for k, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
        yield f"expH {k} {m}", partial(expansion_check_H, m, k, ep.replace(st=ep.sq**-k))
    for m, n in ((1, 1), (2, 1), (1, 2)):
        yield f"dual {m} {n}", partial(dual_cauchy_check, m, n, ep)
    for m, n in itertools.product((1, 2), repeat=2):
        yield f"psi {m} {n}", partial(kern_psi_mult, m, n)
        for k in range(4):
            yield f"phik {m} {n} {k}", partial(phi_minus_k, m, n, ep.q, k)


def _route_text(thunk) -> str:
    """The polynomial's JSON, the repr of any other value, or the class
    of the exception raised."""
    try:
        value = thunk()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc).__name__
    return poly_dumps(value) if isinstance(value, LaurentPoly) else repr(value)


# sha256 over "<label> <text>\n" for every (label, thunk) of _route_calls,
# in that order, with the text of _route_text.
GOLDEN_ROUTE_DIGESTS = {
    "EP": "ee6505fb5a295f760a7c44180231c6f84714833f626b9b26dc46fa1157e6a7c1",
    "EP_ALT": "5cd651ebc5a5c745c164c6ed03f57db426bd9c0d283cc3550fb325517d6ab75b",
    "NEG": "efa5ab0739fb843e1f8db0086c978d0bfa14ad79e6fb936f31e0b2dfb76124fd",
    "NEG_ALT": "094573d152ba55fd1985fe8d9dc35c4ca560dc049ee24ce3528aa3e0880451de",
    "ABCD_1": "50640ba61595861f52dfcb5c15d2405ba95177ba72526ed984d1e57b6bc2554a",
    "TQ_1": "aada2e60d1564b9778e17c348648fd2a5cf46517b529e36336a5ec5d103cf027",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUTE_DIGESTS))
def test_explicit_route_matches_golden_digest(name):
    digest = hashlib.sha256()
    for label, thunk in _route_calls(ROUTE_PARAMS[name]):
        digest.update(f"{label} {_route_text(thunk)}\n".encode())
    assert digest.hexdigest() == GOLDEN_ROUTE_DIGESTS[name]


def _random_parameter_sets() -> list[ExactParams]:
    """25 sets from random.Random(20261018).  Each square root, in the
    order sa, sb, sc, sd, sq, st, is n/d with n then d drawn from 1..13, then
    negated with probability 0.3; every seventh set (index 6, 13, 20) has
    its drawn sb, sc, sd replaced by 1, where many labels collide."""
    rng = random.Random(20261018)
    sets = []
    for index in range(25):
        roots = {}
        for name in ("sa", "sb", "sc", "sd", "sq", "st"):
            root = Fraction(rng.randint(1, 13), rng.randint(1, 13))
            roots[name] = -root if rng.random() < 0.3 else root
        if index % 7 == 6:
            roots.update(sb=1, sc=1, sd=1)
        sets.append(ExactParams(**roots))
    return sets


def _random_parameter_calls(ep):
    """(kind, m, lam, thunk): every Koornwinder P_lam in the 3^m box and
    every Macdonald P_lam(q, t) with |lam| <= 4, for m = 1..3."""
    for m in (1, 2, 3):
        for lam in partitions_in_box(m, 3):
            yield "K", m, lam, partial(koornwinder_poly, lam, ep, m)
    for m in (1, 2, 3):
        for size in range(5):
            for lam in partitions_of(size, m):
                yield "M", m, lam, partial(macdonald_poly, lam, ep.q, ep.t, m)


# sha256 over "<set> <kind> <m> <parts> <text>\n" for every call of
# _random_parameter_calls at every set of _random_parameter_sets, in that
# order, with the text of _route_text: 1254 polynomials and 221
# CollisionErrors, a corpus the fixed-parameter digests above do not reach
# (the recipe of BENCH_7.json's random-parameter hash).
RANDOM_PARAMETER_DIGEST = (
    "54ada8e959bdac00ce022fc186801993f04d70d33f9c44f2eb3dafb5d029ef42"
)


def test_random_parameter_polynomials_match_golden_digest():
    digest = hashlib.sha256()
    collisions = 0
    for index, ep in enumerate(_random_parameter_sets()):
        for kind, m, lam, thunk in _random_parameter_calls(ep):
            text = _route_text(thunk)
            collisions += text == "CollisionError"
            digest.update(f"{index} {kind} {m} {list(lam.parts)} {text}\n".encode())
    assert collisions == 221
    assert digest.hexdigest() == RANDOM_PARAMETER_DIGEST
