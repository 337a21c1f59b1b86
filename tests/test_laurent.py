"""Tests for the exact Laurent-polynomial layer."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffkern import laurent
from diffkern.laurent import (
    ExactParams,
    ExponentOverflowError,
    InexactDivisionError,
    LaurentPoly,
    Partition,
    VariableCountMismatch,
    bracket_const,
    bracket_factorial_const,
    bracket_factorial_poly,
    bracket_za,
    bracket_zw,
    block_product,
    divide_exact,
    dominance_leq,
    is_W_invariant,
    orbit_sum,
    partitions_in_box,
    partitions_of,
    poly_dumps,
    poly_from_json,
    poly_to_json,
    sym_orbit_sum,
    truncate_degree,
)

from division_spy import primitive_part, spy_on_integer_division

# ----------------------------------------------------------------------
# test-local helpers
# ----------------------------------------------------------------------


def integral_lattice(f: LaurentPoly) -> bool:
    """True when every stored (doubled) exponent is even."""
    return all(e % 2 == 0 for exp in f.terms for e in exp)


def orbit_size(mu: Partition, m: int) -> int:
    """|W.mu| by stabilizer counting: distinct permutations x sign choices."""
    padded = mu.padded(m)
    perms = len(set(itertools.permutations(padded)))
    nonzero = sum(1 for e in padded if e)
    return perms * 2**nonzero


def is_symmetric(f: LaurentPoly) -> bool:
    """Invariance under variable permutations only (type-A symmetry)."""
    m = f.m
    for i in range(m - 1):
        perm = list(range(m))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if f.permute(perm) != f:
            return False
    return True


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


# numerators and denominators far past machine words
wide_fraction = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**20),
)


def polys(m: int = 2, max_terms: int = 4, coeffs=small_fraction):
    exps = st.tuples(*([st.integers(min_value=-4, max_value=4)] * m))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: LaurentPoly(m, d)
    )


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def test_add_cancels_to_zero():
    p = LaurentPoly(2, {(2, 0): Fraction(3), (0, -1): Fraction(-1, 2)})
    assert (p + (-p)).is_zero()


def test_one_is_multiplicative_identity():
    p = LaurentPoly(2, {(1, 1): Fraction(5, 3), (-2, 0): Fraction(1)})
    assert LaurentPoly.one(2) * p == p


def test_square_of_z_plus_inverse():
    z = LaurentPoly(1, {(2,): Fraction(1), (-2,): Fraction(1)})
    expected = LaurentPoly(1, {(4,): Fraction(1), (0,): Fraction(2), (-4,): Fraction(1)})
    assert z * z == expected
    assert z**2 == expected


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        LaurentPoly.one(2) + LaurentPoly.one(3)
    with pytest.raises(VariableCountMismatch):
        LaurentPoly.one(2) * LaurentPoly.one(1)


def test_zero_coefficients_never_stored():
    p = LaurentPoly(1, {(2,): Fraction(0), (0,): Fraction(1)})
    assert list(p.terms) == [(0,)]
    q = LaurentPoly(1, {(2,): Fraction(1)}) - LaurentPoly(1, {(2,): Fraction(1)})
    assert not q.terms


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=80, deadline=None)
@given(
    polys(coeffs=st.one_of(small_fraction, wide_fraction)),
    polys(coeffs=st.one_of(small_fraction, wide_fraction)),
    small_fraction,
    small_fraction.filter(bool),
    st.integers(min_value=0, max_value=1),
)
def test_every_construction_path_is_canonical(p, q, c, s, i):
    # each result, zero ones included, has the fields the constructor gives
    # its own terms: canonical, whichever path built it
    results = [p + q, p - q, p + (-p), c * p, p * q]
    results += [p.substitute(i, s), p.substitute(i, invert=True)]
    if q:
        results.append(divide_exact(p * q, q))
    for r in results:
        want = LaurentPoly(r.m, dict(r.terms))
        assert (r._num, r._den) == (want._num, want._den)


@settings(max_examples=30, deadline=None)
@given(polys(m=2, max_terms=3), polys(m=2, max_terms=3))
def test_integral_lattice_closed_under_product(p, q):
    doubled_p = LaurentPoly(2, {tuple(2 * e for e in k): c for k, c in p.terms.items()})
    doubled_q = LaurentPoly(2, {tuple(2 * e for e in k): c for k, c in q.terms.items()})
    assert integral_lattice(doubled_p * doubled_q)


@settings(max_examples=60, deadline=None)
@given(polys(m=3, max_terms=5, coeffs=wide_fraction), wide_fraction)
def test_scalar_product_matches_term_by_term(p, c):
    want = LaurentPoly(3, {e: c * v for e, v in p.terms.items()})
    for got in (c * p, p * c):
        assert got == want
        assert got._den > 0
    assert (0 * p).is_zero() and (p * 0).is_zero()


def test_substitute_scale_and_invert():
    # z -> 4 z (sqrt scale 2): z + 1/z -> 4z + 1/(4z)
    p = LaurentPoly(1, {(2,): Fraction(1), (-2,): Fraction(1)})
    scaled = p.substitute(0, sqrt_scale=2)
    assert scaled == LaurentPoly(1, {(2,): Fraction(4), (-2,): Fraction(1, 4)})
    # inversion swaps exponents
    q = LaurentPoly(1, {(2,): Fraction(3), (0,): Fraction(1)})
    assert q.substitute(0, invert=True) == LaurentPoly(
        1, {(-2,): Fraction(3), (0,): Fraction(1)}
    )
    # half-lattice points pick up the square root once
    h = LaurentPoly(1, {(1,): Fraction(1)})  # z^(1/2)
    assert h.substitute(0, sqrt_scale=3) == LaurentPoly(1, {(1,): Fraction(3)})


@pytest.mark.parametrize("i", [-1, 2])
def test_variable_index_outside_the_ring_is_refused(i):
    # a negative index used to wrap to the last variable, and a shift
    # past the last digit to divide by 2**524288 or fail on a negative shift
    p = LaurentPoly(2, {(2, 0): 1, (0, -2): 3})
    with pytest.raises(IndexError, match=f"variable index {i} out of range for m=2"):
        p.substitute(i, 2)
    with pytest.raises(IndexError, match=f"variable index {i} out of range for m=2"):
        LaurentPoly.var_power(2, i, 2)
    with pytest.raises(IndexError, match=f"variable index {i} out of range for m=2"):
        bracket_za(2, i, Fraction(3))


def test_permute_relabels_variables():
    p = LaurentPoly(2, {(2, 4): Fraction(1)})
    assert p.permute([1, 0]) == LaurentPoly(2, {(4, 2): Fraction(1)})
    assert p.permute([0, 1]) == p
    with pytest.raises(ValueError):
        p.permute([0, 0])


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*([st.sampled_from([-(2**19) + 1, -3, -1, 0, 2, 2**19 - 1])] * 3)),
        small_fraction,
        max_size=5,
    ),
    st.permutations(range(3)),
)
def test_permute_moves_digits_like_the_unpacked_relabelling(terms, perm):
    # extreme digits included, where a borrow between digits would show
    p = LaurentPoly(3, terms)
    want = {}
    for exp, c in p.terms.items():
        new = [0] * 3
        for i, e in enumerate(exp):
            new[perm[i]] = e
        want[tuple(new)] = c
    assert p.permute(perm) == LaurentPoly(3, want)


@settings(max_examples=40, deadline=None)
@given(polys(m=2, max_terms=4))
def test_eval_matches_term_by_term(p):
    sqrts = (1.3 + 0.4j, 0.8 - 0.9j)
    direct = sum(
        complex(c) * sqrts[0] ** e[0] * sqrts[1] ** e[1]
        for e, c in p.terms.items()
    )
    assert abs(p.eval_at(sqrts) - direct) < 1e-12


def test_eval_rejects_zero_coordinate():
    p = LaurentPoly(1, {(-2,): Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        p.eval_at([0.0])


nonzero_fraction = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=1, max_value=9),
)


@settings(max_examples=60, deadline=None)
@given(polys(m=3, max_terms=6, coeffs=wide_fraction), st.tuples(*([nonzero_fraction] * 3)))
def test_eval_exact_matches_term_by_term(p, sqrts):
    direct = Fraction(0)
    for exp, c in p.terms.items():
        for s, e in zip(sqrts, exp):
            c *= s**e
        direct += c
    assert p.eval_exact(sqrts) == direct


def test_eval_exact_at_a_zero_coordinate():
    z = LaurentPoly(2, {(2, 0): Fraction(3), (0, 1): Fraction(1, 2), (0, 0): Fraction(5)})
    assert z.eval_exact([Fraction(0), Fraction(2)]) == Fraction(6)
    assert LaurentPoly(2, {(0, 4): Fraction(1)}).eval_exact([0, Fraction(1, 3)]) == Fraction(1, 81)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly(1, {(-2,): Fraction(1)}).eval_exact([Fraction(0)])
    assert LaurentPoly.zero(2).eval_exact([Fraction(1), Fraction(2)]) == 0


SPARSE_SPAN_SHIFT = """
import resource
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from diffkern.laurent import LaurentPoly
k, half = 2**16, Fraction(1, 2)
f = LaurentPoly.var_power(1, 0, k) + LaurentPoly.var_power(1, 0, -k)
shifted = LaurentPoly.var_power(1, 0, k, half**k) + LaurentPoly.var_power(1, 0, -k, 2**k)
print(f.substitute(0, half) == shifted, f.eval_exact([half]) == half**k + 2**k)
"""


def test_shift_of_a_sparse_span_takes_one_power_per_digit():
    # z^(k/2) + z^(-k/2) spans 2k + 1 digits but has two; a power per digit
    # of the span would take about 1 GB here, and raise MemoryError under the
    # 1 GiB address-space limit the subprocess sets
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SPARSE_SPAN_SHIFT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr


@pytest.mark.parametrize("point", [[0.1], ["1/3"], [Fraction(1, 3), 0.5]])
def test_eval_exact_refuses_inexact_coordinates(point):
    # Fraction(0.1) is the binary float, and a string would parse
    p = LaurentPoly(len(point), {(2,) * len(point): 1})
    with pytest.raises(TypeError, match="exact scalar expected"):
        p.eval_exact(point)
    assert LaurentPoly(1, {(2,): 1}).eval_exact([3]) == 9
    assert LaurentPoly(1, {(2,): 1}).eval_exact([Fraction(1, 10)]) == Fraction(1, 100)


@pytest.mark.parametrize(
    "p", [LaurentPoly(2, {(2, 0): 1, (0, 2): 1}), LaurentPoly.zero(2)], ids=["z_0 + z_1", "zero"]
)
@pytest.mark.parametrize("point", [[Fraction(2)], [2, 3, 5]], ids=["short", "long"])
def test_eval_rejects_a_point_of_the_wrong_length(p, point):
    # a short point must not read the missing variables as z = 1, nor a long
    # one drop its extras, and the zero polynomial checks the point too
    for evaluate in (p.eval_exact, p.eval_at):
        with pytest.raises(VariableCountMismatch, match=f"point has {len(point)} coordinates"):
            evaluate(point)


# 0 to 3 variables, zero included
any_width_poly = st.integers(min_value=0, max_value=3).flatmap(
    lambda m: polys(m=m, max_terms=4, coeffs=wide_fraction)
)


@settings(max_examples=80, deadline=None)
@example(LaurentPoly.zero(2), LaurentPoly(1, {(2,): 3}))
@example(LaurentPoly(1, {(2,): 3}), LaurentPoly.zero(0))
@example(LaurentPoly(0, {(): Fraction(5, 3)}), LaurentPoly(2, {(1, -1): Fraction(2, 9)}))
@example(LaurentPoly(2, {(3, 0): Fraction(2, 9)}), LaurentPoly(0, {(): Fraction(3, 4)}))
@given(any_width_poly, any_width_poly)
def test_block_product_matches_the_tuple_product(f, g):
    got = block_product(f, g)
    want = LaurentPoly(
        f.m + g.m,
        {ef + eg: cf * cg for ef, cf in f.terms.items() for eg, cg in g.terms.items()},
    )
    assert got.m == want.m
    assert got._num == want._num
    assert got._den == want._den
    assert got._exp_bound == want._exp_bound


# ----------------------------------------------------------------------
# packed exponent keys
# ----------------------------------------------------------------------

DIGIT = 2**19 - 1  # the largest |exponent| a packed key holds
digits = st.integers(min_value=-DIGIT, max_value=DIGIT)
# extremes and near-zero entries, where a borrow between digits would show
edge_digits = st.one_of(digits, st.sampled_from([-DIGIT, -1, 0, 1, DIGIT]))


def exponents(m: int):
    return st.tuples(*([edge_digits] * m))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(exponents))
def test_pack_unpack_round_trip(exp):
    key = laurent._pack(exp)
    assert laurent._unpack(key, len(exp)) == exp
    assert LaurentPoly(len(exp), {exp: 3}).terms == {exp: 3}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.tuples(exponents(m), exponents(m))
    )
)
def test_key_order_is_lex_order(pair):
    a, b = pair
    ka, kb = laurent._pack(a), laurent._pack(b)
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(exponents(m), exponents(m))
    )
)
def test_adding_keys_adds_exponents(pair):
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    if max(map(abs, total)) > DIGIT:
        return
    assert laurent._unpack(laurent._pack(a) + laurent._pack(b), len(a)) == total


def test_out_of_range_exponent_never_aliases_a_stored_term():
    # (0, 2**20) would pack to the key of (1, 0) if digits could spill over
    p = LaurentPoly(2, {(1, 0): Fraction(5)})
    assert p.coefficient((1, 0)) == 5
    assert p.coefficient((0, 2**20)) == 0
    assert p.coefficient((1,)) == 0
    assert (0, 2**20) not in p.terms
    for bad in ((0, 2**20), (1,), (1, 0, 0), (2**19, 0)):
        with pytest.raises(KeyError):
            p.terms[bad]
    assert dict(p.terms.items()) == {(1, 0): Fraction(5)}


def test_terms_items_view_matches_lookups():
    p = LaurentPoly(2, {(1, 0): Fraction(5, 6), (-3, 2): Fraction(-1, 4)})
    items = p.terms.items()
    assert len(items) == 2
    assert ((1, 0), Fraction(5, 6)) in items
    assert ((1, 0), Fraction(5)) not in items
    assert ((0, 2**20), Fraction(5, 6)) not in items
    assert dict(items) == {e: p.terms[e] for e in p.terms}
    const = LaurentPoly.const(0, Fraction(7, 3))
    assert list(const.terms.items()) == [((), Fraction(7, 3))]
    assert not hasattr(items, "__setitem__")


def test_exponent_overflow_at_construction():
    LaurentPoly(1, {(DIGIT,): 1})
    LaurentPoly(2, {(-DIGIT, DIGIT): 1})
    for e in (2**19, -(2**19)):
        with pytest.raises(ExponentOverflowError):
            LaurentPoly(1, {(e,): 1})
        with pytest.raises(ExponentOverflowError):
            LaurentPoly.var_power(2, 1, e)


def test_exponent_overflow_from_a_product():
    near = LaurentPoly.var_power(1, 0, 2**18 - 1)
    assert (near * near).terms == {(2**19 - 2,): 1}
    big = LaurentPoly.var_power(1, 0, 2**18)
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ExponentOverflowError):
        big**2
    with pytest.raises(ExponentOverflowError):
        big.invert_all() * big.invert_all()


def test_exponent_overflow_from_a_division():
    # a remainder key can reach bound(f) + 3 bound(g) before the box check
    # rejects it, so such a division raises instead of reading a wrong digit
    z = LaurentPoly.var_power(1, 0, 2**16)
    assert divide_exact(z**4, z) == z**3  # 4 + 3 bounds of 2**16 fit
    with pytest.raises(ExponentOverflowError):
        divide_exact(z**5, z)  # 5 + 3 of them reach 2**19


def test_inexact_division_reports_a_tuple_exponent():
    z = LaurentPoly.var_power(2, 1, 2)
    w = LaurentPoly.var_power(2, 0, -2)
    with pytest.raises(InexactDivisionError, match="escapes") as info:
        divide_exact(z * w + 1, z + 2)
    # quotient exponents (0, -2) and (-2, 0) pass; (0, -4) leaves the box
    assert info.value.offending_exponent == (0, -4)


# ----------------------------------------------------------------------
# exact division
# ----------------------------------------------------------------------


def reference_divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """``divide_exact`` as a textbook long division: each step finds the
    remainder's lead by a ``max`` over the whole remainder and unpacks the
    quotient exponent for the box check.  Same steps, same errors."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.m)
    if f.m != g.m:
        raise VariableCountMismatch(f"operand variable counts differ: {f.m} vs {g.m}")
    m = f.m
    laurent._check_bound(f._exp_bound + 3 * g._exp_bound)
    f_ranges = laurent._digit_ranges(f._num, m)
    g_ranges = laurent._digit_ranges(g._num, m)
    lo = [f_lo - g_hi for (f_lo, _), (_, g_hi) in zip(f_ranges, g_ranges)]
    hi = [f_hi - g_lo for (_, f_hi), (g_lo, _) in zip(f_ranges, g_ranges)]
    f_content, remainder = laurent._primitive(f._num)
    g_content, g_prim = laurent._primitive(g._num)
    remainder = dict(remainder)
    g_lead = max(g_prim)
    g_lead_coeff = g_prim[g_lead]
    g_rest = [(e, c) for e, c in g_prim.items() if e != g_lead]

    def inexact(q_exp, why):
        return InexactDivisionError(
            f"{why}; division of {len(f._num)}-term by {len(g._num)}-term "
            "polynomial is not exact",
            offending_exponent=q_exp,
        )

    quotient = {}
    while remainder:
        r_lead = max(remainder)
        q_key = r_lead - g_lead
        q_exp = laurent._unpack(q_key, m)
        if any(not lo[i] <= e <= hi[i] for i, e in enumerate(q_exp)):
            raise inexact(q_exp, "quotient exponent escapes the exact-division box")
        q_coeff, rest = divmod(remainder.pop(r_lead), g_lead_coeff)
        if rest:
            raise inexact(q_exp, "quotient coefficient is not an integer")
        quotient[q_key] = q_coeff
        for e, c in g_rest:
            key = q_key + e
            new = remainder.get(key, 0) - q_coeff * c
            if new:
                remainder[key] = new
            else:
                remainder.pop(key, None)
    ratio = Fraction(f_content * g._den, f._den * g_content)
    quotient = {e: n * ratio.numerator for e, n in quotient.items()}
    q_bound = max(map(abs, lo + hi), default=0)
    return LaurentPoly._from_parts(m, quotient, ratio.denominator, q_bound)


def division_outcome(divide, f: LaurentPoly, g: LaurentPoly):
    """The quotient's stored fields, its keys in the order the steps made
    them, or the error's class, message and offending exponent."""
    try:
        q = divide(f, g)
    except ArithmeticError as exc:
        return type(exc), str(exc), getattr(exc, "offending_exponent", None)
    return q.m, list(q._num.items()), q._den, q._exp_bound


def assert_division_matches_reference(f: LaurentPoly, g: LaurentPoly):
    got = division_outcome(divide_exact, f, g)
    assert got == division_outcome(reference_divide_exact, f, g)
    return got


def polys_in(sizes: tuple[int, ...], coeffs=small_fraction):
    """A tuple of polynomials in one common number of variables, one to
    three, with at most ``sizes[k]`` terms in the k-th."""
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(*(polys(m=m, max_terms=n, coeffs=coeffs) for n in sizes))
    )


@settings(max_examples=80, deadline=None)
@given(polys_in((4, 4), coeffs=wide_fraction))
def test_exact_division_matches_the_reference(pair):
    a, b = pair
    if b.is_zero():
        return
    f = a * b
    got = assert_division_matches_reference(f, b)
    assert divide_exact(f, b) == a, got


@settings(max_examples=150, deadline=None)
@given(polys_in((4, 4, 2)))
def test_inexact_division_matches_the_reference(triple):
    # a product plus a small perturbation: exact when the perturbation is
    # zero or a multiple of b, else an error at some step of the division;
    # the same class, message and offending exponent as the reference
    a, b, r = triple
    if b.is_zero():
        return
    assert_division_matches_reference(a * b + r, b)
    assert_division_matches_reference(a + r, b)


def test_division_skips_a_lead_that_cancelled_and_came_back():
    # f = (x^2 + x + 1)(x^2 + 2x - 2) = x^4 + 3x^3 + x^2 - 2.  The first
    # step, x^2, cancels x^2 (1 - 1); the second, 2x, creates x^2 again
    # (-2) and creates x; the third, -2, cancels x and 1.  So x^2 is on the
    # heap twice and x and 1 once each after they cancelled: every stale
    # entry must be skipped.
    x = LaurentPoly.var_power(1, 0, 2)
    g = x * x + x + 1
    q = x * x + 2 * x - 2
    f = g * q
    assert f == x**4 + 3 * x**3 + x * x - 2
    assert divide_exact(f, g) == q
    assert assert_division_matches_reference(f, g)[1] == [(4, 1), (2, 2), (0, -2)]
    # the same stale entries on the way to an error: 3 is left over at
    # x^0, and its quotient steps run out of the box
    with pytest.raises(InexactDivisionError, match="escapes"):
        divide_exact(f + 3, g)
    assert_division_matches_reference(f + 3, g)
    # and in a second variable, behind a lead in the first
    y = LaurentPoly.var_power(2, 1, 2)
    x2 = LaurentPoly.var_power(2, 0, 2)
    g2 = y * y + y + 1
    q2 = x2 * (y * y + 2 * y - 2) + 5
    assert divide_exact(g2 * q2, g2) == q2
    assert_division_matches_reference(g2 * q2, g2)
    assert_division_matches_reference(g2 * q2 - y, g2)


def test_division_by_a_non_primitive_divisor_matches_the_reference():
    # g = 3 (2z + 1): only the divisor is made primitive, and the dividends'
    # contents share 3 with g's and 2 with its lead.  6 z^2 + 6 passes the
    # first divmod by 2, which its primitive part z^2 + 1 fails, and would
    # refuse one step later at z^0; the error is the primitive dividend's
    z = LaurentPoly.var_power(1, 0, 2)
    g = 6 * z + 3
    with pytest.raises(InexactDivisionError, match="not an integer") as info:
        divide_exact(6 * z * z + 6, g)
    assert info.value.offending_exponent == (2,)
    for f in (6 * z * z + 6, (6 * z * z + 6) * Fraction(5, 7), g * z * Fraction(-5, 3) + 9):
        assert_division_matches_reference(f, g)
    for q in ((z + 3) * Fraction(10, 7), (z * z - z + 5) * Fraction(9, 4), LaurentPoly.const(1, 6)):
        assert_division_matches_reference(g * q, g)
        assert divide_exact(g * q, g) == q
    # two variables, a divisor with a denominator and content 15
    w = LaurentPoly.var_power(2, 1, -2)
    x = LaurentPoly.var_power(2, 0, 2)
    g2 = (x * w + 2) * Fraction(15, 4)
    q2 = (x - w * w) * Fraction(-6, 5)
    assert divide_exact(g2 * q2, g2) == q2
    assert_division_matches_reference(g2 * q2, g2)
    assert_division_matches_reference(g2 * q2 + x * 3, g2)


def core_outcome_matches_the_reference(got, f, g):
    """A spied outcome against ``reference_divide_exact`` on the same
    dividend and divisor: the same error, or the same quotient numerators
    and exponent bound (the binomial core takes its steps in another
    order)."""
    want = division_outcome(reference_divide_exact, f, g)
    if want[0] is InexactDivisionError:
        return got == want
    return got[0] == want[0] and dict(got[1]) == dict(want[1]) and got[2:] == want[2:]


@pytest.mark.parametrize("m", [2, 3])
def test_operator_divisions_match_the_reference(m, monkeypatch):
    # the exact Koornwinder operator's own dividends and divisors: [q z_0^2]
    # and [z_0^2] (2 terms each) and the Vandermonde in x = z + 1/z (4 terms
    # at m = 2, 24 at m = 3), which the operator divides out one two-term
    # factor at a time, on an eigenpolynomial and on inputs that are not
    # W-invariant, some of which fail at a division.  The operator divides
    # integer numerators by the divisors' primitive parts, so each division
    # is checked over 1 against the reference
    from diffkern import koornwinder, operators

    seen = spy_on_integer_division(monkeypatch, operators, "_divide_binomials")
    ep = ExactParams.default()
    z = [LaurentPoly.var_power(m, k, 2) for k in range(m)]
    inputs = [
        koornwinder.koornwinder_poly((2, 1), ep, m) * Fraction(-7, 3),
        z[0],
        sum((zk * zk for zk in z), LaurentPoly.zero(m)),
        z[0] + LaurentPoly.var_power(m, m - 1, -4, Fraction(3, 5)),
        z[0] * z[0] + z[0].invert_all() * z[0].invert_all(),
    ]
    for f in inputs:
        try:
            operators.apply_koorn_mult(ep, f, m)
        except InexactDivisionError:
            pass
    z_sq, q_up, _ = operators._koorn_own_factors(m, 0, ep.sq)
    x = [zk + zk.invert_all() for zk in z]
    vandermonde = LaurentPoly.one(m)
    for k in range(m):
        for l in range(k + 1, m):
            vandermonde = vandermonde * (x[k] - x[l])
    divisors = {g for _, g, _ in seen}
    assert divisors == {primitive_part(p) for p in (q_up, z_sq, vandermonde)}
    assert len(vandermonde.terms) == {2: 4, 3: 24}[m]
    outcomes = []
    for f, g, got in seen:
        assert core_outcome_matches_the_reference(got, f, g)
        outcomes.append(got)
    assert any(o[0] is InexactDivisionError for o in outcomes)
    assert any(o[0] == m for o in outcomes)


@settings(max_examples=80, deadline=None)
@given(polys_in((6,)), st.integers(min_value=0, max_value=3), st.integers(-3, 4))
def test_truncate_degree_is_the_tuple_filter(single, k, cap):
    # a kept subset of canonical numerators need not be canonical (z_0 / 2
    # + z_1 / 3 cut to z_1 / 3 leaves 2 over 6), so the result is compared
    # field by field with the tuple-keyed constructor's
    (f,) = single
    k = min(k, f.m)
    got = truncate_degree(f, k, cap)
    want = LaurentPoly(f.m, {e: c for e, c in f.terms.items() if sum(e[:k]) <= 2 * cap})
    assert (got.m, got._num, got._den) == (want.m, want._num, want._den)
    assert got._exp_bound >= want._exp_bound
    z_0, z_1 = LaurentPoly.var_power(2, 0, 2), LaurentPoly.var_power(2, 1, 2)
    assert truncate_degree(z_0 * Fraction(1, 2) + z_1 * Fraction(1, 3), 1, 0)._den == 3


def binomials(m: int):
    """Primitive two-term integer polynomials in m variables, as numerator
    dicts: a direction over one to three variables, either sign on either
    coefficient."""
    exps = st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m)
    coeff = st.integers(min_value=-9, max_value=9).filter(bool)

    def build(case):
        low, step, a, b = case
        g = math.gcd(a, b)
        high = [e + s for e, s in zip(low, step)]
        return {laurent._pack(high): a // g, laurent._pack(low): b // g}

    nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
    step = st.lists(st.sampled_from(range(m)), min_size=1, max_size=3).flatmap(
        lambda used: st.tuples(*(nonzero if k in used else st.just(0) for k in range(m)))
    )
    return st.tuples(exps, step, coeff, coeff).map(build)


def digit_bound(num: dict[int, int], m: int) -> int:
    return max(map(abs, itertools.chain.from_iterable(laurent._digit_ranges(num, m))))


def core_outcome(divide, *args):
    try:
        return divide(*args)
    except InexactDivisionError as exc:
        return type(exc), str(exc), exc.offending_exponent


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.dictionaries(
                st.lists(st.integers(-4, 4), min_size=m, max_size=m).map(laurent._pack),
                st.integers(min_value=-(10**12), max_value=10**12).filter(bool),
                min_size=1,
                max_size=6,
            ),
            st.lists(binomials(m), min_size=1, max_size=4),
            st.integers(min_value=0),
            st.sampled_from([1, -1, 7]),
        )
    )
)
def test_binomial_division_matches_the_integer_core(case):
    # Q times a product of primitive binomials comes back as Q, with the
    # integer core's bound; one perturbed term gives the core's own error
    m, q, factors, pick, delta = case
    g_prim = {0: 1}
    for factor in factors:
        g_prim = laurent._convolve(g_prim, factor)
    num = laurent._convolve(q, g_prim)
    num_bound, g_bound = digit_bound(num, m), digit_bound(g_prim, m)
    got = laurent._divide_binomials(num, num_bound, factors, g_bound, m)
    assert got[0] == q
    assert got == laurent._divide_integers(num, num_bound, g_prim, g_bound, m)
    bad = dict(num)
    key = sorted(bad)[pick % len(bad)]
    bad[key] += delta
    if not bad[key]:
        del bad[key]
    args = (bad, num_bound, g_prim, g_bound, m)
    want = core_outcome(laurent._divide_integers, *args)
    assert want[0] is InexactDivisionError
    assert core_outcome(laurent._divide_binomials, bad, num_bound, factors, *args[3:]) == want


def test_binomial_walk_near_the_digit_limit_refuses_without_aliasing():
    # a walk along z_1 alone, so the direction's leading digit (z_0's) is 0,
    # from a z_1 digit 8 above -2**19: unchecked, its z_1 digit would pass
    # -2**19, and at the ninth step its key would alias (2, 2**19 - 10),
    # whose term would cancel the walk into a wrong quotient.  It refuses at
    # the box instead, with the integer core's error, z_0's digit intact
    low, high = -(2**19) + 8, 2**19 - 10
    num = {laurent._pack((3, low)): 5, laurent._pack((2, high)): -5}
    z_1_minus_1 = {laurent._pack((0, 2)): 1, 0: -1}
    args = (num, 2**19 - 8, z_1_minus_1, 2, 2)
    want = core_outcome(laurent._divide_integers, *args)
    assert want[0] is InexactDivisionError
    assert want[2] == (3, low - 4)
    assert core_outcome(laurent._divide_binomials, num, 2**19 - 8, [z_1_minus_1], 2, 2) == want


@settings(max_examples=50, deadline=None)
@given(polys(m=2, max_terms=3), polys(m=2, max_terms=3))
def test_division_recovers_factor(f, g):
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f


@settings(max_examples=60, deadline=None)
@given(
    polys(m=3, max_terms=5, coeffs=wide_fraction),
    polys(m=3, max_terms=4, coeffs=wide_fraction),
)
def test_division_recovers_wide_rational_factor(a, b):
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a


def test_division_detects_inexact():
    z = LaurentPoly(1, {(2,): Fraction(1)})
    with pytest.raises(InexactDivisionError):
        divide_exact(z + 1, z + 2)
    with pytest.raises(InexactDivisionError):
        divide_exact(z**2 + 1, z + 1)


def test_division_trips_integer_remainder_check_first():
    # (z^2 + 1) / (2z + 1): the leading step z^2 / 2z leaves 1 mod 2 on the
    # primitive integer parts, so the division fails at quotient exponent
    # z^1, well inside the exponent box
    z = LaurentPoly(1, {(2,): Fraction(1)})
    with pytest.raises(InexactDivisionError, match="not an integer") as info:
        divide_exact(z**2 + 1, 2 * z + 1)
    assert info.value.offending_exponent == (2,)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_exact(LaurentPoly.one(1), LaurentPoly.zero(1))


def test_division_with_laurent_units():
    # (z - 1/z) / (z + 1) = (z-1)/z  -- genuine Laurent quotient
    z = LaurentPoly(1, {(2,): Fraction(1)})
    zinv = LaurentPoly(1, {(-2,): Fraction(1)})
    quotient = divide_exact(z - zinv, z + 1)
    assert quotient == 1 - zinv


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------


def test_partition_validation_and_trim():
    assert Partition([3, 1, 0, 0]).parts == (3, 1)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([-1])


@pytest.mark.parametrize("parts", [(True,), (2, False), (1.0,)], ids=["True", "False", "float"])
def test_partition_refuses_parts_that_are_not_plain_integers(parts):
    # a bool is an int subclass, but a part of True is a mistake, not a 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        Partition(parts)


def test_partition_conjugate():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition([2, 2, 1]).conjugate() == Partition([3, 2])
    assert Partition().conjugate() == Partition()


def test_partition_contains():
    assert Partition([3, 2]).contains(Partition([2, 2]))
    assert not Partition([3]).contains(Partition([1, 1]))


def test_dominance_examples():
    assert dominance_leq(Partition([1, 1]), Partition([2]))
    assert not dominance_leq(Partition([2]), Partition([1, 1]))
    lam = Partition([3, 2, 1])
    assert dominance_leq(lam, lam)
    # weight can drop in the BC convention
    assert dominance_leq(Partition([1]), Partition([2, 2]))
    assert not dominance_leq(Partition([3, 3]), Partition([3, 1]))


def test_dominance_is_partial_order():
    universe = [p for n in range(7) for p in partitions_of(n)]
    for p in universe:
        assert dominance_leq(p, p)
    for p in universe:
        for q in universe:
            if dominance_leq(p, q) and dominance_leq(q, p):
                assert p == q
    import random

    rng = random.Random(11)
    triples = [tuple(rng.choices(universe, k=3)) for _ in range(4000)]
    for p, q, r in triples:
        if dominance_leq(p, q) and dominance_leq(q, r):
            assert dominance_leq(p, r)


def test_partitions_in_box_enumeration():
    box = partitions_in_box(2, 2)
    assert {p.parts for p in box} == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert len(partitions_in_box(3, 3)) == 20


# ----------------------------------------------------------------------
# orbit sums and invariance
# ----------------------------------------------------------------------


def test_orbit_sum_empty_partition():
    assert orbit_sum(Partition(), 2) == LaurentPoly.one(2)


def test_orbit_sum_single_box():
    m1 = orbit_sum(Partition([1]), 2)
    expected = LaurentPoly(
        2,
        {
            (2, 0): Fraction(1),
            (-2, 0): Fraction(1),
            (0, 2): Fraction(1),
            (0, -2): Fraction(1),
        },
    )
    assert m1 == expected


def test_orbit_sum_21_has_eight_monomials():
    m21 = orbit_sum(Partition([2, 1]), 2)
    assert len(m21.terms) == 8
    for e1 in (4, -4):
        for e2 in (2, -2):
            assert m21.coefficient((e1, e2)) == 1
            assert m21.coefficient((e2, e1)) == 1


def test_orbit_size_matches_term_count():
    for mu in partitions_in_box(3, 3):
        f = orbit_sum(mu, 3)
        assert len(f.terms) == orbit_size(mu, 3)


def test_is_W_invariant():
    for mu in partitions_in_box(2, 2):
        assert is_W_invariant(orbit_sum(mu, 2))
    z1 = LaurentPoly(2, {(2, 0): Fraction(1)})
    assert not is_W_invariant(z1)
    # symmetric but not sign-invariant
    s = LaurentPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    assert is_symmetric(s)
    assert not is_W_invariant(s)
    assert is_symmetric(sym_orbit_sum(Partition([2, 1]), 2))


def reference_orbit_exponents(mu: Partition, m: int, signed: bool = True):
    """The orbit's exponents in the order the orbit sums store them: each
    distinct permutation, then each sign choice, the first sign slowest."""
    out = []
    for perm in set(itertools.permutations(mu.padded(m))):
        nonzero = [i for i, e in enumerate(perm) if e] if signed else []
        for signs in itertools.product((1, -1), repeat=len(nonzero)):
            exps = list(perm)
            for pos, s in zip(nonzero, signs):
                exps[pos] *= s
            out.append(tuple(2 * e for e in exps))
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_sums_store_the_reference_exponents_in_order(m):
    for mu in partitions_in_box(m, 3):
        for signed, build in ((True, orbit_sum), (False, sym_orbit_sum)):
            f = build(mu, m)
            assert list(f.terms) == reference_orbit_exponents(mu, m, signed)
            assert set(f.terms.values()) == {1}


@pytest.mark.parametrize("signed", [True, False])
def test_orbit_expansion_is_the_sum_of_scaled_orbit_sums(signed):
    build = orbit_sum if signed else sym_orbit_sum
    rng = random.Random(1729)
    for m in (1, 2, 3):
        labels = partitions_in_box(m, 2)
        for _ in range(20):
            # not primitive, a zero coefficient and either sign of den
            scale = rng.choice((1, 6))
            coeffs = [scale * rng.randint(-9, 9) for _ in labels]
            den = scale * rng.choice((-1, 1)) * rng.randint(1, 12)
            want = LaurentPoly.zero(m)
            for mu, c in zip(labels, coeffs):
                want = want + build(mu, m) * Fraction(c, den)
            got = laurent.orbit_expansion(labels, coeffs, den, m, signed)
            assert got == want
            assert got._den > 0
            assert len(got.terms) == sum(
                len(build(mu, m).terms) for mu, c in zip(labels, coeffs) if c
            )


def test_orbit_expansion_rejects_bad_input():
    labels = [Partition([1]), Partition([])]
    with pytest.raises(ZeroDivisionError):
        laurent.orbit_expansion(labels, [1, 2], 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        laurent.orbit_expansion([Partition([1]), Partition([1])], [1, 2], 3, 1)
    with pytest.raises(ValueError, match="labels"):
        laurent.orbit_expansion(labels, [1], 3, 1)
    assert laurent.orbit_expansion(labels, [0, 0], 5, 1) == LaurentPoly.zero(1)


# ----------------------------------------------------------------------
# parameters and brackets
# ----------------------------------------------------------------------


def test_exact_params_defaults():
    ep = ExactParams.default()
    assert ep.a == Fraction(4, 9)
    assert ep.q == Fraction(1, 4)
    assert ep.alpha == ep.sa * ep.sb * ep.sc * ep.sd / ep.sq
    with pytest.raises(ValueError):
        ExactParams(Fraction(0), Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1))


def test_exact_params_replace():
    ep = ExactParams.default().replace(sq=Fraction(1, 3))
    assert ep.q == Fraction(1, 9)
    assert ep.sa == Fraction(2, 3)
    assert ExactParams.default().replace(st="1/2").st == Fraction(1, 2)
    assert type(ExactParams.default().replace(sb=2).sb) is Fraction
    with pytest.raises(ValueError, match="sd"):
        ep.replace(sd=0)
    with pytest.raises(ValueError, match="sa"):
        ep.replace(sa="0")
    with pytest.raises(TypeError):
        ep.replace(sz=Fraction(1))


@pytest.mark.parametrize("bad", [0.1, 0.5, True], ids=["0.1", "0.5", "True"])
@pytest.mark.parametrize("name", ["sa", "st"])
def test_exact_params_refuses_float_and_bool_roots(name, bad):
    # Fraction(0.1) would silently keep the binary float's 55-bit fraction
    with pytest.raises(TypeError, match=name):
        ExactParams.default().replace(**{name: bad})


def test_exact_params_as_dict_keeps_root_order():
    assert ExactParams.default().as_dict() == {
        "sa": "2/3", "sb": "3/5", "sc": "5/7", "sd": "7/11", "sq": "1/2", "st": "2/5"
    }
    assert list(ExactParams.default().as_dict()) == ["sa", "sb", "sc", "sd", "sq", "st"]


def test_two_variable_bracket():
    c = Fraction(-2, 3)
    assert bracket_zw(3, 0, 2, c) == LaurentPoly(
        3, {(2, 0, 0): 1, (-2, 0, 0): 1, (0, 0, 2): -c, (0, 0, -2): -1 / c}
    )
    # [z_1; z_0] = [z_1; 1] - [z_0; 1]: the constants cancel
    assert bracket_zw(2, 1, 0) == bracket_za(2, 1, 1) - bracket_za(2, 0, 1)
    with pytest.raises(ValueError):
        bracket_zw(2, 0, 1, 0)
    with pytest.raises(ValueError):
        bracket_zw(2, 1, 1)


def test_bracket_factorial_poly_in_several_variables():
    a, q = Fraction(2), Fraction(1, 4)
    got = bracket_factorial_poly(a, q, 2, 3, 1)
    assert got == bracket_za(3, 1, a) * bracket_za(3, 1, a * q)
    assert bracket_factorial_poly(a, q, 0, 3, 1) == LaurentPoly.one(3)


def test_bracket_factorial_poly_basics():
    a, q = Fraction(2), Fraction(1, 4)
    assert bracket_factorial_poly(a, q, 0) == LaurentPoly.one(1)
    b1 = bracket_factorial_poly(a, q, 1)
    assert b1 == LaurentPoly(
        1, {(2,): Fraction(1), (-2,): Fraction(1), (0,): -(a + 1 / a)}
    )
    # monic of degree l on the doubled lattice
    b3 = bracket_factorial_poly(a, q, 3)
    assert b3.coefficient((6,)) == 1
    assert max(e[0] for e in b3.terms) == 6


def test_bracket_constant_vs_pochhammer_identity():
    # [a]_{t,l} = (-1)^l t^(-binom(l,2)/2) a^(-l/2) (a;t)_l with exact roots
    sa, st_ = Fraction(2, 3), Fraction(2, 5)
    a, t = sa**2, st_**2
    for l in range(5):
        lhs = bracket_factorial_const(sa, st_, l)
        poch = Fraction(1)
        for j in range(l):
            poch *= 1 - t**j * a
        rhs = (-1) ** l * st_ ** (-(l * (l - 1) // 2)) * sa ** (-l) * poch
        assert lhs == rhs


def test_bracket_const_zero_root_rejected():
    with pytest.raises(ValueError):
        bracket_const(Fraction(0))


def test_bracket_za_multivariate():
    b = bracket_za(2, 1, Fraction(3))
    assert b.coefficient((0, 2)) == 1
    assert b.coefficient((0, -2)) == 1
    assert b.coefficient((0, 0)) == -(Fraction(3) + Fraction(1, 3))


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    p = LaurentPoly(
        2,
        {
            (2, -1): Fraction(22, 7),
            (0, 0): Fraction(-3),
            (-4, 3): Fraction(1, 997),
        },
    )
    text = poly_dumps(p)
    back = poly_from_json(json.loads(text))
    assert back == p
    assert poly_dumps(back) == text


def test_json_terms_sorted_lexicographically():
    p = LaurentPoly(1, {(4,): Fraction(1), (-2,): Fraction(2), (0,): Fraction(3)})
    obj = poly_to_json(p)
    assert [t["exp"] for t in obj["terms"]] == [[-2], [0], [4]]
    assert obj["lattice"] == "half"


def test_json_rejects_bad_lattice():
    with pytest.raises(ValueError):
        poly_from_json({"vars": 1, "lattice": "full", "terms": []})
