"""Exact multivariate Laurent polynomials on a half-integer exponent lattice.

Everything downstream (difference operators in multiplicative variables,
Koornwinder and Macdonald polynomials, kernel expansions) is built on the
algebra in this module:

  * ``LaurentPoly``     sparse Laurent polynomials in m variables with exact
                        rational coefficients, stored as integer numerators
                        over one common denominator (the primitive-part form
                        of Geddes, Czapor and Labahn, *Algorithms for
                        Computer Algebra*, ch. 2), so products and sums run
                        on plain integers and pay one content gcd each.
                        Each ``terms`` call builds a fresh read-only
                        mapping of the coefficients as
                        ``fractions.Fraction``; there is no view class.
                        Exponents live on a DOUBLED
                        lattice: the integer vector ``e`` represents the
                        monomial ``prod_i z_i**(e_i/2)``, so half-integer
                        powers such as z**(1/2) - z**(-1/2) are exact
                        lattice points.  Each vector is stored packed into
                        one integer key of balanced 20-bit digits (see
                        ``LaurentPoly``), so a product adds keys and never
                        builds a tuple.  Every exponent entry must satisfy
                        |e| < 2**19; one that would not fit raises
                        ``ExponentOverflowError``.
  * ``Partition``       weakly decreasing integer tuples with containment,
                        conjugation and (BC) dominance order.
  * ``ExactParams``     Askey-Wilson parameter bundle (a,b,c,d,q,t) stored via
                        exact rational square roots, so alpha = (abcd/q)**(1/2)
                        and friends stay rational.
  * bracket helpers     the brackets [z_i;a] = z_i + 1/z_i - a - 1/a
                        (``bracket_za``) and [z_i; c z_j] (``bracket_zw``),
                        the shifted factorial [z_i;a]_{q,l} in m variables
                        (``bracket_factorial_poly``), and their constant
                        forms [c] = c**(1/2) - c**(-1/2), [x;y] and
                        [a]_{t,l} (``bracket_const``, ``bracket_pair_const``,
                        ``bracket_factorial_const``).
  * ``block_product``   f(z) g(w) in disjoint variables, as the expansion
                        checks in ``koornwinder`` pair them, and
                        ``truncate_degree``, f cut to a degree in z_0..z_(k-1).

All arithmetic is exact; there is no floating-point fallback anywhere in this
module.  Numeric evaluation happens only through ``LaurentPoly.eval_at``,
where the caller supplies a square root for every coordinate to fix
branches.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

Exponent = tuple[int, ...]
Scalar = Fraction | int

# ======================================================================
# errors
# ======================================================================


class VariableCountMismatch(ValueError):
    """Raised when two polynomials over different variable sets are combined."""


class InexactDivisionError(ArithmeticError):
    """Raised when a quotient of Laurent polynomials is not a Laurent polynomial.

    Carries enough context for callers to report the failure without crashing:
    the divisor and dividend term counts and the offending quotient exponent.
    """

    def __init__(self, message: str, offending_exponent: Exponent | None = None):
        super().__init__(message)
        self.offending_exponent = offending_exponent


class ExponentOverflowError(OverflowError):
    """Raised when a (doubled) exponent would leave the packed-key digit range.

    Every exponent entry must satisfy ``|e| < 2**19``; see ``LaurentPoly``.
    """


# ======================================================================
# packed exponent keys
# ======================================================================

# An exponent vector (e_0, ..., e_{m-1}) is stored as the integer
# sum_i e_i * 2**(20*(m-1-i)): balanced (signed) digits, most significant
# first, one fixed radix.  With every |e_i| < 2**19 the packing is one to
# one, integer order is lex order, and adding two keys adds the exponents.
_DIGIT_BITS = 20
_MASK = (1 << _DIGIT_BITS) - 1
_HALF = 1 << (_DIGIT_BITS - 1)


def _bias(m: int) -> int:
    """The key whose m digits all equal 2**19; adding it leaves each digit
    e_i + 2**19 in 1 .. 2**20 - 1, readable by shift and mask."""
    return _HALF * (((1 << (_DIGIT_BITS * m)) - 1) // _MASK)


def _check_bound(bound: int) -> int:
    """``bound`` (an upper bound on every |exponent|) when it fits a digit."""
    if bound >= _HALF:
        raise ExponentOverflowError(
            f"exponents up to {bound} in absolute value do not fit the packed "
            f"digit range |e| < {_HALF}"
        )
    return bound


def _pack(exp: Iterable[int]) -> int:
    key = 0
    for e in exp:
        key = (key << _DIGIT_BITS) + e
    return key


def _unpack_all(keys: Iterable[int], m: int) -> Iterator[Exponent]:
    bias = _bias(m)
    shifts = range(_DIGIT_BITS * (m - 1), -1, -_DIGIT_BITS)
    for key in keys:
        key += bias
        yield tuple(((key >> s) & _MASK) - _HALF for s in shifts)


def _unpack(key: int, m: int) -> Exponent:
    return next(_unpack_all((key,), m))


def _key_of(exp: Sequence[int], m: int) -> int | None:
    """Key of ``exp``, or None when no stored term can have that exponent."""
    if len(exp) != m or any(not -_HALF < e < _HALF for e in exp):
        return None
    return _pack(exp)


def _check_var(m: int, i: int) -> None:
    if not 0 <= i < m:
        raise IndexError(f"variable index {i} out of range for m={m}")


def _unit(m: int, i: int, e2: int) -> Exponent:
    """The (doubled) exponent of z_i**(e2/2) in m variables."""
    _check_var(m, i)
    exps = [0] * m
    exps[i] = e2
    return tuple(exps)


# ======================================================================
# LaurentPoly
# ======================================================================


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact scalar expected, got {type(c).__name__}")


def _gcd_with(g: int, values: Iterable[int]) -> int:
    """gcd of ``g`` and every value, stopping as soon as it reaches 1."""
    for n in values:
        if g == 1:
            break
        g = gcd(g, n)
    return g


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The integer numerators of the product of two numerator dicts, zero
    terms dropped, with no gcd: the caller owns the scale."""
    if len(a) > len(b):
        a, b = b, a
    large = list(b.items())
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in large:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return {key: n for key, n in out.items() if n}


def _digit_moves(m: int, perm: Sequence[int]) -> list[tuple[int, int]]:
    """(shift_i, 2**shift_perm[i] - 2**shift_i) for each digit ``perm``
    moves: a key relabelled by ``perm`` is ``key`` plus, for each move, the
    biased digit ``(key + _bias(m)) >> shift_i & _MASK`` times the weight.
    The biased digits exceed e_i by 2**19 each and the weights sum to zero,
    so biased digits shift a key as the signed ones do."""
    shifts = [_DIGIT_BITS * (m - 1 - i) for i in range(m)]
    return [
        (shifts[i], (1 << shifts[p]) - (1 << shifts[i]))
        for i, p in enumerate(perm)
        if p != i
    ]


def _moved_items(
    num: dict[int, int], m: int, moves: list[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """(relabelled key, numerator) for each term of ``num``, the keys moved
    by ``moves`` from ``_digit_moves``."""
    bias = _bias(m)
    for key, n in num.items():
        biased = key + bias
        for shift, weight in moves:
            key += (biased >> shift & _MASK) * weight
        yield key, n


def _shift_factors(
    num: dict[int, int], m: int, i: int, s: Fraction
) -> tuple[list[int], int, list[int], int]:
    """How ``z_i -> s**2 z_i`` scales the terms of ``num`` (nonempty).

    Returns digit i of each key, in ``num``'s order, their minimum ``lo``,
    a table and an integer Q: the term with digit e is multiplied by
    ``table[e - lo] / Q``.  With s = p/q and digits lo..hi, s**e is
    (p**lo / q**hi) * p**(e - lo) * q**(hi - e), so with P/Q = p**lo / q**hi
    in lowest terms ``table[e - lo] = P * p**(e - lo) * q**(hi - e)``.
    """
    shift = _DIGIT_BITS * (m - 1 - i)
    bias = _bias(m)
    digits = [((key + bias) >> shift & _MASK) - _HALF for key in num]
    lo = min(digits)
    hi = max(digits)
    p, q = s.numerator, s.denominator
    scale = Fraction(p) ** lo / Fraction(q) ** hi
    p_pow = [scale.numerator]
    q_pow = [1]
    for _ in range(hi - lo):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    table = [a * b for a, b in zip(p_pow, reversed(q_pow))]
    return digits, lo, table, scale.denominator


class LaurentPoly:
    """Sparse exact Laurent polynomial in ``m`` variables (doubled lattice).

    Stored as ``_num``, a dict from packed exponent key to nonzero integer
    numerator, over one integer denominator ``_den``.  A key holds the
    exponent vector as balanced 20-bit digits, most significant first
    (``e_0 * 2**(20*(m-1)) + ... + e_{m-1}``), so a product adds keys and
    ``max`` over keys is the lex-leading term.  Every exponent entry must
    satisfy ``|e| < 2**19``: ``_exp_bound``, an upper bound on every |entry|
    (the exact maximum at construction, the sum of the operands' bounds
    under a product and the larger of them under a sum), is checked before
    any key could leave that range, and ``ExponentOverflowError`` is raised
    instead.  The form is canonical: ``_den > 0`` and the gcd of ``_den``
    with every numerator is 1, so equal polynomials have equal fields and
    ``==`` and ``hash`` compare them directly.  ``_from_scaled`` is the one
    canonicaliser for integer numerators under a rational scale;
    ``_from_parts`` only wraps numerators this module has already proven
    canonical: after a negation, an inversion or a permutation of a
    canonical polynomial, in a product whose operands were cross-cancelled,
    or in an orbit expansion.  No other module packs keys or wraps
    numerators.  Instances are immutable: every operation returns a new
    polynomial.  Each ``terms`` call builds a fresh read-only mapping keyed
    by exponent tuples, a ``MappingProxyType`` over a new dict; there is no
    view class.
    """

    __slots__ = ("m", "_num", "_den", "_exp_bound")

    def __init__(self, m: int, terms: Mapping[Exponent, Scalar] | None = None):
        if m < 0:
            raise ValueError("variable count must be nonnegative")
        self.m = m
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                key = tuple(exp)
                if len(key) != m:
                    raise VariableCountMismatch(
                        f"exponent {key} has length {len(key)}, expected {m}"
                    )
                val = _as_fraction(coeff)
                if val:
                    clean[key] = val
        self._exp_bound = _check_bound(
            max(map(abs, itertools.chain.from_iterable(clean)), default=0)
        )
        # over the lcm of reduced denominators, every prime of the lcm misses
        # the numerator whose denominator carries its full power: canonical
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {
            _pack(e): c.numerator * (den // c.denominator) for e, c in clean.items()
        }
        self._den = den

    @classmethod
    def _from_parts(
        cls, m: int, num: dict[int, int], den: int, exp_bound: int
    ) -> "LaurentPoly":
        """Wrap numerators that are already nonzero and canonical over ``den``;
        ``exp_bound`` bounds every |exponent| and is below 2**19."""
        res = cls.__new__(cls)
        res.m = m
        res._num = num
        res._den = den
        res._exp_bound = exp_bound
        return res

    @classmethod
    def _from_scaled(
        cls, m: int, num: dict[int, int], scale: Fraction, exp_bound: int
    ) -> "LaurentPoly":
        """Canonical polynomial ``scale * num`` from nonzero integer
        numerators and a nonzero ``scale``; ``exp_bound`` bounds every
        |exponent|.  An empty ``num`` gives the zero polynomial, over 1."""
        a, b = scale.numerator, scale.denominator
        # gcd(a, b) = 1, so b shares with the content of a * num only
        # gcd(content, b): one gcd pass, then one pass to scale
        g = _gcd_with(b, num.values())
        if g != 1 or a != 1:
            num = {key: n // g * a for key, n in num.items()}
        return cls._from_parts(m, num, b // g, exp_bound)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "LaurentPoly":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "LaurentPoly":
        return cls.const(m, 1)

    @classmethod
    def const(cls, m: int, c: Scalar) -> "LaurentPoly":
        return cls(m, {(0,) * m: _as_fraction(c)})

    @classmethod
    def monomial(cls, m: int, exps: Sequence[int], coeff: Scalar = 1) -> "LaurentPoly":
        """Monomial with DOUBLED exponents ``exps`` (so (2,) means z**1)."""
        return cls(m, {tuple(exps): _as_fraction(coeff)})

    @classmethod
    def var_power(cls, m: int, i: int, e2: int, coeff: Scalar = 1) -> "LaurentPoly":
        """``coeff * z_i**(e2/2)`` as a polynomial in ``m`` variables."""
        return cls.monomial(m, _unit(m, i, e2), coeff)

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only mapping from (doubled) exponent to ``Fraction`` coefficient,
        built afresh on each call by unpacking every stored key once."""
        den = self._den
        coeffs = (Fraction(n, den) for n in self._num.values())
        return MappingProxyType(dict(zip(_unpack_all(self._num, self.m), coeffs)))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(_key_of(tuple(exps), self.m), 0), self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return (
                self.m == other.m
                and self._den == other._den
                and self._num == other._num
            )
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(self.m, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return "LaurentPoly(0)"
        bits = []
        keys = sorted(self._num)
        for key, exp in zip(keys, _unpack_all(keys, self.m)):
            mono = "*".join(
                f"z{i}^({e}/2)" for i, e in enumerate(exp) if e
            ) or "1"
            bits.append(f"{Fraction(self._num[key], self._den)}*{mono}")
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- ring operations ------------------------------------------------

    def _check_m(self, other: "LaurentPoly") -> None:
        if self.m != other.m:
            raise VariableCountMismatch(
                f"operand variable counts differ: {self.m} vs {other.m}"
            )

    def _combine(self, other: "LaurentPoly | Scalar", sign: int) -> "LaurentPoly":
        """``self + sign * other`` for sign +-1, in one pass over the common
        denominator."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.m, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_m(other)
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        out = {e: n * s1 for e, n in self._num.items()}
        get = out.get
        for key, n in other._num.items():
            out[key] = get(key, 0) + n * s2
        out = {e: n for e, n in out.items() if n}
        exp_bound = max(self._exp_bound, other._exp_bound)
        return LaurentPoly._from_scaled(self.m, out, Fraction(1, d1 * s1), exp_bound)

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_parts(
            self.m,
            {key: -n for key, n in self._num.items()},
            self._den,
            self._exp_bound,
        )

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self._combine(other, -1)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return LaurentPoly.zero(self.m)
            return LaurentPoly._from_scaled(
                self.m, self._num, c / self._den, self._exp_bound
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_m(other)
        a, b = self._num, other._num
        if not a or not b:
            return LaurentPoly.zero(self.m)
        exp_bound = _check_bound(self._exp_bound + other._exp_bound)
        # By Gauss's lemma the content of a product is the product of the
        # contents, so with gcd(content_a, den_a) = gcd(content_b, den_b) = 1
        # the product reduces by exactly gcd(content_a, den_b) *
        # gcd(content_b, den_a).  Cancel both in the operands, before the
        # convolution, rather than in the larger product.
        g_a = _gcd_with(other._den, a.values())
        g_b = _gcd_with(self._den, b.values())
        if g_a != 1:
            a = {e: n // g_a for e, n in a.items()}
        if g_b != 1:
            b = {e: n // g_b for e, n in b.items()}
        den = (self._den // g_b) * (other._den // g_a)
        return LaurentPoly._from_parts(self.m, _convolve(a, b), den, exp_bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- substitutions and symmetries -----------------------------------

    def substitute(
        self,
        i: int,
        sqrt_scale: Scalar = 1,
        invert: bool = False,
    ) -> "LaurentPoly":
        """Apply ``z_i -> sqrt_scale**2 * z_i**(+-1)`` exactly.

        The scale is passed through its square root so that odd points of the
        doubled lattice (genuine half powers of z_i) pick up the exact factor
        ``sqrt_scale**e`` with no root extraction.  With ``sqrt_scale = p/q``
        and ``e`` ranging over ``lo..hi``, the term at ``e`` is multiplied by
        the integer ``p**(e - lo) * q**(hi - e)`` and the whole polynomial by
        the one rational ``p**lo / q**hi``; a single content gcd then makes
        the result canonical.
        """
        _check_var(self.m, i)
        s = _as_fraction(sqrt_scale)
        if not s:
            raise ValueError("substitution scale must be nonzero")
        if not self._num:
            return self
        digits, lo, table, big_q = _shift_factors(self._num, self.m, i, s)
        out: dict[int, int] = {}
        # e -> e and e -> -e are both one-to-one, so no two terms collide
        unit = -2 << _DIGIT_BITS * (self.m - 1 - i) if invert else 0
        for (key, n), e in zip(self._num.items(), digits):
            out[key + e * unit] = n * table[e - lo]
        return LaurentPoly._from_scaled(
            self.m, out, Fraction(1, self._den * big_q), self._exp_bound
        )

    def invert_all(self) -> "LaurentPoly":
        """``z_i -> 1/z_i`` for every variable simultaneously."""
        return LaurentPoly._from_parts(
            self.m,
            {-key: n for key, n in self._num.items()},
            self._den,
            self._exp_bound,
        )

    def permute(self, perm: Sequence[int]) -> "LaurentPoly":
        """Relabel variables: output variable ``perm[i]`` carries old ``z_i``.

        Only the digits the permutation moves are touched: digit ``e_i`` of
        a key is read by shift and mask and added back as
        ``e_i * (2**s_perm[i] - 2**s_i)``, so a transposition costs two
        digit reads per term.
        """
        m = self.m
        if sorted(perm) != list(range(m)):
            raise ValueError(f"not a permutation of 0..{m - 1}: {perm}")
        moves = _digit_moves(m, perm)
        if not moves:
            return self
        out = dict(_moved_items(self._num, m, moves))
        return LaurentPoly._from_parts(m, out, self._den, self._exp_bound)

    # -- numeric evaluation ---------------------------------------------

    def _check_point(self, point: Sequence) -> None:
        if len(point) != self.m:
            raise VariableCountMismatch(
                f"point has {len(point)} coordinates, expected {self.m}"
            )

    def eval_at(self, sqrt_point: Sequence[complex]) -> complex:
        """Evaluate at ``z_i = sqrt_point[i]**2``.

        The caller supplies ``s_i`` with ``s_i**2 = z_i``; the monomial with
        doubled exponent ``e`` evaluates to ``prod s_i**e_i``, which fixes all
        square-root branches explicitly.
        """
        self._check_point(sqrt_point)
        for s in sqrt_point:
            if s == 0:
                raise ZeroDivisionError("zero coordinate in Laurent evaluation")
        den = self._den
        total = 0j
        for exp, n in zip(_unpack_all(self._num, self.m), self._num.values()):
            # integer true division rounds n/den correctly, as float(Fraction) does
            value = complex(n / den)
            for s, e in zip(sqrt_point, exp):
                if e:
                    value *= complex(s) ** e
            total += value
        return total

    def eval_exact(self, sqrt_point: Sequence[Scalar]) -> Fraction:
        """Exact value at ``z_i = sqrt_point[i]**2`` for rational ``sqrt_point``.

        Runs on integers over one common denominator.  ``_shift_factors``
        gives each coordinate's digits, power table and Q, so the term at
        ``e`` is its numerator times ``prod_i table_i[e_i - lo_i]`` and the
        sum is divided once by the polynomial's denominator times
        ``prod_i Q_i``.  A zero coordinate raises ``ZeroDivisionError`` where
        its variable has a negative power, and one neither an int nor a
        ``Fraction`` raises ``TypeError``.
        """
        self._check_point(sqrt_point)
        point = [_as_fraction(s) for s in sqrt_point]
        if not self._num:
            return Fraction(0)
        values = list(self._num.values())
        den = self._den
        for i, s in enumerate(point):
            digits, lo, table, big_q = _shift_factors(self._num, self.m, i, s)
            values = [v * table[e - lo] for v, e in zip(values, digits)]
            den *= big_q
        return Fraction(sum(values), den)


def block_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f(z) g(w) in f.m + g.m variables, z first: the key of a term is f's
    key shifted past g's m digits plus g's key, so no term is unpacked."""
    if not f or not g:
        return LaurentPoly.zero(f.m + g.m)
    shift = _DIGIT_BITS * g.m
    num = {
        (kf << shift) + kg: nf * ng
        for kf, nf in f._num.items()
        for kg, ng in g._num.items()
    }
    bound = max(f._exp_bound, g._exp_bound)
    return LaurentPoly._from_scaled(f.m + g.m, num, Fraction(1, f._den * g._den), bound)


def truncate_degree(f: LaurentPoly, k: int, cap: int) -> LaurentPoly:
    """The terms of f of total degree at most ``cap`` in z_0 .. z_(k-1), read
    off the biased digits (e_i + 2**19) of the packed keys; a subset of
    canonical numerators need not be canonical, so ``_from_scaled`` rebuilds."""
    bias, top = _bias(f.m), 2 * cap + k * _HALF
    shifts = [_DIGIT_BITS * (f.m - 1 - i) for i in range(k)]
    kept = {
        key: n for key, n in f._num.items() if sum(key + bias >> s & _MASK for s in shifts) <= top
    }
    return LaurentPoly._from_scaled(f.m, kept, Fraction(1, f._den), f._exp_bound)


# ======================================================================
# exact division
# ======================================================================


def _primitive(num: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Content (positive gcd of the numerators) and primitive part."""
    c = gcd(*num.values())
    if c == 1:
        return 1, num
    return c, {e: n // c for e, n in num.items()}


def _primitive_form(g: LaurentPoly) -> tuple[Fraction, dict[int, int]]:
    """(den / content, primitive numerators) of a nonzero ``g``: dividing by
    g divides by the primitive numerators and multiplies by the scale."""
    content, prim = _primitive(g._num)
    return Fraction(g._den, content), prim


def _digit_ranges(num: dict[int, int], m: int) -> list[tuple[int, int]]:
    """(min, max) of each exponent coordinate, read by shift and mask."""
    bias = _bias(m)
    biased = [key + bias for key in num]
    ranges = []
    for shift in range(_DIGIT_BITS * (m - 1), -1, -_DIGIT_BITS):
        digits = [(key >> shift) & _MASK for key in biased]
        ranges.append((min(digits) - _HALF, max(digits) - _HALF))
    return ranges


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``f / g``; raises ``InexactDivisionError`` otherwise.

    Only the divisor is made primitive: with g = (content_g / den_g) * g_prim,
    ``_divide_integers`` divides f's integer numerators by g_prim, and the
    quotient is scaled once by den_g / (den_f * content_g) and reduced by one
    gcd.  By Gauss's lemma an exact quotient of an integer polynomial by a
    primitive one has integer coefficients, so f needs no content pass.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.m)
    f._check_m(g)
    g_scale, g_prim = _primitive_form(g)
    quotient, q_bound = _divide_integers(
        f._num, f._exp_bound, g_prim, g._exp_bound, f.m
    )
    return LaurentPoly._from_scaled(f.m, quotient, g_scale / f._den, q_bound)


def _divide_integers(
    num: dict[int, int], num_bound: int, g_prim: dict[int, int], g_bound: int, m: int
) -> tuple[dict[int, int], int]:
    """Integer quotient of the numerators ``num`` by the primitive ``g_prim``,
    and a bound on its |exponents|; raises ``InexactDivisionError`` when the
    division is not exact.  Neither dict is changed.

    Lex leading-term cancellation.  By Gauss's lemma an exact quotient of an
    integer polynomial by a primitive one has integer coefficients, so each
    step is one ``divmod`` by g's leading integer, and a nonzero remainder
    certifies that the division is not exact.  Every quotient exponent of an
    exact division also lies in the per-coordinate box

        min_i(f) - max_i(g) <= e_i <= max_i(f) - min_i(g),

    so stepping outside the box certifies it too; inside the box the
    strictly lex-decreasing remainder leads force termination.

    Each step pops the remainder's lead from a max-heap of its packed keys
    (heap-ordered division, after Monagan and Pearce, CASC 2007) instead of
    scanning the whole remainder: a key is pushed when a step creates it,
    and a popped key that has since cancelled is skipped.  A processed lead
    never returns, since every key a step creates lies below it, so the
    steps are those of the scan.  The box is checked on the packed quotient
    key, digit by digit against biased bounds; an exponent tuple is
    unpacked only for an error.

    A multiple c * h of a primitive dividend h takes the same steps as h with
    every coefficient times c, so it can pass a ``divmod`` that h fails and
    refuse only at a later step.  A refused division is therefore run again
    on the dividend's primitive part, and the error is always the one the
    primitive dividend gives: it does not depend on the dividend's scale.
    """
    if not num:
        return {}, 0
    # a quotient exponent inside the box is at most num_bound + g_bound, a
    # remainder exponent num_bound + 2 g_bound and their difference with g's
    # lead num_bound + 3 g_bound: below 2**19, every key below stays exact
    _check_bound(num_bound + 3 * g_bound)
    f_ranges = _digit_ranges(num, m)
    g_ranges = _digit_ranges(g_prim, m)
    lo = [f_lo - g_hi for (f_lo, _), (_, g_hi) in zip(f_ranges, g_ranges)]
    hi = [f_hi - g_lo for (_, f_hi), (g_lo, _) in zip(f_ranges, g_ranges)]
    # (shift, lo_i + 2**19, hi_i + 2**19): the box on the biased digits
    shifts = range(_DIGIT_BITS * (m - 1), -1, -_DIGIT_BITS)
    box = [(s, a + _HALF, b + _HALF) for s, a, b in zip(shifts, lo, hi)]
    bias = _bias(m)
    g_lead = max(g_prim)
    g_lead_coeff = g_prim[g_lead]
    g_rest = [(e, c) for e, c in g_prim.items() if e != g_lead]

    def inexact(q_key: int, why: str) -> InexactDivisionError:
        return InexactDivisionError(
            f"{why}; division of {len(num)}-term by {len(g_prim)}-term "
            "polynomial is not exact",
            offending_exponent=_unpack(q_key, m),
        )

    def run(dividend: dict[int, int]) -> dict[int, int]:
        remainder = dict(dividend)
        heap = [-key for key in remainder]
        heapq.heapify(heap)
        quotient: dict[int, int] = {}
        get = remainder.get
        push, pop = heapq.heappush, heapq.heappop
        while remainder:
            r_lead = -pop(heap)
            if r_lead not in remainder:
                continue  # cancelled after it was pushed
            q_key = r_lead - g_lead
            biased = q_key + bias
            for shift, d_lo, d_hi in box:
                if not d_lo <= (biased >> shift & _MASK) <= d_hi:
                    raise inexact(q_key, "quotient exponent escapes the exact-division box")
            q_coeff, rest = divmod(remainder.pop(r_lead), g_lead_coeff)
            if rest:
                raise inexact(q_key, "quotient coefficient is not an integer")
            quotient[q_key] = q_coeff
            for e, c in g_rest:
                key = q_key + e
                old = get(key)
                if old is None:
                    # q_coeff and c are nonzero, so the new term is too
                    remainder[key] = -q_coeff * c
                    push(heap, -key)
                else:
                    new = old - q_coeff * c
                    if new:
                        remainder[key] = new
                    else:
                        del remainder[key]
        return quotient

    # every quotient exponent passes the box check
    q_bound = max(map(abs, lo + hi), default=0)
    try:
        return run(num), q_bound
    except InexactDivisionError as exc:
        content, prim = _primitive(num)
        if content == 1:
            raise
        refused = exc
    run(prim)  # refuses too: prim / g is exact exactly when num / g is
    raise refused


def _divide_binomials(
    num: dict[int, int], num_bound: int, factors: Sequence[dict[int, int]],
    g_prim: dict[int, int], g_bound: int, m: int,
) -> tuple[dict[int, int], int]:
    """``_divide_integers(num, num_bound, g_prim, g_bound, m)`` for g_prim the
    product of the primitive two-term ``factors``: the same quotient and
    bound, or the same error.  Neither dict is changed.

    For each factor a X^u + b X^v in turn, u > v as keys, each line of the
    dividend along d = u - v is walked from its top: the remainder n at key
    k gives the quotient term n / a at k - u, whose b-term falls on the next
    key k - d, until a remainder cancels.  That is one ``divmod`` (none for
    a = 1) and one multiply-subtract (an add for b = -1) per term, and no
    heap; by Gauss's lemma each exact step has an integer quotient.  A
    ``divmod`` remainder refuses, and so does a walk before its quotient key
    leaves the box of ``_divide_integers`` (taken on the previous step's
    box), so no key it reads has a digit outside its range, whichever digit
    d leads with.  A refusal reruns the original dividend in
    ``_divide_integers``, which raises ``divide_exact``'s error.
    """
    if not num:
        return {}, 0
    _check_bound(num_bound + 3 * g_bound)

    def refuse() -> None:
        _divide_integers(num, num_bound, g_prim, g_bound, m)
        raise RuntimeError("an exact division refused a binomial step")

    bias = _bias(m)
    shifts = range(_DIGIT_BITS * (m - 1), -1, -_DIGIT_BITS)
    ranges = _digit_ranges(num, m)
    dividend = dict(num)
    for factor in factors:
        (u, a), (v, b) = sorted(factor.items(), reverse=True)
        d = u - v
        box, moving = [], []  # moving: (shift, step, the box's biased end)
        for s, (lo, hi) in zip(shifts, ranges):
            e_u, e_v = (u + bias >> s & _MASK) - _HALF, (v + bias >> s & _MASK) - _HALF
            box.append((lo - max(e_u, e_v), hi - min(e_u, e_v)))
            if e_u != e_v:  # a walk moves this digit down to lo or up to hi
                moving.append((s, e_u - e_v, box[-1][e_u < e_v] + _HALF))
        ranges = box
        (s_0, step_0, end_0), *more = moving
        pop = dividend.pop
        quotient: dict[int, int] = {}
        for key in sorted(dividend, reverse=True):
            n = pop(key, 0)
            if not n:
                continue  # a walk from above took it
            # a walk's first quotient key lies in the box, so its next read
            # is in range; if the walk goes on, the floor keeps every later
            # quotient key in the box
            top, floor = key, key - d
            while True:
                if a != 1:
                    n, r = divmod(n, a)
                    if r:
                        refuse()
                quotient[key - u] = n
                key -= d
                if key < floor:
                    biased = top - u + bias
                    steps = ((biased >> s_0 & _MASK) - end_0) // step_0
                    for s, step, end in more:
                        steps = min(steps, ((biased >> s & _MASK) - end) // step)
                    floor = top - steps * d
                    if key < floor:
                        refuse()
                n = pop(key, 0) + n if b == -1 else pop(key, 0) - n * b
                if not n:
                    break
        dividend = quotient
    return dividend, max(map(abs, itertools.chain.from_iterable(ranges)))


def sqrt_fraction(x: Fraction | int) -> Fraction:
    """Exact square root of a nonnegative rational; raises if irrational."""
    from math import isqrt

    x = Fraction(x)
    if x < 0:
        raise ValueError("cannot take a real square root of a negative rational")
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)


# ======================================================================
# partitions
# ======================================================================


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = list(parts)
        for p in cleaned:
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers: {cleaned}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.parts: tuple[int, ...] = tuple(cleaned)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """Part ``i`` (0-based), with implicit zeros past the length."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def padded(self, m: int) -> tuple[int, ...]:
        if len(self.parts) > m:
            raise ValueError(f"partition {self.parts} does not fit in {m} variables")
        return self.parts + (0,) * (m - len(self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        )

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams: ``self >= other`` part by part."""
        return all(self.part(i) >= other.part(i) for i in range(len(other)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """BC dominance: all prefix sums of mu bounded by lam's AND |mu| <= |lam|.

    The inhomogeneous convention (weight may drop) is the one that makes the
    triangular expansions of the Koornwinder theory literal: constants are
    comparable to everything above them.
    """
    if mu.size > lam.size:
        return False
    n = max(len(mu), len(lam))
    s_mu = 0
    s_lam = 0
    for i in range(n):
        s_mu += mu.part(i)
        s_lam += lam.part(i)
        if s_mu > s_lam:
            return False
    return True


def partitions_in_box(max_length: int, max_part: int) -> list[Partition]:
    """All partitions fitting in a ``max_length x max_part`` box."""
    results: list[Partition] = []

    def rec(prefix: list[int], remaining: int, cap: int) -> None:
        results.append(Partition(prefix))
        if remaining == 0:
            return
        for p in range(min(cap, max_part), 0, -1):
            rec(prefix + [p], remaining - 1, p)

    rec([], max_length, max_part)
    return sorted(results, key=lambda p: (p.size, p.parts))


def partitions_of(n: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of ``n`` with at most ``max_length`` parts."""
    cap = n if max_length is None else max_length
    return [p for p in partitions_in_box(cap, n) if p.size == n]


# ======================================================================
# hyperoctahedral orbit sums and invariance
# ======================================================================


def _orbit_keys(padded: tuple[int, ...]) -> Iterator[int]:
    """Packed keys of the hyperoctahedral orbit of a padded label: every
    distinct permutation, then every sign choice on its nonzero entries
    (the first entry's sign varying slowest), each key once."""
    shifts = range(_DIGIT_BITS * (len(padded) - 1), -1, -_DIGIT_BITS)
    for perm in set(itertools.permutations(padded)):
        keys = [0]
        for e, shift in zip(perm, shifts):
            if e:
                step = (2 * e) << shift
                keys = [key + s for key in keys for s in (step, -step)]
        yield from keys


def _sym_orbit_keys(padded: tuple[int, ...]) -> Iterator[int]:
    """Packed keys of the symmetric-group orbit of a padded label."""
    for perm in set(itertools.permutations(padded)):
        yield _pack(2 * e for e in perm)


def _label_bound(part: Partition) -> int:
    """Exponent bound of an orbit sum: twice its largest part."""
    return _check_bound(2 * part.part(0))


def orbit_sum(mu: Partition | Sequence[int], m: int) -> LaurentPoly:
    """Monomial orbit sum m_mu(z) = sum of z**nu over the W-orbit of mu.

    W is the hyperoctahedral group (signed permutations); each distinct
    monomial appears exactly once with coefficient 1.
    """
    return orbit_expansion([mu], [1], 1, m)


def is_W_invariant(f: LaurentPoly) -> bool:
    """Exact invariance under the hyperoctahedral generators.

    Checks the adjacent transpositions and the inversion of the last
    variable; these generate the full group of signed permutations.
    """
    m = f.m
    if m == 0:
        return True
    for i in range(m - 1):
        perm = list(range(m))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if f.permute(perm) != f:
            return False
    return f.substitute(m - 1, invert=True) == f


def sym_orbit_sum(mu: Partition | Sequence[int], m: int) -> LaurentPoly:
    """Symmetric-group orbit sum (no sign flips), for the type-A theory."""
    return orbit_expansion([mu], [1], 1, m, signed=False)


def orbit_expansion(
    labels: Sequence[Partition],
    coeffs: Sequence[int],
    den: int,
    m: int,
    signed: bool = True,
) -> LaurentPoly:
    """sum_nu coeffs[nu] * m_nu / den in one pass, for distinct labels.

    The orbit sums are hyperoctahedral (:func:`orbit_sum`) when ``signed``
    and symmetric-group ones (:func:`sym_orbit_sum`) otherwise.  Orbits of
    distinct labels share no monomial, so each orbit's keys go straight
    into one numerator dict, in label order; the coefficients are brought
    to lowest terms with ``den`` once, not per term.
    """
    if not den:
        raise ZeroDivisionError("orbit expansion over a zero denominator")
    parts = [mu if isinstance(mu, Partition) else Partition(mu) for mu in labels]
    if len(parts) != len(coeffs):
        raise ValueError(f"{len(parts)} labels for {len(coeffs)} coefficients")
    if len({mu.parts for mu in parts}) != len(parts):
        raise ValueError("orbit expansion needs distinct labels")
    g = gcd(den, *coeffs)
    if den < 0:
        g = -g
    keys_of = _orbit_keys if signed else _sym_orbit_keys
    num: dict[int, int] = {}
    bound = 0
    for mu, c in zip(parts, coeffs):
        if c:
            num.update(dict.fromkeys(keys_of(mu.padded(m)), c // g))
            bound = max(bound, _label_bound(mu))
    return LaurentPoly._from_parts(m, num, den // g, bound)


# ======================================================================
# Askey-Wilson parameter bundle
# ======================================================================

# Capacity of the parameter-keyed caches: the polynomials solved for in
# ``koornwinder`` and the exact Koornwinder operator's factors in
# ``operators``.  Unbounded, they would keep every entry for as long as the
# process lives, so a caller sweeping parameters would grow without limit.
# 64 polynomials hold the whole 3 x 3 box for m = 1..3 at one parameter set
# (34 labels).  The bases and solve frames (``koornwinder.koorn_basis`` and
# ``_solve_frame``), keyed by basis and not by parameters, share the bound.
_POLY_CACHE_SIZE = 64


@dataclass(frozen=True)
class ExactParams:
    """Square-rational Askey-Wilson parameters.

    Stores the square roots sa..st, so a = sa**2, ..., t = st**2 and every
    square root the formulas call for (alpha = (abcd/q)**(1/2), (qt)**(1/2)/a,
    q**(1/2) prefactors) is an exact rational.  The hash, the one a frozen
    dataclass gives, is computed once per instance: every polynomial-cache
    lookup takes it, and hashing six Fractions runs in Python.
    """

    sa: Fraction
    sb: Fraction
    sc: Fraction
    sd: Fraction
    sq: Fraction
    st: Fraction

    def __post_init__(self) -> None:
        for root in fields(self):
            value = getattr(self, root.name)
            if isinstance(value, (bool, float)):
                # Fraction(0.1) is the binary float, not 1/10
                raise TypeError(
                    f"square root {root.name} must be an int, a Fraction or a "
                    f"rational string, not {type(value).__name__}: {value!r}"
                )
            if not isinstance(value, Fraction):
                value = Fraction(value)
                object.__setattr__(self, root.name, value)
            if not value:
                raise ValueError(f"square root {root.name} must be nonzero")
        object.__setattr__(
            self, "_hash", hash(tuple(getattr(self, root.name) for root in fields(self)))
        )

    def __hash__(self) -> int:
        return self._hash

    # squared values
    @property
    def a(self) -> Fraction:
        return self.sa**2

    @property
    def b(self) -> Fraction:
        return self.sb**2

    @property
    def c(self) -> Fraction:
        return self.sc**2

    @property
    def d(self) -> Fraction:
        return self.sd**2

    @property
    def q(self) -> Fraction:
        return self.sq**2

    @property
    def t(self) -> Fraction:
        return self.st**2

    @property
    def alpha(self) -> Fraction:
        """(abcd/q)**(1/2) = sa sb sc sd / sq, exactly."""
        return self.sa * self.sb * self.sc * self.sd / self.sq

    def sqrt_qt_over_a(self) -> Fraction:
        """(qt)**(1/2)/a = sq st / sa**2, exactly."""
        return self.sq * self.st / self.a

    @classmethod
    def default(cls) -> "ExactParams":
        return cls(
            sa=Fraction(2, 3),
            sb=Fraction(3, 5),
            sc=Fraction(5, 7),
            sd=Fraction(7, 11),
            sq=Fraction(1, 2),
            st=Fraction(2, 5),
        )

    def replace(self, **kwargs: Fraction) -> "ExactParams":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, str]:
        return {root.name: str(getattr(self, root.name)) for root in fields(self)}


# ======================================================================
# brackets: [z;a], [z;a]_{q,l}, [a]_{t,l}
# ======================================================================


def bracket_za(m: int, i: int, a: Fraction) -> LaurentPoly:
    """[z_i; a] = z_i + 1/z_i - a - 1/a as a polynomial in m variables."""
    a = _as_fraction(a)
    if not a:
        raise ValueError("bracket constant must be nonzero")
    return LaurentPoly(
        m, {_unit(m, i, 2): 1, _unit(m, i, -2): 1, (0,) * m: -(a + 1 / a)}
    )


def bracket_zw(m: int, i: int, j: int, c: Scalar = 1) -> LaurentPoly:
    """[z_i; c z_j] = z_i + 1/z_i - c z_j - 1/(c z_j) in m variables, i != j."""
    c = _as_fraction(c)
    if not c:
        raise ValueError("bracket scale must be nonzero")
    if i == j:
        raise ValueError("a two-variable bracket needs two distinct variables")
    return LaurentPoly(
        m,
        {
            _unit(m, i, 2): 1,
            _unit(m, i, -2): 1,
            _unit(m, j, 2): -c,
            _unit(m, j, -2): -1 / c,
        },
    )


def _two_term(m: int, entries: dict[int, int], root: Fraction) -> LaurentPoly:
    """root * z^(e/2) - (1/root) * z^(-e/2) for the monomial described by
    entries {var: doubled exponent}, such as [a z_i] or [t z_i / z_j]: with
    root = n/d, the integers n^2 and -d^2 over n d."""
    up = [0] * m
    for var, e2 in entries.items():
        up[var] = e2
    n, d = root.numerator, root.denominator
    key = _pack(up)
    return LaurentPoly._from_scaled(
        m, {key: n * n, -key: -d * d}, Fraction(1, n * d), max(map(abs, up))
    )


def bracket_factorial_poly(
    a: Fraction, q: Fraction, l: int, m: int = 1, i: int = 0
) -> LaurentPoly:
    """[z_i;a]_{q,l} = [z_i;a][z_i;qa]...[z_i;q^{l-1}a] in m variables,
    monic of degree l in z_i."""
    if l < 0:
        raise ValueError("factorial length must be nonnegative")
    a = _as_fraction(a)
    q = _as_fraction(q)
    out = LaurentPoly.one(m)
    for j in range(l):
        out = out * bracket_za(m, i, a * q**j)
    return out


def bracket_const(sqrt_c: Fraction) -> Fraction:
    """[c] = c**(1/2) - c**(-1/2), taking the square root as input."""
    s = _as_fraction(sqrt_c)
    if not s:
        raise ValueError("bracket square root must be nonzero")
    return s - 1 / s


def bracket_pair_const(sqrt_x: Fraction, sqrt_y: Fraction) -> Fraction:
    """[x;y] = x + 1/x - y - 1/y for constants, via their square roots."""
    x = _as_fraction(sqrt_x) ** 2
    y = _as_fraction(sqrt_y) ** 2
    return x + 1 / x - y - 1 / y


def bracket_factorial_const(sqrt_a: Fraction, sqrt_t: Fraction, l: int) -> Fraction:
    """[a]_{t,l} = [a][ta]...[t^{l-1}a] as an exact rational.

    Arguments are the square roots of a and t, so each factor
    [t^j a] = (t^j a)**(1/2) - (t^j a)**(-1/2) is rational.
    """
    if l < 0:
        raise ValueError("factorial length must be nonnegative")
    sa = _as_fraction(sqrt_a)
    st = _as_fraction(sqrt_t)
    out = Fraction(1)
    for j in range(l):
        out *= bracket_const(st**j * sa)
    return out


# ======================================================================
# JSON serialization
# ======================================================================


def poly_to_json(f: LaurentPoly) -> dict:
    """Schema: {vars, lattice: "half", terms: [{exp, num, den}]}, terms lex-sorted."""
    keys = sorted(f._num)  # integer order of the keys is lex order
    terms = []
    for key, exp in zip(keys, _unpack_all(keys, f.m)):
        c = Fraction(f._num[key], f._den)
        terms.append({"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)})
    return {"vars": f.m, "lattice": "half", "terms": terms}


def poly_from_json(obj: Mapping) -> LaurentPoly:
    if obj.get("lattice") != "half":
        raise ValueError(f"unsupported lattice tag: {obj.get('lattice')!r}")
    m = int(obj["vars"])
    terms: dict[Exponent, Fraction] = {}
    for entry in obj["terms"]:
        exp = tuple(int(e) for e in entry["exp"])
        terms[exp] = Fraction(int(entry["num"]), int(entry["den"]))
    return LaurentPoly(m, terms)


def poly_dumps(f: LaurentPoly) -> str:
    """Canonical byte-stable JSON text for a polynomial."""
    return json.dumps(poly_to_json(f), separators=(", ", ": "))
