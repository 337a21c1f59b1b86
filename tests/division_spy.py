"""A spy on the integer division cores that the exact operators call."""

from __future__ import annotations

import math
from fractions import Fraction

from diffkern import laurent
from diffkern.laurent import LaurentPoly


def primitive_part(p: LaurentPoly) -> LaurentPoly:
    """p times den / content: its primitive integer numerators over 1."""
    return p * Fraction(p._den, math.gcd(*p._num.values()))


def spy_on_integer_division(monkeypatch, module, core: str = "_divide_integers") -> list:
    """Route ``module``'s calls of the integer division core ``core`` through
    a spy: ``_divide_integers(num, num_bound, g_prim, g_bound, m)`` or
    ``_divide_binomials(num, num_bound, factors, g_prim, g_bound, m)``.

    Each call appends (dividend, divisor, outcome): the dividend and the
    primitive divisor as polynomials over 1, and what the core gave: the
    quotient's fields (m, numerators in step order, denominator 1, exponent
    bound) or the error's class, message and offending exponent."""
    seen = []
    real = getattr(laurent, core)

    def spy(*args):
        num, num_bound, *_, g_prim, g_bound, m = args
        f = LaurentPoly._from_parts(m, dict(num), 1, num_bound)
        g = LaurentPoly._from_parts(m, dict(g_prim), 1, g_bound)
        try:
            quotient, q_bound = real(*args)
        except ArithmeticError as exc:
            seen.append((f, g, (type(exc), str(exc), getattr(exc, "offending_exponent", None))))
            raise
        seen.append((f, g, (m, list(quotient.items()), 1, q_bound)))
        return quotient, q_bound

    monkeypatch.setattr(module, core, spy)
    return seen
