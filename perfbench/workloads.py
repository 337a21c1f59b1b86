"""The benchmark's three workloads.

Each workload repeats one operation of fixed make-up, and every operation
gets inputs that no earlier operation of the run has seen, so no cache
inside diffkern can carry work from one operation to the next.

A workload provides ``setup(rng)``, run a few times per process (each
repetition yields inputs the operations then share round-robin),
``make_input(rng, j)`` for operation ``j`` (untimed), ``run(inp)`` (the
timed operation) and ``check(inp, out, rng)`` (untimed, independent of
diffkern).
"""

from __future__ import annotations

from fractions import Fraction

import checks

#: Numerators and denominators of the six square roots sa..st are drawn
#: from this range, so every run meets inputs of the same height class.
ROOT_RANGE = (16, 64)

#: Numerators and denominators of the fresh multiples in koorn-apply.
MULTIPLE_RANGE = (2**15, 2**16)

#: verify-suite leaves out an identity of a family when one of its
#: residuals reached this share of the family tolerance in
#: ``tolerance_scan.py`` (800 seeds, at verify-suite's sample count).
#: Those residuals are absolute and have heavy tails: they grow without
#: bound as a sampled point nears a pole, and some seeds take them past the
#: tolerance (rational thm-bce1 at (3, 1), seed 479959540, samples=2:
#: 1.29e-10; trig thm-bct2, seed 1621959258, samples=3: 1.59e-10; both
#: against 1e-10).  A check that fails on some seeds only would make a
#: run's correctness depend on its seed, so those identities are not run.
LEFT_OUT_SHARE = 1e-4

#: The identities left out of each family by that rule.
LEFT_OUT = {
    "rational": (
        "e-const-lemma",
        "higher-a-kernel",
        "key-identity-elliptic",
        "key-identity-trig",
        "partial-fraction",
        "prop-exp-f",
        "thm-ae1",
        "thm-at1",
        "thm-bce1",
        "thm-bct1",
        "thm-bctd1",
    ),
    "trig": (
        "duplication",
        "e-const-lemma",
        "higher-a-kernel",
        "key-identity-elliptic",
        "key-identity-trig",
        "partial-fraction",
        "prop-exp-f",
        "thm-ae1",
        "thm-ae2",
        "thm-at1",
        "thm-at2",
        "thm-bce1",
        "thm-bce2",
        "thm-bct1",
        "thm-bct2",
        "thm-bctd1",
        "thm-bctd2",
        "thm41-1",
        "thm41-2",
    ),
    "elliptic": (),
}


def draw_roots(rng, bundle, used: set) -> tuple[Fraction, ...]:
    """Six square roots, new to the run, with no eigenvalue collision.

    A set is refused when any two labels of the dominance basis of any
    (lam, m) in ``bundle`` share an eigenvalue, which would make the
    triangular solve divide by zero.
    """
    lo, hi = ROOT_RANGE
    while True:
        roots = []
        for _ in range(6):
            num, den = rng.randrange(lo, hi), rng.randrange(lo, hi)
            while num == den:
                den = rng.randrange(lo, hi)
            roots.append(Fraction(num, den))
        roots = tuple(roots)
        if roots in used:
            continue
        if all(checks.eigenvalues_distinct(lam, roots, m) for lam, m in bundle):
            used.add(roots)
            return roots


def coeff_height(terms) -> int:
    """Largest bit length of a numerator or denominator among the coefficients."""
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()
    )


class KoornCold:
    """Compute Koornwinder polynomials from scratch at fresh parameters."""

    name = "koorn-cold"
    bundle = (((2, 2), 2), ((1,), 3))
    #: parameter sets drawn per set-up repetition; far more than a run uses
    batch = 120

    def __init__(self, dk) -> None:
        self.dk = dk
        self.used: set = set()
        self.pool: list[tuple[Fraction, ...]] = []

    def setup(self, rng) -> None:
        self.pool.extend(draw_roots(rng, self.bundle, self.used) for _ in range(self.batch))

    def make_input(self, rng, j: int):
        while j >= len(self.pool):
            self.pool.append(draw_roots(rng, self.bundle, self.used))
        roots = self.pool[j]
        return roots, self.dk.ExactParams(*roots)

    def run(self, inp):
        _, ep = inp
        kw = self.dk.koornwinder
        return [kw.koornwinder_poly(lam, ep, m) for lam, m in self.bundle]

    def check(self, inp, out, rng) -> None:
        roots, _ = inp
        for (lam, m), poly in zip(self.bundle, out):
            checks.check_koornwinder(poly.terms, lam, m)
            point = checks.draw_point(rng, m, roots)
            checks.check_eigen_at_point(poly.terms, lam, m, roots, point)

    def input_heights(self) -> list[int]:
        return []


class KoornApply:
    """Apply the exact Koornwinder operator to dense polynomials built once."""

    name = "koorn-apply"
    bundle = (((4, 4), 2), ((1,), 3))

    def __init__(self, dk) -> None:
        self.dk = dk
        self.used: set = set()
        self.multiples: set = set()
        self.sets: list = []  # (roots, ExactParams, [(lam, m, poly, d_lam)])

    def setup(self, rng) -> None:
        roots = draw_roots(rng, self.bundle, self.used)
        ep = self.dk.ExactParams(*roots)
        kw = self.dk.koornwinder
        polys = [
            (lam, m, kw.koornwinder_poly(lam, ep, m), checks.eigenvalue(lam, roots, m))
            for lam, m in self.bundle
        ]
        self.sets.append((roots, ep, polys))

    def _multiple(self, rng) -> Fraction:
        lo, hi = MULTIPLE_RANGE
        while True:
            c = Fraction(rng.randrange(lo, hi), rng.randrange(lo, hi))
            if c not in self.multiples and c != 1:
                self.multiples.add(c)
                return c

    def make_input(self, rng, j: int):
        _, ep, polys = self.sets[j % len(self.sets)]
        Laurent = self.dk.LaurentPoly
        inputs = []
        for lam, m, poly, d in polys:
            c = self._multiple(rng)
            scaled = Laurent(m, {e: v * c for e, v in poly.terms.items()})
            inputs.append((m, scaled, d))
        return ep, inputs

    def run(self, inp):
        ep, inputs = inp
        ops = self.dk.operators
        return [ops.apply_koorn_mult(ep, f, m) for m, f, _ in inputs]

    def check(self, inp, out, rng) -> None:
        _, inputs = inp
        for (_, f, d), image in zip(inputs, out):
            checks.check_scaled_image(image.terms, f.terms, d)

    def input_heights(self) -> list[int]:
        return [coeff_height(poly.terms) for _, _, polys in self.sets for _, _, poly, _ in polys]


class VerifySuite:
    """Run the identities of the three sigma families not in ``LEFT_OUT``."""

    name = "verify-suite"
    samples = 3

    def __init__(self, dk) -> None:
        self.dk = dk
        self.families: list = []
        self.seeds: set = set()

    def setup(self, rng) -> None:
        fam = self.dk.SigmaFamily
        self.families = [
            (family, name, [i for i in checks.applicable(name) if i not in LEFT_OUT[name]])
            for family, name in (
                (fam.rational(), "rational"),
                (fam.trigonometric(), "trig"),
                (fam.elliptic(), "elliptic"),
            )
        ]
        # one warm-up operation, at a seed no timed operation gets, so that
        # first-call work is done before timing and counts as set-up
        self.run(self.make_input(rng, -1))

    def make_input(self, rng, j: int) -> int:
        while True:
            seed = rng.randrange(2**31)
            if seed not in self.seeds:
                self.seeds.add(seed)
                return seed

    def run(self, seed: int):
        verify = self.dk.verify
        return [
            verify.run_suite(ids=ids, fam=fam, samples=self.samples, seed=seed)
            for fam, _, ids in self.families
        ]

    def check(self, seed, out, rng) -> None:
        for (_, name, ids), reports in zip(self.families, out):
            checks.check_reports(reports, name, seed, self.samples, ids)

    def input_heights(self) -> list[int]:
        return []


WORKLOADS = {cls.name: cls for cls in (KoornCold, KoornApply, VerifySuite)}
