"""The benchmark's checks accept diffkern's outputs and refuse corrupted ones.

Run from the root of the checkout with either of

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from diffkern import ExactParams, LaurentPoly, SigmaFamily, koornwinder_poly  # noqa: E402
from diffkern.operators import apply_koorn_mult  # noqa: E402
from diffkern.verify import run_suite  # noqa: E402
import diffkern.sigma  # noqa: E402

LAM, M = (2, 1), 2
EP = ExactParams.default()
ROOTS = (EP.sa, EP.sb, EP.sc, EP.sd, EP.sq, EP.st)


def _with(terms, exp, value):
    out = dict(terms)
    out[exp] = value
    return out


class KoornwinderChecks(unittest.TestCase):
    def setUp(self):
        self.terms = dict(koornwinder_poly(LAM, EP, M).terms)
        self.point = checks.draw_point(random.Random(7), M, ROOTS)

    def test_genuine_polynomial_passes(self):
        checks.check_koornwinder(self.terms, LAM, M)
        checks.check_eigen_at_point(self.terms, LAM, M, ROOTS, self.point)

    def test_one_corrupted_coefficient_fails(self):
        exp = (-2, 0)  # a member of the orbit of (1, 0)
        bad = _with(self.terms, exp, self.terms[exp] + Fraction(1, 10**6))
        with self.assertRaises(checks.CheckFailed):
            checks.check_koornwinder(bad, LAM, M)
        with self.assertRaises(checks.CheckFailed):
            checks.check_eigen_at_point(bad, LAM, M, ROOTS, self.point)

    def test_corrupted_orbit_fails_the_eigen_equation(self):
        # shifting a whole orbit keeps W-invariance; only D P = d P notices
        bad = {
            e: c + Fraction(1, 10**6) if sorted(map(abs, e)) == [0, 2] else c
            for e, c in self.terms.items()
        }
        checks.check_koornwinder(bad, LAM, M)
        with self.assertRaises(checks.CheckFailed):
            checks.check_eigen_at_point(bad, LAM, M, ROOTS, self.point)

    def test_corrupted_operator_image_fails(self):
        f = LaurentPoly(M, {e: c * 3 for e, c in self.terms.items()})
        image = apply_koorn_mult(EP, f, M)
        d = checks.eigenvalue(LAM, ROOTS, M)
        checks.check_scaled_image(image.terms, f.terms, d)
        exp = next(iter(image.terms))
        bad = _with(image.terms, exp, image.terms[exp] * Fraction(1000001, 1000000))
        with self.assertRaises(checks.CheckFailed):
            checks.check_scaled_image(bad, f.terms, d)

    def test_eigenvalue_matches_collision_guard(self):
        self.assertTrue(checks.eigenvalues_distinct(LAM, ROOTS, M))
        # sq = 1 makes q = 1, and every eigenvalue collapses to 0
        flat = ROOTS[:4] + (Fraction(1), ROOTS[5])
        self.assertFalse(checks.eigenvalues_distinct(LAM, flat, M))


class ResidualChecks(unittest.TestCase):
    def setUp(self):
        self.reports = run_suite(fam=SigmaFamily.rational(), samples=1, seed=5)

    def test_genuine_reports_pass(self):
        checks.check_reports(self.reports, "rational", 5, 1)

    def test_one_corrupted_residual_fails(self):
        bad = list(self.reports)
        bad[3] = dataclasses.replace(bad[3], max_residual=1e-6)
        with self.assertRaises(checks.CheckFailed):
            checks.check_reports(bad, "rational", 5, 1)

    def test_missing_report_fails(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_reports(self.reports[1:], "rational", 5, 1)

    def test_subset_suite_is_checked_against_its_own_ids(self):
        ids = ["thm-ae2", "riemann"]
        reports = run_suite(ids=ids, fam=SigmaFamily.rational(), samples=1, seed=5)
        checks.check_reports(reports, "rational", 5, 1, ids)
        with self.assertRaises(checks.CheckFailed):
            checks.check_reports(reports, "rational", 5, 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check_reports(self.reports, "rational", 5, 1, ids)

    def test_sigma_and_gamma_agree_with_mpmath(self):
        checks.spot_check_sigma_gamma(diffkern.sigma, random.Random(3))


if __name__ == "__main__":
    unittest.main()
