"""The duplication-rewritten BC operator: a test-side cross-check of the
coefficient assembly in ``diffkern.operators``, where
``dup_prefactor(p) * apply_E_BC(p, f, x) == apply_E_BC_dup(p, f, x)``."""

from __future__ import annotations

from typing import Sequence

from diffkern.operators import FnM, ParamsBC, _pair_product, _shift
from diffkern.sigma import nonvanishing, phase, sigma_eval


def apply_E_BC_dup(p: ParamsBC, f: FnM, x: Sequence[complex]) -> complex:
    """Duplication-rewritten form of (1/4) prod_{s<rho} [omega_s/2]^2 * E f.

    Used as a cross-check of the coefficient assembly: the half-period
    denominators collapse into [2x_i][2x_i + delta] at the cost of the
    modified constant-term exponential K_r.
    """
    fam = p.fam
    rho = fam.rho
    m = len(x)
    c = p.c_const
    total = 0 + 0j
    for i in range(m):
        for sgn in (1, -1):
            xi = sgn * x[i]
            num = 1 + 0j
            for mu_s in p.mu:
                num *= sigma_eval(fam, xi + mu_s)
            name = f"x_{i}" if sgn > 0 else f"-x_{i}"
            den = sigma_eval(fam, 2 * xi) * sigma_eval(fam, 2 * xi + p.delta)
            den = nonvanishing(den, "[2{0}][2{0} + delta]", name)
            pair = _pair_product(fam, xi, x, p.kappa, i, name)
            total += num / den * pair * f(_shift(x, i, sgn * p.delta))

    kappa_br = nonvanishing(sigma_eval(fam, p.kappa), "[kappa]")
    kd_br = nonvanishing(sigma_eval(fam, p.kappa - p.delta), "[kappa - delta]")
    const = 0 + 0j
    for r in range(rho):
        w_r = fam.omegas[r]
        eta_r = fam.etas[r]
        k_factor = phase(-(w_r + (m + 1) * p.kappa - p.delta + c / 2) * eta_r)
        num = 1 + 0j
        base = (w_r - p.delta) / 2
        for mu_s in p.mu:
            num *= sigma_eval(fam, base + mu_s)
        pair = _pair_product(fam, base, x, p.kappa, None, f"(omega_{r + 1} - delta)/2")
        const += k_factor * num / (2 * kappa_br * kd_br) * pair
    return total + const * f(x)


def dup_prefactor(p: ParamsBC) -> complex:
    """(1/4) prod_{s=1}^{rho-1} [omega_s/2]^2, the left factor of the rewrite."""
    out = 0.25 + 0j
    for s in range(p.fam.rho - 1):
        out *= sigma_eval(p.fam, p.fam.omegas[s] / 2) ** 2
    return out
