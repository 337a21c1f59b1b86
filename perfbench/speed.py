"""The machine-speed probe that the benchmark's times are normalised by.

The host this benchmark was built on changes speed by up to 1.5x within
tens of seconds, and process CPU time follows wall time, so no raw time of
a run of tens of seconds is steadier than the host.  The probe is a fixed
piece of pure-Python work that does not touch diffkern: exact ``Fraction``
sums (the kind of arithmetic the ``koorn-*`` workloads do) and complex
floating-point products (the kind ``verify-suite`` does).  Timing it next
to the operations measures how fast the machine is at that moment.  The
benchmark divides each raw time by ``probe time / NOMINAL_S``, which gives
the time the work would take on a machine where the probe takes
``NOMINAL_S``.

The probe runs with the garbage collector off, so the size of diffkern's
heap (its caches grow during ``koorn-cold``) cannot change the probe's
time and leak into the normalised figures.
"""

from __future__ import annotations

import cmath
import gc
from fractions import Fraction
from time import perf_counter

#: About the probe's median time on the reference machine (2-vCPU Xeon
#: VM, CPython 3.11.7).  Normalised times are seconds at that speed.
NOMINAL_S = 0.040

#: Rounds of the exact part, terms per round, and terms of the
#: floating-point part; each part takes about half of ``NOMINAL_S``.
EXACT_ROUNDS = 6
EXACT_TERMS = 700
FLOAT_TERMS = 50000


def _work() -> tuple[Fraction, complex]:
    for _ in range(EXACT_ROUNDS):
        s = Fraction(0)
        for i in range(1, EXACT_TERMS):
            s += Fraction((i * 7919) % 1013 + 1, i)
    z = 1 + 0j
    w = cmath.exp(0.001j)
    acc = 0j
    for i in range(FLOAT_TERMS):
        z *= w
        acc += z / (1.5 + z) + cmath.sin(z * 0.5)
    return s, acc


def probe() -> float:
    """Run the probe once and return its wall time in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
