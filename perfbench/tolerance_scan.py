"""Scan run_suite's residuals over many seeds, as a share of the tolerance.

Usage, from the root of a diffkern checkout:

    python3 perfbench/tolerance_scan.py --seeds 800 --out scan.json

For each seed (drawn from ``random.Random("tolerance-scan")``) it runs the
full suite of every family at ``VerifySuite.samples`` and records, per
(family, identity, m, n), the residual over the family tolerance.  It then
prints, per family and identity, the largest share seen.  ``verify-suite``
leaves out every identity of a family whose largest share reached
``workloads.LEFT_OUT_SHARE``: those residuals are absolute, grow without
bound near the poles the sampler's guards let through, and exceed the
tolerance on some seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import TOLERANCES  # noqa: E402
from workloads import LEFT_OUT_SHARE, VerifySuite  # noqa: E402

from diffkern import SigmaFamily  # noqa: E402
from diffkern.verify import run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=800)
    parser.add_argument("--out", help="write every share, per task, to this JSON file")
    args = parser.parse_args(argv)

    families = {
        "rational": SigmaFamily.rational(),
        "trig": SigmaFamily.trigonometric(),
        "elliptic": SigmaFamily.elliptic(),
    }
    rng = random.Random("tolerance-scan")
    shares: dict[str, list[tuple[int, float]]] = {}
    for _ in range(args.seeds):
        seed = rng.randrange(2**31)
        for name, fam in families.items():
            for rep in run_suite(fam=fam, samples=VerifySuite.samples, seed=seed):
                key = f"{name}|{rep.id.value}|{rep.m}|{rep.n}"
                shares.setdefault(key, []).append((seed, rep.max_residual / TOLERANCES[name]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(shares, fh)

    worst: dict[tuple[str, str], tuple[float, int]] = {}
    for key, values in shares.items():
        name, ident, _, _ = key.split("|")
        share, seed = max((s, seed) for seed, s in values)
        if share >= worst.get((name, ident), (-1.0, 0))[0]:
            worst[(name, ident)] = (share, seed)
    for (name, ident), (share, seed) in sorted(worst.items()):
        mark = "left out" if share >= LEFT_OUT_SHARE else "kept"
        print(f"{name:9s} {ident:22s} {share:9.2e}  (seed {seed})  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
