"""diffkern benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a diffkern checkout:

    python3 perfbench/run.py --workload koorn-cold --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  The run sets up its inputs several times (set-up time is
the median), then repeats the workload's operation back to back in one
thread until ``--seconds`` of it have passed.  Each output is checked,
outside the timed region, against computations made apart from diffkern.
A fixed probe (``speed.py``) runs before and after the import, after
each set-up repetition and after each operation.  Every time the run reports is
divided by the speed the probes next to it show (probe time over
``speed.NOMINAL_S``), so a change of the host's speed during or between
runs cancels out; the raw times are kept in the result file.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` spans wrap the layers and the line carries the
per-layer metrics instead.  Both are also written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

_T_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPS = 3

#: A timed step's speed is the median of this many probes before it and
#: as many after it.
PROBE_REACH = 2


def local_speeds(probes: list[float], nominal: float) -> list[float]:
    """Speed during each timed step, from the probes around it.

    ``probes[i]`` ran just before step ``i`` and ``probes[i + 1]`` just
    after it.  A speed of 1 means the probe took ``nominal`` seconds.
    """
    return [
        statistics.median(probes[max(0, i + 1 - PROBE_REACH) : i + 1 + PROBE_REACH]) / nominal
        for i in range(len(probes) - 1)
    ]


def import_diffkern():
    """Import diffkern from the checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "diffkern", "__init__.py")):
        raise SystemExit(f"perfbench: no diffkern sources under {SRC}")
    sys.path.insert(0, SRC)
    import diffkern
    import diffkern.koornwinder
    import diffkern.operators
    import diffkern.verify

    where = os.path.realpath(diffkern.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported diffkern from {where}, not {SRC}")
    return diffkern


def install_spans(tracer, dk, first_op: dict) -> None:
    """Wrap each layer's public functions where the package looks them up."""
    from diffkern import kernels, koornwinder, laurent, operators, sigma, verify
    from workloads import coeff_height

    mods = [dk, sigma, laurent, operators, kernels, verify, koornwinder]
    Laurent = laurent.LaurentPoly

    def note_height(poly) -> None:
        if first_op["on"] and isinstance(poly, Laurent) and poly.terms:
            first_op["bits"] = max(first_op["bits"], coeff_height(poly.terms))

    def after_mul(args, result, error) -> None:
        a, b = args
        pairs = len(a.terms) * (len(b.terms) if isinstance(b, Laurent) else 1)
        tracer.count("laurent.mul_term_pairs", pairs)
        note_height(result)

    def after_divide(args, result, error) -> None:
        note_height(result)

    def after_residual(args, result, error) -> None:
        if isinstance(error, sigma.PoleError):
            tracer.count("verify.pole_retries")
        elif error is None:
            tracer.count("verify.residual_values")

    def after_point(args, result, error) -> None:
        tracer.count("verify.points_drawn")

    for attr in ("__mul__", "__rmul__"):
        tracer.patch_method(Laurent, attr, "laurent.mul", after_mul)
    for attr in ("__add__", "__radd__"):
        tracer.patch_method(Laurent, attr, "laurent.add")
    tracer.patch_method(Laurent, "substitute", "laurent.substitute")
    tracer.patch(mods, "orbit_sum", "laurent.orbit_sum")
    tracer.patch(mods, "divide_exact", "laurent.divide", after_divide)
    tracer.patch(mods, "apply_koorn_mult", "operators.koorn_mult")
    tracer.patch(mods, "koornwinder_poly", "koornwinder.poly")
    tracer.patch(mods, "sigma_eval", "sigma.sigma")
    tracer.patch(mods, "theta_eval", "sigma.theta")
    tracer.patch(mods, "gamma_fn", "sigma.gamma")
    tracer.patch(mods, "qpoch", "sigma.qpoch")
    for attr in ("phi_A", "phi_BC", "psi_A", "psi_BC", "kern_phi0"):
        tracer.patch(mods, attr, "kernels.value")
    for attr in ("apply_A", "apply_A_higher", "apply_E_BC", "apply_D_BC"):
        tracer.patch(mods, attr, "operators.numeric_apply")
    tracer.patch(mods, "run_suite", "verify.suite")
    tracer.patch(mods, "sample_params", "verify.sample")
    tracer.patch(mods, "sample_point", "verify.sample", after_point)
    tracer.patch(mods, "residual", "verify.residual", after_residual)


def per_layer_metrics(totals, counters, ops: int, setup_totals, bits: int) -> dict:
    """Per-layer figures, each per operation of the timed phase.

    The ``setup.`` figures are per set-up repetition instead.
    """

    def span(name):
        return totals.get(name, (0, 0.0, 0.0))

    def per_op(x):
        return x / ops

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("laurent.mul_calls", per_op(span("laurent.mul")[0]), "calls/op")
    put("laurent.mul_term_pairs", per_op(counters.get("laurent.mul_term_pairs", 0)), "pairs/op")
    put("laurent.mul_self_s", per_op(span("laurent.mul")[2]), "s/op")
    put("laurent.add_self_s", per_op(span("laurent.add")[2]), "s/op")
    put("laurent.substitute_self_s", per_op(span("laurent.substitute")[2]), "s/op")
    put("laurent.orbit_sum_self_s", per_op(span("laurent.orbit_sum")[2]), "s/op")
    put("laurent.divide_calls", per_op(span("laurent.divide")[0]), "calls/op")
    put("laurent.divide_self_s", per_op(span("laurent.divide")[2]), "s/op")
    put("laurent.max_coeff_bits", bits, "bits")
    put("operators.koorn_mult_calls", per_op(span("operators.koorn_mult")[0]), "calls/op")
    put("operators.koorn_mult_s", per_op(span("operators.koorn_mult")[1]), "s/op")
    put("operators.koorn_mult_self_s", per_op(span("operators.koorn_mult")[2]), "s/op")
    put("koornwinder.poly_calls", per_op(span("koornwinder.poly")[0]), "calls/op")
    put("koornwinder.poly_s", per_op(span("koornwinder.poly")[1]), "s/op")
    put("koornwinder.solve_self_s", per_op(span("koornwinder.poly")[2]), "s/op")
    setup_poly = setup_totals.get("koornwinder.poly", (0, 0.0, 0.0))
    put("setup.koornwinder.poly_calls", setup_poly[0] / SETUP_REPS, "calls/setup")
    put("setup.koornwinder.poly_s", setup_poly[1] / SETUP_REPS, "s/setup")
    put("setup.koornwinder.solve_self_s", setup_poly[2] / SETUP_REPS, "s/setup")
    for short, name in (("sigma", "sigma.sigma"), ("theta", "sigma.theta"), ("gamma", "sigma.gamma")):
        put(f"sigma.{short}_calls", per_op(span(name)[0]), "calls/op")
        put(f"sigma.{short}_self_s", per_op(span(name)[2]), "s/op")
    put("sigma.qpoch_self_s", per_op(span("sigma.qpoch")[2]), "s/op")
    put("kernels.value_calls", per_op(span("kernels.value")[0]), "calls/op")
    put("kernels.value_self_s", per_op(span("kernels.value")[2]), "s/op")
    put("operators.numeric_apply_calls", per_op(span("operators.numeric_apply")[0]), "calls/op")
    put("operators.numeric_apply_self_s", per_op(span("operators.numeric_apply")[2]), "s/op")
    put("verify.suite_s", per_op(span("verify.suite")[1]), "s/op")
    put("verify.points_drawn", per_op(counters.get("verify.points_drawn", 0)), "points/op")
    put("verify.sample_self_s", per_op(span("verify.sample")[2]), "s/op")
    residual_calls = span("verify.residual")[0]
    put("verify.residual_calls", per_op(residual_calls), "calls/op")
    put("verify.residual_self_s", per_op(span("verify.residual")[2]), "s/op")
    put("verify.pole_retries", per_op(counters.get("verify.pole_retries", 0)), "calls/op")
    useful = counters.get("verify.residual_values", 0) / residual_calls if residual_calls else 0.0
    put("verify.residual_useful_ratio", useful, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The numeric suite runs its thread pool at the program's default size.
    os.environ.pop("KERNEL_VERIFY_THREADS", None)

    sys.path.insert(0, HERE)
    from speed import NOMINAL_S, probe

    setup_probes = [probe()]
    t0 = perf_counter()
    dk = import_diffkern()
    import_s = perf_counter() - t0
    setup_probes.append(probe())

    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    rng = random.Random(f"perfbench|{args.workload}|{args.seed}")
    check_rng = random.Random(f"perfbench-check|{args.workload}|{args.seed}")
    workload = WORKLOADS[args.workload](dk)

    tracer = None
    first_op = {"on": False, "bits": 0}
    if args.trace:
        tracer = Tracer()
        install_spans(tracer, dk, first_op)

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        workload.setup(rng)
        setup_times.append(perf_counter() - t0)
        setup_probes.append(probe())
    # steps of the set-up phase: the import, then each repetition
    setup_speeds = local_speeds(setup_probes, NOMINAL_S)
    setup_s = import_s / setup_speeds[0] + statistics.median(
        t / v for t, v in zip(setup_times, setup_speeds[1:])
    )
    setup_totals = {}
    if tracer is not None:
        setup_totals = tracer.totals()
        tracer.reset()

    # timed phase: one closed loop; each operation is followed by a speed
    # probe, then its output is checked, untimed, and dropped
    steps = []  # wall time of each operation with its input
    durations = []  # (index, wall time) of each operation that returned
    probes = [probe()]
    attempted = failed = 0
    correct = True
    wall = 0.0  # wall time of the operations and their inputs
    probe_wall = probes[0]
    first_op["on"] = True
    while wall + probe_wall < args.seconds:
        t0 = perf_counter()
        inp = workload.make_input(rng, attempted)
        t1 = perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # counted, reported, and the run goes on
            out = None
            failed += 1
            print(f"perfbench: operation {attempted} failed: {exc!r}", file=sys.stderr)
        t2 = perf_counter()
        first_op["on"] = False
        attempted += 1
        wall += t2 - t0
        steps.append(t2 - t0)
        probes.append(probe())
        probe_wall += probes[-1]
        if out is None:
            continue
        durations.append((attempted - 1, t2 - t1))
        if correct:
            try:
                workload.check(inp, out, check_rng)
            except checks.CheckFailed as exc:
                correct = False
                print(f"perfbench: check failed: {exc}", file=sys.stderr)

    totals = counters = None
    if tracer is not None:
        totals, counters = tracer.totals(), tracer.counters()
        tracer.unpatch()

    if args.workload == "verify-suite":
        try:
            checks.spot_check_sigma_gamma(dk.sigma, check_rng)
        except checks.CheckFailed as exc:
            correct = False
            print(f"perfbench: check failed: {exc}", file=sys.stderr)

    done = attempted - failed
    speeds = local_speeds(probes, NOMINAL_S)
    ops_per_s = done / sum(t / v for t, v in zip(steps, speeds))
    if tracer is None:
        if done < 11:
            raise SystemExit(
                f"perfbench: {done} operations in {wall:.1f} s; the tail needs at least 11"
            )
        ordered = sorted(d / speeds[i] for i, d in durations)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(ordered), "unit": "s"},
            # the highest sample with ten samples above it
            "op_tail_s": {"value": ordered[done - 11], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = per_layer_metrics(totals, counters, max(done, 1), setup_totals, first_op["bits"])
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "setup_probes_s": setup_probes,
        "setup_speeds": setup_speeds,
        "op_durations_s": [d for _, d in durations],
        "op_steps_s": steps,
        "probes_s": probes,
        "speeds": speeds,
        "input_coeff_bits": workload.input_heights(),
        "process_s": perf_counter() - _T_START,
        "result": result,
    }
    if tracer is not None:
        detail["spans"] = {k: list(v) for k, v in sorted(totals.items())}
        detail["counters"] = dict(sorted(counters.items()))
        detail["setup_spans"] = {k: list(v) for k, v in sorted(setup_totals.items())}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if args.trace else "result"
    with open(os.path.join(out_dir, f"{kind}-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
