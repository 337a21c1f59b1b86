"""Command-line front end: verification suites, polynomials, reports.

Three subcommands share one configuration model.  ``verify`` drives the
numeric identity suite over a sigma family, ``koornwinder`` computes exact
polynomials and optionally replays the closed-formula reconstructions, and
``interp`` runs the vanishing-grid checks.  Defaults come from the
checked-in ``defaults.json``; a ``--params-file`` overlay and individual
flags override them, in that order.

Exit codes are a stable contract: 0 on success, 1 when a verification or
computation fails with a report, 2 for usage and configuration errors.

Numeric work takes additive inputs (complex offsets and periods), exact
work takes square-root-rational parameters; a configuration that hands one
lane the other kind of parameter block is rejected rather than coerced.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from math import inf

from .koornwinder import (
    CollisionError,
    compute_with_resampling,
    interpolation_checks,
    koornwinder_json,
    theorem_equality,
)
from .laurent import ExactParams, Partition
from .sigma import FamilyKind, SigmaFamily, Truncation
from .verify import (
    BalancingError,
    IdentityId,
    first_failure,
    load_defaults,
    run_suite,
)

__all__ = [
    "Config",
    "ConfigError",
    "build_parser",
    "cmd_interp",
    "cmd_koornwinder",
    "cmd_verify",
    "load_config",
    "main",
]


class ConfigError(ValueError):
    """Invalid configuration or flag combination; maps to exit code 2."""


# ======================================================================
# configuration
# ======================================================================

_ADDITIVE_KEYS = {"omega1", "omega2", "scale"}
# Family names key the config's family and tolerances and the --family flag.
_FAMILY_KINDS = {kind.value: kind for kind in FamilyKind}
_FAMILY_NAMES = tuple(_FAMILY_KINDS)


@dataclass(frozen=True)
class Config:
    """Validated run configuration; field names match defaults.json."""

    family: str
    omega1: complex
    omega2: complex
    scale: complex
    truncation: Truncation
    tolerances: dict[str, float]
    seed: int
    samples: int
    params: dict | None


_TOP_KEYS = {f.name for f in fields(Config)}
_TRUNC_KEYS = {f.name for f in fields(Truncation)}
_SQUARE_KEYS = {f.name for f in fields(ExactParams)}


def _parse_complex(value, key: str) -> complex:
    try:
        return complex(str(value).replace(" ", ""))
    except ValueError:
        raise ConfigError(f"config key {key!r} is not a complex number: {value!r}")


def _validate_params_block(block) -> dict:
    """Normalize the parameter override block, rejecting mixed modes."""
    if not isinstance(block, dict):
        raise ConfigError("config key 'params' must be an object or null")
    mode = block.get("mode")
    if mode not in ("additive", "square-rational"):
        raise ConfigError(
            "params.mode must be 'additive' or 'square-rational', "
            f"got {mode!r}"
        )
    entries = {k: v for k, v in block.items() if k != "mode"}
    unknown = set(entries) - _ADDITIVE_KEYS - _SQUARE_KEYS
    if unknown:
        raise ConfigError(f"unknown params keys: {sorted(unknown)}")
    additive = set(entries) & _ADDITIVE_KEYS
    square = set(entries) & _SQUARE_KEYS
    out: dict = {"mode": mode}
    if mode == "additive":
        if square:
            raise ConfigError(
                "additive params block contains square-rational keys: "
                f"{sorted(square)}"
            )
        for key in additive:
            out[key] = _parse_complex(entries[key], f"params.{key}")
    else:
        if additive:
            raise ConfigError(
                "square-rational params block contains additive keys: "
                f"{sorted(additive)}"
            )
        for key in square:
            try:
                value = Fraction(str(entries[key]))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(
                    f"params.{key} is not a rational: {entries[key]!r}"
                )
            if not value:
                raise ConfigError(f"params.{key} must be nonzero")
            out[key] = value
    return out


def _integer(value, what: str) -> int:
    """An integer, an integral number or an integer string; a bool or a
    fractional number is refused rather than truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _validate(data: dict) -> Config:
    """Check ``data``, defaults.json merged with any overlay by
    :func:`load_config`, so every default key is present."""
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    family = data["family"]
    if family not in _FAMILY_NAMES:
        raise ConfigError(f"config family must be one of {_FAMILY_NAMES}")

    trunc_block = data["truncation"]
    if not isinstance(trunc_block, dict):
        raise ConfigError("config key 'truncation' must be an object")
    bad = set(trunc_block) - _TRUNC_KEYS
    if bad:
        raise ConfigError(f"unknown truncation keys: {sorted(bad)}")
    max_terms = _integer(trunc_block["max_terms"], "truncation.max_terms")
    try:
        truncation = Truncation(
            max_terms=max_terms, term_tol=float(trunc_block["term_tol"])
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid truncation: {exc}")

    tol_block = data["tolerances"]
    if not isinstance(tol_block, dict):
        raise ConfigError("config key 'tolerances' must be an object")
    bad = set(tol_block) - set(_FAMILY_NAMES)
    if bad:
        raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
    tolerances = {}
    for name in _FAMILY_NAMES:
        try:
            value = float(tol_block[name])
        except (TypeError, ValueError):
            raise ConfigError(
                f"tolerance for {name} is not a number: {tol_block[name]!r}"
            )
        if not 0 < value < inf:
            raise ConfigError(f"tolerance for {name} must be finite and positive")
        tolerances[name] = value

    seed = _integer(data["seed"], "seed")
    samples = _integer(data["samples"], "samples")
    if samples < 1:
        raise ConfigError("samples must be at least 1")

    params = data["params"]
    if params is not None:
        params = _validate_params_block(params)

    return Config(
        family=family,
        omega1=_parse_complex(data["omega1"], "omega1"),
        omega2=_parse_complex(data["omega2"], "omega2"),
        scale=_parse_complex(data["scale"], "scale"),
        truncation=truncation,
        tolerances=tolerances,
        seed=seed,
        samples=samples,
        params=params,
    )


def load_config(path: str | None = None) -> Config:
    """Checked-in defaults, optionally overlaid with a JSON params file."""
    data = load_defaults()
    if path is not None:
        try:
            with open(path) as fh:
                overlay = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read params file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"params file is not valid JSON: {exc}")
        if not isinstance(overlay, dict):
            raise ConfigError("params file must hold a JSON object")
        for key, value in overlay.items():
            if key in ("truncation", "tolerances") and isinstance(value, dict):
                merged = dict(data.get(key, {}))
                merged.update(value)
                data[key] = merged
            else:
                data[key] = value
    return _validate(data)


def _family_from(cfg: Config, args) -> SigmaFamily:
    name = getattr(args, "family", None) or cfg.family
    omega1, omega2, scale = cfg.omega1, cfg.omega2, cfg.scale
    if cfg.params is not None and cfg.params["mode"] == "additive":
        omega1 = cfg.params.get("omega1", omega1)
        omega2 = cfg.params.get("omega2", omega2)
        scale = cfg.params.get("scale", scale)
    trunc = cfg.truncation
    if getattr(args, "trunc", None) is not None:
        try:
            trunc = Truncation(max_terms=args.trunc, term_tol=trunc.term_tol)
        except ValueError as exc:
            raise ConfigError(f"bad --trunc {args.trunc}: {exc}")
    try:
        if name == "rational":
            return SigmaFamily.rational(scale=scale)
        if name == "trig":
            return SigmaFamily.trigonometric(omega1=omega1, scale=scale, trunc=trunc)
        return SigmaFamily.elliptic(
            omega1=omega1, omega2=omega2, scale=scale, trunc=trunc
        )
    except ValueError as exc:
        raise ConfigError(f"cannot build {name} family: {exc}")


def _exact_params(cfg: Config) -> ExactParams:
    if cfg.params is None:
        return ExactParams.default()
    if cfg.params["mode"] != "square-rational":
        raise ConfigError(
            "this command works exactly and needs square-rational parameters; "
            "the config supplies an additive block"
        )
    overrides = {k: v for k, v in cfg.params.items() if k != "mode"}
    return ExactParams.default().replace(**overrides)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ======================================================================
# subcommands
# ======================================================================


def cmd_verify(args, cfg: Config) -> int:
    if cfg.params is not None and cfg.params["mode"] == "square-rational":
        raise ConfigError(
            "verify samples additive numeric inputs; square-rational "
            "parameters belong to the exact commands"
        )
    ids = None
    if args.ids:
        try:
            ids = [IdentityId(piece.strip()) for piece in args.ids.split(",")]
        except ValueError:
            known = ", ".join(i.value for i in IdentityId)
            raise ConfigError(f"unknown identity id in {args.ids!r}; known: {known}")
    fam = _family_from(cfg, args)
    grid = None
    if args.m is not None or args.n is not None:
        m = args.m if args.m is not None else args.n
        n = args.n if args.n is not None else m
        if m < 0 or n < 0:
            raise ConfigError("grid sizes must be nonnegative")
        grid = [(m, n)]
    seed = args.seed if args.seed is not None else cfg.seed
    samples = args.samples if args.samples is not None else cfg.samples
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    if args.tol is not None and not 0 < args.tol < inf:
        raise ConfigError("tol must be finite and positive")

    try:
        reports = run_suite(
            ids=ids, fam=fam, size_grid=grid, samples=samples, seed=seed
        )
    except BalancingError as exc:
        raise ConfigError(str(exc))
    if args.tol is not None:
        tol = float(args.tol)
    else:
        tol = {kind: cfg.tolerances[name] for name, kind in _FAMILY_KINDS.items()}
    fail = first_failure(reports, tol)
    failures = sum(first_failure([rep], tol) is not None for rep in reports)
    payload = {
        "command": "verify",
        "family": fam.kind.value,
        "seed": seed,
        "samples": samples,
        "tol": args.tol,
        "reports": [rep.to_json_dict() for rep in reports],
        "failures": failures,
        "first_failure": fail.to_json_dict() if fail is not None else None,
    }
    _emit(payload, args.out)
    return 0 if fail is None else 1


def _parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
        return Partition(parts)
    except ValueError as exc:
        raise ConfigError(f"bad --lambda value {text!r}: {exc}")


def cmd_koornwinder(args, cfg: Config) -> int:
    lam = _parse_partition(args.lam)
    m = args.m if args.m is not None else max(len(lam), 1)
    if m < 1:
        raise ConfigError("need at least one variable")
    if len(lam) > m:
        raise ConfigError(f"partition {list(lam.parts)} does not fit in {m} variables")
    if args.retries < 0:
        raise ConfigError(f"--retries must be nonnegative, got {args.retries}")
    if args.check is not None and args.r is None:
        raise ConfigError("--check needs --r")
    if args.r is not None and args.check is None:
        raise ConfigError("--r needs --check")
    ep = _exact_params(cfg)
    try:
        _, used, log = compute_with_resampling(lam, ep, m, retries=args.retries)
    except CollisionError as exc:
        payload = {
            "command": "koornwinder",
            "lambda": list(lam.parts),
            "m": m,
            "error": str(exc),
        }
        _emit(payload, args.out)
        return 1
    payload = koornwinder_json(lam, used, m)
    payload["command"] = "koornwinder"
    payload["retry_log"] = log
    if args.check is not None:
        kind = "Column" if args.check == "column" else "Row"
        try:
            equal = theorem_equality(kind, args.r, m, used)
        except ValueError as exc:
            raise ConfigError(str(exc))
        payload["check"] = {
            "kind": args.check,
            "r": args.r,
            "m": m,
            "equal": equal,
        }
    _emit(payload, args.out)
    return 0


def cmd_interp(args, cfg: Config) -> int:
    if args.m < 1:
        raise ConfigError("need at least one variable")
    ep = _exact_params(cfg)
    report = interpolation_checks(args.kind, args.m, ep)
    payload = report.to_json_dict()
    payload["command"] = "interp"
    payload["params"] = ep.as_dict()
    _emit(payload, args.out)
    return 0 if report.passed else 1


# ======================================================================
# argument parsing
# ======================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffkern",
        description="verify difference-operator identities and compute "
        "Koornwinder data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the numeric identity suite")
    pv.add_argument("--ids", help="comma-separated identity ids (default: all)")
    pv.add_argument("--family", choices=list(_FAMILY_NAMES))
    pv.add_argument("--m", type=int, help="fix the first grid size")
    pv.add_argument("--n", type=int, help="fix the second grid size")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--samples", type=int)
    pv.add_argument("--tol", type=float, help="flat tolerance for every family")
    pv.add_argument("--trunc", type=int, help="series truncation term cap")
    pv.add_argument("--params-file", dest="params_file")
    pv.add_argument("--out", help="write the JSON report here instead of stdout")

    pk = sub.add_parser("koornwinder", help="compute an exact polynomial")
    pk.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1")
    pk.add_argument("--m", type=int, help="variable count (default: length of lambda)")
    pk.add_argument("--r", type=int, help="order for --check")
    pk.add_argument(
        "--check",
        choices=["column", "row"],
        help="also replay the closed-formula reconstruction",
    )
    pk.add_argument("--retries", type=int, default=5)
    pk.add_argument("--params-file", dest="params_file")
    pk.add_argument("--out")

    pi = sub.add_parser("interp", help="run the vanishing-grid checks")
    pi.add_argument("--kind", choices=["ColumnE", "RowH"], required=True)
    pi.add_argument("--m", type=int, default=2)
    pi.add_argument("--params-file", dest="params_file")
    pi.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.params_file)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "koornwinder":
            return cmd_koornwinder(args, cfg)
        return cmd_interp(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
