"""Tests for the command-line front end."""

import json

import pytest

from diffkern.cli import Config, ConfigError, load_config, main
from diffkern.laurent import ExactParams
from diffkern.sigma import SigmaFamily
from diffkern.verify import reports_to_json, run_suite


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ======================================================================
# configuration loading
# ======================================================================


def test_defaults_load_and_validate():
    cfg = load_config()
    assert isinstance(cfg, Config)
    assert cfg.family == "trig"
    assert cfg.truncation.max_terms == 64
    assert set(cfg.tolerances) == {"rational", "trig", "elliptic"}
    assert cfg.params is None


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_json(tmp_path, "bad.json", {"bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_truncation_key_rejected(tmp_path):
    path = write_json(tmp_path, "bad.json", {"truncation": {"max_terms": 8, "x": 1}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_family_rejected(tmp_path):
    path = write_json(tmp_path, "bad.json", {"family": "hyperbolic"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_params_block_requires_mode(tmp_path):
    path = write_json(tmp_path, "bad.json", {"params": {"sa": "2/3"}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_params_block_rejects_mixed_modes(tmp_path):
    path = write_json(
        tmp_path,
        "bad.json",
        {"params": {"mode": "additive", "omega1": "1", "sa": "2/3"}},
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_square_rational_overrides_parse_to_fractions(tmp_path):
    from fractions import Fraction

    path = write_json(
        tmp_path, "ok.json", {"params": {"mode": "square-rational", "sa": "3/5"}}
    )
    cfg = load_config(path)
    assert cfg.params["sa"] == Fraction(3, 5)


def test_overlay_merges_truncation(tmp_path):
    path = write_json(tmp_path, "ok.json", {"truncation": {"max_terms": 48}})
    cfg = load_config(path)
    assert cfg.truncation.max_terms == 48
    assert cfg.truncation.term_tol == 1e-16


# ======================================================================
# verify subcommand
# ======================================================================


def test_verify_small_run_passes(capsys):
    code, payload = run_json(
        capsys,
        [
            "verify",
            "--ids",
            "riemann",
            "--family",
            "trig",
            "--m",
            "1",
            "--n",
            "1",
            "--samples",
            "4",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert payload["command"] == "verify"
    assert payload["failures"] == 0
    assert payload["first_failure"] is None
    assert len(payload["reports"]) == 1


def test_verify_unknown_id_is_usage_error(capsys):
    code = main(["verify", "--ids", "no-such-identity"])
    assert code == 2
    assert "unknown identity id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "0"],
        ["--m", "0", "--ids", "thm-ae2"],
        ["--m", "1", "--n", "0", "--ids", "thm-ae2"],
    ],
)
def test_verify_unbalanceable_grid_is_usage_error(capsys, argv):
    # thm-ae2 balances m*kappa + n*delta = 0 through kappa: m = 0 has no
    # completion, and n = 0 only kappa = 0, a pole of the coefficients
    code = main(["verify", *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert "thm-ae2" in captured.err
    assert captured.out == ""


def test_verify_unreachable_tolerance_fails_with_dump(capsys):
    code, payload = run_json(
        capsys,
        [
            "verify",
            "--ids",
            "riemann",
            "--family",
            "rational",
            "--m",
            "1",
            "--n",
            "1",
            "--samples",
            "4",
            "--tol",
            "1e-30",
        ],
    )
    assert code == 1
    assert payload["failures"] >= 1
    assert payload["first_failure"]["id"] == "riemann"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_verify_rejects_nonpositive_trunc(capsys, value):
    code = main(["verify", "--ids", "riemann", "--family", "trig", "--trunc", value])
    assert code == 2
    captured = capsys.readouterr()
    assert "--trunc" in captured.err
    assert captured.out == ""


def test_verify_rejects_square_rational_params(capsys, tmp_path):
    path = write_json(
        tmp_path, "sq.json", {"params": {"mode": "square-rational", "sa": "2/3"}}
    )
    code = main(["verify", "--ids", "riemann", "--params-file", path])
    assert code == 2
    assert "square-rational" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", None])
def test_verify_non_numeric_tolerance_is_usage_error(capsys, tmp_path, value):
    path = write_json(tmp_path, "tol.json", {"tolerances": {"trig": value}})
    code = main(["verify", "--ids", "riemann", "--samples", "1", "--params-file", path])
    assert code == 2
    captured = capsys.readouterr()
    assert "tolerance for trig" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "overlay,flags",
    [
        ('{"tolerances": {"rational": "inf"}}', []),
        ('{"tolerances": {"rational": 1e999}}', []),
        (None, ["--tol", "inf"]),
    ],
    ids=["string", "number", "flag"],
)
def test_verify_infinite_tolerance_is_usage_error(capsys, tmp_path, overlay, flags):
    # an infinite tolerance would pass every finite residual
    argv = ["verify", "--family", "rational", "--ids", "riemann", "--samples", "2"]
    if overlay is not None:
        path = tmp_path / "tol.json"
        path.write_text(overlay)  # 1e999 is a JSON number that parses to inf
        argv += ["--params-file", str(path)]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert "finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "overlay,what",
    [
        ({"samples": 2.9}, "samples"),
        ({"seed": 7.5}, "seed"),
        ({"samples": True}, "samples"),
        ({"seed": False}, "seed"),
        ({"truncation": {"max_terms": 8.7}}, "max_terms"),
        ({"truncation": {"max_terms": True}}, "max_terms"),
        ({"samples": "2.5"}, "samples"),
    ],
)
def test_verify_non_integral_count_is_usage_error(capsys, tmp_path, overlay, what):
    # a count is an integer or refused, never truncated
    path = write_json(tmp_path, "count.json", overlay)
    code = main(["verify", "--ids", "riemann", "--params-file", path])
    assert code == 2
    captured = capsys.readouterr()
    assert what in captured.err and "must be an integer" in captured.err
    assert captured.out == ""


def test_integral_counts_still_load(tmp_path):
    overlay = {"samples": 2.0, "seed": "7", "truncation": {"max_terms": "8"}}
    cfg = load_config(write_json(tmp_path, "count.json", overlay))
    assert (cfg.samples, cfg.seed, cfg.truncation.max_terms) == (2, 7, 8)


def test_verify_additive_params_override_the_periods(capsys, tmp_path):
    path = write_json(
        tmp_path, "skewed.json", {"params": {"mode": "additive", "omega2": "2.3+0.45j"}}
    )
    argv = ["verify", "--family", "elliptic", "--ids", "thm-bce1", "--m", "1", "--n", "1"]
    code, payload = run_json(
        capsys, argv + ["--samples", "2", "--seed", "5", "--params-file", path]
    )
    assert code == 0
    fam = SigmaFamily.elliptic(omega2=2.3 + 0.45j)
    want = run_suite(["thm-bce1"], fam, size_grid=[(1, 1)], samples=2, seed=5)
    assert payload["reports"] == json.loads(reports_to_json(want))
    # the override changed the lattice: the default periods report otherwise
    default = run_suite(
        ["thm-bce1"], SigmaFamily.elliptic(), size_grid=[(1, 1)], samples=2, seed=5
    )
    assert payload["reports"] != json.loads(reports_to_json(default))


def test_verify_deterministic_output(tmp_path):
    argv = [
        "verify",
        "--ids",
        "riemann,duplication",
        "--family",
        "trig",
        "--m",
        "2",
        "--n",
        "1",
        "--samples",
        "4",
        "--seed",
        "11",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_rejects_threads_key(capsys, tmp_path):
    # verify runs serially; a config that still sets the removed thread
    # count is a usage error, not silently ignored
    path = write_json(tmp_path, "threads.json", {"threads": 2})
    code = main(["verify", "--ids", "riemann", "--params-file", path])
    assert code == 2
    assert "'threads'" in capsys.readouterr().err


# ======================================================================
# koornwinder subcommand
# ======================================================================


def test_koornwinder_zero_partition_is_constant_one(capsys):
    code, payload = run_json(capsys, ["koornwinder", "--lambda", "0", "--m", "1"])
    assert code == 0
    assert payload["terms"] == [{"exp": [0], "num": "1", "den": "1"}]
    assert payload["meta"]["eigenvalue"] == {"num": "0", "den": "1"}


def test_koornwinder_emits_polynomial_and_eigenvalue(capsys):
    code, payload = run_json(capsys, ["koornwinder", "--lambda", "1", "--m", "1"])
    assert code == 0
    assert payload["meta"]["lambda"] == [1]
    assert payload["meta"]["m"] == 1
    assert int(payload["meta"]["eigenvalue"]["den"]) >= 1
    assert payload["retry_log"] == []
    # monic on the dominant monomial
    top = [t for t in payload["terms"] if t["exp"] == [2]]
    assert top and top[0]["num"] == "1" and top[0]["den"] == "1"


def test_koornwinder_check_column(capsys):
    code, payload = run_json(
        capsys,
        ["koornwinder", "--lambda", "1,1", "--m", "2", "--check", "column", "--r", "2"],
    )
    assert code == 0
    assert payload["check"] == {"kind": "column", "r": 2, "m": 2, "equal": True}


def test_koornwinder_check_row(capsys):
    code, payload = run_json(
        capsys,
        ["koornwinder", "--lambda", "2", "--m", "2", "--check", "row", "--r", "2"],
    )
    assert code == 0
    assert payload["check"]["equal"] is True


def test_koornwinder_check_needs_r(capsys):
    code = main(["koornwinder", "--lambda", "1", "--m", "1", "--check", "column"])
    assert code == 2


def test_koornwinder_r_needs_check(capsys):
    code = main(["koornwinder", "--lambda", "1", "--m", "1", "--r", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--r needs --check" in captured.err


def test_koornwinder_surfaces_collision_retries(capsys, tmp_path):
    colliding = {
        "mode": "square-rational",
        "sa": "4",
        "sb": "1",
        "sc": "1",
        "sd": "1",
        "sq": "1/2",
        "st": "2/5",
    }
    path = write_json(tmp_path, "coll.json", {"params": colliding})
    code, payload = run_json(
        capsys,
        ["koornwinder", "--lambda", "2", "--m", "1", "--params-file", path],
    )
    assert code == 0
    assert len(payload["retry_log"]) == 1
    assert "collides" in payload["retry_log"][0]
    # the emitted parameters are the perturbed set that worked
    assert payload["meta"]["params"]["sa"] != "4"


def test_koornwinder_collision_without_retries_fails(capsys, tmp_path):
    colliding = {
        "mode": "square-rational",
        "sa": "4",
        "sb": "1",
        "sc": "1",
        "sd": "1",
        "sq": "1/2",
        "st": "2/5",
    }
    path = write_json(tmp_path, "coll.json", {"params": colliding})
    code, payload = run_json(
        capsys,
        [
            "koornwinder",
            "--lambda",
            "2",
            "--m",
            "1",
            "--params-file",
            path,
            "--retries",
            "0",
        ],
    )
    assert code == 1
    assert "error" in payload


def test_koornwinder_rejects_negative_retries(capsys):
    assert main(["koornwinder", "--lambda", "2", "--retries", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--retries" in captured.err
    assert captured.out == ""


def test_koornwinder_rejects_bad_partition(capsys):
    assert main(["koornwinder", "--lambda", "1,2", "--m", "2"]) == 2
    assert main(["koornwinder", "--lambda", "2,1,1", "--m", "2"]) == 2


def test_koornwinder_deterministic_output(tmp_path):
    argv = ["koornwinder", "--lambda", "2,1", "--m", "2"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# ======================================================================
# interp subcommand
# ======================================================================


def test_interp_column_E(capsys):
    code, payload = run_json(capsys, ["interp", "--kind", "ColumnE", "--m", "2"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["kind"] == "ColumnE"
    assert payload["params"] == ExactParams.default().as_dict()


def test_interp_row_H(capsys):
    code, payload = run_json(capsys, ["interp", "--kind", "RowH", "--m", "1"])
    assert code == 0
    assert payload["passed"] is True


def test_interp_malformed_kind_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["interp", "--kind", "Diagonal", "--m", "2"])
    assert err.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
