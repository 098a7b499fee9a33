"""Command-line driver: verbs, exit codes, report formats, config overrides."""
from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conesine
from conesine import (
    DEFAULT_CONFIG,
    elliptic_gamma,
    fixture_cone,
    gamma_cone_direct,
    gamma_cone_factorized,
    multiple_sine,
    qfactorial,
    sine_cone_decomposed,
    sine_cone_factorized,
)
from conesine.cli import (
    EXIT_DOMAIN,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _TARGETS,
    format_complex,
    main,
    parse_complex,
)
from conesine.generalized import THEOREMS

from params import GAMMA_OMEGAS, OVERFLOWING_PRODUCTS, SINE_OMEGAS, Z_GENERIC


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def eval_record(out: str) -> dict:
    # eval prints a human line then one JSON record line
    return json.loads(out.splitlines()[1])


# ---------------------------------------------------------------------------
# argument parsing


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """This interpreter in a fresh process, importing the same ``conesine``."""
    src = str(Path(conesine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_numpy_unloaded():
    # numpy is imported lazily, by the lattice oracles and enumeration only,
    # so importing the package or starting the CLI does not pay for it
    done = _fresh_python("-c", "import sys, conesine, conesine.cli; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout.strip()) == (0, "False")


def test_parse_complex_forms():
    assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex("1.3i") == 1.3j
    assert parse_complex("2") == 2.0
    assert parse_complex("-0.7+0.2j") == -0.7 + 0.2j


def test_bad_complex_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s1", "--z", "wat", "--omega", "1"])
    assert exc.value.code == EXIT_USAGE


def test_missing_argument_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "s1", "--omega", "1")
    assert rc == EXIT_USAGE
    assert "--z" in err


def test_unknown_eval_target_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "blorp", "--z", "0.5")
    assert rc == EXIT_USAGE
    assert "unknown eval target" in err


# ---------------------------------------------------------------------------
# eval


def test_eval_single_sine_closed_form(capsys):
    rc, out, _ = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_OK
    value = eval_record(out)["value"]
    assert math.isclose(value[0], math.sqrt(2), rel_tol=1e-12)
    assert abs(value[1]) < 1e-12


def test_eval_theta_vanishes_at_origin(capsys):
    rc, out, _ = run(capsys, "eval", "theta0", "--z", "0", "--tau", "i")
    assert rc == EXIT_OK
    value = eval_record(out)["value"]
    assert abs(complex(*value)) < 1e-14


def test_eval_sine_overflow_is_domain_error(capsys):
    # one wedge factor's e^{2 pi i z / omega_k} overflows double precision
    rc, out, err = run(capsys, "eval", "s3c", "--z", "0.1787-0.7960i",
                       "--omega", "-0.9429-0.000937i", "--omega", "0.9457-0.001022i",
                       "--omega", "0.3323-0.000873i", "--cone", "cone-over-square")
    assert rc == EXIT_DOMAIN
    assert out == ""
    assert "multiple sine overflows at |x| = exp(" in err
    # the single sine refuses a non-finite argument or period rather than
    # printing nan+nani or 0.0+0.0i
    for z, omega in (("nan", "1"), ("1e309", "1"), ("0.3", "1e309")):
        rc, out, err = run(capsys, "eval", "s1", "--z", z, "--omega", omega)
        assert (rc, out) == (EXIT_DOMAIN, "")
        assert "single sine needs a finite argument and period" in err


@pytest.mark.parametrize("argv", [
    ("qfac", "--z", "0.3", "--omega", "1e308+0.5i"),
    ("qfac", "--z", "0.3", "--omega", "1e309+0.5i"),
    ("qfac", "--z", "0.3+1e309i", "--omega", "0.5i"),
    ("g0", "--z", "0.1", "--tau", "1e309i"),
    ("g1", "--z", "0.1", "--omega", "0.2+1e309i", "--omega", "0.3+1i"),
    ("theta0", "--z", "1e309", "--tau", "1i"),
], ids=["qfac-huge-period", "qfac-inf-real-period", "qfac-inf-imag-z", "g0-inf-imag-tau",
        "g1-inf-imag-period", "theta0-inf-z"])
def test_eval_non_finite_exponent_is_domain_error(capsys, argv):
    # once a traceback (ValueError from cmath.exp) or a value with Infinity
    # in its JSON record; now refused before any product is formed
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "exp is undefined at exponent" in err


def test_eval_negative_complex_values(capsys):
    rc, out, _ = run(capsys, "eval", "s2", "--z", "-0.3+0.1i",
                     "--omega", "-0.9+0.12i", "--omega", "1.1+0.07i")
    assert rc == EXIT_OK
    rec = eval_record(out)
    assert rec["z"] == [-0.3, 0.1]


def test_eval_standard_cone_matches_plain_sine(capsys):
    args = ["--z", "0.31-0.17i", "--omega", "0.8+0.11i", "--omega", "0.9-0.13i"]
    rc1, out1, _ = run(capsys, "eval", "s2c", "--cone", "standard-2", *args)
    rc2, out2, _ = run(capsys, "eval", "s2", *args)
    assert rc1 == rc2 == EXIT_OK
    v1 = complex(*eval_record(out1)["value"])
    v2 = complex(*eval_record(out2)["value"])
    assert abs(v1 - v2) / abs(v2) < 1e-10


def test_eval_cone_routes_agree(capsys):
    args = ["g1c", "--cone", "wedge21", "--z", "0.31-0.17i",
            "--omega", "0.09-0.60i", "--omega", "-0.04+0.65i"]
    rc1, out1, _ = run(capsys, "eval", *args, "--route", "direct")
    rc2, out2, _ = run(capsys, "eval", *args, "--route", "factorized")
    assert rc1 == rc2 == EXIT_OK
    v1 = complex(*eval_record(out1)["value"])
    v2 = complex(*eval_record(out2)["value"])
    assert abs(v1 - v2) / abs(v2) < 1e-8
    assert eval_record(out1)["route"] == "direct"


def test_eval_gamma_variant_recorded(capsys):
    rc, out, _ = run(capsys, "eval", "g2c", "--cone", "cone-over-square",
                     "--z", "0.31-0.17i", "--omega", "0.06+0.95i",
                     "--omega", "-0.04-0.28i", "--omega", "0.05-0.33i",
                     "--route", "factorized", "--variant", "alternative")
    assert rc == EXIT_OK
    assert eval_record(out)["variant"] == "alternative"


def test_eval_wrong_cone_dimension_is_domain_error(capsys):
    rc, _, err = run(capsys, "eval", "s2c", "--cone", "cone-over-square",
                     "--z", "0.3", "--omega", "1+0.1i", "--omega", "1-0.1i")
    assert rc == EXIT_DOMAIN
    assert "2d cone" in err


@pytest.mark.parametrize("z, omegas", [
    ("0.31-0.17i", ("0.2+0.001i", "0.3+0.0013i")),
    ("0.5", ("0.001i", "0.0013i")),
])
def test_eval_qfac_non_finite_is_domain_error(capsys, z, omegas):
    rc, out, err = run(capsys, "eval", "qfac", "--z", z,
                       "--omega", omegas[0], "--omega", omegas[1])
    assert rc == EXIT_DOMAIN
    assert "not finite" in err
    assert "NaN" not in out


def test_eval_qfac_needs_periods(capsys):
    rc, _, err = run(capsys, "eval", "qfac", "--z", "0.3+0.2i")
    assert rc == EXIT_USAGE
    assert "period" in err


# periods and cone fixture each eval target is called with below
EVAL_ARGS = {
    "s1": (SINE_OMEGAS["standard-2"][:1], None),
    "s2": (SINE_OMEGAS["standard-2"], None),
    "s3": (SINE_OMEGAS["standard-3"], None),
    "g0": (GAMMA_OMEGAS["standard-2"][:1], None),
    "g1": (GAMMA_OMEGAS["standard-2"], None),
    "g2": (GAMMA_OMEGAS["standard-3"], None),
    "theta0": (GAMMA_OMEGAS["standard-2"][:1], None),
    "qfac": (GAMMA_OMEGAS["standard-2"], None),
    "s2c": (SINE_OMEGAS["wedge21"], "wedge21"),
    "s3c": (SINE_OMEGAS["cone-over-square"], "cone-over-square"),
    "g1c": (GAMMA_OMEGAS["wedge21"], "wedge21"),
    "g2c": (GAMMA_OMEGAS["cone-over-square"], "cone-over-square"),
}

# (target, route, recorded flags, library function); a cone target's first
# route is its default
EVAL_ROUTES = [
    *[(f"s{r}", None, {"form": form}, multiple_sine) for r in (1, 2, 3) for form in (1, 2)],
    *[(target, None, {}, elliptic_gamma) for target in ("g0", "g1", "g2", "theta0")],
    ("qfac", None, {}, qfactorial),
    ("s2c", "decomposed", {}, sine_cone_decomposed),
    ("s2c", "factorized", {}, sine_cone_factorized),
    ("s3c", "decomposed", {}, sine_cone_decomposed),
    ("s3c", "factorized", {}, sine_cone_factorized),
    ("g1c", "direct", {}, gamma_cone_direct),
    ("g1c", "factorized", {}, gamma_cone_factorized),
    ("g2c", "direct", {}, gamma_cone_direct),
    *[("g2c", "factorized", {"variant": v}, gamma_cone_factorized)
      for v in ("primary", "alternative")],
]
FLAG_DEFAULTS = {"form": 1, "variant": "primary"}


def eval_argv(target, z, route=None, flags=()):
    """``eval`` arguments for ``target`` at z with its EVAL_ARGS periods and
    cone; a route or flag at its default is left for the CLI to fill in."""
    omegas, cone_name = EVAL_ARGS[target]
    argv = ["eval", target, f"--z={z}", *[f"--omega={format_complex(w)}" for w in omegas]]
    if cone_name is not None:
        argv.append(f"--cone={cone_name}")
    defaults = [r for t, r, *_ in EVAL_ROUTES if t == target][:1]
    if route not in defaults:
        argv.append(f"--route={route}")
    return argv + [f"--{k}={v}" for k, v in dict(flags).items() if FLAG_DEFAULTS[k] != v]


@pytest.mark.parametrize(
    "target, route, flags, fn", EVAL_ROUTES,
    ids=[f"{t}-{r or ''}-{'-'.join(map(str, f.values()))}" for t, r, f, _ in EVAL_ROUTES],
)
def test_eval_record_matches_library_call(capsys, target, route, flags, fn):
    omegas, cone_name = EVAL_ARGS[target]
    cone = () if cone_name is None else (fixture_cone(cone_name),)
    value = fn(*cone, Z_GENERIC, omegas, **flags)
    expected = {
        "schema": 1,
        "target": target,
        "config": DEFAULT_CONFIG.to_json_dict(),
        "value": [value.real, value.imag],
        "z": [Z_GENERIC.real, Z_GENERIC.imag],
        "omegas": [[w.real, w.imag] for w in omegas],
        **flags,
    }
    if cone:
        expected.update(cone=cone[0].to_json_dict(), route=route)
    rc, out, err = run(capsys, *eval_argv(target, format_complex(Z_GENERIC), route, flags))
    assert (rc, err) == (EXIT_OK, "")
    assert out == f"{target} = {format_complex(value)}\n{json.dumps(expected, sort_keys=True)}\n"
    keys = set(eval_record(out)) - {"schema", "target", "config", "value", "z", "omegas"}
    assert keys == (
        ({"form"} if target in ("s1", "s2", "s3") else set())
        | ({"variant"} if (target, route) == ("g2c", "factorized") else set())
        | ({"cone", "route"} if cone else set())
    )


def test_eval_wrong_period_count_message(capsys):
    rc, out, err = run(capsys, "eval", "s2", "--z", "0.3", "--omega", "1+0.1i")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == (
        "conesine: error: target 's2' needs exactly 2 period(s) "
        "(--omega, or --tau for a single one); got 1\n"
    )


def test_eval_unknown_route_message(capsys):
    argv = eval_argv("g1c", "0.3", "decomposed")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == (
        "conesine: error: target 'g1c' supports --route {direct,factorized}, "
        "got 'decomposed'\n"
    )


def test_eval_cone_target_without_cone_message(capsys):
    rc, out, err = run(capsys, "eval", "s2c", "--z", "0.3",
                       "--omega", "1+0.1i", "--omega", "1-0.1i")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "conesine: error: target 's2c' requires --cone\n"


def test_eval_cases_cover_target_table():
    # every (target, route) of the table is pinned above, default route first
    assert list(EVAL_ARGS) == list(_TARGETS)
    pinned = {}
    for target, route, *_ in EVAL_ROUTES:
        pinned.setdefault(target, []).append(route)
    assert {t: list(dict.fromkeys(r)) for t, r in pinned.items()} == {
        t: list(routes) for t, (_, _, routes) in _TARGETS.items()
    }
    for target, (count, dim, _) in _TARGETS.items():
        omegas, cone_name = EVAL_ARGS[target]
        assert count in (None, len(omegas))
        assert dim == (None if cone_name is None else fixture_cone(cone_name).dim)


@pytest.mark.parametrize("argv", [
    ["eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "1-0.1i", "--cone", "wedge21"],
    ["eval", "s1", "--z", "0.3", "--omega", "1", "--route", "factorized"],
], ids=["s2-cone", "s1-route"])
def test_eval_refuses_cone_flags_on_plain_target(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == f"conesine: error: target {argv[1]!r} takes no --cone or --route: it has no cone\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "g0", "--z", "0.1", "--omega", "0.2+1i", "--form", "2"],
     "target 'g0' takes no --form"),
    (["eval", "s2c", "--cone", "wedge21", "--z", "0.31-0.17i", "--omega", "-0.9+0.12i",
      "--omega", "1.1+0.07i", "--variant", "alternative"],
     "target 's2c' takes no --variant on route 'decomposed'"),
    (["eval", "g2c", "--cone", "cone-over-square", "--z", "0.31-0.17i", "--omega", "0.1+0.9i",
      "--omega", "0.2+0.4i", "--omega", "-0.1+0.5i", "--route", "direct", "--variant", "alternative"],
     "target 'g2c' takes no --variant on route 'direct'"),
], ids=["g0-form", "s2c-variant", "g2c-direct-variant"])
def test_eval_refuses_flag_the_route_does_not_take(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == f"conesine: error: {message}\n"


ALL_ROUTES = [(target, route) for target, (_, _, routes) in _TARGETS.items() for route in routes]


@pytest.mark.parametrize("target, route", ALL_ROUTES)
def test_eval_far_from_real_axis_never_escapes(capsys, target, route):
    # e^{2 pi i z} and the Bernoulli prefactors overflow at Im z = -200: a
    # route either refuses with DomainError or returns a finite value
    rc, out, err = run(capsys, *eval_argv(target, "0.3-200i", route))
    if rc == EXIT_DOMAIN:
        assert out == "" and err.startswith("conesine: error: ")
    else:
        assert (rc, err) == (EXIT_OK, "")
        assert cmath.isfinite(complex(*eval_record(out)["value"]))


@pytest.mark.parametrize("scale", [1e120, 1e300])
@pytest.mark.parametrize("target, route", ALL_ROUTES)
def test_eval_huge_period_never_escapes(capsys, target, route, scale):
    # powers of a huge period overflow in the Bernoulli polynomials: a route
    # either refuses with DomainError or returns a finite value
    argv = eval_argv(target, format_complex(Z_GENERIC), route)
    first = next(i for i, arg in enumerate(argv) if arg.startswith("--omega="))
    argv[first] = f"--omega={format_complex(EVAL_ARGS[target][0][0] * scale)}"
    rc, out, err = run(capsys, *argv)
    if rc == EXIT_DOMAIN:
        assert out == "" and err.startswith("conesine: error: ")
    else:
        assert (rc, err) == (EXIT_OK, "")
        assert cmath.isfinite(complex(*eval_record(out)["value"]))


@pytest.mark.parametrize("target, cone, route, z, omegas", OVERFLOWING_PRODUCTS)
def test_eval_overflowing_cone_product_exits_2(capsys, target, cone, route, z, omegas):
    # the value would print as NaN or Infinity, which is not valid JSON
    argv = ["eval", target, f"--cone={cone}", f"--route={route}", f"--z={format_complex(z)}",
            *[f"--omega={format_complex(w)}" for w in omegas]]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "NaN" not in out and "Infinity" not in out
    assert err.startswith("conesine: error: ") and "is not finite" in err


@pytest.mark.parametrize("argv", [
    "eval theta0 --z 0.3-200i --tau i",
    "eval g1 --z 0.3-200i --omega 0.2+0.5i --omega 0.1+0.7i",
])
def test_eval_exp_overflow_is_domain_error(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "exp overflows double precision at exponent real part 1256.64" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys, tmp_path):
    out_file = tmp_path / "rep.json"
    rc, out, _ = run(capsys, "verify", "s2c-factorization", "--cone", "wedge21",
                     "--samples", "3", "--seed", "7", "--output", str(out_file))
    assert rc == EXIT_OK
    assert "status           PASS" in out
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "PASS"
    assert doc["theorem"] == "s2c-factorization"
    assert len(doc["points"]) == 3


def test_verify_skip_is_success(capsys):
    rc, out, _ = run(capsys, "verify", "s3c-factorization", "--cone", "wedge21",
                     "--samples", "2")
    assert rc == EXIT_OK
    assert "status           SKIP" in out
    assert "skip reason" in out


def test_verify_fail_exit_code(capsys):
    rc, out, _ = run(capsys, "verify", "s2c-factorization", "--cone", "wedge21",
                     "--samples", "2", "--tol", "1e-300")
    assert rc == EXIT_FAIL
    assert "status           FAIL" in out


def test_verify_nan_residual_is_failure(capsys, monkeypatch):
    # a nan right-hand side at sample 2 only: max() alone would skip it and
    # report PASS
    thm = THEOREMS["s2c-factorization"]
    calls = []

    def rhs(*args):
        calls.append(None)
        return complex(math.nan) if len(calls) == 3 else thm.rhs(*args)

    monkeypatch.setitem(THEOREMS, "s2c-factorization", dataclasses.replace(thm, rhs=rhs))
    rc, out, _ = run(capsys, "verify", "s2c-factorization", "--cone", "wedge21",
                     "--samples", "4")
    assert rc == EXIT_FAIL
    assert "status           FAIL" in out
    doc = json.loads(out[out.index("{"):])
    assert math.isnan(doc["residuals"][2])
    assert math.isnan(doc["max_residual"])


def test_verify_redraws_non_finite_q_factorial_sample(capsys):
    # sample 8 of this replay drew periods whose q-factorial overflowed to nan;
    # it now raises DomainError and the sample is drawn again
    rc, out, _ = run(capsys, "verify", "g1c-factorization", "--cone", "standard-2",
                     "--samples", "10", "--seed", "100002")
    assert rc == EXIT_OK
    assert "status           PASS" in out
    doc = json.loads(out[out.index("{"):])
    assert len(doc["residuals"]) == 10
    assert all(math.isfinite(r) for r in doc["residuals"])


def test_verify_unknown_theorem_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "nonsense", "--cone", "wedge21")
    assert rc == EXIT_USAGE
    assert "unknown theorem id" in err


def test_verify_cone_from_json_file(capsys, tmp_path):
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(fixture_cone("wedge21").to_json_dict()))
    rc, out, _ = run(capsys, "verify", "s2c-factorization", "--cone", str(path),
                     "--samples", "2")
    assert rc == EXIT_OK
    assert "status           PASS" in out


def test_malformed_cone_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "verify", "s2c-factorization", "--cone", str(path))
    assert rc == EXIT_USAGE
    assert "not valid JSON" in err


def test_invalid_cone_data_is_domain_error(capsys, tmp_path):
    path = tmp_path / "nonprimitive.json"
    path.write_text(json.dumps({"dim": 2, "normals": [[0, 2], [1, 0]]}))
    rc, _, err = run(capsys, "verify", "s2c-factorization", "--cone", str(path))
    assert rc == EXIT_DOMAIN


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m conesine.cli`` in a fresh process, so that an uncaught
    exception shows as a traceback and exit 1."""
    return _fresh_python("-m", "conesine.cli", *argv)


_CONE_FILE_VERBS = [
    ["check-cone", "{path}"],
    ["verify", "s2c-factorization", "--cone", "{path}", "--samples", "1"],
    ["eval", "s2c", "--cone", "{path}", "--z", "0.31-0.17i", "--omega", "-0.9+0.12i", "--omega", "1.1+0.07i"],
]


@pytest.mark.parametrize("verb", _CONE_FILE_VERBS, ids=lambda verb: verb[0])
def test_infinite_cone_entry_is_domain_error_without_traceback(tmp_path, verb):
    # JSON reads 1e400 as infinity, which int() cannot convert
    path = tmp_path / "inf.json"
    path.write_text('{"dim": 2, "normals": [[1e400, 1], [0, 1]]}')
    done = _cli_process(*(arg.format(path=path) for arg in verb))
    assert done.returncode == EXIT_DOMAIN
    assert done.stderr == "conesine: error: normal must be a sequence of integers: (inf, 1)\n"


@pytest.mark.parametrize("verb", _CONE_FILE_VERBS, ids=lambda verb: verb[0])
def test_integral_float_dimension_loads_as_the_int_cone(tmp_path, verb):
    # an integral dim is taken as that int, so 2.0 loads the same cone as 2
    doc = fixture_cone("wedge21").to_json_dict()
    as_int, as_float = tmp_path / "int.json", tmp_path / "float.json"
    as_int.write_text(json.dumps(doc))
    as_float.write_text(json.dumps({**doc, "dim": 2.0}))
    want = _cli_process(*(arg.format(path=as_int) for arg in verb))
    got = _cli_process(*(arg.format(path=as_float) for arg in verb))
    assert (got.returncode, got.stderr) == (EXIT_OK, "")
    assert got.stdout.replace(str(as_float), str(as_int)) == want.stdout


def test_unknown_fixture_name_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "s2c-factorization", "--cone", "no-such-cone")
    assert rc == EXIT_USAGE
    assert "neither a bundled cone name" in err


# ---------------------------------------------------------------------------
# report


def test_report_json_deterministic(capsys):
    args = ["report", "--cone", "wedge21", "--theorem", "s2c-factorization",
            "--theorem", "g1c-factorization", "--samples", "2", "--seed", "11"]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "verification-report"
    assert doc["counts"] == {"PASS": 2, "SKIP": 0, "FAIL": 0}
    assert doc["status"] == "PASS"
    assert {item["theorem"] for item in doc["items"]} == {
        "s2c-factorization", "g1c-factorization"
    }
    assert all(len(c["digest"]) == 64 for c in doc["cones"])


def test_report_mixed_dimensions_count_skips(capsys):
    rc, out, _ = run(capsys, "report", "--cone", "wedge21", "--cone", "cone-over-square",
                     "--theorem", "s2c-factorization", "--samples", "2")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["counts"] == {"PASS": 1, "SKIP": 1, "FAIL": 0}


def test_report_csv_format(capsys):
    rc, out, _ = run(capsys, "report", "--cone", "wedge21", "--cone", "standard-3",
                     "--theorem", "s2c-factorization", "--format", "csv",
                     "--samples", "2")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "theorem,cone,status,samples,seed,tolerance,max_residual,detail"
    assert lines[1].startswith("s2c-factorization,wedge21,PASS,2,0,")
    assert lines[2].startswith("s2c-factorization,standard-3,SKIP,")


def test_report_output_file_and_summary(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    rc, out, _ = run(capsys, "report", "--cone", "wedge21",
                     "--theorem", "s2c-factorization", "--samples", "2",
                     "--output", str(out_file))
    assert rc == EXIT_OK
    assert "overall          PASS" in out
    assert f"report written   {out_file}" in out
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "PASS"


def test_report_unknown_theorem_is_usage_error(capsys):
    rc, _, err = run(capsys, "report", "--theorem", "bogus", "--cone", "wedge21")
    assert rc == EXIT_USAGE
    assert "unknown theorem id" in err


# ---------------------------------------------------------------------------
# subdivide / check-cone


def test_subdivide_output(capsys):
    rc, out, _ = run(capsys, "subdivide", "0,1", "-5,3")
    assert rc == EXIT_OK
    assert "chain                  (0,1) (-1,1) (-3,2) (-5,3)" in out
    assert "adjacent determinants  1 1 1" in out
    assert "interior lines         (-1,1) (-3,2)" in out


def test_subdivide_trivial_wedge(capsys):
    rc, out, _ = run(capsys, "subdivide", "0,1", "-1,0")
    assert rc == EXIT_OK
    assert "chain                  (0,1) (-1,0)" in out
    assert "interior lines         (none)" in out


def test_check_cone_square(capsys):
    rc, out, _ = run(capsys, "check-cone", "cone-over-square")
    assert rc == EXIT_OK
    assert "good        yes" in out
    assert "gorenstein  xi = (1,0,0)" in out
    assert out.count("edge(") == 4


def test_check_cone_not_good(capsys, tmp_path):
    path = tmp_path / "notgood.json"
    path.write_text(json.dumps({"dim": 3, "normals": [[1, 0, 0], [1, 2, 0], [0, 0, 1]]}))
    rc, out, _ = run(capsys, "check-cone", str(path))
    assert rc == EXIT_OK
    assert "good        no" in out
    assert "face transforms unavailable" in out


def test_not_good_cone_skips_verify_and_refuses_eval(capsys, tmp_path):
    # a Gorenstein vector (1, 1, 1) exists, but the cone is not good
    path = tmp_path / "notgood.json"
    path.write_text(json.dumps({"dim": 3, "normals": [[2, 0, -1], [0, 2, -1], [0, 0, 1]]}))
    rc, out, _ = run(capsys, "verify", "g2c-factorization", "--cone", str(path), "--samples", "1")
    assert rc == EXIT_OK
    assert "skip reason      cone is not good: some edge lattice is not saturated" in out
    periods = ["--omega", "0.1+0.5i", "--omega", "-0.1+0.6i", "--omega", "0.05+0.4i"]
    for target, routes in (("s3c", ("decomposed", "factorized")), ("g2c", ("direct", "factorized"))):
        for route in routes:
            rc, out, err = run(capsys, "eval", target, "--cone", str(path), "--route", route,
                               "--z", "0.3", *periods)
            assert (rc, out) == (EXIT_DOMAIN, "")
            assert err == "conesine: error: cone is not good: some edge lattice is not saturated\n"


@pytest.mark.parametrize("v1, v2, code, message", [
    ("1,2,3", "0,1", EXIT_DOMAIN, "conesine: error: wedge normals must be 2d integer vectors"),
    ("2,4", "0,1", EXIT_DOMAIN, "conesine: error: wedge normal (2, 4) is not primitive"),
    ("0,x", "1,0", EXIT_USAGE, "error: argument v1: cannot parse integer vector from '0,x'"),
], ids=["three-entries", "not-primitive", "not-an-integer"])
def test_subdivide_refusals(capsys, v1, v2, code, message):
    try:
        rc = main(["subdivide", v1, v2])
    except SystemExit as exc:  # argparse refuses the argument itself
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out) == (code, "")
    assert message in captured.err


# ---------------------------------------------------------------------------
# configuration plumbing


def test_env_config_override(capsys, monkeypatch, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"max_terms": 50000}))
    monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
    rc, out, _ = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_OK
    assert eval_record(out)["config"]["max_terms"] == 50000


def test_env_config_unknown_key_is_usage_error(capsys, monkeypatch, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"bogus": 1}))
    monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
    rc, _, err = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_USAGE
    assert "unknown config keys" in err


def test_env_config_missing_file_is_usage_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CONESINE_CONFIG", str(tmp_path / "absent.json"))
    rc, _, err = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_USAGE
    assert "cannot read file" in err


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "expected a JSON object"),
], ids=["invalid-json", "json-list"])
def test_env_config_unreadable_document_is_usage_error(capsys, monkeypatch, tmp_path, text, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
    rc, out, err = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert (rc, out) == (EXIT_USAGE, "")
    assert f"conesine: error: CONESINE_CONFIG={str(cfg_file)!r}: {message}" in err


def test_tail_tol_flag_threads_into_config(capsys):
    rc, out, _ = run(capsys, "eval", "s2", "--z", "0.3+0.1i",
                     "--omega", "0.8+0.11i", "--omega", "0.9-0.13i",
                     "--tail-tol", "1e-14")
    assert rc == EXIT_OK
    assert eval_record(out)["config"]["tail_tol"] == 1e-14


@pytest.mark.parametrize("verb", [
    ["eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "1-0.1i"],
    ["report", "--samples", "1"],
])
def test_radius_flag_is_gone(capsys, verb):
    # no verb runs an oracle, so the flag is refused as unknown
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--radius", "5"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --radius 5" in capsys.readouterr().err
