"""Command-line driver: verbs, exit codes, report formats, config overrides."""
from __future__ import annotations

import cmath
import csv
import dataclasses
import enum
import errno
import functools
import io
import json
import math
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import conesine
from conesine import (
    DEFAULT_CONFIG,
    FIXTURE_NAMES,
    ParseError,
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
    EXIT_CLOSED_PIPE,
    EXIT_DOMAIN,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _TARGETS,
    _cone_digest,
    _json_document,
    build_parser,
    format_complex,
    main,
    parse_complex,
)
from conesine import lattice_cones
from conesine.generalized import THEOREMS, verify_theorem
from conesine.lattice_cones import Cone

from params import GAMMA_OMEGAS, OVERFLOWING_PRODUCTS, SINE_OMEGAS, Z_GENERIC, forced_form
from test_contract import values


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
    # only the trailing letter is the imaginary unit: every i once became j,
    # so inf read as jnf and failed to parse
    assert parse_complex("inf") == complex(math.inf, 0)
    assert parse_complex("-inf") == complex(-math.inf, 0)
    assert parse_complex("1+infi") == complex(1, math.inf)
    assert parse_complex("0.5-0.25I") == 0.5 - 0.25j
    assert cmath.isnan(parse_complex("nan"))
    for text in ("1i2", "infi+1", ""):
        with pytest.raises(ParseError, match="cannot parse complex number"):
            parse_complex(text)


def test_bad_complex_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s1", "--z", "wat", "--omega", "1"])
    assert exc.value.code == EXIT_USAGE


# an otherwise valid call of each verb that takes flags with values
_VALID_CALLS = {
    "eval": ["eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "0.5+0.3i"],
    "verify": ["verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1"],
    "report": ["report", "--cone", "wedge21", "--theorem", "s2c-factorization", "--samples", "1"],
}


def _value_flags() -> list[tuple[str, str]]:
    """(verb, flag) for every flag of every verb that takes a value."""
    verbs = next(a for a in build_parser()._actions if a.dest == "verb").choices
    return [(verb, flag) for verb, sub in verbs.items() for action in sub._actions
            if action.option_strings and action.nargs != 0 for flag in action.option_strings]


@pytest.mark.parametrize("verb, flag", _value_flags(), ids=[verb + flag for verb, flag in _value_flags()])
def test_a_flag_value_of_double_dash_is_usage_error(capsys, verb, flag):
    # argparse strips the value "--" and handed the verb an empty list: eval died
    # with an AttributeError traceback, and report --format=-- wrote JSON
    with pytest.raises(SystemExit) as exc:
        main([*_VALID_CALLS[verb], f"{flag}=--"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: expected a value, got '--'" in captured.err


def test_missing_argument_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "s1", "--omega", "1")
    assert rc == EXIT_USAGE
    assert "--z" in err


def test_unknown_eval_target_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "blorp", "--z", "0.5")
    assert rc == EXIT_USAGE
    assert "unknown eval target" in err


def test_the_parser_is_built_once_and_carries_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    # a --cone list from one report does not narrow the next
    rc, out, _ = run(capsys, "report", "--cone", "wedge21", "--theorem", "s2c-factorization",
                     "--samples", "1")
    assert rc == EXIT_OK
    assert [c["name"] for c in json.loads(out)["cones"]] == ["wedge21"]
    rc, out, _ = run(capsys, "report", "--samples", "1")
    assert rc == EXIT_OK
    assert [c["name"] for c in json.loads(out)["cones"]] == list(FIXTURE_NAMES)
    # --omega values do not accumulate: two periods, then one
    rc, out, _ = run(capsys, "eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "0.5+0.3i")
    assert rc == EXIT_OK
    assert len(eval_record(out)["omegas"]) == 2
    rc, out, _ = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_OK
    assert eval_record(out)["omegas"] == [[1.0, 0.0]]
    # usage errors and --version still end the call with their codes
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s1", "--z", "wat", "--omega", "1"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out == f"conesine {conesine.__version__}\n"
    rc, out, _ = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_OK


# ---------------------------------------------------------------------------
# eval


def test_eval_single_sine_closed_form(capsys):
    rc, out, _ = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
    assert rc == EXIT_OK
    value = eval_record(out)["value"]
    assert math.isclose(value[0], math.sqrt(2), rel_tol=1e-12)
    assert abs(value[1]) < 1e-12


def test_eval_g0_vanishes_at_origin(capsys):
    # G_0(z | tau), the theta product, has a zero at z = 0
    rc, out, _ = run(capsys, "eval", "g0", "--z", "0", "--tau", "i")
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
    for z, omega in (("nan", "1"), ("inf", "1"), ("-inf", "1"), ("1+infi", "1"), ("1e309", "1"), ("0.3", "1e309")):
        rc, out, err = run(capsys, "eval", "s1", "--z", z, "--omega", omega)
        assert (rc, out) == (EXIT_DOMAIN, "")
        assert "single sine needs a finite argument and period" in err


@pytest.mark.parametrize("argv", [
    ("qfac", "--z", "0.3", "--omega", "1e308+0.5i"),
    ("qfac", "--z", "0.3", "--omega", "1e309+0.5i"),
    ("qfac", "--z", "0.3+1e309i", "--omega", "0.5i"),
    ("g0", "--z", "0.1", "--tau", "1e309i"),
    ("g1", "--z", "0.1", "--omega", "0.2+1e309i", "--omega", "0.3+1i"),
    ("g0", "--z", "1e309", "--tau", "1i"),
], ids=["qfac-huge-period", "qfac-inf-real-period", "qfac-inf-imag-z", "g0-inf-imag-tau",
        "g1-inf-imag-period", "g0-inf-z"])
def test_eval_non_finite_exponent_is_domain_error(capsys, argv):
    # once a traceback (ValueError from cmath.exp) or a value with Infinity
    # in its JSON record; now refused before any product is formed
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "exp is undefined at exponent" in err


@pytest.mark.parametrize("argv", [
    ("qfac", "--z", "0.125-112.99i", "--omega", "0.3+0.5i"),
    ("g1", "--z", "0.125-112.99i", "--omega", "0.3+0.5i", "--omega", "0.2+0.4i"),
], ids=["qfac", "g1"])
def test_eval_argument_modulus_beyond_double_range_is_domain_error(capsys, argv):
    # e^{2 pi i z} has finite parts but a modulus above double range: once a
    # raw OverflowError from abs(x), a traceback and exit 1
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "has a modulus above double precision" in err


@pytest.mark.parametrize("argv, message", [
    # the factorized route printed 0.0+0.0i: its Bernoulli prefactor underflowed to exactly 0
    (("g1c", "--cone", "wedge21", "--z", "0.1-5i", "--omega", "0.09-0.6i", "--omega", "-0.04+0.65i",
      "--route", "factorized"), "prefactor e^(c B_rr) with c = 0+1.0472j underflows at B_rr = "),
    # finite q-factorials whose product is not: g0 = 70.33-infi and g0 = inf+nani, exit 0
    (("g0", "--z", "1.1125369292536007e-308", "--tau", "-0.08906561888218836i"), "elliptic gamma is not finite"),
    (("g0", "--z", "-0.4977920813097638+0.001i", "--tau", "0.00011648242185494838+0.00012032765163390222i"),
     "elliptic gamma is not finite"),
    # target / |x| underflowed to 0 in the shift-step count: "math domain error", a traceback and exit 1
    (("qfac", "--z", "0.1-111i", "--omega", "0.2+5i"), "q-factorial is not finite"),
], ids=["g1c-prefactor-zero", "g0-minus-inf-imag", "g0-inf-nan", "qfac-shift-steps"])
def test_eval_value_out_of_double_range_is_domain_error(capsys, argv, message):
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err.startswith("conesine: error: ") and message in err


@pytest.mark.parametrize("argv", [
    # qfactorial_xq(0.5, (0.999999,)): every factor is positive, and qfac printed 0.0+0.0i
    ("qfac", "--z", "0.11031780007632579i", "--omega", "1.5915502409454e-07i"),
    # nothing vanishes: the q-factorials underflowed, and s2 was refused as a pole
    ("s2", "--z", "0.3+0.01i", "--omega", "1", "--omega", "0.3+2e-7i"),
], ids=["qfac", "s2"])
def test_eval_q_factorial_that_underflows_is_domain_error(capsys, argv):
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err == "conesine: error: the q-factorial underflows: its value falls below the normal double range\n"


@pytest.mark.parametrize("argv", [
    ("qfac", "--z", "0.3", "--omega", "0.125-113i"),
    ("g1", "--z", "0.3", "--omega", "0.125-113i", "--omega", "0.1+113i"),
], ids=["qfac", "g1"])
def test_eval_period_modulus_beyond_double_range_is_domain_error(capsys, argv):
    # e^{2 pi i omega} has finite parts but a modulus above double range: once a
    # raw OverflowError from abs(q), a traceback and exit 1
    rc, out, err = run(capsys, "eval", *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "period q = 1.57958e+308+1.57958e+308j has a modulus above double precision" in err


def test_eval_negative_complex_values(capsys):
    rc, out, _ = run(capsys, "eval", "s2", "--z", "-0.3+0.1i",
                     "--omega", "-0.9+0.12i", "--omega", "1.1+0.07i")
    assert rc == EXIT_OK
    rec = eval_record(out)
    assert rec["z"] == [-0.3, 0.1]
    # a value with no digit after the minus sign is a value too, not an option
    rc, out, err = run(capsys, "eval", "s1", "--z", "-i", "--omega", "1")
    assert (rc, err) == (EXIT_OK, "")
    assert eval_record(out)["z"] == [-0.0, -1.0]
    # a malformed one is the flag's value too, and its parser names it
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s1", "--z", "-1+2x", "--omega", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "cannot parse complex number from '-1+2x'" in capsys.readouterr().err


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
    # the alternative factorization is a route of its own, recorded as the route
    rc, out, _ = run(capsys, "eval", "g2c", "--cone", "cone-over-square",
                     "--z", "0.31-0.17i", "--omega", "0.06+0.95i",
                     "--omega", "-0.04-0.28i", "--omega", "0.05-0.33i",
                     "--route", "alternative")
    assert rc == EXIT_OK
    record = eval_record(out)
    assert record["route"] == "alternative" and "variant" not in record


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
    "qfac": (GAMMA_OMEGAS["standard-2"], None),
    "s2c": (SINE_OMEGAS["wedge21"], "wedge21"),
    "s3c": (SINE_OMEGAS["cone-over-square"], "cone-over-square"),
    "g1c": (GAMMA_OMEGAS["wedge21"], "wedge21"),
    "g2c": (GAMMA_OMEGAS["cone-over-square"], "cone-over-square"),
}

# (target, route, the sine form forced through the one seam or None, library
# function); a cone target's first route is its default
EVAL_ROUTES = [
    *[(f"s{r}", None, form, multiple_sine) for r in (1, 2, 3) for form in (None, 1, 2)],
    *[(target, None, None, elliptic_gamma) for target in ("g0", "g1", "g2")],
    ("qfac", None, None, qfactorial),
    ("s2c", "decomposed", None, sine_cone_decomposed),
    ("s2c", "factorized", None, sine_cone_factorized),
    ("s3c", "decomposed", None, sine_cone_decomposed),
    ("s3c", "factorized", None, sine_cone_factorized),
    ("g1c", "direct", None, gamma_cone_direct),
    ("g1c", "factorized", None, gamma_cone_factorized),
    ("g2c", "direct", None, gamma_cone_direct),
    ("g2c", "factorized", None, gamma_cone_factorized),
    ("g2c", "alternative", None, functools.partial(gamma_cone_factorized, variant="alternative")),
]


def eval_argv(target, z, route=None):
    """``eval`` arguments for ``target`` at z with its EVAL_ARGS periods and
    cone; a default route is left for the CLI to fill in."""
    omegas, cone_name = EVAL_ARGS[target]
    argv = ["eval", target, f"--z={z}", *[f"--omega={format_complex(w)}" for w in omegas]]
    if cone_name is not None:
        argv.append(f"--cone={cone_name}")
    defaults = [r for t, r, *_ in EVAL_ROUTES if t == target][:1]
    if route not in defaults:
        argv.append(f"--route={route}")
    return argv


@pytest.mark.parametrize(
    "target, route, form, fn", EVAL_ROUTES,
    ids=[f"{t}-{r or ''}-{form if fn is multiple_sine else ''}" for t, r, form, fn in EVAL_ROUTES],
)
def test_eval_record_matches_library_call(capsys, target, route, form, fn):
    omegas, cone_name = EVAL_ARGS[target]
    cone = () if cone_name is None else (fixture_cone(cone_name),)
    with nullcontext() if form is None else forced_form(form):
        value = fn(*cone, Z_GENERIC, omegas)
        rc, out, err = run(capsys, *eval_argv(target, format_complex(Z_GENERIC), route))
    expected = {
        "schema": 1,
        "target": target,
        "config": DEFAULT_CONFIG.to_json_dict(),
        "value": [value.real, value.imag],
        "z": [Z_GENERIC.real, Z_GENERIC.imag],
        "omegas": [[w.real, w.imag] for w in omegas],
    }
    if cone:
        expected.update(cone=cone[0].to_json_dict(), route=route)
    assert (rc, err) == (EXIT_OK, "")
    assert out == f"{target} = {format_complex(value)}\n{json.dumps(expected, sort_keys=True)}\n"


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


@pytest.mark.parametrize("flag", [("--form", "1"), ("--variant", "alternative")], ids=["form", "variant"])
def test_eval_takes_no_form_or_variant(capsys, flag):
    # the code picks the sine form, and the alternative gamma factorization is a route
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "0.5+0.3i", *flag])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


def test_eval_sine_takes_the_cheaper_form_by_default(capsys):
    # WEDGE_SINES sine0: form 1 errs by 1.0e-8 there, the cheaper form 2 by 3.5e-15
    pytest.importorskip("mpmath")
    from test_qseries_reference import WEDGE_SINE_BOUND, WEDGE_SINES

    z, omegas, re, im = WEDGE_SINES[0]
    argv = ["eval", "s3", f"--z={format_complex(z)}", *[f"--omega={format_complex(w)}" for w in omegas]]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (EXIT_OK, "")
    record = eval_record(out)
    assert "form" not in record
    want = complex(float(re), float(im))
    assert abs(complex(*record["value"]) - want) / abs(want) <= WEDGE_SINE_BOUND
    # form 1 forced through the seam reaches eval too, and is not what eval takes by default
    with forced_form(1):
        rc, out, _ = run(capsys, *argv)
        assert complex(*eval_record(out)["value"]) == multiple_sine(z, omegas) != complex(*record["value"])


@pytest.mark.parametrize("form, argv, line", [
    # the cheaper form's q-factorial overflows at |x| = 6.9e147; the other form
    # returns the value, which only a forced form reached before
    (None, ("--z", "-1.999751354833775-0.01756626591609456i", "--omega", "-0.01190205266261124+0.004214491266586144i",
            "--omega", "0.6522969357444515-0.000880847566452513i"),
     "s2 = 2.199154254406434e+157+1.65540020886517e+157i"),
    # form 1 tried first: e^(2 pi i z / omega_0) overflows, and form 2, which eval
    # takes by default here, returns the value that `--form 1` refused with exit 2
    (1, ("--z", "0.3-200i", "--omega", "0.8+0.11i", "--omega", "0.9-0.13i"),
     "s2 = 1.568623130774023e-49-1.7509578389119222e-49i"),
], ids=["cheaper-refuses", "form-1-refuses"])
def test_eval_sine_takes_the_other_form_where_the_cheaper_refuses(capsys, form, argv, line):
    with nullcontext() if form is None else forced_form(form):
        rc, out, err = run(capsys, "eval", "s2", *argv)
    assert (rc, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == line


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
    "eval g0 --z 0.3-200i --tau i",
    "eval g1 --z 0.3-200i --omega 0.2+0.5i --omega 0.1+0.7i",
])
def test_eval_exp_overflow_is_domain_error(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert "exp overflows double precision at exponent real part 1256.64" in err


# every spelling parse_complex takes: an i, I or j unit, Python's repr, parentheses and spaces
def _spell(c: complex, spelling: int) -> str:
    sign = "+" if c.imag >= 0 or c.imag != c.imag else "-"
    re, im = repr(c.real), repr(abs(c.imag))
    return (format_complex(c), f"{re}{sign}{im}j", f"{re}{sign}{im}I", f"({re}{sign}{im}j)", repr(c),
            f" {re} {sign} {im} i ")[spelling]


@st.composite
def eval_argvs(draw):
    """(target, argv) of one ``eval`` call: a route of any target, a bundled cone of its
    dimension, and z and the periods from the contract's ``values`` pools, each spelled in
    one of ``_spell``'s ways, as ``--flag value`` or ``--flag=value``."""
    target, route = draw(st.sampled_from(ALL_ROUTES))
    count, dim, _ = _TARGETS[target]
    flags = [("--z", draw(values))] + [("--omega", draw(values)) for _ in range(count or draw(st.integers(1, 3)))]
    argv = ["eval", target]
    if dim is not None:
        cone = draw(st.sampled_from([n for n in FIXTURE_NAMES if fixture_cone(n).dim == dim]))
        argv += [f"--cone={cone}", f"--route={route}"]
    for flag, c in flags:
        text = _spell(c, draw(st.integers(0, 5)))
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return target, argv


@pytest.fixture(scope="module")
def contract_config(tmp_path_factory):
    # the contract's budget: a call whose moduli sit near the unit circle ends in a BudgetError
    path = tmp_path_factory.mktemp("contract") / "config.json"
    path.write_text(json.dumps({"max_terms": 200_000}))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(call=eval_argvs())
def test_eval_argv_prints_one_finite_record_or_exits_with_an_error_line(contract_config, call):
    target, argv = call
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"CONESINE_CONFIG": contract_config}), redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses the argument itself
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {rc}")
    if rc == EXIT_OK:
        lines = out.splitlines()
        assert err == "" and len(lines) == 2 and lines[0].startswith(f"{target} = "), (argv, out, err)
        record = json.loads(lines[1])
        assert record["config"]["max_terms"] == 200_000
        assert cmath.isfinite(complex(*record["value"])), (argv, record)
    else:
        assert rc in (EXIT_USAGE, EXIT_DOMAIN) and out == "", (argv, rc, out, err)
        assert err.splitlines()[-1].startswith(("conesine: error: ", "conesine eval: error: ")), (argv, err)


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


@pytest.mark.parametrize("argv", [
    ("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1", "--tol", "nan"),
    ("report", "--cone", "wedge21", "--theorem", "s2c-factorization", "--samples", "1", "--tol", "inf"),
    ("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1", "--tol", "-inf"),
    ("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1", "--tol", "-nan"),
], ids=["verify-nan", "report-inf", "verify-minus-inf", "verify-minus-nan"])
def test_tolerance_that_is_not_finite_is_a_domain_error(capsys, argv):
    # nan printed FAIL and recorded "tolerance": NaN; inf passed every item
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err.startswith("conesine: error: the tolerance must be a finite positive number")


@pytest.mark.parametrize("argv, message", [
    (("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1", "--tol", "-1e-9"),
     "the tolerance must be a finite positive number"),
    (("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1", "--tol", "-0.5"),
     "the tolerance must be a finite positive number"),
    (("report", "--cone", "wedge21", "--theorem", "s2c-factorization", "--samples", "1",
      "--tol", "-1e-9"), "the tolerance must be a finite positive number"),
    (("eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "0.5+0.3i", "--tail-tol", "-1e-3"),
     "tolerances must satisfy 0 < tail_tol < 1"),
], ids=["verify-tol-exponent", "verify-tol-decimal", "report-tol-exponent", "eval-tail-tol-exponent"])
def test_negative_tolerance_is_a_domain_error_in_every_spelling(capsys, argv, message):
    # argparse reads "-1e-9" as an option, not a number: the value went missing
    # and the call exited 1 with "expected one argument"
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err.startswith(f"conesine: error: {message}")


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


# the bundled cones are literals in conesine.fixtures; the digest of each one's
# JSON, which every report records, pins them
FIXTURE_DIGESTS = {
    "standard-2": "70f38799099e864e9f226441b6dc4b81298b88f6052109402342b6df1424784c",
    "standard-3": "429ab9f0f03c61277eceba0d1130b0c576afed1fb2ce1760fdf100c6d3cc8ae0",
    "wedge21": "01a70a84ccdf34240e399fdafdd0276c1dac5e042cb727bb29fd110a26a017c1",
    "wedge53": "3aef347181f8ab72781680c0b29f9b36c0385c5f11343e07eb9399d215050c79",
    "cone-over-square": "ea372d8823d3c71f7fbd0fe8bd054af00ab11319efd0d9c971697f3d6cd5af91",
}


def test_fixture_digests_are_pinned():
    assert {name: _cone_digest(fixture_cone(name)) for name in FIXTURE_NAMES} == FIXTURE_DIGESTS
    assert FIXTURE_NAMES == tuple(FIXTURE_DIGESTS)


# hostile file -> (its bytes, None for a path in a missing directory, "dir" for a
# directory; exit code and error fragment when it is read as a cone)
_HOSTILE_FILES = {
    "float-entry": (b'{"dim": 2, "normals": [[1.5, 1], [0, 1]]}', EXIT_DOMAIN, "must have integer entries"),
    "bool-entry": (b'{"dim": 2, "normals": [[true, 1], [0, 1]]}', EXIT_DOMAIN, "must have integer entries"),
    "huge-entry": (b'{"dim": 2, "normals": [[1' + b"0" * 400 + b', 1], [0, 1]]}', EXIT_DOMAIN,
                   "entry of magnitude 2**53 or more"),
    "non-primitive": (b'{"dim": 2, "normals": [[0, 2], [1, 0]]}', EXIT_DOMAIN, "is not primitive"),
    "flat-normals": (b'{"dim": 2, "normals": [1, 2]}', EXIT_USAGE, "must have 'dim' and 'normals'"),
    "top-level-list": (b"[[0, 1], [1, 0]]", EXIT_USAGE, "must have 'dim' and 'normals'"),
    # more digits than int() converts: json raises a ValueError that is no JSONDecodeError
    "long-integer": (b'{"dim": 2, "normals": [[1' + b"0" * 5000 + b', 1], [0, 1]]}', EXIT_USAGE, "not valid JSON"),
    "non-utf8": (b'\xff{"dim": 2}', EXIT_USAGE, "not UTF-8 text (invalid start byte at byte 0)"),
    "deep-nesting": (b"[" * 200_000 + b"]" * 200_000, EXIT_USAGE, "JSON nested too deeply"),
    "missing": (None, EXIT_USAGE, "nor a readable file"),
    "directory": ("dir", EXIT_USAGE, "nor a readable file"),
    "max-terms-true": (b'{"max_terms": true}', EXIT_DOMAIN, "max_terms must be an integer, got True"),
}


def _hostile_calls():
    """(argv with {path} for the file, file kind, whether the file is
    CONESINE_CONFIG, exit code, error fragment with {path})."""
    report = ["report", "--cone", "{path}", "--samples", "1"]
    for verb in [*_CONE_FILE_VERBS, report]:
        for kind, (_, code, fragment) in _HOSTILE_FILES.items():
            if kind == "max-terms-true":  # a config file, not a cone
                continue
            if verb[0] == "check-cone" and kind == "huge-entry":
                code, fragment = EXIT_OK, None  # the exact geometry takes it
            yield pytest.param(verb, kind, False, code, fragment, id=f"{verb[0]}-{kind}")
    for kind in ("non-utf8", "deep-nesting", "missing", "directory", "max-terms-true"):
        payload, code, fragment = _HOSTILE_FILES[kind]
        fragment = "{path!r}: cannot read file" if payload in (None, "dir") else fragment
        yield pytest.param(["eval", "g0", "--z", "0.1", "--tau", "0.2+1i"], kind, True, code, fragment,
                           id=f"config-{kind}")
    for verb in (_VALID_CALLS["verify"], _VALID_CALLS["report"]):
        for kind in ("missing", "directory"):
            yield pytest.param([*verb, "--output", "{path}"], kind, False, EXIT_USAGE,
                               "--output {path!r}: cannot write file", id=f"{verb[0]}-output-{kind}")


@pytest.mark.parametrize("argv, kind, config, code, fragment", _hostile_calls())
def test_hostile_file_exits_with_one_error_line(capsys, monkeypatch, tmp_path, argv, kind, config, code, fragment):
    # a non-UTF-8 or deeply nested file, a huge entry, a bool entry and an
    # output path that cannot be written each ended in a traceback
    payload = _HOSTILE_FILES[kind][0]
    path = tmp_path / "absent" / "file.json" if payload is None else tmp_path / "file.json"
    if payload == "dir":
        path.mkdir()
    elif payload is not None:
        path.write_bytes(payload)
    if config:
        monkeypatch.setenv("CONESINE_CONFIG", str(path))
    rc, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert rc == code
    if code == EXIT_OK:
        assert err == "" and "normals     (1" + "0" * 400 + ",1) (0,1)" in out
    else:
        assert err.startswith("conesine: error: ") and len(err.splitlines()) == 1
        assert fragment.format(path=str(path)) in err


def test_check_cone_refuses_an_integer_too_long_to_print(capsys, tmp_path):
    # the normals fit Python's 4300-digit limit, but the edge rays have 5001 digits:
    # str() raised a ValueError traceback after the first four lines were printed
    n = 10**2500
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"dim": 3, "normals": [[1, 0, 0], [0, n, 1], [n, 1, 1]]}))
    rc, out, err = run(capsys, "check-cone", str(path))
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err.startswith("conesine: error: cannot print the cone: an integer of it has more than ")
    assert len(err.splitlines()) == 1


def test_report_csv_quotes_a_cone_name_that_would_break_its_row(capsys, monkeypatch, tmp_path):
    # 'a,b.json' made a row of 9 fields, and a path byte that is not UTF-8 (a lone
    # surrogate in the name) died in the --output write with UnicodeEncodeError
    monkeypatch.chdir(tmp_path)
    names = ["a,b.json", 'say "b".json', "two\nlines.json", os.fsdecode(b"\xffw.json")]
    for name in names:
        Path(name).write_text(json.dumps({"dim": 2, "normals": [[0, 1], [-2, 1]]}))
    cones = [arg for name in names for arg in ("--cone", name)]
    rc, out, err = run(capsys, "report", *cones, "--theorem", "s2c-factorization", "--samples", "1",
                       "--format", "csv", "--output", "report.csv")
    assert (rc, err) == (EXIT_OK, "")
    with open("report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [8] * 5
    assert [row[1] for row in rows[1:]] == [*names[:3], "\\udcffw.json"]
    assert 's2c-factorization,"a,b.json",PASS,' in Path("report.csv").read_text(encoding="utf-8")
    # the summaries print such a name escaped too: a strict stdout, as here, refused it
    assert "\\udcffw.json     s2c-factorization    PASS" in out
    for verb in (["check-cone", names[3]], ["verify", "s2c-factorization", "--cone", names[3], "--samples", "1",
                                            "--output", names[3] + ".out"]):
        rc, out, err = run(capsys, *verb)
        assert (rc, err) == (EXIT_OK, "") and "\\udcffw.json" in out


@pytest.mark.parametrize("kind", ["missing", "directory", "empty"])
@pytest.mark.parametrize("verb", ["verify", "report"])
def test_unwritable_output_is_refused_before_any_evaluation(capsys, monkeypatch, tmp_path, verb, kind):
    # report --samples 100 --output /nonexistent/x.json computed the whole report before it exited 1
    def evaluated(*args, **kwargs):
        raise AssertionError("evaluated before the --output check")

    monkeypatch.setattr("conesine.cli.verify_theorem", evaluated)
    # an empty path printed the report to stdout and exited 0
    path = {"missing": tmp_path / "absent" / "x.json", "directory": tmp_path, "empty": ""}[kind]
    rc, out, err = run(capsys, *_VALID_CALLS[verb], "--output", str(path))
    assert (rc, out) == (EXIT_USAGE, "")
    assert err.startswith(f"conesine: error: --output {str(path)!r}: cannot write file (")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []  # no file made


def test_sine_fallback_keeps_the_first_refusal_over_a_budget_error(capsys):
    # the first form refuses near the unit circle and the other overruns
    # max_terms: eval reported the budget and verify_theorem could not redraw
    rc, out, err = run(capsys, "eval", "s2c", "--cone", "wedge53", "--route", "factorized",
                       "--z", "0.11595957121577838-8.366145405965092i",
                       "--omega", "-1.5868093054252816-0.0003481147530394282i",
                       "--omega", "1.8202391293764213+0.0003977921039356357i")
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err == ("conesine: error: |q| = 1.0000008109415959 is within 1e-06 of the unit circle: "
                   "the product does not converge (resonant or near-resonant periods)\n")


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


def test_a_second_report_builds_no_cone_geometry(capsys, monkeypatch):
    # fixture_cone keeps one cone per name, and each cone keeps the geometry it builds
    builds = []
    original_init = Cone.__post_init__
    monkeypatch.setattr(Cone, "__post_init__", lambda cone: builds.append("Cone") or original_init(cone))
    for name in ("gorenstein_frame", "face_matrices", "cone_chain_2d"):
        original = getattr(lattice_cones, name)
        monkeypatch.setattr(lattice_cones, name, lambda cone, _n=name, _o=original: builds.append(_n) or _o(cone))
    fixture_cone.cache_clear()
    assert run(capsys, "report", "--samples", "1")[0] == EXIT_OK
    assert {"Cone", "gorenstein_frame", "face_matrices", "cone_chain_2d"} <= set(builds)
    builds.clear()
    assert run(capsys, "report", "--samples", "1")[0] == EXIT_OK
    assert builds == []


def test_report_unknown_theorem_is_usage_error(capsys):
    rc, _, err = run(capsys, "report", "--theorem", "bogus", "--cone", "wedge21")
    assert rc == EXIT_USAGE
    assert "unknown theorem id" in err


# ---------------------------------------------------------------------------
# the report and verify JSON writer


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80) | st.integers(max_value=-(2**63) + 2),
    st.floats(),  # nan, +-inf, -0.0 and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1e16, 1e-7]),
    st.text(),  # non-ASCII and control characters included
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
@example([True, False, None, [], {}, (), [[]], {"": {}}, -0.0, 5e-324, 2**64, -(2**70)])
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "\x00é\u2028": "\x1f\"\\ü\U0001f600"})
@example(1.5)
def test_json_writer_matches_json_dumps(doc):
    assert _json_document(doc) == _dumps(doc)


def test_json_writer_refuses_subclasses_of_its_scalars():
    # no report holds one, so str, int and float are taken by exact type only
    import numpy as np

    class Name(str):
        pass

    for value in (np.float64(0.1), enum.IntEnum("Count", "one two").two, Name("é")):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_document([value])


@pytest.mark.parametrize("value", [1j, {1, 2}, frozenset(), object(), b"bytes"])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    for doc in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            _dumps(doc)
        with pytest.raises(TypeError):
            _json_document(doc)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_report_json_is_json_dumps_sorted_with_two_space_indent(capsys, seed):
    rc, out, _ = run(capsys, "report", "--samples", "5", "--seed", str(seed))
    assert rc == EXIT_OK
    assert out == _dumps(json.loads(out)) + "\n"


def test_verify_json_is_json_dumps_sorted_with_two_space_indent(capsys, tmp_path):
    doc = verify_theorem("g2c-factorization", fixture_cone("cone-over-square"), samples=3).to_json_dict()
    assert _json_document(doc) == _dumps(doc)
    path = tmp_path / "verify.json"
    rc, out, _ = run(capsys, "verify", "g2c-factorization", "--cone", "cone-over-square",
                     "--samples", "3", "--output", str(path))
    assert rc == EXIT_OK
    assert path.read_text() == _dumps(doc) + "\n"
    rc, out, _ = run(capsys, "verify", "g2c-factorization", "--cone", "cone-over-square",
                     "--samples", "3")
    assert rc == EXIT_OK
    assert out[out.index("{"):] == _dumps(doc) + "\n"


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
    # an empty component was dropped, and the wedge (0,1) -> (-5,3) printed
    ("0,,1", "-5,3", EXIT_USAGE, "error: argument v1: cannot parse integer vector from '0,,1'"),
], ids=["three-entries", "not-primitive", "not-an-integer", "empty-component"])
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
    # comparison_tol and oracle_radius were settings once, read by no computation
    for key in ("bogus", "comparison_tol", "oracle_radius"):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: 1}))
        monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
        rc, _, err = run(capsys, "eval", "s1", "--z", "0.25", "--omega", "1")
        assert rc == EXIT_USAGE
        assert f"unknown config keys {key}" in err


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


@pytest.mark.parametrize("payload", [
    '{"max_terms": "5000000"}', '{"tail_tol": "1e-14"}', '{"max_terms": null}',
    '{"max_terms": 1e400}',
])
@pytest.mark.parametrize("verb", [
    ("eval", "g0", "--z", "0.1", "--tau", "0.2+1i"),
    ("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1"),
    ("report", "--samples", "1", "--cone", "wedge21"),
], ids=["eval", "verify", "report"])
def test_env_config_setting_of_the_wrong_type_is_domain_error(capsys, monkeypatch, tmp_path, payload, verb):
    # JSON reads 1e400 as infinity, which no integer setting may take
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(payload)
    monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
    rc, out, err = run(capsys, *verb)
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert err.startswith("conesine: error: ") and "must be" in err


def test_env_config_integral_float_is_recorded_as_an_int(capsys, monkeypatch, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"max_terms": 5e6}')
    monkeypatch.setenv("CONESINE_CONFIG", str(cfg_file))
    rc, out, _ = run(capsys, "eval", "g0", "--z", "0.1", "--tau", "0.2+1i")
    assert rc == EXIT_OK
    assert '"max_terms": 5000000,' in out


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


def test_eval_tol_flag_is_gone(capsys):
    # eval compares nothing, so it takes no pass tolerance; verify and report keep --tol
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s2", "--z", "0.3", "--omega", "1+0.1i", "--omega", "0.5+0.3i", "--tol", "1e-9"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a reader that closes the pipe


class _ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has closed the pipe: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("eval", "s1", "--z", "0.3", "--omega", "1"),
    ("verify", "s2c-factorization", "--cone", "wedge21", "--samples", "1"),
    ("report", "--cone", "wedge21", "--theorem", "s2c-factorization", "--samples", "1"),
    ("report", "--cone", "wedge21", "--theorem", "s2c-factorization", "--samples", "1", "--format", "csv"),
    ("subdivide", "0,1", "-5,3"),
    ("check-cone", "wedge21"),
], ids=["eval", "verify", "report", "report-csv", "subdivide", "check-cone"])
def test_a_closed_reader_ends_every_verb_with_the_closed_pipe_code(tmp_path, capsys, argv):
    # verify died with a BrokenPipeError traceback and exit 1
    with open(tmp_path / "stdout", "wb") as raw, _ClosedPipe(raw) as stdout, mock.patch.object(sys, "stdout", stdout):
        rc = main(list(argv))
    assert (rc, capsys.readouterr().err) == (EXIT_CLOSED_PIPE, "")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_ends_the_process_without_a_traceback(buffered):
    # buffered, the first write to the pipe is the flush at exit, after main has returned
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(conesine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    argv = ["-c", "import sys; from conesine.cli import main; sys.exit(main())", "subdivide", "0,1", "-5,3"]
    try:
        proc = subprocess.run([sys.executable, *([] if buffered else ["-u"]), *argv], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_PIPE, "")
