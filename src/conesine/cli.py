"""Command-line surface: evaluate functions, verify identities, inspect cones.

Verbs
-----
eval        evaluate one function at given parameters (JSON record printed)
verify      sample one identity over a cone and report PASS/SKIP/FAIL
subdivide   print the unimodular chain subdividing a 2d wedge
check-cone  print structural diagnostics and face transforms for a cone
report      run identities over cones and emit a JSON or CSV report

The table ``_TARGETS`` gives each eval target's periods, cone dimension and
routes; ``--cone`` and ``--route`` are refused for a target without a cone.

Exit codes: 0 success (including PASS and SKIP), 1 usage or parse error
(including a flag the target does not take), 2 domain or precondition error
(including a value that overflows double precision), 3 verification failure,
141 a reader that closed stdout before the output was written.

Complex parameters are written ``re+imi`` (for example ``0.5-0.25i`` or
``1.3i``); complex values inside JSON documents are ``[re, im]`` pairs.
The evaluation settings ``tail_tol`` and ``max_terms`` come from a JSON file
named by the environment variable ``CONESINE_CONFIG``, and ``--tail-tol``
overrides the first per call.  ``verify`` and ``report`` take ``--tol``, the
pass tolerance of each identity.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Sequence

from . import __version__
from .errors import BudgetError, DomainError, ParseError
from .fixtures import FIXTURE_NAMES, load_cone, read_json
from .generalized import (
    THEOREM_IDS,
    gamma_cone_direct,
    gamma_cone_factorized,
    sine_cone_decomposed,
    sine_cone_factorized,
    verify_theorem,
)
from .lattice_cones import (
    Cone,
    det2,
    edge_rays,
    gorenstein_vector,
    is_good,
    subdivide_wedge,
)
from .qseries import (
    DEFAULT_CONFIG,
    EvalConfig,
    elliptic_gamma,
    multiple_sine,
    qfactorial,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FAIL = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer that the signal ended

CONFIG_ENV_VAR = "CONESINE_CONFIG"


# ---------------------------------------------------------------------------
# parsing and formatting helpers


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` notation (``i`` or ``j`` for the imaginary unit).

    Only a trailing ``i`` or ``I`` is the unit, so ``inf`` and ``1+infi`` parse.
    """
    cleaned = text.strip().replace(" ", "")
    if cleaned[-1:] in ("i", "I"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number from {text!r}") from exc


def format_complex(value: complex) -> str:
    """Render a complex value as ``re+imi`` with full round-trip precision."""
    sign = "+" if value.imag >= 0 or value.imag != value.imag else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ivec_arg(text: str) -> tuple[int, ...]:
    """Parse an integer vector such as ``0,1`` or ``(-2, 1)``; an empty component is refused."""
    cleaned = text.strip().strip("()[]")
    try:
        return tuple(int(p) for p in cleaned.replace(" ", "").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse integer vector from {text!r}") from exc


def _vec_str(v: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _cone_digest(cone: Cone) -> str:
    canonical = json.dumps(cone.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# The JSON text of a non-finite float, as ``json.dumps`` writes it.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_document(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which makes a
    call per value; this writer writes the scalars of each container in the
    container's own loop.  It takes dicts with str keys, lists, tuples, str,
    int, bool, None and float (``NaN``, ``Infinity`` and ``-Infinity`` for
    the non-finite ones); any other value or key raises ``TypeError``.
    """
    if not isinstance(doc, (dict, list, tuple)):
        return _json_document([doc])[4:-2]  # drop "[\n  " and "\n]"
    out: list[str] = []
    _json_write(doc, "\n", out)
    return "".join(out)


def _json_write(container, newline: str, out: list[str]) -> None:
    """Append the text of a dict, list or tuple that closes after ``newline``."""
    append = out.append
    keys = sorted(container) if isinstance(container, dict) else None
    brackets = "[]" if keys is None else "{}"
    if not container:
        append(brackets)
        return
    inner = newline + "  "
    head, sep = brackets[0] + inner, "," + inner
    for value in container if keys is None else keys:
        if keys is not None:
            head += _json_str(value) + ": "
            value = container[value]
        cls = value.__class__
        if cls is float:
            text = float.__repr__(value)
            append(head + _JSON_NONFINITE.get(text, text))
        elif cls is str:
            append(head + _json_str(value))
        elif cls is int:
            append(head + int.__repr__(value))
        elif value is None:
            append(head + "null")
        elif value is True:
            append(head + "true")
        elif value is False:
            append(head + "false")
        elif isinstance(value, (dict, list, tuple)):
            append(head)
            _json_write(value, inner, out)
        else:
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
        head = sep
    append(newline + brackets[1])


def check_output(path: str | None) -> None:
    """Refuse an ``--output`` path that is empty, a directory, or in a missing directory, as
    ``write_output`` would, but before a verb evaluates anything and creating no file."""
    if path is not None and (not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise ParseError(f"--output {path!r}: cannot write file ({os.strerror(code)})")


def write_output(path: str, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, the one file a verb
    writes; a path that cannot be written raises ParseError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"--output {path!r}: cannot write file ({exc.strerror or exc})") from exc


def build_config(args: argparse.Namespace) -> EvalConfig:
    """Defaults, then the ``CONESINE_CONFIG`` file, then per-call flags."""
    overrides: dict = {}
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        data = read_json(path, f"{CONFIG_ENV_VAR}={path!r}")
        if not isinstance(data, dict):
            raise ParseError(f"{CONFIG_ENV_VAR}={path!r}: expected a JSON object")
        unknown = sorted(set(data) - set(DEFAULT_CONFIG.to_json_dict()))
        if unknown:
            raise ParseError(
                f"{CONFIG_ENV_VAR}={path!r}: unknown config keys {', '.join(unknown)}"
            )
        overrides.update(data)
    if getattr(args, "tail_tol", None) is not None:
        overrides["tail_tol"] = args.tail_tol
    return dataclasses.replace(DEFAULT_CONFIG, **overrides) if overrides else DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# eval verb


# target -> (period count, None for one or more; cone dimension, None for no
# cone; {route: function}) with the default route first.  Every function is
# called as function(z, omegas, cfg), cone targets' as function(cone, z, omegas, cfg).
_TARGETS = {
    **{f"s{r}": (r, None, {None: multiple_sine}) for r in (1, 2, 3)},
    **{f"g{r}": (r + 1, None, {None: elliptic_gamma}) for r in (0, 1, 2)},
    "qfac": (None, None, {None: qfactorial}),
    "s2c": (2, 2, {"decomposed": sine_cone_decomposed, "factorized": sine_cone_factorized}),
    "s3c": (3, 3, {"decomposed": sine_cone_decomposed, "factorized": sine_cone_factorized}),
    "g1c": (2, 2, {"direct": gamma_cone_direct, "factorized": gamma_cone_factorized}),
    "g2c": (3, 3, {"direct": gamma_cone_direct, "factorized": gamma_cone_factorized,
                   "alternative": functools.partial(gamma_cone_factorized, variant="alternative")}),
}


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    target = args.target.lower()
    if target not in _TARGETS:
        raise ParseError(f"unknown eval target {args.target!r}; known: {' '.join(_TARGETS)}")
    count, dim, routes = _TARGETS[target]
    if args.z is None:
        raise ParseError("this target requires --z")
    omegas = tuple(args.omega or ()) + (() if args.tau is None else (args.tau,))
    if count is None and not omegas:
        raise ParseError(f"target {target!r} needs at least one period (--omega)")
    if count is not None and len(omegas) != count:
        raise ParseError(
            f"target {args.target!r} needs exactly {count} period(s) "
            f"(--omega, or --tau for a single one); got {len(omegas)}"
        )
    record: dict = {
        "schema": 1,
        "target": target,
        "config": cfg.to_json_dict(),
        "z": [args.z.real, args.z.imag],
        "omegas": [[w.real, w.imag] for w in omegas],
    }
    cone = ()  # (cone,) for a cone target, whose functions take it first
    route = args.route or next(iter(routes))
    if dim is None:
        if args.cone is not None or args.route is not None:
            raise ParseError(f"target {args.target!r} takes no --cone or --route: it has no cone")
    else:
        if args.cone is None:
            raise ParseError(f"target {args.target!r} requires --cone")
        cone = (load_cone(args.cone),)
        if cone[0].dim != dim:
            raise DomainError(f"target {args.target!r} needs a {dim}d cone, got {cone[0].dim}d")
        if route not in routes:
            raise ParseError(
                f"target {args.target!r} supports --route {{{','.join(routes)}}}, got {route!r}"
            )
        record.update(cone=cone[0].to_json_dict(), route=route)
    value = routes[route](*cone, args.z, omegas, cfg)
    record["value"] = [value.real, value.imag]
    print(f"{target} = {format_complex(value)}")
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / report verbs


def _print_report_summary(name: str, report) -> None:
    print(f"theorem          {report.theorem_id}")
    cone = report.cone
    normals = " ".join(_vec_str(v) for v in cone["normals"])
    print(f"cone             {_escaped(name)}  (dim {cone['dim']}, normals {normals})")
    print(f"samples          {report.config['samples']}  (seed {report.seed})")
    print(f"tolerance        {report.tolerance:g}")
    print(f"status           {report.status}")
    if report.skipped is not None:
        print(f"skip reason      {report.skipped}")
    else:
        from statistics import median  # imported here: report never needs it

        print(f"max residual     {report.max_residual:.3e}")
        print(f"median residual  {median(report.residuals):.3e}")


def _check_theorem_ids(theorem_ids: Sequence[str]) -> None:
    for tid in theorem_ids:
        if tid not in THEOREM_IDS:
            raise ParseError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_theorem_ids([args.theorem])
    cfg = build_config(args)
    check_output(args.output)
    cone = load_cone(args.cone)
    report = verify_theorem(
        args.theorem,
        cone,
        samples=args.samples,
        seed=args.seed,
        cfg=cfg,
        tolerance=args.tol,
    )
    _print_report_summary(args.cone, report)
    doc = _json_document(report.to_json_dict())
    if args.output is not None:
        write_output(args.output, doc + "\n")
        print(f"report written   {_escaped(args.output)}")
    else:
        print(doc)
    return EXIT_OK if report.status in ("PASS", "SKIP") else EXIT_FAIL


def _report_document(args: argparse.Namespace, cfg: EvalConfig) -> dict:
    cone_names = list(args.cone or FIXTURE_NAMES)
    theorem_ids = list(args.theorem or THEOREM_IDS)
    _check_theorem_ids(theorem_ids)
    cones = [(name, load_cone(name)) for name in cone_names]
    items = []
    counts = {"PASS": 0, "SKIP": 0, "FAIL": 0}
    for name, cone in cones:
        for tid in theorem_ids:
            report = verify_theorem(
                tid, cone, samples=args.samples, seed=args.seed, cfg=cfg, tolerance=args.tol
            )
            counts[report.status] += 1
            item = report.to_json_dict()
            item["cone_name"] = name
            items.append(item)
    return {
        "schema": 1,
        "kind": "verification-report",
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "config": cfg.to_json_dict(),
        "cones": [
            {"name": name, "dim": cone.dim, "digest": _cone_digest(cone)}
            for name, cone in cones
        ],
        "items": items,
        "counts": counts,
        "status": "FAIL" if counts["FAIL"] else "PASS",
    }


def _escaped(text: str) -> str:
    """``text`` with each lone surrogate, a path byte that is not UTF-8, backslash-escaped."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _csv_field(text: str) -> str:
    """``_escaped(text)`` as one CSV field, quoted as RFC 4180 quotes a comma, a quote or a line break."""
    text = _escaped(text)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _report_csv(doc: dict) -> str:
    lines = ["theorem,cone,status,samples,seed,tolerance,max_residual,detail"]
    for item in doc["items"]:
        if item["status"] == "SKIP":
            residual = ""
            detail = (item["skipped"] or "").replace(",", ";")
        else:
            residual = f"{item['max_residual']:.6e}"
            detail = ""
        lines.append(
            f"{item['theorem']},{_csv_field(item['cone_name'])},{item['status']},"
            f"{item['config']['samples']},{item['seed']},{item['tolerance']:g},"
            f"{residual},{detail}"
        )
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    check_output(args.output)
    doc = _report_document(args, cfg)
    if args.format == "csv":
        text = _report_csv(doc)
    else:
        text = _json_document(doc) + "\n"
    if args.output is not None:
        write_output(args.output, text)
        for item in doc["items"]:
            residual = "" if item["status"] == "SKIP" else f"  max residual {item['max_residual']:.3e}"
            print(f"{_escaped(item['cone_name']):16s} {item['theorem']:20s} {item['status']}{residual}")
        print(f"overall          {doc['status']}")
        print(f"report written   {_escaped(args.output)}")
    else:
        sys.stdout.write(text)
    return EXIT_FAIL if doc["status"] == "FAIL" else EXIT_OK


# ---------------------------------------------------------------------------
# subdivide / check-cone verbs


def cmd_subdivide(args: argparse.Namespace) -> int:
    chain = subdivide_wedge(args.v1, args.v2)
    lines = chain.lines
    dets = [det2(a, b) for a, b in zip(lines, lines[1:])]
    print(f"wedge                  {_vec_str(args.v1)} -> {_vec_str(args.v2)}")
    print(f"chain                  {' '.join(_vec_str(v) for v in lines)}")
    interior = chain.interior
    print(f"interior lines         {' '.join(_vec_str(v) for v in interior) if interior else '(none)'}")
    print(f"adjacent determinants  {' '.join(str(d) for d in dets)}")
    return EXIT_OK


def cmd_check_cone(args: argparse.Namespace) -> int:
    cone = load_cone(args.cone)
    good, xi = is_good(cone), gorenstein_vector(cone)
    try:  # all or nothing: str() refuses an integer past Python's digit limit
        lines = [
            f"cone        {_escaped(args.cone)}",
            f"dim         {cone.dim}",
            f"normals     {' '.join(_vec_str(v) for v in cone.normals)}",
            f"edge rays   {' '.join(_vec_str(v) for v in edge_rays(cone))}",
            "primitive   yes (enforced at load)",
            "minimal     yes (enforced at load)",
            f"good        {'yes' if good else 'no'}",
            f"gorenstein  {'xi = ' + _vec_str(xi) if xi is not None else 'no'}",
            "face transforms:" if good else "face transforms unavailable: the cone is not good",
        ]
        for ft in cone.face_transforms if good else ():
            lines.append(f"  {ft.face_id}: n = {_vec_str(ft.n_vector)}, det {ft.det:+d}")
            lines += [f"      [{' '.join(f'{c:3d}' for c in row)}]" for row in ft.matrix]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"cannot print the cone: an integer of it has more than {limit} digits") from None
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser, pass_tol: bool = True) -> None:
    if pass_tol:
        parser.add_argument("--tol", type=float, default=None,
                            help="identity pass tolerance override (default: the identity's own)")
    parser.add_argument("--tail-tol", type=float, default=None, dest="tail_tol",
                        help="series truncation tolerance override")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on first use and kept for the process.

    ``parse_args`` returns a fresh namespace on each call, so no value
    carries over from one call to the next.
    """
    parser = _Parser(
        prog="conesine",
        description="Evaluate and verify multiple sine / elliptic gamma "
        "functions on rational cones.",
    )
    parser.add_argument("--version", action="version", version=f"conesine {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p_eval = sub.add_parser("eval", help="evaluate one function at given parameters")
    p_eval.add_argument("target", help=f"one of: {' '.join(_TARGETS)}")
    p_eval.add_argument("--z", type=_complex_arg, default=None, help="argument, re+imi")
    p_eval.add_argument("--omega", type=_complex_arg, action="append", default=None,
                        metavar="W", help="period, repeatable")
    p_eval.add_argument("--tau", type=_complex_arg, default=None,
                        help="single period (alias for one --omega)")
    p_eval.add_argument("--cone", default=None, help="fixture name or cone JSON path")
    p_eval.add_argument("--route", default=None, help="cone targets only, default first: " + ", ".join(
        f"{t} {'|'.join(routes)}" for t, (_, dim, routes) in _TARGETS.items() if dim))
    _add_config_flags(p_eval, pass_tol=False)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify one identity over one cone")
    p_verify.add_argument("theorem", help=f"one of: {', '.join(THEOREM_IDS)}")
    p_verify.add_argument("--cone", required=True, help="fixture name or cone JSON path")
    p_verify.add_argument("--samples", type=int, default=5, help="sample points (default 5)")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument("--output", default=None, help="write the JSON report here")
    _add_config_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sub = sub.add_parser("subdivide", help="unimodular subdivision of a 2d wedge")
    p_sub.add_argument("v1", type=_ivec_arg, help="first normal, e.g. 0,1")
    p_sub.add_argument("v2", type=_ivec_arg, help="second normal, e.g. -2,1")
    p_sub.set_defaults(func=cmd_subdivide)

    p_check = sub.add_parser("check-cone", help="structural diagnostics for a cone")
    p_check.add_argument("cone", help="fixture name or cone JSON path")
    p_check.set_defaults(func=cmd_check_cone)

    p_report = sub.add_parser("report", help="run identities over cones, emit JSON/CSV")
    p_report.add_argument("--cone", action="append", default=None,
                          help="fixture name or path, repeatable (default: all fixtures)")
    p_report.add_argument("--theorem", action="append", default=None,
                          help="theorem id, repeatable (default: all)")
    p_report.add_argument("--samples", type=int, default=5, help="sample points per item")
    p_report.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.add_argument("--output", default=None, help="write the report here")
    _add_config_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


_NUMERIC_FLAGS = ("--z", "--omega", "--tau", "--tol", "--tail-tol")


def _preprocess_argv(argv: Sequence[str] | None) -> Sequence[str] | None:
    """Keep argparse from reading negative numbers as option flags.

    ``subdivide`` gets an explicit ``--`` separator when a vector starts with
    a minus sign, and a numeric flag absorbs a following token that starts
    with a single minus sign as its value (``-i``, ``-1e-9``, ``-inf`` and
    ``-nan`` included), via the ``--flag=value`` form, so that the flag's own
    parser reports a malformed one.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "subdivide" and "--" not in argv:
        if any(len(a) > 1 and a[0] == "-" and a[1].isdigit() for a in argv[1:]):
            argv.insert(1, "--")
        return argv
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NUMERIC_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt[:1] == "-" and nxt[:2] != "--":
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = _preprocess_argv(argv)
    # argparse strips a value of "--" and hands the verb an empty list
    for flag, _, value in (tok.partition("=") for tok in argv if tok[:2] == "--"):
        if value == "--":
            parser.error(f"argument {flag}: expected a value, got '--'")
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not in the flush at exit
        return code
    except ParseError as exc:
        print(f"conesine: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, BudgetError) as exc:
        print(f"conesine: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # what is left in the buffer goes to os.devnull when it is flushed at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
