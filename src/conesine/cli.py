"""Command-line surface: evaluate functions, verify identities, inspect cones.

Verbs
-----
eval        evaluate one function at given parameters (JSON record printed)
verify      sample one identity over a cone and report PASS/SKIP/FAIL
subdivide   print the unimodular chain subdividing a 2d wedge
check-cone  print structural diagnostics and face transforms for a cone
report      run identities over cones and emit a JSON or CSV report

The table ``_TARGETS`` gives each eval target's periods, cone dimension, routes
and flags; ``--cone`` and ``--route`` are refused for a target without a cone.

Exit codes: 0 success (including PASS and SKIP), 1 usage or parse error
(including a flag the target does not take), 2 domain or precondition error
(including a value that overflows double precision), 3 verification failure.

Complex parameters are written ``re+imi`` (for example ``0.5-0.25i`` or
``1.3i``); complex values inside JSON documents are ``[re, im]`` pairs.
Default tolerances may be overridden per call with ``--tol`` and
``--tail-tol``, or globally through a JSON file named by the environment
variable ``CONESINE_CONFIG``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
from typing import Sequence

from . import __version__
from .errors import BudgetError, DomainError, ParseError
from .fixtures import FIXTURE_NAMES, load_cone
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
    face_matrices,
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

CONFIG_ENV_VAR = "CONESINE_CONFIG"


# ---------------------------------------------------------------------------
# parsing and formatting helpers


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` notation (``i`` or ``j`` for the imaginary unit)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number from {text!r}") from exc


def format_complex(value: complex) -> str:
    """Render a complex value as ``re+imi`` with full round-trip precision."""
    sign = "+" if value.imag >= 0 or value.imag != value.imag else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def parse_int_vector(text: str) -> tuple[int, ...]:
    """Parse an integer vector such as ``0,1`` or ``(-2, 1)``."""
    cleaned = text.strip().strip("()[]")
    parts = [p for p in cleaned.replace(" ", "").split(",") if p]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"cannot parse integer vector from {text!r}") from exc
    if not vec:
        raise ParseError(f"cannot parse integer vector from {text!r}")
    return vec


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ivec_arg(text: str) -> tuple[int, ...]:
    try:
        return parse_int_vector(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _vec_str(v: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _cone_digest(cone: Cone) -> str:
    canonical = json.dumps(cone.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_config(args: argparse.Namespace) -> EvalConfig:
    """Defaults, then the ``CONESINE_CONFIG`` file, then per-call flags."""
    overrides: dict = {}
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{CONFIG_ENV_VAR}={path!r}: cannot read file") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{CONFIG_ENV_VAR}={path!r}: not valid JSON ({exc})") from exc
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
# cone; {route: (function, the argparse fields passed to it and recorded)})
# with the default route first.  Cone targets call function(cone, z, ...).
# A field left unset takes its _FLAG_DEFAULTS value; one set for a route that
# does not take it is refused.
_TARGETS = {
    **{f"s{r}": (r, None, {None: (multiple_sine, ("form",))}) for r in (1, 2, 3)},
    **{f"g{r}": (r + 1, None, {None: (elliptic_gamma, ())}) for r in (0, 1, 2)},
    "theta0": (1, None, {None: (elliptic_gamma, ())}),
    "qfac": (None, None, {None: (qfactorial, ())}),
    "s2c": (2, 2, {"decomposed": (sine_cone_decomposed, ()),
                   "factorized": (sine_cone_factorized, ())}),
    "s3c": (3, 3, {"decomposed": (sine_cone_decomposed, ()),
                   "factorized": (sine_cone_factorized, ())}),
    "g1c": (2, 2, {"direct": (gamma_cone_direct, ()),
                   "factorized": (gamma_cone_factorized, ())}),
    "g2c": (3, 3, {"direct": (gamma_cone_direct, ()),
                   "factorized": (gamma_cone_factorized, ("variant",))}),
}
_FLAG_DEFAULTS = {"form": 1, "variant": "primary"}


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if args.tol is not None:
        cfg = dataclasses.replace(cfg, comparison_tol=args.tol)
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
    fn, flags = routes[route]
    for flag in _FLAG_DEFAULTS:
        if getattr(args, flag) is not None and flag not in flags:
            on_route = f" on route {route!r}" if dim is not None else ""
            raise ParseError(f"target {args.target!r} takes no --{flag}{on_route}")
    flag_values = {flag: getattr(args, flag) or _FLAG_DEFAULTS[flag] for flag in flags}
    value = fn(*cone, args.z, omegas, cfg, **flag_values)
    record.update(flag_values, value=[value.real, value.imag])
    print(f"{target} = {format_complex(value)}")
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / report verbs


def _print_report_summary(name: str, report) -> None:
    print(f"theorem          {report.theorem_id}")
    cone = report.cone
    normals = " ".join(_vec_str(v) for v in cone["normals"])
    print(f"cone             {name}  (dim {cone['dim']}, normals {normals})")
    print(f"samples          {report.config['samples']}  (seed {report.seed})")
    print(f"tolerance        {report.tolerance:g}")
    print(f"status           {report.status}")
    if report.skipped is not None:
        print(f"skip reason      {report.skipped}")
    else:
        print(f"max residual     {report.max_residual:.3e}")
        print(f"median residual  {statistics.median(report.residuals):.3e}")


def _check_theorem_ids(theorem_ids: Sequence[str]) -> None:
    for tid in theorem_ids:
        if tid not in THEOREM_IDS:
            raise ParseError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_theorem_ids([args.theorem])
    cfg = build_config(args)
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
    doc = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
        print(f"report written   {args.output}")
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
            f"{item['theorem']},{item['cone_name']},{item['status']},"
            f"{item['config']['samples']},{item['seed']},{item['tolerance']:g},"
            f"{residual},{detail}"
        )
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    doc = _report_document(args, cfg)
    if args.format == "csv":
        text = _report_csv(doc)
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        for item in doc["items"]:
            residual = "" if item["status"] == "SKIP" else f"  max residual {item['max_residual']:.3e}"
            print(f"{item['cone_name']:16s} {item['theorem']:20s} {item['status']}{residual}")
        print(f"overall          {doc['status']}")
        print(f"report written   {args.output}")
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
    print(f"cone        {args.cone}")
    print(f"dim         {cone.dim}")
    print(f"normals     {' '.join(_vec_str(v) for v in cone.normals)}")
    print(f"edge rays   {' '.join(_vec_str(v) for v in edge_rays(cone))}")
    print("primitive   yes (enforced at load)")
    print("minimal     yes (enforced at load)")
    good = is_good(cone)
    print(f"good        {'yes' if good else 'no'}")
    xi = gorenstein_vector(cone)
    print(f"gorenstein  {'xi = ' + _vec_str(xi) if xi is not None else 'no'}")
    if not good:
        print("face transforms unavailable: the cone is not good")
        return EXIT_OK
    print("face transforms:")
    for ft in face_matrices(cone):
        print(f"  {ft.face_id}: n = {_vec_str(ft.n_vector)}, det {ft.det:+d}")
        for row in ft.matrix:
            print(f"      [{' '.join(f'{c:3d}' for c in row)}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance override")
    parser.add_argument("--tail-tol", type=float, default=None, dest="tail_tol",
                        help="series truncation tolerance override")


def build_parser() -> argparse.ArgumentParser:
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
    p_eval.add_argument("--form", type=int, choices=(1, 2), default=None,
                        help="s1 s2 s3 only: boundary factorization form (default 1)")
    p_eval.add_argument("--route", default=None, help="cone targets only, default first: " + ", ".join(
        f"{t} {'|'.join(routes)}" for t, (_, dim, routes) in _TARGETS.items() if dim))
    p_eval.add_argument("--variant", choices=("primary", "alternative"), default=None,
                        help="g2c factorized only: prefactor variant (default primary)")
    _add_config_flags(p_eval)
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


_COMPLEX_FLAGS = ("--z", "--omega", "--tau")


def _preprocess_argv(argv: Sequence[str] | None) -> Sequence[str] | None:
    """Keep argparse from reading negative numbers as option flags.

    ``subdivide`` gets an explicit ``--`` separator when a vector starts with
    a minus sign, and complex-valued flags absorb a following negative value
    via the ``--flag=value`` form.
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
        if tok in _COMPLEX_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_preprocess_argv(argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"conesine: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, BudgetError) as exc:
        print(f"conesine: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
