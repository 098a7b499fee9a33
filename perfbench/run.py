"""Benchmark of the conesine library: one command, three workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``catalog``, ``fresh-cones`` and ``oracle``.
Each is a single-process, single-threaded closed loop against the library in
``src/`` of the same checkout.  A run is a fixed number of units, whole
passes that take about ``--seconds`` seconds at the reference speed of
``speed.py``; it depends on the seed and ``--seconds`` only, so the same
arguments always attempt the same units and meet the same failures.

Times are reported at the reference speed: each unit's time is rescaled by
the workload's calibration kernel timed around it (``speed.py``), and each
set-up time by a kernel timed right after it.  ``setup_s`` and ``wall_s``
are those rescaled figures; the raw ones are in the details.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the run measures half its passes
untraced and half traced (see ``spans.py``) and reports the per-layer
metrics.  The line before it carries the run's details: environment, raw
times, the per-unit latencies (median, and tail with its percentile and
sample count), the failure ratio, failures by cone, and failed output
checks.
Outputs (reports, generated cones, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Outcome

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_KERNEL = "interpreter"  # set-up is imports and Python-level input building
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 5 * TAIL_BEYOND

ROUTES = (
    "sine_cone_2d_decomposed", "sine_cone_2d_factorized",
    "sine_cone_3d_decomposed", "sine_cone_3d_factorized",
    "gamma_cone_2d_direct", "gamma_cone_2d_factorized",
    "gamma_cone_3d_direct", "gamma_cone_3d_factorized",
    "face_product_reduced", "bernoulli_exponential",
)
REBUILDS = ("lattice_cones.gorenstein_frame", "lattice_cones.face_matrices",
            "lattice_cones.cone_chain_2d")


class SetupError(RuntimeError):
    pass


def import_library():
    """Import ``conesine`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "conesine", "__init__.py")):
        raise SetupError(f"no conesine sources under {SRC}")
    sys.path.insert(0, SRC)
    import conesine

    if os.path.dirname(os.path.dirname(os.path.abspath(conesine.__file__))) != SRC:
        raise SetupError(f"imported conesine from {conesine.__file__}, not from {SRC}")
    return conesine


def make_workload(args):
    """Import the library, load fixtures and build the seeded inputs."""
    import_library()
    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, outdir, smoke=args.smoke)
    workload.setup()
    return workload


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh processes (import included).

    Returns the raw times and the times at the reference speed of
    ``speed.py``, each rescaled by the SETUP_KERNEL timed right after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(out["setup_s"])
        ref.append(out["setup_s"] * out["calib_ref_s"] / out["calib_s"])
    return raw, ref


def unit_count(workload, seconds: float) -> int:
    """Units of one run: whole passes, about ``seconds`` at the reference speed.

    The count depends on the arguments only, never on the machine's speed, so
    a seed always gets the same inputs and the same checks.  A run has at
    least two passes (a traced run: one untraced, one traced).
    """
    passes = max(2, round(seconds / workload.pass_ref_s))
    return passes * workload.pass_size


def run_loop(workload, units: range, tracer=None, hooks=None) -> dict:
    """Closed loop over ``units``, each timed and then checked.

    The workload's calibration kernel (``speed.py``) runs before the first
    unit and after every unit; ``ref`` holds the unit times rescaled to the
    reference speed (``rescale``).  With a ``tracer``, spans are recorded
    only inside the timed calls.
    """
    from speed import REF_S, calibrate

    kind = workload.speed_kernel
    durations, outcomes = [], []
    calibrate(kind)  # warm-up
    calib = [calibrate(kind)]
    for i in units:
        work, check = workload.unit(i)
        if tracer is not None:
            hooks.unit_start()
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = work()
        except Exception as exc:  # noqa: BLE001 - counted as a failed unit
            result = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        calib.append(calibrate(kind))
        durations.append(dt)
        if isinstance(result, Exception):
            outcomes.append(Outcome(failed=True, failures=[{"unit": i, "error": repr(result)}]))
        else:
            outcomes.append(check(result))

    ref = rescale(durations, calib, workload.pass_size, REF_S[kind])
    return {"durations": durations, "ref": ref, "calib": calib, "outcomes": outcomes}


def rescale(durations: list[float], calib: list[float], pass_size: int,
            ref_s: float) -> list[float]:
    """Unit times at the reference speed.

    The units of a pass are rescaled by the mean of the kernel times from
    the one before the pass's first unit to the one after its last.  The
    host flickers between speeds within a second, so one kernel time is a
    poor guess at the speed over a long unit (the 3d oracle call takes
    12 s); the mean over a pass estimates the average slowdown.  On two
    batches of ten seeds the spread of ``wall_s`` (quartile distance over
    median) was at most 0.079, 0.082 and 0.032 (oracle, fresh-cones,
    catalog) this way, against 0.135, 0.275 and 0.057 raw and 0.071, 0.099
    and 0.032 with each unit's two neighbouring kernel times.
    """
    scale = [ref_s / statistics.mean(calib[k:k + pass_size + 1])
             for k in range(0, len(durations), pass_size)]
    return [dt * scale[i // pass_size] for i, dt in enumerate(durations)]


def pass_time(times: list[float], pass_size: int) -> float:
    """Time of a typical pass: the sum over the slots of a pass of each
    slot's median time over the run's passes.

    Slot k of every pass does the same kind of work (the same oracle case,
    or a fresh cone with the same facet count), so a rare slow cone moves
    its slot's median little; it shows in the latency tail instead.  On two
    batches of ten fresh-cones seeds its spread (quartile distance over
    median) was 0.082 and 0.038, against 0.102 and 0.126 for the mean pass
    time, which single cones of up to 2.6 s move.
    """
    return sum(statistics.median(times[k::pass_size]) for k in range(pass_size))


def tail(durations: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    That percentile is a tail only from TAIL_MIN_SAMPLES samples on (it is
    then the 80th or higher).  With fewer samples the slowest unit stands in,
    and the record says so (``beyond`` is 0).
    """
    xs = sorted(durations)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        k = n - TAIL_BEYOND - 1
        return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "beyond": TAIL_BEYOND, "samples": n}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: dict, setup: tuple[list[float], list[float]],
               pass_size: int) -> tuple[dict, dict]:
    """End-to-end metrics and the details that go with them.

    ``wall_s`` is the ``pass_time`` of the rescaled unit times.
    ``agree_digits_min`` is the median over passes of each pass's minimum,
    so one outlying comparison does not set it alone.
    """
    outcomes = loop["outcomes"]
    failed = sum(o.failed for o in outcomes)
    pass_minima = []
    for k in range(0, len(outcomes), pass_size):
        digits = [d for o in outcomes[k:k + pass_size] for d in o.digits]
        if digits:
            pass_minima.append(min(digits))
    tl = tail(loop["durations"])
    metrics = {
        "setup_s": metric(statistics.median(setup[1]), "s"),
        "wall_s": metric(pass_time(loop["ref"], pass_size), "s"),
        "agree_digits_min": metric(
            statistics.median(pass_minima) if pass_minima else 0.0, "digits"),
        "ok_ratio": metric(1 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Per-unit latencies go with the details, not with the bounded metrics:
    # across runs they spread wider than a usable bound.  The oracle median
    # rests on two short bursts of quick calls per run, and the fresh-cones
    # tail on the 11th-slowest of a heavy-tailed sample.
    detail = {
        "setup_raw_s": setup[0],
        "wall_raw_s": metric(pass_time(loop["durations"], pass_size), "s"),
        "latency_p50_ms": metric(1000 * statistics.median(loop["durations"]), "ms"),
        "latency_tail_ms": dict(metric(1000 * tl.pop("value"), "ms"), **tl),
        "fail_ratio": metric(failed / len(outcomes), "ratio"),
    }
    return metrics, detail


class LayerHooks:
    """Counts the traced run needs beyond span durations."""

    def __init__(self):
        self.rebuilds = 0
        self.unit_cones: set = set()
        self.cone_uses = 0
        self.accepted_samples = 0
        self.oracle_points = 0

    def unit_start(self):
        self.cone_uses += len(self.unit_cones)
        self.unit_cones = set()

    def finish(self):
        self.unit_start()

    def _rebuild(self, args, kwargs):
        self.rebuilds += 1
        cone = args[0] if args else kwargs["cone"]
        self.unit_cones.add((cone.dim, cone.normals))

    def _verified(self, report):
        self.accepted_samples += len(report.points)

    def _oracle(self, args, kwargs):
        from conesine import bernoulli

        bound = inspect.signature(bernoulli.bernoulli_cone_oracle.__wrapped__).bind(*args, **kwargs)
        bound.apply_defaults()
        dim = bound.arguments["cone"].dim
        radius = bound.arguments["radius"]
        if radius is None:
            radius = 2400 if dim == 2 else 700
        self.oracle_points += bound.arguments["samples"] * (2 * radius + 1) ** (dim - 1)

    def table(self) -> dict:
        hooks = {name: (self._rebuild, None) for name in REBUILDS}
        hooks["generalized.verify_theorem"] = (None, self._verified)
        hooks["bernoulli.bernoulli_cone_oracle"] = (self._oracle, None)
        return hooks


def per_layer(tracer, hooks: LayerHooks, loop: dict, untraced: dict, pass_size: int) -> dict:
    import numpy as np

    name, _, dur, self_time, outer = tracer.span_table()
    ids = {n: k for k, n in enumerate(tracer.names)}
    per_pass = pass_size / len(loop["durations"])

    def where(span):
        return name == ids[span] if span in ids else np.zeros(len(name), dtype=bool)

    def layer_self(layer):
        mask = np.zeros(len(name), dtype=bool)
        for n, k in ids.items():
            if n.startswith(layer + "."):
                mask |= name == k
        return float(self_time[mask].sum()) * per_pass

    def calls(*spans):
        return sum(int(where(s).sum()) for s in spans)

    def inclusive(span):
        return float(dur[where(span) & outer].sum())

    qfac_calls = calls("qseries.qfactorial_xq")
    oracle_time = inclusive("bernoulli.bernoulli_cone_oracle")
    route_pairs = tracer.route_pairs_tried
    report_bytes = [o.report_bytes for o in loop["outcomes"] if o.report_bytes]
    m = {
        "lattice_cones.self_s": metric(layer_self("lattice_cones"), "s"),
        "lattice_cones.rebuilds_per_cone": metric(
            hooks.rebuilds / hooks.cone_uses if hooks.cone_uses else 0.0, "count"),
        "lattice_cones.points_self_s": metric(
            float(self_time[where("lattice_cones.lattice_points")].sum()) * per_pass, "s"),
        "bernoulli.self_s": metric(layer_self("bernoulli"), "s"),
        "bernoulli.multiple_calls": metric(calls("bernoulli.bernoulli_multiple") * per_pass, "count"),
        "bernoulli.cone_calls": metric(
            calls("bernoulli.bernoulli_cone_2d", "bernoulli.bernoulli_cone_3d") * per_pass, "count"),
        "bernoulli.oracle_self_s": metric(
            float(self_time[where("bernoulli.bernoulli_cone_oracle")].sum()) * per_pass, "s"),
        "bernoulli.oracle_points_per_s": metric(
            hooks.oracle_points / oracle_time if oracle_time else 0.0, "1/s"),
        "qseries.self_s": metric(layer_self("qseries"), "s"),
        "qseries.qfac_calls": metric(qfac_calls * per_pass, "count"),
        "qseries.us_per_qfac": metric(
            1e6 * inclusive("qseries.qfactorial_xq") / qfac_calls if qfac_calls else 0.0, "us"),
        "qseries.sine_calls": metric(calls("qseries.multiple_sine") * per_pass, "count"),
        "qseries.gamma_calls": metric(calls("qseries.elliptic_gamma") * per_pass, "count"),
        "generalized.self_s": metric(layer_self("generalized"), "s"),
    }
    for route in ROUTES:
        m[f"generalized.route_s.{route}"] = metric(inclusive(f"generalized.{route}") * per_pass, "s")
    m["generalized.attempts_per_sample"] = metric(
        route_pairs / hooks.accepted_samples if hooks.accepted_samples else 0.0, "count")
    m["cli.self_s"] = metric(layer_self("cli"), "s")
    m["cli.report_bytes"] = metric(
        statistics.mean(report_bytes) if report_bytes else 0.0, "bytes")
    m["trace_overhead_ratio"] = metric(
        pass_time(loop["ref"], pass_size) / pass_time(untraced["ref"], pass_size), "ratio")
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own smoke test")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help="set up once and print the set-up seconds (used internally)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        workload = make_workload(args)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_main = time.perf_counter() - t0
    if args.setup_only:
        from speed import REF_S, calibrate

        calibrate(SETUP_KERNEL)  # warm-up
        calib = statistics.median(calibrate(SETUP_KERNEL) for _ in range(3))
        print(json.dumps({"setup_s": setup_main, "calib_s": calib,
                          "calib_ref_s": REF_S[SETUP_KERNEL]}))
        return 0

    problems = workload.precheck()
    units = unit_count(workload, args.seconds)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    if not args.trace:
        loop = run_loop(workload, range(units))
        metrics, extra = end_to_end(loop, measure_setup(args), workload.pass_size)
        detail.update(extra)
    else:
        from spans import Tracer

        half = units // workload.pass_size // 2 * workload.pass_size
        untraced = run_loop(workload, range(half))
        tracer, hooks = Tracer(), LayerHooks()
        tracer.install(hooks.table())
        tracer.enabled = False
        try:
            loop = run_loop(workload, range(half, units), tracer, hooks)
        finally:
            tracer.uninstall()
        hooks.finish()
        metrics = per_layer(tracer, hooks, loop, untraced, workload.pass_size)
        spans_path = os.path.join(OUT, f"spans-{args.workload}.npz")
        tracer.save(spans_path)
        detail["spans"] = os.path.relpath(spans_path, ROOT)
        detail["span_count"] = len(tracer.start)
        loop["outcomes"] = untraced["outcomes"] + loop["outcomes"]
    outcomes = loop["outcomes"]
    failures = [f for o in outcomes for f in o.failures]
    if workload.failures_are_errors:
        problems += [f"{workload.name}: {f}" for f in failures]
    detail.update({"units": len(outcomes), "passes": len(outcomes) // workload.pass_size,
                   "failures": failures, "check_problems": problems})
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result, "durations_s": loop["durations"],
                   "calib_s": loop["calib"]}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
