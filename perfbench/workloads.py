"""The three benchmark workloads: ``catalog``, ``fresh-cones`` and ``oracle``.

Each workload is a closed loop of units: one caller runs the next unit only
after the last one returned.  A workload object builds its inputs from the
seed in ``setup``, checks fixed expectations in ``precheck`` and hands out
units; ``unit(i)`` returns ``(work, check)``, where ``work()`` is the timed
call into the library and ``check(result)`` is the untimed output check.
``check`` returns an ``Outcome``.  Units are grouped into passes of
``pass_size`` consecutive units, each pass taking about ``pass_ref_s``
seconds at the reference speed of ``speed.py``.  Agreement digits are taken
from the comparisons that passed (failures count in the failure ratio
instead).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from random import Random

from cones import BLOCK_FACETS, cone_stream, save_cone

DIGITS_CAP = 16.0  # agreement digits reported for an exact match


def agree_digits(residual: float) -> float:
    """-log10 of a relative residual, capped at DIGITS_CAP."""
    if residual <= 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(residual))


def rel_residual(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


@dataclass
class Outcome:
    """Checked result of one unit."""

    failed: bool = False
    digits: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # one dict per failed item
    report_bytes: int = 0


class Catalog:
    """``conesine report`` over all shipped cones and identities, in process.

    One unit is ``cli.main(["report", "--seed", k, "--samples", N, ...])``
    with successive seeds k.
    """

    name = "catalog"
    pass_size = 1
    pass_ref_s = 0.155  # seconds per pass at the reference speed
    speed_kernel = "interpreter"  # calibration kernel of speed.py for this work
    failures_are_errors = False
    expected_counts = {"PASS": 14, "SKIP": 16, "FAIL": 0}

    def __init__(self, seed: int, outdir: str, smoke: bool = False):
        self.seed = seed
        self.outdir = outdir
        self.samples = 1 if smoke else 5

    def setup(self) -> None:
        from conesine import cli, fixtures

        self.cli = cli
        self.cones = [fixtures.fixture_cone(n) for n in fixtures.FIXTURE_NAMES]
        os.makedirs(self.outdir, exist_ok=True)
        self.path = os.path.join(self.outdir, "report.json")

    def _report(self, seed: int, samples: int, path: str) -> int:
        argv = ["report", "--seed", str(seed), "--samples", str(samples), "--output", path]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def precheck(self) -> list[str]:
        """Byte-identical reports for one seed, with the recorded counts."""
        problems = []
        paths = [os.path.join(self.outdir, f"check-{k}.json") for k in (1, 2)]
        for path in paths:
            rc = self._report(3, 5, path)
            if rc != 0:
                problems.append(f"catalog: report --seed 3 --samples 5 exited {rc}")
        blobs = []
        for path in paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        if blobs[0] != blobs[1]:
            problems.append("catalog: two reports for seed 3 differ")
        counts = json.loads(blobs[0])["counts"]
        if counts != self.expected_counts:
            problems.append(f"catalog: seed 3 counts {counts}, expected {self.expected_counts}")
        return problems

    def unit(self, i: int):
        seed = self.seed * 100000 + i

        def work():
            return self._report(seed, self.samples, self.path)

        def check(rc) -> Outcome:
            with open(self.path, "rb") as fh:
                blob = fh.read()
            doc = json.loads(blob)
            out = Outcome(report_bytes=len(blob))
            if rc != 0 or doc["counts"]["SKIP"] != self.expected_counts["SKIP"]:
                out.failed = True
            for item in doc["items"]:
                if item["status"] == "SKIP":
                    continue
                finite = all(math.isfinite(r) for r in item["residuals"])
                if item["status"] == "PASS" and finite:
                    out.digits.extend(agree_digits(r) for r in item["residuals"])
                    continue
                out.failed = True
                out.failures.append({
                    "seed": seed, "cone": item["cone_name"], "theorem": item["theorem"],
                    "status": item["status"], "finite": finite,
                    "max_residual": item["max_residual"],
                })
            return out

        return work, check


class FreshCones:
    """All six identities on newly generated random good cones.

    One unit is one cone, never seen before in the run, checked through
    ``verify_theorem`` with a few samples per identity.  Every cone is saved
    as JSON under the output directory so that ``conesine verify <theorem>
    --cone <path>`` replays it.
    """

    name = "fresh-cones"
    pass_size = len(BLOCK_FACETS)
    pass_ref_s = 1.1
    speed_kernel = "interpreter"
    failures_are_errors = False  # known library defects, counted in ok_ratio
    pregenerated = 300

    def __init__(self, seed: int, outdir: str, smoke: bool = False):
        self.seed = seed
        self.outdir = outdir
        self.samples = 1 if smoke else 5
        if smoke:
            self.pregenerated = 20

    def setup(self) -> None:
        from conesine import generalized

        self.generalized = generalized
        self.stream = cone_stream(self.seed)
        self.cones: list = []
        self.paths: list[str] = []
        self._extend(self.pregenerated)

    def _extend(self, count: int) -> None:
        for _ in range(count):
            cone = next(self.stream)
            path = os.path.join(self.outdir, f"cone-{len(self.cones):05d}.json")
            save_cone(cone, path)
            self.cones.append(cone)
            self.paths.append(path)

    def precheck(self) -> list[str]:
        """Every saved cone replays through the library's own loader."""
        from conesine import load_cone

        return [
            f"fresh-cones: {path} does not reload to the generated cone"
            for cone, path in zip(self.cones, self.paths)
            if load_cone(path) != cone
        ]

    def unit(self, i: int):
        if i >= len(self.cones):
            self._extend(i + 1 - len(self.cones))
        cone, path = self.cones[i], self.paths[i]
        seed = self.seed * 100000 + i
        verify = self.generalized.verify_theorem
        theorem_ids = self.generalized.THEOREM_IDS

        def work():
            results = []
            for tid in theorem_ids:
                try:
                    results.append((tid, verify(tid, cone, samples=self.samples, seed=seed)))
                except Exception as exc:  # noqa: BLE001 - a raised unit is counted, not fatal
                    results.append((tid, exc))
            return results

        def replay(tid):
            rel = os.path.relpath(path)
            return f"conesine verify {tid} --cone {rel} --samples {self.samples} --seed {seed}"

        def check(results) -> Outcome:
            out = Outcome()
            for tid, rep in results:
                if isinstance(rep, Exception):
                    out.failures.append({"cone": path, "theorem": tid, "seed": seed,
                                         "status": "RAISED", "error": repr(rep),
                                         "replay": replay(tid)})
                    continue
                if rep.status == "SKIP":
                    continue
                finite = all(math.isfinite(r) for r in rep.residuals) and all(
                    math.isfinite(abs(v)) for v in rep.lhs + rep.rhs
                )
                if rep.status == "PASS" and finite:
                    out.digits.extend(agree_digits(r) for r in rep.residuals)
                    continue
                out.failures.append({
                    "cone": path, "normals": [list(v) for v in cone.normals],
                    "theorem": tid, "seed": seed, "status": rep.status,
                    "finite": finite, "max_residual": rep.max_residual,
                    "replay": replay(tid),
                })
            out.failed = bool(out.failures)
            return out

        return work, check


# Points validated against the oracles, as frozen in the test suite.  The gamma
# cases jitter them by up to 3% per pass from the seed; the Bernoulli cases
# keep them exactly, because the 2d oracle meets its 1e-8 tolerance only near
# the validated points (a 1% jitter gives residuals up to 1.5e-8).
_Z_GENERIC = 0.31 - 0.17j
_GAMMA_OMEGAS = {
    "standard-2": (0.21 + 0.55j, -0.13 + 0.62j),
    "wedge21": (0.09 - 0.60j, -0.04 + 0.65j),
    "wedge53": (0.11 - 0.55j, -0.06 + 0.40j),
    "standard-3": (0.14 + 0.52j, -0.08 + 0.61j, 0.05 + 0.47j),
    "cone-over-square": (0.06 + 0.95j, -0.04 - 0.28j, 0.05 - 0.33j),
}
_BERNOULLI_OMEGAS = {
    "wedge21": (-0.25 + 0.021j, 0.35 + 0.013j),
    "wedge53": (-0.22 + 0.017j, 0.41 + 0.011j),
    "cone-over-square": (0.42 + 0.014j, -0.13 + 0.009j, -0.17 - 0.012j),
}
_Z_BERNOULLI_2D = 0.27 - 0.11j
_Z_BERNOULLI_3D = 0.19 + 0.07j
_Z_LIFTED = 0.21 - 0.13j
_LIFT_RAY = {
    -1.0: complex(math.cos(-math.pi + 0.35), math.sin(-math.pi + 0.35)),
    1.0: complex(math.cos(-0.35), math.sin(-0.35)),
}

# (label, kind, cone, tolerance); tolerances are those of the test suite:
# absolute for the Bernoulli coefficients, relative for the gamma products.
# The slow 3d case comes last in a pass.
ORACLE_CASES = (
    ("bernoulli-2d/wedge21", "bernoulli", "wedge21", 1e-8),
    ("bernoulli-2d/wedge53", "bernoulli", "wedge53", 1e-8),
    ("bernoulli-lifted-1/wedge21", "lifted-", "wedge21", 1e-6),
    ("bernoulli-lifted+1/wedge21", "lifted+", "wedge21", 1e-6),
    ("gamma/standard-2", "gamma", "standard-2", 1e-6),
    ("gamma/standard-3", "gamma", "standard-3", 1e-5),
    ("gamma/wedge21", "gamma", "wedge21", 1e-6),
    ("gamma/wedge53", "gamma", "wedge53", 1e-6),
    ("gamma/cone-over-square", "gamma", "cone-over-square", 1e-5),
    ("bernoulli-3d/cone-over-square", "bernoulli", "cone-over-square", 1e-6),
)
SLOW_CASE = ORACLE_CASES[-1][0]


class Oracle:
    """Lattice and generating-function oracles against their closed forms.

    One unit is one oracle call at the library's default radius, degree and
    sample count; one pass runs every case in ``ORACLE_CASES`` once.
    """

    name = "oracle"
    pass_ref_s = 10.8
    speed_kernel = "arrays"  # nearly all the time is numpy lattice sums
    failures_are_errors = True  # an oracle off its closed form fails the check
    jitter = 0.03

    def __init__(self, seed: int, outdir: str, smoke: bool = False):
        self.seed = seed
        # the 3d oracle needs its default radius to meet its tolerance, so
        # smoke runs leave it out instead of shrinking it
        self.cases = ORACLE_CASES[:-1] if smoke else ORACLE_CASES
        self.pass_size = len(self.cases)

    def setup(self) -> None:
        import numpy.polynomial.chebyshev  # noqa: F401 - the oracles import it lazily

        import conesine
        from conesine import fixtures

        self.lib = conesine
        self.cones = {n: fixtures.fixture_cone(n) for n in fixtures.FIXTURE_NAMES}

    def precheck(self) -> list[str]:
        """One untimed pass of the quick cases, checked like a timed one.

        It also warms the lazy imports and the allocator, so the timed calls
        are all warm.  The slow 3d case is checked in the timed passes.
        """
        problems = []
        for i in range(-self.pass_size, 0):
            if self.cases[i][0] == SLOW_CASE:
                continue
            work, check = self.unit(i)
            problems += [f"oracle: {f}" for f in check(work()).failures]
        return problems

    def _jitter(self, case: str, pass_index: int):
        """Seeded small multiplicative jitter for the point of one case."""
        rng = Random(f"{self.seed}/{pass_index}/{case}")
        j = self.jitter

        def shake(w: complex) -> complex:
            return w * complex(1 + rng.uniform(-j, j), rng.uniform(-j, j))

        return shake

    def unit(self, i: int):
        label, kind, cone_name, tol = self.cases[i % self.pass_size]
        cone = self.cones[cone_name]
        lib = self.lib
        if kind == "gamma":
            shake = self._jitter(label, i // self.pass_size)
            z = shake(_Z_GENERIC)
            om = tuple(shake(w) for w in _GAMMA_OMEGAS[cone_name])

            def work():
                return lib.gamma_cone_lattice_oracle(cone, z, om)

            def closed():
                direct = lib.gamma_cone_2d_direct if cone.dim == 2 else lib.gamma_cone_3d_direct
                return direct(cone, z, om)

            residual = rel_residual
        elif kind == "bernoulli":
            z = _Z_BERNOULLI_2D if cone.dim == 2 else _Z_BERNOULLI_3D
            om = _BERNOULLI_OMEGAS[cone_name]
            n = cone.dim

            def work():
                return lib.bernoulli_cone_oracle(cone, z, om, n)

            def closed():
                return lib.bernoulli_cone(cone, z, om, n)

            def residual(a, b):
                return abs(a - b)
        else:
            eta = -1.0 if kind == "lifted-" else 1.0
            z = _Z_LIFTED
            om = _GAMMA_OMEGAS[cone_name]

            def work():
                return lib.bernoulli_cone_oracle(
                    cone, z, om, cone.dim + 1, ray=_LIFT_RAY[eta], eta=eta
                )

            def closed():
                return lib.bernoulli_cone_lifted(cone, z, om, eta)

            def residual(a, b):
                return abs(a - b)

        def check(value) -> Outcome:
            ref = closed()
            err = residual(value, ref)
            out = Outcome()
            if err < tol:
                out.digits.append(agree_digits(rel_residual(value, ref)))
            else:
                out.failed = True
                out.failures.append({"case": label, "pass": i // self.pass_size,
                                     "residual": err, "tolerance": tol})
            return out

        return work, check


WORKLOADS = {cls.name: cls for cls in (Catalog, FreshCones, Oracle)}
