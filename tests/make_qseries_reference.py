"""Print the reference values held in ``test_qseries_reference.py``.

Runs the ``fresh-cones`` benchmark workload (``perfbench/workloads.py``) at
the given seed with every q-factorial recorded (each ``qfactorial_xq`` call
and the two of each ``elliptic_gamma``), keeps the
two-period calls whose larger reduced modulus is at least 0.99 and that spend
more than 2,000 terms, and prints the ``count`` costliest as Python literals:
the arguments, the value computed in mpmath at 40 digits, and the relative
error of the ``qfactorial_xq`` imported from ``--src``, rounded up to three
significant digits.  With ``--src`` a checkout's ``src`` directory, that
checkout is the one recorded and checked; it must evaluate its q-factorials
through ``qseries._QPlan``, whose ``evaluate`` returns the value, the count of
factors that vanish and whether digits were lost, and an older checkout is
recorded with the script of its own commit::

    python3 tests/make_qseries_reference.py --seed 301 --count 8 --src <checkout>/src

With ``--near-circle`` it prints instead seeded draws near the unit circle,
30 one-period and 10 two-period (``near_circle_draws``), each with its value
computed in mpmath at 30 digits::

    python3 tests/make_qseries_reference.py --near-circle --seed 301

With ``--wedge-sines`` it records instead every multi-period ``multiple_sine``
call of the fresh-cones run (the wedge sines of the decomposed cone routes),
evaluates each in both boundary forms with the library from ``--src``, and
prints the ``count`` calls whose forms disagree most, each with its value at
30 digits and the relative errors of form 1, form 2 and the default form::

    python3 tests/make_qseries_reference.py --wedge-sines --seed 1 --count 12

With ``--faces`` it prints instead, for each bundled cone, the first
``count`` sine and the first ``count`` gamma parameter draws of
``_sample_sine_params`` and ``_sample_gamma_params`` whose face factors all
evaluate in the library from ``--src``, each with every face factor at 30
digits (``mp_face_factors``); the median, 90th percentile and worst relative
error of that library's factors, per kind, go to stderr::

    python3 tests/make_qseries_reference.py --faces --seed 0 --count 4

With ``--fallback-sines`` it prints instead the first ``count`` of 3,000
hostile ``multiple_sine`` draws (``hostile_sine_draws``) that the cheaper
boundary form refuses and the other form returns, each with its value at 40
digits and the library's relative error, rounded up to three significant
digits::

    python3 tests/make_qseries_reference.py --fallback-sines --seed 5 --count 4

Its reference is e^{(-1)^r pi i B_{r,r}(z | omega) / r!} times the q-factorials
of ``mp_qfac``, in whichever form ``mp_qfac`` shifts less; the Bernoulli
polynomial comes from its generating function, with mpmath's Bernoulli
numbers (``mp_bernoulli_rr``).  Where the other form is affordable too, the
two forms' agreement is printed with it.

The reference shares no code with ``conesine.qseries``: it inverts every
|q| > 1, shifts on the smallest |q| until |x| < 1/2 (not at the library's
cost-balanced target) and sums the log series until its tail bound is below
1e-36.  The fresh-cones run takes a few minutes.
"""
from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
import tempfile
from random import Random

import mpmath

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def mp_qfac(x, qs, dps: int = 40):
    """(x | qs) at ``dps`` digits, for moduli off the unit circle."""
    with mpmath.workdps(dps):
        x = mpmath.mpc(x)
        small, flips = [], 0
        for q in qs:
            q = mpmath.mpc(q)
            if abs(q) > 1:
                x, q, flips = x / q, 1 / q, flips + 1
            small.append(q)
        val = _mp_small(x, small)
        return 1 / val if flips % 2 else val


def _mp_small(x, qs):
    if not qs:
        return 1 - x
    mods = [abs(q) for q in qs]
    j = mods.index(min(mods))
    prefactor = mpmath.mpc(1)
    while abs(x) >= 0.5:
        prefactor *= _mp_small(x, qs[:j] + qs[j + 1:])
        x *= qs[j]
    ax = abs(x)
    acc, xn, qn, n = mpmath.mpc(0), x, list(qs), 1
    while True:
        denom = mpmath.mpc(1)
        for u in qn:
            denom *= 1 - u
        acc += xn / (n * denom)
        tail = abs(xn) * ax / ((n + 1) * (1 - ax))
        for a in mods:
            tail /= 1 - a ** (n + 1)
        if tail < mpmath.mpf("1e-36"):
            return prefactor * mpmath.exp(-acc)
        xn, qn, n = xn * x, [u * q for u, q in zip(qn, qs)], n + 1


def near_circle_draws(seed: int) -> list:
    """30 one-period then 10 two-period (x, qs) draws from ``Random(seed)``: every
    1 - |q| log-uniform in [1e-3, 1e-1], |x| uniform in [0.5, 1.5], uniform angles."""
    rng = Random(seed)
    draws = []
    for r, count in ((1, 30), (2, 10)):
        for _ in range(count):
            x = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
            qs = tuple(cmath.rect(1.0 - 10.0 ** -rng.uniform(1.0, 3.0), rng.uniform(-math.pi, math.pi))
                       for _ in range(r))
            draws.append((x, qs))
    return draws


def mp_bernoulli_rr(z, omegas):
    """B_{r,r}(z | omegas), r = len(omegas): r! times the t^r coefficient of
    e^{zt} prod_w t / (e^{wt} - 1), with t / (e^{wt} - 1) = sum_k B_k w^{k-1} t^k / k!."""
    r = len(omegas)
    series = [z ** n / mpmath.factorial(n) for n in range(r + 1)]
    for w in omegas:
        factor = [mpmath.bernoulli(k) * w ** (k - 1) / mpmath.factorial(k) for k in range(r + 1)]
        series = [sum(series[i] * factor[n - i] for i in range(n + 1)) for n in range(r + 1)]
    return mpmath.factorial(r) * series[r]


def _mp_sine_steps(z, omegas, form: int) -> float:
    """Top-level shift steps of ``mp_qfac`` (down to |x| < 1/2) over the sine's q-factorials in
    boundary form ``form``."""
    z, omegas, sign = mpmath.mpc(z), [mpmath.mpc(w) for w in omegas], 1 if form == 1 else -1
    total = 0.0
    for k, wk in enumerate(omegas):
        log_x = -2 * mpmath.pi * (sign * z / wk).imag
        logs = [-2 * mpmath.pi * (sign * w / wk).imag for j, w in enumerate(omegas) if j != k]
        log_x -= sum(m for m in logs if m > 0)
        total += max(0, (log_x - mpmath.log(0.5)) / max(abs(m) for m in logs))
    return float(total)


def mp_multiple_sine(z, omegas, form: int, dps: int = 40):
    """S_r(z | omegas) at ``dps`` digits in boundary form ``form`` (1: exponents as written, 2: negated)."""
    with mpmath.workdps(dps):
        z, omegas = mpmath.mpc(z), [mpmath.mpc(w) for w in omegas]
        r, sign = len(omegas), 1 if form == 1 else -1
        val = mpmath.exp(sign * (-1) ** r * 1j * mpmath.pi * mp_bernoulli_rr(z, omegas) / mpmath.factorial(r))
        for k, wk in enumerate(omegas):
            x, *qs = [mpmath.exp(2j * mpmath.pi * sign * u / wk) for u in (z, *omegas[:k], *omegas[k + 1:])]
            val *= mp_qfac(x, qs, dps)
        return val


def print_wedge_sines(seed: int, count: int) -> None:
    """The ``count`` wedge sines of a fresh-cones run whose two forms disagree most, as literals."""
    from conesine import generalized, multiple_sine
    from conesine.errors import ConesineError

    calls = []
    original = generalized.multiple_sine

    def recorded(z, omegas, *args, **kwargs):
        if len(omegas) >= 2:
            calls.append((complex(z), tuple(complex(w) for w in omegas)))
        return original(z, omegas, *args, **kwargs)

    generalized.multiple_sine = recorded
    try:
        run_fresh_cones(seed)
    finally:
        generalized.multiple_sine = original
    from params import forced_form

    def in_form(form, z, omegas):
        with forced_form(form):
            return multiple_sine(z, omegas)

    disagree = {}
    for z, omegas in calls:
        try:
            one, two = in_form(1, z, omegas), in_form(2, z, omegas)
        except ConesineError:
            continue
        disagree[(z, omegas)] = abs(one - two) / abs(two)
    for z, omegas in sorted(disagree, key=disagree.get, reverse=True)[:count]:
        steps = {form: _mp_sine_steps(z, omegas, form) for form in (1, 2)}
        cheap = min(steps, key=steps.get)
        want = mp_multiple_sine(z, omegas, cheap)
        note = f"form {cheap} reference"
        if steps[3 - cheap] < 2000:
            other = mp_multiple_sine(z, omegas, 3 - cheap)
            with mpmath.workdps(40):
                note += f", form {3 - cheap} agrees to {mpmath.nstr(abs(other - want) / abs(want), 2)}"
        with mpmath.workdps(40):
            values = [in_form(1, z, omegas), in_form(2, z, omegas), multiple_sine(z, omegas)]
            errs = [float(abs(mpmath.mpc(v) - want) / abs(want)) for v in values]
        print(f"    ({z!r}, {omegas!r},\n     \"{mpmath.nstr(want.real, 30)}\", \"{mpmath.nstr(want.imag, 30)}\"),"
              f"  # errors {errs[0]:.2g} (form 1), {errs[1]:.2g} (form 2), {errs[2]:.2g} (default); {note}")


def _rounded_up(err: float) -> float:
    """``err`` rounded up to three significant digits."""
    scale = 10.0 ** (math.floor(math.log10(err)) - 2)
    return math.ceil(err / scale) * scale


def hostile_sine_draws(seed: int, count: int):
    """``count`` (z, omegas) draws from ``Random(seed)``: 2 or 3 periods with real parts uniform
    in [-1.5, 1.5] and imaginary parts of either sign, log-uniform in [10^-3.5, 1], and z with
    real part uniform in [-2, 2] and imaginary part of either sign, log-uniform in [10^-2, 10^2.5]."""
    rng = Random(seed)
    for _ in range(count):
        r = rng.choice((2, 3))
        omegas = tuple(complex(rng.uniform(-1.5, 1.5), rng.choice((1, -1)) * 10 ** rng.uniform(-3.5, 0)) for _ in range(r))
        yield complex(rng.uniform(-2, 2), rng.choice((1, -1)) * 10 ** rng.uniform(-2, 2.5)), omegas


def print_fallback_sines(seed: int, count: int) -> None:
    """The first ``count`` hostile draws that only the costlier boundary form returns, as literals."""
    from unittest import mock

    from conesine import multiple_sine, qseries
    from conesine.errors import ConesineError

    kept = 0
    for z, omegas in hostile_sine_draws(seed, 3000):
        # each form tried builds its prefactor first, so two prefactors mean the other form was taken
        with mock.patch.object(qseries, "_prefactor", wraps=qseries._prefactor) as prefactors:
            try:
                value = multiple_sine(z, omegas)
            except ConesineError:
                continue
        if prefactors.call_count < 2:
            continue
        want = mp_multiple_sine(z, omegas, 1)
        with mpmath.workdps(40):
            err = float(abs(mpmath.mpc(value) - want) / abs(want))
            print(f"    ({z!r}, {omegas!r},\n     \"{mpmath.nstr(want.real, 40)}\", \"{mpmath.nstr(want.imag, 40)}\"),"
                  f"  # error {_rounded_up(err):.3g}")
        kept += 1
        if kept == count:
            break


def mp_face_factors(cone, z, omegas, kind: str, form: int = 1, dps: int = 30) -> list:
    """Each face factor of ``cone`` at (z | omegas) at ``dps`` digits, in facet order.

    The periods p = K omegas of the face matrix K are formed in mpmath from the
    exact double inputs and K's integer rows.  A sine factor is
    (e^{2 pi i z/p_0} | e^{2 pi i p_j/p_0}, j >= 1) in boundary form ``form``
    (form 2 negates every exponent); a gamma factor is the elliptic gamma of
    z/p_0 at the periods (-1/p_0, p_1/p_0, ...), r = dim - 1, from the num and den
    q-factorials of ``elliptic_gamma``.
    Moving a row of K by a multiple of the edge ray moves p_j/p_0 by an integer,
    which changes no q, so the value does not depend on which face matrix the
    library holds."""
    from conesine.lattice_cones import face_matrices

    def e(w):
        return mpmath.exp(2j * mpmath.pi * w)

    with mpmath.workdps(dps):
        z, omegas = mpmath.mpc(z), [mpmath.mpc(w) for w in omegas]
        out = []
        for ft in face_matrices(cone):
            p = [sum(k * w for k, w in zip(row, omegas)) for row in ft.matrix]
            if kind == "sine":
                sign = 1 if form == 1 else -1
                out.append(mp_qfac(e(sign * z / p[0]), [e(sign * pk / p[0]) for pk in p[1:]], dps))
            else:
                zf, periods = z / p[0], [-1 / p[0], *(pk / p[0] for pk in p[1:])]
                qs = [e(w) for w in periods]
                num, den = mp_qfac(e(-zf + sum(periods)), qs, dps), mp_qfac(e(zf), qs, dps)
                out.append(num / den if cone.dim % 2 == 0 else num * den)
        return out


def face_draws(seed: int, count: int) -> list:
    """(fixture, kind, z, omegas, form, factor values): the first ``count`` draws per bundled
    cone and kind, from ``Random(seed)``, whose face factors all evaluate.  A sine draw takes
    the form ``sine_cone_factorized`` picks; a gamma draw the primary face periods."""
    from conesine import FIXTURE_NAMES, fixture_cone
    from conesine.errors import ConesineError
    from conesine.generalized import _sample_gamma_params, _sample_sine_params
    from conesine.qseries import _cheaper_form  # the form the factorized route tries first
    from params import face_factors

    draws = []
    for name in FIXTURE_NAMES:
        cone = fixture_cone(name)
        for kind, sampler in (("sine", _sample_sine_params), ("gamma", _sample_gamma_params)):
            rng, kept = Random(seed), 0
            while kept < count:
                z, omegas = sampler(cone, rng)
                try:
                    if kind == "sine":
                        form = _cheaper_form([(u, scaled[1:]) for _, u, scaled in cone.faces(z, omegas)])
                        factors = face_factors(cone, z, omegas)
                    else:
                        form, factors = 1, face_factors(cone, z, omegas, "primary")
                except ConesineError:
                    continue
                draws.append((name, kind, z, omegas, form, [value for _, value in factors]))
                kept += 1
    return draws


def print_faces(seed: int, count: int) -> None:
    """The face draws as literals with their 30-digit factors; error quantiles per kind to stderr."""
    from conesine import fixture_cone

    errors = {"sine": [], "gamma": []}
    for name, kind, z, omegas, form, values in face_draws(seed, count):
        wants = mp_face_factors(fixture_cone(name), z, omegas, kind, form)
        with mpmath.workdps(30):
            errs = [float(abs(mpmath.mpc(v) - w) / abs(w)) for v, w in zip(values, wants)]
            refs = ", ".join(f'("{mpmath.nstr(w.real, 30)}", "{mpmath.nstr(w.imag, 30)}")' for w in wants)
        errors[kind] += errs
        print(f"    ({name!r}, {kind!r}, {z!r}, {omegas!r}, {form},\n     [{refs}]),"
              f"  # worst error {max(errs):.2g}")
    for kind, errs in errors.items():
        errs.sort()
        print(f"{kind}: {len(errs)} factors, median {errs[len(errs) // 2]:.3g}, "
              f"p90 {errs[int(0.9 * len(errs))]:.3g}, worst {errs[-1]:.3g}", file=sys.stderr)


def run_fresh_cones(seed: int) -> None:
    """One fresh-cones benchmark run at ``seed``, as ``perfbench/run.py`` sizes it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import unit_count
    from workloads import FreshCones

    with tempfile.TemporaryDirectory() as outdir:
        work = FreshCones(seed, outdir)
        work.setup()
        for i in range(unit_count(work, 15)):
            work.unit(i)[0]()


def record_calls(seed: int):
    """(x, qs, terms spent) of every q-factorial that returns in one fresh-cones run:
    each ``qfactorial_xq`` call and the two q-factorials of each ``elliptic_gamma``."""
    from conesine import qseries

    budgets, calls = [], []

    class Recorded(qseries._Budget):
        def __init__(self, max_terms):
            super().__init__(max_terms)
            budgets.append(self)

    class RecordedPlan(qseries._QPlan):  # every q-factorial is evaluated against a plan of its periods
        __slots__ = ("periods",)

        def __init__(self, qs):
            super().__init__(qs)
            self.periods = qs

        def evaluate(self, x, ax, cfg):
            budgets.clear()
            parts = super().evaluate(x, ax, cfg)  # (value, count of vanishing factors, digits lost)
            if not parts[2]:  # a call that raises or loses its digits has no reference value and is not kept
                calls.append((complex(x), tuple(complex(q) for q in self.periods), cfg.max_terms - budgets[0].left))
            return parts

    qseries._Budget, qseries._QPlan = Recorded, RecordedPlan
    try:
        run_fresh_cones(seed)
    finally:
        qseries._Budget, qseries._QPlan = Recorded.__bases__[0], RecordedPlan.__bases__[0]
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the conesine sources to record and check")
    parser.add_argument("--near-circle", action="store_true", help="print the seeded near-circle draws instead")
    parser.add_argument("--wedge-sines", action="store_true",
                        help="print the wedge sines whose two forms disagree most instead")
    parser.add_argument("--faces", action="store_true",
                        help="print seeded face-factor draws of the bundled cones instead")
    parser.add_argument("--fallback-sines", action="store_true",
                        help="print hostile sine draws that only the costlier boundary form returns instead")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from conesine import qfactorial_xq

    if args.faces:
        print_faces(args.seed, args.count)
        return 0

    if args.wedge_sines:
        print_wedge_sines(args.seed, args.count)
        return 0

    if args.fallback_sines:
        print_fallback_sines(args.seed, args.count)
        return 0

    if args.near_circle:
        for x, qs in near_circle_draws(args.seed):
            want = mp_qfac(x, qs, 30)
            print(f"    ({x!r}, {qs!r},\n     \"{mpmath.nstr(want.real, 30)}\", \"{mpmath.nstr(want.imag, 30)}\"),")
        return 0

    chosen = {}
    for x, qs, terms in record_calls(args.seed):
        near = max(min(abs(q), 1 / abs(q)) for q in qs) if qs else 0.0
        if len(qs) == 2 and near >= 0.99 and terms > 2000:
            chosen[(x, qs)] = terms
    for (x, qs), terms in sorted(chosen.items(), key=lambda kv: -kv[1])[: args.count]:
        want = mp_qfac(x, qs)
        with mpmath.workdps(40):
            err = float(abs(mpmath.mpc(qfactorial_xq(x, qs)) - want) / abs(want))
            print(f"    ({x!r}, {qs!r},\n     \"{mpmath.nstr(want.real, 40)}\", \"{mpmath.nstr(want.imag, 40)}\","
                  f" {_rounded_up(err):.3g}),  # {terms} terms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
