"""Host-speed calibration for the benchmark's timings.

A shared host changes speed by up to 1.8x within minutes (a pure-Python
report took 0.19 s and 0.33 s a minute apart on a 2-vCPU Xeon, with CPU
time tracking wall time), so raw times of runs made minutes apart spread
wider than any useful bound.  The benchmark therefore times a fixed
calibration kernel, which does not use the library, before and after every
timed unit and rescales the unit's time to the reference speed at which
the kernel takes its reference time::

    ref_time = raw_time * REF_S[kind] / mean(kernel times over the unit's pass)

(``rescale`` in ``run.py``).

A change to the library moves the rescaled time exactly as it moves the raw
time; only the host's speed drifts are divided out.

The swings do not slow all work alike, so there are two kernels, and each
workload uses the one that matches its work.  ``interpreter`` is scalar
complex arithmetic in the interpreter plus numpy sums over a cache-sized
array, like the q-series products and cone set-up.  ``arrays`` is one pass
of integer and complex exponential arithmetic over arrays of 1.5 million
entries, like the oracles' lattice sums.  Over three minutes in which the
host's speed swung 1.6x, one 3d lattice sum kept within 8% of 2.9 times the
``arrays`` kernel, while its ratio to the ``interpreter`` kernel ranged over
1.8x.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = {"interpreter": 0.010, "arrays": 0.060}  # kernel times at the reference speed

_SMALL = np.exp(2j * np.pi * np.arange(20000) / 20000) * np.linspace(1, 2, 20000)


def interpreter_kernel() -> complex:
    q, x, p = 0.3 + 0.4j, 0.7 - 0.2j, 1 + 0j
    for k in range(6000):
        p *= 1 - x * q ** (k % 40)
        if abs(p) > 1e6:
            p /= 1e6
    s = 0j
    for _ in range(20):
        s += np.exp(_SMALL * 0.01).sum() + (_SMALL * _SMALL.conj()).real.max()
    return p + s


def arrays_kernel() -> complex:
    # built per call, so nothing of it stays resident during a timed unit
    m = np.arange(1_500_000, dtype=np.int64)
    d = (m * 3 - 7) // 5
    keep = (d > 11) & (m % 7 != 0)
    return complex(np.exp(-(0.3 + 0.1j) * 1e-6 * m[keep]).sum())


KERNELS = {"interpreter": interpreter_kernel, "arrays": arrays_kernel}


def calibrate(kind: str) -> float:
    """Seconds the ``kind`` kernel takes now.

    The faster of two runs, so that a one-off interruption of the process
    is not taken for a slower host.
    """
    kernel = KERNELS[kind]
    times = []
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return min(times)
