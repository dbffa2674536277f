"""The host-speed reference: a fixed pure-Python job timed alongside the
requests.

On a shared virtual machine identical work runs up to 40 % slower for
stretches of ten seconds to a minute.  The benchmark runs reference_work()
between requests, in the warm worker or, for cold requests, in the client
that starts them, and scales each run's request times by REFERENCE_S over
the job's fastest time in that run, so that a run during a slow phase of
the host reads about as fast as one during a quiet phase.  The job does what the package does most: Fraction
arithmetic on polynomial coefficients and float polynomial evaluation.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the job's fastest time on the machine of the README's reference figures;
# it only fixes the scale, in which scaled times read as that machine's ms
REFERENCE_S = 0.012
EVERY = 20               # requests between two timings of the job


def reference_work() -> float:
    """A Euclidean remainder sequence of two fixed rational polynomials,
    then a float polynomial evaluated on 20000 points."""
    a = [Fraction((7 * i) % 13 - 6, 1 + i % 3) for i in range(26)]
    b = [Fraction((5 * i) % 11 - 5, 1 + i % 2) for i in range(23)]
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for j, c in enumerate(b):
                r[shift + j] -= q * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    s = 0.0
    cs = (0.5, -1.25, 2.0, 0.75, -0.5, 1.5, -2.25, 1.0)
    for k in range(20000):
        x = 0.001 * k
        v = 0.0
        for c in cs:
            v = v * x + c
        s += v
    return s


def timed() -> float:
    """Seconds one reference_work() takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """The factor that takes this run's times to the reference machine's."""
    return REFERENCE_S / min(samples)
