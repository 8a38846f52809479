"""Host speed reference for scaling job times.

The host this benchmark was defined on switches between a fast and a slow
speed every 1-10 s, by up to half, and a process's CPU time tracks its wall
time through it.  Timing a fixed kernel next to each measurement tells how
fast the host was running, and the measurement is scaled to what it would
have been with the kernel taking REF_UNIT_S.  On eta quotients, series
products, E8 scans and CLI requests this cut the spread of the means of
blocks of consecutive jobs from 22-92% to 8-16%.
"""

import time
from fractions import Fraction

#: what reference_s() takes on the fast host speed, about
REF_UNIT_S = 0.003

_BIG = [Fraction(7 ** (k % 40 + 20)) for k in range(60)]


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python kernel: an integer loop, a sum
    of Fractions with growing denominators, and integer-valued Fractions of
    a few hundred bits multiplied and added, as in the series products."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(i, i + 1)
    acc = Fraction(0)
    for _ in range(12):
        for k, big in enumerate(_BIG):
            acc += (k - 30) * big
    return time.perf_counter() - t0


def scale(seconds: float, *refs: float) -> float:
    """``seconds`` scaled by REF_UNIT_S over the mean reference time."""
    return seconds * REF_UNIT_S * len(refs) / sum(refs)
