"""Host speed calibration against a fixed reference computation.

On a shared host the CPU time of the same request swings by up to 2x
within minutes, as other tenants load the core's sibling thread and the
caches.  The benchmark therefore times ``reference()`` (fixed pure-Python
work that owes nothing to fourcover: slotted objects, modular integer
convolutions, ``Fraction`` arithmetic and products of integers thousands
of bits wide, the kind of work the library does) between requests, and scales every measured CPU time by
``REFERENCE_S`` over the reference time measured around it.  The times it
reports are thus the times on a host where ``reference()`` takes
``REFERENCE_S`` of CPU time.  A change to fourcover moves them; a change
in the host's speed mostly does not.  The unscaled CPU and wall times are
kept in the result file.
"""

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-3       # the reference's CPU time on the nominal host
WINDOW_S = 1.0           # references within this CPU time of a request count

_MOD = 5 ** 40
# Wide integers, as at 4x precision: interpreter-bound work alone reacts
# less to the host's load than fourcover does, big-integer work more.
_BIG_A, _BIG_B, _BIG_MOD = 7 ** 1800, 3 ** 2900, 5 ** 1500


class _Digits:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other):
        n = len(self.c)
        out = [0] * n
        for j, a in enumerate(self.c):
            if a:
                for k, b in enumerate(other.c):
                    out[(j + k) % n] = (out[(j + k) % n] + a * b) % _MOD
        return _Digits(tuple(out))


def reference():
    """Fixed work: about 1 ms of CPU time under CPython 3.11 on one core
    of a lightly loaded shared x86 host."""
    x = _Digits(tuple((3 ** i + 7) % _MOD for i in range(8)))
    y = _Digits(tuple((5 ** i + 11) % _MOD for i in range(8)))
    seen = {}
    for i in range(16):
        x = x.mul(y)
        seen[x.c[i % 8] % 97] = i
    s = Fraction(0)
    for i in range(1, 24):
        s = s + Fraction(i * 7 + 1, i * i + 3) * Fraction(5 ** (i % 9), 3)
    big = _BIG_A
    for _ in range(8):
        big = big * _BIG_B % _BIG_MOD
    return len(seen), s, big


def time_reference(clock=time.process_time):
    t0 = clock()
    reference()
    return clock() - t0


class Calibration:
    """Reference timings taken along a run, at CPU-time offsets ``at``."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, now):
        self.at.append(now)
        self.took.append(time_reference())

    def scale(self, now):
        """REFERENCE_S over the median reference time within WINDOW_S of
        ``now``, or over all of them if none is that near."""
        lo = bisect.bisect_left(self.at, now - WINDOW_S)
        hi = bisect.bisect_right(self.at, now + WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[lo:hi] or self.took)
