"""Reference kernel that calibrates the benchmark's timings against CPU speed drift.

The kernel never calls ``equidist``.  It is a few milliseconds of the mix
the engine spends its time on, in two halves of about equal time:
Fraction / big-integer arithmetic from an exact Sutherland-Hodgman clip,
and float geometry on small tuples and dicts (the corpus's own
empty-circle brute force on five points).  Timed between the ops, it
measures how fast the interpreter runs right now; a raw duration d is
reported as d * R0 / r, where r is the kernel time measured next to it.
Reported times are therefore "at reference speed": as if the kernel took
exactly R0.

Each half alone tracked the ops' drift about as well as both together.  A
small file written and read back, tried as a third part, made tracking
worse: file-system time drifts independently of computation.

Set-up (a fresh interpreter importing the engine) has a reference of its
own, timed in the same child right after the import: compiling,
unmarshalling and executing a fixed module of dataclasses and functions,
which is what an import does.  The kernel above, timed in the parent
between the children, tracked the import time worse than no calibration.
"""

from __future__ import annotations

import time
from fractions import Fraction

from corpus import boundary_cycles

# Kernel times that define reference speed, in seconds.  They are fixed
# constants, so calibrated figures of two versions of the engine compare.
R0 = 0.003
S0 = 0.015

SETUP_SOURCE = "from dataclasses import dataclass\n" + "".join(
    f"@dataclass(frozen=True)\nclass C{k}:\n    a: float\n    b: int\n    c: tuple = ()\n\n"
    f"    def f(self, x):\n        return self.a * x + self.b\n\n\n"
    f"def g{k}(x, y):\n    s = 0\n    for i in range(x):\n        s += i * y\n    return s\n\n\n"
    for k in range(12))

_FIVE_POINTS = [([(0.3 + 0.01 * k, -0.2), (-0.4, 0.5 - 0.01 * k)],
                 [(6.0, 0.1 * k), (-4.0, 5.0), (-3.0, -6.0)]) for k in range(20)]
_SITES = [(Fraction(k * 37 % 23 - 11, 7), Fraction(k * 53 % 19 - 9, 5)) for k in range(14)]


def _clip(rows):
    verts = [(Fraction(-8), Fraction(-8)), (Fraction(8), Fraction(-8)),
             (Fraction(8), Fraction(8)), (Fraction(-8), Fraction(8))]
    for a, b, c in rows:
        svals = [c - (a * x + b * y) for x, y in verts]
        out = []
        n = len(verts)
        for i in range(n):
            j = (i + 1) % n
            sa, sb = svals[i], svals[j]
            if sa >= 0:
                out.append(verts[i])
            if (sa >= 0) != (sb >= 0):
                t = sa / (sa - sb)
                out.append((verts[i][0] + t * (verts[j][0] - verts[i][0]),
                            verts[i][1] + t * (verts[j][1] - verts[i][1])))
        verts = out
    return verts


def kernel() -> int:
    """One pass of the reference workload; returns a checksum of its result."""
    sx, sy = _SITES[0]
    rows = [(2 * (yx - sx), 2 * (yy - sy), yx * yx + yy * yy - sx * sx - sy * sy)
            for yx, yy in _SITES[1:]]
    verts = _clip(rows)
    area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]))
    total = area.numerator % 1000003 + len(verts)
    for inner, outer in _FIVE_POINTS:
        total += sum(len(cycle) for cycle in boundary_cycles(inner, outer))
    return total


def time_kernel() -> float:
    """Wall time of one kernel pass, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(r: float, r0: float = R0) -> float:
    """Factor that brings a duration measured next to kernel time r to reference speed."""
    return r0 / r


def neighbour_ref(ref_times: list[float], ref_at: list[int], index: int) -> float:
    """Mean of the kernel times just before and just after op number index.

    ``ref_at[k]`` is the number of ops that had completed when kernel k ran;
    a kernel runs before the first op and after the last.  The drift changes
    within a second, so averaging over more kernels tracked it less well.
    """
    after = next(k for k, at in enumerate(ref_at) if at > index)
    return (ref_times[after - 1] + ref_times[after]) / 2
