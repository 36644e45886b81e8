"""A fixed reference computation, timed alongside the operations of a run.

The machine this benchmark runs on is shared, and its speed drifts by a
fifth or more within seconds and minutes while nothing in the run changes.
Latencies are therefore reported in units of this reference (``ref``): each
operation's latency is divided by the median duration of the references
timed within a margin of it, which cancels most of that drift; the raw
milliseconds are printed beside them. The reference is exact rational
arithmetic on small and 62-bit entries, the kind of work whitneyforms does,
and it never calls whitneyforms, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

MARGIN_S = 0.5  # references this close to an operation scale it
BURST_S = 0.4


def reference() -> int:
    total = 0
    for i in range(1, 300):
        small = Fraction(i, i % 17 + 1)
        large = Fraction(2**62 - i, 2**61 + 3 * i)
        mixed = small * large - small + large / (small + 1)
        terms = {(i % 5, i % 7): mixed, (i % 3,): small}
        total += sum(v.numerator % 1009 for v in terms.values())
    return total


def time_reference() -> tuple[float, float]:
    """(start, seconds) of one reference computation, on the perf_counter clock."""
    start = time.perf_counter()
    reference()
    return start, time.perf_counter() - start


def burst() -> list[tuple[float, float]]:
    """Reference timings back to back for BURST_S seconds."""
    out = []
    end = time.perf_counter() + BURST_S
    while time.perf_counter() < end:
        out.append(time_reference())
    return out


def local_reference(references, start: float, end: float) -> float:
    """Median duration of the references started within MARGIN_S of [start, end].

    Falls back to the reference nearest in time when none is that close.
    """
    near = [d for t, d in references if start - MARGIN_S <= t <= end + MARGIN_S]
    if near:
        return statistics.median(near)
    return min(references, key=lambda r: min(abs(r[0] - start), abs(r[0] - end)))[1]


def in_reference_units(latencies, references) -> list[float]:
    """Each (start, seconds) latency divided by its local reference duration."""
    return [d / local_reference(references, t, t + d) for t, d in latencies]
