"""A speed gauge that cancels the host's drift out of timed metrics.

On a shared host the same Python code runs up to twice as fast in one
minute as in the next: the machine, not the program, sets most of the
run-to-run spread.  The gauge times a fixed kernel that belongs to the
benchmark (not to the program under test) between operations.  Its
slowdown tracks the program's closely: over 2 s windows on a 2-core
host, range-query latency varied by an 11.5 % coefficient of variation,
the kernel with it (correlation 0.94), and their ratio by 4.1 %.  So a
run's times are reported scaled to the kernel's reference speed::

    reported = measured * REFERENCE_KERNEL_S / median(kernel samples)

Each operation is scaled by the kernel's speed within a second of it,
and set-up, remounts and rotation by the samples taken around them.  A
change to the program cannot move the kernel, so a real regression
still shows in full.  The wall-clock times and the run's median factor
are on every run's report line.
"""

from __future__ import annotations

import bisect
import time

from statistics import median

#: Roughly the kernel's time on the reference host (2-core x86-64,
#: Python 3.11) in its slower phases, in seconds.  A constant, so it only
#: sets the scale.
REFERENCE_KERNEL_S = 0.0001

#: Host speed is read from kernel samples this close to the interval
#: timed (the host's speed shifts within seconds, not milliseconds) ...
WINDOW_S = 1.0
#: ... and from at least this many of them.
MIN_SAMPLES = 8

_TABLE = tuple((i * 2654435761) & 0xFFFFFFFF for i in range(256))
_ROUNDS = 200
_WARMUP_ROUNDS = 50


def kernel(rounds: int = _ROUNDS) -> int:
    """Table lookups, shifts, xors and dict stores: the interpreter work
    the cipher and index code is made of."""
    table, state, seen = _TABLE, 0x12345678, {}
    for i in range(rounds):
        state = (table[state & 0xFF] ^ (state >> 8) ^ table[(state >> 16) & 0xFF]) & 0xFFFFFFFF
        seen[state & 1023] = i
    return state ^ len(seen)


class SpeedGauge:
    """Samples the kernel between pieces of work; reports how fast the
    host ran around any interval of the run."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        # Warm the kernel's own data first, so the sample measures the host
        # and not how much cache the program's last operation evicted.
        kernel(_WARMUP_ROUNDS)
        start = time.perf_counter()
        kernel()
        self.stamps.append(start)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference kernel time over the run's median: below 1 on a slow
        host."""
        return REFERENCE_KERNEL_S / median(self.samples)

    def factor_near(self, begin: float, end: float) -> float:
        """The factor from samples within :data:`WINDOW_S` of
        ``[begin, end]``, widening until :data:`MIN_SAMPLES` are in."""
        span = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.stamps, begin - span)
            hi = bisect.bisect_right(self.stamps, end + span)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.stamps):
                return REFERENCE_KERNEL_S / median(self.samples[lo:hi])
            span *= 2


def at_reference_speed(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Scale every time in ``metrics`` (``*_s``, ``*_ms``, ``*_ms_per_op``)
    to the kernel's reference speed; leave counts and ratios alone."""
    return {
        name: value * factor if name.endswith(("_s", "_ms", "_ms_per_op")) else value
        for name, value in metrics.items()
    }
