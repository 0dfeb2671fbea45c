"""A fixed pure-Python kernel that measures how fast the machine runs now.

Machines shared with other tenants change speed in two ways: from one
second to the next, as neighbours come and go, and over minutes, as the
speed of the undisturbed machine itself drifts.  The benchmark handles
the first by reporting each call's fastest replay, and the second with
this kernel: it times the kernel between passes, applies the same
fastest-replay estimator to those samples (:meth:`Calibrator.fast_state`),
and scales each host time by ``REFERENCE_SECONDS / fast_state``.  The
result is the time the run would have taken on a machine whose
undisturbed kernel time is ``REFERENCE_SECONDS``.  The kernel imports
nothing from the program, so a change to the program never moves it.

Its mix follows the program's profile: integer twiddling over a list
(the pure-Python generator), fixed-size record packing and unpacking
(the codec and block files), and method calls on small objects with
dict lookups (the serve and core layers).  It keeps no data between
samples, so it adds nothing to the run's peak memory.
"""

from __future__ import annotations

import statistics
import struct
from time import perf_counter

#: Undisturbed kernel seconds on the machine the benchmark was defined on
#: (a 2-vCPU Linux VM, Python 3.11); calibrated values are in its seconds.
REFERENCE_SECONDS = 0.02

_RECORD = struct.Struct("<q24x")


class _Counter:
    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def add(self, key: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1


def _twiddle(state: list[int], rounds: int) -> int:
    out = 0
    n = len(state)
    for _ in range(rounds):
        for i in range(n):
            y = (state[i] & 0x80000000) | (state[(i + 1) % n] & 0x7FFFFFFF)
            value = state[(i + 7) % n] ^ (y >> 1)
            if y & 1:
                value ^= 0x9908B0DF
            state[i] = value
            y = value ^ (value >> 11)
            y ^= (y << 7) & 0x9D2C5680
            out ^= y >> 18
    return out


def _records(count: int) -> int:
    block = b"".join(_RECORD.pack(i * 7919) for i in range(count))
    total = 0
    for offset in range(0, len(block), _RECORD.size):
        total += _RECORD.unpack_from(block, offset)[0]
    return total


def _objects(count: int) -> int:
    counter = _Counter()
    for i in range(count):
        counter.add(i % 97)
    return sorted(counter.counts.items())[0][1]


class Calibrator:
    """Times the kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def kernel() -> int:
        state = list(range(1, 225))
        return _twiddle(state, 70) ^ _records(18_000) ^ _objects(36_000)

    def sample(self) -> None:
        """Time one kernel run and keep it."""
        start = perf_counter()
        self.kernel()
        self.samples.append(perf_counter() - start)

    def fast_state(self, replays: int) -> float:
        """The kernel's time under the estimator the program's calls get.

        Each call's reported time is the fastest of ``replays`` replays
        spread over the run, and metrics are percentiles of those.  Here
        the samples, taken in time order, are split into tuples of
        ``replays`` samples as far apart as the replays are; the result
        is the median over tuples of each tuple's fastest sample.
        """
        stride = max(1, len(self.samples) // replays)
        return statistics.median(
            min(self.samples[start::stride]) for start in range(stride)
        )
