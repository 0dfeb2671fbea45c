"""Mersenne Twister (MT19937) on CPython's C generator.

The paper's Nomem Refresh algorithm (Sec. 4.3) relies on two properties of a
pseudo-random number generator:

1. the state transition is deterministic, so a stored state replays the
   exact same variate sequence, and
2. the state is small ("1 to 1000 words for common generators", citing
   Matsumoto & Nishimura's MT19937 [14]).

The seeding procedures (``init_genrand`` and ``init_by_array`` of the
reference C code) and the state snapshot/restore mechanics the algorithm
depends on are explicit here; the twist, the tempering and the draws run in
CPython's C Mersenne Twister (:class:`random.Random`), loaded with the
computed key through its ``setstate``.  A pure-Python MT19937 lives in the
tests as the oracle: ``tests/rng/test_mt19937_oracle.py`` requires identical
words, doubles, ``randrange`` results and snapshots from both, and
``tests/rng/test_mt19937.py`` checks the reference test vectors.

The state is 624 32-bit words plus an index -- about 2.5 KiB, which is the
"negligible" memory footprint the paper attributes to Nomem Refresh.
"""

from __future__ import annotations

import random as _stdlib_random
from dataclasses import dataclass

__all__ = ["MT19937", "MTState"]

# MT19937 constants from Matsumoto & Nishimura (1998).
_N = 624
_MASK32 = 0xFFFFFFFF

# random.Random.getstate()/setstate() format version.
_STATE_VERSION = 3


def _init_genrand(seed: int) -> list[int]:
    """The key ``init_genrand`` of the reference C code derives from ``seed``."""
    mt = [seed & _MASK32]
    for i in range(1, _N):
        prev = mt[i - 1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & _MASK32)
    return mt


@dataclass(frozen=True)
class MTState:
    """Immutable snapshot of an :class:`MT19937` generator.

    Snapshots are value objects: capturing one never aliases the live
    generator, so a later :meth:`MT19937.setstate` restores exactly the
    captured position in the stream.
    """

    key: tuple[int, ...]
    position: int

    def __post_init__(self) -> None:
        if len(self.key) != _N:
            raise ValueError(f"MT19937 state must have {_N} words, got {len(self.key)}")
        # The C generator would silently keep only the low 32 bits.
        if min(self.key) < 0 or max(self.key) > _MASK32:
            raise ValueError("MT19937 state words must lie in [0, 2**32)")
        if not 0 <= self.position <= _N:
            raise ValueError(f"state position out of range: {self.position}")


class MT19937:
    """32-bit Mersenne Twister with explicit state snapshot/restore.

    ``random()`` returns a uniform float in [0, 1) with 53-bit resolution,
    built from two words exactly as the reference ``genrand_res53``.  It
    is the C generator's own method, bound per instance, so a draw enters
    no Python frame.

    >>> gen = MT19937(seed=5489)
    >>> state = gen.getstate()
    >>> first = [gen.next_uint32() for _ in range(3)]
    >>> gen.setstate(state)
    >>> first == [gen.next_uint32() for _ in range(3)]
    True
    """

    __slots__ = ("_core", "random")

    def __init__(self, seed: int = 5489) -> None:
        # Seeded with a constant only to skip the OS entropy read;
        # seed() below overwrites every word.
        self._core = _stdlib_random.Random(0)
        self.random = self._core.random
        self.seed(seed)

    @classmethod
    def from_state(cls, state: MTState) -> "MT19937":
        """A new generator positioned at ``state``."""
        gen = cls()
        gen.setstate(state)
        return gen

    def __reduce__(self):
        # Copies and pickles rebuild from the state: the bound C method in
        # ``random`` would otherwise keep drawing from the original stream.
        return (type(self).from_state, (self.getstate(),))

    def seed(self, seed: int) -> None:
        """Reinitialise the generator from a non-negative integer seed."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._load(_init_genrand(seed))

    def seed_by_array(self, init_key: list[int]) -> None:
        """Seed from an array of integers (``init_by_array`` in the C code).

        This is the seeding procedure the reference implementation uses for
        its published test vectors.
        """
        if not init_key:
            raise ValueError("init_key must be non-empty")
        mt = _init_genrand(19650218)
        i, j = 1, 0
        k = max(_N, len(init_key))
        for _ in range(k):
            mt[i] = (
                (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525)) + init_key[j] + j
            ) & _MASK32
            i += 1
            j += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
            if j >= len(init_key):
                j = 0
        for _ in range(_N - 1):
            mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941)) - i) & _MASK32
            i += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
        mt[0] = 0x80000000
        self._load(mt)

    def _load(self, key: list[int]) -> None:
        """Install a freshly seeded key; the first draw twists it."""
        self._core.setstate((_STATE_VERSION, (*key, _N), None))

    # -- state management (the Nomem Refresh prerequisite) ----------------

    def getstate(self) -> MTState:
        """Capture the full generator state as an immutable snapshot."""
        words = self._core.getstate()[1]
        return MTState(key=words[:_N], position=words[_N])

    def setstate(self, state: MTState) -> None:
        """Restore a snapshot captured by :meth:`getstate`."""
        if not isinstance(state, MTState):
            raise TypeError(f"expected MTState, got {type(state).__name__}")
        self._core.setstate((_STATE_VERSION, (*state.key, state.position), None))

    # -- draws -------------------------------------------------------------

    def next_uint32(self) -> int:
        """Return the next raw 32-bit output word."""
        return self._core.getrandbits(32)

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)`` without modulo bias.

        Rejection sampling on the top ``(n-1).bit_length()`` bits of the
        raw stream: one word per try up to 32 bits, two words (high word
        first) up to 64.
        """
        if n <= 0:
            raise ValueError("randrange() upper bound must be positive")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        getrandbits = self._core.getrandbits
        if bits <= 32:
            while True:
                value = getrandbits(bits)
                if value < n:
                    return value
        if bits > 64:
            raise ValueError("randrange() bound exceeds 64 bits")
        # Not getrandbits(bits): for more than 32 bits it fills the low
        # word first.
        while True:
            value = ((getrandbits(32) << 32) | getrandbits(32)) >> (64 - bits)
            if value < n:
                return value

    def jump_discard(self, count: int) -> None:
        """Advance the stream by discarding ``count`` raw outputs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        getrandbits = self._core.getrandbits
        for _ in range(count):
            getrandbits(32)
