"""Pure-Python MT19937: the test oracle for the C-backed generator.

This is the word-at-a-time Mersenne Twister (Matsumoto & Nishimura,
1998) the library computed with before it moved onto CPython's C
generator.  It shares no code with :mod:`repro.rng.mt19937` except the
:class:`~repro.rng.mt19937.MTState` value type, so the oracle tests in
``test_mt19937_oracle.py`` compare two independent implementations of
the same stream: seeding, raw words, genrand_res53 doubles, the
``randrange`` rejection loop and state snapshots.
"""

from __future__ import annotations

from repro.rng.mt19937 import MTState

__all__ = ["PureMT19937"]

_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000
_LOWER_MASK = 0x7FFFFFFF
_MASK32 = 0xFFFFFFFF
_INV_2_53 = 1.0 / 9007199254740992.0


class PureMT19937:
    """32-bit Mersenne Twister, one Python word at a time."""

    __slots__ = ("_mt", "_index")

    def __init__(self, seed: int = 5489) -> None:
        self._mt = [0] * _N
        self._index = _N
        self.seed(seed)

    def seed(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        seed &= _MASK32
        mt = self._mt
        mt[0] = seed
        for i in range(1, _N):
            prev = mt[i - 1]
            mt[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & _MASK32
        self._index = _N

    def seed_by_array(self, init_key: list[int]) -> None:
        if not init_key:
            raise ValueError("init_key must be non-empty")
        self.seed(19650218)
        mt = self._mt
        i, j = 1, 0
        for _ in range(max(_N, len(init_key))):
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
        self._index = _N

    def getstate(self) -> MTState:
        return MTState(key=tuple(self._mt), position=self._index)

    def setstate(self, state: MTState) -> None:
        self._mt = list(state.key)
        self._index = state.position

    def _generate_block(self) -> None:
        mt = self._mt
        for i in range(_N):
            y = (mt[i] & _UPPER_MASK) | (mt[(i + 1) % _N] & _LOWER_MASK)
            value = mt[(i + _M) % _N] ^ (y >> 1)
            if y & 1:
                value ^= _MATRIX_A
            mt[i] = value
        self._index = 0

    def next_uint32(self) -> int:
        if self._index >= _N:
            self._generate_block()
        y = self._mt[self._index]
        self._index += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        return y

    def random(self) -> float:
        a = self.next_uint32() >> 5
        b = self.next_uint32() >> 6
        return (a * 67108864.0 + b) * _INV_2_53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange() upper bound must be positive")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        if bits <= 32:
            while True:
                value = self.next_uint32() >> (32 - bits)
                if value < n:
                    return value
        if bits > 64:
            raise ValueError("randrange() bound exceeds 64 bits")
        while True:
            value = ((self.next_uint32() << 32) | self.next_uint32()) >> (64 - bits)
            if value < n:
                return value

    def jump_discard(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.next_uint32()
