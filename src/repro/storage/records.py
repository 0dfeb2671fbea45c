"""Fixed-size record codecs.

The paper assumes 32-byte elements, 128 to a 4 096-byte block.  The storage
layer moves opaque fixed-size byte strings; codecs translate between domain
values and those byte strings so tests and examples can round-trip real
payloads through the simulated (or real) disk.

Every codec converts one record (``encode``/``decode``) and a block's worth
of records at once (``encode_block``/``decode_block``); the sample and log
files use only the block methods when they scan, load or append whole
blocks.  The integer codec packs or unpacks a whole block in one precompiled
:class:`struct.Struct` call, the weighted and timestamped codecs iterate one
record struct over the block in C, and the others loop over the records
inside the codec.
"""

from __future__ import annotations

import functools
import struct
from itertools import starmap
from typing import Generic, Protocol, Sequence, TypeVar

__all__ = [
    "RecordCodec",
    "FixedRecordCodec",
    "IntRecordCodec",
    "BytesRecordCodec",
    "WeightedRecordCodec",
    "TimestampedRecordCodec",
]

T = TypeVar("T")


class RecordCodec(Protocol[T]):
    """Encodes values of some type into fixed-size byte records."""

    @property
    def record_size(self) -> int:  # pragma: no cover - protocol
        ...

    def encode(self, value: T) -> bytes:  # pragma: no cover - protocol
        ...

    def decode(self, record: bytes) -> T:  # pragma: no cover - protocol
        ...

    def encode_block(self, values: Sequence[T]) -> bytes:  # pragma: no cover
        """The records of ``values``, back to back (no block padding)."""
        ...

    def decode_block(self, data: bytes, count: int) -> list[T]:  # pragma: no cover
        """The first ``count`` records of ``data``; ``ValueError`` if short."""
        ...


class FixedRecordCodec(Generic[T]):
    """Shared base: the record size, length checks and looping block methods.

    Subclasses supply ``encode`` and ``decode`` for one record; the block
    methods here call them once per record.
    """

    def __init__(self, record_size: int, minimum: int, holds: str) -> None:
        if record_size < minimum:
            raise ValueError(f"record_size must hold {holds}")
        self._record_size = record_size

    @property
    def record_size(self) -> int:
        return self._record_size

    def encode_block(self, values: Sequence[T]) -> bytes:
        return b"".join(map(self.encode, values))

    def decode_block(self, data: bytes, count: int) -> list[T]:
        self._check_block(data, count)
        size = self._record_size
        decode = self.decode
        return [decode(data[at : at + size]) for at in range(0, count * size, size)]

    def _check_record(self, record: bytes) -> None:
        if len(record) != self._record_size:
            raise ValueError(
                f"record has {len(record)} bytes, expected {self._record_size}"
            )

    def _check_block(self, data: bytes, count: int) -> None:
        if count < 0:
            raise ValueError(f"record count must be non-negative, got {count}")
        if len(data) < count * self._record_size:
            raise ValueError(
                f"block has {len(data)} bytes, {count} records need "
                f"{count * self._record_size}"
            )


@functools.lru_cache(maxsize=None)
def _block_struct(layout: str, count: int) -> struct.Struct:
    """``count`` back-to-back records of ``layout``, shared by all instances.

    Bounded: one entry per record count up to a block's worth, per record
    size (about 0.3 MB for 128 records of 32 bytes).
    """
    return struct.Struct("<" + layout * count)


class _StructRecordCodec(FixedRecordCodec[T]):
    """A record is the struct fields ``_FIELDS`` followed by zero padding."""

    _FIELDS: str

    def __init__(self, record_size: int, holds: str) -> None:
        fields = struct.calcsize("<" + self._FIELDS)
        super().__init__(record_size, fields, holds)
        self._layout = f"{self._FIELDS}{record_size - fields}x"
        self._record = struct.Struct("<" + self._layout)

    def _unpack(self, record: bytes) -> tuple:
        self._check_record(record)
        return self._record.unpack(record)


class IntRecordCodec(_StructRecordCodec[int]):
    """Stores a signed 64-bit integer padded to the element size.

    This is the codec the tests and examples use: stream elements and
    dataset keys are integers, padded to the paper's 32-byte element size.
    """

    _FIELDS = "q"

    def __init__(self, record_size: int = 32) -> None:
        super().__init__(record_size, "at least an 8-byte integer")

    def encode(self, value: int) -> bytes:
        return self._record.pack(value)

    def decode(self, record: bytes) -> int:
        return self._unpack(record)[0]

    def encode_block(self, values: Sequence[int]) -> bytes:
        return _block_struct(self._layout, len(values)).pack(*values)

    def decode_block(self, data: bytes, count: int) -> list[int]:
        self._check_block(data, count)
        return list(_block_struct(self._layout, count).unpack_from(data))


class _PairRecordCodec(_StructRecordCodec[tuple]):
    """A record is a two-field tuple (weighted and window rows)."""

    def encode(self, value: tuple) -> bytes:
        return self._record.pack(*value)

    def decode(self, record: bytes) -> tuple:
        return self._unpack(record)

    # Per-record C iteration: as fast as one whole-block struct for two
    # fields, and needs no struct per record count.
    def encode_block(self, values: Sequence[tuple]) -> bytes:
        return b"".join(starmap(self._record.pack, values))

    def decode_block(self, data: bytes, count: int) -> list[tuple]:
        self._check_block(data, count)
        return list(self._record.iter_unpack(data[: count * self._record_size]))


class BytesRecordCodec(FixedRecordCodec[bytes]):
    """Pass-through codec for byte payloads, with zero padding.

    Encoded records embed the payload length so trailing padding is
    stripped exactly on decode.
    """

    def __init__(self, record_size: int = 32) -> None:
        super().__init__(record_size, 3, "a 2-byte length prefix and a payload")
        self._max_payload = record_size - 2

    def encode(self, value: bytes) -> bytes:
        if len(value) > self._max_payload:
            raise ValueError(
                f"payload of {len(value)} bytes exceeds capacity {self._max_payload}"
            )
        return struct.pack("<H", len(value)) + value.ljust(self._max_payload, b"\x00")

    def decode(self, record: bytes) -> bytes:
        self._check_record(record)
        (length,) = struct.unpack_from("<H", record)
        if length > self._max_payload:
            raise ValueError("corrupt record: length prefix exceeds capacity")
        return record[2 : 2 + length]


class WeightedRecordCodec(_PairRecordCodec):
    """Stores a weighted-reservoir row: ``(value, key)``.

    The value is a signed 64-bit integer and the key its A-ES exponential
    key, an IEEE-754 double serialised bit-exactly (``<d``) -- checkpoint
    and replica round-trips must reproduce acceptance decisions, so the
    key cannot be truncated or re-derived.
    """

    _FIELDS = "qd"

    def __init__(self, record_size: int = 32) -> None:
        super().__init__(record_size, "an 8-byte value + 8-byte key")


class TimestampedRecordCodec(_PairRecordCodec):
    """Stores a sliding-window row: ``(value, sequence)``.

    The sequence is the row's arrival index in the stream (a signed
    64-bit integer); the window kind derives both the row's slot and its
    expiry from it, so it is part of the durable record.
    """

    _FIELDS = "qq"

    def __init__(self, record_size: int = 32) -> None:
        super().__init__(record_size, "an 8-byte value + 8-byte sequence")
