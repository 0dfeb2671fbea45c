"""Record codecs: fixed-size encoding round-trips, per record and per block."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dbms.join_synopsis import JoinedRow, JoinedRowCodec
from repro.dbms.sample_view import RowRecordCodec
from repro.dbms.staging import Change, ChangeKind, ChangeRecordCodec
from repro.dbms.table import Row
from repro.storage.records import (
    BytesRecordCodec,
    IntRecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)


class TestIntRecordCodec:
    def test_roundtrip(self):
        codec = IntRecordCodec(32)
        for value in (0, 1, -1, 2**62, -(2**62), 123456789):
            assert codec.decode(codec.encode(value)) == value

    def test_record_size(self):
        assert IntRecordCodec(32).record_size == 32
        assert len(IntRecordCodec(32).encode(7)) == 32
        assert len(IntRecordCodec(8).encode(7)) == 8

    def test_rejects_undersized_records(self):
        with pytest.raises(ValueError):
            IntRecordCodec(4)

    def test_decode_validates_length(self):
        codec = IntRecordCodec(32)
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 31)


class TestBytesRecordCodec:
    def test_roundtrip(self):
        codec = BytesRecordCodec(32)
        for payload in (b"", b"a", b"hello world", b"\x00\x01\x02", b"x" * 30):
            assert codec.decode(codec.encode(payload)) == payload

    def test_payload_with_trailing_zeroes_preserved(self):
        codec = BytesRecordCodec(32)
        payload = b"abc\x00\x00"
        assert codec.decode(codec.encode(payload)) == payload

    def test_rejects_oversized_payload(self):
        codec = BytesRecordCodec(16)
        with pytest.raises(ValueError):
            codec.encode(b"x" * 15)

    def test_rejects_undersized_records(self):
        with pytest.raises(ValueError):
            BytesRecordCodec(2)

    def test_decode_validates_length(self):
        codec = BytesRecordCodec(32)
        with pytest.raises(ValueError):
            codec.decode(b"\x00" * 16)

    def test_decode_detects_corrupt_length_prefix(self):
        codec = BytesRecordCodec(8)
        record = b"\xff\xff" + b"\x00" * 6  # length 65535 > capacity
        with pytest.raises(ValueError):
            codec.decode(record)


INT64 = st.integers(-(2**63), 2**63 - 1)

#: every codec the storage files are used with, and a strategy for its values
CODECS = [
    (IntRecordCodec(), INT64),
    (BytesRecordCodec(), st.binary(max_size=30)),
    (WeightedRecordCodec(), st.tuples(INT64, st.floats(allow_nan=False))),
    (TimestampedRecordCodec(), st.tuples(INT64, INT64)),
    (RowRecordCodec(), st.builds(Row, INT64, INT64)),
    (
        ChangeRecordCodec(),
        st.builds(Change, st.sampled_from(ChangeKind), st.builds(Row, INT64, INT64)),
    ),
    (JoinedRowCodec(), st.builds(JoinedRow, INT64, INT64, INT64)),
]
BLOCK_SIZE = 4096


@pytest.mark.parametrize(
    "codec,values", CODECS, ids=[type(codec).__name__ for codec, _ in CODECS]
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_block_methods_equal_record_methods(codec, values, data):
    """For every count from 0 to a full block, the block methods give what
    one encode/decode per record gives."""
    size = codec.record_size
    per_block = BLOCK_SIZE // size
    block_values = data.draw(st.lists(values, min_size=per_block, max_size=per_block))
    block = b"".join(codec.encode(value) for value in block_values)
    for count in range(per_block + 1):
        assert codec.encode_block(block_values[:count]) == block[: count * size]
        expected = [codec.decode(block[i * size : (i + 1) * size]) for i in range(count)]
        assert codec.decode_block(block, count) == expected
        if count:
            with pytest.raises(ValueError):
                codec.decode_block(block[: count * size - 1], count)
    with pytest.raises(ValueError):
        codec.decode_block(block, -1)
