"""Both varint layouts: frozen vectors, class boundaries, round trips.

The oracle codec in tests/packets.py writes and reads one varint at a
time. The vector and boundary tests also run the program's codec: the
packer wire._pack with one field, and the readers wire.take_forward and
wire.take_reversed."""

import random
from typing import NamedTuple

import pytest

import packets
from packets import TruncatedVarInt
from revquic import wire
from revquic.errors import EncodingOverflow

# value -> forward encoding, computed by hand from the layout rule
# (tag << (8n-2)) | value, big-endian
FORWARD_VECTORS = [
    (0, bytes([0x00])),
    (37, bytes([0x25])),
    (63, bytes([0x3F])),
    (64, bytes([0x40, 0x40])),
    (15293, bytes([0x7B, 0xBD])),
    (16383, bytes([0x7F, 0xFF])),
    (16384, bytes([0x80, 0x00, 0x40, 0x00])),
    (494878333, bytes([0x9D, 0x7F, 0x3E, 0x7D])),
    ((1 << 30) - 1, bytes([0xBF, 0xFF, 0xFF, 0xFF])),
    (1 << 30, bytes([0xC0, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00])),
    (151288809941952652, bytes([0xC2, 0x19, 0x7C, 0x5E, 0xFF, 0x14, 0xE8, 0x8C])),
    ((1 << 62) - 1, bytes([0xFF] * 8)),
]

# value -> reversed encoding, (value << 2) | tag, big-endian, tag in the
# low two bits of the final byte
REVERSED_VECTORS = [
    (0, bytes([0x00])),
    (37, bytes([0x94])),
    (63, bytes([0xFC])),
    (64, bytes([0x01, 0x01])),
    (15293, bytes([0xEE, 0xF5])),
    (16383, bytes([0xFF, 0xFD])),
    (16384, bytes([0x00, 0x01, 0x00, 0x02])),
    (494878333, bytes([0x75, 0xFC, 0xF9, 0xF6])),
    ((1 << 30) - 1, bytes([0xFF, 0xFF, 0xFF, 0xFE])),
    (1 << 30, bytes([0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03])),
    ((1 << 62) - 1, bytes([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF])),
]

# value -> encoded length, identical for both codecs
BOUNDARY_LENGTHS = [
    ((1 << 6) - 1, 1),
    (1 << 6, 2),
    ((1 << 14) - 1, 2),
    (1 << 14, 4),
    ((1 << 30) - 1, 4),
    (1 << 30, 8),
    ((1 << 62) - 1, 8),
]


class Codec(NamedTuple):
    """One varint each way in both layouts; the decoders read a buffer
    that holds exactly one varint and return (value, length)."""

    encode_forward: object
    decode_forward: object
    encode_reversed: object
    decode_reversed: object


def _take_reversed(buf):
    value, start = wire.take_reversed(buf, 0, len(buf), 1)
    return value, len(buf) - start


ORACLE = Codec(
    packets.encode_forward,
    packets.decode_forward,
    packets.encode_reversed,
    lambda buf: packets.decode_reversed_backward(buf, len(buf)),
)
# the program's codec: _pack writes a type byte (here 0) before the
# field forward and after it reversed
LIVE = Codec(
    lambda v: wire._pack(0, (v,), False)[1:],
    lambda buf: tuple(wire.take_forward(buf, 0, len(buf), 1)),
    lambda v: wire._pack(0, (v,), True)[:-1],
    _take_reversed,
)


def both_codecs(vectors):
    """Each (value, expected) pair once per codec: the oracle's ids are
    pytest's own for the pair, the program codec's end in -live."""
    params = []
    for value, want in vectors:
        # pytest escapes an id's non-printable characters as it escapes bytes
        plain = f"{value}-{want.decode('latin-1') if isinstance(want, bytes) else want}"
        params.append(pytest.param(value, want, ORACLE, id=plain))
        params.append(pytest.param(value, want, LIVE, id=f"{plain}-live"))
    return params


class TestForward:
    @pytest.mark.parametrize("value,encoded,codec", both_codecs(FORWARD_VECTORS))
    def test_encode_vectors(self, value, encoded, codec):
        assert codec.encode_forward(value) == encoded

    @pytest.mark.parametrize("value,encoded,codec", both_codecs(FORWARD_VECTORS))
    def test_decode_vectors(self, value, encoded, codec):
        assert codec.decode_forward(encoded) == (value, len(encoded))

    def test_decode_at_position(self):
        buf = b"\xaa\xbb" + packets.encode_forward(15293) + b"\xcc"
        assert packets.decode_forward(buf, 2) == (15293, 2)

    def test_truncated(self):
        with pytest.raises(TruncatedVarInt):
            packets.decode_forward(b"\x40")  # class 2, one byte present
        with pytest.raises(TruncatedVarInt):
            packets.decode_forward(b"")
        with pytest.raises(TruncatedVarInt):
            packets.decode_forward(b"\x25", 1)  # pos at end

    def test_overflow(self):
        with pytest.raises(EncodingOverflow):
            packets.encode_forward(1 << 62)
        with pytest.raises(EncodingOverflow):
            packets.encode_forward(-1)

    def test_forced_length(self):
        assert packets.encode_forward(37, length=2) == bytes([0x40, 0x25])
        assert packets.decode_forward(packets.encode_forward(37, length=8)) == (37, 8)
        with pytest.raises(EncodingOverflow):
            packets.encode_forward(15293, length=1)


class TestReversed:
    @pytest.mark.parametrize("value,encoded,codec", both_codecs(REVERSED_VECTORS))
    def test_encode_vectors(self, value, encoded, codec):
        assert codec.encode_reversed(value) == encoded

    @pytest.mark.parametrize("value,encoded,codec", both_codecs(REVERSED_VECTORS))
    def test_decode_vectors(self, value, encoded, codec):
        assert codec.decode_reversed(encoded) == (value, len(encoded))

    def test_tag_sits_in_final_byte(self):
        for value, expect_len in BOUNDARY_LENGTHS:
            enc = packets.encode_reversed(value)
            tag = {1: 0, 2: 1, 4: 2, 8: 3}[expect_len]
            assert enc[-1] & 0x03 == tag

    def test_decode_mid_buffer(self):
        # backward cursor semantics: last byte of the field at end-1
        buf = packets.encode_reversed(15293) + b"\x99\x99"
        assert packets.decode_reversed_backward(buf, 2) == (15293, 2)

    def test_truncated(self):
        with pytest.raises(TruncatedVarInt):
            packets.decode_reversed_backward(b"\xf5", 1)  # 2-byte class
        with pytest.raises(TruncatedVarInt):
            packets.decode_reversed_backward(b"\x94", 0)  # cursor at zero
        with pytest.raises(TruncatedVarInt):
            packets.decode_reversed_backward(b"\x94", 2)  # cursor past end

    def test_overflow(self):
        with pytest.raises(EncodingOverflow):
            packets.encode_reversed(1 << 62)
        with pytest.raises(EncodingOverflow):
            packets.encode_reversed(-5)

    def test_forced_length(self):
        assert packets.encode_reversed(37, length=2) == bytes([0x00, 0x95])
        enc = packets.encode_reversed(37, length=8)
        assert packets.decode_reversed_backward(enc, 8) == (37, 8)
        with pytest.raises(EncodingOverflow):
            packets.encode_reversed(15293, length=1)


class TestBoundaries:
    @pytest.mark.parametrize("value,length,codec", both_codecs(BOUNDARY_LENGTHS))
    def test_length_classes(self, value, length, codec):
        assert len(codec.encode_forward(value)) == length
        assert len(codec.encode_reversed(value)) == length
        assert wire.forward_length(value) == length
        assert packets.reversed_length(value) == length


class TestRoundTrip:
    def test_both_codecs_random_sweep(self):
        rng = random.Random(0x5EED)
        values = [0, 1, (1 << 62) - 1]
        for bits in range(1, 62):
            values.append(rng.getrandbits(bits))
        for v in values:
            fwd = packets.encode_forward(v)
            assert packets.decode_forward(fwd) == (v, len(fwd))
            rev = packets.encode_reversed(v)
            assert packets.decode_reversed_backward(rev, len(rev)) == (v, len(rev))

    def test_same_length_class_both_codecs(self):
        rng = random.Random(7)
        for _ in range(2000):
            v = rng.getrandbits(rng.randrange(1, 63))
            if v >= 1 << 62:
                v >>= 1
            assert len(packets.encode_forward(v)) == len(packets.encode_reversed(v))

    def test_backward_walk_over_packed_fields(self):
        # serialize a field list, then parse it right to left
        rng = random.Random(99)
        values = [rng.getrandbits(rng.randrange(1, 62)) for _ in range(64)]
        packed = b"".join(packets.encode_reversed(v) for v in values)
        cur = len(packed)
        seen = []
        while cur > 0:
            v, n = packets.decode_reversed_backward(packed, cur)
            seen.append(v)
            cur -= n
        assert cur == 0
        assert seen == values[::-1]
