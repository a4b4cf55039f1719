"""Frame serialization round trips, forward and reversed."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revquic import wire
from revquic.errors import (
    BufferTooSmall,
    EncodingOverflow,
    FrameOrderViolation,
    MalformedFrame,
    UnknownFrameType,
)
from revquic.mode import WireMode
from revquic.varint import VARINT_MAX
from revquic.wire import (
    AckFrame,
    ConnectionCloseFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)


def random_control(rng):
    kind = rng.randint(0, 3)
    if kind == 0:
        return PingFrame()
    if kind == 1:
        largest = rng.getrandbits(rng.choice((8, 30, 61)))
        ranges = [(rng.getrandbits(8), 1 + rng.getrandbits(8)) for _ in range(rng.randint(1, 4))]
        return AckFrame(largest_acked=largest, ack_delay=rng.getrandbits(10), ranges=ranges)
    if kind == 2:
        return MaxStreamDataFrame(stream_id=rng.getrandbits(29), maximum=rng.getrandbits(50))
    return ConnectionCloseFrame(error_code=rng.getrandbits(16), reason=rng.randbytes(rng.randint(0, 20)))


def random_stream(rng, explicit):
    return StreamFrame(
        stream_id=rng.getrandbits(rng.choice((4, 12, 29))),
        offset=rng.getrandbits(rng.choice((6, 20, 40))),
        data=rng.randbytes(rng.randint(0, 40)),
        fin=rng.random() < 0.2,
        explicit_len=explicit,
    )


class TestGoldenVectors:
    def test_reversed_stream_owner(self):
        out = bytearray(16)
        f = StreamFrame(stream_id=1, offset=0, data=b"AB", fin=False, explicit_len=False)
        n = wire.serialize_reversed([f], out)
        assert bytes(out[:n]) == bytes([0x41, 0x42, 0x00, 0x04, 0x0C])

    def test_stream_fields_both_layouts(self):
        # stream id 64 and offset 2**14 need two- and four-byte varints
        fwd = wire.stream_fields(64, 1 << 14, 3, True, True, False)
        assert fwd == bytes.fromhex("0f" "4040" "80004000" "03")
        rev = wire.stream_fields(64, 1 << 14, 3, True, True, True)
        assert rev == bytes.fromhex("0c" "00010002" "0101" "0f")
        for bad in (-1, 1 << 62):
            for reverso in (False, True):
                with pytest.raises(EncodingOverflow):
                    wire.stream_fields(1, bad, 0, False, False, reverso)

    def test_ping_identical_in_both_modes(self):
        out = bytearray(4)
        assert wire.serialize_forward([PingFrame()], out) == 1
        assert out[0] == 0x01
        assert wire.serialize_reversed([PingFrame()], out) == 1
        assert out[0] == 0x01

    def test_padding_run(self):
        out = bytearray(8)
        n = wire.serialize_forward([PaddingFrame()] * 3, out)
        assert bytes(out[:n]) == b"\x00\x00\x00"

    def test_empty_plaintext(self):
        assert wire.parse_forward(b"") == []
        assert wire.parse_reversed(b"") == []

    def test_all_zero_plaintext(self):
        for n in (1, 7, 64):
            frames = wire.parse_reversed(bytes(n))
            assert len(frames) == n
            assert all(isinstance(f, PaddingFrame) for f in frames)
            assert wire.parse_forward(bytes(n)) == frames

    def test_trailing_padding_parses_backward(self):
        out = bytearray(64)
        f = StreamFrame(stream_id=1, offset=0, data=b"AB", explicit_len=False)
        n = wire.serialize_reversed([f, PingFrame()], out)
        plaintext = bytes(out[:n]) + b"\x00\x00\x00"
        frames = wire.parse_reversed(plaintext)
        kinds = [type(fr).__name__ for fr in frames]
        assert kinds == ["PaddingFrame"] * 3 + ["PingFrame", "StreamFrame"]
        assert frames[-1].data == b"AB"


class TestFrameWireSize:
    def test_point_sizes(self):
        assert wire.frame_wire_size(PingFrame(), WireMode.BASELINE) == 1
        assert wire.frame_wire_size(PaddingFrame(), WireMode.REVERSO) == 1
        f = StreamFrame(stream_id=1, offset=0, data=b"AB", explicit_len=False)
        assert wire.frame_wire_size(f, WireMode.REVERSO) == 5

    def test_agrees_with_serializer(self):
        rng = random.Random(11)
        out = bytearray(2048)
        for _ in range(500):
            frames = [random_control(rng) for _ in range(rng.randint(1, 5))]
            frames += [random_stream(rng, True) for _ in range(rng.randint(0, 2))]
            rng.shuffle(frames)
            expect = sum(wire.frame_wire_size(f, WireMode.BASELINE) for f in frames)
            assert wire.serialize_forward(frames, out) == expect
            expect = sum(wire.frame_wire_size(f, WireMode.REVERSO) for f in frames)
            assert wire.serialize_reversed(frames, out) == expect


class TestRoundTrips:
    def test_forward_property(self):
        rng = random.Random(0xF0)
        out = bytearray(2048)
        for _ in range(10_000):
            frames = [random_control(rng) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(rng.randint(0, len(frames)), random_stream(rng, True))
            if rng.random() < 0.5:
                frames.append(random_stream(rng, False))  # remainder owner is last
            n = wire.serialize_forward(frames, out)
            assert wire.parse_forward(bytes(out[:n])) == frames

    def test_reversed_property(self):
        rng = random.Random(0xF1)
        out = bytearray(2048)
        for _ in range(10_000):
            frames = []
            owner = rng.random() < 0.5
            if owner:
                frames.append(random_stream(rng, False))  # remainder owner is first
            frames += [random_control(rng) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(
                    rng.randint(1 if owner else 0, len(frames)), random_stream(rng, True)
                )
            n = wire.serialize_reversed(frames, out)
            got = wire.parse_reversed(bytes(out[:n]))
            # backward walk yields list order reversed, owner frame last
            if owner:
                assert got == list(reversed(frames[1:])) + [frames[0]]
            else:
                assert got == list(reversed(frames))

    def test_differential_modes_agree(self):
        rng = random.Random(0xF2)
        out = bytearray(2048)
        for _ in range(2_000):
            frames = [random_control(rng) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(rng.randint(0, len(frames)), random_stream(rng, True))
            n = wire.serialize_forward(frames, out)
            fwd = wire.parse_forward(bytes(out[:n]))
            n = wire.serialize_reversed(frames, out)
            rev = wire.parse_reversed(bytes(out[:n]))
            assert fwd == frames
            assert list(reversed(rev)) == frames

    def test_owner_data_lands_at_position_zero(self):
        out = bytearray(256)
        f = StreamFrame(stream_id=7, offset=1200, data=b"x" * 100, explicit_len=False)
        n = wire.serialize_reversed([f, PingFrame(), AckFrame(largest_acked=3)], out)
        assert bytes(out[:100]) == f.data
        mv = memoryview(bytes(out[:n]))
        got = wire.parse_reversed(mv)
        anchor = got[-1]
        assert anchor.explicit_len is False
        assert isinstance(anchor.data, memoryview)  # a view, not a copy
        assert anchor.data == f.data


class TestErrors:
    def test_buffer_too_small(self):
        f = StreamFrame(stream_id=1, offset=0, data=b"x" * 32, explicit_len=False)
        with pytest.raises(BufferTooSmall):
            wire.serialize_forward([f], bytearray(8))
        with pytest.raises(BufferTooSmall):
            wire.serialize_reversed([f], bytearray(8))

    def test_remainder_owner_position_enforced(self):
        hidden = StreamFrame(stream_id=1, offset=0, data=b"x", explicit_len=False)
        with pytest.raises(FrameOrderViolation):
            wire.serialize_reversed([PingFrame(), hidden], bytearray(64))
        with pytest.raises(FrameOrderViolation):
            wire.serialize_forward([hidden, PingFrame()], bytearray(64))

    def test_unknown_type(self):
        with pytest.raises(UnknownFrameType):
            wire.parse_forward(b"\x3f")
        with pytest.raises(UnknownFrameType):
            wire.parse_reversed(b"\x3f")

    def test_truncated_fields(self):
        with pytest.raises(MalformedFrame):
            wire.parse_forward(b"\x02")  # ack with no fields
        with pytest.raises(MalformedFrame):
            wire.parse_reversed(b"\x02")

    def test_stream_length_past_end(self):
        out = bytearray(64)
        f = StreamFrame(stream_id=1, offset=0, data=b"abcd", explicit_len=True)
        n = wire.serialize_forward([f], out)
        clipped = bytes(out[: n - 2])
        with pytest.raises(MalformedFrame):
            wire.parse_forward(clipped)

    def test_ack_range_cap(self):
        out = bytearray(512)
        f = AckFrame(largest_acked=10_000, ranges=[(1, 1)] * (wire.MAX_ACK_RANGES + 1))
        n = wire.serialize_forward([f], out)
        with pytest.raises(MalformedFrame):
            wire.parse_forward(bytes(out[:n]))
        n = wire.serialize_reversed([f], out)
        with pytest.raises(MalformedFrame):
            wire.parse_reversed(bytes(out[:n]))

    def test_fuzz_never_escapes(self):
        rng = random.Random(0xFF)
        allowed = (UnknownFrameType, MalformedFrame)
        for _ in range(10_000):
            blob = rng.randbytes(rng.randint(0, 64))
            for parse in (wire.parse_forward, wire.parse_reversed):
                try:
                    parse(blob)
                except allowed:
                    pass


# --- the ack codec: ack_fields and the shared decoders ---

# values on both sides of every varint class boundary, plus anything
BOUNDARY = st.sampled_from(
    [0, 1, 62, 63, 64, 65, 16382, 16383, 16384, 16385,
     (1 << 30) - 2, (1 << 30) - 1, 1 << 30, (1 << 30) + 1, VARINT_MAX]
)
VALUE = BOUNDARY | st.integers(0, VARINT_MAX)
RANGES = st.lists(st.tuples(VALUE, VALUE), min_size=1, max_size=wire.MAX_ACK_RANGES)
CODEC = settings(max_examples=300, deadline=None, database=None)


def _serialized(frame, reverso) -> bytes:
    out = bytearray(2048)
    n = (wire.serialize_reversed if reverso else wire.serialize_forward)([frame], out)
    return bytes(out[:n])


def _raised(fn, *args):
    try:
        fn(*args)
    except MalformedFrame as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__} accepted it")


class TestAckCodec:
    @CODEC
    @given(largest=VALUE, delay=VALUE, ranges=RANGES, reverso=st.booleans())
    def test_ack_fields_is_the_serializer(self, largest, delay, ranges, reverso):
        frame = AckFrame(largest_acked=largest, ack_delay=delay, ranges=ranges)
        assert wire.ack_fields(largest, delay, ranges, reverso) == _serialized(frame, reverso)
        assert len(wire.ack_fields(largest, delay, ranges, reverso)) == wire.frame_wire_size(
            frame, WireMode.REVERSO if reverso else WireMode.BASELINE
        )

    @CODEC
    @given(largest=VALUE, delay=VALUE, ranges=RANGES, before=st.binary(max_size=8),
           after=st.binary(max_size=8))
    def test_decoders_return_what_parse_returns(self, largest, delay, ranges, before, after):
        """Each decoder reads the ack in place inside a larger buffer,
        within the bounds it is given, and agrees with parse_*."""
        fwd = wire.ack_fields(largest, delay, ranges, False)
        [parsed] = wire.parse_forward(fwd)
        buf = memoryview(before + fwd + after)
        start, end = len(before), len(before) + len(fwd)
        got = wire.take_ack_forward(buf, start + 1, end)
        assert got == (parsed.largest_acked, parsed.ack_delay, parsed.ranges, end)
        assert got[:3] == (largest, delay, ranges)

        rev = wire.ack_fields(largest, delay, ranges, True)
        [parsed] = wire.parse_reversed(rev)
        buf = memoryview(before + rev + after)
        got = wire.take_ack_reversed(buf, start, start + len(rev) - 1)
        assert got == (parsed.largest_acked, parsed.ack_delay, parsed.ranges, start)
        assert got[:3] == (largest, delay, ranges)

    @CODEC
    @given(largest=VALUE, delay=VALUE, ranges=RANGES, cut=st.integers(1, 200))
    def test_truncation_raises_as_parse_does(self, largest, delay, ranges, cut):
        """An ack cut short raises the same MalformedFrame from the
        decoder the receive lanes use as from parse_*; the decoder never
        reads past its bounds into the bytes around the ack."""
        fwd = wire.ack_fields(largest, delay, ranges, False)
        k = 1 + cut % (len(fwd) - 1)  # keep the type byte, drop the rest from k
        clipped = fwd[:k]
        filler = b"\x01" * 16  # would decode as more one-byte varints
        assert _raised(wire.take_ack_forward, memoryview(clipped + filler), 1, k) == _raised(
            wire.parse_forward, clipped
        )
        rev = wire.ack_fields(largest, delay, ranges, True)
        k = 1 + cut % (len(rev) - 1)
        clipped = rev[len(rev) - k :]  # the type byte and k - 1 field bytes
        buf = memoryview(filler + clipped)
        assert _raised(wire.take_ack_reversed, buf, len(filler), len(buf) - 1) == _raised(
            wire.parse_reversed, clipped
        )

    @pytest.mark.parametrize("reverso", [False, True])
    def test_range_cap_raises_as_parse_does(self, reverso):
        ranges = [(1, 1)] * (wire.MAX_ACK_RANGES + 1)
        blob = wire.ack_fields(10_000, 0, ranges, reverso)
        buf = memoryview(blob)
        if reverso:
            direct = _raised(wire.take_ack_reversed, buf, 0, len(blob) - 1)
            assert direct == _raised(wire.parse_reversed, blob)
        else:
            direct = _raised(wire.take_ack_forward, buf, 1, len(blob))
            assert direct == _raised(wire.parse_forward, blob)
        assert str(wire.MAX_ACK_RANGES + 1) in direct

    def test_ack_fields_bytes(self):
        # largest 64 and a 2**14 gap need two- and four-byte varints
        fwd = wire.ack_fields(64, 0, [(0, 1), (1 << 14, 2)], False)
        assert fwd == bytes.fromhex("02" "4040" "00" "02" "00" "01" "80004000" "02")
        rev = wire.ack_fields(64, 0, [(0, 1), (1 << 14, 2)], True)
        assert rev == bytes.fromhex("08" "00010002" "04" "00" "08" "00" "0101" "02")
        for reverso in (False, True):
            with pytest.raises(EncodingOverflow):
                wire.ack_fields(-1, 0, [(0, 1)], reverso)


class TestPaddingRuns:
    @pytest.mark.parametrize("body, pad", [(b"", 0), (b"", 5), (b"\x07", 0), (b"\x07\x00\x09", 4)])
    def test_both_directions(self, body, pad):
        junk = b"\x05\x05"
        # forward: a run starting at the body's end stops at the next frame
        buf = memoryview(junk + bytes(pad) + b"\x08" + junk)
        assert wire.padding_end(buf, 2, len(buf)) == 2 + pad
        assert wire.padding_end(buf, 2, 2 + pad) == 2 + pad
        # backward: a run ending at end starts right after the body
        buf = memoryview(junk + body + bytes(pad))
        assert wire.padding_start(buf, 2, len(buf)) == 2 + len(body)
