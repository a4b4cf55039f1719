"""The frame encoders and decoders, read back by the reference walk in
both layouts."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revquic import wire
from revquic.errors import EncodingOverflow, MalformedFrame
from revquic.wire import VARINT_MAX

from packets import (
    STREAM_LEN,
    AckFrame,
    ConnectionCloseFrame,
    MaxStreamDataFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    TruncatedVarInt,
    UnknownFrameType,
    decode_forward,
    decode_reversed_backward,
    encode_forward,
    encode_reversed,
    frame_bytes,
    parse_forward,
    parse_reversed,
    plaintext,
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
        # the anchor: its data, then one type byte; the header carries
        # the stream id and offset
        f = StreamFrame(stream_id=1, offset=0, data=b"AB", fin=False, explicit_len=False)
        assert frame_bytes(f, True) == bytes([0x41, 0x42, 0x20])
        f.fin = True
        assert frame_bytes(f, True) == bytes([0x41, 0x42, 0x21])
        assert parse_reversed(bytes([0x41, 0x42, 0x21]), 1, 0) == [f]

    def test_stream_fields_both_layouts(self):
        # stream id 64 and offset 2**14 need two- and four-byte varints;
        # stream_fields writes baseline's frame, which owns the rest
        assert wire.stream_fields(64, 1 << 14, True) == bytes.fromhex("0d" "4040" "80004000")
        # the LEN frames of both layouts, which only tests write, through _pack
        f = StreamFrame(stream_id=64, offset=1 << 14, data=b"abc", fin=True, explicit_len=True)
        assert frame_bytes(f, False) == bytes.fromhex("0f" "4040" "80004000" "03") + b"abc"
        assert frame_bytes(f, True) == b"abc" + bytes.fromhex("0c" "00010002" "0101" "0f")
        for bad in (-1, 1 << 62):
            with pytest.raises(EncodingOverflow):
                wire.stream_fields(1, bad, False)
            for reverso in (False, True):
                with pytest.raises(EncodingOverflow):
                    frame_bytes(StreamFrame(stream_id=1, offset=bad, data=b"", explicit_len=True), reverso)

    def test_stream_fields_formula_matches_pack(self):
        """The one-formula encoder writes what the field-by-field _pack
        writes, at every varint class edge of both fields."""
        edges = [0, 1, 0x3F, 0x40, 0x3FFF, 0x4000, 0x3FFFFFFF, 0x40000000, wire.VARINT_MAX]
        for sid in edges:
            for off in edges:
                for fin in (False, True):
                    t = wire.TYPE_STREAM | wire.STREAM_OFF | (wire.STREAM_FIN if fin else 0)
                    assert wire.stream_fields(sid, off, fin) == wire._pack(t, (sid, off), False)

    def test_ping_identical_in_both_modes(self):
        assert parse_forward(b"\x01") == parse_reversed(b"\x01") == [PingFrame()]

    def test_padding_run(self):
        # the receive paths skip a run in one step from either end
        assert wire.padding_end(b"\x00\x00\x00", 0, 3) == 3
        assert wire.padding_start(b"\x00\x00\x00", 0, 3) == 0

    def test_empty_plaintext(self):
        assert parse_forward(b"") == []
        assert parse_reversed(b"") == []

    def test_all_zero_plaintext(self):
        for n in (1, 7, 64):
            frames = parse_reversed(bytes(n))
            assert len(frames) == n
            assert all(isinstance(f, PaddingFrame) for f in frames)
            assert parse_forward(bytes(n)) == frames

    def test_trailing_padding_parses_backward(self):
        f = StreamFrame(stream_id=1, offset=0, data=b"AB", explicit_len=False)
        frames = parse_reversed(plaintext([f, PingFrame()], True) + b"\x00\x00\x00")
        kinds = [type(fr).__name__ for fr in frames]
        assert kinds == ["PaddingFrame"] * 3 + ["PingFrame", "StreamFrame"]
        assert frames[-1].data == b"AB"


class TestSerializerBytes:
    """The frame encoders' exact output, fixed so that a rewrite of them
    must reproduce it byte for byte."""

    def test_max_stream_data_vectors(self):
        assert wire._pack(0x11, (1, 1 << 20), False) == bytes.fromhex("11" "01" "80100000")
        assert wire._pack(0x11, (1, 1 << 20), True) == bytes.fromhex("00400002" "04" "11")

    def test_corpus_digest(self):
        rng = random.Random(0x5E7)
        h = hashlib.sha256()
        for _ in range(500):
            frames = [random_control(rng) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(rng.randint(0, len(frames)), random_stream(rng, rng.choice((True, None))))
            if rng.random() < 0.3:
                frames.insert(rng.randint(0, len(frames)), PaddingFrame())
            owner = [random_stream(rng, False)] if rng.random() < 0.5 else []
            h.update(plaintext(frames + owner, False))
            h.update(plaintext(owner + frames, True))
        assert h.hexdigest() == "6e790938b9bd9785b3a8753cb4221f1e8f6b1d28afeeb9a1972167372dd0b259"


class TestRoundTrips:
    """The reference walk reads back what the encoders write."""

    def test_forward_property(self):
        rng = random.Random(0xF0)
        for _ in range(10_000):
            frames = [random_control(rng) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(rng.randint(0, len(frames)), random_stream(rng, True))
            if rng.random() < 0.5:
                frames.append(random_stream(rng, False))  # remainder owner is last
            assert parse_forward(plaintext(frames, False)) == frames

    def test_reversed_property(self):
        rng = random.Random(0xF1)
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
            # the owner is the anchor, located by the header's fields
            located = (frames[0].stream_id, frames[0].offset) if owner else ()
            got = parse_reversed(plaintext(frames, True), *located)
            # backward walk yields list order reversed, owner frame last
            if owner:
                assert got == list(reversed(frames[1:])) + [frames[0]]
            else:
                assert got == list(reversed(frames))

    def test_differential_modes_agree(self):
        rng = random.Random(0xF2)
        for _ in range(2_000):
            frames = [random_control(rng) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 2)):
                frames.insert(rng.randint(0, len(frames)), random_stream(rng, True))
            fwd = parse_forward(plaintext(frames, False))
            rev = parse_reversed(plaintext(frames, True))
            assert fwd == frames
            assert list(reversed(rev)) == frames

    def test_owner_data_lands_at_position_zero(self):
        f = StreamFrame(stream_id=7, offset=1200, data=b"x" * 100, explicit_len=False)
        pt = plaintext([f, PingFrame(), AckFrame(largest_acked=3)], True)
        assert pt[:100] == f.data
        got = parse_reversed(memoryview(pt))
        anchor = got[-1]
        assert anchor.explicit_len is False
        assert isinstance(anchor.data, memoryview)  # a view, not a copy
        assert anchor.data == f.data


class TestErrors:
    def test_unknown_type(self):
        with pytest.raises(UnknownFrameType):
            parse_forward(b"\x3f")
        with pytest.raises(UnknownFrameType):
            parse_reversed(b"\x3f")
        # in reverso a LEN-absent stream frame is the anchor, never one
        # with fields
        with pytest.raises(UnknownFrameType):
            parse_reversed(b"hello\x00\x04\x0c")

    def test_truncated_fields(self):
        with pytest.raises(MalformedFrame):
            parse_forward(b"\x02")  # ack with no fields
        with pytest.raises(MalformedFrame):
            parse_reversed(b"\x02")

    def test_stream_length_past_end(self):
        f = StreamFrame(stream_id=1, offset=0, data=b"abcd", explicit_len=True)
        clipped = frame_bytes(f, False)[:-2]
        with pytest.raises(MalformedFrame):
            parse_forward(clipped)

    def test_ack_range_cap(self):
        ranges = [(1, 1)] * (wire.MAX_ACK_RANGES + 1)
        with pytest.raises(MalformedFrame):
            parse_forward(wire.ack_fields(10_000, 0, ranges, False))
        with pytest.raises(MalformedFrame):
            parse_reversed(wire.ack_fields(10_000, 0, ranges, True))

    def test_fuzz_never_escapes(self):
        rng = random.Random(0xFF)
        allowed = (UnknownFrameType, MalformedFrame)
        for _ in range(10_000):
            blob = rng.randbytes(rng.randint(0, 64))
            for parse in (parse_forward, parse_reversed):
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


def _field_by_field(t, values, reverso) -> bytes:
    """Frame type t and its fields written one by one with the varint oracle's
    encoders: the layouts as wire's docstring states them."""
    if reverso:
        return b"".join(map(encode_reversed, reversed(values))) + bytes((t,))
    return bytes((t,)) + b"".join(map(encode_forward, values))


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
        values = [largest, delay, len(ranges)] + [v for r in ranges for v in r]
        assert wire.ack_fields(largest, delay, ranges, reverso) == _field_by_field(
            wire.TYPE_ACK, values, reverso
        )

    @CODEC
    @given(largest=VALUE, delay=VALUE, ranges=RANGES, before=st.binary(max_size=8),
           after=st.binary(max_size=8))
    def test_decoders_return_what_parse_returns(self, largest, delay, ranges, before, after):
        """Each decoder reads the ack in place inside a larger buffer,
        within the bounds it is given, and agrees with parse_*."""
        fwd = wire.ack_fields(largest, delay, ranges, False)
        [parsed] = parse_forward(fwd)
        buf = memoryview(before + fwd + after)
        start, end = len(before), len(before) + len(fwd)
        got = wire.take_ack_forward(buf, start + 1, end)
        assert got == (parsed.largest_acked, parsed.ack_delay, parsed.ranges, end)
        assert got[:3] == (largest, delay, ranges)

        rev = wire.ack_fields(largest, delay, ranges, True)
        [parsed] = parse_reversed(rev)
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
            parse_forward, clipped
        )
        rev = wire.ack_fields(largest, delay, ranges, True)
        k = 1 + cut % (len(rev) - 1)
        clipped = rev[len(rev) - k :]  # the type byte and k - 1 field bytes
        buf = memoryview(filler + clipped)
        assert _raised(wire.take_ack_reversed, buf, len(filler), len(buf) - 1) == _raised(
            parse_reversed, clipped
        )

    @pytest.mark.parametrize("reverso", [False, True])
    def test_range_cap_raises_as_parse_does(self, reverso):
        ranges = [(1, 1)] * (wire.MAX_ACK_RANGES + 1)
        blob = wire.ack_fields(10_000, 0, ranges, reverso)
        buf = memoryview(blob)
        if reverso:
            direct = _raised(wire.take_ack_reversed, buf, 0, len(blob) - 1)
            assert direct == _raised(parse_reversed, blob)
        else:
            direct = _raised(wire.take_ack_forward, buf, 1, len(blob))
            assert direct == _raised(parse_forward, blob)
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


# --- the ack decoders against an oracle of their own ---
#
# parse_forward and parse_reversed call the same decoders, so agreeing
# with them cannot catch a wrong shortcut in a decoder. This oracle reads
# an ack field by field with the varint oracle's decoders, from a copy
# of exactly the bytes the decoder may read.


def _oracle_forward(buf, pos: int, end: int):
    data = bytes(buf[:end])

    def take():
        nonlocal pos
        try:
            v, n = decode_forward(data, pos)
        except TruncatedVarInt:
            raise MalformedFrame("truncated varint") from None
        pos += n
        return v

    largest, delay, count = take(), take(), take()
    if count > wire.MAX_ACK_RANGES:
        raise MalformedFrame(f"{count} ack ranges exceeds cap {wire.MAX_ACK_RANGES}")
    ranges = [(take(), take()) for _ in range(count)]
    return largest, delay, ranges, pos


def _oracle_reversed(buf, lo: int, end: int):
    data = bytes(buf[lo:end])
    cur = len(data)

    def take():
        nonlocal cur
        try:
            v, n = decode_reversed_backward(data, cur)
        except TruncatedVarInt:
            raise MalformedFrame("truncated reversed varint") from None
        cur -= n
        return v

    largest, delay, count = take(), take(), take()
    if count > wire.MAX_ACK_RANGES:
        raise MalformedFrame(f"{count} ack ranges exceeds cap {wire.MAX_ACK_RANGES}")
    ranges = [(take(), take()) for _ in range(count)]
    return largest, delay, ranges, lo + cur


def _outcome(fn, *args):
    """What fn returns, or the message of the MalformedFrame it raises."""
    try:
        return fn(*args)
    except MalformedFrame as exc:
        return "raised", str(exc)


ZERO_OR = st.just(0) | BOUNDARY
# one-range acks at every width of largest and length, delay and gap
# zero or not, and acks of 2-32 ranges
ONE_RANGE = st.tuples(BOUNDARY, ZERO_OR, st.tuples(ZERO_OR, BOUNDARY).map(lambda r: [r]))
MANY_RANGES = st.tuples(
    VALUE, ZERO_OR, st.lists(st.tuples(ZERO_OR, VALUE), min_size=2, max_size=wire.MAX_ACK_RANGES)
)
ACKS = ONE_RANGE | MANY_RANGES
FOREIGN = st.binary(max_size=8) | st.sampled_from([b"\x00\x01\x00\x01", b"\x00\x04\x00\x04", b"\x01" * 8])


class TestAckOracle:
    @CODEC
    @given(ack=ACKS, before=FOREIGN, after=FOREIGN)
    def test_decoders_match_the_oracle_in_place(self, ack, before, after):
        """Bounded exactly at the ack's edges inside foreign bytes, each
        decoder returns what the oracle reads and what ack_fields wrote."""
        largest, delay, ranges = ack
        fwd = wire.ack_fields(largest, delay, ranges, False)
        buf = memoryview(before + fwd + after)
        start, end = len(before), len(before) + len(fwd)
        got = wire.take_ack_forward(buf, start + 1, end)
        assert got == _oracle_forward(buf, start + 1, end) == (largest, delay, ranges, end)

        rev = wire.ack_fields(largest, delay, ranges, True)
        buf = memoryview(before + rev + after)
        end = len(before) + len(rev) - 1
        got = wire.take_ack_reversed(buf, start, end)
        assert got == _oracle_reversed(buf, start, end) == (largest, delay, ranges, start)

    @CODEC
    @given(ack=ACKS, before=FOREIGN, after=FOREIGN)
    def test_every_truncation_matches_the_oracle(self, ack, before, after):
        """An ack cut at any point, foreign bytes beyond the cut, gives
        the oracle's result or the oracle's MalformedFrame message."""
        largest, delay, ranges = ack
        fwd = wire.ack_fields(largest, delay, ranges, False)
        for k in range(1, len(fwd) + 1):  # the type byte and k - 1 field bytes
            buf = memoryview(before + fwd[:k] + after)
            start, end = len(before), len(before) + k
            assert _outcome(wire.take_ack_forward, buf, start + 1, end) == _outcome(
                _oracle_forward, buf, start + 1, end
            )
        rev = wire.ack_fields(largest, delay, ranges, True)
        for k in range(1, len(rev) + 1):
            buf = memoryview(before + rev[len(rev) - k :] + after)
            start, end = len(before), len(before) + k - 1
            assert _outcome(wire.take_ack_reversed, buf, start, end) == _outcome(
                _oracle_reversed, buf, start, end
            )

    @CODEC
    @given(largest=VALUE, length=VALUE, reverso=st.booleans())
    def test_one_range_ack_fields_is_pack(self, largest, length, reverso):
        assert wire.ack_fields(largest, 0, [(0, length)], reverso) == wire._pack(
            wire.TYPE_ACK, (largest, 0, 1, 0, length), reverso
        )


# --- the field readers against the varint oracle's decoders ---


def _oracle_take_forward(buf, pos: int, end: int, k: int):
    data = bytes(buf[:end])
    vals = []
    for _ in range(k):
        try:
            v, n = decode_forward(data, pos)
        except TruncatedVarInt:
            raise MalformedFrame("truncated varint") from None
        vals.append(v)
        pos += n
    return vals + [pos]


def _oracle_take_reversed(buf, lo: int, end: int, k: int):
    data = bytes(buf[lo:end])
    cur = len(data)
    vals = []
    for _ in range(k):
        try:
            v, n = decode_reversed_backward(data, cur)
        except TruncatedVarInt:
            raise MalformedFrame("truncated reversed varint") from None
        vals.append(v)
        cur -= n
    return vals + [lo + cur]


def _failure(parse, blob):
    """The type and message of what parse raises on blob, or None."""
    try:
        parse(blob)
    except (MalformedFrame, UnknownFrameType) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestFieldReaders:
    @CODEC
    @given(values=st.lists(BOUNDARY, max_size=4), before=FOREIGN, after=FOREIGN)
    def test_every_cut_matches_the_oracle(self, values, before, after):
        """0-4 fields of every width, cut at every byte with foreign bytes
        beyond the cut and before the start: each reader returns the
        oracle's values and position, or raises the oracle's message."""
        k = len(values)
        fwd = b"".join(map(encode_forward, values))
        for cut in range(len(fwd) + 1):
            buf = memoryview(before + fwd[:cut] + after)
            pos, end = len(before), len(before) + cut
            got = _outcome(wire.take_forward, buf, pos, end, k)
            assert got == _outcome(_oracle_take_forward, buf, pos, end, k)
        assert got == values + [end]
        # the reversed reader meets the last-written field first
        rev = b"".join(map(encode_reversed, reversed(values)))
        for cut in range(len(rev) + 1):
            buf = memoryview(before + rev[len(rev) - cut :] + after)
            lo, end = len(before), len(before) + cut
            got = _outcome(wire.take_reversed, buf, lo, end, k)
            assert got == _outcome(_oracle_take_reversed, buf, lo, end, k)
        assert got == values + [lo]

    @CODEC
    @given(sid=BOUNDARY, offset=BOUNDARY, data=st.binary(max_size=8))
    def test_stream_frame_cuts_raise_their_messages(self, sid, offset, data):
        """A stream frame of every OFF/LEN/FIN combination, cut at every
        byte, raises the message of the part the cut falls in."""
        for t in range(wire.TYPE_STREAM, wire.TYPE_STREAM + 8):
            fields = [sid] + [offset] * bool(t & wire.STREAM_OFF) + [len(data)] * bool(t & STREAM_LEN)
            head = bytes([t]) + b"".join(map(encode_forward, fields))
            blob = head + data
            for cut in range(1, len(blob) + 1):
                if cut < len(head):
                    want = "MalformedFrame", "truncated varint"
                elif cut < len(blob) and t & STREAM_LEN:
                    want = "MalformedFrame", "stream data extends past plaintext"
                else:
                    want = None  # complete, or LEN absent: the frame owns the rest
                assert _failure(parse_forward, blob[:cut]) == want
            tail = b"".join(map(encode_reversed, reversed(fields))) + bytes([t])
            blob = data + tail
            for cut in range(1, len(blob) + 1):
                if not t & STREAM_LEN:
                    want = "UnknownFrameType", f"type 0x{t:02x}"  # only the anchor lacks LEN
                elif cut < len(tail):
                    want = "MalformedFrame", "truncated reversed varint"
                elif cut < len(blob):
                    want = "MalformedFrame", "stream data extends past cursor"
                else:
                    want = None
                assert _failure(parse_reversed, blob[len(blob) - cut :]) == want

    @CODEC
    @given(sid=BOUNDARY, maximum=BOUNDARY)
    def test_max_stream_data_cuts_raise_their_messages(self, sid, maximum):
        frame = MaxStreamDataFrame(stream_id=sid, maximum=maximum)
        fwd = frame_bytes(frame, False)
        for cut in range(1, len(fwd)):
            assert _failure(parse_forward, fwd[:cut]) == ("MalformedFrame", "truncated varint")
        assert parse_forward(fwd) == [frame]
        rev = frame_bytes(frame, True)
        for cut in range(1, len(rev)):
            assert _failure(parse_reversed, rev[len(rev) - cut :]) == (
                "MalformedFrame", "truncated reversed varint"
            )
        assert parse_reversed(rev) == [frame]


# --- the close codec: close_fields and the shared decoders ---

REASON = st.binary(max_size=40)


class TestCloseCodec:
    @CODEC
    @given(code=VALUE, reason=REASON, reverso=st.booleans())
    def test_close_fields_is_the_serializer(self, code, reason, reverso):
        fields = _field_by_field(wire.TYPE_CONNECTION_CLOSE, (code, len(reason)), reverso)
        want = reason + fields if reverso else fields + reason
        assert wire.close_fields(code, reason, reverso) == want

    @CODEC
    @given(code=VALUE, reason=REASON, before=st.binary(max_size=8), after=st.binary(max_size=8))
    def test_decoders_return_what_parse_returns(self, code, reason, before, after):
        """Each decoder reads the close in place inside a larger buffer,
        within the bounds it is given, and agrees with parse_*."""
        fwd = wire.close_fields(code, reason, False)
        [parsed] = parse_forward(fwd)
        buf = memoryview(before + fwd + after)
        start, end = len(before), len(before) + len(fwd)
        got = wire.take_close_forward(buf, start + 1, end)
        assert got == (parsed.error_code, parsed.reason, end)
        assert got[:2] == (code, reason)

        rev = wire.close_fields(code, reason, True)
        [parsed] = parse_reversed(rev)
        buf = memoryview(before + rev + after)
        got = wire.take_close_reversed(buf, start, start + len(rev) - 1)
        assert got == (parsed.error_code, parsed.reason, start)
        assert got[:2] == (code, reason)

    @CODEC
    @given(code=VALUE, reason=REASON, cut=st.integers(1, 200))
    def test_truncation_raises_as_parse_does(self, code, reason, cut):
        """A close cut short raises the same MalformedFrame from the
        decoder the receive paths use as from parse_*; the decoder never
        reads past its bounds into the bytes around the close."""
        fwd = wire.close_fields(code, reason, False)
        k = 1 + cut % (len(fwd) - 1)  # keep the type byte, drop the rest from k
        clipped = fwd[:k]
        filler = b"\x01" * 64  # would decode as varints and reason bytes
        assert _raised(wire.take_close_forward, memoryview(clipped + filler), 1, k) == _raised(
            parse_forward, clipped
        )
        rev = wire.close_fields(code, reason, True)
        k = 1 + cut % (len(rev) - 1)
        clipped = rev[len(rev) - k :]  # the type byte and k - 1 bytes before it
        buf = memoryview(filler + clipped)
        assert _raised(wire.take_close_reversed, buf, len(filler), len(buf) - 1) == _raised(
            parse_reversed, clipped
        )

    def test_close_fields_bytes(self):
        assert wire.close_fields(7, b"bye", False) == bytes.fromhex("1c" "07" "03") + b"bye"
        # reversed one-byte varints carry the value above a zero tag
        assert wire.close_fields(7, b"bye", True) == b"bye" + bytes.fromhex("0c" "1c" "1c")
        # a 64-byte reason needs a two-byte length
        assert wire.close_fields(0, bytes(64), False)[:4] == bytes.fromhex("1c" "00" "4040")
        for reverso in (False, True):
            with pytest.raises(EncodingOverflow):
                wire.close_fields(-1, b"", reverso)


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
