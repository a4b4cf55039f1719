"""Frame definitions and the two plaintext serializations.

Forward layout (baseline): frames left to right, each frame a type byte
followed by its fields in declaration order, stream data last inside its
frame. A stream frame without the LEN bit owns the rest of the plaintext
and must therefore be the final frame.

Reversed layout: each frame's fields are serialized in reverse order so
the type byte comes last and a parser can walk right to left. Integer
fields use the reversed varint (tag in the final byte). A stream frame
without LEN owns everything to its LEFT, so its data occupies plaintext
positions [0, data_len) with the footer (offset, stream id, type) after
it; that placement is what lets the receiver decrypt a packet directly
to the stream's contiguous position and treat the data as already in
place. Control frames and padding follow the footer and parse backward
independently, so padding never interferes with the LEN-absent rule.

Frame type values follow the conventional registrations: padding 0x00,
ping 0x01, ack 0x02, stream 0x08 with OFF 0x04 / LEN 0x02 / FIN 0x01,
max-stream-data 0x11, connection-close 0x1c. The type is always a single
byte in both layouts.

The frames a sender writes in every packet have one encoder each, which
the serializers call too: stream_fields for a stream frame's fields and
ack_fields for an ack. The receive paths read an ack in place with
take_ack_forward or take_ack_reversed, the decoders the parsers call,
and skip a padding run with padding_end or padding_start.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    BufferTooSmall,
    EncodingOverflow,
    FrameOrderViolation,
    MalformedFrame,
    TruncatedVarInt,
    UnknownFrameType,
)
from .mode import WireMode
from .varint import (
    _CLASS_LEN,
    _CLASS_MAX,
    _length_class,
    decode_forward,
    decode_reversed_backward,
    encode_forward,
    encode_reversed,
    forward_length,
    reversed_length,
)

TYPE_PADDING = 0x00
TYPE_PING = 0x01
TYPE_ACK = 0x02
TYPE_STREAM = 0x08
STREAM_OFF = 0x04
STREAM_LEN = 0x02
STREAM_FIN = 0x01
TYPE_MAX_STREAM_DATA = 0x11
TYPE_CONNECTION_CLOSE = 0x1C

MAX_ACK_RANGES = 32


@dataclass
class PaddingFrame:
    pass


@dataclass
class PingFrame:
    pass


@dataclass
class AckFrame:
    """Acknowledged packet numbers as ranges descending from largest.

    Each (gap, length) pair skips gap numbers below the previous range
    then acknowledges length consecutive numbers. The first pair's gap
    is counted down from largest_acked + 1, so (0, n) acknowledges
    largest_acked down to largest_acked - n + 1.
    """

    largest_acked: int
    ack_delay: int = 0
    ranges: list[tuple[int, int]] = field(default_factory=lambda: [(0, 1)])


@dataclass
class StreamFrame:
    stream_id: int
    offset: int
    data: object  # bytes-like; views stay views until a copy is required
    fin: bool = False
    # LEN bit on the wire; None lets the serializer decide (absent only
    # for the frame that owns the remainder)
    explicit_len: bool | None = None


@dataclass
class MaxStreamDataFrame:
    stream_id: int
    maximum: int


@dataclass
class ConnectionCloseFrame:
    error_code: int
    reason: bytes = b""


Frame = (
    PaddingFrame
    | PingFrame
    | AckFrame
    | StreamFrame
    | MaxStreamDataFrame
    | ConnectionCloseFrame
)


def _pack(t: int, values, reverso: bool) -> bytes:
    """Frame type t and its varint fields as one integer, written with a
    single to_bytes. Forward: the type, then the values in order.
    Reversed: the values in the opposite order as reversed varints, then
    the type, so a backward parser meets them in forward order."""
    acc, n = (0, 0) if reverso else (t, 1)
    for v in reversed(values) if reverso else values:
        if v < 0:
            raise EncodingOverflow(f"{v} exceeds 62-bit varint range")
        tag = _length_class(v)
        k = _CLASS_LEN[tag]
        acc = acc << (k << 3) | (v << 2 | tag if reverso else tag << ((k << 3) - 2) | v)
        n += k
    if reverso:
        acc, n = acc << 8 | t, n + 1
    return acc.to_bytes(n, "big")


def stream_fields(
    stream_id: int, offset: int, data_len: int, fin, explicit: bool, reverso: bool
) -> bytes:
    """A stream frame's bytes other than its data, the one stream-frame
    encoder. Forward: type, stream id, offset, [length]; the data
    follows. Reversed: [length], offset, stream id, type; the data
    precedes them, so a LEN-absent frame's data starts the plaintext.
    The offset is always written, in both layouts."""
    t = TYPE_STREAM | STREAM_OFF | (STREAM_LEN if explicit else 0) | (STREAM_FIN if fin else 0)
    return _pack(t, (stream_id, offset, data_len) if explicit else (stream_id, offset), reverso)


def ack_fields(largest: int, delay: int, ranges, reverso: bool) -> bytes:
    """An ack frame's bytes, the one ack encoder. Forward: type, largest
    acknowledged, ack delay, range count, then each range's gap and
    length. Reversed: the same fields as reversed varints in the
    opposite order, type last."""
    values = [largest, delay, len(ranges)]
    for gap, length in ranges:
        values += gap, length
    return _pack(TYPE_ACK, values, reverso)


def take_ack_forward(buf, pos: int, end: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Decode the forward ack whose fields start at pos, just past its
    type byte, reading nothing at or past end; the one forward ack
    decoder. Returns (largest, delay, ranges, position past the frame)."""
    vals: list[int] = []
    need = 3
    while len(vals) < need:
        if pos >= end:
            raise MalformedFrame("truncated varint")
        b = buf[pos]
        n = _CLASS_LEN[b >> 6]
        if pos + n > end:
            raise MalformedFrame("truncated varint")
        vals.append(
            b & 0x3F if n == 1 else int.from_bytes(buf[pos : pos + n], "big") & (_CLASS_MAX[b >> 6] - 1)
        )
        pos += n
        if len(vals) == 3:
            if vals[2] > MAX_ACK_RANGES:
                raise MalformedFrame(f"{vals[2]} ack ranges exceeds cap {MAX_ACK_RANGES}")
            need = 3 + 2 * vals[2]
    return vals[0], vals[1], list(zip(vals[3::2], vals[4::2])), pos


def take_ack_reversed(buf, lo: int, end: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Decode the reversed ack whose fields end at end, just below its
    type byte, reading nothing below lo; the one reversed ack decoder.
    Returns (largest, delay, ranges, position where the frame starts)."""
    vals: list[int] = []
    need = 3
    while len(vals) < need:
        if end <= lo:
            raise MalformedFrame("truncated reversed varint")
        b = buf[end - 1]
        n = _CLASS_LEN[b & 0x03]
        if end - n < lo:
            raise MalformedFrame("truncated reversed varint")
        vals.append(b >> 2 if n == 1 else int.from_bytes(buf[end - n : end], "big") >> 2)
        end -= n
        if len(vals) == 3:
            if vals[2] > MAX_ACK_RANGES:
                raise MalformedFrame(f"{vals[2]} ack ranges exceeds cap {MAX_ACK_RANGES}")
            need = 3 + 2 * vals[2]
    return vals[0], vals[1], list(zip(vals[3::2], vals[4::2])), end


_NOT_PADDING = re.compile(rb"[^\x00]")


def padding_end(buf, pos: int, end: int) -> int:
    """Where the padding run starting at pos stops: the first non-zero
    byte before end, or end. One regex search, no per-byte frames."""
    m = _NOT_PADDING.search(buf, pos, end)
    return m.start() if m else end


def padding_start(buf, lo: int, end: int) -> int:
    """Where the padding run ending at end starts, no lower than lo. Read
    little-endian, buf[lo:end] is an integer whose top non-zero byte is
    the last byte before the run, so one conversion finds it."""
    return lo + ((int.from_bytes(buf[lo:end], "little").bit_length() + 7) >> 3)


def _stream_size(f: StreamFrame, mode: WireMode, explicit: bool) -> int:
    enc_len = reversed_length if mode is WireMode.REVERSO else forward_length
    n = 1 + enc_len(f.stream_id) + enc_len(f.offset) + len(f.data)
    if explicit:
        n += enc_len(len(f.data))
    return n


def _resolve_explicit(frames: list[Frame], mode: WireMode) -> list[bool]:
    """LEN bit per stream frame; None means absent only in the position
    that owns the remainder (first for reversed, last for forward)."""
    owner = 0 if mode is WireMode.REVERSO else len(frames) - 1
    out = []
    for i, f in enumerate(frames):
        if isinstance(f, StreamFrame):
            explicit = f.explicit_len if f.explicit_len is not None else (i != owner)
            if not explicit and i != owner:
                raise FrameOrderViolation(
                    "the stream frame owning the remainder must come "
                    + ("first" if mode is WireMode.REVERSO else "last")
                )
            out.append(explicit)
        else:
            out.append(True)
    return out


def frame_wire_size(frame: Frame, mode: WireMode) -> int:
    """Exact serialized size; an unresolved LEN flag counts as present."""
    enc_len = reversed_length if mode is WireMode.REVERSO else forward_length
    if isinstance(frame, (PaddingFrame, PingFrame)):
        return 1
    if isinstance(frame, AckFrame):
        # its varints have the same lengths in both layouts
        return len(ack_fields(frame.largest_acked, frame.ack_delay, frame.ranges, False))
    if isinstance(frame, StreamFrame):
        explicit = frame.explicit_len if frame.explicit_len is not None else True
        return _stream_size(frame, mode, explicit)
    if isinstance(frame, MaxStreamDataFrame):
        return 1 + enc_len(frame.stream_id) + enc_len(frame.maximum)
    if isinstance(frame, ConnectionCloseFrame):
        return 1 + enc_len(frame.error_code) + enc_len(len(frame.reason)) + len(frame.reason)
    raise TypeError(f"not a frame: {frame!r}")


# --- forward (baseline) layout ---

def serialize_forward(frames: list[Frame], out) -> int:
    """Write frames left to right into out; returns total length."""
    pos = 0
    explicit_flags = _resolve_explicit(frames, WireMode.BASELINE)
    total = sum(
        _stream_size(f, WireMode.BASELINE, explicit_flags[i])
        if isinstance(f, StreamFrame)
        else frame_wire_size(f, WireMode.BASELINE)
        for i, f in enumerate(frames)
    )
    if total > len(out):
        raise BufferTooSmall(f"{total} bytes of frames into {len(out)}")
    for i, f in enumerate(frames):
        if isinstance(f, PaddingFrame):
            out[pos] = TYPE_PADDING
            pos += 1
        elif isinstance(f, PingFrame):
            out[pos] = TYPE_PING
            pos += 1
        elif isinstance(f, AckFrame):
            pos = _put(out, pos, ack_fields(f.largest_acked, f.ack_delay, f.ranges, False))
        elif isinstance(f, StreamFrame):
            pos = _put(out, pos, stream_fields(
                f.stream_id, f.offset, len(f.data), f.fin, explicit_flags[i], False
            ))
            pos = _put(out, pos, f.data)
        elif isinstance(f, MaxStreamDataFrame):
            pos = _put(out, pos, bytes([TYPE_MAX_STREAM_DATA]))
            pos = _put(out, pos, encode_forward(f.stream_id))
            pos = _put(out, pos, encode_forward(f.maximum))
        elif isinstance(f, ConnectionCloseFrame):
            pos = _put(out, pos, bytes([TYPE_CONNECTION_CLOSE]))
            pos = _put(out, pos, encode_forward(f.error_code))
            pos = _put(out, pos, encode_forward(len(f.reason)))
            out[pos : pos + len(f.reason)] = f.reason
            pos += len(f.reason)
        else:
            raise TypeError(f"not a frame: {f!r}")
    assert pos == total
    return pos


def _put(out, pos: int, data: bytes) -> int:
    out[pos : pos + len(data)] = data
    return pos + len(data)


def parse_forward(plaintext) -> list[Frame]:
    """Parse left to right; inverse of serialize_forward."""
    frames: list[Frame] = []
    pos = 0
    n = len(plaintext)
    while pos < n:
        t = plaintext[pos]
        pos += 1
        if t == TYPE_PADDING:
            frames.append(PaddingFrame())
        elif t == TYPE_PING:
            frames.append(PingFrame())
        elif t == TYPE_ACK:
            largest, delay, ranges, pos = take_ack_forward(plaintext, pos, n)
            frames.append(AckFrame(largest_acked=largest, ack_delay=delay, ranges=ranges))
        elif TYPE_STREAM <= t <= TYPE_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN:
            sid, c = _take_forward(plaintext, pos)
            pos += c
            offset = 0
            if t & STREAM_OFF:
                offset, c = _take_forward(plaintext, pos)
                pos += c
            if t & STREAM_LEN:
                dlen, c = _take_forward(plaintext, pos)
                pos += c
                if pos + dlen > n:
                    raise MalformedFrame("stream data extends past plaintext")
                data = plaintext[pos : pos + dlen]
                pos += dlen
                explicit = True
            else:
                data = plaintext[pos:n]
                pos = n
                explicit = False
            frames.append(
                StreamFrame(
                    stream_id=sid,
                    offset=offset,
                    data=data,
                    fin=bool(t & STREAM_FIN),
                    explicit_len=explicit,
                )
            )
        elif t == TYPE_MAX_STREAM_DATA:
            sid, c = _take_forward(plaintext, pos)
            pos += c
            maximum, c = _take_forward(plaintext, pos)
            pos += c
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == TYPE_CONNECTION_CLOSE:
            code, c = _take_forward(plaintext, pos)
            pos += c
            rlen, c = _take_forward(plaintext, pos)
            pos += c
            if pos + rlen > n:
                raise MalformedFrame("close reason extends past plaintext")
            reason = bytes(plaintext[pos : pos + rlen])
            pos += rlen
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames


def _take_forward(buf, pos: int) -> tuple[int, int]:
    try:
        return decode_forward(buf, pos)
    except TruncatedVarInt:
        raise MalformedFrame("truncated varint") from None


# --- reversed layout ---

def serialize_reversed(frames: list[Frame], out) -> int:
    """Write frames for right-to-left parsing; returns total length.

    frames[0] must be the stream frame if one is zero-copy eligible
    (LEN absent); its data lands at position 0. Later frames append after
    the footer in list order; a backward parser yields them in reverse,
    which carries no semantic weight for control frames.
    """
    explicit_flags = _resolve_explicit(frames, WireMode.REVERSO)
    total = sum(
        _stream_size(f, WireMode.REVERSO, explicit_flags[i])
        if isinstance(f, StreamFrame)
        else frame_wire_size(f, WireMode.REVERSO)
        for i, f in enumerate(frames)
    )
    if total > len(out):
        raise BufferTooSmall(f"{total} bytes of frames into {len(out)}")
    pos = 0
    for i, f in enumerate(frames):
        if isinstance(f, StreamFrame):
            pos = _put(out, pos, f.data)
            pos = _put(out, pos, stream_fields(
                f.stream_id, f.offset, len(f.data), f.fin, explicit_flags[i], True
            ))
        elif isinstance(f, PaddingFrame):
            out[pos] = TYPE_PADDING
            pos += 1
        elif isinstance(f, PingFrame):
            out[pos] = TYPE_PING
            pos += 1
        elif isinstance(f, AckFrame):
            pos = _put(out, pos, ack_fields(f.largest_acked, f.ack_delay, f.ranges, True))
        elif isinstance(f, MaxStreamDataFrame):
            pos = _put(out, pos, encode_reversed(f.maximum))
            pos = _put(out, pos, encode_reversed(f.stream_id))
            out[pos] = TYPE_MAX_STREAM_DATA
            pos += 1
        elif isinstance(f, ConnectionCloseFrame):
            pos = _put(out, pos, f.reason)
            pos = _put(out, pos, encode_reversed(len(f.reason)))
            pos = _put(out, pos, encode_reversed(f.error_code))
            out[pos] = TYPE_CONNECTION_CLOSE
            pos += 1
        else:
            raise TypeError(f"not a frame: {f!r}")
    assert pos == total
    return pos


def parse_reversed(plaintext) -> list[Frame]:
    """Parse right to left; frames return in processing order, so the
    zero-copy stream frame, when present, is LAST in the returned list.

    Every iteration moves the cursor at least one byte left, so arbitrary
    input terminates; any structural problem raises rather than looping.
    """
    frames: list[Frame] = []
    cur = len(plaintext)
    while cur > 0:
        t = plaintext[cur - 1]
        cur -= 1
        if t == TYPE_PADDING:
            frames.append(PaddingFrame())
        elif t == TYPE_PING:
            frames.append(PingFrame())
        elif t == TYPE_ACK:
            largest, delay, ranges, cur = take_ack_reversed(plaintext, 0, cur)
            frames.append(AckFrame(largest_acked=largest, ack_delay=delay, ranges=ranges))
        elif TYPE_STREAM <= t <= TYPE_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN:
            sid, c = _take_reversed(plaintext, cur)
            cur -= c
            offset = 0
            if t & STREAM_OFF:
                offset, c = _take_reversed(plaintext, cur)
                cur -= c
            if t & STREAM_LEN:
                dlen, c = _take_reversed(plaintext, cur)
                cur -= c
                if dlen > cur:
                    raise MalformedFrame("stream data extends past cursor")
                data = plaintext[cur - dlen : cur]
                cur -= dlen
                frames.append(
                    StreamFrame(
                        stream_id=sid,
                        offset=offset,
                        data=data,
                        fin=bool(t & STREAM_FIN),
                        explicit_len=True,
                    )
                )
            else:
                # owns everything to the left; terminates the walk
                frames.append(
                    StreamFrame(
                        stream_id=sid,
                        offset=offset,
                        data=plaintext[0:cur],
                        fin=bool(t & STREAM_FIN),
                        explicit_len=False,
                    )
                )
                cur = 0
        elif t == TYPE_MAX_STREAM_DATA:
            sid, c = _take_reversed(plaintext, cur)
            cur -= c
            maximum, c = _take_reversed(plaintext, cur)
            cur -= c
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == TYPE_CONNECTION_CLOSE:
            code, c = _take_reversed(plaintext, cur)
            cur -= c
            rlen, c = _take_reversed(plaintext, cur)
            cur -= c
            if rlen > cur:
                raise MalformedFrame("close reason extends past cursor")
            reason = bytes(plaintext[cur - rlen : cur])
            cur -= rlen
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames


def _take_reversed(buf, end: int) -> tuple[int, int]:
    try:
        return decode_reversed_backward(buf, end)
    except TruncatedVarInt:
        raise MalformedFrame("truncated reversed varint") from None
