"""Frame definitions and the two plaintext serializations.

Forward layout (baseline): frames left to right, each frame a type byte
followed by its fields in declaration order, stream data last inside its
frame. A stream frame without the LEN bit owns the rest of the plaintext
and must therefore be the final frame.

Reversed layout: each frame's fields are serialized in reverse order so
the type byte comes last and a parser can walk right to left. Integer
fields use the reversed varint (tag in the final byte). The stream data
that owns the rest of the plaintext is the anchor: its data occupies
plaintext positions [0, data_len) and a single type byte, TYPE_ANCHOR
with the FIN bit, follows it. The anchor has no fields: the packet
header's stream id and offset, which the AEAD authenticates as
associated data, locate it. That placement is what lets the receiver
decrypt a packet directly to the stream's position and treat the data
as already in place. Control frames and padding follow the anchor and
parse backward independently, so padding never interferes with it.

Frame type values follow the conventional registrations: padding 0x00,
ping 0x01, ack 0x02, stream 0x08 with OFF 0x04 / LEN 0x02 / FIN 0x01,
max-stream-data 0x11, connection-close 0x1c. The anchor, reversed layout
only, is 0x20 with FIN 0x01, a value RFC 9000 leaves unassigned. The
type is always a single byte in both layouts.

There is one encoder per frame type and one varint reader per layout.
The encoders state each layout once for both orders: stream_fields,
ack_fields, close_fields, _pack for max-stream-data, and the anchor's
type byte. take_forward and take_reversed read k fields inside the
bounds they are given; the ack decoders (take_ack_*), the close
decoders (take_close_*) and the parsers read every field through them.
The one reader outside them is Connection._recv_baseline's inline read
of its stream frame's stream id and offset, inline on purpose: a call
per packet would add about 3 % to that lane and tilt the mode
comparison (the comment there has the numbers). An ack costs about what
the header costs: each ack decoder first reads the ack's bytes nearest
its type byte, at most 8, as one integer and peels a one-range ack
(delay 0, gap 0, the ack build_packet sends whenever the numbers it
acknowledges are consecutive) off it by shifts, from the top forward
and from the tag end reversed; ack_fields writes that ack as one
formula. The receive paths call the ack and close decoders and skip
padding with padding_end or padding_start. The frame dataclasses, the
serializers, the parsers and frame_wire_size are the reference codec:
inspection, demos and tests use them, the connection does not. Both
serializers are one loop over _frame_bytes, which takes each frame's
bytes from its encoder, and frame_wire_size is their length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    BufferTooSmall,
    EncodingOverflow,
    FrameOrderViolation,
    MalformedFrame,
    UnknownFrameType,
)
from .mode import WireMode
from .varint import (
    _CLASS_LEN,
    _CLASS_MAX,
    _length_class,
    encode_forward,  # noqa: F401 -- re-exported: callers read wire.encode_*
    encode_reversed,  # noqa: F401
    forward_length,  # noqa: F401 -- the sender budgets with wire.forward_length
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
TYPE_ANCHOR = 0x20  # reversed layout only; | STREAM_FIN

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
    # for the frame that owns the remainder, which in the reversed layout
    # is the anchor: its stream id and offset travel in the header)
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
    follows. Reversed: length, offset, stream id, type; the data
    precedes them. The offset is always written, in both layouts. The
    reversed layout's LEN-absent stream data is the anchor instead,
    which has no fields."""
    t = TYPE_STREAM | STREAM_OFF | (STREAM_LEN if explicit else 0) | (STREAM_FIN if fin else 0)
    return _pack(t, (stream_id, offset, data_len) if explicit else (stream_id, offset), reverso)


def ack_fields(largest: int, delay: int, ranges, reverso: bool) -> bytes:
    """An ack frame's bytes, the one ack encoder. Forward: type, largest
    acknowledged, ack delay, range count, then each range's gap and
    length. Reversed: the same fields as reversed varints in the
    opposite order, type last.

    A one-range ack with delay 0 and gap 0, the one build_packet writes
    whenever the pending numbers are consecutive, is one formula: the
    largest and the length by their tags around the three one-byte
    fields 00 01 00 (reversed: 00 04 00), written with one to_bytes."""
    if not delay and len(ranges) == 1 and largest >= 0:
        gap, length = ranges[0]
        if not gap and length >= 0:
            a = _length_class(largest)
            b = _length_class(length)
            n, m = _CLASS_LEN[a] << 3, _CLASS_LEN[b] << 3
            if reverso:
                acc = (((length << 2 | b) << 24 | 0x000400) << n | largest << 2 | a) << 8 | TYPE_ACK
            else:
                acc = ((TYPE_ACK << n | a << (n - 2) | largest) << 24 | 0x000100) << m | b << (m - 2) | length
            return acc.to_bytes(((n + m) >> 3) + 4, "big")
    values = [largest, delay, len(ranges)]
    for gap, length in ranges:
        values += gap, length
    return _pack(TYPE_ACK, values, reverso)


def close_fields(code: int, reason, reverso: bool) -> bytes:
    """A connection-close frame's bytes, the one close encoder. Forward:
    type, error code, reason length, then the reason. Reversed: the
    reason, then the same two fields as reversed varints in the opposite
    order, type last."""
    fields = _pack(TYPE_CONNECTION_CLOSE, (code, len(reason)), reverso)
    return bytes(reason) + fields if reverso else fields + bytes(reason)


def take_forward(buf, pos: int, end: int, k: int) -> list[int]:
    """Read k forward varints starting at pos, reading nothing at or past
    end; the one forward field reader. Returns the k values followed by
    the position past the last of them."""
    vals = []
    for _ in range(k):
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
    vals.append(pos)
    return vals


def take_reversed(buf, lo: int, end: int, k: int) -> list[int]:
    """Read k reversed varints backward from end, reading nothing below
    lo; the one reversed field reader. Returns the k values, nearest end
    first, followed by the position where the last of them starts."""
    vals = []
    for _ in range(k):
        if end <= lo:
            raise MalformedFrame("truncated reversed varint")
        b = buf[end - 1]
        n = _CLASS_LEN[b & 0x03]
        if end - n < lo:
            raise MalformedFrame("truncated reversed varint")
        vals.append(b >> 2 if n == 1 else int.from_bytes(buf[end - n : end], "big") >> 2)
        end -= n
    vals.append(end)
    return vals


def take_ack_forward(buf, pos: int, end: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Decode the forward ack whose fields start at pos, just past its
    type byte, reading nothing at or past end; the one forward ack
    decoder. Returns (largest, delay, ranges, position past the frame).

    The ack's first bytes, at most 8 inside [pos, end), are read as one
    big-endian integer, and a one-range ack with delay 0 and gap 0 that
    fits them is peeled off it from the top: largest by its tag, the
    three one-byte fields 00 01 00 as one constant, then the length by
    its tag. Any other ack, or one cut short, is read field by field."""
    w = end - pos if end - pos < 8 else 8
    if w > 4:
        x = int.from_bytes(buf[pos : pos + w], "big")
        tag = x >> ((w << 3) - 2)
        n = _CLASS_LEN[tag]
        s = (w - n - 3) << 3  # bits below delay, count and gap
        if s > 0 and (x >> s) & 0xFFFFFF == 0x000100:
            t = (x >> (s - 2)) & 0x03
            m = _CLASS_LEN[t]
            if m << 3 <= s:
                return (
                    (x >> (s + 24)) & (_CLASS_MAX[tag] - 1), 0,
                    [(0, (x >> (s - (m << 3))) & (_CLASS_MAX[t] - 1))], pos + n + 3 + m,
                )
    largest, delay, count, pos = take_forward(buf, pos, end, 3)
    if count > MAX_ACK_RANGES:
        raise MalformedFrame(f"{count} ack ranges exceeds cap {MAX_ACK_RANGES}")
    *fields, pos = take_forward(buf, pos, end, 2 * count)
    return largest, delay, list(zip(fields[::2], fields[1::2])), pos


def take_ack_reversed(buf, lo: int, end: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Decode the reversed ack whose fields end at end, just below its
    type byte, reading nothing below lo; the one reversed ack decoder.
    Returns (largest, delay, ranges, position where the frame starts).

    The ack's last bytes, at most 8 inside [lo, end), are read as one
    big-endian integer, and a one-range ack with delay 0 and gap 0 that
    fits them is peeled off it from the tag end: largest by its tag, the
    three one-byte fields 00 04 00 as one constant, then the length by
    its tag. Any other ack, or one cut short, is read field by field."""
    w = end - lo if end - lo < 8 else 8
    if w > 4:
        x = int.from_bytes(buf[end - w : end], "big")
        n = _CLASS_LEN[x & 0x03] << 3
        if (x >> n) & 0xFFFFFF == 0x000400:
            y = x >> (n + 24)
            m = _CLASS_LEN[y & 0x03] << 3
            if n + 24 + m <= w << 3:
                return (
                    (x & ((1 << n) - 1)) >> 2, 0, [(0, (y & ((1 << m) - 1)) >> 2)],
                    end - ((n + 24 + m) >> 3),
                )
    largest, delay, count, end = take_reversed(buf, lo, end, 3)
    if count > MAX_ACK_RANGES:
        raise MalformedFrame(f"{count} ack ranges exceeds cap {MAX_ACK_RANGES}")
    *fields, end = take_reversed(buf, lo, end, 2 * count)
    return largest, delay, list(zip(fields[::2], fields[1::2])), end


def take_close_forward(buf, pos: int, end: int) -> tuple[int, bytes, int]:
    """Decode the forward close whose fields start at pos, just past its
    type byte, reading nothing at or past end; the one forward close
    decoder. Returns (error code, reason, position past the frame)."""
    code, rlen, pos = take_forward(buf, pos, end, 2)
    if rlen > end - pos:
        raise MalformedFrame("close reason extends past plaintext")
    return code, bytes(buf[pos : pos + rlen]), pos + rlen


def take_close_reversed(buf, lo: int, end: int) -> tuple[int, bytes, int]:
    """Decode the reversed close whose fields end at end, just below its
    type byte, reading nothing below lo; the one reversed close decoder.
    Returns (error code, reason, position where the frame starts)."""
    code, rlen, end = take_reversed(buf, lo, end, 2)
    if rlen > end - lo:
        raise MalformedFrame("close reason extends past cursor")
    return code, bytes(buf[end - rlen : end]), end - rlen


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


def _frame_bytes(f: Frame, explicit: bool, reverso: bool) -> bytes:
    """One frame's bytes in one layout, from its one encoder; explicit is
    a stream frame's LEN bit. A stream frame's data precedes its fields
    in reverso and follows them in baseline; a LEN-absent one in reverso
    is the anchor, its data and one type byte."""
    if isinstance(f, StreamFrame):
        if reverso and not explicit:
            return bytes(f.data) + bytes((TYPE_ANCHOR | (STREAM_FIN if f.fin else 0),))
        fields = stream_fields(f.stream_id, f.offset, len(f.data), f.fin, explicit, reverso)
        return bytes(f.data) + fields if reverso else fields + bytes(f.data)
    if isinstance(f, AckFrame):
        return ack_fields(f.largest_acked, f.ack_delay, f.ranges, reverso)
    if isinstance(f, ConnectionCloseFrame):
        return close_fields(f.error_code, f.reason, reverso)
    if isinstance(f, MaxStreamDataFrame):
        return _pack(TYPE_MAX_STREAM_DATA, (f.stream_id, f.maximum), reverso)
    if isinstance(f, PaddingFrame):
        return bytes((TYPE_PADDING,))
    if isinstance(f, PingFrame):
        return bytes((TYPE_PING,))
    raise TypeError(f"not a frame: {f!r}")


def frame_wire_size(frame: Frame, mode: WireMode) -> int:
    """Exact serialized size; an unresolved LEN flag counts as present."""
    explicit = getattr(frame, "explicit_len", None) is not False
    return len(_frame_bytes(frame, explicit, mode is WireMode.REVERSO))


def _serialize(frames: list[Frame], out, mode: WireMode) -> int:
    """The serializer of both layouts: nothing is written unless every
    frame encodes and all of them fit in out."""
    parts = [
        _frame_bytes(f, explicit, mode is WireMode.REVERSO)
        for f, explicit in zip(frames, _resolve_explicit(frames, mode))
    ]
    total = sum(map(len, parts))
    if total > len(out):
        raise BufferTooSmall(f"{total} bytes of frames into {len(out)}")
    out[:total] = b"".join(parts)
    return total


def serialize_forward(frames: list[Frame], out) -> int:
    """Write frames left to right into out; returns total length."""
    return _serialize(frames, out, WireMode.BASELINE)


def serialize_reversed(frames: list[Frame], out) -> int:
    """Write frames for right-to-left parsing; returns total length.

    frames[0] must be the stream frame if one is zero-copy eligible
    (LEN absent): it is written as the anchor, its data at position 0
    and then its type byte. Its stream id and offset are not written;
    the caller puts them in the packet header. Later frames append after
    the anchor in list order; a backward parser yields them in reverse,
    which carries no semantic weight for control frames.
    """
    return _serialize(frames, out, WireMode.REVERSO)


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
            sid, *rest, pos = take_forward(plaintext, pos, n, 1 + bool(t & STREAM_OFF) + bool(t & STREAM_LEN))
            offset = rest[0] if t & STREAM_OFF else 0
            dlen = rest[-1] if t & STREAM_LEN else n - pos  # LEN absent: owns the rest
            if pos + dlen > n:
                raise MalformedFrame("stream data extends past plaintext")
            data = plaintext[pos : pos + dlen]
            pos += dlen
            frames.append(StreamFrame(sid, offset, data, bool(t & STREAM_FIN), bool(t & STREAM_LEN)))
        elif t == TYPE_MAX_STREAM_DATA:
            sid, maximum, pos = take_forward(plaintext, pos, n, 2)
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == TYPE_CONNECTION_CLOSE:
            code, reason, pos = take_close_forward(plaintext, pos, n)
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames


def parse_reversed(plaintext, stream_id: int = 0, offset: int = 0) -> list[Frame]:
    """Parse right to left; frames return in processing order, so the
    anchor, when present, is LAST in the returned list, as a LEN-absent
    StreamFrame at stream_id and offset, the packet header's fields.
    A stream frame with fields must have LEN set.

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
        elif t | STREAM_FIN == TYPE_ANCHOR | STREAM_FIN:
            # owns everything to the left; ends the walk
            frames.append(StreamFrame(stream_id, offset, plaintext[:cur], bool(t & STREAM_FIN), False))
            cur = 0
        elif t | STREAM_OFF | STREAM_FIN == TYPE_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN:
            sid, *rest, dlen, cur = take_reversed(plaintext, 0, cur, 3 if t & STREAM_OFF else 2)
            off = rest[0] if rest else 0
            if dlen > cur:
                raise MalformedFrame("stream data extends past cursor")
            data = plaintext[cur - dlen : cur]
            cur -= dlen
            frames.append(StreamFrame(sid, off, data, bool(t & STREAM_FIN), True))
        elif t == TYPE_MAX_STREAM_DATA:
            sid, maximum, cur = take_reversed(plaintext, 0, cur, 2)
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == TYPE_CONNECTION_CLOSE:
            code, reason, cur = take_close_reversed(plaintext, 0, cur)
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames

