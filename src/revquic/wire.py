"""Frame types, and the encoders and decoders of the two plaintext
layouts.

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
ack 0x02, stream 0x08 with OFF 0x04 / FIN 0x01 (never LEN 0x02),
connection-close 0x1c. The anchor, reversed layout only, is 0x20 with
FIN 0x01, a value RFC 9000 leaves unassigned. The type is always a
single byte in both layouts.

Varints: the forward layout puts a 2-bit length tag in the two most
significant bits of the first byte (00/01/10/11 for 1/2/4/8 bytes),
value big-endian in the remaining bits. The reversed layout moves the
tag to the two least significant bits of the last byte, (v << 2) | tag
big-endian, so a backward reader learns the field's length from the byte
at its cursor. Both layouts share the class boundaries _CLASS_MAX and
lengths _CLASS_LEN.

There is one encoder per frame type and one varint reader per layout.
The encoders state each layout once for both orders through _pack:
ack_fields and close_fields. stream_fields (baseline's stream frame) and
ack_fields' one-range ack are each one formula; reverso's stream frame
is the anchor's type byte. take_forward and
take_reversed read k fields inside the bounds they are given; the ack
decoders (take_ack_*) and the close decoders (take_close_*) read every
field through them. The one reader
outside them is Connection.recv's inline read of baseline's stream
frame's stream id and offset, inline on purpose: a call per packet
would add about 5 % to that lane and tilt the mode comparison (the
comment there has the numbers). An ack costs about what
the header costs: each ack decoder first reads the ack's bytes nearest
its type byte, at most 8, as one integer and peels a one-range ack
(delay 0, gap 0, the ack build_packet sends whenever the numbers it
acknowledges are consecutive) off it by shifts, from the top forward
and from the tag end reversed; ack_fields writes that ack as one
formula. The receive paths call the ack and close decoders and skip
padding with padding_end or padding_start. There are no frame objects
and no second walk over a plaintext: build_packet is the one writer and
recv the one reader of each layout, and revquic inspect reads a
datagram through recv.
"""

from __future__ import annotations

import re

from .errors import EncodingOverflow, MalformedFrame

TYPE_ACK = 0x02
TYPE_STREAM = 0x08
STREAM_OFF = 0x04
STREAM_FIN = 0x01
TYPE_CONNECTION_CLOSE = 0x1C
TYPE_ANCHOR = 0x20  # reversed layout only; | STREAM_FIN

MAX_ACK_RANGES = 32

VARINT_MAX = (1 << 62) - 1

# class boundaries and lengths, shared by both varint layouts
_CLASS_MAX = ((1 << 6), (1 << 14), (1 << 30), (1 << 62))
_CLASS_LEN = (1, 2, 4, 8)


def _length_class(v: int) -> int:
    # unrolled over _CLASS_MAX: the senders call this for every frame
    if v < 0x40:
        return 0
    if v < 0x4000:
        return 1
    if v < 0x40000000:
        return 2
    if v <= VARINT_MAX:
        return 3
    raise EncodingOverflow(f"{v} exceeds 62-bit varint range")


def forward_length(v: int) -> int:
    """Serialized size of v in either layout (budget planning)."""
    return _CLASS_LEN[_length_class(v)]


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
    return acc.to_bytes(n)


def stream_fields(stream_id: int, offset: int, fin) -> bytes:
    """Baseline's stream frame bytes other than its data, the one
    stream-frame encoder: type with OFF and without LEN, stream id,
    offset; the data follows and owns the rest of the plaintext. The
    reversed layout's stream data is the anchor instead, which has no
    fields. One formula, as ack_fields' one-range ack: the type, then
    the stream id and the offset by their tags, written with one
    to_bytes."""
    if stream_id < 0 or offset < 0:
        raise EncodingOverflow(f"{min(stream_id, offset)} exceeds 62-bit varint range")
    a = _length_class(stream_id)
    b = _length_class(offset)
    n, m = _CLASS_LEN[a] << 3, _CLASS_LEN[b] << 3
    acc = ((TYPE_STREAM | STREAM_OFF | (STREAM_FIN if fin else 0)) << n | a << (n - 2) | stream_id) << m
    return (acc | b << (m - 2) | offset).to_bytes(((n + m) >> 3) + 1)


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
            return acc.to_bytes(((n + m) >> 3) + 4)
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
            b & 0x3F if n == 1 else int.from_bytes(buf[pos : pos + n]) & (_CLASS_MAX[b >> 6] - 1)
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
        vals.append(b >> 2 if n == 1 else int.from_bytes(buf[end - n : end]) >> 2)
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
        x = int.from_bytes(buf[pos : pos + w])
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
        x = int.from_bytes(buf[end - w : end])
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
