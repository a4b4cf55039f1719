"""Packets for tests: a varint oracle, frame objects, a reference walk
over a plaintext, and one way to craft and to open a protected datagram.

encode_forward, decode_forward, encode_reversed and
decode_reversed_backward are the varint layouts written out one field
at a time, apart from the program's packer (wire._pack) and readers
(wire.take_forward, wire.take_reversed), which tests check against them.
parse_forward and parse_reversed read a plaintext frame by frame, more
widely than recv: they also accept ping, max-stream-data and stream
frames with LEN. Tests check build_packet's datagrams against them.
frame_bytes, plaintext and seal write with the program's own encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from revquic import crypto, header, wire
from revquic.errors import EncodingOverflow, MalformedFrame, TransportError
from revquic.wire import _CLASS_LEN, _CLASS_MAX, STREAM_FIN, STREAM_OFF, TYPE_ANCHOR, TYPE_STREAM

# frame types and the LEN bit that no packet build_packet writes carries,
# and that recv rejects
TYPE_PADDING = 0x00
TYPE_PING = 0x01
STREAM_LEN = 0x02
TYPE_MAX_STREAM_DATA = 0x11


class UnknownFrameType(TransportError):
    """A type byte the reference walk does not know."""


class TruncatedVarInt(TransportError):
    """Buffer ends before the variable-length integer does."""


# --- the varint oracle ---


def _tag(v: int, length: int | None) -> tuple[int, int]:
    """Length tag and byte count for v, minimal unless length forces a
    wider class; the range check both encoders share."""
    if not 0 <= v < _CLASS_MAX[-1]:
        raise EncodingOverflow(f"{v} exceeds 62-bit varint range")
    tag = next(i for i, top in enumerate(_CLASS_MAX) if v < top)
    if length is not None:
        forced = _CLASS_LEN.index(length)
        if forced < tag:
            raise EncodingOverflow(f"{v} does not fit {length} bytes")
        tag = forced
    return tag, _CLASS_LEN[tag]


def encode_forward(v: int, length: int | None = None) -> bytes:
    """Encode v in the forward layout, minimal length unless forced."""
    tag, n = _tag(v, length)
    return ((tag << (8 * n - 2)) | v).to_bytes(n, "big")


def decode_forward(buf, pos: int = 0) -> tuple[int, int]:
    """Decode at pos; returns (value, consumed)."""
    if pos >= len(buf):
        raise TruncatedVarInt("empty input")
    tag = buf[pos] >> 6
    n = _CLASS_LEN[tag]
    if pos + n > len(buf):
        raise TruncatedVarInt(f"need {n} bytes, have {len(buf) - pos}")
    v = int.from_bytes(buf[pos : pos + n], "big")
    return v & (_CLASS_MAX[tag] - 1), n


def encode_reversed(v: int, length: int | None = None) -> bytes:
    """Encode v in the reversed layout, tag in the final byte."""
    tag, n = _tag(v, length)
    return ((v << 2) | tag).to_bytes(n, "big")


def decode_reversed_backward(buf, end: int) -> tuple[int, int]:
    """Decode the reversed varint whose last byte is at end-1.

    Returns (value, consumed); the caller steps its cursor back by
    consumed.
    """
    if end <= 0 or end > len(buf):
        raise TruncatedVarInt("cursor outside buffer")
    tag = buf[end - 1] & 0x03
    n = _CLASS_LEN[tag]
    if end - n < 0:
        raise TruncatedVarInt(f"need {n} bytes, have {end}")
    return int.from_bytes(buf[end - n : end], "big") >> 2, n


# the layouts share their class boundaries
reversed_length = wire.forward_length


# --- frames ---


@dataclass
class PaddingFrame:
    pass


@dataclass
class PingFrame:
    pass


@dataclass
class AckFrame:
    largest_acked: int
    ack_delay: int = 0
    ranges: list[tuple[int, int]] = field(default_factory=lambda: [(0, 1)])  # (gap, length)


@dataclass
class StreamFrame:
    stream_id: int
    offset: int
    data: object
    fin: bool = False
    # the LEN bit; None leaves it out only where the frame owns the rest
    explicit_len: bool | None = None


@dataclass
class MaxStreamDataFrame:
    stream_id: int
    maximum: int


@dataclass
class ConnectionCloseFrame:
    error_code: int
    reason: bytes = b""


def frame_bytes(f, reverso: bool, owner: bool = False) -> bytes:
    """One frame's bytes from the program's encoder for it. A stream
    frame without LEN is reverso's anchor, its data and one type byte,
    or baseline's wire.stream_fields and its data. A stream frame with
    LEN and a max-stream-data frame, which the program never writes, go
    through wire._pack; padding and ping are their type byte."""
    if isinstance(f, StreamFrame):
        explicit = f.explicit_len if f.explicit_len is not None else not owner
        if not explicit:
            if reverso:
                return bytes(f.data) + bytes((TYPE_ANCHOR | (STREAM_FIN if f.fin else 0),))
            return wire.stream_fields(f.stream_id, f.offset, f.fin) + bytes(f.data)
        t = TYPE_STREAM | STREAM_OFF | STREAM_LEN | (STREAM_FIN if f.fin else 0)
        fields = wire._pack(t, (f.stream_id, f.offset, len(f.data)), reverso)
        return bytes(f.data) + fields if reverso else fields + bytes(f.data)
    if isinstance(f, AckFrame):
        return wire.ack_fields(f.largest_acked, f.ack_delay, f.ranges, reverso)
    if isinstance(f, ConnectionCloseFrame):
        return wire.close_fields(f.error_code, f.reason, reverso)
    if isinstance(f, MaxStreamDataFrame):
        return wire._pack(TYPE_MAX_STREAM_DATA, (f.stream_id, f.maximum), reverso)
    return bytes((TYPE_PING if isinstance(f, PingFrame) else TYPE_PADDING,))


def plaintext(frames, reverso: bool) -> bytes:
    """frames' bytes in list order; the frame that owns the rest is the
    first in reverso and the last in baseline."""
    owner = 0 if reverso else len(frames) - 1
    return b"".join(frame_bytes(f, reverso, i == owner) for i, f in enumerate(frames))


def nonce(ks: crypto.KeySchedule, pn: int) -> bytes:
    return (ks._iv_int ^ pn).to_bytes(12, "big")


def seal(reverso: bool, ks, pn: int, pt, sid=0, offset=0, pn_len=1, off_len=None,
         dcid=0, key_phase=0) -> bytearray:
    """pt sealed under a protected header; the offset field defaults to
    the width build_packet gives it."""
    off_len = off_len or crypto.truncated_len(offset + 1, 0)
    hdr_len = header.PN_OFFSET + pn_len
    if reverso:
        hdr_len += header.wire_sid_length(sid) + off_len
    hdr = header.pack_header(reverso, pn, pn_len, sid, offset, off_len, dcid, key_phase)
    out = bytearray(hdr_len + len(pt) + crypto.TAG_LEN)
    ks._aead.encrypt_into(nonce(ks, pn), bytes(pt), hdr.to_bytes(hdr_len, "big"),
                          memoryview(out)[hdr_len:])
    header.protect(out, ks, hdr, hdr_len, reverso)
    return out


def open_packet(reverso: bool, ks, datagram, largest_pn: int):
    """Unprotect a copy of datagram and open it with the one-shot
    decrypt; returns (header length, packet number, stream id, offset,
    plaintext)."""
    packet = bytearray(datagram)
    hdr_len, pn, sid, off = header.unprotect(packet, ks, largest_pn, reverso)
    pt = ks._aead.decrypt(nonce(ks, pn), bytes(packet[hdr_len:]), bytes(packet[:hdr_len]))
    return hdr_len, pn, sid, off, pt


def parse_forward(plaintext) -> list:
    """Parse left to right."""
    frames: list = []
    pos = 0
    n = len(plaintext)
    while pos < n:
        t = plaintext[pos]
        pos += 1
        if t == TYPE_PADDING:
            frames.append(PaddingFrame())
        elif t == TYPE_PING:
            frames.append(PingFrame())
        elif t == wire.TYPE_ACK:
            largest, delay, ranges, pos = wire.take_ack_forward(plaintext, pos, n)
            frames.append(AckFrame(largest_acked=largest, ack_delay=delay, ranges=ranges))
        elif TYPE_STREAM <= t <= TYPE_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN:
            sid, *rest, pos = wire.take_forward(plaintext, pos, n, 1 + bool(t & STREAM_OFF) + bool(t & STREAM_LEN))
            offset = rest[0] if t & STREAM_OFF else 0
            dlen = rest[-1] if t & STREAM_LEN else n - pos  # LEN absent: owns the rest
            if pos + dlen > n:
                raise MalformedFrame("stream data extends past plaintext")
            data = plaintext[pos : pos + dlen]
            pos += dlen
            frames.append(StreamFrame(sid, offset, data, bool(t & STREAM_FIN), bool(t & STREAM_LEN)))
        elif t == TYPE_MAX_STREAM_DATA:
            sid, maximum, pos = wire.take_forward(plaintext, pos, n, 2)
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == wire.TYPE_CONNECTION_CLOSE:
            code, reason, pos = wire.take_close_forward(plaintext, pos, n)
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames


def parse_reversed(plaintext, stream_id: int = 0, offset: int = 0) -> list:
    """Parse right to left; frames return in processing order, so the
    anchor, when present, is LAST, as a LEN-absent StreamFrame at
    stream_id and offset, the packet header's fields. A stream frame
    with fields must have LEN set. Every iteration moves the cursor at
    least one byte left, so arbitrary input terminates."""
    frames: list = []
    cur = len(plaintext)
    while cur > 0:
        t = plaintext[cur - 1]
        cur -= 1
        if t == TYPE_PADDING:
            frames.append(PaddingFrame())
        elif t == TYPE_PING:
            frames.append(PingFrame())
        elif t == wire.TYPE_ACK:
            largest, delay, ranges, cur = wire.take_ack_reversed(plaintext, 0, cur)
            frames.append(AckFrame(largest_acked=largest, ack_delay=delay, ranges=ranges))
        elif t | STREAM_FIN == TYPE_ANCHOR | STREAM_FIN:
            # owns everything to the left; ends the walk
            frames.append(StreamFrame(stream_id, offset, plaintext[:cur], bool(t & STREAM_FIN), False))
            cur = 0
        elif t | STREAM_OFF | STREAM_FIN == TYPE_STREAM | STREAM_OFF | STREAM_LEN | STREAM_FIN:
            sid, *rest, dlen, cur = wire.take_reversed(plaintext, 0, cur, 3 if t & STREAM_OFF else 2)
            off = rest[0] if rest else 0
            if dlen > cur:
                raise MalformedFrame("stream data extends past cursor")
            data = plaintext[cur - dlen : cur]
            cur -= dlen
            frames.append(StreamFrame(sid, off, data, bool(t & STREAM_FIN), True))
        elif t == TYPE_MAX_STREAM_DATA:
            sid, maximum, cur = wire.take_reversed(plaintext, 0, cur, 2)
            frames.append(MaxStreamDataFrame(stream_id=sid, maximum=maximum))
        elif t == wire.TYPE_CONNECTION_CLOSE:
            code, reason, cur = wire.take_close_reversed(plaintext, 0, cur)
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownFrameType(f"type 0x{t:02x}")
    return frames
