"""Connection state machine: send and receive pipelines in both modes.

The receive pipeline is the measured artifact; one receive function,
recv, reads both layouts. In reversed mode the header's stream id and
offset are the one locator of a packet's stream data: the anchor frame
is the data and one type byte, and the header, the AEAD's associated
data, is authenticated with it. The receiver chooses the AEAD
destination from the still unauthenticated header: a packet is opened
straight into stream storage at the offset its header names, and
recorded there without a copy, when its whole footprint fits a hole at
or past the contiguous tail, in storage that already exists and short of
any data received past it; anything else is opened in place in the
datagram and its data copied once, to that same offset. A new stream's
buffer is bound only once the tag verifies. Baseline mode opens in place
in the datagram buffer, decodes forward, and copies validated stream
data into storage; that reassembly copy is the cost the reversed layout
removes. In both modes the receiver reads exactly the layout
build_packet writes, at most one stream frame (baseline: OFF set, LEN
absent; reverso: the anchor) beside at most one ack, one close and a
padding run, where they lie and without frame objects; any other frame
raises. A packet is decoded and checked in full before any of it
applies, so one that raises leaves no state behind. A received close
elicits no ack; the endpoint then drains, discarding what arrives and
sending nothing (RFC 9000 §10.2.2).

Reliability is deliberately minimal: fixed retransmission timeout, a
fixed in-flight window, ack-every-data-packet. A stream's queued bytes
stay in its send buffer, one piece per stream_send call, until a whole
piece is acked; a fragment is a span of the buffer, copied once into its
datagram on every send. Fragment boundaries are chosen so a
retransmission always fits a full-size datagram even with worst-case
header growth, which keeps offsets dense and makes spurious
retransmissions exactly identifiable (entirely below the contiguous
watermark).
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace

from cryptography.exceptions import InvalidTag

from . import crypto, header, wire
from .crypto import TAG_LEN
from .errors import (
    BufferTooSmall,
    MalformedFrame,
    MalformedHeader,
    PacketTooShortForSampling,
    ProtocolViolation,
    SendAfterFin,
    StreamIdOverflow,
    StreamNotFound,
    TruncationRangeError,
)
from .mode import WireMode
from .stream_buf import AppRecvBufMap
from .wire import _CLASS_LEN, _CLASS_MAX

MAX_DATAGRAM = 1350
SEND_WINDOW = 64  # packets in flight
DEFAULT_RTO = 0.25  # seconds a packet stays unacked before it is sent again

# the last stream offset reverso's header can carry: build_packet
# truncates offset + 1 against 0 into 4 bytes
MAX_REVERSO_OFFSET = (1 << 31) - 2

# reserve the header's worst-case packet number and offset widths (the
# pn truncation can widen between original send and retransmission);
# budgeting fragments against this keeps boundaries stable across
# retransmits
_PN_RESERVE = 4
_OFF_RESERVE = 4

# a fresh fragment's room before the frame's own cost
_ROOM = MAX_DATAGRAM - (1 + header.DCID_LEN + _PN_RESERVE) - TAG_LEN
_Span = tuple[int, int, int, bool]  # a fragment: stream id, offset, length, fin

# a close's room under a baseline header beside the largest ack
# _build_ack writes: type, largest (8 bytes at most), delay 0 and range
# count in 11 bytes, then MAX_ACK_RANGES gap and length pairs of 16
_CLOSE_ROOM = MAX_DATAGRAM - TAG_LEN - header.PN_OFFSET - _PN_RESERVE - (11 + 16 * wire.MAX_ACK_RANGES)

# the anchor's type with its FIN bit set, for one comparison per packet
_ANCHOR_FIN = wire.TYPE_ANCHOR | wire.STREAM_FIN

# the padding source: a packet pads its plaintext to at most MIN_PLAINTEXT
_ZEROS = memoryview(bytes(header.MIN_PLAINTEXT))
# a send stream's view before its first span, of no piece
_NO_VIEW = memoryview(b"")

# a send buffer drops its acked pieces once this many bytes per span then
# in flight have been sent: the scan of those spans costs a fixed share
# of each byte sent, and the buffer stays near the bytes in flight plus
# one piece
_RELEASE_PER_SPAN = 512


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


@dataclass
class Metrics:
    payload_bytes_copied: int = 0
    payload_bytes_zero_copy: int = 0
    packets_in_order: int = 0
    packets_out_of_order: int = 0
    packets_spurious: int = 0
    packets_control_only: int = 0
    decrypt_failures: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def ordered_ratio(self) -> float:
        """The share of data packets that arrived at their stream's
        contiguous offset; 1.0 when none arrived."""
        data = self.packets_in_order + self.packets_out_of_order + self.packets_spurious
        return self.packets_in_order / data if data else 1.0


@dataclass
class _SendStream:
    """pieces: the stream's bytes from base_offset, at or below its lowest
    unacked byte, to the end of queued data, one bytes object per
    stream_send call; a piece is dropped whole once it is all acked, so
    releasing never copies the bytes still queued."""

    stream_id: int
    pieces: list[bytes] = field(default_factory=list)
    size: int = 0  # bytes in pieces
    base_offset: int = 0  # stream offset of pieces[0][0]
    next_offset: int = 0  # first byte never sent
    release_at: int = 0  # next_offset that triggers the next release
    fin_queued: bool = False
    fin_sent: bool = False
    frame_cost: int = 0  # fragment budget spent on the frame, fixed per stream
    sid_len: int = 0  # reverso: header.wire_sid_length(stream_id)
    view: memoryview = _NO_VIEW  # of the piece the last span read in part

    def span(self, offset: int, n: int):
        """The n queued bytes from stream offset offset: the piece that
        holds them when they are all of it, else a slice of the view of
        that piece, or, for a span that crosses pieces, the join of its
        parts. The stream keeps one view, of the last piece read in part,
        so a run of spans through one piece builds one view."""
        lo = offset - self.base_offset
        pieces = iter(self.pieces)
        for p in pieces:
            if lo < len(p):
                break
            lo -= len(p)
        else:
            return b""  # a fin alone, past every queued byte
        if lo + n <= len(p):
            if n == len(p):
                return p
            view = self.view
            if view.obj is not p:
                view = self.view = memoryview(p)
            return view[lo : lo + n]
        parts = [memoryview(p)[lo:]]
        n -= len(p) - lo
        for p in pieces:
            parts.append(memoryview(p)[:n])
            n -= len(p)
            if n <= 0:
                break
        return b"".join(parts)


class Connection:
    def __init__(
        self,
        mode: WireMode,
        role: Role,
        shared_secret: bytes,
        keys: tuple[crypto.KeySchedule, crypto.KeySchedule] | None = None,
    ) -> None:
        self.mode = mode
        self._reverso = mode is WireMode.REVERSO  # the mode test, made once
        self.role = role
        if keys is not None:
            # precomputed (send, recv) schedules; benchmark repetitions
            # rebuild connections without paying key derivation again
            self.send_keys, self.recv_keys = keys
        else:
            c2s = crypto.derive_keys(shared_secret, "c2s")
            s2c = crypto.derive_keys(shared_secret, "s2c")
            if role is Role.CLIENT:
                self.send_keys, self.recv_keys = c2s, s2c
            else:
                self.send_keys, self.recv_keys = s2c, c2s
        self.next_pn = 0
        self.largest_received_pn = 0
        self.largest_peer_acked = 0
        self.send_streams: dict[int, _SendStream] = {}
        self.unacked: dict[int, tuple[float, _Span]] = {}  # pn -> (sent, span)
        self.ack_pending: set[int] = set()
        self.closed = False
        self.close_error: tuple[int, bytes] | None = None
        self._metrics = Metrics()
        self._retransmit: deque[_Span] = deque()
        self._close_queued: bytes | None = None  # the close frame's bytes
        self._rr: deque[_SendStream] = deque()  # round-robin stream order
        self._appbuf: AppRecvBufMap | None = None

    # --- sending ---

    def stream_send(self, stream_id: int, data, fin: bool = False) -> int:
        if not 1 <= stream_id <= header.MAX_STREAM_ID:
            raise StreamIdOverflow(f"stream id {stream_id} outside [1, 2^30)")
        ss = self.send_streams.get(stream_id)
        if ss is None:
            # the type byte, then the stream id's varint (baseline) or the
            # header's wire stream id and offset reserve (reverso)
            if self._reverso:
                sid_len = header.wire_sid_length(stream_id)
                ss = _SendStream(stream_id, frame_cost=1 + sid_len + _OFF_RESERVE, sid_len=sid_len)
            else:
                ss = _SendStream(stream_id, frame_cost=1 + wire.forward_length(stream_id))
            self.send_streams[stream_id] = ss
            self._rr.append(ss)
        if ss.fin_queued:
            raise SendAfterFin(f"stream {stream_id} already finished")
        end = ss.base_offset + ss.size + len(data)
        if self._reverso and end > MAX_REVERSO_OFFSET:
            raise TruncationRangeError(f"stream {stream_id} would end past offset {MAX_REVERSO_OFFSET}")
        if data:
            # copied once, bytes included, so the send buffer owns what it
            # holds: a kept caller object places the buffer's memory by
            # the caller's allocations, which made lossy round-trip tails
            # differ from one process to the next (see CHANGES.md)
            piece = bytes(memoryview(data))
            ss.pieces.append(piece)
            ss.size += len(piece)
        if fin:
            ss.fin_queued = True
        return len(data)

    def queue_close(self, error_code: int = 0, reason: bytes = b"") -> None:
        """Queue a close for the next packet; BufferTooSmall, queueing
        nothing, if it would not fit there beside the largest ack."""
        reverso = self._reverso
        close = wire.close_fields(error_code, reason, reverso)
        # reverso's header adds a one-byte stream id and offset
        if len(close) > _CLOSE_ROOM - 2 * reverso:
            raise BufferTooSmall(f"a {len(close)}-byte close frame does not fit beside an ack")
        self._close_queued = close

    def _next_fragment(self, overhead: int) -> _Span | None:
        """Pick a fresh span (stream id, offset, length, fin) round-robin
        across streams, budgeted against worst-case header growth so a
        later retransmission of it can never overflow a datagram. Its
        bytes stay where they are, in the stream's send buffer."""
        if len(self.unacked) >= SEND_WINDOW:
            return None
        room = _ROOM - overhead
        reverso = self._reverso
        rr = self._rr
        for _ in range(len(rr)):
            ss = rr[0]
            rr.rotate(-1)
            offset = ss.next_offset
            queued = ss.base_offset + ss.size - offset
            if not queued and not (ss.fin_queued and not ss.fin_sent):
                continue
            # baseline's offset varint is the one part that grows
            budget = room - ss.frame_cost
            if not reverso:
                budget -= wire.forward_length(offset)
            if budget <= 0:
                continue
            # nothing queued here means a fin to send: a zero-length span
            n = queued if queued < budget else budget
            fin = ss.fin_queued and n == queued
            ss.next_offset = end = offset + n
            if fin:
                ss.fin_sent = True
            if end >= ss.release_at:
                self._release(ss, offset)
            return ss.stream_id, offset, n, fin
        return None

    def _release(self, ss: _SendStream, low: int) -> None:
        """Drop the pieces of ss's send buffer that end by low and by
        every span of it still in flight, and set the next release. A
        piece is dropped whole, never cut, so nothing queued is copied.
        Called only while no span awaits retransmission: build_packet
        sends those first."""
        pieces = ss.pieces
        if pieces and ss.base_offset + len(pieces[0]) <= low:
            sid = ss.stream_id
            for _, span in self.unacked.values():
                if span[0] == sid and span[1] < low:
                    low = span[1]
            base, i = ss.base_offset, 0
            while i < len(pieces) and base + len(pieces[i]) <= low:
                base += len(pieces[i])
                i += 1
            del pieces[:i]
            ss.size -= base - ss.base_offset
            ss.base_offset = base
            ss.view = _NO_VIEW  # holds no dropped piece
        # nothing more can go before a fragment reaches the first piece's end
        ss.release_at = max(
            ss.next_offset + _RELEASE_PER_SPAN * (len(self.unacked) + 1),
            ss.base_offset + len(pieces[0]) if pieces else 0,
        )

    def _build_ack(self) -> tuple[int, list[tuple[int, int]]] | None:
        """The pending packet numbers as (largest, ranges) for
        wire.ack_fields, or None when nothing awaits an ack."""
        pending = self.ack_pending
        if not pending:
            return None
        largest = max(pending)
        n = len(pending)
        if n == 1 or largest - min(pending) < n:  # one range, the common case
            pending.clear()
            return largest, [(0, n)]
        pns = sorted(pending, reverse=True)
        ranges = []
        cursor = largest
        i = 0
        while i < len(pns) and len(ranges) < wire.MAX_ACK_RANGES:
            top = pns[i]
            bottom = top
            while i + 1 < len(pns) and pns[i + 1] == bottom - 1:
                bottom = pns[i + 1]
                i += 1
            i += 1
            gap = cursor - top
            ranges.append((gap, top - bottom + 1))
            cursor = bottom - 1
        # numbers past the range cap stay pending for the next ack
        self.ack_pending = set(pns[i:])
        return largest, ranges

    def build_packet(self, out, now: float | None = None) -> int | None:
        """Assemble, seal and protect one datagram into out in one pass.

        Returns the datagram length, or None when there is nothing to
        send or the connection drains. At most one stream frame per
        packet; pending acks and a queued close ride along. No frame,
        fragment or header objects are built: a fragment's data is
        copied once, from its span of the send buffer straight into out;
        wire.stream_fields (baseline), wire.ack_fields and
        wire.close_fields give the frames' bytes; the header is one
        integer from header.pack_header. The plaintext is sealed in place
        with encrypt_into, and header.protect writes the masked header
        into out once.

        Reverso plaintext: stream data, the anchor's type byte, ack,
        close, padding; the header carries the stream id and the whole
        offset. Baseline: ack, close, padding, then the stream frame,
        which owns the remainder.
        """
        if len(out) < MAX_DATAGRAM:
            raise BufferTooSmall(f"need {MAX_DATAGRAM}, got {len(out)}")
        if self.closed:
            return None  # draining (RFC 9000 §10.2.2): a received close ends sending
        if now is None:
            now = time.monotonic()
        reverso = self._reverso

        ack = close = None
        ctrl_len = 0
        if self._retransmit:
            # a retransmitted span was budgeted without companions; acks
            # and close wait for the next packet so it always fits
            span = self._retransmit.popleft()
        else:
            if self.ack_pending:
                largest, ranges = self._build_ack()
                ack = wire.ack_fields(largest, 0, ranges, reverso)
                ctrl_len = len(ack)
            if self._close_queued is not None:
                close = self._close_queued
                ctrl_len += len(close)
                self._close_queued = None
            span = self._next_fragment(ctrl_len)
            if span is None and not ctrl_len:
                return None

        pn = self.next_pn
        self.next_pn = pn + 1
        pn_len = crypto.truncated_len(pn + 1, self.largest_peer_acked)
        hdr_len = header.PN_OFFSET + pn_len
        off_len = sid_len = 1
        if span is not None:
            sid, offset, n, fin = span
            ss = self.send_streams[sid]
            data = ss.span(offset, n)
            if reverso:
                stream_len = n + 1
                off_len = crypto.truncated_len(offset + 1, 0)
                sid_len = ss.sid_len
            else:  # baseline's header has no offset field
                fields = wire.stream_fields(sid, offset, fin)
                stream_len = len(fields) + n
        else:
            sid = offset = stream_len = 0
        if reverso:
            hdr_len += sid_len + off_len
        hdr = header.pack_header(reverso, pn, pn_len, sid, offset, off_len, 0, 0, sid_len)
        pad = header.MIN_PLAINTEXT - ctrl_len - stream_len
        end = hdr_len + ctrl_len + stream_len + max(pad, 0)
        total = end + TAG_LEN
        assert total <= MAX_DATAGRAM

        view = memoryview(out)
        pos = hdr_len
        if reverso and span is not None:
            pos += n
            view[hdr_len:pos] = data
            view[pos] = wire.TYPE_ANCHOR | fin
            pos += 1
        if ack is not None:
            view[pos : pos + len(ack)] = ack
            pos += len(ack)
        if close is not None:
            view[pos : pos + len(close)] = close
            pos += len(close)
        if pad > 0:
            view[pos : pos + pad] = _ZEROS[:pad]
            pos += pad
        if not reverso and span is not None:
            view[pos : pos + len(fields)] = fields
            view[pos + len(fields) : end] = data
        ks = self.send_keys
        ks._aead.encrypt_into(
            (ks._iv_int ^ pn).to_bytes(12), view[hdr_len:end], hdr.to_bytes(hdr_len),
            view[hdr_len:total],
        )
        header.protect(view, ks, hdr, hdr_len, reverso)

        if span is not None:
            self.unacked[pn] = (now, span)
        self._metrics.bytes_sent += total
        return total

    def on_timeout(self, now: float) -> None:
        """Re-queue the spans of packets unacked past the timeout, oldest
        first. now must never decrease over calls of build_packet and
        on_timeout: send times then rise along unacked, filled in packet
        number order, so the walk stops at the first packet not expired."""
        expired = []
        for pn, (sent, _) in self.unacked.items():
            if now - sent < DEFAULT_RTO:
                break
            expired.append(pn)
        for pn in expired:
            self._retransmit.append(self.unacked.pop(pn)[1])
            self._metrics.retransmissions += 1

    # --- receiving ---
    #
    # One receive function for both modes, and one route through it.
    # header.unprotect, the decrypt_into open, the ack and close apply
    # and the packet-number update are the same code in both; only
    # reverso's choice of AEAD destination, each layout's walk and its
    # stream-data apply branch on the mode. Each walk reads exactly the
    # layout build_packet writes: at most one stream frame (baseline type
    # 0x0C/0x0D, reverso's anchor 0x20/0x21), owning the rest of the
    # plaintext, beside at most one ack, at most one close and a padding
    # run. Each is read where it lies, without frame objects, because
    # per-object interpreter cost dominates the per-packet budget. Any
    # other frame (ping, max-stream-data, a stream frame with LEN or
    # without OFF, or with fields in reverso, a second ack or stream
    # frame, an unknown type) raises ProtocolViolation. The whole packet
    # is decoded and checked, its ack by _check_ack, before any of it
    # applies; then its stream data (recorded where it was opened when
    # reverso opened it at its offset, placed in storage through _deliver
    # otherwise), its ack through _on_ack, and its close, in that order.
    # After a close, recv discards each datagram unread.

    def recv(self, datagram, appbuf: AppRecvBufMap) -> int:
        """Process one datagram; returns bytes consumed from it.

        Authentication failures are silent: the packet is dropped, a
        counter ticks, and no state visible to the peer changes; so does
        a header that does not unprotect, as under another key. An
        authenticated packet that raises has applied nothing.

        datagram must be writable and private to this call: the header
        is unprotected in place, and the in-place lanes decrypt over the
        ciphertext, so its bytes are overwritten, with unauthenticated
        garbage when the tag check fails.
        """
        self._appbuf = appbuf
        buf = memoryview(datagram)
        blen = len(buf)
        m = self._metrics
        m.bytes_received += blen
        if self.closed:
            return blen  # draining (RFC 9000 §10.2.2): discard unread
        reverso = self._reverso
        ks = self.recv_keys
        try:
            hdr_len, pn, sid, off = header.unprotect(buf, ks, self.largest_received_pn, reverso)
        except (MalformedHeader, PacketTooShortForSampling):
            m.decrypt_failures += 1  # as under another key
            return blen
        # the plaintext is store[lo:hi]: in place over the ciphertext,
        # aliased exactly, unless reverso opens it at its offset
        store, lo, hi = buf, hdr_len, blen - TAG_LEN
        if reverso:
            # The header, which carries the whole offset, locates the
            # stream data. Open at it when the whole footprint, trailer
            # and a failed tag's garbage included, lies in a hole: at or
            # past the tail, inside storage that exists (nothing grows
            # before the tag verifies) and ending by the next received
            # range
            sbuf = appbuf.buffers.get(sid)  # never holds stream 0
            staged = sbuf is None and sid != 0
            if staged:
                # the spare, bound through adopt once the packet checks out
                sbuf = appbuf._materialize_spare()
            if sbuf is not None and off >= sbuf.contiguous_offset:
                at = off - sbuf.base_offset
                pt_len = hi - lo
                ends = sbuf.ends
                if at + pt_len <= len(sbuf.storage) and (
                    not ends or off >= ends[-1]
                    or off + pt_len <= sbuf.starts[bisect_right(ends, off)]
                ):
                    store, lo, hi = sbuf.storage, at, at + pt_len
        try:
            ks._aead.decrypt_into(
                (ks._iv_int ^ pn).to_bytes(12), buf[hdr_len:], buf[:hdr_len],
                store[lo:hi],
            )
        except InvalidTag:
            m.decrypt_failures += 1
            return blen

        close = None
        acked = False  # an ack decoded here that passed _check_ack
        if reverso:
            # Walk back from the end: a padding run, a close, an ack,
            # then the anchor's type byte, after the stream data that
            # starts the plaintext. The authenticated header locates
            # that data.
            cur = hi
            t = store[cur - 1] if cur > lo else -1
            if not t:
                cur = wire.padding_start(store, lo, cur)
                t = store[cur - 1] if cur > lo else -1
            if t == 0x1C:  # connection close
                code, reason, cur = wire.take_close_reversed(store, lo, cur - 1)
                close = code, reason
                t = store[cur - 1] if cur > lo else -1
            if t == 0x02:  # ack
                largest, _, ranges, cur = wire.take_ack_reversed(store, lo, cur - 1)
                acked = self._check_ack(largest, ranges)
                t = store[cur - 1] if cur > lo else -1
            if t | 0x01 == _ANCHOR_FIN:
                fin = t & 0x01
                data_len = cur - 1 - lo
                if store is not buf:
                    # opened at its offset: record it there, no copy
                    in_order = off == sbuf.contiguous_offset
                    if sbuf.commit(off, off + data_len, fin):
                        m.payload_bytes_zero_copy += data_len
                        self.ack_pending.add(pn)
                    if staged:
                        appbuf.adopt(sid)
                    if in_order:
                        m.packets_in_order += 1
                    else:
                        m.packets_out_of_order += 1
                else:
                    if sid == 0:
                        raise ProtocolViolation("stream frame in a control-only packet")
                    if not self._deliver(appbuf, sid, off, store[lo : cur - 1], fin):
                        self.ack_pending.add(pn)
            elif t < 0:
                if sid:
                    raise ProtocolViolation("header names a stream but no anchor frame found")
                m.packets_control_only += 1
            else:
                raise ProtocolViolation(f"frame type 0x{t:02x} outside the packet layout")
        else:
            # walk forward: an ack, a close, a padding run, then a
            # stream frame that owns the rest
            pos = lo
            t = buf[pos] if hi > pos else -1
            if t == 0x02:  # ack
                largest, _, ranges, pos = wire.take_ack_forward(buf, pos + 1, hi)
                acked = self._check_ack(largest, ranges)
                t = buf[pos] if hi > pos else -1
            if t == 0x1C:  # connection close
                code, reason, pos = wire.take_close_forward(buf, pos + 1, hi)
                close = code, reason
                t = buf[pos] if hi > pos else -1
            if not t:
                pos = wire.padding_end(buf, pos, hi)
                t = buf[pos] if hi > pos else -1
            if t | 0x01 == 0x0D:
                # the stream frame: stream id, then offset, then its
                # data. Read inline, not through wire.take_forward: the
                # call adds about 300 ns a packet (600-620 ns inline,
                # 900-930 through it, for a 1-byte stream id and a
                # 4-byte offset, CPython 3.11 on a 2-vCPU Xeon), 5 % of a
                # ~5.8 us baseline packet, which would tilt the mode
                # comparison toward reverso
                pos += 1
                if pos >= hi:
                    raise MalformedFrame("truncated varint")
                b = buf[pos]
                n = _CLASS_LEN[b >> 6]
                if pos + n > hi:
                    raise MalformedFrame("truncated varint")
                sid = (
                    b & 0x3F if n == 1
                    else int.from_bytes(buf[pos : pos + n]) & (_CLASS_MAX[b >> 6] - 1)
                )
                pos += n
                if pos >= hi:
                    raise MalformedFrame("truncated varint")
                b = buf[pos]
                n = _CLASS_LEN[b >> 6]
                if pos + n > hi:
                    raise MalformedFrame("truncated varint")
                off = (
                    b & 0x3F if n == 1
                    else (b & 0x3F) << 8 | buf[pos + 1] if n == 2
                    else int.from_bytes(buf[pos : pos + n]) & (_CLASS_MAX[b >> 6] - 1)
                )
                pos += n
                sbuf = appbuf.buffers.get(sid)  # never holds stream 0
                if sbuf is not None and off == sbuf.contiguous_offset:
                    m.payload_bytes_copied += sbuf.place(off, buf[pos:hi], t & 0x01)
                    m.packets_in_order += 1
                    self.ack_pending.add(pn)
                elif not self._deliver(appbuf, sid, off, buf[pos:hi], t & 0x01):
                    self.ack_pending.add(pn)
            elif t < 0:
                m.packets_control_only += 1
            else:
                raise ProtocolViolation(f"frame type 0x{t:02x} outside the packet layout")
        if acked:
            self._on_ack(largest, ranges)
        if close is not None:
            self.closed = True
            self.close_error = close
        # only a packet that applied moves the expansion reference
        if pn > self.largest_received_pn:
            self.largest_received_pn = pn
        return blen

    def _deliver(self, appbuf: AppRecvBufMap, sid: int, offset: int, data, fin) -> bool:
        """Place one authenticated stream fragment in its stream's
        storage; returns True when the ack for its packet must be
        suppressed (the fragment ends past the reassembly window, was
        dropped and needs retransmission)."""
        m = self._metrics
        if sid == 0 or sid > header.MAX_STREAM_ID:
            raise ProtocolViolation(f"bad stream id {sid} in stream frame")
        sbuf = appbuf.adopt(sid)
        contiguous = sbuf.contiguous_offset
        copied = sbuf.place(offset, data, fin)
        if offset == contiguous:
            m.packets_in_order += 1
        elif offset > contiguous:
            m.packets_out_of_order += 1
        else:
            m.packets_spurious += 1
        if copied < 0:
            return True
        m.payload_bytes_copied += copied
        return False

    def _check_ack(self, largest: int, ranges) -> bool:
        """The one ack validator, run before anything of its packet is
        applied. Ranges reaching below packet number 0 are malformed
        (RFC 9000 §19.3.1) and raise. An ack naming a packet never sent
        (largest >= next_pn, RFC 9000 §13.1) returns False: the ack is
        dropped and the rest of the packet applies. Dropping rather
        than closing keeps perfbench's replays working, which feed a
        capture's datagrams, acks included, to a fresh receiver that has
        sent nothing."""
        span = 0
        for gap, length in ranges:
            span += gap + length
        if span > largest + 1:
            raise MalformedFrame(f"ack ranges reach {largest + 1 - span}, below packet number 0")
        return largest < self.next_pn

    def _on_ack(self, largest: int, ranges) -> None:
        """Apply an ack that passed _check_ack: ranges of (gap, length)
        descending from largest, as wire.ack_fields writes them."""
        if largest > self.largest_peer_acked:
            self.largest_peer_acked = largest
        pop = self.unacked.pop
        if len(ranges) == 1 and ranges[0][1] <= 2 * SEND_WINDOW:
            # one range, the common case
            top = largest - ranges[0][0]
            for pn in range(top - ranges[0][1] + 1, top + 1):
                pop(pn, None)
            return
        cursor = largest
        for gap, length in ranges:
            cursor -= gap
            lo = cursor - length + 1
            if length > 2 * SEND_WINDOW:
                # absurdly wide range: intersect with what is in flight
                # instead of iterating the range
                for pn in [p for p in self.unacked if lo <= p <= cursor]:
                    del self.unacked[pn]
            else:
                for pn in range(lo, cursor + 1):
                    pop(pn, None)
            cursor -= length

    # --- application surface ---

    def readable(self) -> list[int]:
        """Streams with bytes to read, or whose final size is reached but
        not consumed (a fin after the last read; consuming frees storage)."""
        if self._appbuf is None:
            return []
        return [
            sid
            for sid, sbuf in self._appbuf.buffers.items()
            if sbuf.contiguous_offset > sbuf.consumed_offset
            or sbuf.fin_offset == sbuf.consumed_offset and sbuf.storage
        ]

    def stream_recv(self, stream_id: int, appbuf: AppRecvBufMap):
        sbuf = appbuf.get(stream_id)
        if sbuf is None:
            raise StreamNotFound(f"stream {stream_id}")
        view, _, fin = sbuf.readable_span()
        return view, fin

    def stream_consumed(self, stream_id: int, n: int, appbuf: AppRecvBufMap) -> None:
        sbuf = appbuf.get(stream_id)
        if sbuf is None:
            raise StreamNotFound(f"stream {stream_id}")
        sbuf.consume(n)

    def metrics(self) -> Metrics:
        return replace(self._metrics)

    def send_done(self) -> bool:
        """All queued data sent and acknowledged; the send buffers, then
        holding only acked bytes, are released."""
        streams = self.send_streams.values()
        if self._retransmit or self.unacked or any(
                ss.next_offset < ss.base_offset + ss.size or ss.fin_queued and not ss.fin_sent
                for ss in streams):
            return False
        for ss in streams:
            self._release(ss, ss.next_offset)
        return True

