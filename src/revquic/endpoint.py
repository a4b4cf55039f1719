"""Connection state machine: send and receive pipelines in both modes.

The receive pipeline is the measured artifact; each mode has one receive
function. Reversed mode chooses the AEAD destination from the
unauthenticated header alone: a packet continuing its stream's
contiguous tail is opened straight into stream storage and committed
there without a copy, anything else is opened in place in the datagram.
A new stream's buffer is bound only once the tag verifies and the
anchor frame's footer agrees with the header. Baseline mode opens in
place in the datagram buffer, decodes forward, and copies validated
stream data into storage; that reassembly copy is the cost the reversed
layout removes. In both modes the ack and padding that ride with the
stream data are read where they lie, without frame objects.

Reliability is deliberately minimal: fixed retransmission timeout, a
fixed in-flight window, ack-every-data-packet. Fragment boundaries are
chosen so a retransmission always fits a full-size datagram even with
worst-case header growth, which keeps offsets dense and makes spurious
retransmissions exactly identifiable (entirely below the contiguous
watermark).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field, replace

from cryptography.exceptions import InvalidTag

from . import crypto, header, wire
from .crypto import TAG_LEN
from .errors import (
    BufferTooSmall,
    MalformedFrame,
    ProtocolViolation,
    SendAfterFin,
    StreamIdOverflow,
    StreamNotFound,
)
from .mode import WireMode
from .stream_buf import AppRecvBufMap
from .varint import _CLASS_LEN as _VLEN, _CLASS_MAX as _VMAX

MAX_DATAGRAM = 1350
SEND_WINDOW = 64  # packets in flight
DEFAULT_RTO = 0.25

# reserve worst-case header growth (pn and offset truncations can widen
# between original send and retransmission); budgeting fragments against
# this keeps boundaries stable across retransmits
_PN_RESERVE = 4
_OFF_RESERVE = 4


def _footer_mismatch(f_sid: int, f_off: int, sid: int, offset: int) -> ProtocolViolation:
    """The header's stream fields restate the anchor frame's footer; both
    are authenticated, so disagreement is the peer's violation."""
    return ProtocolViolation(f"footer ({f_sid}, {f_off}) disagrees with header ({sid}, {offset})")


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


@dataclass
class Metrics:
    payload_bytes_copied: int = 0
    payload_bytes_zero_copy: int = 0
    payload_bytes_stashed: int = 0
    packets_in_order: int = 0
    packets_out_of_order: int = 0
    packets_spurious: int = 0
    packets_control_only: int = 0
    decrypt_failures: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


@dataclass
class _SendStream:
    stream_id: int
    queue: bytearray = field(default_factory=bytearray)
    next_offset: int = 0  # stream offset of queue[0]
    fin_queued: bool = False
    fin_sent: bool = False
    frame_cost: int = 0  # fragment budget spent on the stream id, fixed per stream


@dataclass
class _Fragment:
    stream_id: int
    offset: int
    data: bytes
    fin: bool


class Connection:
    def __init__(
        self,
        mode: WireMode,
        role: Role,
        shared_secret: bytes,
        keys: tuple[crypto.KeySchedule, crypto.KeySchedule] | None = None,
    ) -> None:
        self.mode = mode
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
        self.unacked: dict[int, tuple[float, list[_Fragment]]] = {}
        self.ack_pending: set[int] = set()
        self.rto = DEFAULT_RTO
        self.closed = False
        self.close_error: tuple[int, bytes] | None = None
        self._metrics = Metrics()
        self._retransmit: deque[_Fragment] = deque()
        self._close_queued: tuple[int, bytes] | None = None
        self._rr: deque[int] = deque()  # round-robin stream order
        self._appbuf: AppRecvBufMap | None = None

    # --- sending ---

    def stream_send(self, stream_id: int, data, fin: bool = False) -> int:
        if not 1 <= stream_id <= header.MAX_STREAM_ID:
            raise StreamIdOverflow(f"stream id {stream_id} outside [1, 2^30)")
        ss = self.send_streams.get(stream_id)
        if ss is None:
            # the type byte, the stream id's varint and, in reverso, the
            # wire stream id and the offset reserve in the header
            cost = 1 + wire.forward_length(stream_id)
            if self.mode is WireMode.REVERSO:
                cost += _OFF_RESERVE + header.wire_sid_length(stream_id)
            ss = _SendStream(stream_id, frame_cost=cost)
            self.send_streams[stream_id] = ss
            self._rr.append(stream_id)
        if ss.fin_queued:
            raise SendAfterFin(f"stream {stream_id} already finished")
        ss.queue += data
        if fin:
            ss.fin_queued = True
        return len(data)

    def queue_close(self, error_code: int = 0, reason: bytes = b"") -> None:
        self._close_queued = (error_code, reason)

    def _next_fragment(self, overhead: int) -> _Fragment | None:
        """Pick a fresh data fragment round-robin across streams,
        budgeted against worst-case header growth so a later
        retransmission of it can never overflow a datagram."""
        if len(self.unacked) >= SEND_WINDOW:
            return None
        room = MAX_DATAGRAM - (1 + header.DCID_LEN + _PN_RESERVE) - TAG_LEN - overhead
        for _ in range(len(self._rr)):
            sid = self._rr[0]
            self._rr.rotate(-1)
            ss = self.send_streams[sid]
            if not ss.queue and not (ss.fin_queued and not ss.fin_sent):
                continue
            # the offset's varint is the one part that grows
            budget = room - ss.frame_cost - wire.forward_length(ss.next_offset)
            if budget <= 0:
                continue
            # an empty queue here has a fin to send: a zero-length fragment
            n = min(len(ss.queue), budget)
            with memoryview(ss.queue) as queued:
                data = bytes(queued[:n])
            del ss.queue[:n]
            fin = ss.fin_queued and not ss.queue
            offset = ss.next_offset
            ss.next_offset += n
            if fin:
                ss.fin_sent = True
            return _Fragment(sid, offset, data, fin)
        return None

    def _build_ack(self) -> tuple[int, list[tuple[int, int]]] | None:
        """The pending packet numbers as (largest, ranges) for
        wire.ack_fields, or None when nothing awaits an ack."""
        if not self.ack_pending:
            return None
        pns = sorted(self.ack_pending, reverse=True)
        ranges: list[tuple[int, int]] = []
        cursor = pns[0]
        largest = pns[0]
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
        send. At most one stream frame per packet; pending acks and a
        queued close ride along. No frame or header objects are built
        for the stream data or the ack: header.pack_header writes the
        header as one integer, wire.stream_fields and wire.ack_fields
        give the frames' fields and the data is copied once, straight
        from the fragment into out; only a close goes through
        wire.serialize_*. The plaintext is sealed in place with
        encrypt_into and header.protect masks the header as one integer
        window.

        Reverso plaintext: stream data, its footer, control frames,
        padding. Baseline: control frames, padding, then the stream
        frame, which owns the remainder.
        """
        if len(out) < MAX_DATAGRAM:
            raise BufferTooSmall(f"need {MAX_DATAGRAM}, got {len(out)}")
        if now is None:
            now = time.monotonic()
        reverso = self.mode is WireMode.REVERSO

        ack = close = None
        ctrl_len = 0
        if self._retransmit:
            # a retransmitted fragment was budgeted without companions;
            # acks and close wait for the next packet so it always fits
            frag = self._retransmit.popleft()
        else:
            pending = self._build_ack()
            if pending is not None:
                ack = wire.ack_fields(pending[0], 0, pending[1], reverso)
                ctrl_len = len(ack)
            if self._close_queued is not None:
                code, reason = self._close_queued
                close = wire.ConnectionCloseFrame(error_code=code, reason=reason)
                ctrl_len += wire.frame_wire_size(close, self.mode)
                self._close_queued = None
            frag = self._next_fragment(ctrl_len)
            if frag is None and not ctrl_len:
                return None

        pn = self.next_pn
        self.next_pn = pn + 1
        pn_len = crypto.truncated_len(max(pn - self.largest_peer_acked, 0) + 1, 0)
        if frag is not None:
            sid, offset, data = frag.stream_id, frag.offset, frag.data
            fields = wire.stream_fields(sid, offset, len(data), frag.fin, False, reverso)
            stream_len = len(fields) + len(data)
            ahead = self.send_streams[sid].next_offset - offset
            off_len = crypto.truncated_len(max(offset, ahead) + 1, 0)
        else:
            sid = offset = stream_len = 0
            off_len = 1
        hdr = header.pack_header(reverso, pn, pn_len, sid, offset, off_len)
        hdr_len = len(hdr)
        pad = header.MIN_PLAINTEXT - ctrl_len - stream_len
        end = hdr_len + ctrl_len + stream_len + max(pad, 0)
        total = end + TAG_LEN
        assert total <= MAX_DATAGRAM

        view = memoryview(out)
        view[:hdr_len] = hdr
        pos = hdr_len
        if reverso and frag is not None:
            pos += len(data)
            view[hdr_len:pos] = data
            view[pos : pos + len(fields)] = fields
            pos += len(fields)
        if ack is not None:
            view[pos : pos + len(ack)] = ack
            pos += len(ack)
        if close is not None:
            serialize = wire.serialize_reversed if reverso else wire.serialize_forward
            pos += serialize([close], view[pos:end])
        if pad > 0:
            view[pos : pos + pad] = bytes(pad)
            pos += pad
        if not reverso and frag is not None:
            view[pos : pos + len(fields)] = fields
            view[pos + len(fields) : end] = data
        ks = self.send_keys
        ks._aead.encrypt_into(
            (ks._iv_int ^ pn).to_bytes(12, "big"), view[hdr_len:end], hdr, view[hdr_len:total]
        )
        header.protect(view[:total], ks, hdr_len, reverso)

        if frag is not None:
            self.unacked[pn] = (now, [frag])
        self._metrics.bytes_sent += total
        return total

    def on_timeout(self, now: float) -> None:
        """Re-queue fragments of packets unacked past the timeout."""
        expired = [pn for pn, (sent, _) in self.unacked.items() if now - sent >= self.rto]
        for pn in sorted(expired):
            _, frags = self.unacked.pop(pn)
            self._retransmit.extend(frags)
            self._metrics.retransmissions += 1

    # --- receiving ---
    #
    # One receive function per mode. Each unprotects the header with
    # header.unprotect, opens the AEAD with decrypt_into, and decodes the
    # shapes build_packet emits, a stream frame owning the plaintext with
    # at most an ack and padding beside it, or an ack and padding alone,
    # without building frame objects, because per-object interpreter cost
    # dominates the per-packet budget. A fragment continuing its stream's
    # contiguous tail is committed on the spot, any other through
    # _deliver; an ack passes _check_ack before anything of its packet is
    # applied and reaches _on_ack as plain ints. Any other frame sends the
    # rest of the plaintext through a wire parser and _process_plaintext.

    def recv(self, datagram, appbuf: AppRecvBufMap) -> int:
        """Process one datagram; returns bytes consumed from it.

        Authentication failures are silent: the packet is dropped, a
        counter ticks, and no state visible to the peer changes.

        datagram must be writable and private to this call: the header
        is unprotected in place, and the in-place lanes decrypt over the
        ciphertext, so its bytes are overwritten, with unauthenticated
        garbage when the tag check fails.
        """
        self._appbuf = appbuf
        buf = memoryview(datagram) if not isinstance(datagram, memoryview) else datagram
        blen = len(buf)
        self._metrics.bytes_received += blen
        if self.mode is WireMode.REVERSO:
            return self._recv_reverso(buf, blen, appbuf)
        return self._recv_baseline(buf, blen, appbuf)

    def _recv_reverso(self, buf, blen: int, appbuf: AppRecvBufMap) -> int:
        """The header alone picks the AEAD destination: a packet that
        continues its stream's contiguous tail (or opens the stream at
        offset 0) is opened straight onto that tail and committed there
        without a copy; any other packet is opened in place in the
        datagram and handed to _deliver."""
        ks = self.recv_keys
        hdr_len, pn, sid, off_t, off_mask = header.unprotect(
            buf, ks, self.largest_received_pn, True
        )
        pt_len = blen - hdr_len - TAG_LEN
        sbuf = appbuf.buffers.get(sid)  # never holds stream 0
        if sbuf is not None:
            oref = sbuf.contiguous_offset
            # truncation match decides continuation exactly: expanding
            # the truncated offset against oref yields oref iff it is
            # oref's truncation
            tail = (oref & off_mask) == off_t
        else:
            # a zero truncated offset expands to 0 against a zero
            # reference: first contact at the stream start
            oref = 0
            tail = sid != 0 and off_t == 0
            if tail:
                # staged; bound only once the packet checks out
                sbuf = appbuf._materialize_spare()
        if tail:
            # a failed tag leaves garbage only past contiguous_offset
            lo = oref - sbuf.base_offset
            hi = lo + pt_len
            store = sbuf.storage
            if hi > len(store):
                sbuf.ensure_room(hi)
                store = sbuf.storage
            pt = sbuf.storage_view[lo:hi]
        else:
            # in place over the ciphertext, aliased exactly
            store = pt = buf[hdr_len : hdr_len + pt_len]
            lo, hi = 0, pt_len
        try:
            ks._aead.decrypt_into(
                (ks._iv_int ^ pn).to_bytes(12, "big"), buf[hdr_len:], buf[:hdr_len], pt
            )
        except InvalidTag:
            self._metrics.decrypt_failures += 1
            return blen
        if pn > self.largest_received_pn:
            self.largest_received_pn = pn

        # Walk back from the end: a padding run, an ack, then the anchor,
        # the LEN-absent stream frame owning the start of the plaintext,
        # whose footer (offset, stream id, type) must restate the header's
        # routing fields. Any other frame hands what is left to the parser.
        cur = hi
        t = store[cur - 1] if cur > lo else -1
        if not t:
            cur = wire.padding_start(store, lo, cur)
            t = store[cur - 1] if cur > lo else -1
        acked = False  # an ack decoded here that passed _check_ack
        if t == 0x02:  # ack
            largest, delay, ranges, cur = wire.take_ack_reversed(store, lo, cur - 1)
            acked = self._check_ack(largest, ranges)
            t = store[cur - 1] if cur > lo else -1
        frames = None
        if 0x08 <= t <= 0x0F and not t & 0x02:
            # walk the anchor's footer back, stream id first, then offset
            cur -= 1
            if cur <= lo:
                raise MalformedFrame("truncated reversed varint")
            b = store[cur - 1]
            if b == sid << 2:
                # the header's stream id in its one-byte encoding: the
                # header already decoded it, so comparing verifies it
                f_sid = sid
                cur -= 1
            else:
                n = _VLEN[b & 0x03]
                if n > cur - lo:
                    raise MalformedFrame("truncated reversed varint")
                f_sid = int.from_bytes(store[cur - n : cur], "big") >> 2
                cur -= n
            if t & 0x04:
                if cur <= lo:
                    raise MalformedFrame("truncated reversed varint")
                b = store[cur - 1]
                n = _VLEN[b & 0x03]
                if n > cur - lo:
                    raise MalformedFrame("truncated reversed varint")
                f_off = (
                    b >> 2 if n == 1
                    else store[cur - 2] << 6 | b >> 2 if n == 2
                    else int.from_bytes(store[cur - n : cur], "big") >> 2
                )
                cur -= n
            else:
                f_off = 0
            fin = t & 0x01
        elif t < 0:
            # padding and at most an ack: a control-only packet
            if sid:
                raise ProtocolViolation("header names a stream but no anchor frame found")
            if acked:
                self._on_ack(largest, ranges)
            self._metrics.packets_control_only += 1
            return blen
        else:
            # a close, or a frame the builder never emits: the parser
            # takes over where the walk stopped, so nothing is decoded twice
            frames = wire.parse_reversed(pt[: cur - lo])
            if acked:
                frames.insert(0, wire.AckFrame(largest, delay, ranges))
            last = frames[-1] if frames else None
            if isinstance(last, wire.StreamFrame) and last.explicit_len is False:
                f_sid, f_off, fin = last.stream_id, last.offset, last.fin
                cur = lo + len(last.data)
            elif sid:
                raise ProtocolViolation("header names a stream but no anchor frame found")
            else:
                if any(isinstance(f, wire.StreamFrame) for f in frames):
                    raise ProtocolViolation("stream frame in a control-only packet")
                self._process_plaintext(appbuf, pn, frames)
                return blen

        if tail:
            if f_sid != sid or f_off != oref:
                raise _footer_mismatch(f_sid, f_off, sid, oref)
            if frames is not None:
                frames.pop()
                self._check_acks(frames)
            if sbuf is appbuf.spare:
                appbuf.spare = None
                appbuf.buffers[sid] = sbuf
            data_len = cur - lo
            m = self._metrics
            copied = sbuf.commit_zero_copy(oref + data_len, fin, hi)
            if copied:
                m.payload_bytes_copied += copied
            m.payload_bytes_zero_copy += data_len
            m.packets_in_order += 1
            if frames is None:
                self.ack_pending.add(pn)
                if acked:
                    self._on_ack(largest, ranges)
            else:
                self._process_plaintext(appbuf, pn, frames, anchored=True)
            return blen

        if sid == 0:
            raise ProtocolViolation("stream frame in a control-only packet")
        # the header's offset, expanded as the sender truncated it
        offset = crypto.expand_int(off_t.to_bytes(off_mask.bit_length() >> 3, "big"), oref)
        if f_sid != sid or f_off != offset:
            raise _footer_mismatch(f_sid, f_off, sid, offset)
        if frames is None:
            if not self._deliver(appbuf, sid, offset, pt[: cur - lo], fin):
                self.ack_pending.add(pn)
            if acked:
                self._on_ack(largest, ranges)
        else:
            self._process_plaintext(appbuf, pn, frames)
        return blen

    def _recv_baseline(self, buf, blen: int, appbuf: AppRecvBufMap) -> int:
        """Opens in place in the datagram, decodes forward, and copies
        the stream data into storage: the reassembly copy the reversed
        layout removes."""
        ks = self.recv_keys
        hdr_len, pn, _, _, _ = header.unprotect(buf, ks, self.largest_received_pn, False)
        m = self._metrics
        end = blen - TAG_LEN
        try:
            # in place over the ciphertext, aliased exactly
            ks._aead.decrypt_into(
                (ks._iv_int ^ pn).to_bytes(12, "big"), buf[hdr_len:], buf[:hdr_len],
                buf[hdr_len:end],
            )
        except InvalidTag:
            m.decrypt_failures += 1
            return blen
        if pn > self.largest_received_pn:
            self.largest_received_pn = pn

        # walk forward: an ack, a padding run, then a stream frame that
        # owns the rest; any other frame hands what is left to the parser
        pos = hdr_len
        t = buf[pos] if end > pos else -1
        acked = False  # an ack decoded here that passed _check_ack
        if t == 0x02:  # ack
            largest, delay, ranges, pos = wire.take_ack_forward(buf, pos + 1, end)
            acked = self._check_ack(largest, ranges)
            t = buf[pos] if end > pos else -1
        if not t:
            pos = wire.padding_end(buf, pos, end)
            t = buf[pos] if end > pos else -1
        if not (0x08 <= t <= 0x0F and not t & 0x02):
            if t < 0:
                # padding and at most an ack: a control-only packet
                if acked:
                    self._on_ack(largest, ranges)
                m.packets_control_only += 1
            else:
                # a close, or a frame the builder never emits: the parser
                # takes over where the walk stopped, so nothing is decoded twice
                frames = wire.parse_forward(buf[pos:end])
                if acked:
                    frames.insert(0, wire.AckFrame(largest, delay, ranges))
                self._process_plaintext(appbuf, pn, frames)
            return blen
        # the stream frame: stream id, then offset, then its data
        pos += 1
        if pos >= end:
            raise MalformedFrame("truncated varint")
        b = buf[pos]
        n = _VLEN[b >> 6]
        if pos + n > end:
            raise MalformedFrame("truncated varint")
        sid = (
            b & 0x3F if n == 1
            else int.from_bytes(buf[pos : pos + n], "big") & (_VMAX[b >> 6] - 1)
        )
        pos += n
        if t & 0x04:
            if pos >= end:
                raise MalformedFrame("truncated varint")
            b = buf[pos]
            n = _VLEN[b >> 6]
            if pos + n > end:
                raise MalformedFrame("truncated varint")
            offset = (
                b & 0x3F if n == 1
                else (b & 0x3F) << 8 | buf[pos + 1] if n == 2
                else int.from_bytes(buf[pos : pos + n], "big") & (_VMAX[b >> 6] - 1)
            )
            pos += n
        else:
            offset = 0
        sbuf = appbuf.buffers.get(sid)  # never holds stream 0
        if sbuf is not None and offset == sbuf.contiguous_offset:
            m.payload_bytes_copied += sbuf.append_in_order(buf[pos:end], t & 0x01)
            m.packets_in_order += 1
            self.ack_pending.add(pn)
        elif not self._deliver(appbuf, sid, offset, buf[pos:end], t & 0x01):
            self.ack_pending.add(pn)
        if acked:
            self._on_ack(largest, ranges)
        return blen

    def _process_plaintext(
        self, appbuf: AppRecvBufMap, pn: int, frames: list[wire.Frame], anchored: bool = False,
    ) -> None:
        """Apply an authenticated frame list and decide the ack. Its acks
        are checked before any frame is applied; anchored means the
        caller checked them and then committed the packet's anchor."""
        if not anchored:
            self._check_acks(frames)
        ack_eliciting = saw_stream = anchored
        suppress_ack = False
        for frame in frames:
            if isinstance(frame, wire.StreamFrame):
                ack_eliciting = True
                saw_stream = True
                if self._deliver(appbuf, frame.stream_id, frame.offset, frame.data, frame.fin):
                    suppress_ack = True
            elif isinstance(frame, wire.AckFrame):
                self._on_ack(frame.largest_acked, frame.ranges)
            elif isinstance(frame, wire.PingFrame):
                ack_eliciting = True
            elif isinstance(frame, wire.MaxStreamDataFrame):
                ack_eliciting = True
            elif isinstance(frame, wire.ConnectionCloseFrame):
                self.closed = True
                self.close_error = (frame.error_code, bytes(frame.reason))
                ack_eliciting = True
        if not saw_stream:
            self._metrics.packets_control_only += 1
        if ack_eliciting and not suppress_ack:
            self.ack_pending.add(pn)

    def _deliver(self, appbuf: AppRecvBufMap, sid: int, offset: int, data, fin) -> bool:
        """Copy, stash or drop one authenticated stream fragment; returns
        True when the ack for its packet must be suppressed (stash
        overflow: the fragment was dropped and needs retransmission)."""
        m = self._metrics
        if sid == 0 or sid > header.MAX_STREAM_ID:
            raise ProtocolViolation(f"bad stream id {sid} in stream frame")
        sbuf = appbuf.adopt(sid)
        contiguous = sbuf.contiguous_offset
        if offset == contiguous:
            m.payload_bytes_copied += sbuf.append_in_order(data, fin)
            m.packets_in_order += 1
        elif offset > contiguous:
            m.payload_bytes_stashed += sbuf.stash_out_of_order(offset, data, fin)
            m.packets_out_of_order += 1
            return sbuf.stash.take_overflow()
        else:
            m.packets_spurious += 1
            if offset + len(data) > contiguous:
                # partial overlap cannot occur while fragment boundaries
                # are preserved across retransmissions; commit the tail
                # anyway so integrity never depends on that invariant
                tail = memoryview(data)[contiguous - offset :]
                m.payload_bytes_copied += sbuf.append_in_order(tail, fin)
            # entirely old data: acknowledged and dropped
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

    def _check_acks(self, frames: list[wire.Frame]) -> None:
        """_check_ack for every ack in frames; drops those it rejects."""
        frames[:] = [
            f for f in frames
            if not isinstance(f, wire.AckFrame) or self._check_ack(f.largest_acked, f.ranges)
        ]

    def _on_ack(self, largest: int, ranges) -> None:
        """Apply an ack that passed _check_ack: ranges of (gap, length)
        descending from largest, as in wire.AckFrame."""
        if largest > self.largest_peer_acked:
            self.largest_peer_acked = largest
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
                    self.unacked.pop(pn, None)
            cursor -= length

    # --- application surface ---

    def readable(self) -> list[int]:
        if self._appbuf is None:
            return []
        return [
            sid
            for sid, sbuf in self._appbuf.buffers.items()
            if sbuf.contiguous_offset > sbuf.consumed_offset
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
        """All queued data sent and acknowledged."""
        return (
            not self._retransmit
            and not self.unacked
            and all(not s.queue and (s.fin_sent or not s.fin_queued) for s in self.send_streams.values())
        )

