"""Connection send/receive pipelines in both wire modes."""

import random
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revquic import crypto, header, wire
from revquic.endpoint import DEFAULT_RTO, MAX_DATAGRAM, SEND_WINDOW, Connection, Role
from revquic.errors import (
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
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

import packets
from packets import (
    AckFrame,
    ConnectionCloseFrame,
    MaxStreamDataFrame,
    PingFrame,
    StreamFrame,
    frame_bytes,
    parse_forward,
)

SECRET = b"\x42" * 32
C2S = crypto.derive_keys(SECRET, "c2s")


def pair(mode):
    return Connection(mode, Role.CLIENT, SECRET), Connection(mode, Role.SERVER, SECRET)


def pump(a, b, abuf, bbuf, rounds=200):
    """Alternate build/recv both ways until neither side has output."""
    out = bytearray(MAX_DATAGRAM)
    for _ in range(rounds):
        progress = False
        for src, dst, dstbuf in ((a, b, bbuf), (b, a, abuf)):
            while (n := src.build_packet(out)) is not None:
                dst.recv(bytearray(out[:n]), dstbuf)
                progress = True
        if not progress:
            return
    raise AssertionError("pump did not quiesce")


def drain(conn, appbuf) -> dict[int, bytes]:
    got: dict[int, bytes] = {}
    for sid in conn.readable():
        view, fin = conn.stream_recv(sid, appbuf)
        got[sid] = bytes(view)
        conn.stream_consumed(sid, len(view), appbuf)
    return got


def craft(mode, keys, pn, frames, hdr_sid=0, hdr_off=0, pn_len=1, off_len=None):
    """Seal an arbitrary frame list under full header protection, padded
    as build_packet pads: after the frames in reverso, before them in
    baseline."""
    reverso = mode is WireMode.REVERSO
    body = packets.plaintext(frames, reverso)
    pad = bytes(max(0, header.MIN_PLAINTEXT - len(body)))
    return seal(mode, keys, pn, body + pad if reverso else pad + body, hdr_sid, hdr_off, pn_len, off_len)


def seal(mode, keys, pn, plaintext, hdr_sid=0, hdr_off=0, pn_len=1, off_len=None):
    """Seal plaintext bytes under full header protection."""
    return packets.seal(mode is WireMode.REVERSO, keys, pn, plaintext, hdr_sid, hdr_off, pn_len, off_len)


def layout(mode, stream=None, ctrl=()):
    """Plaintext laid out as build_packet lays it out. Reverso: the
    stream frame, control frames, padding. Baseline: control frames,
    padding, the stream frame."""
    reverso = mode is WireMode.REVERSO

    def ser(frames):
        # bytes stand for a frame no encoder writes
        return b"".join(f if isinstance(f, bytes) else frame_bytes(f, reverso, True) for f in frames)

    if reverso:
        body = ser(([stream] if stream else []) + list(ctrl))
        return body + bytes(max(0, header.MIN_PLAINTEXT - len(body)))
    head, tail = ser(list(ctrl)), ser([stream] if stream else [])
    return head + bytes(max(0, header.MIN_PLAINTEXT - len(head) - len(tail))) + tail


class TestSending:
    def test_first_datagram_carries_offset_zero(self):
        for mode in WireMode:
            client, server = pair(mode)
            appbuf = AppRecvBufMap()
            client.stream_send(1, b"z" * 5000)
            out = bytearray(MAX_DATAGRAM)
            n = client.build_packet(out)
            assert n is not None and n <= MAX_DATAGRAM
            server.recv(bytearray(out[:n]), appbuf)
            view, fin = server.stream_recv(1, appbuf)
            assert len(view) > 0
            assert bytes(view) == b"z" * len(view)  # data from offset 0

    def test_nothing_to_send(self):
        client, _ = pair(WireMode.REVERSO)
        assert client.build_packet(bytearray(MAX_DATAGRAM)) is None

    def test_small_out_buffer_rejected(self):
        client, _ = pair(WireMode.BASELINE)
        client.stream_send(1, b"x")
        with pytest.raises(BufferTooSmall):
            client.build_packet(bytearray(MAX_DATAGRAM - 1))

    def test_stream_id_bounds(self):
        client, _ = pair(WireMode.REVERSO)
        with pytest.raises(StreamIdOverflow):
            client.stream_send(0, b"x")
        with pytest.raises(StreamIdOverflow):
            client.stream_send(1 << 30, b"x")

    def test_send_after_fin(self):
        client, _ = pair(WireMode.REVERSO)
        client.stream_send(1, b"x", fin=True)
        with pytest.raises(SendAfterFin):
            client.stream_send(1, b"more")

    def test_ack_only_packet_uses_stream_zero(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"q" * 100, fin=True)
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        n = server.build_packet(out)
        assert n is not None
        assert header.unprotect(bytearray(out[:n]), client.recv_keys, 0, True)[2] == 0
        cbuf = AppRecvBufMap()
        client.recv(bytearray(out[:n]), cbuf)
        assert client.metrics().packets_control_only == 1
        assert not client.unacked
        assert client.send_done()

    def test_acks_past_range_cap_stay_pending(self):
        _, server = pair(WireMode.REVERSO)
        pending = set(range(0, 80, 2))  # 40 disjoint packet numbers
        server.ack_pending = set(pending)
        acked = set()
        for expect in (wire.MAX_ACK_RANGES, 40 - wire.MAX_ACK_RANGES):
            top, ranges = server._build_ack()
            assert len(ranges) == expect
            for gap, length in ranges:
                top -= gap
                acked.update(range(top - length + 1, top + 1))
                top -= length
        assert acked == pending
        assert server._build_ack() is None

    def test_send_window_caps_inflight(self):
        client, _ = pair(WireMode.BASELINE)
        client.stream_send(1, b"x" * (1 << 20))
        out = bytearray(MAX_DATAGRAM)
        built = 0
        while client.build_packet(out) is not None:
            built += 1
        assert built == SEND_WINDOW

    def test_packet_numbers_strictly_increase(self):
        client, server = pair(WireMode.BASELINE)
        appbuf = AppRecvBufMap()
        client.stream_send(1, b"x" * 5000)
        out = bytearray(MAX_DATAGRAM)
        pns = []
        while (n := client.build_packet(out)) is not None:
            copy = bytearray(out[:n])
            _, pn, _, _ = header.unprotect(
                bytearray(out[:n]), server.recv_keys, pns[-1] if pns else 0, False
            )
            pns.append(pn)
            server.recv(copy, appbuf)
        assert pns == sorted(set(pns))

    def test_baseline_sends_past_offset_2_31(self):
        """Baseline's header carries no offset, so a stream may pass the
        offsets reverso's header can hold; its frame carries it whole."""
        client, server = pair(WireMode.BASELINE)
        client.stream_send(1, b"y" * 100)
        ss = client.send_streams[1]
        ss.base_offset = ss.next_offset = 1 << 31
        client.ack_pending = {5}
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out, now=1.0)
        pt = packets.open_packet(False, server.recv_keys, out[:n], -1)[4]
        ack, *_, frame = parse_forward(pt)
        assert (ack.largest_acked, ack.ranges) == (5, [(0, 1)])
        assert (frame.stream_id, frame.offset, bytes(frame.data)) == (1, 1 << 31, b"y" * 100)
        assert client.unacked[0][1] == (1, 1 << 31, 100, False)

    def test_reverso_refuses_a_stream_past_its_header_offset(self):
        """Reverso's header truncates the offset against 0 into 4 bytes,
        so 2^31 - 2 is the last offset it carries: a send that would end
        past it raises before anything is queued."""
        limit = (1 << 31) - 2
        client, _ = pair(WireMode.REVERSO)
        client.stream_send(1, b"y" * 100)
        ss = client.send_streams[1]
        ss.base_offset = ss.next_offset = limit - 100
        with pytest.raises(TruncationRangeError):
            client.stream_send(1, b"z")
        assert (b"".join(ss.pieces), ss.next_offset, ss.fin_queued) == (b"y" * 100, limit - 100, False)
        # a stream ending at the limit, fin included, still goes out
        client.stream_send(1, b"", fin=True)
        out = bytearray(MAX_DATAGRAM)
        while client.build_packet(out) is not None:
            pass
        assert [span for _, span in client.unacked.values()] == [(1, limit - 100, 100, True)]
        assert ss.fin_sent and ss.next_offset == limit


class TestTransfer:
    def test_integrity_and_mode_equivalence(self):
        rng = random.Random(5)
        payload = rng.randbytes(100_000)
        delivered = {}
        for mode in WireMode:
            client, server = pair(mode)
            cbuf, sbuf = AppRecvBufMap(), AppRecvBufMap()
            client.stream_send(1, payload, fin=True)
            received = bytearray()
            out = bytearray(MAX_DATAGRAM)
            for _ in range(400):
                sent_any = False
                while (n := client.build_packet(out)) is not None:
                    server.recv(bytearray(out[:n]), sbuf)
                    sent_any = True
                for sid, chunk in drain(server, sbuf).items():
                    assert sid == 1
                    received += chunk
                while (n := server.build_packet(out)) is not None:
                    client.recv(bytearray(out[:n]), cbuf)
                    sent_any = True
                if not sent_any and client.send_done():
                    break
            assert bytes(received) == payload
            delivered[mode] = zlib.crc32(bytes(received))
        assert delivered[WireMode.BASELINE] == delivered[WireMode.REVERSO]

    def test_zero_copy_theorem_reverso(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        size = 65_536
        client.stream_send(1, b"\xab" * size, fin=True)
        out = bytearray(MAX_DATAGRAM)
        while (n := client.build_packet(out)) is not None:
            server.recv(bytearray(out[:n]), sbuf)
            if len(server.unacked) == 0 and len(client.unacked) >= SEND_WINDOW:
                while (k := server.build_packet(out)) is not None:
                    client.recv(bytearray(out[:k]), AppRecvBufMap())
        m = server.metrics()
        assert m.payload_bytes_copied == 0
        assert m.payload_bytes_zero_copy == size
        assert m.packets_out_of_order == 0
        view, fin = server.stream_recv(1, sbuf)
        assert (len(view), fin) == (size, True)

    def test_storage_growth_counted_alike(self):
        allocations = {}
        for mode in WireMode:
            client, server = pair(mode)
            sbuf = AppRecvBufMap(default_capacity=1024)
            client.stream_send(1, b"g" * 20_000, fin=True)
            pump(client, server, AppRecvBufMap(), sbuf)
            assert len(sbuf.get(1).storage) == 32 * 1024
            allocations[mode] = sbuf.allocations
        # one buffer, grown five times from 1 KiB to 32 KiB
        assert allocations[WireMode.BASELINE] == allocations[WireMode.REVERSO] == 6

    def test_baseline_copy_floor(self):
        client, server = pair(WireMode.BASELINE)
        sbuf = AppRecvBufMap()
        size = 65_536
        client.stream_send(1, b"\xcd" * size, fin=True)
        out = bytearray(MAX_DATAGRAM)
        while (n := client.build_packet(out)) is not None:
            server.recv(bytearray(out[:n]), sbuf)
            if len(client.unacked) >= SEND_WINDOW:
                while (k := server.build_packet(out)) is not None:
                    client.recv(bytearray(out[:k]), AppRecvBufMap())
        m = server.metrics()
        assert m.payload_bytes_copied >= size
        assert m.payload_bytes_zero_copy == 0

    def test_multiplexed_streams(self):
        client, server = pair(WireMode.REVERSO)
        cbuf, sbuf = AppRecvBufMap(), AppRecvBufMap()
        blobs = {sid: bytes([sid]) * (3000 * sid) for sid in (1, 2, 3)}
        for sid, blob in blobs.items():
            client.stream_send(sid, blob, fin=True)
        got = {sid: bytearray() for sid in blobs}
        out = bytearray(MAX_DATAGRAM)
        for _ in range(400):
            progress = False
            while (n := client.build_packet(out)) is not None:
                server.recv(bytearray(out[:n]), sbuf)
                progress = True
            for sid, chunk in drain(server, sbuf).items():
                got[sid] += chunk
            while (n := server.build_packet(out)) is not None:
                client.recv(bytearray(out[:n]), cbuf)
                progress = True
            if not progress and client.send_done():
                break
        assert {sid: bytes(b) for sid, b in got.items()} == blobs
        # every stream continued in order: nothing was stashed or copied
        assert server.metrics().payload_bytes_copied == 0
        assert server.metrics().payload_bytes_zero_copy == sum(map(len, blobs.values()))

    def test_fin_round_trip(self):
        client, server = pair(WireMode.BASELINE)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"end", fin=True)
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        view, fin = server.stream_recv(1, sbuf)
        assert (bytes(view), fin) == (b"end", True)
        server.stream_consumed(1, 3, sbuf)
        assert server.readable() == []

    def test_close_propagates(self):
        """A close is written and read in place, alone or beside an ack
        and stream data. It elicits no ack (RFC 9000 §13.2.1), and the
        endpoint that received it drains, sending nothing (§10.2.2)."""
        out = bytearray(MAX_DATAGRAM)
        for mode in WireMode:
            for companions in (False, True):
                client, server = pair(mode)
                cbuf, sbuf = AppRecvBufMap(), AppRecvBufMap()
                if companions:
                    # the server has data in flight that the client owes an ack for
                    server.stream_send(2, b"s" * 100)
                    client.recv(bytearray(out[: server.build_packet(out)]), cbuf)
                    client.stream_send(1, b"data")
                client.queue_close(error_code=7, reason=b"done")
                n = client.build_packet(out)
                assert client.build_packet(out) is None  # one datagram carries it all
                server.recv(bytearray(out[:n]), sbuf)
                assert server.closed
                assert server.close_error == (7, b"done")
                assert not server.unacked  # the ack applied
                # only the stream data elicits an ack, and it is never sent
                assert server.ack_pending == ({0} if companions else set())
                assert server.build_packet(out) is None
                m = server.metrics()
                if companions:
                    assert bytes(server.stream_recv(1, sbuf)[0]) == b"data"
                    assert (m.packets_in_order, m.packets_control_only) == (1, 0)
                else:
                    assert not sbuf.buffers and m.packets_control_only == 1

    def test_unknown_stream_recv(self):
        _, server = pair(WireMode.BASELINE)
        with pytest.raises(StreamNotFound):
            server.stream_recv(5, AppRecvBufMap())
        with pytest.raises(StreamNotFound):
            server.stream_consumed(5, 1, AppRecvBufMap())


class TestLossAndReordering:
    def build_all(self, conn):
        out = bytearray(MAX_DATAGRAM)
        grams = []
        while (n := conn.build_packet(out)) is not None:
            grams.append(bytes(out[:n]))
        return grams

    def test_timeout_requeues_the_expired_oldest_in_order(self):
        # a full window sent 1 ms apart, of which only the oldest k expire
        client, _ = pair(WireMode.REVERSO)
        client.stream_send(1, bytes(SEND_WINDOW * MAX_DATAGRAM))
        out = bytearray(MAX_DATAGRAM)
        for i in range(SEND_WINDOW):
            assert client.build_packet(out, now=i * 1e-3) is not None
        assert len(client.unacked) == SEND_WINDOW
        pns = list(client.unacked)
        spans = [span for _, span in client.unacked.values()]
        walked = []

        class Walked(dict):
            def items(self):
                for item in super().items():
                    walked.append(item[0])
                    yield item

        k = 5
        client.unacked = Walked(client.unacked)
        client.on_timeout((k - 0.5) * 1e-3 + DEFAULT_RTO)
        assert list(client._retransmit) == spans[:k]
        assert list(client.unacked) == pns[k:]
        assert client.metrics().retransmissions == k
        # the walk stops at the first packet still inside the timeout
        assert walked == pns[: k + 1]

    def test_retransmission_reuses_offset(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        payload = bytes(range(256)) * 20
        client.stream_send(1, payload, fin=True)
        grams = self.build_all(client)
        assert len(grams) >= 2
        lost, rest = grams[0], grams[1:]
        first = client.unacked[0][1][2]  # the lost span's length
        for g in rest:
            server.recv(bytearray(g), sbuf)
        assert server.metrics().packets_out_of_order == len(rest)
        client.on_timeout(now=1e9)  # well past the RTO
        assert client.metrics().retransmissions >= 1
        for g in self.build_all(client):
            server.recv(bytearray(g), sbuf)
        view, fin = server.stream_recv(1, sbuf)
        assert (bytes(view), fin) == (payload, True)
        # every fragment past the gap opened at its offset in storage; the
        # retransmission that fills the gap opens in place, because its
        # anchor's type byte would land on the range past it, and is copied
        m = server.metrics()
        assert (m.payload_bytes_copied, m.payload_bytes_zero_copy) == (first, len(payload) - first)

    def test_replay_is_acked_and_dropped(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"r" * 500, fin=True)
        [gram] = self.build_all(client)
        server.recv(bytearray(gram), sbuf)
        before = server.stream_recv(1, sbuf)[0]
        checksum = zlib.crc32(bytes(before))
        contiguous = sbuf.buffers[1].contiguous_offset
        server.recv(bytearray(gram), sbuf)
        m = server.metrics()
        assert m.packets_spurious == 1
        assert sbuf.buffers[1].contiguous_offset == contiguous
        assert zlib.crc32(bytes(server.stream_recv(1, sbuf)[0])) == checksum

    def test_out_of_order_copy_accounting(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"o" * 6000, fin=True)
        grams = self.build_all(client)
        assert len(grams) == 5
        first, late = (client.unacked[pn][1][2] for pn in (0, 1))  # span lengths
        for g in grams[2:]:
            server.recv(bytearray(g), sbuf)
        # the bytes ahead of the gap were opened where they belong, uncopied
        m = server.metrics()
        assert (m.payload_bytes_copied, m.payload_bytes_zero_copy) == (0, 6000 - first - late)
        server.recv(bytearray(grams[0]), sbuf)
        server.recv(bytearray(grams[1]), sbuf)
        m = server.metrics()
        # the first packet continued the tail below every range; the late
        # one filling the gap was opened in place and copied
        assert (m.packets_out_of_order, m.packets_in_order) == (3, 2)
        assert (m.payload_bytes_copied, m.payload_bytes_zero_copy) == (late, 6000 - late)
        assert bytes(server.stream_recv(1, sbuf)[0]) == b"o" * 6000


class TestAdversarial:
    def test_tampered_tag_is_silent(self):
        for mode in WireMode:
            client, server = pair(mode)
            sbuf = AppRecvBufMap()
            client.stream_send(1, b"v" * 900, fin=True)
            out = bytearray(MAX_DATAGRAM)
            n = client.build_packet(out)
            gram = bytearray(out[:n])
            gram[-1] ^= 0x01  # break the tag
            spare = sbuf.spare
            allocations = sbuf.allocations
            before = replace(server.metrics())
            server.recv(gram, sbuf)
            after = server.metrics()
            assert after.decrypt_failures == before.decrypt_failures + 1
            assert after.payload_bytes_zero_copy == 0
            assert after.payload_bytes_copied == 0
            assert not sbuf.buffers  # fresh-stream binding rolled back
            assert sbuf.spare is spare
            assert sbuf.allocations == allocations
            assert server.readable() == []
            assert not server.ack_pending
            # silence: nothing goes back on the wire in response
            assert server.build_packet(out) is None

    def test_committed_region_survives_tamper(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"w" * 2500, fin=True)
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        committed = zlib.crc32(bytes(server.stream_recv(1, sbuf)[0]))
        n = client.build_packet(out)
        gram = bytearray(out[:n])
        gram[40] ^= 0xFF  # corrupt ciphertext: offset continues the stream
        server.recv(gram, sbuf)
        assert zlib.crc32(bytes(server.stream_recv(1, sbuf)[0])) == committed
        assert server.metrics().decrypt_failures == 1

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_foreign_and_short_datagrams_count_as_decrypt_failures(self, mode):
        """A datagram sealed under another secret (another key unmasks
        the flags to noise, so header.unprotect mostly raises before any
        tag) or too short to reach the sample window is counted in
        decrypt_failures like a failed tag: recv raises nothing and
        changes nothing else."""
        client, server = pair(mode)
        appbuf = AppRecvBufMap()
        out = bytearray(MAX_DATAGRAM)
        client.stream_send(1, b"h" * 3000)
        honest = []
        while (n := client.build_packet(out)) is not None:
            honest.append(bytes(out[:n]))
        for gram in honest[:1] + honest[2:]:  # a hole, then a range past it
            server.recv(bytearray(gram), appbuf)
        grams = []
        for i in range(40):
            foreign = Connection(mode, Role.CLIENT, bytes([i]) * 32)
            foreign.stream_send(1 + i % 3, bytes([i]) * (100 + 37 * i), fin=bool(i & 1))
            grams.append(bytes(out[: foreign.build_packet(out)]))
        short = header.SAMPLE_OFFSET + header.SAMPLE_LEN
        grams += [honest[1][:n] for n in (0, 1, header.PN_OFFSET, short - 1)]
        raised = 0
        for gram in grams:
            try:
                header.unprotect(bytearray(gram), server.recv_keys, server.largest_received_pn,
                                 mode is WireMode.REVERSO)
            except (MalformedHeader, PacketTooShortForSampling):
                raised += 1
        assert raised > 4  # the foreign grams include header failures, not only tag failures

        appbuf._materialize_spare()  # a first packet is staged in it
        before = receiver_state(server, appbuf)
        spare, allocations = appbuf.spare, appbuf.allocations
        for gram in grams:
            assert server.recv(bytearray(gram), appbuf) == len(gram)
        after = receiver_state(server, appbuf)
        failures = before[3].decrypt_failures + len(grams)
        assert after[3] == replace(before[3], decrypt_failures=failures)
        assert after[:3] + after[4:] == before[:3] + before[4:]
        assert (appbuf.spare, appbuf.allocations) == (spare, allocations)
        assert server.build_packet(out) is not None  # acks owed for the honest packets
        server.recv(bytearray(honest[1]), appbuf)  # the gap still fills
        assert bytes(server.stream_recv(1, appbuf)[0]) == b"h" * 3000

    @pytest.mark.parametrize(
        "lane", ["fast", "first_contact", "off_tail", "off_tail_first_contact",
                 "tail_reaching_range", "tail_below_range"]
    )
    def test_failed_open_never_writes_below_watermark(self, lane):
        """decrypt_into leaves unauthenticated bytes in its destination
        when the tag fails. A packet opened at its offset in storage
        (stream 1 continuing or past a gap, stream 2 first seen at or
        past offset 0, into the staged spare) must aim it at a hole past
        the contiguous watermark, change nothing outside its footprint
        and bind nothing until the tag verifies. A range received past
        the tail is kept like committed bytes: a packet opens below it
        only when its whole footprint ends by the range
        (tail_below_range), and in the datagram when its footer would
        reach it (tail_reaching_range), touching no storage at all."""
        client, server = pair(WireMode.REVERSO)
        appbuf = AppRecvBufMap()
        out = bytearray(MAX_DATAGRAM)
        client.stream_send(1, bytes(range(256)) * 24)
        for _ in range(2):
            n = client.build_packet(out)
            server.recv(bytearray(out[:n]), appbuf)
        sbuf = appbuf.get(1)
        watermark = sbuf.contiguous_offset
        target = 2 if lane.endswith("first_contact") else 1
        if target == 2:
            ss = client.send_streams[1]
            # drop stream 1's unsent bytes: the next packets open stream 2
            ss.size = ss.next_offset - ss.base_offset
            ss.pieces[0] = ss.pieces[0][: ss.size]
            client.stream_send(2, b"y" * 3000)
        off_tail = lane.startswith("off_tail")
        if off_tail:
            client.build_packet(out)  # lost: the next one lands past a gap
        n = client.build_packet(out)
        assert n is not None
        gram = bytearray(out[:n])
        if lane.startswith("tail_"):
            if lane == "tail_below_range":
                client.build_packet(out)  # lost: a gap below the range
            # a later packet arrives first and leaves a range past the tail
            server.recv(bytearray(out[: client.build_packet(out)]), appbuf)
        received = [(s, e, bytes(sbuf.storage[s - sbuf.base_offset : e - sbuf.base_offset]))
                    for s, e in zip(sbuf.starts, sbuf.ends)]
        assert bool(received) is lane.startswith("tail_")
        storage = bytes(sbuf.storage)
        committed = storage[: watermark - sbuf.base_offset]
        spare = appbuf.spare
        allocations = appbuf.allocations
        honest = bytes(gram)
        gram[-1] ^= 0x01  # corrupt the tag, leaving the header sample alone
        hdr_len, _, hdr_sid, hdr_off = header.unprotect(
            bytearray(gram), server.recv_keys, server.largest_received_pn, True
        )
        assert hdr_sid == target
        assert (hdr_off == (watermark if target == 1 else 0)) is not off_tail
        pristine = bytes(gram)
        server.recv(gram, appbuf)
        assert server.metrics().decrypt_failures == 1
        assert sbuf.contiguous_offset == watermark
        assert bytes(sbuf.storage[: watermark - sbuf.base_offset]) == committed
        assert [(s, e, bytes(sbuf.storage[s - sbuf.base_offset : e - sbuf.base_offset]))
                for s, e in zip(sbuf.starts, sbuf.ends)] == received
        assert set(appbuf.buffers) == {1}
        tail = header.SAMPLE_OFFSET  # past the longest header
        if lane == "tail_reaching_range":
            assert bytes(sbuf.storage) == storage
            assert bytes(gram[tail:]) != pristine[tail:]  # opened over the ciphertext
            assert appbuf.spare is spare and appbuf.allocations == allocations
        else:
            # opened into storage, not over the ciphertext
            assert bytes(gram[tail:]) == pristine[tail:]
            if target == 1:
                # only the hole the footprint covers changed
                lo = hdr_off - sbuf.base_offset
                hi = lo + len(gram) - hdr_len - crypto.TAG_LEN
                after = bytes(sbuf.storage)
                assert watermark - sbuf.base_offset <= lo and hi <= len(storage)
                assert (after[:lo], after[hi:]) == (storage[:lo], storage[hi:])
                assert after[lo:hi] != storage[lo:hi]
                assert appbuf.spare is spare and appbuf.allocations == allocations
            else:
                # the spare staged for stream 2 stays unbound, for reuse
                assert bytes(sbuf.storage) == storage
                assert spare is None and appbuf.spare is not None
                assert appbuf.allocations == allocations + 1
        if received:
            # the honest packet commits; reaching the range, the watermark moves over it
            before = server.metrics()
            server.recv(bytearray(honest), appbuf)
            m = server.metrics()
            moved = sbuf.contiguous_offset - watermark
            if lane == "tail_reaching_range":
                assert (sbuf.contiguous_offset, sbuf.starts) == (received[0][1], [])
                copied = moved - (received[0][1] - received[0][0])
                assert m.payload_bytes_copied - before.payload_bytes_copied == copied > 0
            else:
                assert m.payload_bytes_zero_copy - before.payload_bytes_zero_copy == moved > 0
                assert sbuf.starts == [received[0][0]]
            start, end, data = received[0]
            assert bytes(sbuf.storage[start - sbuf.base_offset : end - sbuf.base_offset]) == data
            assert bytes(sbuf.storage[: watermark - sbuf.base_offset]) == committed

    def test_mutation_storm_keeps_committed_region(self):
        rng = random.Random(77)
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"base", fin=False)
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        committed = zlib.crc32(bytes(server.stream_recv(1, sbuf)[0]))
        client.stream_send(1, b"next chunk " * 40)
        n = client.build_packet(out)
        pristine = bytes(out[:n])
        allowed = (MalformedFrame, ProtocolViolation)
        for _ in range(200):
            gram = bytearray(pristine)
            gram[rng.randrange(len(gram))] ^= 1 << rng.randrange(8)
            try:
                server.recv(gram, sbuf)
            except allowed:
                pass
            assert zlib.crc32(bytes(server.stream_recv(1, sbuf)[0])) == committed

    @pytest.mark.parametrize("state", ["first_contact", "holding_100"])
    def test_short_header_offset_is_read_whole(self, state):
        """The header's offset is the whole offset, read the same way in
        every receiver state: offset 300 written into a 1-byte field
        arrives as 44, its low byte, and the data lands at 44 whether
        the stream is new (a range past the tail, opened at its offset)
        or already holds [0, 100) (the bytes past 100 placed)."""
        _, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        if state == "holding_100":
            server.recv(craft(WireMode.REVERSO, C2S, 0, [stream(0, b"k" * 100)], 1, 0), sbuf)
        data = bytes(range(100))
        gram = craft(WireMode.REVERSO, C2S, 1, [stream(300, data)], 1, 300, off_len=1)
        server.recv(gram, sbuf)
        buf = sbuf.get(1)
        if state == "first_contact":
            assert (buf.contiguous_offset, buf.starts, buf.ends) == (0, [44], [144])
            assert bytes(buf.storage[44:144]) == data
        else:
            assert (buf.contiguous_offset, buf.starts) == (144, [])
            assert bytes(server.stream_recv(1, sbuf)[0]) == b"k" * 100 + data[56:]
        assert 1 in server.ack_pending

    def test_reverso_refuses_a_stream_frame_with_fields(self):
        """The reverso anchor is one type byte; the LEN-absent stream
        frame that carried a footer (offset, stream id, type 0x0C) is
        outside the layout and applies nothing."""
        server, sbuf = in_flight_server(WireMode.REVERSO), AppRecvBufMap()
        before = receiver_state(server, sbuf)
        pt = layout(WireMode.REVERSO, None, [b"hello\x00\x04\x0c"])
        with pytest.raises(ProtocolViolation, match="outside the packet layout"):
            server.recv(seal(WireMode.REVERSO, C2S, 0, pt, 1, 0), sbuf)
        assert receiver_state(server, sbuf) == before

    def test_stream_frame_inside_control_packet(self):
        _, server = pair(WireMode.REVERSO)
        frame = StreamFrame(stream_id=3, offset=0, data=b"x" * 30, explicit_len=False)
        gram = craft(WireMode.REVERSO, C2S, 0, [frame], hdr_sid=0)
        with pytest.raises(ProtocolViolation, match="stream frame in a control-only packet"):
            server.recv(gram, AppRecvBufMap())

    def test_stream_id_zero_inside_stream_frame(self):
        _, server = pair(WireMode.BASELINE)
        frame = StreamFrame(stream_id=0, offset=0, data=b"x" * 30, explicit_len=False)
        gram = craft(WireMode.BASELINE, C2S, 0, [frame])
        with pytest.raises(ProtocolViolation):
            server.recv(gram, AppRecvBufMap())

    def test_header_claims_stream_without_anchor(self):
        _, server = pair(WireMode.REVERSO)
        gram = craft(WireMode.REVERSO, C2S, 0, [ack(0)], hdr_sid=1, hdr_off=0)
        with pytest.raises(ProtocolViolation, match="no anchor frame"):
            server.recv(gram, AppRecvBufMap())


class TestLaneConsistency:
    def test_packet_shapes_agree_on_state(self):
        """The same fragment stream, alone and with an ack beside it, must
        land identical bytes and identical copy accounting. With a close
        beside it, only the first packet applies: the endpoint drains
        after a close and discards the rest (RFC 9000 §10.2.2)."""
        rng = random.Random(9)
        chunks = [rng.randbytes(rng.randint(1, 600)) for _ in range(50)]
        for mode in WireMode:
            results = []
            for ctrl in ([], [ack(1)], [ack(1), CLOSE]):
                server, sbuf = in_flight_server(mode), AppRecvBufMap()
                offset = 0
                for pn, chunk in enumerate(chunks):
                    pt = layout(mode, stream(offset, chunk), ctrl)
                    server.recv(seal(mode, C2S, pn, pt, 1, offset), sbuf)
                    offset += len(chunk)
                m = server.metrics()
                view, _ = server.stream_recv(1, sbuf)
                results.append(
                    (bytes(view), m.payload_bytes_zero_copy, m.payload_bytes_copied,
                     m.packets_in_order)
                )
            assert results[0] == results[1]
            assert results[0][0] == b"".join(chunks)
            moved = results[0][1] if mode is WireMode.REVERSO else results[0][2]
            assert moved == sum(map(len, chunks))
            n = len(chunks[0])
            moved = (n, 0) if mode is WireMode.REVERSO else (0, n)
            assert results[2] == (chunks[0], *moved, 1)


def in_flight_server(mode, packets=4):
    """A server that has sent packets 0 .. packets - 1, none acked yet."""
    server = Connection(mode, Role.SERVER, SECRET)
    server.stream_send(7, b"s" * 1200 * packets)
    out = bytearray(MAX_DATAGRAM)
    for _ in range(packets):
        server.build_packet(out, now=0.0)
    assert sorted(server.unacked) == list(range(packets))
    return server


def receiver_state(conn, appbuf):
    """Everything a received packet can change, for comparison, but the
    count of received bytes, which every datagram adds to."""
    streams = {
        sid: (bytes(conn.stream_recv(sid, appbuf)[0]), sbuf.contiguous_offset,
              list(zip(sbuf.starts, sbuf.ends)))
        for sid, sbuf in appbuf.buffers.items()
    }
    return (sorted(conn.unacked), conn.largest_peer_acked, sorted(conn.ack_pending),
            replace(conn.metrics(), bytes_received=0), streams, conn.closed,
            conn.largest_received_pn)


def stream(offset, data):
    return StreamFrame(stream_id=1, offset=offset, data=data, explicit_len=False)


def ack(largest, *ranges):
    return AckFrame(largest_acked=largest, ranges=list(ranges) or [(0, 1)])


CLOSE = ConnectionCloseFrame(error_code=9, reason=b"bye")


def rpc_shapes(mode):
    """The packets an rpc peer sends, as (pn, plaintext, header stream
    id, header offset)."""
    return [
        # a padded 1-byte message
        (0, layout(mode, stream(0, b"m")), 1, 0),
        # stream data, an ack and padding
        (1, layout(mode, stream(1, b"yz"), [ack(2, (0, 2))]), 1, 1),
        # an ack alone, padded
        (2, layout(mode, None, [ack(3, (0, 1), (1, 1))]), 0, 0),
        # stream data past a gap (off the tail) with an ack
        (3, layout(mode, stream(10, b"late"), [ack(0)]), 1, 10),
    ]


class TestControlLanes:
    """Acks and padding are read in place, beside stream data or alone."""

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_rpc_shapes_read_in_place(self, mode):
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        for pn, pt, hdr_sid, hdr_off in rpc_shapes(mode):
            assert len(pt) == header.MIN_PLAINTEXT
            server.recv(seal(mode, C2S, pn, pt, hdr_sid, hdr_off), sbuf)
        unacked, largest, pending, m, streams, _, received = receiver_state(server, sbuf)
        assert (unacked, largest, pending, received) == ([], 3, [0, 1, 3], 3)
        assert streams[1] == (b"myz", 3, [(10, 14)])
        assert (m.packets_in_order, m.packets_out_of_order, m.packets_control_only) == (2, 1, 1)

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("extra", ["close"])
    def test_other_frames_reach_process_plaintext(self, mode, extra):
        """A close beside an ack and stream data is read in place too and
        applies with the rest of its packet. A second close beside an ack
        alone then arrives while the endpoint drains and is discarded
        (RFC 9000 §10.2.2)."""
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.recv(seal(mode, C2S, 0, layout(mode, stream(0, b"ab"), [ack(1), CLOSE]), 1, 0), sbuf)
        assert server.closed and server.close_error == (9, b"bye")
        before = receiver_state(server, sbuf)
        server.recv(seal(mode, C2S, 1, layout(mode, None, [ack(2), CLOSE])), sbuf)
        assert receiver_state(server, sbuf) == before
        assert sorted(server.unacked) == [0, 2, 3]
        assert bytes(server.stream_recv(1, sbuf)[0]) == b"ab"
        # the stream data elicits an ack, the close does not (RFC 9000 §13.2.1)
        assert sorted(server.ack_pending) == [0]


# frames build_packet never writes; the stream frame without OFF (type
# 0x08, stream 1) is given as bytes per layout, because frame_bytes
# always sets OFF
OUTSIDE = {
    "len_stream": StreamFrame(stream_id=0, offset=0, data=b"hello", explicit_len=True),
    "ping": PingFrame(),
    "max_stream_data": MaxStreamDataFrame(stream_id=1, maximum=1 << 20),
    "second_ack": ack(3),
    "no_offset_stream": {WireMode.BASELINE: b"\x08\x01hello", WireMode.REVERSO: b"hello\x04\x08"},
}


class TestAtomicity:
    """An authenticated packet that raises applies nothing: each walk
    decodes and checks the whole packet before any of it applies."""

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("bad", list(OUTSIDE))
    def test_raising_packet_changes_nothing(self, mode, bad):
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        # in the walk's order: an ack of 0-2, a close, then the bad frame
        ctrl = [ack(2, (0, 3)), CLOSE]
        outside = OUTSIDE[bad]
        if isinstance(outside, dict):
            outside = outside[mode]
        ctrl = [outside, *ctrl] if mode is WireMode.REVERSO else [*ctrl, outside]
        # beside an anchor opening stream 1, and alone
        for pn, (frame, sid) in enumerate([(stream(0, b"hello"), 1), (None, 0)]):
            before = receiver_state(server, sbuf)
            with pytest.raises(ProtocolViolation, match="outside the packet layout"):
                server.recv(seal(mode, C2S, pn, layout(mode, frame, ctrl), sid, 0), sbuf)
            assert receiver_state(server, sbuf) == before
        assert not sbuf.buffers and sbuf.spare is not None  # staged, never bound

    @pytest.mark.parametrize("tail", ["0d", "0d41", "0d01", "0d018000"])
    def test_truncated_baseline_stream_fields_change_nothing(self, tail):
        # baseline's stream frame cut short: no stream id, half a 2-byte
        # one, no offset, half a 4-byte one; after an ack that would apply
        server, sbuf = in_flight_server(WireMode.BASELINE), AppRecvBufMap()
        pt = layout(WireMode.BASELINE, None, [ack(2, (0, 3))]) + bytes.fromhex(tail)
        before = receiver_state(server, sbuf)
        with pytest.raises(MalformedFrame, match="truncated varint"):
            server.recv(seal(WireMode.BASELINE, C2S, 0, pt), sbuf)
        assert receiver_state(server, sbuf) == before


class TestDraining:
    """An endpoint that has received a close drains (RFC 9000 §10.2.2):
    it discards every datagram that arrives and sends nothing."""

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_packets_after_close_change_nothing(self, mode):
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.recv(seal(mode, C2S, 0, layout(mode, None, [ack(1), CLOSE])), sbuf)
        assert server.closed and server.close_error == (9, b"bye")
        before = receiver_state(server, sbuf)
        received = server.metrics().bytes_received
        # authenticated stream data that would open stream 1 and ack 0-3
        gram = seal(mode, C2S, 1, layout(mode, stream(0, b"late"), [ack(3, (0, 4))]), 1, 0)
        server.recv(gram, sbuf)
        assert receiver_state(server, sbuf) == before
        assert server.metrics().bytes_received == received + len(gram)
        assert server.build_packet(bytearray(MAX_DATAGRAM)) is None


class TestAckValidation:
    """An ack is checked before anything of its packet is applied. The
    direct cases carry the ack alone, the close cases a close after it."""

    def setup(self, mode):
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.recv(seal(mode, C2S, 0, layout(mode, stream(0, b"first"), [ack(1)]), 1, 0), sbuf)
        assert sorted(server.unacked) == [0, 2, 3] and server.largest_peer_acked == 1
        return server, sbuf

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("close", [False, True], ids=["direct", "close"])
    @pytest.mark.parametrize("with_data", [True, False], ids=["stream", "ack-only"])
    def test_range_below_zero_rejects_the_packet(self, mode, close, with_data):
        server, sbuf = self.setup(mode)
        before = receiver_state(server, sbuf)
        bad = ack(3, (0, 1), (0, 4))  # 3, then 2 down to -1
        ctrl = [bad, CLOSE] if close else [bad]
        frame, sid, off = (stream(5, b"second"), 1, 5) if with_data else (None, 0, 0)
        gram = seal(mode, C2S, 1, layout(mode, frame, ctrl), sid, off)
        with pytest.raises(MalformedFrame, match="below packet number 0"):
            server.recv(gram, sbuf)
        assert receiver_state(server, sbuf) == before

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("close", [False, True], ids=["direct", "close"])
    def test_ack_for_a_packet_never_sent_is_dropped(self, mode, close):
        server, sbuf = self.setup(mode)
        huge = ack(10**6, (0, 1))
        ctrl = [huge, CLOSE] if close else [huge]
        server.recv(seal(mode, C2S, 1, layout(mode, stream(5, b"second"), ctrl), 1, 5), sbuf)
        # the ack changed nothing, the rest of the packet applied
        assert sorted(server.unacked) == [0, 2, 3]
        assert server.largest_peer_acked == 1
        assert bytes(server.stream_recv(1, sbuf)[0]) == b"firstsecond"
        assert 1 in server.ack_pending
        assert server.closed is close
        out = bytearray(MAX_DATAGRAM)
        if close:
            # draining: the ack owed for the data is never sent (RFC 9000 §10.2.2)
            assert server.build_packet(out, now=0.0) is None
            return
        # packet-number truncation still counts from the real largest acked
        server.build_packet(out, now=0.0)
        packet = bytearray(out)
        header.unprotect(packet, server.send_keys, 3, mode is WireMode.REVERSO)
        assert (packet[0] & 0x03) + 1 == 1

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_wide_range_in_a_multi_range_ack(self, mode):
        """A range longer than 2 * SEND_WINDOW is intersected with what is
        in flight: it removes exactly the in-flight numbers it covers."""
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.next_pn = 300  # as if 4 .. 299 had gone out and been acked
        server.stream_send(7, b"t" * 3000)
        out = bytearray(MAX_DATAGRAM)
        for _ in range(3):
            server.build_packet(out, now=0.0)
        assert sorted(server.unacked) == [0, 1, 2, 3, 300, 301, 302]
        wide = 2 * SEND_WINDOW + 171
        # 302, then past 301: 300 down to 2
        server.recv(seal(mode, C2S, 0, layout(mode, None, [ack(302, (0, 1), (1, wide))])), sbuf)
        assert sorted(server.unacked) == [0, 1, 301]
        assert server.largest_peer_acked == 302


def stored(appbuf):
    """Per stream: the consumed and contiguous offsets, the committed,
    unconsumed bytes, and each received range with its bytes."""
    return {
        sid: (b.consumed_offset, b.contiguous_offset, bytes(b.readable_span()[0]),
              [(lo, hi, bytes(b.storage[lo - b.base_offset : hi - b.base_offset]))
               for lo, hi in zip(b.starts, b.ends)])
        for sid, b in appbuf.buffers.items()
    }


def shuffled_transfer(mode, payload, seed, loss, dup, corrupt, capacity):
    """An honest transfer of payload ({stream id: bytes}) through
    Connection.recv in random order, with loss, duplicates and copies
    whose tag is corrupted interleaved; the receiver's acks return
    intact, and whatever stays unacked is retransmitted. Every
    corrupted copy must leave each committed byte and each received
    range as it was. Returns the bytes read per stream and the
    receiver's metrics."""
    rng = random.Random(seed)
    client, server = pair(mode)
    appbuf, client_buf = AppRecvBufMap(capacity), AppRecvBufMap()
    for sid, data in payload.items():
        client.stream_send(sid, data, fin=True)
    got = {sid: bytearray() for sid in payload}
    out = bytearray(MAX_DATAGRAM)
    now = 0.0
    while not client.send_done():
        schedule = []
        while (n := client.build_packet(out, now=now)) is not None:
            gram = bytes(out[:n])
            if rng.random() >= loss:
                schedule += [(gram, False)] * (2 if rng.random() < dup else 1)
            if rng.random() < corrupt:
                schedule.append((gram[:-1] + bytes([gram[-1] ^ 0x01]), True))
        rng.shuffle(schedule)
        for gram, corrupted in schedule:
            before = stored(appbuf) if corrupted else None
            failures = server.metrics().decrypt_failures
            server.recv(bytearray(gram), appbuf)
            if corrupted:
                assert stored(appbuf) == before
                assert server.metrics().decrypt_failures == failures + 1
            if rng.random() < 0.3:
                for sid in server.readable():
                    view, _ = server.stream_recv(sid, appbuf)
                    got[sid] += view
                    server.stream_consumed(sid, len(view), appbuf)
        while (n := server.build_packet(out, now=now)) is not None:
            client.recv(bytearray(out[:n]), client_buf)
        now += 1.0  # past the retransmission timeout
        client.on_timeout(now)
    for sid in payload:
        view, fin = server.stream_recv(sid, appbuf)
        got[sid] += view
        assert fin
    return got, server.metrics()


class TestShuffledDifferential:
    """Both modes deliver the same bytes however the datagrams arrive,
    and each delivered byte is counted once, copied or not."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        sizes=st.lists(st.integers(0, 12_000), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        loss=st.sampled_from([0.0, 0.1, 0.3]),
        dup=st.sampled_from([0.0, 0.1, 0.3]),
        corrupt=st.sampled_from([0.0, 0.2, 0.5]),
        capacity=st.sampled_from([2048, 1 << 20]),
    )
    def test_modes_deliver_identical_bytes(self, sizes, seed, loss, dup, corrupt, capacity):
        rng = random.Random(seed)
        payload = {sid: rng.randbytes(n) for sid, n in enumerate(sizes, 1)}
        delivered = {}
        for mode in WireMode:
            got, m = shuffled_transfer(mode, payload, seed, loss, dup, corrupt, capacity)
            assert m.payload_bytes_copied + m.payload_bytes_zero_copy == sum(sizes)
            delivered[mode] = got
        assert delivered[WireMode.REVERSO] == delivered[WireMode.BASELINE] == payload
