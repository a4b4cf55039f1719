"""Connection send/receive pipelines in both wire modes."""

import random
import zlib
from dataclasses import replace

import pytest

from revquic import crypto, header, wire
from revquic.endpoint import MAX_DATAGRAM, SEND_WINDOW, Connection, Role
from revquic.errors import (
    BufferTooSmall,
    MalformedFrame,
    MalformedHeader,
    ProtocolViolation,
    SendAfterFin,
    StreamIdOverflow,
    StreamNotFound,
    UnknownFrameType,
)
from revquic.header import ShortHeader
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap
from revquic.wire import PaddingFrame, PingFrame, StreamFrame

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
    """Seal an arbitrary frame list under full header protection."""
    scratch = bytearray(2 * MAX_DATAGRAM)
    if mode is WireMode.REVERSO:
        pt_len = wire.serialize_reversed(frames, scratch)
        while pt_len < header.MIN_PLAINTEXT:
            frames = frames + [PaddingFrame()]
            pt_len = wire.serialize_reversed(frames, scratch)
    else:
        pt_len = wire.serialize_forward(frames, scratch)
        while pt_len < header.MIN_PLAINTEXT:
            frames = [PaddingFrame()] + frames
            pt_len = wire.serialize_forward(frames, scratch)
    return seal(mode, keys, pn, scratch[:pt_len], hdr_sid, hdr_off, pn_len, off_len)


def seal(mode, keys, pn, plaintext, hdr_sid=0, hdr_off=0, pn_len=1, off_len=None):
    """Seal plaintext bytes under full header protection."""
    h = ShortHeader(
        packet_number=pn, pn_length=pn_len, stream_id=hdr_sid, offset=hdr_off, off_length=off_len
    )
    hb = header.encode_header(mode, h)
    out = bytearray(len(hb) + len(plaintext) + crypto.TAG_LEN)
    out[: len(hb)] = hb
    crypto.seal(keys, pn, hb, plaintext, memoryview(out)[len(hb) :])
    header.protect_header(mode, out, keys)
    return out


def layout(mode, stream=None, ctrl=()):
    """Plaintext laid out as build_packet lays it out. Reverso: the
    stream frame, control frames, padding. Baseline: control frames,
    padding, the stream frame."""
    scratch = bytearray(2 * MAX_DATAGRAM)

    def ser(frames):
        if not frames:
            return b""
        serialize = wire.serialize_reversed if mode is WireMode.REVERSO else wire.serialize_forward
        return bytes(scratch[: serialize(frames, scratch)])

    if mode is WireMode.REVERSO:
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
        h, _ = header.unprotect_and_decode(
            WireMode.REVERSO, bytearray(out[:n]), client.recv_keys, 0, lambda s: 0
        )
        assert h.stream_id == 0
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
            h, _ = header.unprotect_and_decode(
                WireMode.BASELINE, bytearray(out[:n]), server.recv_keys,
                pns[-1] if pns else 0, lambda s: 0,
            )
            pns.append(h.packet_number)
            server.recv(copy, appbuf)
        assert pns == sorted(set(pns))


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
            assert sbuf.get(1).capacity == 32 * 1024
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
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.queue_close(error_code=7, reason=b"done")
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        assert server.closed
        assert server.close_error == (7, b"done")

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

    def test_retransmission_reuses_offset(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        payload = bytes(range(256)) * 20
        client.stream_send(1, payload, fin=True)
        grams = self.build_all(client)
        assert len(grams) >= 2
        lost, rest = grams[0], grams[1:]
        for g in rest:
            server.recv(bytearray(g), sbuf)
        assert server.metrics().packets_out_of_order == len(rest)
        client.on_timeout(now=1e9)  # well past the RTO
        assert client.metrics().retransmissions >= 1
        for g in self.build_all(client):
            server.recv(bytearray(g), sbuf)
        view, fin = server.stream_recv(1, sbuf)
        assert (bytes(view), fin) == (payload, True)
        # the late stash drains were real copies, everything else was not
        m = server.metrics()
        assert m.payload_bytes_copied == m.payload_bytes_stashed

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
        late = grams[1]
        ooo_bytes = 0
        for g in grams[2:]:
            server.recv(bytearray(g), sbuf)
        server.recv(bytearray(grams[0]), sbuf)
        server.recv(bytearray(late), sbuf)
        m = server.metrics()
        # exactly the bytes that arrived ahead of the gap were copied
        assert m.packets_out_of_order == 3
        assert m.payload_bytes_copied == m.payload_bytes_stashed > 0
        assert m.payload_bytes_copied + m.payload_bytes_zero_copy == 6000
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

    @pytest.mark.parametrize(
        "lane", ["fast", "first_contact", "off_tail", "off_tail_first_contact"]
    )
    def test_failed_open_never_writes_below_watermark(self, lane):
        """decrypt_into leaves unauthenticated bytes in its destination
        when the tag fails. The tail lanes (stream 1 continuing, stream 2
        opened at offset 0) must aim it past the contiguous watermark and
        bind nothing until the tag verifies; the off-tail lanes (stream 1
        past a gap, stream 2 first seen past offset 0) open in place in
        the datagram and touch no storage at all."""
        client, server = pair(WireMode.REVERSO)
        appbuf = AppRecvBufMap()
        out = bytearray(MAX_DATAGRAM)
        client.stream_send(1, bytes(range(256)) * 16)
        for _ in range(2):
            n = client.build_packet(out)
            server.recv(bytearray(out[:n]), appbuf)
        sbuf = appbuf.get(1)
        watermark = sbuf.contiguous_offset
        storage = bytes(sbuf.storage)
        committed = storage[: watermark - sbuf.base_offset]
        spare = appbuf.spare
        allocations = appbuf.allocations
        target = 2 if lane.endswith("first_contact") else 1
        if target == 2:
            client.send_streams[1].queue.clear()  # next packets open stream 2
            client.stream_send(2, b"y" * 3000)
        off_tail = lane.startswith("off_tail")
        if off_tail:
            client.build_packet(out)  # lost: the next one lands past a gap
        n = client.build_packet(out)
        assert n is not None
        gram = bytearray(out[:n])
        gram[-1] ^= 0x01  # corrupt the tag, leaving the header sample alone
        hdr, _ = header.unprotect_and_decode(
            WireMode.REVERSO, bytearray(gram), server.recv_keys, server.largest_received_pn,
            lambda sid: appbuf.get(sid).contiguous_offset if appbuf.get(sid) else 0,
        )
        assert hdr.stream_id == target
        assert (hdr.offset == (watermark if target == 1 else 0)) is not off_tail
        pristine = bytes(gram)
        server.recv(gram, appbuf)
        assert server.metrics().decrypt_failures == 1
        assert sbuf.contiguous_offset == watermark
        assert bytes(sbuf.storage[: watermark - sbuf.base_offset]) == committed
        assert set(appbuf.buffers) == {1}
        if off_tail:
            assert bytes(sbuf.storage) == storage
            assert appbuf.spare is spare and appbuf.allocations == allocations
        else:
            # opened into storage, not over the ciphertext
            tail = header.SAMPLE_OFFSET  # past the longest header
            assert bytes(gram[tail:]) == pristine[tail:]
            if target == 1:
                assert appbuf.spare is spare and appbuf.allocations == allocations
            else:
                # the spare staged for stream 2 stays unbound, for reuse
                assert spare is None and appbuf.spare is not None
                assert appbuf.allocations == allocations + 1

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
        allowed = (MalformedHeader, MalformedFrame, ProtocolViolation, UnknownFrameType)
        for _ in range(200):
            gram = bytearray(pristine)
            gram[rng.randrange(len(gram))] ^= 1 << rng.randrange(8)
            try:
                server.recv(gram, sbuf)
            except allowed:
                pass
            assert zlib.crc32(bytes(server.stream_recv(1, sbuf)[0])) == committed

    def test_footer_stream_id_mismatch(self):
        _, server = pair(WireMode.REVERSO)
        appbuf = AppRecvBufMap()
        spare = appbuf.spare
        frame = StreamFrame(stream_id=2, offset=0, data=b"x" * 40, explicit_len=False)
        gram = craft(WireMode.REVERSO, C2S, 0, [frame], hdr_sid=1, hdr_off=0)
        with pytest.raises(ProtocolViolation):
            server.recv(gram, appbuf)
        # authenticated but inconsistent: the first contact binds nothing
        assert not appbuf.buffers
        assert appbuf.spare is spare

    def test_footer_offset_mismatch(self):
        client, server = pair(WireMode.REVERSO)
        sbuf = AppRecvBufMap()
        client.stream_send(1, b"k" * 100)
        out = bytearray(MAX_DATAGRAM)
        n = client.build_packet(out)
        server.recv(bytearray(out[:n]), sbuf)
        frame = StreamFrame(stream_id=1, offset=40, data=b"x" * 40, explicit_len=False)
        gram = craft(WireMode.REVERSO, C2S, 1, [frame], hdr_sid=1, hdr_off=100)
        with pytest.raises(ProtocolViolation):
            server.recv(gram, sbuf)

    def test_stream_frame_inside_control_packet(self):
        _, server = pair(WireMode.REVERSO)
        frame = StreamFrame(stream_id=3, offset=0, data=b"x" * 30, explicit_len=True)
        gram = craft(WireMode.REVERSO, C2S, 0, [frame, PingFrame()], hdr_sid=0)
        with pytest.raises(ProtocolViolation):
            server.recv(gram, AppRecvBufMap())

    def test_stream_id_zero_inside_stream_frame(self):
        _, server = pair(WireMode.BASELINE)
        frame = StreamFrame(stream_id=0, offset=0, data=b"x" * 30, explicit_len=False)
        gram = craft(WireMode.BASELINE, C2S, 0, [frame])
        with pytest.raises(ProtocolViolation):
            server.recv(gram, AppRecvBufMap())

    def test_header_claims_stream_without_anchor(self):
        _, server = pair(WireMode.REVERSO)
        gram = craft(WireMode.REVERSO, C2S, 0, [PingFrame()], hdr_sid=1, hdr_off=0)
        with pytest.raises(ProtocolViolation):
            server.recv(gram, AppRecvBufMap())


class TestLaneConsistency:
    def test_packet_shapes_agree_on_state(self):
        """The same fragment stream through different frame layouts must
        land identical bytes and identical copy accounting."""
        rng = random.Random(9)
        chunks = [rng.randbytes(rng.randint(1, 600)) for _ in range(50)]
        results = []
        for trailing in ([], [PingFrame()], [wire.MaxStreamDataFrame(1, 1 << 20)]):
            server = Connection(WireMode.REVERSO, Role.SERVER, SECRET)
            sbuf = AppRecvBufMap()
            offset = 0
            for pn, chunk in enumerate(chunks):
                frame = StreamFrame(stream_id=1, offset=offset, data=chunk, explicit_len=False)
                gram = craft(
                    WireMode.REVERSO, C2S, pn, [frame] + trailing, hdr_sid=1, hdr_off=offset
                )
                server.recv(gram, sbuf)
                offset += len(chunk)
            m = server.metrics()
            view, _ = server.stream_recv(1, sbuf)
            results.append(
                (bytes(view), m.payload_bytes_zero_copy, m.payload_bytes_copied, m.packets_in_order)
            )
        assert results[0] == results[1] == results[2]
        assert results[0][1] == sum(map(len, chunks))


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
    """Everything a received packet can change, for comparison."""
    streams = {
        sid: (bytes(conn.stream_recv(sid, appbuf)[0]), sbuf.contiguous_offset)
        for sid, sbuf in appbuf.buffers.items()
    }
    return (sorted(conn.unacked), conn.largest_peer_acked, sorted(conn.ack_pending),
            conn.metrics(), streams, conn.closed)


def stream(offset, data):
    return StreamFrame(stream_id=1, offset=offset, data=data, explicit_len=False)


def ack(largest, *ranges):
    return wire.AckFrame(largest_acked=largest, ranges=list(ranges) or [(0, 1)])


def rpc_shapes(mode, via_parser):
    """The packets an rpc peer sends, as (pn, plaintext, header stream
    id, header offset). via_parser adds a frame that changes nothing
    here but sends the packet through the wire parser: a ping beside
    stream data, which is ack-eliciting anyway, or the ack a second
    time, which acks nothing new. The walk meets it first: it goes last
    in reverso, first in baseline."""
    def with_(frames, extra):
        if not via_parser:
            return frames
        return frames + [extra] if mode is WireMode.REVERSO else [extra] + frames

    return [
        # a padded 1-byte message
        (0, layout(mode, stream(0, b"m"), with_([], PingFrame())), 1, 0),
        # stream data, an ack and padding
        (1, layout(mode, stream(1, b"yz"), with_([ack(2, (0, 2))], PingFrame())), 1, 1),
        # an ack alone, padded
        (2, layout(mode, None, with_([ack(3, (0, 1), (1, 1))], ack(3, (0, 1), (1, 1)))), 0, 0),
        # stream data past a gap (off the tail) with an ack
        (3, layout(mode, stream(10, b"late"), with_([ack(0)], PingFrame())), 1, 10),
    ]


def fail(*_args, **_kwargs):
    raise AssertionError("the direct lane called the wire parser")


class TestControlLanes:
    """Acks and padding are read in place: the shapes build_packet emits
    never reach the wire parser, and they leave the same state as the
    frame-list route."""

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_direct_lane_matches_frame_list_route(self, mode, monkeypatch):
        states = {}
        for via_parser in (True, False):
            if not via_parser:
                monkeypatch.setattr(wire, "parse_forward", fail)
                monkeypatch.setattr(wire, "parse_reversed", fail)
                monkeypatch.setattr(Connection, "_process_plaintext", fail)
            server, sbuf = in_flight_server(mode), AppRecvBufMap()
            for pn, pt, hdr_sid, hdr_off in rpc_shapes(mode, via_parser):
                assert len(pt) == header.MIN_PLAINTEXT  # both routes pad to one size
                server.recv(seal(mode, C2S, pn, pt, hdr_sid, hdr_off), sbuf)
            states[via_parser] = receiver_state(server, sbuf)
        assert states[False] == states[True]
        unacked, largest, pending, m, streams, _ = states[False]
        assert (unacked, largest, pending) == ([], 3, [0, 1, 3])
        assert streams[1] == (b"myz", 3)
        assert (m.packets_in_order, m.packets_out_of_order, m.packets_control_only) == (2, 1, 1)

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("extra", ["close", "ping", "max_stream_data"])
    def test_other_frames_reach_process_plaintext(self, mode, extra, monkeypatch):
        calls = []
        real = Connection._process_plaintext

        def spy(conn, *args, **kwargs):
            calls.append(args[1])
            return real(conn, *args, **kwargs)

        monkeypatch.setattr(Connection, "_process_plaintext", spy)
        frame = {
            "close": wire.ConnectionCloseFrame(error_code=9, reason=b"bye"),
            "ping": PingFrame(),
            "max_stream_data": wire.MaxStreamDataFrame(stream_id=1, maximum=1 << 20),
        }[extra]
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.recv(seal(mode, C2S, 0, layout(mode, stream(0, b"ab"), [ack(1), frame]), 1, 0), sbuf)
        server.recv(seal(mode, C2S, 1, layout(mode, None, [ack(2), frame])), sbuf)
        assert calls == [0, 1]
        assert sorted(server.unacked) == [0, 3]
        assert bytes(server.stream_recv(1, sbuf)[0]) == b"ab"
        assert server.closed == (extra == "close")
        assert sorted(server.ack_pending) == [0, 1]  # every one of them elicits an ack


class TestAckValidation:
    """An ack is checked before anything of its packet is applied."""

    def setup(self, mode):
        server, sbuf = in_flight_server(mode), AppRecvBufMap()
        server.recv(seal(mode, C2S, 0, layout(mode, stream(0, b"first"), [ack(1)]), 1, 0), sbuf)
        assert sorted(server.unacked) == [0, 2, 3] and server.largest_peer_acked == 1
        return server, sbuf

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("route", ["direct", "parser"])
    @pytest.mark.parametrize("with_data", [True, False], ids=["stream", "ack-only"])
    def test_range_below_zero_rejects_the_packet(self, mode, route, with_data):
        server, sbuf = self.setup(mode)
        before = receiver_state(server, sbuf)
        bad = ack(3, (0, 1), (0, 4))  # 3, then 2 down to -1
        # the parser meets the ping first: after the ack in reverso, before it in baseline
        ctrl = [bad] if route == "direct" else (
            [bad, PingFrame()] if mode is WireMode.REVERSO else [PingFrame(), bad]
        )
        frame, sid, off = (stream(5, b"second"), 1, 5) if with_data else (None, 0, 0)
        gram = seal(mode, C2S, 1, layout(mode, frame, ctrl), sid, off)
        with pytest.raises(MalformedFrame, match="below packet number 0"):
            server.recv(gram, sbuf)
        after = receiver_state(server, sbuf)
        # the datagram's bytes were counted, nothing else changed
        assert after[:3] == before[:3] and after[4:] == before[4:]
        assert replace(after[3], bytes_received=0) == replace(before[3], bytes_received=0)

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("route", ["direct", "parser"])
    def test_ack_for_a_packet_never_sent_is_dropped(self, mode, route):
        server, sbuf = self.setup(mode)
        huge = ack(10**6, (0, 1))
        ctrl = [huge] + ([PingFrame()] if route == "parser" else [])
        if mode is WireMode.BASELINE:
            ctrl.reverse()
        server.recv(seal(mode, C2S, 1, layout(mode, stream(5, b"second"), ctrl), 1, 5), sbuf)
        # the ack changed nothing, the rest of the packet applied
        assert sorted(server.unacked) == [0, 2, 3]
        assert server.largest_peer_acked == 1
        assert bytes(server.stream_recv(1, sbuf)[0]) == b"firstsecond"
        assert 1 in server.ack_pending
        # packet-number truncation still counts from the real largest acked
        out = bytearray(MAX_DATAGRAM)
        server.build_packet(out, now=0.0)
        assert header.unprotect_and_decode(
            mode, bytearray(out), server.send_keys, 3, lambda s: 0
        )[0].pn_length == 1
