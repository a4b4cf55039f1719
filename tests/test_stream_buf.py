"""Receive buffers: commits, placement of out-of-order fragments,
recycling, and the receive-side destination choice that feeds them."""

import random
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from revquic import header, stream_buf, wire
from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.errors import (
    ConsumeOutOfRange,
    FinalSizeError,
    ProtocolViolation,
    StreamIdOverflow,
)
from revquic.mode import WireMode
from revquic.stream_buf import DEFAULT_CAPACITY, WINDOW, AppRecvBufMap, StreamRecvBuffer

from packets import StreamFrame
from test_endpoint import C2S, SECRET, craft, receiver_state


def pour(buf: StreamRecvBuffer, data: bytes, fin: bool = False) -> None:
    """Write data at the contiguous tail as a successful decrypt would,
    then commit it (8 bytes of scratch past the data stand for the
    anchor's type byte and trailing frames)."""
    tail = buf.contiguous_offset
    assert not buf.starts or tail + len(data) + 8 <= buf.starts[0], "footprint reaches a range"
    buf.ensure_room(tail - buf.base_offset + len(data) + 8)
    dest = tail - buf.base_offset
    buf.storage[dest : dest + len(data)] = data
    buf.storage[dest + len(data) : dest + len(data) + 8] = b"\xee" * 8
    assert buf.commit(tail, tail + len(data), fin)


def arrive(buf: StreamRecvBuffer, data: bytes) -> None:
    """Continue the tail as the reverso receiver would: opened onto the
    tail when the footprint ends by the first received range, else
    placed from the datagram."""
    tail = buf.contiguous_offset
    if not buf.starts or tail + len(data) + 8 <= buf.starts[0]:
        pour(buf, data)
    else:
        buf.place(tail, data, False)


def ranges(buf: StreamRecvBuffer) -> list[tuple[int, int]]:
    return list(zip(buf.starts, buf.ends))


def at(buf: StreamRecvBuffer, start: int, end: int) -> bytes:
    """The stored bytes of stream offsets [start, end)."""
    return bytes(buf.storage[start - buf.base_offset : end - buf.base_offset])


class Receiver:
    """A server connection and its buffers, fed with crafted packets."""

    def __init__(self, mode=WireMode.REVERSO, **appbuf) -> None:
        self.conn = Connection(mode, Role.SERVER, SECRET)
        self.appbuf = AppRecvBufMap(**appbuf)
        self.mode = mode
        self.pn = 0

    def packet(self, sid, offset, data, fin=False):
        frame = StreamFrame(stream_id=sid, offset=offset, data=data, fin=fin, explicit_len=False)
        self.pn += 1
        # a full-width offset, as build_packet writes it
        return craft(self.mode, C2S, self.pn, [frame], hdr_sid=sid, hdr_off=offset, off_len=4)

    def recv(self, gram):
        self.conn.recv(gram, self.appbuf)
        return self.conn.metrics()

    def send(self, sid, offset, data, fin=False):
        return self.recv(self.packet(sid, offset, data, fin=fin))

    def opens_in_storage(self, gram, error=None):
        """Feed gram, which must raise error when one is given; returns
        whether its ciphertext stayed untouched, that is, whether the
        open aimed at stream storage rather than at the datagram."""
        pristine = bytes(gram)
        if error is None:
            self.recv(gram)
        else:
            with pytest.raises(error):
                self.recv(gram)
        tail = header.SAMPLE_OFFSET  # past the longest header
        return bytes(gram[tail:]) == pristine[tail:]

    def forge(self, sid, offset=0):
        """A packet whose tag fails; returns the metrics and whether the
        open aimed at stream storage."""
        gram = self.packet(sid, offset, b"f" * 100)
        gram[-1] ^= 0x01
        into_storage = self.opens_in_storage(gram)
        return self.conn.metrics(), into_storage


class TestDecryptionPlan:
    """The header alone chooses where the AEAD opens: at the offset it
    names in the storage of the stream it names, when the whole
    footprint fits a hole there, or in place in the datagram."""

    def test_tail_offset_is_zero_copy(self):
        r = Receiver()
        r.send(4, 0, b"x" * 100)
        m = r.send(4, 100, b"y" * 500)
        assert (m.payload_bytes_zero_copy, m.payload_bytes_copied) == (600, 0)
        assert bytes(r.appbuf.get(4).storage[100:600]) == b"y" * 500

    def test_future_offset_is_out_of_order(self):
        r = Receiver()
        r.send(4, 0, b"x" * 1300)
        m = r.send(4, 2400, b"z" * 500)
        assert m.packets_out_of_order == 1
        # opened into the hole at its offset: recorded, not copied
        assert (m.payload_bytes_copied, m.payload_bytes_zero_copy) == (0, 1800)
        assert r.appbuf.get(4).contiguous_offset == 1300
        assert ranges(r.appbuf.get(4)) == [(2400, 2900)]
        assert at(r.appbuf.get(4), 2400, 2900) == b"z" * 500

    def test_tail_reaching_a_range_is_placed(self):
        r = Receiver()
        r.send(4, 0, b"x" * 100)
        r.send(4, 300, b"z" * 500)  # opened in the hole past the gap
        # the anchor's type byte would land on the range: opened in the datagram
        m = r.send(4, 100, b"y" * 200)
        assert (m.payload_bytes_zero_copy, m.payload_bytes_copied) == (600, 200)
        assert (m.packets_in_order, m.packets_out_of_order) == (2, 1)
        buf = r.appbuf.get(4)
        assert (buf.contiguous_offset, ranges(buf)) == (800, [])
        assert bytes(buf.readable_span()[0]) == b"x" * 100 + b"y" * 200 + b"z" * 500

    def test_fragment_past_window_is_dropped_unacked(self):
        for mode in WireMode:
            r = Receiver(mode)
            before = r.send(4, 0, b"x" * 100)
            m = r.send(4, 100 + WINDOW, b"w")
            assert m.packets_out_of_order == 1
            assert m.payload_bytes_copied == before.payload_bytes_copied
            assert ranges(r.appbuf.get(4)) == []
            assert r.pn not in r.conn.ack_pending

    def test_past_offset_is_suspicious(self):
        r = Receiver()
        r.send(4, 0, b"x" * 1300)
        committed = bytes(r.appbuf.get(4).storage[:1300])
        m = r.send(4, 0, b"w" * 500)
        assert m.packets_spurious == 1
        assert bytes(r.appbuf.get(4).storage[:1300]) == committed

    def test_stream_zero_is_control_only(self):
        r = Receiver()
        spare = r.appbuf.spare
        r.pn += 1
        m = r.recv(craft(WireMode.REVERSO, C2S, r.pn, [], hdr_sid=0))  # padding alone
        assert m.packets_control_only == 1
        assert not r.appbuf.buffers
        assert r.appbuf.spare is spare

    def test_stream_id_out_of_range(self):
        # the baseline frame carries it and the receiver refuses it
        r = Receiver(WireMode.BASELINE)
        with pytest.raises(ProtocolViolation):
            r.send(1 << 30, 0, b"x" * 40)
        assert (1 << 30) not in r.appbuf.buffers
        # the reverso header, the anchor's one locator, cannot name it
        with pytest.raises(StreamIdOverflow):
            header.pack_header(True, 0, 1, 1 << 30, 0, 4)

    def test_zero_copy_plan_grows_storage(self):
        # a tail packet past capacity opens in the datagram; storage grows
        # only once the tag verifies, for the copy
        r = Receiver(default_capacity=1024)
        before = r.appbuf.allocations
        m = r.send(4, 0, b"g" * 1300)
        assert (m.payload_bytes_zero_copy, m.payload_bytes_copied) == (0, 1300)
        assert r.appbuf.allocations == before + 1
        assert len(r.appbuf.get(4).storage) >= 1300

    def test_forged_packet_past_capacity_grows_nothing(self):
        r = Receiver(default_capacity=1024)
        r.send(4, 0, b"x" * 1000)
        buf, spare, before = r.appbuf.get(4), r.appbuf.spare, r.appbuf.allocations
        m, into_storage = r.forge(4, 1000)  # continues the tail, footprint past 1024
        assert m.decrypt_failures == 1 and not into_storage
        assert (len(buf.storage), r.appbuf.allocations, r.appbuf.spare) == (1024, before, spare)
        assert bytes(buf.readable_span()[0]) == b"x" * 1000

    def test_fresh_stream_binds_spare(self):
        r = Receiver()
        spare = r.appbuf.spare
        r.send(9, 0, b"x" * 100)
        assert r.appbuf.get(9) is spare
        assert r.appbuf.spare is None


# a stream holding [0, 100) and the range [1000, 1100), and a 200-byte
# packet at its tail, in the hole between, or past every range
AT = {"tail": 100, "between_ranges": 400, "past_ranges": 1200}


def alter_header(gram, stream_id=None, offset=None):
    """gram, sealed, with its header's stream id or offset rewritten in
    place (same field widths) and the header protection reapplied."""
    gram = bytearray(gram)
    hdr_len, pn, sid, off = header.unprotect(gram, C2S, 0, True)
    flags = gram[0]
    pn_len = (flags & 0x03) + 1
    off_len = hdr_len - header.PN_OFFSET - pn_len - ((flags >> 3) & 0x03) - 1
    sid = sid if stream_id is None else stream_id
    off = off if offset is None else offset
    assert header.PN_OFFSET + pn_len + header.wire_sid_length(sid) + off_len == hdr_len
    dcid = int.from_bytes(gram[1 : header.PN_OFFSET], "big")
    hdr = header.pack_header(True, pn, pn_len, sid, off, off_len, dcid, (flags >> 2) & 1)
    header.protect(gram, C2S, hdr, hdr_len, True)
    return gram


def two_ranges(r: Receiver) -> StreamRecvBuffer:
    r.send(4, 0, b"x" * 100)
    r.send(4, 1000, b"y" * 100)
    return r.appbuf.get(4)


class TestAtOffset:
    """The checks a packet opened at its offset meets once its tag
    verifies, at the tail and in a hole past it: the header, which
    locates the data, is authenticated with it, the window bounds the
    fragment, and the final size bounds the data. A packet that fails
    one applies nothing."""

    @pytest.mark.parametrize("where", [*AT, "reaching_range"])
    @pytest.mark.parametrize("field", ["stream_id", "offset"])
    def test_altered_header_fails_the_tag(self, where, field):
        """A header whose stream id or offset changed after sealing fails
        the tag, whichever lane the packet takes: first contact (another
        stream id), at its offset in storage, or in the datagram (a
        footprint reaching the range at 1000). Nothing changes: committed
        bytes, received ranges, the watermark, the spare, acks owed."""
        r = Receiver()
        two_ranges(r)
        spare = r.appbuf.spare
        before = receiver_state(r.conn, r.appbuf)
        off = AT.get(where, 850)
        gram = r.packet(4, off, b"d" * 200)
        if field == "stream_id":
            gram = alter_header(gram, stream_id=5)
        else:
            gram = alter_header(gram, offset=off + 1)
        in_datagram = where == "reaching_range" and field == "offset"
        assert r.opens_in_storage(gram) is not in_datagram
        after = receiver_state(r.conn, r.appbuf)
        m = after[3]
        assert m.decrypt_failures == before[3].decrypt_failures + 1
        assert after[:3] + (replace(m, decrypt_failures=before[3].decrypt_failures),) + after[4:] == before
        assert set(r.appbuf.buffers) == {4}
        if field == "stream_id":
            # first contact staged a spare and left it unbound, for reuse
            assert spare is None and r.appbuf.spare is not None
        else:
            assert r.appbuf.spare is spare

    @pytest.mark.parametrize("where", list(AT))
    def test_fragment_past_window_is_dropped_unacked(self, where, monkeypatch):
        r = Receiver()
        buf = two_ranges(r)
        monkeypatch.setattr(stream_buf, "WINDOW", 150)  # the boundary, without 16 MiB of storage
        before = r.conn.metrics()
        m = r.send(4, AT[where], b"w" * 200)
        assert (buf.contiguous_offset, ranges(buf), buf.fin_offset) == (100, [(1000, 1100)], None)
        assert r.pn not in r.conn.ack_pending
        assert (m.payload_bytes_zero_copy, m.payload_bytes_copied) == (
            before.payload_bytes_zero_copy, before.payload_bytes_copied)
        # within the window, the same offset opens there and is recorded
        monkeypatch.setattr(stream_buf, "WINDOW", WINDOW)
        m = r.send(4, AT[where], b"w" * 200)
        assert m.payload_bytes_zero_copy == before.payload_bytes_zero_copy + 200
        assert r.pn in r.conn.ack_pending

    @pytest.mark.parametrize("where", ["tail", "hole"])
    @pytest.mark.parametrize("order", ["fin_first", "data_first"])
    def test_data_past_final_size_raises(self, where, order):
        r = Receiver()
        if order == "fin_first":
            # the final size is known; the packet brings data past it
            if where == "tail":
                r.send(4, 0, b"x" * 100, fin=True)
                off = 100
            else:
                r.send(4, 0, b"x" * 100)
                r.send(4, 500, b"y" * 100, fin=True)
                off = 700
            gram = r.packet(4, off, b"d" * 200)
        else:
            # data lies past the final size the packet brings
            two_ranges(r)
            gram = r.packet(4, AT["tail" if where == "tail" else "between_ranges"], b"d" * 200, fin=True)
        before = receiver_state(r.conn, r.appbuf)
        fin = r.appbuf.get(4).fin_offset
        assert r.opens_in_storage(gram, FinalSizeError)
        assert receiver_state(r.conn, r.appbuf) == before
        assert r.appbuf.get(4).fin_offset == fin


    def test_empty_fin_in_a_hole_records_only_the_final_size(self):
        r = Receiver()
        r.send(4, 0, b"x" * 100)
        assert r.opens_in_storage(r.packet(4, 300, b"", fin=True))
        buf = r.appbuf.get(4)
        assert (buf.contiguous_offset, ranges(buf), buf.fin_offset) == (100, [], 300)
        assert r.conn.metrics().packets_out_of_order == 1 and r.pn in r.conn.ack_pending
        r.send(4, 100, b"y" * 200)
        assert bytes(buf.readable_span()[0]) == b"x" * 100 + b"y" * 200
        assert buf.readable_span()[2] is True


class TestCommitZeroCopy:
    def test_plain_commit_copies_nothing(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        pour(buf, b"b" * 1200)
        assert buf.contiguous_offset == 1300
        assert at(buf, 0, 1300) == b"a" * 100 + b"b" * 1200

    def test_commit_drains_stash(self):
        # the tail reaches data placed ahead of it and moves over it, uncopied
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        assert buf.place(1300, b"s" * 500, False) == 500
        pour(buf, b"b" * 1192)  # the 8 scratch bytes end right at the range
        assert (buf.contiguous_offset, ranges(buf)) == (1292, [(1300, 1800)])
        buf.place(1292, b"c" * 8, False)
        assert (buf.contiguous_offset, ranges(buf)) == (1800, [])
        view, n, _ = buf.readable_span()
        assert bytes(view[1292:1800]) == b"c" * 8 + b"s" * 500

    def test_next_data_overwrites_previous_footer(self):
        r = Receiver()
        r.send(4, 0, b"a" * 100)
        buf = r.appbuf.get(4)
        # scratch past the watermark: the anchor's type byte
        assert buf.storage[100] == wire.TYPE_ANCHOR
        assert buf.contiguous_offset == 100
        r.send(4, 100, b"b" * 200)
        assert buf.storage[100] == ord("b")
        assert bytes(buf.storage[:300]) == b"a" * 100 + b"b" * 200

    def test_commit_past_fin_rejected(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100, fin=True)
        with pytest.raises(FinalSizeError):
            pour(buf, b"b" * 10)

    def test_fin_size_change_rejected(self):
        buf = StreamRecvBuffer()
        buf.set_fin(500)
        with pytest.raises(FinalSizeError):
            buf.set_fin(400)
        with pytest.raises(FinalSizeError):
            buf.place(100, b"x" * 100, True)  # implies fin at 200

    def test_fin_below_received_rejected(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        with pytest.raises(FinalSizeError):
            buf.set_fin(50)


class TestFinalSize:
    """RFC 9000 §4.5: no stream data past the final size, whichever
    arrives first."""

    def test_data_past_known_final_size_rejected(self):
        buf = StreamRecvBuffer()
        buf.place(0, b"a" * 100, False)
        buf.place(150, b"f" * 50, True)
        with pytest.raises(FinalSizeError):
            buf.place(200, b"x" * 30, False)
        buf.place(100, b"b" * 50, False)
        assert (buf.contiguous_offset, buf.fin_offset, ranges(buf)) == (200, 200, [])
        assert buf.readable_span()[2] is True

    def test_final_size_below_received_range_rejected(self):
        buf = StreamRecvBuffer()
        buf.place(0, b"a" * 100, False)
        buf.place(200, b"x" * 30, False)
        with pytest.raises(FinalSizeError):
            buf.place(150, b"f" * 50, True)
        with pytest.raises(FinalSizeError):
            buf.set_fin(229)
        assert buf.fin_offset is None
        buf.set_fin(230)

    def test_zero_copy_fin_below_received_range_rejected(self):
        buf = StreamRecvBuffer()
        buf.place(500, b"x" * 30, False)
        with pytest.raises(FinalSizeError):
            pour(buf, b"a" * 100, fin=True)


class TestStash:
    """The out-of-order cases the stash once held, now on the one write
    method: a fragment's new bytes are copied once, to their own offset
    in storage, and the first write wins."""

    def test_disjoint_insert_copies_all(self):
        buf = StreamRecvBuffer()
        assert buf.place(100, b"x" * 40, False) == 40
        assert buf.place(500, b"y" * 10, False) == 10
        assert ranges(buf) == [(100, 140), (500, 510)]
        assert at(buf, 100, 140) == b"x" * 40 and at(buf, 500, 510) == b"y" * 10
        assert buf.contiguous_offset == 0

    def test_duplicate_insert_copies_nothing(self):
        buf = StreamRecvBuffer()
        buf.place(100, b"x" * 40, False)
        assert buf.place(100, b"d" * 40, False) == 0
        assert buf.place(110, b"d" * 20, False) == 0
        assert ranges(buf) == [(100, 140)]
        assert at(buf, 100, 140) == b"x" * 40

    def test_contiguous_overlap_trimmed(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        assert buf.place(60, b"z" * 80, False) == 40
        assert (buf.contiguous_offset, ranges(buf)) == (140, [])
        assert at(buf, 0, 140) == b"a" * 100 + b"z" * 40

    def test_partial_overlap_keeps_uncovered_pieces(self):
        buf = StreamRecvBuffer()
        buf.place(100, b"a" * 20, False)  # [100, 120)
        assert buf.place(90, b"b" * 50, False) == 30  # adds [90,100) and [120,140)
        assert ranges(buf) == [(90, 140)]
        assert at(buf, 90, 140) == b"b" * 10 + b"a" * 20 + b"b" * 20

    def test_bridge_insert_then_drain_order(self):
        buf = StreamRecvBuffer()
        buf.place(200, b"c" * 10, False)
        buf.place(100, b"a" * 10, False)
        assert ranges(buf) == [(100, 110), (200, 210)]
        assert buf.place(105, b"b" * 100, False) == 90
        assert ranges(buf) == [(100, 210)]
        assert at(buf, 100, 210) == b"a" * 10 + b"b" * 90 + b"c" * 10
        assert buf.place(0, b"z" * 100, False) == 100
        assert (buf.contiguous_offset, ranges(buf)) == (210, [])

    def test_stale_entries_discarded(self):
        buf = StreamRecvBuffer()
        buf.place(100, b"a" * 10, False)
        buf.place(200, b"c" * 10, False)
        # the tail swallows the first range and bites into the second
        assert buf.place(0, b"t" * 205, False) == 190
        assert (buf.contiguous_offset, ranges(buf)) == (210, [])
        assert at(buf, 0, 210) == b"t" * 100 + b"a" * 10 + b"t" * 90 + b"c" * 10
        # wholly below the tail: nothing to write
        assert buf.place(100, b"s" * 10, False) == 0
        assert buf.contiguous_offset == 210

    def test_cap_drops_beyond(self, monkeypatch):
        buf = StreamRecvBuffer(1024)
        pour(buf, b"a" * 10)
        assert buf.place(11, b"x" * 10, False) == 10
        assert buf.place(10 + WINDOW, b"x", True) == -1
        assert (ranges(buf), buf.fin_offset, len(buf.storage)) == ([(11, 21)], None, 1024)
        monkeypatch.setattr(stream_buf, "WINDOW", 100)  # the boundary, without 16 MiB of storage
        assert buf.place(110, b"x", False) == -1
        assert buf.place(109, b"x", False) == 1  # ends right at the window
        assert ranges(buf) == [(11, 21), (109, 110)]


class TestSpanAndConsume:
    def test_empty_until_committed(self):
        buf = StreamRecvBuffer()
        view, n, fin = buf.readable_span()
        assert (n, fin) == (0, False)

    def test_span_after_commit(self):
        buf = StreamRecvBuffer()
        pour(buf, b"q" * 1200)
        view, n, fin = buf.readable_span()
        assert n == 1200
        assert bytes(view) == b"q" * 1200

    def test_consumed_equals_contiguous_gives_empty_span(self):
        buf = StreamRecvBuffer()
        pour(buf, b"q" * 100)
        buf.consume(100)
        view, n, _ = buf.readable_span()
        assert n == 0
        assert buf.base_offset == 100

    def test_pending_range_pins_window_start(self):
        buf = StreamRecvBuffer()
        pour(buf, b"q" * 100)
        buf.place(200, b"r" * 10, False)
        buf.consume(100)
        assert buf.base_offset == 0  # the range stays where it was written
        assert at(buf, 200, 210) == b"r" * 10

    def test_partial_consume_never_relocates(self):
        buf = StreamRecvBuffer()
        pour(buf, b"abc" * 100)
        buf.consume(120)
        assert buf.base_offset == 0  # window start pinned while bytes remain
        view, n, _ = buf.readable_span()
        assert n == 180
        assert bytes(view) == (b"abc" * 100)[120:]

    def test_over_consume(self):
        buf = StreamRecvBuffer()
        pour(buf, b"q" * 50)
        with pytest.raises(ConsumeOutOfRange):
            buf.consume(51)
        with pytest.raises(ConsumeOutOfRange):
            buf.consume(-1)

    def test_fin_reached_flag(self):
        buf = StreamRecvBuffer()
        pour(buf, b"q" * 50)
        buf.place(100, b"r" * 20, True)
        assert buf.readable_span()[2] is False
        buf.place(50, b"q" * 50, False)  # the tail reaches the range, up to fin at 120
        view, n, fin = buf.readable_span()
        assert (n, fin) == (120, True)

    def test_span_bytes_stable_until_consumed(self):
        rng = random.Random(31)
        message = rng.randbytes(80_000)
        buf = StreamRecvBuffer(1024)
        checksums = []
        while buf.contiguous_offset < len(message):
            tail = buf.contiguous_offset
            if rng.random() < 0.4:
                ahead = tail + rng.randint(1, 500)
                buf.place(ahead, message[ahead : ahead + rng.randint(1, 200)], False)
            arrive(buf, message[tail : tail + rng.randint(1, 3000)])
            view, n, _ = buf.readable_span()
            # growth and range merges preserve content
            assert bytes(view) == message[: buf.contiguous_offset]
            for start, end in ranges(buf):
                assert at(buf, start, end) == message[start:end]
            checksums.append(zlib.crc32(bytes(view)))
        assert checksums[-1] == zlib.crc32(message)

    def test_growth_preserves_committed_bytes(self):
        buf = StreamRecvBuffer(512)
        pour(buf, b"m" * 400)
        assert buf.ensure_room(5000) == 1
        assert len(buf.storage) >= 5000
        view, n, _ = buf.readable_span()
        assert bytes(view) == b"m" * 400

    def test_growth_rebases_to_consumed(self):
        buf = StreamRecvBuffer(1024)
        pour(buf, b"a" * 1000)
        buf.place(1010, b"r" * 10, False)
        buf.consume(900)
        assert buf.base_offset == 0  # a range is pending: no slide
        allocations = buf.ensure_room(2000)
        # only [consumed, highest received end) moved, to index 0
        assert (allocations, buf.base_offset, len(buf.storage)) == (1, 900, 2048)
        assert (bytes(buf.storage[:100]), at(buf, 1010, 1020)) == (b"a" * 100, b"r" * 10)
        assert buf.place(1000, b"b" * 10, False) == 10
        assert bytes(buf.readable_span()[0]) == b"a" * 100 + b"b" * 10 + b"r" * 10
        # a fragment past the capacity rebases the same way
        buf.consume(120)
        buf.place(1300, b"s" * 10, False)
        assert buf.place(3000, b"f" * 10, False) == 10
        assert (buf.base_offset, len(buf.storage), ranges(buf)) == (1020, 2048, [(1300, 1310), (3000, 3010)])
        assert at(buf, 1300, 1310) == b"s" * 10 and at(buf, 3000, 3010) == b"f" * 10

    def test_room_behind_consumed_bytes_slides_in_place(self):
        appbuf = AppRecvBufMap(1024)
        buf = appbuf.adopt(1)
        pour(buf, b"a" * 600)
        buf.place(700, b"r" * 100, False)
        buf.consume(500)
        assert buf.base_offset == 0  # a range is pending: consumed bytes stay at the front
        storage, allocations = buf.storage, appbuf.allocations
        # index 1100 is past the capacity, but fits once [500, 800) is at index 0
        assert buf.ensure_room(1100) == 0
        assert buf.storage is storage and appbuf.allocations == allocations
        assert (buf.base_offset, len(buf.storage), buf.bytes_moved) == (500, 1024, 300)
        assert (bytes(buf.readable_span()[0]), at(buf, 700, 800)) == (b"a" * 100, b"r" * 100)
        assert buf.place(600, b"b" * 100, False) == 100
        assert bytes(buf.readable_span()[0]) == b"a" * 100 + b"b" * 100 + b"r" * 100

    def test_grown_storage_is_kept_once_emptied(self):
        buf = StreamRecvBuffer(1024)
        buf.place(1500, b"r" * 100, False)
        assert (len(buf.storage), buf.bytes_moved) == (2048, 0)  # nothing received below
        storage = buf.storage
        buf.place(0, b"a" * 1500, False)
        buf.consume(1600)
        # emptied: the grown storage stays, its window now at consumed_offset
        assert (len(buf.storage), buf.base_offset, buf.grows, buf.bytes_moved) == (2048, 1600, 1, 0)
        assert buf.storage is storage
        # a second gap of the same size fits: no reallocation, nothing moved
        assert buf.place(3100, b"s" * 100, True) == 100
        assert buf.place(1600, b"n" * 1500, False) == 1500
        assert buf.storage is storage and (buf.grows, buf.bytes_moved) == (1, 0)
        assert bytes(buf.readable_span()[0]) == b"n" * 1500 + b"s" * 100
        # consuming the final size still releases it
        buf.consume(1600)
        assert (len(buf.storage), buf.base_offset, buf.grows) == (0, 3200, 1)

    def test_finished_stream_releases_storage(self):
        buf = StreamRecvBuffer(1024)
        buf.place(0, b"a" * 1500, True)
        buf.consume(1000)
        assert len(buf.storage) == 2048  # grown, bytes unconsumed
        buf.consume(500)
        # nothing can be received again: the storage goes, unreplaced
        assert (len(buf.storage), buf.base_offset, buf.grows) == (0, 1500, 1)
        assert buf.place(700, b"a" * 800, False) == 0  # a late duplicate
        assert buf.place(1500, b"", True) == 0  # the fin alone, again
        with pytest.raises(FinalSizeError):
            buf.place(1500, b"x", False)
        assert (len(buf.storage), buf.contiguous_offset, buf.fin_offset, ranges(buf)) == (0, 1500, 1500, [])
        assert buf.readable_span()[1:] == (0, True)
        # storage made again doubles from the first size, not from 0
        assert buf.ensure_room(10) == 1 and len(buf.storage) == 1024

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_finished_stream_holds_nothing(self, mode):
        r = Receiver(mode)
        r.send(4, 0, b"a" * 300)
        r.send(4, 300, b"b" * 200, fin=True)
        r.conn.stream_consumed(4, 500, r.appbuf)
        buf = r.appbuf.get(4)

        def state():
            m = r.conn.metrics()
            return (len(buf.storage), buf.contiguous_offset, buf.consumed_offset, buf.fin_offset,
                    ranges(buf), r.appbuf.allocations, r.conn.readable(),
                    m.payload_bytes_copied, m.payload_bytes_zero_copy)

        before = state()
        assert before[:5] == (0, 500, 500, 500, [])
        r.send(4, 100, b"a" * 200)  # a late duplicate
        r.send(4, 500, b"", fin=True)  # the fin alone, again
        assert state() == before
        with pytest.raises(FinalSizeError):
            r.send(4, 500, b"x")
        assert state() == before

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_fin_after_drain_is_reported_once(self, mode):
        # RFC 9000 3.2: the application learns when the final size is
        # reached, also when the fin comes after it read every byte
        r = Receiver(mode)
        r.send(4, 0, b"a" * 100)
        r.conn.stream_consumed(4, 100, r.appbuf)
        assert r.conn.readable() == []
        r.send(4, 100, b"", fin=True)
        assert r.conn.readable() == [4]
        view, fin = r.conn.stream_recv(4, r.appbuf)
        assert (len(view), fin) == (0, True)
        # the consume of nothing releases the storage; the stream is not listed again
        r.conn.stream_consumed(4, 0, r.appbuf)
        assert (len(r.appbuf.get(4).storage), r.conn.readable()) == (0, [])
        r.send(4, 100, b"", fin=True)  # the fin alone, again
        assert (len(r.appbuf.get(4).storage), r.conn.readable()) == (0, [])


class TestGrowthMeter:
    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_growth_counts_the_bytes_it_moves(self, mode):
        r = Receiver(mode, default_capacity=1024)
        r.send(4, 0, b"a" * 600)
        r.send(8, 0, b"b" * 500)
        r.conn.stream_consumed(8, 200, r.appbuf)
        assert r.appbuf.bytes_moved == 0
        # past the capacity: storage doubles after the tag verifies and
        # moves [consumed, highest received end) into the new storage
        r.send(4, 1500, b"c" * 300)
        r.send(8, 1200, b"d" * 200)
        s4, s8 = r.appbuf.get(4), r.appbuf.get(8)
        assert (s4.grows, s4.bytes_moved, s8.grows, s8.bytes_moved) == (1, 600, 1, 300)
        assert (r.appbuf.bytes_moved, r.appbuf.allocations) == (900, 4)
        # the gap filler fits the grown storage: nothing more moves
        r.send(4, 600, b"e" * 900)
        assert r.appbuf.bytes_moved == 900
        assert bytes(s4.readable_span()[0]) == b"a" * 600 + b"e" * 900 + b"c" * 300


class TestStorageSize:
    def test_one_byte_streams_cost_first_storage_each(self):
        # one send window of one-byte streams from an authenticated peer:
        # memory follows the first storage's size, one buffer per stream
        client = Connection(WireMode.REVERSO, Role.CLIENT, SECRET)
        server = Connection(WireMode.REVERSO, Role.SERVER, SECRET)
        out = bytearray(MAX_DATAGRAM)
        for sid in range(1, 65):
            client.stream_send(sid, b"x", fin=True)
        grams = []
        while (n := client.build_packet(out)) is not None:
            grams.append(bytearray(out[:n]))
        assert len(grams) == 64
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            appbuf = AppRecvBufMap()
            for gram in grams:
                server.recv(gram, appbuf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(appbuf.buffers) == 64 and appbuf.allocations == 64
        assert peak - start <= 64 * DEFAULT_CAPACITY + (1 << 20)


class TestRecycling:
    def test_failure_rolls_back(self):
        r = Receiver()
        spare = r.appbuf.spare
        m, into_storage = r.forge(7)
        assert into_storage and m.decrypt_failures == 1
        assert r.appbuf.get(7) is None
        assert r.appbuf.spare is spare

    def test_success_promotes_and_replenishes(self):
        r = Receiver()
        spare = r.appbuf.spare
        r.send(7, 0, b"x" * 100)
        assert r.appbuf.get(7) is spare
        assert r.appbuf.spare is None
        before = r.appbuf.allocations
        r.send(9, 0, b"x" * 100)  # next fresh stream materializes one
        assert r.appbuf.allocations == before + 1

    def test_known_stream_is_not_pending(self):
        r = Receiver()
        r.send(7, 0, b"x" * 100)
        buf = r.appbuf.get(7)
        m, into_storage = r.forge(7, 100)  # failure on a known stream: no unbind
        assert into_storage and m.decrypt_failures == 1
        assert r.appbuf.get(7) is buf
        assert bytes(buf.readable_span()[0]) == b"x" * 100

    def test_forged_flood_allocates_nothing(self):
        r = Receiver()
        r.forge(1)
        baseline = r.appbuf.allocations
        spare = r.appbuf.spare
        for sid in range(2, 102):
            _, into_storage = r.forge(sid)
            assert into_storage  # each opened into the staged spare
        assert r.conn.metrics().decrypt_failures == 101
        assert r.appbuf.allocations == baseline
        assert r.appbuf.spare is spare
        assert not r.appbuf.buffers

    def test_adopt_uses_spare_once(self):
        m = AppRecvBufMap()
        spare = m.spare
        assert m.adopt(3) is spare
        assert m.spare is None
        before = m.allocations
        m.adopt(5)
        assert m.allocations == before + 1
        assert m.adopt(3) is spare  # idempotent for known streams


class TestReassemblyDifferential:
    def test_matches_copy_everything_reference(self):
        rng = random.Random(0xBEEF)
        for _ in range(30):
            message = rng.randbytes(rng.randint(1, 1 << 16))
            cuts = sorted(rng.sample(range(1, len(message)), min(40, len(message) - 1))) if len(message) > 1 else []
            bounds = [0, *cuts, len(message)]
            frags = [
                (bounds[i], message[bounds[i] : bounds[i + 1]])
                for i in range(len(bounds) - 1)
            ]
            # duplicates and straddling rereads
            for _ in range(10):
                a = rng.randrange(0, len(message))
                b = min(len(message), a + rng.randint(1, 2000))
                frags.append((a, message[a:b]))
            rng.shuffle(frags)
            buf = StreamRecvBuffer(1024)
            copied = sum(buf.place(off, chunk, False) for off, chunk in frags)
            assert copied == len(message)  # each byte copied once
            assert (buf.contiguous_offset, ranges(buf)) == (len(message), [])
            view, n, _ = buf.readable_span()
            assert bytes(view) == message


class ReassemblyMachine(RuleBasedStateMachine):
    """One StreamRecvBuffer against a model of what it received: the
    first byte received at each stream offset, the consumed count and
    the final size. Fragments carry bytes no other call wrote, so a
    rewrite of a received byte shows."""

    def __init__(self):
        super().__init__()
        self.buf = StreamRecvBuffer(64)
        self.got: dict[int, int] = {}
        self.consumed = 0
        self.fin: int | None = None
        self.calls = 0

    def tail(self) -> int:
        t = self.consumed
        while t in self.got:
            t += 1
        return t

    def payload(self, n: int) -> bytes:
        self.calls += 1
        return bytes((self.calls * 131 + i * 7) & 0xFF for i in range(n))

    def outcome(self, offset: int, end: int, fin: bool):
        """None when [offset, end) lies past the window, FinalSizeError
        when the final size forbids it, else the offsets it adds."""
        if end - self.tail() > WINDOW:
            return None
        received = max(self.got) + 1 if self.got else 0
        if fin:
            if (self.fin is not None and self.fin != end) or end < received:
                return FinalSizeError
        elif self.fin is not None and end > self.fin:
            return FinalSizeError
        return [o for o in range(offset, end) if o not in self.got]

    def record(self, new, offset, data, fin):
        for o in new:
            self.got[o] = data[o - offset]
        if fin:
            self.fin = offset + len(data)

    def do_place(self, offset: int, n: int, fin: bool) -> None:
        data = self.payload(n)
        new = self.outcome(offset, offset + n, fin)
        if new is FinalSizeError:
            with pytest.raises(FinalSizeError):
                self.buf.place(offset, data, fin)
        elif new is None:
            assert self.buf.place(offset, data, fin) == -1
        else:
            assert self.buf.place(offset, data, fin) == len(new)
            self.record(new, offset, data, fin)

    @rule(rel=st.integers(-64, 320), n=st.integers(0, 48), fin=st.booleans())
    def place(self, rel, n, fin):
        self.do_place(max(0, self.tail() + rel), n, fin)

    @rule(data=st.data(), n=st.integers(0, 48), after=st.booleans())
    def place_touching(self, data, n, after):
        """A fragment starting where the tail or a range ends, or ending
        where a range starts."""
        buf = self.buf
        if after:
            offset = data.draw(st.sampled_from([buf.contiguous_offset, *buf.ends]))
        elif buf.starts:
            offset = max(0, data.draw(st.sampled_from(buf.starts)) - n)
        else:
            return
        self.do_place(offset, n, False)

    @rule(n=st.integers(0, 48), past=st.integers(1, 4096), fin=st.booleans())
    def place_past_window(self, n, past, fin):
        self.do_place(self.tail() + WINDOW + past - n, n, fin)

    @rule(data=st.data(), fin=st.booleans(), tag_ok=st.booleans())
    def open_in_hole(self, data, fin, tag_ok):
        """The AEAD writes a footprint (data, then the anchor's type byte
        and trailing frames) into a hole in existing storage; commit
        follows only when the tag verifies."""
        buf = self.buf
        cap_end = buf.base_offset + len(buf.storage)
        holes = [o for o in range(self.tail(), cap_end) if o not in self.got]
        if not holes:
            return
        offset = data.draw(st.sampled_from(holes))
        limit = min([o for o in self.got if o > offset] + [cap_end])
        n = data.draw(st.integers(0, min(48, limit - offset - 1)))
        foot = data.draw(st.integers(offset + n + 1, limit))
        payload = self.payload(n)
        lo = offset - buf.base_offset
        buf.storage[lo : lo + foot - offset] = payload + b"\xee" * (foot - offset - n)
        if not tag_ok:
            return
        new = self.outcome(offset, offset + n, fin)
        if new is FinalSizeError:
            with pytest.raises(FinalSizeError):
                buf.commit(offset, offset + n, fin)
        else:
            assert buf.commit(offset, offset + n, fin)
            self.record(new, offset, payload, fin)

    @rule(data=st.data())
    def consume(self, data):
        readable = self.tail() - self.consumed
        n = data.draw(st.integers(0, readable + 2))
        if n > readable:
            with pytest.raises(ConsumeOutOfRange):
                self.buf.consume(n)
        else:
            self.buf.consume(n)
            self.consumed += n

    @invariant()
    def matches_the_model(self):
        buf = self.buf
        tail = self.tail()
        assert (buf.contiguous_offset, buf.consumed_offset, buf.fin_offset) == (
            tail, self.consumed, self.fin)
        assert len(buf.starts) == len(buf.ends)
        prev = tail
        for s, e in zip(buf.starts, buf.ends):
            assert prev < s < e  # sorted, non-empty, touching neither
            prev = e
        held = {o for s, e in zip(buf.starts, buf.ends) for o in range(s, e)}
        assert held | set(range(tail)) == set(self.got)
        base = buf.base_offset
        assert base <= self.consumed
        for o in held | set(range(self.consumed, tail)):
            assert buf.storage[o - base] == self.got[o], o
        view, n, fin_reached = buf.readable_span()
        assert n == tail - self.consumed
        assert fin_reached == (self.fin == tail)


TestReassemblyMachine = ReassemblyMachine.TestCase
TestReassemblyMachine.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
