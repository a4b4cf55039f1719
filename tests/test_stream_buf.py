"""Receive buffers: commits, stashing, recycling, and the receive-side
destination choice that feeds them."""

import random
import zlib

import pytest

from revquic import header
from revquic.endpoint import Connection, Role
from revquic.errors import ConsumeOutOfRange, FinalSizeError, ProtocolViolation
from revquic.mode import WireMode
from revquic.stream_buf import (
    AppRecvBufMap,
    OooStash,
    StreamRecvBuffer,
    STASH_CAP,
)
from revquic.wire import PingFrame, StreamFrame

from test_endpoint import C2S, SECRET, craft


def pour(buf: StreamRecvBuffer, data: bytes, fin: bool = False) -> int:
    """Write data at the contiguous tail as a successful decrypt would,
    then commit it (footer scratch of 8 bytes past the data)."""
    dest = buf.contiguous_offset - buf.base_offset
    buf.ensure_room(dest + len(data) + 8)
    buf.storage[dest : dest + len(data)] = data
    buf.storage[dest + len(data) : dest + len(data) + 8] = b"\xee" * 8
    return buf.commit_zero_copy(buf.contiguous_offset + len(data), fin, dest + len(data) + 8)


class Receiver:
    """A server connection and its buffers, fed with crafted packets."""

    def __init__(self, mode=WireMode.REVERSO, **appbuf) -> None:
        self.conn = Connection(mode, Role.SERVER, SECRET)
        self.appbuf = AppRecvBufMap(**appbuf)
        self.mode = mode
        self.pn = 0

    def packet(self, sid, offset, data, trailing=()):
        frame = StreamFrame(stream_id=sid, offset=offset, data=data, explicit_len=False)
        if self.mode is WireMode.REVERSO:
            frames = [frame, *trailing]
        else:
            frames = [*trailing, frame]
        self.pn += 1
        # a full-width offset expands right against any contiguous offset
        return craft(self.mode, C2S, self.pn, frames, hdr_sid=sid, hdr_off=offset, off_len=4)

    def recv(self, gram):
        self.conn.recv(gram, self.appbuf)
        return self.conn.metrics()

    def send(self, sid, offset, data):
        return self.recv(self.packet(sid, offset, data))

    def forge(self, sid, offset=0):
        """A packet whose tag fails; returns the metrics and whether its
        ciphertext stayed untouched (that is, whether the open aimed at
        stream storage rather than at the datagram)."""
        gram = self.packet(sid, offset, b"f" * 100)
        gram[-1] ^= 0x01
        pristine = bytes(gram)
        m = self.recv(gram)
        tail = header.SAMPLE_OFFSET  # past the longest header
        return m, bytes(gram[tail:]) == pristine[tail:]


class TestDecryptionPlan:
    """The header alone chooses where the AEAD opens: the contiguous
    tail of the stream it names, or in place in the datagram."""

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
        assert m.payload_bytes_stashed == 500
        assert r.appbuf.get(4).contiguous_offset == 1300

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
        m = r.recv(craft(WireMode.REVERSO, C2S, r.pn, [PingFrame()], hdr_sid=0))
        assert m.packets_control_only == 1
        assert not r.appbuf.buffers
        assert r.appbuf.spare is spare

    def test_stream_id_out_of_range(self):
        for mode in WireMode:
            r = Receiver(mode)
            if mode is WireMode.REVERSO:
                # the header cannot name it; a carried frame can
                extra = StreamFrame(stream_id=1 << 30, offset=0, data=b"o", explicit_len=True)
                gram = r.packet(1, 0, b"x" * 40, trailing=[extra])
            else:
                gram = r.packet(1 << 30, 0, b"x" * 40)
            with pytest.raises(ProtocolViolation):
                r.recv(gram)
            assert (1 << 30) not in r.appbuf.buffers

    def test_zero_copy_plan_grows_storage(self):
        r = Receiver(default_capacity=1024)
        before = r.appbuf.allocations
        m = r.send(4, 0, b"g" * 1300)
        assert m.payload_bytes_zero_copy == 1300
        assert r.appbuf.allocations == before + 1
        assert r.appbuf.get(4).capacity >= 1300

    def test_fresh_stream_binds_spare(self):
        r = Receiver()
        spare = r.appbuf.spare
        r.send(9, 0, b"x" * 100)
        assert r.appbuf.get(9) is spare
        assert r.appbuf.spare is None


class TestCommitZeroCopy:
    def test_plain_commit_copies_nothing(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        copied = pour(buf, b"b" * 1200)
        assert copied == 0
        assert buf.contiguous_offset == 1300

    def test_commit_drains_stash(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        buf.stash_out_of_order(1300, b"s" * 500, False)
        copied = pour(buf, b"b" * 1200)
        assert copied == 500
        assert buf.contiguous_offset == 1800
        view, n, _ = buf.readable_span()
        assert bytes(view[1300:1800]) == b"s" * 500

    def test_next_data_overwrites_previous_footer(self):
        r = Receiver()
        r.send(4, 0, b"a" * 100)
        buf = r.appbuf.get(4)
        # scratch footer past the watermark: offset 0, stream id 4, type
        assert bytes(buf.storage[100:103]) == bytes([0x00, 4 << 2, 0x0C])
        assert (buf.contiguous_offset, buf.scratch_end) == (100, 103)
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
            buf.stash_out_of_order(100, b"x" * 100, True)  # implies fin at 200

    def test_fin_below_received_rejected(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        with pytest.raises(FinalSizeError):
            buf.set_fin(50)


class TestStash:
    def test_disjoint_insert_copies_all(self):
        s = OooStash()
        assert s.insert(100, b"x" * 40, 0) == 40
        assert s.insert(500, b"y" * 10, 0) == 10
        assert s.total_bytes == 50

    def test_duplicate_insert_copies_nothing(self):
        s = OooStash()
        s.insert(100, b"x" * 40, 0)
        assert s.insert(100, b"x" * 40, 0) == 0
        assert s.insert(110, b"x" * 20, 0) == 0
        assert s.total_bytes == 40

    def test_contiguous_overlap_trimmed(self):
        buf = StreamRecvBuffer()
        pour(buf, b"a" * 100)
        assert buf.stash_out_of_order(60, b"z" * 80, False) == 40
        assert buf.stash._offsets == [100]

    def test_partial_overlap_keeps_uncovered_pieces(self):
        s = OooStash()
        s.insert(100, b"a" * 20, 0)  # [100, 120)
        assert s.insert(90, b"b" * 50, 0) == 30  # adds [90,100) and [120,140)
        assert s._offsets == [90, 100, 120]
        assert s.total_bytes == 50

    def test_bridge_insert_then_drain_order(self):
        s = OooStash()
        s.insert(200, b"c" * 10, 0)
        s.insert(100, b"a" * 10, 0)
        assert s.pop_contiguous(50) is None
        off, chunk = s.pop_contiguous(100)
        assert (off, bytes(chunk)) == (100, b"a" * 10)

    def test_stale_entries_discarded(self):
        s = OooStash()
        s.insert(100, b"a" * 10, 0)
        s.insert(200, b"c" * 10, 0)
        # watermark swallowed the first entry and bites into the second
        off, chunk = s.pop_contiguous(205)
        assert (off, bytes(chunk)) == (200, b"c" * 10)
        assert s.total_bytes == 0
        # fully stale stash yields nothing
        s.insert(100, b"a" * 10, 0)
        assert s.pop_contiguous(250) is None
        assert s.total_bytes == 0

    def test_cap_drops_beyond(self):
        s = OooStash()
        half = STASH_CAP // 2
        assert s.insert(0, bytes(half), 0) == half
        assert s.insert(half, bytes(half), 0) == half
        assert s.insert(STASH_CAP, b"x", 0) == 0
        assert s.take_overflow() is True
        assert s.take_overflow() is False


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
        assert buf.scratch_end == 0

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
        buf.stash_out_of_order(100, b"r" * 20, True)
        assert buf.readable_span()[2] is False
        pour(buf, b"q" * 50)  # drains the stash up to fin at 120
        view, n, fin = buf.readable_span()
        assert (n, fin) == (120, True)

    def test_span_bytes_stable_until_consumed(self):
        rng = random.Random(31)
        buf = StreamRecvBuffer(1024)
        committed = bytearray()
        checksums = []
        for _ in range(40):
            chunk = rng.randbytes(rng.randint(1, 3000))
            if rng.random() < 0.4:
                buf.stash_out_of_order(
                    buf.contiguous_offset + rng.randint(1, 500),
                    rng.randbytes(rng.randint(1, 200)),
                    False,
                )
            pour(buf, chunk)
            committed += chunk
            drained = buf.contiguous_offset - len(committed)
            if drained:
                view, _, _ = buf.readable_span()
                committed += bytes(view[len(committed) :])
            checksums.append(zlib.crc32(bytes(buf.readable_span()[0])))
            view, n, _ = buf.readable_span()
            assert bytes(view) == committed  # growth and drains preserve content
        assert checksums[-1] == zlib.crc32(bytes(committed))

    def test_growth_preserves_committed_bytes(self):
        buf = StreamRecvBuffer(512)
        pour(buf, b"m" * 400)
        assert buf.ensure_room(5000) == 1
        assert buf.capacity >= 5000
        view, n, _ = buf.readable_span()
        assert bytes(view) == b"m" * 400


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
            for off, chunk in frags:
                if off <= buf.contiguous_offset:
                    skip = buf.contiguous_offset - off
                    if skip < len(chunk):
                        buf.append_in_order(chunk[skip:], False)
                else:
                    buf.stash_out_of_order(off, chunk, False)
            assert buf.contiguous_offset == len(message)
            view, n, _ = buf.readable_span()
            assert bytes(view) == message
