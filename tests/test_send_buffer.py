"""The sender's retained send buffers: fragments are spans of them.

A fragment is (stream id, offset, length, fin); its bytes stay in the
stream's send buffer until an ack releases them, and a retransmission
reads them from the same place. These tests drive senders through loss,
duplication, reordering and timeouts, in both modes, and check that the
spans always name the bytes the application queued, that every stream
arrives exactly, and that the buffers stay bounded and end empty.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revquic import endpoint
from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

SECRET = b"\x33" * 32


def span_data(conn: Connection, span) -> bytes:
    """A span's bytes, read from its stream's send buffer where
    build_packet reads them."""
    sid, offset, n, _ = span
    ss = conn.send_streams[sid]
    assert offset >= ss.base_offset, "span released while still needed"
    return bytes(ss.span(offset, n))


class Channel:
    """A one-way path that loses, duplicates and reorders datagrams,
    driven by one seeded random source."""

    def __init__(self, rng: random.Random, loss: float, dup: float, reorder: float) -> None:
        self.rng, self.loss, self.dup, self.reorder = rng, loss, dup, reorder
        self.queue: list[bytes] = []

    def send(self, datagram: bytes) -> None:
        if self.rng.random() < self.loss:
            return
        copies = 2 if self.rng.random() < self.dup else 1
        for _ in range(copies):
            if self.queue and self.rng.random() < self.reorder:
                self.queue.insert(self.rng.randrange(len(self.queue)), datagram)
            else:
                self.queue.append(datagram)

    def drain(self):
        queue, self.queue = self.queue, []
        return queue


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(list(WireMode)),
    sizes=st.lists(st.integers(0, 60_000), min_size=1, max_size=3),
    per_span=st.sampled_from([0, 1, 100, endpoint._RELEASE_PER_SPAN]),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    dup=st.sampled_from([0.0, 0.1]),
    reorder=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spans_name_the_queued_bytes_under_loss(mode, sizes, per_span, loss, dup, reorder, seed):
    """Under random loss, duplication, reordering and timeouts, every
    span build_packet sends, first sends and retransmissions after any
    number of releases alike, reads the bytes queued at its offset;
    every stream arrives exactly, with its fin; and once send_done() is
    true every send buffer is empty. per_span=0 releases on every fresh
    fragment."""
    rng = random.Random(seed)
    client = Connection(mode, Role.CLIENT, SECRET)
    server = Connection(mode, Role.SERVER, SECRET)
    cbuf, sbuf = AppRecvBufMap(), AppRecvBufMap(default_capacity=4096)
    payloads = {sid: rng.randbytes(n) for sid, n in enumerate(sizes, start=1)}
    # each stream is queued in two pieces, the second while the first is
    # in flight, so a buffer also grows after releases
    cuts = {sid: rng.randint(0, len(data)) for sid, data in payloads.items()}
    for sid, data in payloads.items():
        client.stream_send(sid, data[: cuts[sid]])
    forward = Channel(rng, loss, dup, reorder)
    backward = Channel(rng, loss, dup, reorder)
    got = {sid: bytearray() for sid in payloads}
    out = bytearray(MAX_DATAGRAM)
    now = 0.0
    with mock.patch.object(endpoint, "_RELEASE_PER_SPAN", per_span):
        for step in range(20_000):
            if step == 1:
                for sid, data in payloads.items():
                    client.stream_send(sid, data[cuts[sid] :], fin=True)
            client.on_timeout(now)
            while (n := client.build_packet(out, now)) is not None:
                sent = client.unacked.get(client.next_pn - 1)
                if sent is not None:
                    sid, offset, length, _ = sent[1]
                    assert span_data(client, sent[1]) == payloads[sid][offset : offset + length]
                forward.send(bytes(out[:n]))
            for d in forward.drain():
                server.recv(bytearray(d), sbuf)
            for sid in server.readable():
                view, _ = server.stream_recv(sid, sbuf)
                got[sid] += view
                server.stream_consumed(sid, len(view), sbuf)
            while (n := server.build_packet(out, now)) is not None:
                backward.send(bytes(out[:n]))
            for d in backward.drain():
                client.recv(bytearray(d), cbuf)
            if step and client.send_done():
                break
            now += 0.05
        else:
            pytest.fail("transfer did not finish")
    assert {sid: bytes(b) for sid, b in got.items()} == payloads
    for sid, data in payloads.items():
        assert sbuf.get(sid).fin_offset == len(data)
    assert all(not ss.pieces and not ss.size and ss.base_offset == ss.next_offset == len(payloads[sid])
               for sid, ss in client.send_streams.items())


class EchoPair:
    """A client and a server over a perfect wire, one long-lived stream
    each way, as an rpc client would use them."""

    def __init__(self, mode: WireMode) -> None:
        self.client = Connection(mode, Role.CLIENT, SECRET)
        self.server = Connection(mode, Role.SERVER, SECRET)
        self.cbuf, self.sbuf = AppRecvBufMap(), AppRecvBufMap()
        self.out = bytearray(MAX_DATAGRAM)

    def echo(self, messages) -> None:
        client, server, cbuf, sbuf, out = self.client, self.server, self.cbuf, self.sbuf, self.out
        for msg in messages:
            client.stream_send(1, msg)
            back = bytearray()
            while len(back) < len(msg):
                while (n := client.build_packet(out, 0.0)) is not None:
                    server.recv(out[:n], sbuf)
                for sid in server.readable():
                    view, _ = server.stream_recv(sid, sbuf)
                    server.stream_send(2, view)
                    server.stream_consumed(sid, len(view), sbuf)
                while (n := server.build_packet(out, 0.0)) is not None:
                    client.recv(out[:n], cbuf)
                for sid in client.readable():
                    view, _ = client.stream_recv(sid, cbuf)
                    back += view
                    client.stream_consumed(sid, len(view), cbuf)
            assert back == msg

    def traced_echo(self, messages) -> int:
        """echo under tracemalloc; returns the peak of what it allocated."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.echo(messages)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
def test_long_lived_stream_memory_is_bounded(mode):
    """A stream that echoes 10 000 small messages ends with at most
    64 KiB in either send buffer, and what its last 1 000 echoes
    allocate at their peak is no more than what echoes 1 000-2 000
    allocated: the acked prefix is released as the stream goes, not
    kept until it ends."""
    rng = random.Random(12)
    messages = [rng.randbytes(rng.randint(1, 1024)) for _ in range(10_000)]
    pair = EchoPair(mode)
    pair.echo(messages[:1000])
    early = pair.traced_echo(messages[1000:2000])
    pair.echo(messages[2000:9000])
    late = pair.traced_echo(messages[9000:])
    assert pair.client.send_streams[1].next_offset == sum(map(len, messages))
    assert pair.client.send_streams[1].size <= 64 * 1024
    assert pair.server.send_streams[2].size <= 64 * 1024
    assert late <= early + 16 * 1024, (early, late)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=12), seed=st.integers(0, 2**32 - 1))
def test_span_reads_across_any_number_of_pieces(sizes, seed):
    """A span names the queued bytes at its offset whether it lies in one
    piece or crosses several; every argument is queued as a copy, and a
    piece is released only whole."""
    rng = random.Random(seed)
    conn = Connection(WireMode.REVERSO, Role.CLIENT, SECRET)
    chunks = [rng.randbytes(n) for n in sizes]
    as_bytes = [rng.random() < 0.5 for _ in chunks]
    for chunk, is_bytes in zip(chunks, as_bytes):
        conn.stream_send(1, chunk if is_bytes else bytearray(chunk))
    conn.stream_send(1, b"", fin=True)
    ss = conn.send_streams[1]
    whole = b"".join(chunks)
    queued = [c for c in chunks if c]
    assert ss.size == len(whole) and len(ss.pieces) == len(queued)
    for piece, chunk in zip(ss.pieces, queued):
        assert piece == chunk and piece is not chunk
    for _ in range(50):
        offset = rng.randint(0, len(whole))
        n = rng.randint(0, len(whole) - offset)
        assert bytes(ss.span(offset, n)) == whole[offset : offset + n]
    low = rng.randint(0, len(whole))
    ss.next_offset = len(whole)
    conn._release(ss, low)
    held = b"".join(ss.pieces)
    assert ss.base_offset <= low and ss.base_offset + ss.size == len(whole)
    assert held == whole[ss.base_offset :]
    assert not ss.pieces or ss.base_offset + len(ss.pieces[0]) > low


@pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
def test_no_room_left_picks_no_fragment(mode):
    # a packet whose overhead leaves no room for a frame takes nothing:
    # every stream is skipped and left as it was
    conn = Connection(mode, Role.CLIENT, SECRET)
    conn.stream_send(1, b"a" * 3000)
    conn.stream_send(2, b"", fin=True)

    def state():
        return {sid: (ss.next_offset, ss.fin_sent, ss.base_offset, ss.size, list(ss.pieces))
                for sid, ss in conn.send_streams.items()}

    before = state()
    assert conn._next_fragment(endpoint._ROOM) is None
    assert state() == before
    # with room, the same streams send
    assert conn._next_fragment(0)[:2] == (1, 0)
    assert conn._next_fragment(0) == (2, 0, 0, True)
