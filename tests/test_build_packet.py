"""Connection.build_packet: every packet shape it emits, in both modes.

The golden file pins the exact datagram bytes (SHA-256 per datagram) of
the scenarios below, so a rewrite of the builder must reproduce them bit
for bit. To regenerate it from the current builder:

    PYTHONPATH=src python tests/test_build_packet.py > tests/data/build_packet_golden.txt
"""

import hashlib
import pathlib
import random
from contextlib import contextmanager

import pytest

from revquic import cli, crypto, header, harness, wire
from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.errors import BufferTooSmall
from revquic.harness import PipeConfig
from revquic.mode import WireMode
from packets import (
    AckFrame,
    ConnectionCloseFrame,
    PaddingFrame,
    StreamFrame,
    open_packet,
    parse_forward,
    parse_reversed,
)
from test_acceptance import opcodes_executed
from test_send_buffer import span_data

GOLDEN = pathlib.Path(__file__).parent / "data" / "build_packet_golden.txt"
SECRET = b"\x5a" * 32
MODES = (WireMode.BASELINE, WireMode.REVERSO)


@contextmanager
def recording(sink: list):
    """Append a copy of every datagram any Connection builds to sink."""
    real = Connection.build_packet

    def build_packet(conn, out, now=None):
        n = real(conn, out, now)
        if n is not None:
            sink.append(bytes(out[:n]))
        return n

    Connection.build_packet = build_packet
    try:
        yield sink
    finally:
        Connection.build_packet = real


# Each direct case: stream sends as (stream_id, first_offset, size, fin),
# pending ack numbers, a queued close, the first packet number, and
# whether the sent packets time out once and are retransmitted.
CASES = {
    "data-small": dict(sends=[(1, 0, 700, False)]),
    "data-multi": dict(sends=[(1, 0, 3000, True)]),
    "sid-2^6": dict(sends=[(1 << 6, 0, 3000, True)]),
    "sid-2^14": dict(sends=[(1 << 14, 0, 3000, True)]),
    "sid-2^22": dict(sends=[(1 << 22, 0, 3000, True)]),
    "sid-max": dict(sends=[(header.MAX_STREAM_ID, 0, 100, True)]),
    "off-2^7": dict(sends=[(1, (1 << 7) + 1, 100, False)]),
    "off-2^14": dict(sends=[(1, (1 << 14) + 2, 2000, False)]),
    "off-2^16": dict(sends=[(1, (1 << 16) + 3, 3000, True)]),
    "off-2^24": dict(sends=[(3, (1 << 24) + 5, 3000, True)]),
    "pad-1": dict(sends=[(1, 0, 1, False)]),
    "pad-0-fin": dict(sends=[(1, 0, 0, True)]),
    "pad-1-fin-off": dict(sends=[(2, 300, 1, True)]),
    "pad-ack": dict(sends=[(1, 0, 2, False)], acks=[0]),
    "ack-only": dict(acks=[3]),
    "ack-ranges": dict(acks=[0, 1, 2, 5, 9, 10, 11, 40, 300, 301, 70000]),
    "ack-cap": dict(acks=[2 * i for i in range(40)]),
    "ack-data": dict(sends=[(5, 0, 2500, True)], acks=[1, 2, 4]),
    "close-only": dict(close=(0, b"")),
    "close-reason": dict(close=(0x1234, b"going away")),
    "close-ack-data": dict(sends=[(1, 0, 1500, True)], acks=[7, 9], close=(70000, b"done")),
    "streams": dict(sends=[(1, 0, 1400, True), (2, 0, 30, False), (1 << 14, 1 << 20, 2000, True)]),
    "pn-2": dict(sends=[(1, 0, 500, False)], pn=200),
    "pn-3": dict(sends=[(1, 0, 500, False)], pn=40000),
    "pn-4": dict(sends=[(1, 0, 500, False)], pn=(1 << 23) + 7),
    "retransmit": dict(sends=[(1, 0, 4000, True), (9, 70, 10, False)], acks=[0, 5], retransmit=True),
}


def payload(name: str, sid: int, size: int) -> bytes:
    return random.Random(f"{name}/{sid}").randbytes(size)


def run_case(mode: WireMode, name: str) -> tuple[Connection, list[bytes]]:
    case = CASES[name]
    conn = Connection(mode, Role.CLIENT, SECRET)
    conn.next_pn = case.get("pn", 0)
    for sid, first, size, fin in case.get("sends", []):
        conn.stream_send(sid, payload(name, sid, size), fin=fin)
        ss = conn.send_streams[sid]
        ss.base_offset = ss.next_offset = first
    conn.ack_pending = set(case.get("acks", []))
    if "close" in case:
        conn.queue_close(*case["close"])
    out = bytearray(MAX_DATAGRAM)
    dgrams = []
    while (n := conn.build_packet(out, now=0.0)) is not None:
        dgrams.append(bytes(out[:n]))
    if case.get("retransmit"):
        conn.on_timeout(1.0)
        conn.ack_pending = {50}
        while (n := conn.build_packet(out, now=1.0)) is not None:
            dgrams.append(bytes(out[:n]))
    return conn, dgrams


LOSSY = PipeConfig(reorder_prob=0.2, loss_prob=0.1, duplicate_prob=0.05)


def scenarios():
    """(mode, scenario, datagrams) for every recorded run, in file order."""
    for mode in MODES:
        runs = [("transfer-clean", 20_000, 1, PipeConfig())]
        for seed in (1, 2, 3):
            pipe = PipeConfig(seed, LOSSY.reorder_prob, LOSSY.reorder_depth,
                              LOSSY.loss_prob, LOSSY.duplicate_prob)
            runs.append((f"transfer-lossy-s{seed}", 24_000, 8, pipe))
        for name, size, streams, pipe in runs:
            with recording([]) as sink:
                harness.run_transfer(mode, size, streams, pipe)
            yield mode, name, sink
        for name in CASES:
            yield mode, name, run_case(mode, name)[1]


def golden_lines():
    for mode, name, dgrams in scenarios():
        for i, d in enumerate(dgrams):
            yield f"{mode.value} {name} {i} {len(d)} {hashlib.sha256(d).hexdigest()}"


def test_golden_datagrams():
    want = [ln for ln in GOLDEN.read_text().splitlines() if ln and not ln.startswith("#")]
    got = list(golden_lines())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def _acked(frame: AckFrame) -> set[int]:
    pns, cursor = set(), frame.largest_acked
    for gap, length in frame.ranges:
        cursor -= gap
        pns.update(range(cursor - length + 1, cursor + 1))
        cursor -= length
    return pns


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(CASES))
def test_every_shape_opens(mode, name):
    """Each datagram unprotects, opens and parses with the reference
    walk; together they carry exactly the queued stream bytes, acks and
    close."""
    case = CASES[name]
    conn, dgrams = run_case(mode, name)
    ks = crypto.derive_keys(SECRET, "c2s")
    reverso = mode is WireMode.REVERSO
    sends = {sid: (first, payload(name, sid, size), fin)
             for sid, first, size, fin in case.get("sends", [])}
    covered = {sid: set() for sid in sends}
    fins, acked, closes = set(), set(), []
    pn = case.get("pn", 0)
    for d in dgrams:
        assert header.SAMPLE_OFFSET + header.SAMPLE_LEN <= len(d) <= MAX_DATAGRAM
        # the reverso header holds the whole offset, read as it stands
        _, got_pn, sid, offset, pt = open_packet(reverso, ks, d, pn - 1)
        assert got_pn == pn
        pn += 1
        assert len(pt) >= header.MIN_PLAINTEXT
        frames = parse_reversed(pt, sid, offset) if reverso else parse_forward(pt)
        streams = [f for f in frames if isinstance(f, StreamFrame)]
        assert len(streams) <= 1
        for f in frames:
            if isinstance(f, AckFrame):
                acked |= _acked(f)
            elif isinstance(f, ConnectionCloseFrame):
                closes.append((f.error_code, f.reason))
            else:
                assert isinstance(f, (StreamFrame, PaddingFrame))
        if reverso:
            # the header locates the anchor; without one it names stream 0
            assert bool(streams) is (sid != 0)
        for f in streams:
            assert f.explicit_len is False
            first, data, fin = sends[f.stream_id]
            lo = f.offset - first
            assert bytes(f.data) == data[lo : lo + len(f.data)]
            covered[f.stream_id].update(range(lo, lo + len(f.data)))
            if f.fin:
                assert lo + len(f.data) == len(data)
                fins.add(f.stream_id)
    for sid, (_, data, fin) in sends.items():
        assert covered[sid] == set(range(len(data)))
        assert (sid in fins) == fin
    want_acks = set(case.get("acks", []))
    if case.get("retransmit"):
        want_acks.add(50)
    assert acked == want_acks
    assert closes == ([case["close"]] if "close" in case else [])
    assert conn.next_pn == pn


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_real_datagrams_round_trip(mode, capsys):
    """The reference walk reads back what the connection sends: for each
    datagram, header.unprotect, the AEAD and the mode's walk give the
    fragment's stream id, offset, data and fin and the ack beside it,
    and revquic inspect, through recv, prints the same for one of them."""
    conn = Connection(mode, Role.CLIENT, SECRET)
    conn.stream_send(70, payload("round-trip", 70, 3000), fin=True)
    out = bytearray(MAX_DATAGRAM)
    dgrams = [bytes(out[: conn.build_packet(out, now=0.0)])]
    conn.ack_pending = {4, 5, 9}  # rides with the second fragment
    while (n := conn.build_packet(out, now=0.0)) is not None:
        dgrams.append(bytes(out[:n]))
    assert len(dgrams) == 3
    ks = crypto.derive_keys(SECRET, "c2s")
    for pn, d in enumerate(dgrams):
        span = conn.unacked[pn][1]
        reverso = mode is WireMode.REVERSO
        _, _, hdr_sid, hdr_off, pt = open_packet(reverso, ks, d, pn - 1)
        frames = parse_reversed(pt, hdr_sid, hdr_off) if reverso else parse_forward(pt)
        [got] = [f for f in frames if isinstance(f, StreamFrame)]
        sid, offset, _, fin = span
        assert (got.stream_id, got.offset, bytes(got.data), got.fin) == (
            sid, offset, span_data(conn, span), fin)
        acks = [f for f in frames if isinstance(f, AckFrame)]
        assert acks == ([AckFrame(largest_acked=9, ranges=[(0, 1), (3, 2)])] if pn == 1 else [])
    _, offset, n, _ = conn.unacked[1][1]
    assert cli.main(["inspect", "--hex", dgrams[1].hex(), "--mode", mode.value,
                     "--secret", SECRET.hex(), "--pn-ref", "0"]) == 0
    shown = capsys.readouterr().out
    assert f"Stream id=70 offset={offset} len={n} fin=False" in shown
    assert "Ack largest=9 ranges=[(0, 1), (3, 2)]" in shown
    if mode is WireMode.REVERSO:
        assert f"stream_id=70 offset={offset} " in shown


def test_reverso_fragment_budget_and_worst_case_retransmission():
    """A reverso fragment is budgeted for the header's worst-case packet
    number and offset fields and the anchor's one type byte, and nothing
    else: a full fragment of the widest stream id near the last offset,
    first sent with a 1-byte packet number, is retransmitted with a
    4-byte one and fills MAX_DATAGRAM exactly."""
    conn = Connection(WireMode.REVERSO, Role.CLIENT, SECRET)
    sid, first = header.MAX_STREAM_ID, (1 << 31) - 2 - 4000
    conn.stream_send(sid, b"w" * 3000)
    ss = conn.send_streams[sid]
    ss.base_offset = ss.next_offset = first
    out = bytearray(MAX_DATAGRAM)
    n = conn.build_packet(out, now=0.0)
    span = conn.unacked[0][1]
    room = MAX_DATAGRAM - (1 + header.DCID_LEN + 4) - crypto.TAG_LEN
    assert span[2] == room - (1 + header.wire_sid_length(sid) + 4)
    assert n == MAX_DATAGRAM - 3  # the packet number took 1 of its 4 bytes
    conn.unacked.clear()
    conn.next_pn = 1 << 28  # nothing acked: the packet number needs 4 bytes
    conn._retransmit.append(span)
    assert conn.build_packet(out, now=1.0) == MAX_DATAGRAM


def test_reverso_sender_runs_no_more_bytecodes():
    """The paper's sender claim, without timing noise: one steady-state
    full data build_packet, set up as C3's bytecode count sets it up,
    executes no more bytecodes in reverso than in baseline."""
    count = {}
    for mode in MODES:
        sender = Connection(mode, Role.CLIENT, b"\x33" * 32)
        sender.stream_send(1, bytes(4 * MAX_DATAGRAM))
        out = bytearray(MAX_DATAGRAM)
        sender.build_packet(out, 0.0)  # the first packet: not the steady state
        count[mode], n = opcodes_executed(sender.build_packet, out, 0.0)
        assert n > MAX_DATAGRAM - 8  # full but for header bytes it did not need
    assert count[WireMode.REVERSO] <= count[WireMode.BASELINE], count


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_packet_number_and_in_flight_record(mode):
    """After build_packet returns, next_pn - 1 is the packet's number and
    unacked maps it to the span it carried; an ack-only packet is not in
    flight."""
    conn = Connection(mode, Role.CLIENT, SECRET)
    conn.stream_send(3, b"x" * 2000, fin=True)
    out = bytearray(MAX_DATAGRAM)
    offset = 0
    while (n := conn.build_packet(out, now=2.0)) is not None:
        sent, (sid, off, length, fin) = conn.unacked[conn.next_pn - 1]
        assert sent == 2.0
        assert (sid, off) == (3, offset)
        offset += length
    assert offset == 2000 and fin
    conn.ack_pending = {0}
    assert conn.build_packet(out, now=3.0) is not None
    assert conn.next_pn - 1 not in conn.unacked


WIDEST = (1 << 62) - 1


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("with_ack", [False, True], ids=["no-ack", "ack-cap"])
def test_close_reason_limit(mode, with_ack):
    """A close must fit beside the widest ack build_packet can write,
    under a header with a 4-byte packet number and, in reverso, one-byte
    stream id and offset fields. At that limit the close goes out; one
    byte more raises BufferTooSmall from queue_close and changes
    nothing, so the close queued before it goes out, with the ack."""
    reverso = mode is WireMode.REVERSO
    limit = 792 if reverso else 794
    widest_ack = len(wire.ack_fields(WIDEST, 0, [(WIDEST, WIDEST)] * wire.MAX_ACK_RANGES, reverso))
    hdr_len = header.PN_OFFSET + 4 + 2 * reverso
    at_limit = wire.close_fields(0, b"r" * limit, reverso)
    assert hdr_len + widest_ack + len(at_limit) + crypto.TAG_LEN == MAX_DATAGRAM
    pending = {(1 << 61) - (1 << 40) * i for i in range(wire.MAX_ACK_RANGES + 3)} if with_ack else set()
    ks = crypto.derive_keys(SECRET, "c2s")
    out = bytearray(MAX_DATAGRAM)
    for queued in [(0, b"r" * limit), (7, b"first")]:
        conn = Connection(mode, Role.CLIENT, SECRET)
        conn.next_pn = 1 << 28  # nothing acked: the packet number takes 4 bytes
        conn.ack_pending = set(pending)
        conn.queue_close(*queued)
        with pytest.raises(BufferTooSmall):
            conn.queue_close(0, b"r" * (limit + 1))
        assert (conn.next_pn, conn.ack_pending) == (1 << 28, pending)
        n = conn.build_packet(out, now=0.0)
        *_, pt = open_packet(reverso, ks, out[:n], (1 << 28) - 1)
        frames = parse_reversed(pt, 0, 0) if reverso else parse_forward(pt)
        closes = [(f.error_code, f.reason) for f in frames if isinstance(f, ConnectionCloseFrame)]
        acks = [f for f in frames if isinstance(f, AckFrame)]
        assert closes == [queued]
        assert [len(f.ranges) for f in acks] == ([wire.MAX_ACK_RANGES] if with_ack else [])


if __name__ == "__main__":
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            print(line)  # the header comment, kept as recorded
    for line in golden_lines():
        print(line)
