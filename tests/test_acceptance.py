"""Acceptance suite: one criterion per test, one verdict line each.

Every test prints `C<n> <name>: PASS|FAIL (<measurements>)` and then
asserts, so `pytest -s tests/test_acceptance.py` reads as a checklist.
Runtime bounds are part of each criterion and are asserted alongside
the functional conditions.
"""

import csv
import io
import random
import socket
import sys
import threading
import time
import zlib

from revquic import cli, crypto, harness, header, wire
from revquic.endpoint import MAX_DATAGRAM, MAX_REVERSO_OFFSET, Connection, Role
from revquic.errors import MalformedFrame, ProtocolViolation
from revquic.harness import PipeConfig, run_transfer
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

from packets import StreamFrame, parse_forward, parse_reversed, plaintext
from test_crypto import oracle_expand, unprotect_pn
from test_endpoint import craft
from test_wire import random_control

MIB = 1024 * 1024


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def run_cli_csv(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return rc, rows[0], rows[1:]


def test_criterion_1_zero_copy_property(capsys):
    t0 = time.perf_counter()
    rc, head, rows = run_cli_csv(
        ["simulate", "--mode", "reverso", "--size", str(10 * MIB), "--streams", "1"],
        capsys,
    )
    elapsed = time.perf_counter() - t0
    row = dict(zip(head, rows[0]))
    ok = (
        rc == 0
        and len(rows) == 1
        and int(row["payload_bytes_copied"]) == 0
        and int(row["payload_bytes_zero_copy"]) == 10 * MIB
        and elapsed < 5.0
    )
    check(
        "C1 zero-copy property",
        ok,
        f"copied={row['payload_bytes_copied']} zero_copy={row['payload_bytes_zero_copy']} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_2_baseline_copy_floor(capsys):
    t0 = time.perf_counter()
    rc, head, rows = run_cli_csv(
        ["simulate", "--mode", "baseline", "--size", str(10 * MIB), "--streams", "1"],
        capsys,
    )
    elapsed = time.perf_counter() - t0
    row = dict(zip(head, rows[0]))
    ok = rc == 0 and int(row["payload_bytes_copied"]) >= 10 * MIB and elapsed < 5.0
    check(
        "C2 baseline copy floor",
        ok,
        f"copied={row['payload_bytes_copied']} floor={10 * MIB} runtime={elapsed:.2f}s",
    )


def test_criterion_3_relative_throughput(capsys):
    t0 = time.perf_counter()
    rc, head, rows = run_cli_csv(
        ["bench", "--mode", "both", "--packets", "10", "--reps", "1000"], capsys
    )
    elapsed = time.perf_counter() - t0
    base = dict(zip(head, rows[0]))
    rev = dict(zip(head, rows[1]))
    ratio_row = dict(zip(head, rows[2]))
    base_tp, rev_tp = float(base["throughput_MBps"]), float(rev["throughput_MBps"])
    # lower receive time = higher throughput; intervals must not overlap
    strictly_faster = float(rev["median_ns"]) < float(base["median_ns"])
    disjoint = float(rev["p95_ns"]) < float(base["p5_ns"])
    ratio_reported = ratio_row["mode"] == "ratio" and float(ratio_row["median_ns"]) > 0
    ok = rc == 0 and strictly_faster and disjoint and ratio_reported and elapsed < 120.0
    check(
        "C3 relative throughput",
        ok,
        f"baseline={base_tp:.1f}MB/s reverso={rev_tp:.1f}MB/s "
        f"ratio={ratio_row['median_ns']} ci=[{ratio_row['p5_ns']},{ratio_row['p95_ns']}] "
        f"disjoint={disjoint} runtime={elapsed:.1f}s",
    )


def opcodes_executed(fn, *args):
    """(bytecodes executed, result) of fn(*args): every opcode of fn and
    of each Python function it calls, counted through sys.settrace's
    opcode events, so the count is exact and free of timing noise."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(outer)
    return count, result


def test_criterion_3_bytecode_count():
    """C3's lead without its timing noise: the bytecodes that one
    in-order recv of a full data packet executes, and the build_packet
    that wrote it, in each mode."""
    recv, send = {}, {}
    for mode in WireMode:
        sender = Connection(mode, Role.CLIENT, b"\x33" * 32)
        receiver = Connection(mode, Role.SERVER, b"\x33" * 32)
        appbuf = AppRecvBufMap()
        sender.stream_send(1, bytes(4 * MAX_DATAGRAM))
        out = bytearray(MAX_DATAGRAM)
        # first contact binds the stream's buffer: not the steady state
        receiver.recv(bytearray(out[: sender.build_packet(out, 0.0)]), appbuf)
        send[mode], n = opcodes_executed(sender.build_packet, out, 0.0)
        recv[mode], _ = opcodes_executed(receiver.recv, bytearray(out[:n]), appbuf)
        assert receiver.metrics().packets_in_order == 2
    base, rev = WireMode.BASELINE, WireMode.REVERSO
    check(
        "C3 bytecode count",
        recv[rev] < recv[base],
        f"recv baseline={recv[base]} reverso={recv[rev]} "
        f"build_packet baseline={send[base]} reverso={send[rev]}",
    )


def test_criterion_4_buffered_length_sweep(capsys):
    t0 = time.perf_counter()
    rc, head, rows = run_cli_csv(["bench", "--sweep", "--mode", "both", "--reps", "300"], capsys)
    elapsed = time.perf_counter() - t0
    by_scenario: dict[str, dict[str, dict]] = {}
    for r in rows:
        row = dict(zip(head, r))
        by_scenario.setdefault(row["scenario"], {})[row["mode"]] = row
    points = []
    for length in harness.SWEEP_LENGTHS:
        pair = by_scenario[f"sweep-{length}"]
        rev_wins = float(pair["reverso"]["median_ns"]) <= float(pair["baseline"]["median_ns"])
        points.append((length, rev_wins, float(pair["ratio"]["median_ns"])))
    ok = rc == 0 and all(w for _, w, _ in points) and elapsed < 300.0
    check(
        "C4 buffered-length sweep",
        ok,
        "ratios=" + " ".join(f"{l}:{r:.4f}" for l, _, r in points) + f" runtime={elapsed:.1f}s",
    )


def test_criterion_5_ordered_ratio_linkage():
    t0 = time.perf_counter()
    size = 2 * MIB
    reports = {}
    for p in (0.0, 0.01, 0.1):
        reports[p] = run_transfer(
            WireMode.REVERSO, size, pipe=PipeConfig(seed=0, reorder_prob=p)
        )
    again = run_transfer(WireMode.REVERSO, size, pipe=PipeConfig(seed=0, reorder_prob=0.1))
    elapsed = time.perf_counter() - t0
    r0, r1, r2 = (reports[p] for p in (0.0, 0.01, 0.1))
    deterministic = (
        again.ordered_ratio == r2.ordered_ratio
        and again.payload_bytes_copied == r2.payload_bytes_copied
    )
    # reorder-only pipe delivers every byte exactly once, so the copied
    # bytes are exactly those not opened at their offset in storage: the
    # packets filling a gap, whose footprint reaches the data past it, so
    # they open in the datagram
    exact_copy_link = all(
        r.payload_bytes_copied == r.bytes_transferred - r.payload_bytes_zero_copy
        and r.retransmissions == 0
        and r.decrypt_failures == 0
        for r in reports.values()
    )
    monotone = r0.ordered_ratio == 1.0 > r1.ordered_ratio > r2.ordered_ratio
    ok = deterministic and exact_copy_link and monotone and elapsed < 60.0
    check(
        "C5 ordered-ratio linkage",
        ok,
        f"ratios={r0.ordered_ratio:.4f}/{r1.ordered_ratio:.4f}/{r2.ordered_ratio:.4f} "
        f"copied={r0.payload_bytes_copied}/{r1.payload_bytes_copied}/{r2.payload_bytes_copied} "
        f"deterministic={deterministic} runtime={elapsed:.1f}s",
    )


def test_criterion_6_wire_round_trips():
    """Random headers and frames, written by the program's encoders
    (header.pack_header and header.protect, and the frame encoders), come
    back whole: header.unprotect restores the header bytes and fields,
    and the reference walk gives back every frame."""
    t0 = time.perf_counter()
    rng = random.Random(0xACCE)
    keys = crypto.derive_keys(b"\x06" * 32, "c2s")
    failures = 0
    for _ in range(10_000):
        reverso = rng.choice((False, True))
        pn = rng.getrandbits(rng.choice((8, 24, 61)))
        pn_len = rng.randint(1, 4)
        dcid = int.from_bytes(rng.randbytes(8), "big")
        key_phase = rng.randint(0, 1)
        frames: list = [random_control(rng) for _ in range(rng.randint(0, 2))]
        anchor = None
        sid = offset = 0
        off_len = 1
        if reverso:
            if rng.random() < 0.8:
                # the header is the anchor's one locator, so it carries
                # the whole offset: at most MAX_REVERSO_OFFSET, in a field
                # at least as wide as build_packet writes it
                anchor = StreamFrame(
                    stream_id=rng.getrandbits(rng.choice((4, 12, 29))) or 1,
                    offset=min(rng.getrandbits(rng.choice((6, 20, 31))), MAX_REVERSO_OFFSET),
                    data=rng.randbytes(rng.randint(0, 64)),
                    fin=rng.random() < 0.2,
                    explicit_len=False,
                )
                frames.insert(0, anchor)
                sid, offset = anchor.stream_id, anchor.offset
                off_len = rng.randint(crypto.truncated_len(offset + 1, 0), 4)
        elif rng.random() < 0.8:
            anchor = StreamFrame(
                stream_id=rng.getrandbits(12) or 1,
                offset=rng.getrandbits(20),
                data=rng.randbytes(rng.randint(0, 64)),
                fin=rng.random() < 0.2,
                explicit_len=False,
            )
            frames.append(anchor)

        hdr_len = header.PN_OFFSET + pn_len
        if reverso:
            hdr_len += header.wire_sid_length(sid) + off_len
        hdr = header.pack_header(reverso, pn, pn_len, sid, offset, off_len, dcid, key_phase)
        body = plaintext(frames, reverso)
        packet = bytearray(hdr.to_bytes(hdr_len, "big")) + body
        if len(packet) < header.SAMPLE_OFFSET + header.SAMPLE_LEN:
            packet += bytes(header.SAMPLE_OFFSET + header.SAMPLE_LEN - len(packet))
        pristine = bytes(packet)

        header.protect(packet, keys, hdr, hdr_len, reverso)
        got_len, got_pn, got_sid, got_off = header.unprotect(packet, keys, max(pn - 1, 0), reverso)
        # the flags, dcid and key phase come back with the header bytes
        if bytes(packet) != pristine or got_len != hdr_len or got_pn != pn:
            failures += 1
            continue
        if reverso:
            if (got_sid, got_off) != (sid, offset):
                failures += 1
                continue
            parsed = parse_reversed(body, got_sid, got_off)
            expect = list(reversed(frames[1:])) + [frames[0]] if anchor else list(reversed(frames))
        else:
            parsed = parse_forward(body)
            expect = frames
        if parsed != expect:
            failures += 1

    # the program's sizes: the sender's budget and the field _pack writes
    # in each layout, one field after a one-byte type
    boundary_ok = all(
        wire.forward_length(v) == n
        and len(wire._pack(0, (v,), False)) == n + 1
        and len(wire._pack(0, (v,), True)) == n + 1
        for v, n in (
            ((1 << 6) - 1, 1),
            (1 << 6, 2),
            ((1 << 14) - 1, 2),
            (1 << 14, 4),
            ((1 << 30) - 1, 4),
            (1 << 30, 8),
            ((1 << 62) - 1, 8),
        )
    )
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and boundary_ok and elapsed < 30.0
    check(
        "C6 wire-format round trips",
        ok,
        f"failures={failures}/10000 varint_boundaries={'ok' if boundary_ok else 'BAD'} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_7_truncation_oracle():
    t0 = time.perf_counter()
    rng = random.Random(0x07AC1E)
    disagreements = 0
    trials = 100_000
    for i in range(trials):
        n = (i % 4) + 1
        truncated = rng.getrandbits(8 * n)
        if i % 3 == 0:
            reference = rng.getrandbits(62)
        elif i % 3 == 1:
            reference = rng.getrandbits(8 * n + 2)  # near the window size
        else:
            reference = max(0, (1 << 62) - 1 - rng.getrandbits(8 * n))
        # the receiver's expansion: the value as the packet number of a
        # protected header, read back by header.unprotect; the mode
        # alternates every four draws, so both see every field width
        got = unprotect_pn(truncated, n, reference, i // 4 % 2 == 1, rng.randbytes(32))
        want = oracle_expand(truncated.to_bytes(n, "big"), reference)
        if got != want:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 10.0
    check(
        "C7 truncated-integer oracle",
        ok,
        f"disagreements={disagreements}/{trials} runtime={elapsed:.1f}s",
    )


def test_criterion_8_adversarial_safety():
    t0 = time.perf_counter()
    rng = random.Random(0x5AFE)
    secret = b"\x08" * 32
    wrong = crypto.derive_keys(b"\x09" * 32, "c2s")
    client = Connection(WireMode.REVERSO, Role.CLIENT, secret)
    server = Connection(WireMode.REVERSO, Role.SERVER, secret)
    sbuf = AppRecvBufMap()
    out = bytearray(1350)

    client.stream_send(1, rng.randbytes(3000), fin=False)
    while (n := client.build_packet(out)) is not None:
        server.recv(bytearray(out[:n]), sbuf)
    while server.build_packet(out) is not None:
        pass  # flush acks owed for the honest packets
    client.stream_send(1, rng.randbytes(1200))
    n = client.build_packet(out)
    pristine = bytes(out[:n])

    sbuf._materialize_spare()
    committed = {
        sid: zlib.crc32(bytes(b.readable_span()[0])) for sid, b in sbuf.buffers.items()
    }
    contiguous = sbuf.buffers[1].contiguous_offset
    allocations = sbuf.allocations
    spare = sbuf.spare
    allowed = (MalformedFrame, ProtocolViolation)

    emitted = 0
    survived = 0
    for i in range(1000):
        if i < 500:  # random single-bit flips anywhere in the datagram
            gram = bytearray(pristine)
            gram[rng.randrange(len(gram))] ^= 1 << rng.randrange(8)
        elif i < 750:  # targeted flips inside the protected offset/sid field
            gram = bytearray(pristine)
            gram[rng.randrange(9, 21)] ^= 1 << rng.randrange(8)
        else:  # forged offsets below/above contiguous, without the key
            off = rng.randrange(contiguous) if i % 2 else contiguous + rng.randrange(1, 1 << 20)
            frame = StreamFrame(
                stream_id=rng.choice((1, 2, 77)), offset=off,
                data=rng.randbytes(100), explicit_len=False,
            )
            gram = craft(
                WireMode.REVERSO, wrong, i, [frame],
                hdr_sid=frame.stream_id, hdr_off=off,
            )
        try:
            server.recv(gram, sbuf)
        except allowed:
            pass
        survived += 1
        if server.build_packet(out) is not None:
            emitted += 1

    stable = all(
        zlib.crc32(bytes(sbuf.buffers[sid].readable_span()[0])) == crc
        for sid, crc in committed.items()
    )
    alloc_delta = sbuf.allocations - allocations
    elapsed = time.perf_counter() - t0
    ok = (
        survived == 1000
        and stable
        and emitted == 0
        and alloc_delta == 0
        and sbuf.spare is spare
        and elapsed < 30.0
    )
    check(
        "C8 adversarial safety",
        ok,
        f"mutations=1000 committed_stable={stable} datagrams_emitted={emitted} "
        f"net_allocations={alloc_delta} runtime={elapsed:.1f}s",
    )


def test_criterion_9_mode_equivalence_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(0x9E2E)
    payload = rng.randbytes(10 * MIB)
    src = tmp_path / "src"
    src.write_bytes(payload)
    secret = "33" * 32
    outputs = {}
    rcs = {}
    for mode in ("baseline", "reverso"):
        dst = tmp_path / f"out-{mode}"
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        box = {}

        def receive():
            box["rc"] = cli.main(
                [
                    "transfer", "recv",
                    "--listen", f"127.0.0.1:{port}",
                    "--out", str(dst),
                    "--secret", secret,
                    "--mode", mode,
                ]
            )

        t = threading.Thread(target=receive, daemon=True)
        t.start()
        time.sleep(0.05)
        send_rc = cli.main(
            [
                "transfer", "send",
                "--peer", f"127.0.0.1:{port}",
                "--file", str(src),
                "--secret", secret,
                "--mode", mode,
            ]
        )
        t.join(timeout=55)
        assert not t.is_alive(), "receiver stuck"
        rcs[mode] = (send_rc, box["rc"])
        outputs[mode] = zlib.crc32(dst.read_bytes())
    capsys.readouterr()

    lossy_ok = True
    for mode in WireMode:
        r = run_transfer(mode, 10 * MIB, pipe=PipeConfig(seed=9, loss_prob=0.05))
        lossy_ok = lossy_ok and r.bytes_transferred == 10 * MIB
    elapsed = time.perf_counter() - t0
    source = zlib.crc32(payload)
    identical = outputs["baseline"] == outputs["reverso"] == source
    ok = (
        all(rc == (0, 0) for rc in rcs.values())
        and identical
        and lossy_ok
        and elapsed < 60.0
    )
    check(
        "C9 mode equivalence end-to-end",
        ok,
        f"udp_checksums_identical={identical} lossy_simulator_ok={lossy_ok} "
        f"runtime={elapsed:.1f}s",
    )
