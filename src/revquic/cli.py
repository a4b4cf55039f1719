"""Command-line front end: benchmarks, simulation, transfer, inspection.

Benchmark and simulation output is CSV on stdout for external plotting;
the transfer demo moves a real file over UDP with a trailing checksum;
inspect decodes a single hex-dumped datagram.

The transfer demo takes its secret as hex on the command line, which
leaks it to process listings and shell history. It exists to exercise
the wire format against real sockets, not to protect data; do not reuse
a secret that matters.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import random
import socket
import statistics
import sys
import time

from . import harness
from .endpoint import MAX_DATAGRAM, Connection, Role
from .errors import TransportError
from .harness import PipeConfig, TransferReport
from .mode import WireMode, parse_mode
from .stream_buf import AppRecvBufMap
from . import header as header_mod
from . import crypto, wire

BENCH_COLUMNS = (
    "mode",
    "scenario",
    "bytes",
    "median_ns",
    "p5_ns",
    "p95_ns",
    "throughput_MBps",
    "copied_bytes",
    "zero_copy_bytes",
)

SIMULATE_COLUMNS = (
    "mode",
    "bytes_transferred",
    "wall_time",
    "throughput",
    "payload_bytes_copied",
    "payload_bytes_zero_copy",
    "ordered_ratio",
    "decrypt_failures",
    "retransmissions",
)

_RECV_TIMEOUT = 0.05


def _bench_row(r: harness.BatchResult) -> list:
    return [
        r.mode,
        r.scenario,
        r.bytes_per_rep,
        round(r.median_ns, 1),
        round(r.p5_ns, 1),
        round(r.p95_ns, 1),
        round(r.throughput_mbps, 3),
        r.copied_bytes,
        r.zero_copy_bytes,
    ]


def _ratio_row(base: harness.BatchResult, rev: harness.BatchResult) -> list:
    """Improvement of the reversed layout over the baseline, as a row in
    the same schema: median_ns/p5_ns/p95_ns hold the paired-bootstrap
    ratio of baseline to reversed median times (>1 means faster), and
    throughput_MBps holds the throughput ratio."""
    ratio = base.median_ns / rev.median_ns if rev.median_ns else 0.0
    lo, hi = _bootstrap_ratio_ci(base.times_ns, rev.times_ns)
    tp_ratio = rev.throughput_mbps / base.throughput_mbps if base.throughput_mbps else 0.0
    return [
        "ratio",
        base.scenario,
        base.bytes_per_rep,
        round(ratio, 4),
        round(lo, 4),
        round(hi, 4),
        round(tp_ratio, 4),
        0,
        0,
    ]


def _bootstrap_ratio_ci(base_times, rev_times, lo=0.05, hi=0.95):
    """CI for median(base)/median(rev), resampling paired repetitions."""
    rng = random.Random(harness._BOOTSTRAP_SEED)
    n = min(len(base_times), len(rev_times))
    ratios = []
    for _ in range(harness._BOOTSTRAP_ROUNDS):
        idx = [rng.randrange(n) for _ in range(n)]
        b = statistics.median(base_times[i] for i in idx)
        r = statistics.median(rev_times[i] for i in idx)
        ratios.append(b / r if r else 0.0)
    ratios.sort()
    return (
        ratios[min(len(ratios) - 1, int(lo * len(ratios)))],
        ratios[min(len(ratios) - 1, int(hi * len(ratios)))],
    )


def _modes(choice: str) -> tuple[WireMode, ...]:
    return harness.MODES if choice == "both" else (parse_mode(choice),)


def cmd_bench(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(BENCH_COLUMNS)
    modes = _modes(args.mode)
    if args.sweep:
        runs = harness.sweep_modes(modes=modes, repetitions=args.reps, seed=args.seed)
    else:
        runs = [harness.bench_modes(args.packets, modes, repetitions=args.reps, seed=args.seed)]
    for results in runs:
        for r in results:
            writer.writerow(_bench_row(r))
        if len(results) == 2:
            writer.writerow(_ratio_row(*results))
    return 0


def _report_row(r: TransferReport) -> list:
    return [
        r.mode,
        r.bytes_transferred,
        round(r.wall_time, 6),
        round(r.throughput, 1),
        r.payload_bytes_copied,
        r.payload_bytes_zero_copy,
        round(r.ordered_ratio, 6),
        r.decrypt_failures,
        r.retransmissions,
    ]


def cmd_simulate(args) -> int:
    pipe = PipeConfig(
        seed=args.seed,
        reorder_prob=args.reorder,
        reorder_depth=args.depth,
        loss_prob=args.loss,
        duplicate_prob=args.dup,
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(SIMULATE_COLUMNS)
    for mode in _modes(args.mode):
        report = harness.run_transfer(mode, args.size, args.streams, pipe)
        writer.writerow(_report_row(report))
    return 0


# --- transfer over UDP ---


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _parse_secret(text: str) -> bytes:
    secret = bytes.fromhex(text)
    if len(secret) != crypto.SECRET_LEN:
        raise ValueError(f"secret must be {crypto.SECRET_LEN} bytes of hex")
    return secret


def cmd_transfer(args) -> int:
    mode = parse_mode(args.mode)
    secret = _parse_secret(args.secret)
    if args.direction == "send":
        return _transfer_send(mode, secret, args)
    return _transfer_recv(mode, secret, args)


def _transfer_send(mode: WireMode, secret: bytes, args, deadline: float = 120.0) -> int:
    with open(args.file, "rb") as f:
        payload = f.read()
    digest = hashlib.sha256(payload).digest()
    conn = Connection(mode, Role.CLIENT, secret)
    conn.stream_send(1, payload, fin=False)
    conn.stream_send(1, digest, fin=True)
    appbuf = AppRecvBufMap(default_capacity=4096)

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(_parse_hostport(args.peer))
    sock.settimeout(_RECV_TIMEOUT)
    out = bytearray(MAX_DATAGRAM)
    # datagrams go out of a view of out and come into one reused buffer,
    # so the socket calls copy nothing
    outv = memoryview(out)
    inv = memoryview(bytearray(2048))
    start = time.monotonic()
    try:
        while not (conn.send_done() or conn.closed):
            if time.monotonic() - start > deadline:
                print("error: transfer did not complete before the deadline", file=sys.stderr)
                return 1
            while (n := conn.build_packet(out)) is not None:
                sock.send(outv[:n])
            try:
                conn.recv(inv[: sock.recv_into(inv)], appbuf)
            except (TimeoutError, ConnectionRefusedError):
                conn.on_timeout(time.monotonic())
            except TransportError:
                pass  # garbage from the network: drop
        # courtesy close, fire and forget
        conn.queue_close(0, b"done")
        if (n := conn.build_packet(out)) is not None:
            sock.send(outv[:n])
    finally:
        sock.close()
    wall = time.monotonic() - start
    m = conn.metrics()
    print(f"sent {len(payload)} payload bytes + 32 checksum bytes in {wall:.3f}s")
    print(f"  mode={mode.value} datagram_bytes={m.bytes_sent} retransmissions={m.retransmissions}")
    return 0


def _split_checksum(carry: bytes, view) -> tuple[tuple, bytes]:
    """Split the bytes read so far, carry then view, into file data and
    the last 32 bytes, which may be the checksum. Returns (data parts,
    new carry); the data is view itself where it can be, so only the
    carry, at most 32 bytes, is copied."""
    n = len(view)
    if n >= 32:
        return (carry, view[: n - 32]), bytes(view[n - 32 :])
    joined = carry + bytes(view)
    return (joined[:-32],), joined[-32:]


def _transfer_recv(mode: WireMode, secret: bytes, args, deadline: float = 120.0) -> int:
    conn = Connection(mode, Role.SERVER, secret)
    appbuf = AppRecvBufMap()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(_parse_hostport(args.listen))
    sock.settimeout(_RECV_TIMEOUT)
    out = bytearray(MAX_DATAGRAM)
    outv = memoryview(out)
    hasher = hashlib.sha256()
    carry = b""  # last 32 bytes seen so far: checksum candidate
    total = 0
    fin_seen = False
    start = None
    peer = None

    def flush_sends() -> None:
        if peer is None:
            return
        while (n := conn.build_packet(out)) is not None:
            sock.sendto(outv[:n], peer)

    try:
        with open(args.out, "wb") as f:
            while not fin_seen:
                if start is not None and time.monotonic() - start > deadline:
                    print("error: transfer did not complete before the deadline", file=sys.stderr)
                    return 1
                try:
                    # recvfrom, not recvfrom_into: perfbench's traced socket
                    # times recvfrom; its bytes are immutable, so recv gets a copy
                    pkt, addr = sock.recvfrom(2048)
                    peer = addr
                    if start is None:
                        start = time.monotonic()
                    conn.recv(bytearray(pkt), appbuf)
                except TimeoutError:
                    conn.on_timeout(time.monotonic())
                except TransportError:
                    pass
                for sid in conn.readable():
                    view, fin = conn.stream_recv(sid, appbuf)
                    body, carry = _split_checksum(carry, view)
                    for part in body:
                        f.write(part)
                        hasher.update(part)
                        total += len(part)
                    conn.stream_consumed(sid, len(view), appbuf)
                    if fin:
                        fin_seen = True
                flush_sends()
            # linger briefly so the sender's last retransmissions get
            # their acks and it can observe completion
            linger_until = time.monotonic() + 0.5
            while time.monotonic() < linger_until:
                try:
                    pkt, addr = sock.recvfrom(2048)
                    peer = addr
                    conn.recv(bytearray(pkt), appbuf)
                except (TimeoutError, TransportError):
                    pass
                flush_sends()
                if conn.closed:
                    break
    finally:
        sock.close()
    wall = (time.monotonic() - start) if start else 0.0
    ok = fin_seen and len(carry) == 32 and hasher.digest() == carry
    m = conn.metrics()
    data_packets = m.packets_in_order + m.packets_out_of_order + m.packets_spurious
    ratio = m.packets_in_order / data_packets if data_packets else 1.0
    if wall > 0:
        print(f"received {total} bytes in {wall:.3f}s ({total / wall / 1e6:.1f} MB/s)")
    else:
        print(f"received {total} bytes")
    print(f"  mode={mode.value} copied={m.payload_bytes_copied} zero_copy={m.payload_bytes_zero_copy}")
    print(f"  ordered_ratio={ratio:.4f} decrypt_failures={m.decrypt_failures} retransmissions={m.retransmissions}")
    print(f"  checksum {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


# --- inspect ---


def cmd_inspect(args) -> int:
    mode = parse_mode(args.mode)
    secret = _parse_secret(args.secret)
    keys = crypto.derive_keys(secret, args.direction)
    packet = bytearray(bytes.fromhex(args.hex))
    hdr, hdr_len = header_mod.unprotect_and_decode(
        mode, packet, keys, args.pn_ref, lambda sid: args.off_ref
    )
    print(f"header ({hdr_len} bytes, {mode.value}):")
    print(f"  packet_number={hdr.packet_number} (pn_length={hdr.pn_length})")
    print(f"  dcid={hdr.dcid.hex()} key_phase={hdr.key_phase}")
    if mode is WireMode.REVERSO:
        print(f"  stream_id={hdr.stream_id} offset={hdr.offset} (off_length={hdr.off_length})")
    ct = memoryview(packet)[hdr_len:]
    pt_len = crypto.open(keys, hdr.packet_number, packet[:hdr_len], ct, ct)
    plaintext = ct[:pt_len]
    if mode is WireMode.REVERSO:
        frames = wire.parse_reversed(plaintext)
        print(f"frames ({len(frames)}, right-to-left processing order):")
    else:
        frames = wire.parse_forward(plaintext)
        print(f"frames ({len(frames)}):")
    for frame in frames:
        if isinstance(frame, wire.StreamFrame):
            print(
                f"  Stream id={frame.stream_id} offset={frame.offset} "
                f"len={len(frame.data)} fin={frame.fin} "
                f"explicit_len={frame.explicit_len}"
            )
        else:
            print(f"  {frame}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revquic",
        description="reversed-wire-format transport: benchmarks, simulation, transfer, inspection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time the receive pipeline, CSV to stdout")
    p.add_argument("--mode", choices=["baseline", "reverso", "both"], default="both")
    p.add_argument("--packets", type=int, default=10)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--sweep", action="store_true", help="buffered-length sweep")
    p.add_argument("--seed", type=int, default=0, help="content seed for the prepared batch")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="run a pipe-simulated transfer, CSV to stdout")
    p.add_argument("--size", type=int, default=10 * 1024 * 1024)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--reorder", type=float, default=0.0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--dup", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["baseline", "reverso", "both"], default="both")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transfer", help="move a file over UDP (demo; secret on argv is insecure)")
    p.add_argument("direction", choices=["send", "recv"])
    p.add_argument("--peer", help="HOST:PORT to send to")
    p.add_argument("--listen", help="HOST:PORT to receive on")
    p.add_argument("--file", help="file to send")
    p.add_argument("--out", help="where to write the received file")
    p.add_argument("--secret", required=True, help="64 hex chars; demo only, leaks via argv")
    p.add_argument("--mode", choices=["baseline", "reverso"], default="reverso")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("inspect", help="decode one hex datagram")
    p.add_argument("--hex", required=True)
    p.add_argument("--mode", choices=["baseline", "reverso"], required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--pn-ref", type=int, default=0, dest="pn_ref")
    p.add_argument("--off-ref", type=int, default=0, dest="off_ref")
    p.add_argument("--direction", choices=["c2s", "s2c"], default="c2s")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
