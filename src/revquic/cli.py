"""Command-line front end: benchmarks, simulation, transfer, inspection.

Benchmark and simulation output is CSV on stdout for external plotting;
the transfer demo moves a real file over UDP with a trailing checksum;
inspect reads a single hex-dumped datagram through the receiver and
prints what it applied.

The transfer demo takes its secret as hex on the command line, which
leaks it to process listings and shell history. It exists to exercise
the wire format against real sockets, not to protect data; do not reuse
a secret that matters.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import socket
import sys
import time
from dataclasses import fields, replace

from . import harness
from .endpoint import MAX_DATAGRAM, Connection, Role
from .errors import MalformedHeader, TransportError
from .harness import PipeConfig, TransferReport
from .mode import WireMode, parse_mode
from .stream_buf import AppRecvBufMap
from . import header as header_mod
from . import crypto

# bench's CSV: each column, the BatchResult attribute it prints, and
# the digits a float there is rounded to (None: printed as it is)
_BENCH_TABLE = (
    ("mode", "mode", None),
    ("scenario", "scenario", None),
    ("bytes", "bytes_per_rep", None),
    ("median_ns", "median_ns", 1),
    ("p5_ns", "p5_ns", 1),
    ("p95_ns", "p95_ns", 1),
    ("throughput_MBps", "throughput_mbps", 3),
    ("copied_bytes", "copied_bytes", None),
    ("zero_copy_bytes", "zero_copy_bytes", None),
)
BENCH_COLUMNS = tuple(column for column, _, _ in _BENCH_TABLE)

SIMULATE_COLUMNS = tuple(f.name for f in fields(TransferReport))

_RECV_TIMEOUT = 0.05
_TRANSFER_DEADLINE = 120.0  # seconds a transfer may take


def _bench_row(r: harness.BatchResult) -> list:
    return [
        getattr(r, attr) if digits is None else round(getattr(r, attr), digits)
        for _, attr, digits in _BENCH_TABLE
    ]


def _ratio_row(base: harness.BatchResult, rev: harness.BatchResult) -> list:
    """Improvement of the reversed layout over the baseline, as a row in
    the same schema: median_ns/p5_ns/p95_ns hold the ratio of baseline to
    reversed median times (>1 means faster) and its interval over the
    bootstrap rounds both modes share, and throughput_MBps holds the
    throughput ratio."""
    lo, hi = harness.interval(
        [b / r if r else 0.0 for b, r in zip(base.round_medians, rev.round_medians)]
    )
    ratios = replace(
        base,
        mode="ratio",
        median_ns=base.median_ns / rev.median_ns if rev.median_ns else 0.0,
        p5_ns=lo,
        p95_ns=hi,
        throughput_mbps=rev.throughput_mbps / base.throughput_mbps if base.throughput_mbps else 0.0,
        copied_bytes=0,
        zero_copy_bytes=0,
    )
    # every rounded column holds a ratio here, to 4 digits
    return [
        getattr(ratios, attr) if digits is None else round(getattr(ratios, attr), 4)
        for _, attr, digits in _BENCH_TABLE
    ]


def _modes(choice: str) -> tuple[WireMode, ...]:
    return harness.MODES if choice == "both" else (parse_mode(choice),)


def cmd_bench(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(BENCH_COLUMNS)
    modes = _modes(args.mode)
    if args.sweep:
        runs = harness.sweep_modes(modes=modes, repetitions=args.reps)
    else:
        runs = [harness.bench_modes(args.packets, modes, repetitions=args.reps)]
    for results in runs:
        for r in results:
            writer.writerow(_bench_row(r))
        if len(results) == 2:
            writer.writerow(_ratio_row(*results))
    return 0


def _report_row(r: TransferReport) -> list:
    return [
        round(getattr(r, f.name), f.metadata["digits"]) if f.metadata else getattr(r, f.name)
        for f in fields(r)
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
    for flag in ("peer", "file") if args.direction == "send" else ("listen", "out"):
        if getattr(args, flag) is None:
            raise ValueError(f"transfer {args.direction} needs --{flag}")
    if args.direction == "send":
        return _transfer_send(mode, secret, args)
    return _transfer_recv(mode, secret, args)


def _transfer_send(mode: WireMode, secret: bytes, args) -> int:
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
            now = time.monotonic()
            if now - start > _TRANSFER_DEADLINE:
                print("error: transfer did not complete before the deadline", file=sys.stderr)
                return 1
            # every pass, not only when nothing arrives: acks flowing for
            # later packets must not hold back a lost one's retransmission
            conn.on_timeout(now)
            while (n := conn.build_packet(out)) is not None:
                sock.send(outv[:n])
            try:
                conn.recv(inv[: sock.recv_into(inv)], appbuf)
            except (TimeoutError, ConnectionRefusedError, TransportError):
                pass  # nothing arrived, or garbage from the network: drop
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


def _transfer_recv(mode: WireMode, secret: bytes, args) -> int:
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
    linger_until = 0.0  # set once the fin is read
    start = None
    peer = None

    try:
        with open(args.out, "wb") as f:
            # after the fin, linger briefly so the sender's last
            # retransmissions get their acks and it can observe completion
            while not fin_seen or (not conn.closed and time.monotonic() < linger_until):
                if not fin_seen and start is not None and time.monotonic() - start > _TRANSFER_DEADLINE:
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
                except (TimeoutError, TransportError):
                    pass  # nothing arrived, or garbage: drop
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
                        linger_until = time.monotonic() + 0.5
                if peer is not None:
                    while (n := conn.build_packet(out)) is not None:
                        sock.sendto(outv[:n], peer)
    finally:
        sock.close()
    wall = (time.monotonic() - start) if start else 0.0
    ok = fin_seen and len(carry) == 32 and hasher.digest() == carry
    m = conn.metrics()
    if wall > 0:
        print(f"received {total} bytes in {wall:.3f}s ({total / wall / 1e6:.1f} MB/s)")
    else:
        print(f"received {total} bytes")
    print(f"  mode={mode.value} copied={m.payload_bytes_copied} zero_copy={m.payload_bytes_zero_copy}")
    print(f"  ordered_ratio={m.ordered_ratio:.4f} decrypt_failures={m.decrypt_failures} spurious={m.packets_spurious}")
    print(f"  checksum {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


# --- inspect ---


class _Inspector(Connection):
    """A fresh receiver that keeps the ack recv decodes instead of
    applying it: it has sent nothing for the ack to acknowledge."""

    ack = None

    def _check_ack(self, largest: int, ranges) -> bool:
        super()._check_ack(largest, ranges)  # raises what recv raises
        self.ack = largest, ranges
        return False


def cmd_inspect(args) -> int:
    """Read one datagram as the receiver does: the header fields from
    header.unprotect on a copy, then the datagram through recv on a
    fresh receiver, and print what recv applied. A datagram recv rejects
    exits 2 with recv's error, and one whose header or tag fails with
    an error that names the key as a possible cause."""
    mode = parse_mode(args.mode)
    reverso = mode is WireMode.REVERSO
    role = Role.SERVER if args.direction == "c2s" else Role.CLIENT
    conn = _Inspector(mode, role, _parse_secret(args.secret))
    conn.largest_received_pn = args.pn_ref
    datagram = bytes.fromhex(args.hex)
    hdr = bytearray(datagram)
    try:
        hdr_len, pn, sid, offset = header_mod.unprotect(hdr, conn.recv_keys, args.pn_ref, reverso)
    except MalformedHeader as exc:  # another key unmasks the flags to noise
        raise MalformedHeader(f"{exc}: wrong secret, mode or direction, or a damaged datagram") from exc
    appbuf = AppRecvBufMap()
    conn.recv(bytearray(datagram), appbuf)
    m = conn.metrics()
    if m.decrypt_failures:
        raise TransportError("AEAD tag check failed: wrong secret, mode or direction, or a damaged datagram")
    flags = hdr[0]
    pn_len = (flags & 0x03) + 1
    print(f"header ({hdr_len} bytes, {mode.value}):")
    print(f"  packet_number={pn} (pn_length={pn_len})")
    print(f"  dcid={hdr[1:header_mod.PN_OFFSET].hex()} key_phase={(flags >> 2) & 1}")
    if reverso:
        off_len = hdr_len - header_mod.PN_OFFSET - pn_len - ((flags >> 3) & 0x03) - 1
        print(f"  stream_id={sid} offset={offset} (off_length={off_len})")
    print(f"applied by recv (plaintext walked {'right-to-left' if reverso else 'left-to-right'}):")
    for stream_id, sbuf in appbuf.buffers.items():
        if pn not in conn.ack_pending:
            print(f"  Stream id={stream_id} dropped: it ends past the reassembly window")
            continue
        # a fresh receiver holds this packet's data and nothing else
        if sbuf.starts:
            start, end = sbuf.starts[0], sbuf.ends[0]
        elif sbuf.contiguous_offset:
            start, end = 0, sbuf.contiguous_offset
        else:  # no data, a fin at most
            start = end = sbuf.fin_offset or 0
        lane = "zero-copy" if m.payload_bytes_zero_copy else "copied" if m.payload_bytes_copied else "none"
        print(f"  Stream id={stream_id} offset={start} len={end - start} "
              f"fin={sbuf.fin_offset == end} lane={lane}")
    if conn.ack is not None:
        print(f"  Ack largest={conn.ack[0]} ranges={conn.ack[1]}")
    if conn.closed:
        print(f"  Close error_code={conn.close_error[0]} reason={conn.close_error[1]!r}")
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

    p = sub.add_parser("inspect", help="read one hex datagram as the receiver does")
    p.add_argument("--hex", required=True)
    p.add_argument("--mode", choices=["baseline", "reverso"], required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--pn-ref", type=int, default=0, dest="pn_ref")
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
