"""Traced run: per-layer metrics from spans recorded around the calls
into each module of revquic, from outside the program.

Wrappers are installed by patching module attributes and class methods
for the duration of one traced operation. That reaches every layer
because endpoint calls crypto.derive_keys, header.* and wire.* through
their modules, and calls StreamRecvBuffer, AppRecvBufMap and Connection
methods by lookup. The receive fast paths call ks._aead and ks._hp
inline, so the patched derive_keys returns real KeySchedules whose
_aead and _hp are timing proxies around the real primitives; every tag
check still happens.

A span is (id, parent id, name, start ns, end ns, group); the group is
the request index for rpc and the root span's id otherwise, so the spans
of one datagram share it. Spans are kept in memory and written when the
run ends. A span's self time is its duration minus its children's
(calls nest strictly on the one thread). Each span takes the role of the
Connection it runs under: send-side layers are summed over the client
(the data sender) and receive-side layers over the server (the data
receiver), so an ack-only packet never dilutes a data-path figure.

Each traced operation is paired with an untraced one of the same shape,
and the goodput gap between them is reported as trace.overhead.

The cli layer is reached only by the traced run of bulk, which ends with
real `transfer` runs over 127.0.0.1 (loopback.py). There only the
receiver's socket calls are timed, not its other layers, so the
in-process figures keep to the in-process transfers.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
from contextlib import ExitStack, contextmanager

from cryptography.exceptions import InvalidTag

from revquic import cli, crypto, harness, header, wire
from revquic.endpoint import Connection, Role
from revquic.stream_buf import AppRecvBufMap, StreamRecvBuffer

import workloads as wl

SPAN_CAP = 50_000  # spans kept for the span file; statistics cover all
SPAN_COST_CALLS = 20_000
LOOPBACK_TRANSFERS = 2  # per mode, in the traced run of bulk
SEND, RECV, ANY = Role.CLIENT.value, Role.SERVER.value, None

# span name (also the metric prefix), role summed over, statistics
SPAN_METRICS = (
    ("endpoint.build_packet", SEND, ("calls", "ns_per_call", "self_ns_per_call")),
    ("endpoint.next_fragment", SEND, ("calls", "ns_per_call")),
    ("header.encode_header", SEND, ("calls", "ns_per_call")),
    ("header.protect_header", SEND, ("calls", "ns_per_call")),
    ("wire.serialize", SEND, ("calls", "ns_per_call")),
    ("wire.frame_wire_size", SEND, ("calls", "ns_per_call")),
    ("crypto.aead_seal", SEND, ("calls", "ns_per_call")),
    ("endpoint.recv", RECV, ("calls", "ns_per_call", "self_ns_per_call")),
    ("crypto.aead_open", RECV, ("calls", "ns_per_call")),
    ("crypto.hp_mask", RECV, ("calls", "ns_per_call")),
    ("wire.parse", RECV, ("calls", "ns_per_call")),
    ("crypto.expand_int", RECV, ("calls",)),
    ("stream_buf.stash_out_of_order", RECV, ("calls", "ns_per_call")),
    ("stream_buf.drain_stash", RECV, ("calls", "ns_per_call")),
    ("stream_buf.append_in_order", RECV, ("calls", "ns_per_call")),
    ("endpoint.build_ack", ANY, ("calls",)),
    ("endpoint.on_ack", ANY, ("calls",)),
    ("endpoint.on_timeout", ANY, ("calls",)),
    ("crypto.derive_keys", ANY, ("calls", "ns_per_call")),
    ("cli.sock_recv", ANY, ("calls", "ns_per_call")),
    ("cli.sock_send", ANY, ("calls", "ns_per_call")),
)

# exact counts taken by the wrappers, and the role summed over
COUNT_METRICS = (
    ("crypto.aead_open.failed", RECV),
    ("stream_buf.drain_stash.bytes", RECV),
    ("stream_buf.stash.bytes", RECV),
    ("stream_buf.ensure_room.grows", RECV),
    ("stream_buf.ensure_room.bytes_moved", RECV),
    ("stream_buf.spare_materialized", RECV),
    ("cli.sock_recv.timeouts", ANY),
)

# counts reported per traced operation rather than summed over the run,
# whose number of operations depends on the host's speed; the cli counts
# are per loopback transfer
CLI_COUNTS = frozenset(["cli.sock_recv.calls", "cli.sock_send.calls", "cli.sock_recv.timeouts"])
PER_OPERATION = frozenset(
    [f"{span}.calls" for span, _, stats in SPAN_METRICS if "calls" in stats]
    + [name for name, _ in COUNT_METRICS]
    + ["endpoint.retransmissions", "endpoint.spurious_packets",
       "endpoint.decrypt_failures", "endpoint.control_only_packets"]
) - CLI_COUNTS


class _AeadProxy:
    """Times the AEAD calls the receive and send paths make inline."""

    def __init__(self, real, tracer: "Tracer") -> None:
        self._real = real
        self.encrypt = tracer.span("crypto.aead_seal", real.encrypt)
        self.decrypt = tracer.span("crypto.aead_open", tracer.counting_failures(real.decrypt))
        if hasattr(real, "encrypt_into"):
            self.encrypt_into = tracer.span("crypto.aead_seal", real.encrypt_into)
            self.decrypt_into = tracer.span("crypto.aead_open", tracer.counting_failures(real.decrypt_into))

    def __getattr__(self, name):
        return getattr(self._real, name)


class _HpProxy:
    def __init__(self, real, tracer: "Tracer") -> None:
        self._real = real
        self.update = tracer.span("crypto.hp_mask", real.update)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [id, child ns, role, group]
        self.stats: dict[tuple, list[int]] = {}  # (name, role, mode) -> calls, ns, self ns
        self.counts: dict[tuple, int] = {}  # (name, role, mode) -> count
        self.spans: list[tuple] = []
        self.next_id = 0
        self.mode: str | None = None
        self.request: int | None = None
        self.conns: list[Connection] = []
        self.conn_totals: dict[tuple, int] = {}  # (field, role, mode) -> sum
        self.delivered: dict[str, int] = {}
        self.pipe_depth: dict[str, int] = {}
        self.missing: set[str] = set()

    # --- recording ---

    def span(self, name: str, fn, conn_method: bool = False):
        stack, stats, spans = self.stack, self.stats, self.spans
        perf = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            if stack:
                parent, _, role, group = stack[-1]
            else:
                parent, role = -1, None
                group = sid if tracer.request is None else tracer.request
            if conn_method:
                role = args[0].role.value
            frame = [sid, 0, role, group]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = (name, role, tracer.mode)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, t0, t1, group))

        return traced

    def record(self, name: str, ns: int) -> None:
        """A timed call with no span of its own."""
        st = self.stats.setdefault((name, None, self.mode), [0, 0, 0])
        st[0] += 1
        st[1] += ns
        st[2] += ns

    def count(self, name: str, n: int = 1) -> None:
        key = (name, self.stack[-1][2] if self.stack else None, self.mode)
        self.counts[key] = self.counts.get(key, 0) + n

    def counting_failures(self, decrypt):
        def checked(*args):
            try:
                return decrypt(*args)
            except InvalidTag:
                self.count("crypto.aead_open.failed")
                raise

        return checked

    # --- installation ---

    def _patch(self, stack: ExitStack, owner, attr: str, make) -> None:
        """Wrap owner.attr; a name the program no longer has is reported
        under not_found and its metrics read 0."""
        real = getattr(owner, attr, None)
        if real is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        stack.enter_context(wl.patched(owner, attr, make(real)))

    @contextmanager
    def active(self, mode):
        """Trace one operation run in the given mode."""
        self.mode = mode.value
        with ExitStack() as es:
            def conn(attr, name):
                self._patch(es, Connection, attr, lambda f: self.span(name, f, conn_method=True))

            def module(owner, attr, name):
                self._patch(es, owner, attr, lambda f: self.span(name, f))

            def derive_keys(real):
                timed = self.span("crypto.derive_keys", real)

                def derive(*args, **kwargs):
                    ks = timed(*args, **kwargs)
                    object.__setattr__(ks, "_aead", _AeadProxy(ks._aead, self))
                    object.__setattr__(ks, "_hp", _HpProxy(ks._hp, self))
                    return ks

                return derive

            def registering(real):
                def init(conn_self, *args, **kwargs):
                    real(conn_self, *args, **kwargs)
                    self.conns.append(conn_self)

                return init

            def slow_path(real):
                def process(conn_self, *args, **kwargs):
                    self.count("endpoint.process_plaintext")
                    return real(conn_self, *args, **kwargs)

                return process

            def ensure_room(real):
                def grow(buf, end_index):
                    old, live = buf.storage, buf.contiguous_offset - buf.base_offset
                    n = real(buf, end_index)
                    if buf.storage is not old:
                        self.count("stream_buf.ensure_room.grows")
                        self.count("stream_buf.ensure_room.bytes_moved", live)
                    return n

                return grow

            def materialize(real):
                def spare(bufmap):
                    if bufmap.spare is None:
                        self.count("stream_buf.spare_materialized")
                    return real(bufmap)

                return spare

            def returning_bytes(name, counter):
                def make(real):
                    timed = self.span(name, real)

                    def call(*args, **kwargs):
                        n = timed(*args, **kwargs)
                        self.count(counter, n)
                        return n

                    return call

                return make

            def pipe_send(real):
                timed = self.span("harness.pipe.send", real)

                def send(pipe, datagram):
                    timed(pipe, datagram)
                    depth = len(pipe)
                    if depth > self.pipe_depth.get(self.mode, 0):
                        self.pipe_depth[self.mode] = depth

                return send

            self._patch(es, crypto, "derive_keys", derive_keys)
            module(crypto, "expand_int", "crypto.expand_int")
            module(header, "encode_header", "header.encode_header")
            module(header, "protect_header", "header.protect_header")
            for attr in ("serialize_forward", "serialize_reversed"):
                module(wire, attr, "wire.serialize")
            for attr in ("parse_forward", "parse_reversed"):
                module(wire, attr, "wire.parse")
            module(wire, "frame_wire_size", "wire.frame_wire_size")
            self._patch(es, Connection, "__init__", registering)
            conn("build_packet", "endpoint.build_packet")
            conn("_next_fragment", "endpoint.next_fragment")
            conn("recv", "endpoint.recv")
            conn("_build_ack", "endpoint.build_ack")
            conn("_on_ack", "endpoint.on_ack")
            conn("on_timeout", "endpoint.on_timeout")
            self._patch(es, Connection, "_process_plaintext", slow_path)
            module(StreamRecvBuffer, "append_in_order", "stream_buf.append_in_order")
            self._patch(es, StreamRecvBuffer, "stash_out_of_order",
                        returning_bytes("stream_buf.stash_out_of_order", "stream_buf.stash.bytes"))
            self._patch(es, StreamRecvBuffer, "_drain_stash",
                        returning_bytes("stream_buf.drain_stash", "stream_buf.drain_stash.bytes"))
            self._patch(es, StreamRecvBuffer, "ensure_room", ensure_room)
            self._patch(es, AppRecvBufMap, "_materialize_spare", materialize)

            def grouped(real):
                """Spans of one rpc request share its index as their group."""
                requests = itertools.count()

                def exchange(pair, *args, **kwargs):
                    self.request = next(requests)
                    try:
                        return real(pair, *args, **kwargs)
                    finally:
                        self.request = None

                return exchange

            pipe = getattr(harness, "_Pipe", None)
            self._patch(es, pipe, "send", pipe_send)
            module(pipe, "ready", "harness.pipe.ready")
            self._patch(es, wl.RpcPair, "exchange", grouped)
            try:
                yield self
            finally:
                self.fold()

    def fold(self) -> None:
        """Add the traced connections' Metrics into the totals."""
        for c in self.conns:
            m = c.metrics()
            for name, value in vars(m).items():
                key = (name, c.role.value, self.mode)
                self.conn_totals[key] = self.conn_totals.get(key, 0) + value
        self.conns.clear()

    # --- results ---

    def _stat(self, name, role, mode) -> list[int]:
        tot = [0, 0, 0]
        for (n, r, m), st in self.stats.items():
            if n == name and m == mode and (role is None or r == role):
                for i in range(3):
                    tot[i] += st[i]
        return tot

    def _count(self, name, role, mode) -> int:
        return sum(v for (n, r, m), v in self.counts.items()
                   if n == name and m == mode and (role is None or r == role))

    def metrics(self, mode: str) -> dict:
        out = {}
        for name, role, stats in SPAN_METRICS:
            calls, ns, self_ns = self._stat(name, role, mode)
            figures = {
                "calls": calls,
                "ns_per_call": ns / calls if calls else 0.0,
                "self_ns_per_call": self_ns / calls if calls else 0.0,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = figures[stat]
        for name, role in COUNT_METRICS:
            out[name] = self._count(name, role, mode)

        def rx(field):
            return self.conn_totals.get((field, RECV, mode), 0)

        def tx(field):
            return self.conn_totals.get((field, SEND, mode), 0)

        delivered = self.delivered.get(mode, 0)
        recv_calls = out["endpoint.recv.calls"]
        data_packets = rx("packets_in_order") + rx("packets_out_of_order") + rx("packets_spurious")
        send = self._stat("harness.pipe.send", ANY, mode)
        ready = self._stat("harness.pipe.ready", ANY, mode)
        out.update({
            "endpoint.recv.slow_share":
                self._count("endpoint.process_plaintext", RECV, mode) / recv_calls if recv_calls else 0.0,
            "endpoint.retransmissions": tx("retransmissions"),
            "endpoint.spurious_packets": rx("packets_spurious"),
            "endpoint.decrypt_failures": rx("decrypt_failures"),
            "endpoint.control_only_packets": rx("packets_control_only"),
            "endpoint.ordered_ratio": rx("packets_in_order") / data_packets if data_packets else 0.0,
            "endpoint.wire_efficiency": delivered / tx("bytes_sent") if tx("bytes_sent") else 0.0,
            "endpoint.copied_per_byte": rx("payload_bytes_copied") / delivered if delivered else 0.0,
            "endpoint.zero_copy_per_byte": rx("payload_bytes_zero_copy") / delivered if delivered else 0.0,
            "harness.pipe.ns_per_datagram": (send[1] + ready[1]) / send[0] if send[0] else 0.0,
            "harness.pipe.max_depth": self.pipe_depth.get(mode, 0),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns", "group"],
                                "spans": len(self.spans), "ids": self.next_id}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def traced_socket(tracer: Tracer):
    """A socket class for cli's receiver. recvfrom and sendto are timed
    from the first datagram on (before it the receiver only waits for
    the sender's interpreter to start); a recvfrom that times out is
    counted, not timed, and a timed recvfrom includes the wait for the
    sender's next datagram."""
    perf = time.perf_counter_ns

    class TracedSocket(socket.socket):
        started = False

        def recvfrom(self, *args):
            t0 = perf()
            try:
                got = super().recvfrom(*args)
            except TimeoutError:
                if self.started:
                    tracer.count("cli.sock_recv.timeouts")
                raise
            if self.started:
                tracer.record("cli.sock_recv", perf() - t0)
            self.started = True
            return got

        def sendto(self, *args):
            t0 = perf()
            n = super().sendto(*args)
            tracer.record("cli.sock_send", perf() - t0)
            return n

    return TracedSocket


# --- traced workloads ---


def span_cost_ns() -> float:
    """Wall time of one span around an empty call: roughly what each span
    adds to its own figure and to its parent's self time."""
    probe = Tracer()
    empty = probe.span("calibration", int)
    t0 = time.perf_counter_ns()
    for _ in range(SPAN_COST_CALLS):
        empty()
    return (time.perf_counter_ns() - t0) / SPAN_COST_CALLS


def loopback_pass(tracer: Tracer, seed: int, tally, smoke: bool) -> dict:
    """LOOPBACK_TRANSFERS real transfers per mode over 127.0.0.1, modes
    interleaved, with the receiver's socket traced; returns each mode's
    goodputs (bytes/s, the receiver's first-read-to-FIN clock)."""
    import loopback

    xfer = loopback.UdpTransfer(seed, wl.SMOKE_BYTES if smoke else wl.BULK.size)
    sockets = loopback.SocketModule(traced_socket(tracer))
    goodput = {m: [] for m in wl.MODES}
    try:
        for i in range(LOOPBACK_TRANSFERS):
            for mode in wl.MODES if i % 2 == 0 else wl.MODES[::-1]:
                tracer.mode = mode.value
                rate = xfer.run(mode, tally, (wl.patched(cli, "socket", sockets),))
                if rate is not None:
                    goodput[mode].append(rate)
    finally:
        tracer.mode = None
        xfer.close()
    return goodput


def traced_workload(workload: str, seed: int, seconds: float, tally, smoke: bool, spans_path):
    """Alternates, per mode, an untraced and a traced run of the same
    operation until the time is up (then, on bulk, runs the loopback
    pass); returns the per-layer metrics."""
    tracer = Tracer()
    op = _operation(workload, seed, tally, smoke)
    untraced = {m: [] for m in wl.MODES}
    traced = {m: [] for m in wl.MODES}
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        order = wl.MODES if rnd % 2 == 0 else wl.MODES[::-1]
        for mode in order:
            res = op(mode, rnd)
            if res is not None:
                untraced[mode].append(res[0])
            with tracer.active(mode):
                res = op(mode, rnd)
            if res is not None:
                traced[mode].append(res[0])
                tracer.delivered[mode.value] = tracer.delivered.get(mode.value, 0) + res[1]
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    loopback = {m: [] for m in wl.MODES}
    if workload == "bulk":
        loopback = loopback_pass(tracer, seed, tally, smoke)

    metrics = {}
    info = {"rounds": rnd, "spans_kept": len(tracer.spans), "spans_total": tracer.next_id,
            "span_cost_ns": span_cost_ns(), "not_found": sorted(tracer.missing)}
    for mode in wl.MODES:
        figures = tracer.metrics(mode.value)
        for name in PER_OPERATION:
            figures[name] /= max(len(traced[mode]), 1)
        for name in CLI_COUNTS:
            figures[name] /= max(len(loopback[mode]), 1)
        u, t = wl.median(untraced[mode]), wl.median(traced[mode])
        figures["trace.overhead"] = 1 - t / u if u else 0.0
        info[f"goodput_untraced_MBps.{mode.value}"] = u / 1e6
        info[f"goodput_traced_MBps.{mode.value}"] = t / 1e6
        if workload == "bulk":
            info[f"loopback.goodput_MBps.{mode.value}"] = wl.median(loopback[mode]) / 1e6
            info[f"loopback.transfers.{mode.value}"] = len(loopback[mode])
        for name, value in figures.items():
            metrics[f"{name}.{mode.value}"] = value
    tracer.write_spans(spans_path)
    return metrics, info


def _operation(workload: str, seed: int, tally, smoke: bool):
    """The workload's unit operation: op(mode, round) returns (goodput in bytes/s, stream bytes delivered), or None when a
    check failed."""
    seeds = random.Random(seed)
    if workload in ("bulk", "lossy"):
        spec = wl.transfer_spec(workload, smoke)
        round_seeds: dict[int, int] = {}

        def transfer(mode, rnd):
            s = round_seeds.setdefault(rnd, seeds.getrandbits(32))
            r = wl.checked_transfer(mode, spec, s, tally)
            return None if r is None else (r.throughput, spec.size)

        return transfer
    secret = wl.seed_secret(seed)
    msgs = wl.rpc_messages(seed, smoke)

    def rpc_batch(mode, rnd):
        _, nbytes, elapsed = wl.echo_batch(wl.RpcPair(mode, secret), msgs, tally)
        return nbytes / elapsed * 1e9, nbytes

    return rpc_batch
