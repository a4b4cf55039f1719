"""The benchmark's workloads and the end-to-end metrics they report.

Every workload runs both wire modes on inputs made from the run seed,
interleaving the modes round by round so that slow drifts of a shared
host load both alike. Every output is checked, and every check counts as
one attempted operation in a Tally.

Only the data direction is measured: the client role sends stream data
(requests, for rpc) and the server role receives it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from revquic import harness
from revquic.endpoint import MAX_DATAGRAM, Connection, Metrics, Role
from revquic.errors import TransportError
from revquic.harness import PipeConfig
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

MODES = (WireMode.BASELINE, WireMode.REVERSO)
SETUP_REPS_PER_ROUND = 32
REF_ITERATIONS = 1000
REF_NOMINAL_NS = 3_300_000  # the reference loop's time at nominal host speed
REPLAYS_PER_ROUND = 4

# How far each kind of operation follows the reference loop when the host
# changes speed: the slope of log(operation time) on log(loop time),
# measured over seven minutes in which the loop's speed swung 2.1x
# (rounded to 0.05). The loop has a small working set and swings further
# than operations that touch more memory; scaling those by the full
# factor would over-correct them whenever the host runs fast.
ELASTICITY = {
    "bulk.transfer": 0.8,
    "bulk.replay": 0.8,
    "lossy.transfer": 0.75,
    "lossy.replay": 0.7,
    "rpc.batch": 0.75,
    "rpc.replay": 1.0,
    "setup": 0.9,
}

# distinct messages; a capture and every batch of echoes send each once,
# so all batches carry the same sizes
RPC_POOL = 1024
RPC_MAX_ROUNDS = 8  # flights per exchange before an echo counts as lost
REQUEST_SID = 1
ECHO_SID = 2


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


@contextmanager
def patched(owner, name: str, value):
    """Replace an attribute of a module or class for the block's duration."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def seed_secret(seed: int) -> bytes:
    return hashlib.sha256(b"perfbench secret %d" % seed).digest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_mib(fn) -> float:
    """tracemalloc peak over one call of fn, in MiB; never a timed pass."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


class HostSpeed:
    """How fast the host runs right now, against a fixed reference loop.

    This host's speed swings up to 2x within seconds (other tenants share
    its cores and caches), which no amount of medians inside a 30-second
    run removes. So every measured operation is bracketed by a fixed loop
    of the kinds of work the workloads do (small Python objects and
    dicts, AES-GCM over 1350 B, buffer copies), none of it revquic code,
    and the operation's timings are scaled by factor = REF_NOMINAL_NS /
    loop time, averaged over the loops on either side, raised to the
    operation's ELASTICITY: times are multiplied by it and rates divided,
    giving figures at the nominal host speed. The raw timings are kept
    too (see Samples).

    The loop after an operation runs in the heap and cache state that
    operation left, so a change to revquic could move it. info() reports
    two checks per labelled operation kind: the median factor of the loops
    run right after it (the modes interleave, so a gap between the modes'
    figures is what their leftovers do to the loop), and the correlation
    of loop time with the operation's own time.
    """

    def __init__(self) -> None:
        self._aead = AESGCM(bytes(32))
        self._buf = bytearray(1 << 16)
        self._last: float | None = None
        self.factors: list[float] = []
        self.checks: dict[str, list[tuple]] = {}  # label -> (factor, after, op ns)

    def _sample(self) -> float:
        aead, buf, blob, nonce = self._aead, self._buf, bytes(1350), bytes(12)
        t0 = time.perf_counter_ns()
        acc, table = 0, {}
        for i in range(REF_ITERATIONS):
            item = _RefItem(i, i * 7)
            acc += item.a ^ item.b
            table[i & 255] = acc
            aead.encrypt(nonce, blob, b"")
            pos = (i * 1350) % 60000
            buf[pos : pos + 1350] = blob
        factor = REF_NOMINAL_NS / (time.perf_counter_ns() - t0)
        self.factors.append(factor)
        return factor

    @contextmanager
    def bracket(self, label: str | None = None):
        """Runs the loop after the block (and before it, unless the
        previous block's loop just ran); the yielded object's factor is
        set when the block ends."""
        b = _Bracket()
        before = self._last if self._last is not None else self._sample()
        t0 = time.perf_counter_ns()
        yield b
        op_ns = time.perf_counter_ns() - t0
        self._last = self._sample()
        b.factor = (before + self._last) / 2
        if label is not None:
            self.checks.setdefault(label, []).append((b.factor, self._last, op_ns))

    def info(self) -> dict:
        f = sorted(self.factors)
        out = {"host_speed.median": median(f), "host_speed.min": f[0], "host_speed.max": f[-1]}
        for label, rows in sorted(self.checks.items()):
            out[f"host_speed.after.{label}"] = median([after for _, after, _ in rows])
            loop_ns = [REF_NOMINAL_NS / factor for factor, _, _ in rows]
            try:
                corr = statistics.correlation(loop_ns, [op for _, _, op in rows])
            except statistics.StatisticsError:  # fewer than two rows, or a constant
                corr = None
            out[f"host_speed.corr_loop_op.{label}"] = corr
        return out


class _Bracket:
    factor = 1.0


class _RefItem:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


class Samples:
    """Measurements in host time of one kind of operation, each kept with
    the host-speed factor of the bracket it was taken in; a value may be a
    list of durations."""

    def __init__(self, kind: str) -> None:
        self.elasticity = ELASTICITY[kind]
        self.raw: list = []
        self.factors: list[float] = []

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, value, factor: float) -> None:
        self.raw.append(value)
        self.factors.append(factor)

    def times(self) -> list:
        """Durations at nominal host speed."""
        e = self.elasticity
        return [_scaled(v, f**e) for v, f in zip(self.raw, self.factors)]

    def rates(self) -> list[float]:
        """Rates at nominal host speed."""
        e = self.elasticity
        return [v / f**e for v, f in zip(self.raw, self.factors)]


def _scaled(value, factor: float):
    if isinstance(value, list):
        return [x * factor for x in value]
    return value * factor


class SetupClock:
    """Time to build a ready connection pair: key derivation for both
    directions in each of two Connections, plus two AppRecvBufMaps (each
    allocates its 1 MiB spare). Sampled a few set-ups per round, so that
    the median spans the whole run; freeing happens off the clock."""

    def __init__(self, secret: bytes) -> None:
        self.secret = secret
        self.times = Samples("setup")

    def sample(self, speed: HostSpeed) -> None:
        times = []
        with speed.bracket("setup") as b:
            for i in range(SETUP_REPS_PER_ROUND):
                mode = MODES[i % 2]
                t0 = time.perf_counter()
                pair = (
                    Connection(mode, Role.CLIENT, self.secret),
                    Connection(mode, Role.SERVER, self.secret),
                    AppRecvBufMap(),
                    AppRecvBufMap(),
                )
                times.append(time.perf_counter() - t0)
                del pair
        for t in times:
            self.times.add(t, b.factor)


# --- capture and replay of the receiver's datagrams ---


_COUNTERS = tuple(f.name for f in fields(Metrics) if f.name != "bytes_sent")


def counters(m: Metrics) -> dict:
    """Receive-side counters; bytes_sent is left out because it counts
    the receiver's own acks, which depend on when it sends, not on what
    it received."""
    return {name: getattr(m, name) for name in _COUNTERS}


@dataclass
class Capture:
    """The datagrams one receiver got, in arrival order, split at the
    points where the application drained its streams."""

    mode: WireMode
    keys: tuple
    segments: list[list[bytes]]
    expected: dict[int, bytes]  # stream id -> sha256 of the bytes sent
    counters: dict

    @property
    def nbytes(self) -> int:
        return sum(len(d) for seg in self.segments for d in seg)


class Replay:
    """Replays a Capture into fresh receivers, timing Connection.recv alone.

    Pristine bytes are restored before each repetition (recv unmasks the
    header in place), and the streams are drained between the timed
    segments exactly where the captured application drained them. A
    replay passes when it delivers the captured bytes and reproduces the
    captured receive counters.
    """

    def __init__(self, cap: Capture) -> None:
        self.cap = cap
        self.work = [[bytearray(d) for d in seg] for seg in cap.segments]

    def run(self) -> tuple[int, str | None]:
        cap = self.cap
        for seg, pristine in zip(self.work, cap.segments):
            for w, p in zip(seg, pristine):
                w[:] = p
        conn = Connection(cap.mode, Role.SERVER, bytes(32), keys=cap.keys)
        appbuf = AppRecvBufMap()
        hashes: dict[int, "hashlib._Hash"] = {}
        perf = time.perf_counter_ns
        ns = 0
        try:
            for seg in self.work:
                t0 = perf()
                for w in seg:
                    conn.recv(w, appbuf)
                ns += perf() - t0
                for sid in conn.readable():
                    view, _ = conn.stream_recv(sid, appbuf)
                    hashes.setdefault(sid, hashlib.sha256()).update(view)
                    conn.stream_consumed(sid, len(view), appbuf)
        except TransportError as exc:
            return ns, f"{cap.mode.value} replay raised {exc!r}"
        got = {sid: h.digest() for sid, h in hashes.items()}
        if got != cap.expected:
            return ns, f"{cap.mode.value} replay delivered other bytes than were sent"
        if counters(conn.metrics()) != cap.counters:
            return ns, f"{cap.mode.value} replay counters differ from the capture"
        return ns, None

    def calibrate(self) -> int:
        """The timed loop's skeleton with no receiver work."""
        perf = time.perf_counter_ns
        ns = 0
        for seg in self.work:
            t0 = perf()
            for w in seg:
                pass
            ns += perf() - t0
        return ns


@contextmanager
def capturing(segments: list, receivers: list):
    """Record what every server-role Connection receives, splitting the
    record each time the application asks which streams are readable."""
    real_recv, real_readable = Connection.recv, Connection.readable

    def recv(conn, datagram, appbuf):
        if conn.role is Role.SERVER:
            if not receivers:
                receivers.append(conn)
            segments[-1].append(bytes(datagram))
        return real_recv(conn, datagram, appbuf)

    def readable(conn):
        if conn.role is Role.SERVER and segments[-1]:
            segments.append([])
        return real_readable(conn)

    with patched(Connection, "recv", recv), patched(Connection, "readable", readable):
        yield
    if not segments[-1]:
        segments.pop()


def make_capture(mode, segments, receivers, expected) -> Capture:
    rx = receivers[0]
    return Capture(mode, (rx.send_keys, rx.recv_keys), segments, expected, counters(rx.metrics()))


def replay_figures(replays: dict, recv_ns: dict) -> tuple[dict, dict]:
    """replays maps each mode to its list of Replays; one repetition
    replays them all."""
    metrics, info = {}, {}
    for mode, rps in replays.items():
        nbytes = sum(rp.cap.nbytes for rp in rps)
        med, raw = median(recv_ns[mode].times()), median(recv_ns[mode].raw)
        metrics[f"recv_MBps.{mode.value}"] = nbytes / med * 1e3 if med else 0.0
        info[f"recv.raw_MBps.{mode.value}"] = nbytes / raw * 1e3 if raw else 0.0
        info[f"recv.samples.{mode.value}"] = len(recv_ns[mode])
        info[f"recv.datagrams.{mode.value}"] = sum(len(s) for rp in rps for s in rp.cap.segments)
        info[f"recv.calibration_ns.{mode.value}"] = sum(rp.calibrate() for rp in rps)
        info[f"recv.raw_median_ns.{mode.value}"] = raw
    return metrics, info


def run_replays(replays: dict, order, tally: Tally, recv_ns: dict, speed: HostSpeed) -> None:
    """One repetition per mode, in the given order; recv_ns maps each
    mode to the Samples of its repetitions' recv time."""
    for mode in order:
        with speed.bracket(f"replay.{mode.value}") as b:
            runs = [rp.run() for rp in replays[mode]]
        if all([tally.record(problem is None, problem or "") for _, problem in runs]):
            recv_ns[mode].add(sum(ns for ns, _ in runs), b.factor)


# --- bulk and lossy: whole transfers through the in-process pipe ---


@dataclass(frozen=True)
class TransferSpec:
    name: str
    size: int
    streams: int
    reorder: float = 0.0
    loss: float = 0.0
    dup: float = 0.0
    captures: int = 1  # transfers replayed per recv_MBps repetition
    clocked: int = 1  # round-trip clocked transfers per round and mode

    def pipe(self, seed: int) -> PipeConfig:
        return PipeConfig(
            seed=seed,
            reorder_prob=self.reorder,
            reorder_depth=3,
            loss_prob=self.loss,
            duplicate_prob=self.dup,
        )


BULK = TransferSpec("bulk", size=4 << 20, streams=1)
# every pipe seed gives lossy another packet mix and another round-trip
# tail, so its replay spans three captured transfers and each round clocks
# two transfers with seeds of their own
LOSSY = TransferSpec("lossy", size=4 << 20, streams=8, reorder=0.1, loss=0.02, dup=0.01, captures=3, clocked=2)
SMOKE_BYTES = 64 << 10  # transfer size of the benchmark's own test
SMOKE_REQUESTS = 20


def transfer_spec(workload: str, smoke: bool) -> TransferSpec:
    spec = BULK if workload == "bulk" else LOSSY
    return replace(spec, size=SMOKE_BYTES) if smoke else spec


def checked_transfer(mode: WireMode, spec: TransferSpec, seed: int, tally: Tally):
    """One run_transfer, which checks every stream's SHA-256 itself; adds
    the byte-conservation check. Returns the report, or None on failure."""
    try:
        r = harness.run_transfer(mode, spec.size, spec.streams, spec.pipe(seed))
    except (AssertionError, TransportError) as exc:
        tally.record(False, f"{mode.value} transfer seed {seed}: {exc}")
        return None
    moved = r.payload_bytes_copied + r.payload_bytes_zero_copy
    ok = r.bytes_transferred == spec.size and moved == spec.size
    tally.record(ok, f"{mode.value} transfer seed {seed}: copied + zero_copy = {moved}, delivered {r.bytes_transferred}")
    return r if ok else None


def capture_transfer(mode: WireMode, spec: TransferSpec, seed: int, tally: Tally) -> Capture | None:
    segments: list[list[bytes]] = [[]]
    receivers: list[Connection] = []
    sent: dict[int, "hashlib._Hash"] = {}
    real_send = Connection.stream_send

    def stream_send(conn, sid, data, fin=False):
        if conn.role is Role.CLIENT:
            sent.setdefault(sid, hashlib.sha256()).update(data)
        return real_send(conn, sid, data, fin)

    with patched(Connection, "stream_send", stream_send), capturing(segments, receivers):
        report = checked_transfer(mode, spec, seed, tally)
    if report is None:
        return None
    return make_capture(mode, segments, receivers, {s: h.digest() for s, h in sent.items()})


@contextmanager
def ack_clock():
    """Packet-to-ack round trip on the data sender: from build_packet
    returning a packet that carries stream data to the recv call that
    retires that packet number from the sender's in-flight map. Packets
    retired by a timeout give no sample; their retransmissions do.
    Yields the list the samples (ns) go to."""
    sent: dict[int, int] = {}
    samples: list[int] = []
    perf = time.perf_counter_ns
    real_build, real_recv = Connection.build_packet, Connection.recv

    def build_packet(conn, out, now=None):
        n = real_build(conn, out, now)
        if n is not None and conn.role is Role.CLIENT:
            pn = conn.next_pn - 1
            if pn in conn.unacked:
                sent[pn] = perf()
        return n

    def recv(conn, datagram, appbuf):
        if conn.role is not Role.CLIENT:
            return real_recv(conn, datagram, appbuf)
        before = list(conn.unacked)
        n = real_recv(conn, datagram, appbuf)
        t = perf()
        unacked = conn.unacked
        for pn in before:
            if pn not in unacked:
                t0 = sent.pop(pn, None)
                if t0 is not None:
                    samples.append(t - t0)
        return n

    with patched(Connection, "build_packet", build_packet), patched(Connection, "recv", recv):
        yield samples


def _rtt_us(ops: list[list]) -> tuple[float, float]:
    """p50 over all samples; p99 as the median over operations of each
    operation's p99, because the slow 1 % of a transfer's packets sit in
    particular parts of it (its losses, its last window), which a pooled
    or block-wise p99 catches or misses by chance."""
    pooled = [x for op in ops for x in op]
    return quantile(pooled, 50) / 1e3, median([quantile(op, 99) for op in ops if op]) / 1e3


def rtt_figures(rtts: dict) -> tuple[dict, dict]:
    """rtts maps each mode to Samples whose values are the round trips
    (ns) of one operation: a transfer, or a batch of echoes."""
    metrics, info = {}, {}
    for mode, ops in rtts.items():
        m = mode.value
        metrics[f"rtt_p50_us.{m}"], metrics[f"rtt_p99_us.{m}"] = _rtt_us(ops.times())
        info[f"rtt.raw_p50_us.{m}"], info[f"rtt.raw_p99_us.{m}"] = _rtt_us(ops.raw)
        info[f"rtt.samples.{m}"] = sum(len(op) for op in ops.raw)
        info[f"rtt.operations.{m}"] = len(ops)
    return metrics, info


def end_to_end(setup: SetupClock, goodput: dict, replays: dict, recv_ns: dict, rtts: dict,
               speed: HostSpeed, **info) -> tuple[dict, dict]:
    """The figures every workload reports, scaled to nominal host speed,
    with the raw medians beside them in info; goodput holds bytes/s."""
    metrics = {"setup_s": median(setup.times.times())}
    info.update({"setup.samples": len(setup.times), "setup.raw_s": median(setup.times.raw),
                 **speed.info()})
    for mode in MODES:
        metrics[f"goodput_MBps.{mode.value}"] = median(goodput[mode].rates()) / 1e6
        info[f"goodput.raw_MBps.{mode.value}"] = median(goodput[mode].raw) / 1e6
        info[f"goodput.samples.{mode.value}"] = len(goodput[mode])
    for figures in (replay_figures(replays, recv_ns), rtt_figures(rtts)):
        metrics.update(figures[0])
        info.update(figures[1])
    return metrics, info


def transfer_workload(spec: TransferSpec, seed: int, seconds: float, tally: Tally):
    seeds = random.Random(seed)
    capture_seeds = [seeds.getrandbits(32) for _ in range(spec.captures)]
    replays = {}
    for mode in MODES:
        caps = [capture_transfer(mode, spec, s, tally) for s in capture_seeds]
        if None not in caps:
            replays[mode] = [Replay(cap) for cap in caps]
    # the peak follows the loss pattern, so it is the median over the
    # captured transfers' seeds
    peaks = {
        f"peak_mem_MiB.{m.value}": median(
            [peak_mib(lambda: checked_transfer(m, spec, s, tally)) for s in capture_seeds])
        for m in MODES
    }
    if len(replays) < len(MODES):
        return peaks, {}

    goodput, rtts = ({m: Samples(f"{spec.name}.transfer") for m in MODES} for _ in range(2))
    recv_ns = {m: Samples(f"{spec.name}.replay") for m in MODES}
    setup = SetupClock(seed_secret(seed))
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        order = MODES if rnd % 2 == 0 else MODES[::-1]
        setup.sample(speed)
        s, *clocked_seeds = (seeds.getrandbits(32) for _ in range(1 + spec.clocked))
        for mode in order:
            with speed.bracket(f"transfer.{mode.value}") as b:
                r = checked_transfer(mode, spec, s, tally)
            if r is not None:
                goodput[mode].add(r.throughput, b.factor)
            # the round-trip clock costs about 5 % of goodput, so it runs
            # on transfers of its own
            for cs in clocked_seeds:
                with speed.bracket() as b, ack_clock() as samples:
                    checked_transfer(mode, spec, cs, tally)
                rtts[mode].add(samples, b.factor)
        for _ in range(max(1, REPLAYS_PER_ROUND // spec.captures)):
            run_replays(replays, order, tally, recv_ns, speed)
        rnd += 1
        if time.perf_counter() >= deadline:
            break

    metrics, info = end_to_end(setup, goodput, replays, recv_ns, rtts, speed, rounds=rnd,
                               transfer_bytes=spec.size, streams=spec.streams)
    metrics.update(peaks)
    return metrics, info


# --- rpc: closed-loop echo, one request outstanding ---


def rpc_messages(seed: int, smoke: bool) -> list[bytes]:
    """RPC_POOL messages of 1 B to 1 KiB, spread log-uniformly so that
    most are small (the first SMOKE_REQUESTS of them with smoke). Every
    seed gets the same sizes in its own order and with its own bytes, so
    seeds differ in content, not in mean message size."""
    rng = random.Random(seed)
    sizes = [round(2 ** (10 * i / (RPC_POOL - 1))) for i in range(RPC_POOL)]
    rng.shuffle(sizes)
    msgs = [rng.randbytes(n) for n in sizes]
    return msgs[:SMOKE_REQUESTS] if smoke else msgs


class RpcPair:
    """A client and a server over a perfect in-order wire. The client
    sends each request on one long-lived stream; the server echoes what
    it reads on another."""

    def __init__(self, mode: WireMode, secret: bytes) -> None:
        self.client = Connection(mode, Role.CLIENT, secret)
        self.server = Connection(mode, Role.SERVER, secret)
        self.cbuf = AppRecvBufMap()
        self.sbuf = AppRecvBufMap()
        self.out = bytearray(MAX_DATAGRAM)
        self.sent = 0  # request bytes handed to the client

    def conserved(self) -> bool:
        """Byte conservation in both directions: every request byte, and
        every echoed byte, was either copied or committed in place."""
        sm, cm = self.server.metrics(), self.client.metrics()
        return (sm.payload_bytes_copied + sm.payload_bytes_zero_copy
                == self.sent
                == cm.payload_bytes_copied + cm.payload_bytes_zero_copy)

    def exchange(self, msg: bytes, capture: list | None = None) -> bytearray | None:
        """Send msg, echo it, and return what came back, or None when an
        endpoint raised. capture, if given, collects the server's
        received datagrams, one segment per flight."""
        try:
            return self._exchange(msg, capture)
        except TransportError:
            return None

    def _exchange(self, msg, capture):
        c, s, out, sbuf, cbuf = self.client, self.server, self.out, self.sbuf, self.cbuf
        c.stream_send(REQUEST_SID, msg)
        self.sent += len(msg)
        got = bytearray()
        for _ in range(RPC_MAX_ROUNDS):
            seg = []
            while (n := c.build_packet(out, 0.0)) is not None:
                d = out[:n]
                if capture is not None:
                    seg.append(bytes(d))
                s.recv(d, sbuf)
            if capture is not None and seg:
                capture.append(seg)
            for sid in s.readable():
                view, _ = s.stream_recv(sid, sbuf)
                s.stream_send(ECHO_SID, view)
                s.stream_consumed(sid, len(view), sbuf)
            while (n := s.build_packet(out, 0.0)) is not None:
                c.recv(out[:n], cbuf)
            for sid in c.readable():
                view, _ = c.stream_recv(sid, cbuf)
                got += view
                c.stream_consumed(sid, len(view), cbuf)
            if len(got) >= len(msg):
                break
        return got


def echo_batch(pair: RpcPair, msgs: list[bytes], tally: Tally, capture: list | None = None):
    """Sends every message through pair in turn, checks each echo byte
    for byte and then the pair's byte conservation. Returns the round
    trip of every good echo (ns), the bytes echoed and the batch's ns."""
    mode = pair.client.mode.value
    perf = time.perf_counter_ns
    samples, nbytes = [], 0
    tb = perf()
    for i, msg in enumerate(msgs):
        t0 = perf()
        got = pair.exchange(msg, capture)
        t1 = perf()
        if tally.record(got == msg, f"{mode} rpc request {i}: wrong echo"):
            samples.append(t1 - t0)
            nbytes += len(msg)
    elapsed = perf() - tb
    tally.record(pair.conserved(), f"{mode} rpc batch: copied + zero_copy != bytes sent")
    return samples, nbytes, elapsed


def rpc_workload(seed: int, seconds: float, tally: Tally, smoke: bool):
    secret = seed_secret(seed)
    msgs = rpc_messages(seed, smoke)
    sent = {REQUEST_SID: hashlib.sha256(b"".join(msgs)).digest()}
    replays = {}
    for mode in MODES:
        segments: list[list[bytes]] = []
        pair = RpcPair(mode, secret)
        echo_batch(pair, msgs, tally, segments)
        srv = pair.server
        replays[mode] = [Replay(Capture(
            mode, (srv.send_keys, srv.recv_keys), segments, sent, counters(srv.metrics()),
        ))]
    peaks = {
        f"peak_mem_MiB.{m.value}": peak_mib(lambda: echo_batch(RpcPair(m, secret), msgs, tally))
        for m in MODES
    }

    pairs = {m: RpcPair(m, secret) for m in MODES}
    goodput, rtts = ({m: Samples("rpc.batch") for m in MODES} for _ in range(2))
    recv_ns = {m: Samples("rpc.replay") for m in MODES}
    setup = SetupClock(secret)
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        order = MODES if rnd % 2 == 0 else MODES[::-1]
        setup.sample(speed)
        for mode in order:
            with speed.bracket(f"batch.{mode.value}") as b:
                samples, nbytes, elapsed = echo_batch(pairs[mode], msgs, tally)
            rtts[mode].add(samples, b.factor)
            goodput[mode].add(nbytes / elapsed * 1e9, b.factor)
        run_replays(replays, order, tally, recv_ns, speed)
        rnd += 1
        if time.perf_counter() >= deadline:
            break

    metrics, info = end_to_end(setup, goodput, replays, recv_ns, rtts, speed, rounds=rnd,
                               batch=len(msgs))
    metrics.update(peaks)
    return metrics, info
