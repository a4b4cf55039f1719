"""Deterministic in-process pipe simulator and benchmark driver.

The simulator runs a sender and receiver connection pair over a pipe
that can reorder, drop, and duplicate datagrams under a seeded RNG, on
a virtual clock, so every run with the same configuration produces the
same TransferReport (wall time aside). The benchmark driver isolates
the receiver: datagrams are built and sealed once, then each repetition
restores their pristine bytes and times only the receive loop plus the
application drain.

Timing on a shared machine is noisy, so mode comparisons interleave
repetitions (baseline, reversed, baseline, ...) and the reported p5/p95
are a seeded bootstrap confidence interval of the median rather than raw
sample quantiles.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .crypto import derive_keys
from .endpoint import DEFAULT_RTO, MAX_DATAGRAM, Connection, Role
from .mode import WireMode
from .stream_buf import DEFAULT_CAPACITY, AppRecvBufMap

TICK = 0.001  # virtual seconds per simulator step
STALL_LIMIT = 600.0  # virtual seconds before a stuck transfer aborts

_HARNESS_SECRET = hashlib.sha256(b"in-process pipe harness").digest()
_BOOTSTRAP_SEED = 0x5EED
_BATCH_SEED = 0xBE7C  # the bench batch's content
_BOOTSTRAP_ROUNDS = 2000


@dataclass
class PipeConfig:
    seed: int = 0
    reorder_prob: float = 0.0
    reorder_depth: int = 3
    loss_prob: float = 0.0
    duplicate_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reorder_prob", "loss_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.reorder_depth < 1:
            raise ValueError("reorder_depth must be >= 1")


@dataclass
class TransferReport:
    """One simulated transfer; simulate's CSV prints it as a row, one
    column per field, in field order, a field with digits in its
    metadata rounded to that many."""

    mode: str
    bytes_transferred: int
    wall_time: float = field(metadata={"digits": 6})
    throughput: float = field(metadata={"digits": 1})  # bytes per second, wall clock
    payload_bytes_copied: int
    payload_bytes_zero_copy: int
    ordered_ratio: float = field(metadata={"digits": 6})
    decrypt_failures: int
    retransmissions: int
    bytes_moved: int  # the receiver's storage growth copies, beside the meter
    allocations: int  # the receiver's storage buffers created and grown


@dataclass
class BatchResult:
    mode: str
    scenario: str
    bytes_per_rep: int
    reps: int
    median_ns: float
    p5_ns: float
    p95_ns: float
    throughput_mbps: float
    copied_bytes: int
    zero_copy_bytes: int
    times_ns: list[int] = field(repr=False, default_factory=list)
    round_medians: list[float] = field(repr=False, default_factory=list)  # see bootstrap_medians


class _Pipe:
    """Hold-and-release datagram pipe.

    Every datagram gets a sequence number; a reordered datagram's
    release is deferred past up to reorder_depth later sends, which maps
    displacement directly onto the receiver's ordered-packet ratio.
    """

    def __init__(self, cfg: PipeConfig, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng
        self.seq = 0
        self._tie = 0
        self._heap: list[tuple[int, int, bytearray]] = []

    def send(self, datagram: bytearray) -> None:
        """Take ownership of datagram; a duplicate gets its own copy,
        because the receiver overwrites each datagram in place."""
        self.seq += 1
        if self.rng.random() < self.cfg.loss_prob:
            return
        due = self.seq
        if self.rng.random() < self.cfg.reorder_prob:
            due += self.rng.randint(1, self.cfg.reorder_depth)
        self._push(due, datagram)
        if self.rng.random() < self.cfg.duplicate_prob:
            self._push(due + self.rng.randint(1, self.cfg.reorder_depth), bytearray(datagram))

    def _push(self, due: int, datagram: bytearray) -> None:
        self._tie += 1
        heappush(self._heap, (due, self._tie, datagram))

    def ready(self, flush: bool = False) -> list[bytearray]:
        """Datagrams whose release point has passed; flush releases all
        held datagrams (used when the sender goes idle so nothing
        strands in the pipe)."""
        horizon = self.seq if not flush else 1 << 62
        out = []
        while self._heap and self._heap[0][0] <= horizon:
            out.append(heappop(self._heap)[2])
        return out

    def __len__(self) -> int:
        return len(self._heap)


def run_transfer(
    mode: WireMode,
    transfer_size: int,
    n_streams: int = 1,
    pipe: PipeConfig | None = None,
) -> TransferReport:
    """Drive a complete transfer through the simulated pipe.

    Deterministic given the pipe seed; verifies stream content against
    the sender's input with a running checksum before reporting.
    """
    if pipe is None:
        pipe = PipeConfig()
    if n_streams < 1:
        raise ValueError("need at least one stream")
    rng = random.Random(pipe.seed)
    content_rng = random.Random(pipe.seed ^ 0xC0FFEE)

    sender = Connection(mode, Role.CLIENT, _HARNESS_SECRET)
    receiver = Connection(mode, Role.SERVER, _HARNESS_SECRET)
    appbuf = AppRecvBufMap()
    sender_appbuf = AppRecvBufMap(default_capacity=4096)

    per_stream = transfer_size // n_streams
    sent_hash: dict[int, "hashlib._Hash"] = {}
    recv_hash: dict[int, "hashlib._Hash"] = {}
    sizes: dict[int, int] = {}
    for i in range(n_streams):
        sid = i + 1
        size = per_stream + (transfer_size - per_stream * n_streams if i == 0 else 0)
        data = content_rng.randbytes(size)
        sender.stream_send(sid, data, fin=True)
        sent_hash[sid] = hashlib.sha256(data)
        recv_hash[sid] = hashlib.sha256()
        sizes[sid] = size

    data_pipe = _Pipe(pipe, rng)
    ack_pipe = _Pipe(pipe, rng)
    out = bytearray(MAX_DATAGRAM)
    consumed: dict[int, int] = {sid: 0 for sid in sizes}
    start = time.perf_counter()
    t = 0.0

    def receiver_done() -> bool:
        return all(consumed[sid] == sizes[sid] for sid in sizes)

    while True:
        # only the sender retransmits: the receiver sends acks alone,
        # and they never enter unacked
        sender.on_timeout(t)
        active = False
        # one copy per datagram handed over: the slice of out
        while (n := sender.build_packet(out, now=t)) is not None:
            data_pipe.send(out[:n])
            active = True
        sender_idle = not active
        for dgram in data_pipe.ready(flush=sender_idle):
            receiver.recv(dgram, appbuf)
            active = True
        while (n := receiver.build_packet(out, now=t)) is not None:
            ack_pipe.send(out[:n])
            active = True
        for dgram in ack_pipe.ready(flush=True):
            sender.recv(dgram, sender_appbuf)
            active = True
        for sid in receiver.readable():
            view, _fin = receiver.stream_recv(sid, appbuf)
            recv_hash[sid].update(view)
            consumed[sid] += len(view)
            # a fin alone reads empty; its consume releases the storage
            receiver.stream_consumed(sid, len(view), appbuf)
            active = True
        if receiver_done() and sender.send_done():
            break
        if active:
            t += TICK
        else:
            # idle: jump straight to the earliest retransmission deadline,
            # the oldest packet's, as unacked is in send order
            oldest = next(iter(sender.unacked.values()), None)
            deadline = oldest[0] + DEFAULT_RTO if oldest else t + TICK
            t = max(deadline, t + TICK)
        if t > STALL_LIMIT:
            raise AssertionError(f"transfer stalled at virtual t={t:.3f}")

    for sid in sizes:
        if recv_hash[sid].digest() != sent_hash[sid].digest():
            raise AssertionError(f"stream {sid} content mismatch after transfer")

    wall = time.perf_counter() - start
    m = receiver.metrics()
    return TransferReport(
        mode=mode.value,
        bytes_transferred=sum(sizes.values()),
        wall_time=wall,
        throughput=sum(sizes.values()) / wall if wall > 0 else 0.0,
        payload_bytes_copied=m.payload_bytes_copied,
        payload_bytes_zero_copy=m.payload_bytes_zero_copy,
        ordered_ratio=m.ordered_ratio,
        decrypt_failures=m.decrypt_failures,
        retransmissions=sender.metrics().retransmissions,
        bytes_moved=appbuf.bytes_moved,
        allocations=appbuf.allocations,
    )


# --- benchmark driver ---


class _PreparedBatch:
    """Sealed datagrams for one mode plus everything needed to replay
    them against a fresh receiver without re-deriving keys."""

    def __init__(self, mode: WireMode, n_packets: int) -> None:
        self.mode = mode
        sender = Connection(mode, Role.CLIENT, _HARNESS_SECRET)
        rng = random.Random(_BATCH_SEED)
        sender.stream_send(1, rng.randbytes(n_packets * MAX_DATAGRAM), fin=False)
        out = bytearray(MAX_DATAGRAM)
        self.pristine: list[bytes] = []
        for _ in range(n_packets):
            n = sender.build_packet(out, now=0.0)
            assert n is not None
            self.pristine.append(bytes(out[:n]))
            sender.unacked.clear()  # sidestep the in-flight window
        self.work = [bytearray(p) for p in self.pristine]
        self.bytes_per_rep = sum(len(p) for p in self.pristine)
        # storage that holds the whole batch, so no repetition times growth
        self.capacity = max(DEFAULT_CAPACITY, self.bytes_per_rep)
        # both directions derived once; receivers are rebuilt per rep
        self.recv_keys = (
            derive_keys(_HARNESS_SECRET, "s2c"),
            derive_keys(_HARNESS_SECRET, "c2s"),
        )

    def fresh_receiver(self):
        conn = Connection(self.mode, Role.SERVER, _HARNESS_SECRET, keys=self.recv_keys)
        return conn, AppRecvBufMap(self.capacity)

    def restore(self) -> None:
        for w, p in zip(self.work, self.pristine):
            w[:] = p

    def run_once(self, conn, appbuf) -> int:
        """Times only the receive loop; draining the streams afterwards
        is application work and stays outside the clock."""
        t0 = time.perf_counter_ns()
        for w in self.work:
            conn.recv(w, appbuf)
        elapsed = time.perf_counter_ns() - t0
        for sid in conn.readable():
            view, _ = conn.stream_recv(sid, appbuf)
            conn.stream_consumed(sid, len(view), appbuf)
        return elapsed


def bootstrap_medians(samples: list[list[int]]) -> list[list[float]]:
    """Each sample list's median over the same resamples.

    The lists are paired repetitions, so they share one length n. Each
    of _BOOTSTRAP_ROUNDS rounds draws n indices with replacement from a
    fixed seed and takes every list's median over them."""
    n = len(samples[0])
    rng = random.Random(_BOOTSTRAP_SEED)
    medians: list[list[float]] = [[] for _ in samples]
    for _ in range(_BOOTSTRAP_ROUNDS):
        idx = [rng.randrange(n) for _ in range(n)]
        for sample, out in zip(samples, medians):
            out.append(statistics.median([sample[i] for i in idx]))
    return medians


def interval(stats: list[float]) -> tuple[float, float]:
    """The 5th and 95th percentiles of stats."""
    s = sorted(stats)
    return s[int(0.05 * len(s))], s[int(0.95 * len(s))]


def _finish(prep: _PreparedBatch, scenario: str, times: list[int],
            round_medians: list[float], conn: Connection) -> BatchResult:
    m = conn.metrics()
    med = statistics.median(times)
    p5, p95 = interval(round_medians)
    return BatchResult(
        mode=prep.mode.value,
        scenario=scenario,
        bytes_per_rep=prep.bytes_per_rep,
        reps=len(times),
        median_ns=med,
        p5_ns=p5,
        p95_ns=p95,
        throughput_mbps=prep.bytes_per_rep / (med / 1e9) / 1e6 if med else 0.0,
        copied_bytes=m.payload_bytes_copied,
        zero_copy_bytes=m.payload_bytes_zero_copy,
        times_ns=times,
        round_medians=round_medians,
    )


MODES = (WireMode.BASELINE, WireMode.REVERSO)


def bench_modes(
    n_packets: int,
    modes: tuple[WireMode, ...] = MODES,
    repetitions: int = 1000,
    scenario: str | None = None,
) -> tuple[BatchResult, ...]:
    """Time the receive loop over a pre-built batch of datagrams, once
    per mode, with interleaved repetitions.

    Alternating single repetitions keeps slow drifts of a busy machine
    from loading one mode's samples more than another's.
    """
    scen = scenario or f"batch-{n_packets}"
    preps = [_PreparedBatch(mode, n_packets) for mode in modes]
    times: list[list[int]] = [[] for _ in preps]
    conns: list = [None] * len(preps)  # the last timed receivers, for their counts
    for _ in range(repetitions):
        for i, prep in enumerate(preps):
            conn, appbuf = prep.fresh_receiver()
            prep.restore()
            times[i].append(prep.run_once(conn, appbuf))
            conns[i] = conn
    rounds = bootstrap_medians(times)
    return tuple(_finish(p, scen, t, r, c) for p, t, r, c in zip(preps, times, rounds, conns))


SWEEP_LENGTHS = (1350, 13500, 67500, 135000, 212950)


def sweep_modes(
    lengths: tuple[int, ...] = SWEEP_LENGTHS,
    modes: tuple[WireMode, ...] = MODES,
    repetitions: int = 300,
) -> list[tuple[BatchResult, ...]]:
    """bench_modes per buffered length; lengths are floored to whole
    packets."""
    return [
        bench_modes(
            max(1, length // MAX_DATAGRAM),
            modes,
            repetitions=repetitions,
            scenario=f"sweep-{length}",
        )
        for length in lengths
    ]
