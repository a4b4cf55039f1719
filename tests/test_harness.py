"""Simulated-pipe transfers and the benchmark driver."""

import random
import statistics

import pytest

from revquic import cli, harness
from revquic.endpoint import MAX_DATAGRAM, SEND_WINDOW
from revquic.harness import (
    PipeConfig,
    _Pipe,
    _PreparedBatch,
    bench_modes,
    bootstrap_medians,
    interval,
    run_transfer,
    sweep_modes,
)
from revquic.mode import WireMode
from revquic.stream_buf import DEFAULT_CAPACITY, AppRecvBufMap


def recording_maps(monkeypatch) -> list[AppRecvBufMap]:
    """Every AppRecvBufMap the harness creates from now on, in order."""
    made: list[AppRecvBufMap] = []

    class Recorded(AppRecvBufMap):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "AppRecvBufMap", Recorded)
    return made


class TestPipe:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipeConfig(loss_prob=1.5)
        with pytest.raises(ValueError):
            PipeConfig(reorder_prob=-0.1)
        with pytest.raises(ValueError):
            PipeConfig(reorder_depth=0)

    def test_perfect_pipe_preserves_order(self):
        pipe = _Pipe(PipeConfig(), random.Random(0))
        grams = [bytes([i]) for i in range(20)]
        got = []
        for g in grams:
            pipe.send(g)
            got += pipe.ready()
        assert got == grams

    def test_reordered_packet_held_until_flush(self):
        pipe = _Pipe(PipeConfig(reorder_prob=1.0, reorder_depth=3), random.Random(0))
        pipe.send(b"a")
        assert pipe.ready() == []
        assert len(pipe) == 1
        assert pipe.ready(flush=True) == [b"a"]

    def test_loss_drops(self):
        pipe = _Pipe(PipeConfig(loss_prob=1.0), random.Random(0))
        for i in range(10):
            pipe.send(bytes([i]))
        assert pipe.ready(flush=True) == []

    def test_duplicate_delivers_twice(self):
        pipe = _Pipe(PipeConfig(duplicate_prob=1.0), random.Random(0))
        pipe.send(b"a")
        assert pipe.ready(flush=True) == [b"a", b"a"]

    def test_duplicate_is_a_private_copy(self):
        # the receiver overwrites a datagram in place, which must not
        # reach its duplicate
        pipe = _Pipe(PipeConfig(duplicate_prob=1.0), random.Random(0))
        pipe.send(bytearray(b"ab"))
        first, second = pipe.ready(flush=True)
        first[0] = 0
        assert second == b"ab"


class TestRunTransfer:
    def test_perfect_pipe_reverso(self):
        r = run_transfer(WireMode.REVERSO, 512 * 1024)
        assert r.bytes_transferred == 512 * 1024
        assert r.ordered_ratio == 1.0
        assert r.payload_bytes_copied == 0
        assert r.payload_bytes_zero_copy == 512 * 1024
        assert r.decrypt_failures == 0

    def test_perfect_pipe_baseline_copy_floor(self):
        r = run_transfer(WireMode.BASELINE, 512 * 1024)
        assert r.payload_bytes_copied >= 512 * 1024
        assert r.payload_bytes_zero_copy == 0
        assert r.ordered_ratio == 1.0

    def test_deterministic_given_seed(self):
        cfg = PipeConfig(seed=123, reorder_prob=0.1)
        a = run_transfer(WireMode.REVERSO, 256 * 1024, pipe=cfg)
        b = run_transfer(WireMode.REVERSO, 256 * 1024, pipe=PipeConfig(seed=123, reorder_prob=0.1))
        for field in (
            "bytes_transferred",
            "payload_bytes_copied",
            "payload_bytes_zero_copy",
            "ordered_ratio",
            "decrypt_failures",
            "retransmissions",
        ):
            assert getattr(a, field) == getattr(b, field), field

    def test_reordering_degrades_ordered_ratio_monotonically(self):
        ratios = []
        for p in (0.0, 0.01, 0.1):
            r = run_transfer(
                WireMode.REVERSO, 256 * 1024, pipe=PipeConfig(seed=7, reorder_prob=p)
            )
            ratios.append(r.ordered_ratio)
            # reorder-only pipe: every byte arrives exactly once, so the
            # copied bytes are exactly the ones that missed the tail
            assert (
                r.payload_bytes_copied
                == r.bytes_transferred - r.payload_bytes_zero_copy
            )
        assert ratios[0] == 1.0
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert ratios[2] < 1.0

    def test_ordered_ratio_one_iff_no_copies(self):
        clean = run_transfer(WireMode.REVERSO, 128 * 1024, pipe=PipeConfig(seed=3))
        assert clean.ordered_ratio == 1.0 and clean.payload_bytes_copied == 0
        messy = run_transfer(
            WireMode.REVERSO, 128 * 1024, pipe=PipeConfig(seed=3, reorder_prob=0.2)
        )
        assert messy.ordered_ratio < 1.0 and messy.payload_bytes_copied > 0

    def test_loss_recovery_both_modes(self):
        for mode in WireMode:
            r = run_transfer(mode, 128 * 1024, pipe=PipeConfig(seed=11, loss_prob=0.2))
            assert r.bytes_transferred == 128 * 1024
            assert r.retransmissions > 0

    def test_duplicates_are_harmless(self):
        r = run_transfer(
            WireMode.REVERSO, 128 * 1024, pipe=PipeConfig(seed=13, duplicate_prob=0.3)
        )
        assert r.bytes_transferred == 128 * 1024

    def test_multi_stream_split(self):
        r = run_transfer(WireMode.REVERSO, 100_001, n_streams=3)
        assert r.bytes_transferred == 100_001
        assert r.payload_bytes_copied == 0  # perfect pipe keeps every tail hot

    def test_multi_stream_with_reordering(self):
        r = run_transfer(
            WireMode.BASELINE,
            100_000,
            n_streams=2,
            pipe=PipeConfig(seed=17, reorder_prob=0.1, loss_prob=0.02),
        )
        assert r.bytes_transferred == 100_000

    def test_needs_a_stream(self):
        with pytest.raises(ValueError):
            run_transfer(WireMode.REVERSO, 1024, n_streams=0)

    def test_first_storage_holds_two_send_windows(self):
        assert DEFAULT_CAPACITY >= 2 * SEND_WINDOW * MAX_DATAGRAM

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_clean_transfer_never_grows(self, mode, monkeypatch):
        # an application that keeps up never holds more than the first
        # storage, so in-order reverso data always opens at its offset
        maps = recording_maps(monkeypatch)
        r = run_transfer(mode, 4 << 20)
        receiver = maps[0]  # created before the sender's
        assert (receiver.allocations, receiver.bytes_moved, r.bytes_moved) == (1, 0, 0)
        if mode is WireMode.REVERSO:
            assert (r.payload_bytes_copied, r.payload_bytes_zero_copy) == (0, 4 << 20)

    def test_report_carries_bytes_moved(self, monkeypatch):
        maps = recording_maps(monkeypatch)
        cfg = PipeConfig(seed=0, reorder_prob=0.1, loss_prob=0.02, duplicate_prob=0.01)
        r = run_transfer(WireMode.REVERSO, 4 << 20, 8, cfg)
        assert r.bytes_moved == maps[0].bytes_moved > 0

    def test_report_invariants(self):
        r = run_transfer(
            WireMode.REVERSO,
            64 * 1024,
            pipe=PipeConfig(seed=19, reorder_prob=0.15, duplicate_prob=0.1),
        )
        assert 0.0 <= r.ordered_ratio <= 1.0
        assert r.payload_bytes_zero_copy + r.payload_bytes_copied >= r.bytes_transferred

    def test_transfer_that_never_arrives_stalls(self):
        # every datagram lost: the sender retransmits until the virtual
        # clock passes STALL_LIMIT (about 0.8 s of wall time)
        with pytest.raises(AssertionError, match="stalled"):
            run_transfer(WireMode.REVERSO, 4096, pipe=PipeConfig(loss_prob=1.0))

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_corrupted_byte_is_a_content_mismatch(self, mode, monkeypatch):
        # one received byte flipped in storage before the harness hashes it
        stream_recv = harness.Connection.stream_recv
        flipped = []

        def corrupt_once(conn, sid, appbuf):
            view, fin = stream_recv(conn, sid, appbuf)
            if len(view) and not flipped:
                view[0] ^= 0x01
                flipped.append(sid)
            return view, fin

        monkeypatch.setattr(harness.Connection, "stream_recv", corrupt_once)
        with pytest.raises(AssertionError, match=r"stream 1 content mismatch"):
            run_transfer(mode, 64 * 1024, n_streams=2)
        assert flipped == [1]


# 1 MiB on 8 streams through reorder 0.1, loss 0.02 and duplication 0.01:
# (seed, mode) -> every TransferReport field but wall_time and throughput
LOSSY_COUNTERS = {
    (0, "baseline"): (1048576, 1048576, 0, 0.4482758620689655, 0, 17, 0, 8),
    (0, "reverso"): (1048576, 22355, 1026221, 0.4482758620689655, 0, 17, 0, 8),
    (1, "baseline"): (1048576, 1048576, 0, 0.4427570093457944, 0, 67, 0, 8),
    (1, "reverso"): (1048576, 18410, 1030166, 0.4427570093457944, 0, 67, 0, 8),
    (2, "baseline"): (1048576, 1048576, 0, 0.38242574257425743, 0, 18, 0, 8),
    (2, "reverso"): (1048576, 22355, 1026221, 0.38242574257425743, 0, 18, 0, 8),
}


@pytest.mark.parametrize("seed,mode", list(LOSSY_COUNTERS), ids=str)
def test_lossy_counters_pinned(seed, mode):
    """The receiver's bookkeeping under loss: how a placement is
    recorded changes none of these counts."""
    cfg = PipeConfig(seed=seed, reorder_prob=0.1, loss_prob=0.02, duplicate_prob=0.01)
    r = run_transfer(WireMode(mode), 1 << 20, 8, cfg)
    got = (r.bytes_transferred, r.payload_bytes_copied, r.payload_bytes_zero_copy,
           r.ordered_ratio, r.decrypt_failures, r.retransmissions, r.bytes_moved, r.allocations)
    assert (r.mode, got) == (mode, LOSSY_COUNTERS[seed, mode])


class TestBench:
    def test_prepared_batch_replays_cleanly(self):
        prep = _PreparedBatch(WireMode.REVERSO, 3)
        for _ in range(2):
            conn, appbuf = prep.fresh_receiver()
            prep.restore()
            elapsed = prep.run_once(conn, appbuf)
            assert elapsed > 0
            m = conn.metrics()
            assert m.decrypt_failures == 0
            assert m.payload_bytes_zero_copy > 0
            assert m.payload_bytes_copied == 0
            # streams drained after the clock stopped
            assert conn.readable() == []

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_batch_past_first_storage_never_grows(self, mode):
        # storage is sized to the batch, so a repetition times no growth
        # and every reverso packet opens at its offset
        prep = _PreparedBatch(mode, DEFAULT_CAPACITY // MAX_DATAGRAM + 20)
        assert prep.bytes_per_rep > DEFAULT_CAPACITY
        conn, appbuf = prep.fresh_receiver()
        prep.restore()
        prep.run_once(conn, appbuf)
        assert (appbuf.allocations, appbuf.bytes_moved) == (1, 0)
        if mode is WireMode.REVERSO:
            assert conn.metrics().payload_bytes_copied == 0

    def test_batch_result_shape(self):
        (res,) = bench_modes(2, (WireMode.REVERSO,), repetitions=6, scenario="smoke")
        assert res.mode == "reverso"
        assert res.scenario == "smoke"
        assert res.reps == 6 and len(res.times_ns) == 6
        assert 0 < res.bytes_per_rep <= 2 * 1350
        assert res.p5_ns <= res.median_ns <= res.p95_ns
        assert res.throughput_mbps > 0
        assert res.copied_bytes == 0 and res.zero_copy_bytes > 0
        assert len(res.round_medians) == harness._BOOTSTRAP_ROUNDS

    def test_baseline_batch_counts_copies(self):
        (res,) = bench_modes(2, (WireMode.BASELINE,), repetitions=4)
        assert res.copied_bytes > 0 and res.zero_copy_bytes == 0

    def test_bench_pair_interleaves_modes(self):
        base, rev = bench_modes(2, repetitions=3, scenario="pairsmoke")
        assert (base.mode, rev.mode) == ("baseline", "reverso")
        assert base.scenario == rev.scenario == "pairsmoke"
        # header geometry differs slightly between modes; sizes stay close
        assert abs(base.bytes_per_rep - rev.bytes_per_rep) < 32
        assert len(base.times_ns) == len(rev.times_ns) == 3

    def test_sweep_lengths_floor_to_packets(self):
        results = [
            r for (r,) in sweep_modes((1350, 13500), (WireMode.REVERSO,), repetitions=2)
        ]
        assert [r.scenario for r in results] == ["sweep-1350", "sweep-13500"]
        # one datagram, then ten; a reverso header's offset field widens
        # past offset 0, so the later datagrams may be a byte longer
        one, ten = (r.bytes_per_rep for r in results)
        assert one <= MAX_DATAGRAM and 10 * one <= ten <= 10 * MAX_DATAGRAM

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_counts_match_a_replayed_receiver(self, mode):
        # the counts come from the last timed receiver; a receiver
        # replayed apart from the bench must read the same
        (res,) = bench_modes(3, (mode,), repetitions=2)
        prep = _PreparedBatch(mode, 3)
        conn, appbuf = prep.fresh_receiver()
        prep.restore()
        prep.run_once(conn, appbuf)
        m = conn.metrics()
        assert (res.copied_bytes, res.zero_copy_bytes) == (
            m.payload_bytes_copied, m.payload_bytes_zero_copy)
        assert res.copied_bytes + res.zero_copy_bytes > 0

    def test_bootstrap_ci_deterministic(self):
        times = [random.Random(1).randrange(1000, 2000) for _ in range(50)]
        assert bootstrap_medians([times]) == bootstrap_medians([times])
        (rounds,) = bootstrap_medians([[500] * 20])
        assert interval(rounds) == (500, 500)

    def test_bootstrap_cis_pinned(self):
        # the bench CSV's p5/p95 columns for fixed timings
        rng = random.Random(3)
        base = [rng.randrange(9000, 11000) for _ in range(40)]
        rev = [rng.randrange(8000, 10500) for _ in range(40)]
        base_res, rev_res = results(base, rev)
        assert (base_res.p5_ns, base_res.p95_ns) == (9961.5, 10224.5)
        assert (rev_res.p5_ns, rev_res.p95_ns) == (9168.0, 9671.0)
        assert ratio_interval(base_res, rev_res) == (1.0369657897473223, 1.105194095133953)
        assert cli._ratio_row(base_res, rev_res)[4:6] == [1.037, 1.1052]

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 101])
    def test_shared_rounds_match_per_statistic_bootstrap(self, n):
        # one draw of resamples gives what a bootstrap per statistic gave
        rng = random.Random(n)
        base = [rng.randrange(9000, 11000) for _ in range(n)]
        rev = [rng.randrange(8000, 10500) for _ in range(n)]
        rev[0] = 0  # a resample whose median is 0 puts 0.0 in the ratio
        (alone,) = results(base)
        assert (alone.p5_ns, alone.p95_ns) == reference_median_ci(base)
        base_res, rev_res = results(base, rev)
        assert (base_res.p5_ns, base_res.p95_ns) == reference_median_ci(base)
        assert (rev_res.p5_ns, rev_res.p95_ns) == reference_median_ci(rev)
        lo, hi = reference_ratio_ci(base, rev)
        assert ratio_interval(base_res, rev_res) == (lo, hi)
        assert cli._ratio_row(base_res, rev_res)[4:6] == [round(lo, 4), round(hi, 4)]


def results(*samples: list[int]) -> list[harness.BatchResult]:
    """BatchResults for paired timings, through the bench's bootstrap."""
    return [
        harness.BatchResult("m", "s", 1, len(t), statistics.median(t), *interval(r),
                            1.0, 0, 0, t, r)
        for t, r in zip(samples, bootstrap_medians(list(samples)))
    ]


def ratio_interval(base: harness.BatchResult, rev: harness.BatchResult):
    """The ratio row's interval before it is rounded for the CSV."""
    return interval([b / r if r else 0.0 for b, r in zip(base.round_medians, rev.round_medians)])


# The bootstrap as it was, one seeded draw per statistic: the reference
# the shared rounds must reproduce.


def reference_ci(n: int, statistic):
    rng = random.Random(harness._BOOTSTRAP_SEED)
    stats = sorted(
        statistic([rng.randrange(n) for _ in range(n)]) for _ in range(harness._BOOTSTRAP_ROUNDS)
    )
    last = len(stats) - 1
    return stats[min(last, int(0.05 * len(stats)))], stats[min(last, int(0.95 * len(stats)))]


def reference_median_ci(times: list[int]):
    return reference_ci(len(times), lambda idx: statistics.median(times[i] for i in idx))


def reference_ratio_ci(base_times: list[int], rev_times: list[int]):
    def ratio(idx):
        r = statistics.median(rev_times[i] for i in idx)
        return statistics.median(base_times[i] for i in idx) / r if r else 0.0

    return reference_ci(min(len(base_times), len(rev_times)), ratio)
