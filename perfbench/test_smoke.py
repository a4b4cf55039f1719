"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every run prints exactly the metrics BENCHMARK.json names,
with its units, and that a corrupted datagram or a wrong echo is
counted as a failed operation rather than dropped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from revquic.endpoint import Connection, Role  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = wl.TransferSpec("bulk", size=64 << 10, streams=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("mode", wl.MODES)
def test_corrupted_datagram_fails_the_replay(mode):
    tally = wl.Tally()
    cap = wl.capture_transfer(mode, TINY, 11, tally)
    assert cap is not None and tally.failed == 0
    wl.run_replays({mode: [wl.Replay(cap)]}, [mode], tally, {mode: wl.Samples("bulk.replay")}, wl.HostSpeed())
    assert (tally.attempted, tally.failed) == (2, 0)

    seg = cap.segments[len(cap.segments) // 2]
    d = bytearray(seg[0])
    d[len(d) // 2] ^= 0x01
    seg[0] = bytes(d)
    recv_ns = {mode: wl.Samples("bulk.replay")}
    wl.run_replays({mode: [wl.Replay(cap)]}, [mode], tally, recv_ns, wl.HostSpeed())
    assert (tally.attempted, tally.failed) == (3, 1)
    assert len(recv_ns[mode]) == 0


@pytest.mark.parametrize("mode", wl.MODES)
def test_wrong_echo_is_a_failed_request(mode):
    real = Connection.stream_send

    def flipping(conn, sid, data, fin=False):
        if conn.role is Role.SERVER:
            data = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
        return real(conn, sid, data, fin)

    tally = wl.Tally()
    msgs = wl.rpc_messages(3, smoke=True)[:5]
    # five echoes and one byte-conservation check per batch
    wl.echo_batch(wl.RpcPair(mode, wl.seed_secret(3)), msgs, tally)
    assert (tally.attempted, tally.failed) == (6, 0)
    with wl.patched(Connection, "stream_send", flipping):
        wl.echo_batch(wl.RpcPair(mode, wl.seed_secret(3)), msgs, tally)
    assert (tally.attempted, tally.failed) == (12, 5)


def test_corrupted_loopback_transfer_is_a_failure():
    import loopback
    from revquic.mode import WireMode

    real = Connection.stream_recv

    def corrupting(conn, sid, appbuf):
        view, fin = real(conn, sid, appbuf)
        if len(view):
            view[0] ^= 0x01
        return view, fin

    tally = wl.Tally()
    xfer = loopback.UdpTransfer(5, 16 << 10)
    try:
        assert xfer.run(WireMode.REVERSO, tally) is not None
        assert (tally.attempted, tally.failed) == (1, 0)
        assert xfer.run(WireMode.REVERSO, tally, (wl.patched(Connection, "stream_recv", corrupting),)) is None
    finally:
        xfer.close()
    assert (tally.attempted, tally.failed) == (2, 1)
