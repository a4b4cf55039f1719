"""CLI subcommands: CSV output, UDP transfer demo, packet inspection."""

import csv
import hashlib
import io
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revquic import cli
from revquic.cli import BENCH_COLUMNS, SIMULATE_COLUMNS, main
from revquic.endpoint import Connection, Role
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

SECRET_HEX = "11" * 32


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestBenchCommand:
    def test_both_modes_emit_three_rows(self, capsys):
        rc, out, _ = run_cli(["bench", "--mode", "both", "--packets", "2", "--reps", "4"], capsys)
        assert rc == 0
        head, rows = parse_csv(out)
        assert head == list(BENCH_COLUMNS)
        assert [r[0] for r in rows] == ["baseline", "reverso", "ratio"]
        for r in rows[:2]:
            assert int(r[2]) > 0
            assert float(r[3]) > 0 and float(r[4]) <= float(r[3]) <= float(r[5])
            assert float(r[6]) > 0
            assert int(r[7]) >= 0 and int(r[8]) >= 0
        ratio = rows[2]
        assert ratio[1] == rows[0][1]  # same scenario
        assert 0 < float(ratio[4]) <= float(ratio[5])  # CI bounds ordered

    def test_single_mode(self, capsys):
        rc, out, _ = run_cli(["bench", "--mode", "reverso", "--packets", "1", "--reps", "3"], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == "reverso"
        assert int(rows[0][7]) == 0  # no copies on the hot path
        assert int(rows[0][8]) > 0

    def test_sweep_covers_every_length(self, capsys):
        rc, out, _ = run_cli(["bench", "--sweep", "--mode", "baseline", "--reps", "2"], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == [
            "sweep-1350",
            "sweep-13500",
            "sweep-67500",
            "sweep-135000",
            "sweep-212950",
        ]
        sizes = [int(r[2]) for r in rows]
        assert sizes == sorted(sizes)


class TestSimulateCommand:
    def test_schema_and_modes(self, capsys):
        rc, out, _ = run_cli(
            ["simulate", "--size", "65536", "--mode", "both", "--reorder", "0.1", "--seed", "5"],
            capsys,
        )
        assert rc == 0
        head, rows = parse_csv(out)
        assert head == list(SIMULATE_COLUMNS)
        assert [r[0] for r in rows] == ["baseline", "reverso"]
        for r in rows:
            assert int(r[1]) == 65536
            assert 0.0 <= float(r[6]) <= 1.0
        base, rev = rows
        assert int(base[5]) == 0  # baseline never commits zero-copy
        assert int(rev[5]) > 0

    def test_deterministic_apart_from_wall_time(self, capsys):
        argv = ["simulate", "--size", "131072", "--mode", "reverso", "--reorder", "0.05", "--seed", "9"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        stable = [c for i, c in enumerate(rows1[0]) if i not in (2, 3)]
        assert stable == [c for i, c in enumerate(rows2[0]) if i not in (2, 3)]


class TestTransferCommand:
    def loopback(self, mode, payload, tmp_path, capsys):
        src = tmp_path / f"src-{mode}"
        dst = tmp_path / f"dst-{mode}"
        src.write_bytes(payload)
        port = free_port()
        rc_box = {}

        def receive():
            rc_box["recv"] = main(
                [
                    "transfer",
                    "recv",
                    "--listen",
                    f"127.0.0.1:{port}",
                    "--out",
                    str(dst),
                    "--secret",
                    SECRET_HEX,
                    "--mode",
                    mode,
                ]
            )

        t = threading.Thread(target=receive, daemon=True)
        t.start()
        time.sleep(0.05)
        rc_box["send"] = main(
            [
                "transfer",
                "send",
                "--peer",
                f"127.0.0.1:{port}",
                "--file",
                str(src),
                "--secret",
                SECRET_HEX,
                "--mode",
                mode,
            ]
        )
        t.join(timeout=30)
        assert not t.is_alive(), "receiver did not finish"
        capsys.readouterr()
        return rc_box, dst

    def test_udp_loopback_both_modes(self, tmp_path, capsys):
        payload = hashlib.sha256(b"seed").digest() * 2048  # 64 KiB
        for mode in ("baseline", "reverso"):
            rc_box, dst = self.loopback(mode, payload, tmp_path, capsys)
            assert rc_box == {"recv": 0, "send": 0}
            assert dst.read_bytes() == payload

    @settings(max_examples=200, deadline=None, database=None)
    @given(stream=st.binary(max_size=200), cuts=st.lists(st.integers(0, 200), max_size=12))
    def test_split_checksum_keeps_the_last_32_bytes(self, stream, cuts):
        """However the stream arrives in reads, the data parts are every
        byte but the last 32, in order, and the carry is those 32."""
        bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
        carry, data = b"", bytearray()
        for lo, hi in zip(bounds, bounds[1:]):
            parts, carry = cli._split_checksum(carry, memoryview(stream)[lo:hi])
            assert len(carry) <= 32
            for part in parts:
                data += part
        assert bytes(data) + carry == stream
        assert carry == stream[-32:]

    def test_checksum_mismatch_exits_nonzero(self, tmp_path, capsys):
        port = free_port()
        dst = tmp_path / "corrupted"
        payload = b"p" * 4096
        rc_box = {}

        def receive():
            rc_box["recv"] = main(
                [
                    "transfer",
                    "recv",
                    "--listen",
                    f"127.0.0.1:{port}",
                    "--out",
                    str(dst),
                    "--secret",
                    SECRET_HEX,
                    "--mode",
                    "reverso",
                ]
            )

        t = threading.Thread(target=receive, daemon=True)
        t.start()
        time.sleep(0.05)

        # a sender that appends a wrong trailing checksum
        conn = Connection(WireMode.REVERSO, Role.CLIENT, bytes.fromhex(SECRET_HEX))
        conn.stream_send(1, payload, fin=False)
        conn.stream_send(1, b"\x00" * 32, fin=True)
        appbuf = AppRecvBufMap(default_capacity=4096)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.connect(("127.0.0.1", port))
        sock.settimeout(0.05)
        out = bytearray(2048)
        deadline = time.monotonic() + 20
        try:
            while not conn.send_done() and time.monotonic() < deadline:
                while (n := conn.build_packet(out)) is not None:
                    sock.send(out[:n])
                try:
                    conn.recv(bytearray(sock.recv(2048)), appbuf)
                except (TimeoutError, ConnectionRefusedError):
                    conn.on_timeout(time.monotonic())
        finally:
            sock.close()
        t.join(timeout=30)
        assert not t.is_alive()
        capsys.readouterr()
        assert rc_box["recv"] == 1
        assert dst.read_bytes() == payload  # body was written before the verdict

    def test_missing_file_reports_error(self, tmp_path, capsys):
        rc, _, err = run_cli(
            [
                "transfer",
                "send",
                "--peer",
                "127.0.0.1:1",
                "--file",
                str(tmp_path / "does-not-exist"),
                "--secret",
                SECRET_HEX,
            ],
            capsys,
        )
        assert rc == 2
        assert "error:" in err

    def test_bad_secret_reports_error(self, capsys):
        rc, _, err = run_cli(
            ["transfer", "send", "--peer", "h:1", "--file", "x", "--secret", "abcd"],
            capsys,
        )
        assert rc == 2
        assert "secret" in err


class TestInspectCommand:
    def packet_hex(self, mode) -> str:
        conn = Connection(mode, Role.CLIENT, bytes.fromhex(SECRET_HEX))
        conn.stream_send(1, b"hello wire format", fin=True)
        out = bytearray(1350)
        n = conn.build_packet(out)
        return bytes(out[:n]).hex()

    def test_reverso_dump(self, capsys):
        rc, out, _ = run_cli(
            [
                "inspect",
                "--hex",
                self.packet_hex(WireMode.REVERSO),
                "--mode",
                "reverso",
                "--secret",
                SECRET_HEX,
            ],
            capsys,
        )
        assert rc == 0
        assert "packet_number=0" in out
        assert "stream_id=1 offset=0" in out
        assert "right-to-left" in out
        assert "Stream id=1 offset=0 len=17 fin=True" in out

    def test_baseline_dump(self, capsys):
        rc, out, _ = run_cli(
            [
                "inspect",
                "--hex",
                self.packet_hex(WireMode.BASELINE),
                "--mode",
                "baseline",
                "--secret",
                SECRET_HEX,
            ],
            capsys,
        )
        assert rc == 0
        assert "Stream id=1 offset=0 len=17 fin=True" in out

    def test_wrong_secret_fails_cleanly(self, capsys):
        rc, _, err = run_cli(
            [
                "inspect",
                "--hex",
                self.packet_hex(WireMode.REVERSO),
                "--mode",
                "reverso",
                "--secret",
                "22" * 32,
            ],
            capsys,
        )
        assert rc == 2
        assert "error:" in err


class TestParser:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--mode", "sideways"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
