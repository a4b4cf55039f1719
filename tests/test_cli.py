"""CLI subcommands: CSV output, UDP transfer demo, packet inspection."""

import csv
import hashlib
import io
import re
import socket
import threading
import time
import types

import pytest

from revquic import cli, crypto, endpoint, harness
from revquic.cli import BENCH_COLUMNS, SIMULATE_COLUMNS, main
from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.errors import ProtocolViolation
from revquic.mode import WireMode
from revquic.stream_buf import WINDOW, AppRecvBufMap

from packets import PingFrame, StreamFrame
from test_endpoint import craft

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

    def test_rows_round_to_their_digits(self):
        """A mode row rounds its times to 0.1 ns and its throughput to
        3 digits; the ratio row rounds every ratio to 4."""
        base = harness.BatchResult("baseline", "batch-2", 2700, 3, 12345.6789, 12000.04, 13000.96,
                                   109.12345, 2642, 0, round_medians=[12000.0, 12345.0, 13000.0])
        rev = harness.BatchResult("reverso", "batch-2", 2698, 3, 10000.0, 9500.55, 11000.45,
                                  134.87654, 0, 2640, round_medians=[10000.0, 9000.0, 11000.0])
        assert cli._bench_row(base) == ["baseline", "batch-2", 2700, 12345.7, 12000.0, 13001.0, 109.123, 2642, 0]
        assert cli._bench_row(rev) == ["reverso", "batch-2", 2698, 10000.0, 9500.5, 11000.5, 134.877, 0, 2640]
        assert cli._ratio_row(base, rev) == ["ratio", "batch-2", 2700, 1.2346, 1.1818, 1.3717, 1.236, 0, 0]

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

    def test_row_rounds_to_its_digits(self):
        """wall_time and ordered_ratio to 6 digits, throughput to 1."""
        r = harness.TransferReport("reverso", 1048576, 0.123456789, 8493465.4321, 0, 1048576, 0.98765432, 0, 3, 65536, 2)
        assert cli._report_row(r) == ["reverso", 1048576, 0.123457, 8493465.4, 0, 1048576, 0.987654, 0, 3, 65536, 2]

    def test_deterministic_apart_from_wall_time(self, capsys):
        argv = ["simulate", "--size", "131072", "--mode", "reverso", "--reorder", "0.05", "--seed", "9"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        stable = [c for i, c in enumerate(rows1[0]) if i not in (2, 3)]
        assert stable == [c for i, c in enumerate(rows2[0]) if i not in (2, 3)]


class _DropOneLink:
    """A connected UDP socket stand-in for transfer send. Each datagram
    goes straight to an in-process receiver, except the drop-th, which
    is lost; recv_into returns the receiver's ack for all it was handed
    since the last call, and times out when it owes none, so acks flow
    for as long as the sender sends."""

    def __init__(self, mode: WireMode, drop: int) -> None:
        self.receiver = Connection(mode, Role.SERVER, bytes.fromhex(SECRET_HEX))
        self.appbuf = AppRecvBufMap()
        self.drop = drop
        self.sent = 0
        self.out = bytearray(MAX_DATAGRAM)
        # after each datagram the receiver got: stream 1's contiguous
        # offset, and whether its final size has arrived
        self.seen: list[tuple[int, bool]] = []

    def __call__(self, family, kind):  # socket.socket(AF_INET, SOCK_DGRAM)
        return self

    def connect(self, addr) -> None:
        pass

    def settimeout(self, timeout) -> None:
        pass

    def close(self) -> None:
        pass

    def send(self, data) -> int:
        self.sent += 1
        if self.sent - 1 != self.drop:
            self.receiver.recv(bytearray(data), self.appbuf)
            sbuf = self.appbuf.get(1)
            if sbuf is not None:
                self.seen.append((sbuf.contiguous_offset, sbuf.fin_offset is not None))
        return len(data)

    def recv_into(self, buf) -> int:
        n = self.receiver.build_packet(self.out)
        if n is None:
            raise TimeoutError
        buf[:n] = self.out[:n]
        return n


class _ReplayLink:
    """A bound UDP socket stand-in for transfer recv: recvfrom hands
    out the given datagrams in order, then times out; what the receiver
    sends goes nowhere."""

    def __init__(self, datagrams) -> None:
        self.datagrams = list(datagrams)

    def __call__(self, family, kind):  # socket.socket(AF_INET, SOCK_DGRAM)
        return self

    def bind(self, addr) -> None:
        pass

    def settimeout(self, timeout) -> None:
        pass

    def close(self) -> None:
        pass

    def recvfrom(self, n):
        if not self.datagrams:
            raise TimeoutError
        return self.datagrams.pop(0), ("127.0.0.1", 9)

    def sendto(self, data, addr) -> int:
        return len(data)


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

    @pytest.mark.parametrize("mode", ["baseline", "reverso"])
    def test_send_retransmits_while_acks_flow(self, mode, tmp_path, capsys, monkeypatch):
        """A datagram lost early is sent again once its timeout passes,
        while acks for later datagrams still arrive: before the sender
        builds its last fresh fragment, not after the whole file."""
        monkeypatch.setattr(endpoint, "DEFAULT_RTO", 0.001)
        link = _DropOneLink(WireMode(mode), drop=1)
        monkeypatch.setattr(
            cli, "socket",
            types.SimpleNamespace(socket=link, AF_INET=socket.AF_INET, SOCK_DGRAM=socket.SOCK_DGRAM),
        )
        src = tmp_path / "src"
        src.write_bytes(bytes(range(256)) * 4096)  # 1 MiB
        argv = ["transfer", "send", "--peer", "127.0.0.1:9", "--file", str(src),
                "--secret", SECRET_HEX, "--mode", mode]
        rc, _, _ = run_cli(argv, capsys)
        assert rc == 0
        first_end = link.seen[0][0]  # the tail before the lost datagram's span
        refill = next(i for i, (tail, _) in enumerate(link.seen) if tail > first_end)
        assert not link.seen[refill][1], "the lost span came back only after the fin"
        assert link.seen[-1] == (src.stat().st_size + 32, True)

    @pytest.mark.parametrize("mode", ["baseline", "reverso"])
    def test_recv_reports_spurious_packets(self, mode, tmp_path, capsys, monkeypatch):
        """recv's summary counts the packets it dropped as already
        received: here the first data datagram, which arrives twice."""
        payload = bytes(range(256)) * 16  # 4 KiB: several datagrams
        sender = Connection(WireMode(mode), Role.CLIENT, bytes.fromhex(SECRET_HEX))
        sender.stream_send(1, hashlib.sha256(payload).digest())
        sender.stream_send(1, payload, fin=True)
        datagrams = self.sent_with_close(sender)
        rc, said, got = self.receive([datagrams[0], *datagrams], mode, tmp_path, capsys, monkeypatch)
        assert rc == 0 and "checksum OK" in said
        assert got == payload
        assert re.findall(r" spurious=(\d+)", said) == ["1"]
        assert sum(map(int, re.findall(r"(?:copied|zero_copy)=(\d+)", said))) == len(payload) + 32

    @pytest.mark.parametrize("size", [0, 1, 5000])
    @pytest.mark.parametrize("mode", ["baseline", "reverso"])
    def test_recv_takes_a_digest_split_across_reads(self, mode, size, tmp_path, capsys, monkeypatch):
        """The digest that leads the stream may arrive over two reads:
        here the first datagram carries 10 of its 32 bytes, and every
        byte after the 32 is the file's."""
        payload = (bytes(range(256)) * 20)[:size]
        digest = hashlib.sha256(payload).digest()
        sender = Connection(WireMode(mode), Role.CLIENT, bytes.fromhex(SECRET_HEX))
        sender.stream_send(1, digest[:10])
        out = bytearray(MAX_DATAGRAM)
        first = bytes(out[: sender.build_packet(out)])
        sender.stream_send(1, digest[10:])
        sender.stream_send(1, payload, fin=True)
        datagrams = [first, *self.sent_with_close(sender)]
        receiver = Connection(WireMode(mode), Role.SERVER, bytes.fromhex(SECRET_HEX))
        appbuf = AppRecvBufMap()
        receiver.recv(bytearray(first), appbuf)
        assert appbuf.get(1).contiguous_offset == 10  # the first read holds 10 bytes
        rc, said, got = self.receive(datagrams, mode, tmp_path, capsys, monkeypatch)
        assert rc == 0 and "checksum OK" in said
        assert got == payload
        assert f"received {size} bytes" in said

    @staticmethod
    def sent_with_close(sender) -> list[bytes]:
        """Every datagram the sender builds for what it has queued,
        then a close, which ends recv's linger."""
        out = bytearray(MAX_DATAGRAM)
        datagrams = []
        while (n := sender.build_packet(out)) is not None:
            datagrams.append(bytes(out[:n]))
        sender.queue_close(0, b"done")
        datagrams.append(bytes(out[: sender.build_packet(out)]))
        return datagrams

    @staticmethod
    def receive(datagrams, mode, tmp_path, capsys, monkeypatch):
        """transfer recv fed the datagrams through a _ReplayLink: its
        exit code, what it printed, and the file it wrote."""
        link = _ReplayLink(datagrams)
        monkeypatch.setattr(
            cli, "socket",
            types.SimpleNamespace(socket=link, AF_INET=socket.AF_INET, SOCK_DGRAM=socket.SOCK_DGRAM),
        )
        dst = tmp_path / "dst"
        argv = ["transfer", "recv", "--listen", "127.0.0.1:9", "--out", str(dst),
                "--secret", SECRET_HEX, "--mode", mode]
        rc, said, _ = run_cli(argv, capsys)
        return rc, said, dst.read_bytes()

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

        # a sender whose stream leads with a wrong checksum
        conn = Connection(WireMode.REVERSO, Role.CLIENT, bytes.fromhex(SECRET_HEX))
        conn.stream_send(1, b"\x00" * 32)
        conn.stream_send(1, payload, fin=True)
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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["send", "--peer", "127.0.0.1:1"], "--file"),
            (["send", "--file", "x"], "--peer"),
            (["recv", "--out", "x"], "--listen"),
            (["recv", "--listen", "127.0.0.1:0"], "--out"),
        ],
        ids=["send-file", "send-peer", "recv-listen", "recv-out"],
    )
    def test_missing_flag_reports_error(self, argv, flag, capsys):
        rc, _, err = run_cli(["transfer", *argv, "--secret", SECRET_HEX], capsys)
        assert rc == 2
        assert err.startswith("error:") and f"needs {flag}" in err

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

    def test_wrong_direction_names_the_key(self, capsys):
        # a c2s datagram read with the s2c key: its flags unmask to
        # reserved bits that only a wrong key explains
        rc, out, err = run_cli(
            ["inspect", "--hex", self.packet_hex(WireMode.BASELINE), "--mode", "baseline",
             "--secret", SECRET_HEX, "--direction", "s2c"],
            capsys,
        )
        assert rc == 2
        assert err == ("error: reserved sid_length bits set in baseline mode: "
                       "wrong secret, mode or direction, or a damaged datagram\n")
        assert out == ""

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "frame", [PingFrame(), StreamFrame(1, 0, b"hello", explicit_len=True)],
        ids=["ping", "len_stream"],
    )
    def test_rejects_what_recv_rejects(self, mode, frame, capsys):
        """A datagram recv refuses exits 2 with recv's own error and
        prints nothing as if it were valid."""
        secret = bytes.fromhex(SECRET_HEX)
        gram = craft(mode, crypto.derive_keys(secret, "c2s"), 0, [frame])
        with pytest.raises(ProtocolViolation) as refused:
            Connection(mode, Role.SERVER, secret).recv(bytearray(gram), AppRecvBufMap())
        rc, out, err = run_cli(
            ["inspect", "--hex", gram.hex(), "--mode", mode.value, "--secret", SECRET_HEX], capsys
        )
        assert rc == 2
        assert err == f"error: {refused.value}\n"
        assert "outside the packet layout" in err
        assert out == ""


class TestInspectLines:
    """What inspect prints for a close, a fin alone and data past the
    reassembly window, each a datagram from build_packet."""

    @staticmethod
    def applied(conn, mode, capsys) -> list[str]:
        out = bytearray(1350)
        n = conn.build_packet(out)
        rc, text, err = run_cli(
            ["inspect", "--hex", bytes(out[:n]).hex(), "--mode", mode.value, "--secret", SECRET_HEX],
            capsys,
        )
        assert (rc, err) == (0, "")
        return text.partition("applied by recv")[2].splitlines()[1:]

    @staticmethod
    def sender(mode):
        return Connection(mode, Role.CLIENT, bytes.fromhex(SECRET_HEX))

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_close(self, mode, capsys):
        conn = self.sender(mode)
        conn.queue_close(7, b"done")
        assert self.applied(conn, mode, capsys) == ["  Close error_code=7 reason=b'done'"]

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_fin_alone(self, mode, capsys):
        conn = self.sender(mode)
        conn.stream_send(3, b"", fin=True)
        assert self.applied(conn, mode, capsys) == ["  Stream id=3 offset=0 len=0 fin=True lane=none"]

    @pytest.mark.parametrize("mode", list(WireMode), ids=lambda m: m.value)
    def test_data_past_window_dropped(self, mode, capsys):
        conn = self.sender(mode)
        conn.stream_send(1, b"late" * 10)
        ss = conn.send_streams[1]
        ss.base_offset = ss.next_offset = WINDOW  # its end lies past the window
        assert self.applied(conn, mode, capsys) == [
            "  Stream id=1 dropped: it ends past the reassembly window"]


class TestParser:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--mode", "sideways"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
