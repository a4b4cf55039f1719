"""The real `revquic transfer` path over 127.0.0.1, for the cli layer.

The receiver runs in this process through cli.main; the sender is one
child process, `python -m revquic.cli transfer send`. Traffic crosses
the host's loopback interface, not a real link. Only the traced run
uses it (see tracer.py): two processes on this host's two shared vCPUs
give loopback goodput too unsteady for an end-to-end figure.

`transfer recv` waits forever when no packet arrives, so each transfer
runs under the benchmark's own time limit, and the child is killed if it
outlives the receiver by more than CHILD_EXIT_S.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from revquic import cli
from revquic.endpoint import Connection

import workloads as wl

TRANSFER_LIMIT_S = 30.0
CHILD_EXIT_S = 10.0

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_out"


class _Deadline(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise _Deadline(f"transfer took longer than {seconds:.0f}s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def fin_clock(marks: dict):
    """Stamps the receiver's first stream read and its read of FIN, so
    goodput leaves out interpreter start-up and the receiver's linger."""
    real = Connection.stream_recv

    def stream_recv(conn, stream_id, appbuf):
        view, fin = real(conn, stream_id, appbuf)
        t = time.perf_counter()
        marks.setdefault("first", t)
        if fin:
            marks.setdefault("fin", t)
        return view, fin

    with wl.patched(Connection, "stream_recv", stream_recv):
        yield


class SocketModule:
    """Stands in for the socket module inside revquic.cli, handing out
    sockets of the given class."""

    def __init__(self, socket_class) -> None:
        self.socket = socket_class

    def __getattr__(self, name):
        return getattr(socket, name)


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class UdpTransfer:
    """One payload, sent by a child process to cli.main in this process."""

    def __init__(self, seed: int, size: int) -> None:
        WORK.mkdir(exist_ok=True)
        tag = f"{os.getpid()}-{seed}"
        self.src = WORK / f"udp-payload-{tag}.bin"
        self.dst = WORK / f"udp-received-{tag}.bin"
        payload = random.Random(seed).randbytes(size)
        self.src.write_bytes(payload)
        self.payload_sha = hashlib.sha256(payload).digest()
        self.delivered = size + 32  # the payload, then its SHA-256
        self.secret = wl.seed_secret(seed).hex()

    def close(self) -> None:
        for p in (self.src, self.dst):
            p.unlink(missing_ok=True)

    def run(self, mode, tally, hooks=()) -> float | None:
        """One transfer with the given context managers active around the
        receiver; returns its goodput in bytes/s, or None when a check
        failed. Checks: the receiver's exit code and "checksum OK", the
        sender's exit code, the received file, and byte conservation in
        the receiver's copied + zero_copy."""
        port = _free_port()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "revquic.cli", "transfer", "send",
             "--peer", f"127.0.0.1:{port}", "--file", str(self.src),
             "--secret", self.secret, "--mode", mode.value],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        marks: dict = {}
        out = io.StringIO()
        rc, problem = None, None
        try:
            with ExitStack() as es:
                for hook in hooks:
                    es.enter_context(hook)
                es.enter_context(fin_clock(marks))
                es.enter_context(redirect_stdout(out))
                es.enter_context(redirect_stderr(out))
                es.enter_context(time_limit(TRANSFER_LIMIT_S))
                rc = cli.main(["transfer", "recv", "--listen", f"127.0.0.1:{port}",
                               "--out", str(self.dst), "--secret", self.secret,
                               "--mode", mode.value])
        except _Deadline as exc:
            problem = str(exc)
        finally:
            try:
                _, sent_err = child.communicate(timeout=CHILD_EXIT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                _, sent_err = child.communicate()
        if problem is None:
            said = out.getvalue()
            if rc != 0 or "checksum OK" not in said:
                problem = f"receiver exit {rc}: {said.strip()[-200:]}"
            elif child.returncode != 0:
                problem = f"sender exit {child.returncode}: {sent_err.strip()[-200:]}"
            elif hashlib.sha256(self.dst.read_bytes()).digest() != self.payload_sha:
                problem = "received file differs from the payload"
            elif "fin" not in marks:
                problem = "receiver never read FIN"
            elif sum(map(int, re.findall(r"(?:copied|zero_copy)=(\d+)", said))) != self.delivered:
                problem = "receiver's copied + zero_copy differ from the bytes delivered"
        if not tally.record(problem is None, f"{mode.value} udp transfer: {problem}"):
            return None
        return self.delivered / (marks["fin"] - marks["first"])
