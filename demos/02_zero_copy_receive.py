"""Where the copies go: receive-side accounting in both modes.

Pushes one megabyte through an in-memory connection pair per mode and
prints the receiver's byte accounting. Baseline must reassemble every
stream frame out of the decrypted datagram into stream storage, so
every payload byte is copied once. Reverso headers let the receiver
decrypt each in-order packet directly at the stream's write position,
so the same transfer commits every byte in place.

Run: python3 demos/02_zero_copy_receive.py
"""

import os

from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

SECRET = b"\x5c" * 32
SIZE = 1 << 20


def pump(mode: WireMode) -> None:
    client = Connection(mode, Role.CLIENT, SECRET)
    server = Connection(mode, Role.SERVER, SECRET)
    appbuf = AppRecvBufMap()
    client_appbuf = AppRecvBufMap(default_capacity=4096)  # receives acks alone
    payload = os.urandom(SIZE)
    client.stream_send(1, payload, fin=True)

    out = bytearray(MAX_DATAGRAM)
    received = bytearray()
    done = False
    while not done:
        # client -> server until the send window closes
        while (n := client.build_packet(out)) is not None:
            server.recv(bytearray(out[:n]), appbuf)
        # drain the application data and let acks flow back
        for sid in server.readable():
            view, fin = server.stream_recv(sid, appbuf)
            received += view
            server.stream_consumed(sid, len(view), appbuf)
            done = done or fin
        while (n := server.build_packet(out)) is not None:
            client.recv(bytearray(out[:n]), client_appbuf)

    assert bytes(received) == payload
    m = server.metrics()
    total = m.payload_bytes_copied + m.payload_bytes_zero_copy
    print(f"{mode.value:9s}  copied {m.payload_bytes_copied:>9,} B"
          f"   committed in place {m.payload_bytes_zero_copy:>9,} B"
          f"   ({m.payload_bytes_zero_copy / total:.0%} zero-copy)")


def main() -> None:
    print(f"transferring {SIZE:,} bytes over a perfect in-memory pipe\n")
    for mode in WireMode:
        pump(mode)
    print("\nSame datagrams, same decryption work; the modes differ only in")
    print("whether payload bytes need a second move after decryption.")


if __name__ == "__main__":
    main()
