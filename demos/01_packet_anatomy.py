"""Anatomy of one protected packet in each wire mode.

Builds a single stream packet with Connection.build_packet and prints it
byte by byte. Then it removes header protection on a copy to show the
header fields, and hands the datagram to a receiver to show where the
plaintext lands. The point to notice: in reverso mode the stream data
starts at plaintext position 0, followed by one anchor type byte, and
the header alone names its stream id and offset, so the receiver
decrypts the packet straight into the stream's storage at that offset
and never moves the data again. The header is the AEAD's associated
data, so those fields are authenticated with the payload. In baseline
mode the receiver decrypts in place in the datagram and then copies the
data out of its stream frame.

Run: python3 demos/01_packet_anatomy.py
"""

from revquic import header
from revquic.crypto import TAG_LEN
from revquic.endpoint import MAX_DATAGRAM, Connection, Role
from revquic.mode import WireMode
from revquic.stream_buf import AppRecvBufMap

SECRET = bytes(range(32))
DATA = b"hello, wire format"


def hexdump(label: str, blob: bytes) -> None:
    print(f"  {label}:")
    for i in range(0, len(blob), 16):
        row = blob[i : i + 16]
        print(f"    {i:4d}  {row.hex(' ')}")


def build(mode: WireMode) -> bytes:
    sender = Connection(mode, Role.CLIENT, SECRET)
    sender.stream_send(1, DATA, fin=True)
    out = bytearray(MAX_DATAGRAM)
    return bytes(out[: sender.build_packet(out)])


def dissect(mode: WireMode, packet: bytes) -> None:
    print(f"\n== {mode.value} ==")
    hexdump("on the wire (header protected, payload sealed)", packet)

    reverso = mode is WireMode.REVERSO
    receiver = Connection(mode, Role.SERVER, SECRET)
    work = bytearray(packet)
    hdr_len, pn, sid, offset = header.unprotect(work, receiver.recv_keys, 0, reverso)
    print(f"  header ({hdr_len} bytes): flags={work[0]:#04x} pn={pn}", end="")
    if reverso:
        print(f" stream_id={sid} offset={offset}", end="")
    print()

    appbuf = AppRecvBufMap()
    datagram = bytearray(packet)
    receiver.recv(datagram, appbuf)
    pt_len = len(packet) - hdr_len - TAG_LEN
    if reverso:
        # opened at the header's offset in the stream's storage; the
        # anchor's type byte and the padding past the data are scratch
        sbuf = appbuf.get(sid)
        lo = offset - sbuf.base_offset
        plaintext = bytes(sbuf.storage[lo : lo + pt_len])
        hexdump(f"plaintext, as opened into stream {sid}'s storage at offset {offset}", plaintext)
        print(f"  walked right to left; data sits at positions 0..{len(DATA)}, "
              f"anchor type byte {plaintext[len(DATA)]:#04x} at {len(DATA)}")
    else:
        plaintext = bytes(datagram[hdr_len : hdr_len + pt_len])
        hexdump("plaintext, as opened in place in the datagram", plaintext)
        print(f"  walked left to right; padding, then the stream frame, whose data "
              f"sits at positions {pt_len - len(DATA)}..{pt_len}")
    view, fin = receiver.stream_recv(1, appbuf)
    m = receiver.metrics()
    print(f"  stream 1 reads {bytes(view)!r} fin={fin}: {m.payload_bytes_zero_copy} bytes "
          f"committed where they were opened, {m.payload_bytes_copied} copied")


def main() -> None:
    for mode in (WireMode.BASELINE, WireMode.REVERSO):
        dissect(mode, build(mode))


if __name__ == "__main__":
    main()
