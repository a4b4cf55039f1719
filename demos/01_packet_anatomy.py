"""Anatomy of one protected packet in each wire mode.

Builds a single stream packet, prints it byte by byte, then removes
header protection and parses the plaintext to show where every field
lives. The point to notice: in reverso mode the stream data starts at
plaintext position 0, followed by one anchor type byte, and the header
alone names its stream id and offset, so a receiver that decrypts the
packet into the right place never has to move the data again. The
header is the AEAD's associated data, so those fields are authenticated
with the payload.

Run: python3 demos/01_packet_anatomy.py
"""

from revquic import crypto, header, wire
from revquic.header import ShortHeader
from revquic.mode import WireMode
from revquic.wire import PaddingFrame, StreamFrame

SECRET = bytes(range(32))
DATA = b"hello, wire format"


def hexdump(label: str, blob: bytes) -> None:
    print(f"  {label}:")
    for i in range(0, len(blob), 16):
        row = blob[i : i + 16]
        print(f"    {i:4d}  {row.hex(' ')}")


def build(mode: WireMode, keys: crypto.KeySchedule) -> bytes:
    frame = StreamFrame(stream_id=1, offset=0, data=DATA, fin=True, explicit_len=False)
    frames = [frame]
    scratch = bytearray(256)
    if mode is WireMode.REVERSO:
        n = wire.serialize_reversed(frames, scratch)
        while n < header.MIN_PLAINTEXT:  # padding goes right of the anchor
            frames.append(PaddingFrame())
            n = wire.serialize_reversed(frames, scratch)
    else:
        n = wire.serialize_forward(frames, scratch)
        while n < header.MIN_PLAINTEXT:  # the trailing frame owns the tail
            frames.insert(0, PaddingFrame())
            n = wire.serialize_forward(frames, scratch)
    h = ShortHeader(packet_number=7, pn_length=1, stream_id=1, offset=0)
    hb = header.encode_header(mode, h)
    packet = bytearray(len(hb) + n + crypto.TAG_LEN)
    packet[: len(hb)] = hb
    crypto.seal(keys, 7, hb, scratch[:n], memoryview(packet)[len(hb) :])
    header.protect_header(mode, packet, keys)
    return bytes(packet)


def dissect(mode: WireMode, keys: crypto.KeySchedule, packet: bytes) -> None:
    print(f"\n== {mode.value} ==")
    hexdump("on the wire (header protected, payload sealed)", packet)

    work = bytearray(packet)
    h, hdr_len = header.unprotect_and_decode(mode, work, keys, 0)
    print(f"  header ({hdr_len} bytes): flags={work[0]:#04x} pn={h.packet_number}", end="")
    if mode is WireMode.REVERSO:
        print(f" stream_id={h.stream_id} offset={h.offset}", end="")
    print()

    plaintext = bytearray(len(work) - hdr_len - crypto.TAG_LEN)
    crypto.open(keys, h.packet_number, bytes(work[:hdr_len]), memoryview(work)[hdr_len:], plaintext)
    hexdump("plaintext", bytes(plaintext))
    if mode is WireMode.REVERSO:
        # the header's stream id and offset locate the anchor
        frames = wire.parse_reversed(plaintext, h.stream_id, h.offset)
        print(f"  parsed right to left; data sits at positions 0..{len(DATA)}, "
              f"anchor type byte {plaintext[len(DATA)]:#04x} at {len(DATA)}:")
        print(f"    {plaintext[: len(DATA)]!r}")
    else:
        frames = wire.parse_forward(plaintext)
        print(f"  parsed left to right; data sits at positions "
              f"{len(plaintext) - len(DATA)}..{len(plaintext)}:")
        print(f"    {plaintext[len(plaintext) - len(DATA):]!r}")
    for f in frames:
        print(f"    {f}")


def main() -> None:
    for mode, label in ((WireMode.BASELINE, "c2s"), (WireMode.REVERSO, "c2s")):
        keys = crypto.derive_keys(SECRET, label)
        dissect(mode, keys, build(mode, keys))


if __name__ == "__main__":
    main()
