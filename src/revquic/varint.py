"""Variable-length integer codecs, forward and reversed.

The forward codec is the familiar one: a 2-bit length tag in the two most
significant bits of the first byte (00/01/10/11 for 1/2/4/8 bytes), value
big-endian in the remaining bits.

The reversed codec moves the tag to the two LEAST significant bits of the
LAST byte so a backward parser can read one byte at the cursor, learn the
field length, and step left. Concretely: pick the minimal L in {1,2,4,8}
with v < 2**(8L-2), emit (v << 2) | tag as L bytes big-endian. Value
ranges and the tag mapping match the forward codec exactly, which keeps
differential tests trivial.
"""

from .errors import EncodingOverflow, TruncatedVarInt

VARINT_MAX = (1 << 62) - 1

# class boundaries shared by both codecs
_CLASS_MAX = ((1 << 6), (1 << 14), (1 << 30), (1 << 62))
_CLASS_LEN = (1, 2, 4, 8)


def _length_class(v: int) -> int:
    # unrolled over _CLASS_MAX: the senders call this for every frame
    if v < 0x40:
        return 0
    if v < 0x4000:
        return 1
    if v < 0x40000000:
        return 2
    if v <= VARINT_MAX:
        return 3
    raise EncodingOverflow(f"{v} exceeds 62-bit varint range")


def _tag(v: int, length: int | None) -> tuple[int, int]:
    """Length tag and byte count for v, minimal unless length forces a
    wider class; the range check both encoders share."""
    if v < 0:
        raise EncodingOverflow(f"{v} exceeds 62-bit varint range")
    tag = _length_class(v)  # raises past VARINT_MAX
    if length is not None:
        forced = _CLASS_LEN.index(length)
        if forced < tag:
            raise EncodingOverflow(f"{v} does not fit {length} bytes")
        tag = forced
    return tag, _CLASS_LEN[tag]


def encode_forward(v: int, length: int | None = None) -> bytes:
    """Encode v in the forward layout, minimal length unless forced."""
    tag, n = _tag(v, length)
    return ((tag << (8 * n - 2)) | v).to_bytes(n, "big")


def decode_forward(buf, pos: int = 0) -> tuple[int, int]:
    """Decode at pos; returns (value, consumed)."""
    if pos >= len(buf):
        raise TruncatedVarInt("empty input")
    tag = buf[pos] >> 6
    n = _CLASS_LEN[tag]
    if pos + n > len(buf):
        raise TruncatedVarInt(f"need {n} bytes, have {len(buf) - pos}")
    v = int.from_bytes(buf[pos : pos + n], "big")
    return v & (_CLASS_MAX[tag] - 1), n


def encode_reversed(v: int, length: int | None = None) -> bytes:
    """Encode v in the reversed layout, tag in the final byte."""
    tag, n = _tag(v, length)
    return ((v << 2) | tag).to_bytes(n, "big")


def decode_reversed_backward(buf, end: int) -> tuple[int, int]:
    """Decode the reversed varint whose last byte is at end-1.

    Returns (value, consumed); the caller steps its cursor back by
    consumed.
    """
    if end <= 0 or end > len(buf):
        raise TruncatedVarInt("cursor outside buffer")
    tag = buf[end - 1] & 0x03
    n = _CLASS_LEN[tag]
    if end - n < 0:
        raise TruncatedVarInt(f"need {n} bytes, have {end}")
    return int.from_bytes(buf[end - n : end], "big") >> 2, n


def forward_length(v: int) -> int:
    """Serialized size of v (budget planning). The codecs share their
    class boundaries, so this is reversed_length too."""
    return _CLASS_LEN[_length_class(v)]


reversed_length = forward_length
