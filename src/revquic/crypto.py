"""Key schedule, AEAD seal/open with caller-chosen destination, header
protection masks, and truncated-integer encode/expand.

seal encrypts straight into dest with AES-GCM encrypt_into; plaintext
may alias the start of dest exactly (the sender seals in place).

open is atomic: it either writes the whole plaintext into dest and
returns its length, or raises AuthenticationFailed having written
nothing. It uses the one-shot decrypt, which checks the tag before any
output exists, and then copies the plaintext into dest; inspection
tools and demos use it, the receive paths do not.

The receive paths in endpoint call decrypt_into, which writes the
plaintext straight into its final place: the stream's storage at the
header's offset (the tail or an unreceived hole past it) on the
zero-copy lane, or the datagram's ciphertext region (aliased exactly)
on the in-place lane. decrypt_into is not atomic: a failed tag check
leaves unauthenticated bytes in the destination, neither the old
contents nor zeros. The receive paths therefore aim it only at a hole
past a stream's contiguous_offset that ends by the next received range,
or at the caller's datagram, so a forged packet can never touch stream
bytes already received.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.exceptions import InvalidTag

from .errors import (
    AuthenticationFailed,
    BufferTooSmall,
    KeyDerivationError,
    TruncationRangeError,
)

TAG_LEN = 16
SECRET_LEN = 32
_KDF_OUT = 32 + 12 + 32


@dataclass(frozen=True)
class KeySchedule:
    """One direction's keys: AEAD key + IV and the header-protection key."""

    payload_key: bytes
    payload_iv: bytes
    hp_key: bytes

    def __post_init__(self):
        object.__setattr__(self, "_aead", AESGCM(self.payload_key))
        # ECB of the sample is stateless per block, so one cipher context
        # serves every mask; constructing one per packet costs ~10x.
        hp = Cipher(algorithms.AES(self.hp_key), modes.ECB()).encryptor()
        object.__setattr__(self, "_hp", hp)
        object.__setattr__(self, "_iv_int", int.from_bytes(self.payload_iv, "big"))


def derive_keys(shared_secret: bytes, label: str) -> KeySchedule:
    """Derive one direction's KeySchedule from a 32-byte shared secret.

    Deterministic extract-then-expand, info bound to the direction label,
    so the two directions of a connection never share key material.
    """
    if len(shared_secret) != SECRET_LEN:
        raise KeyDerivationError(f"secret must be {SECRET_LEN} bytes, got {len(shared_secret)}")
    okm = HKDF(
        algorithm=hashes.SHA256(),
        length=_KDF_OUT,
        salt=b"",
        info=label.encode(),
    ).derive(shared_secret)
    return KeySchedule(payload_key=okm[:32], payload_iv=okm[32:44], hp_key=okm[44:])


def _nonce(ks: KeySchedule, packet_number: int) -> bytes:
    # IV XOR packet number, number right-aligned
    return (ks._iv_int ^ packet_number).to_bytes(12, "big")


def seal(ks: KeySchedule, packet_number: int, aad: bytes, plaintext, dest) -> int:
    """Encrypt plaintext into dest; returns ciphertext length (pt + 16)."""
    n = len(plaintext) + TAG_LEN
    if n > len(dest):
        raise BufferTooSmall(f"dest {len(dest)} < ciphertext {n}")
    # slice through a view: a bytearray slice is a temporary copy, and
    # the ciphertext written into it would be lost
    ks._aead.encrypt_into(_nonce(ks, packet_number), plaintext, aad, memoryview(dest)[:n])
    return n


def open(ks: KeySchedule, packet_number: int, aad: bytes, ciphertext, dest) -> int:
    """Decrypt ciphertext into dest; returns plaintext length.

    Raises AuthenticationFailed without touching dest if the tag, aad,
    nonce, or ciphertext were altered.
    """
    try:
        pt = ks._aead.decrypt(_nonce(ks, packet_number), ciphertext, aad)
    except InvalidTag:
        raise AuthenticationFailed("AEAD tag check failed") from None
    if len(pt) > len(dest):
        raise BufferTooSmall(f"dest {len(dest)} < plaintext {len(pt)}")
    dest[: len(pt)] = pt
    return len(pt)


def hp_mask(ks: KeySchedule, sample: bytes) -> bytes:
    """16-byte header-protection mask: keyed PRF of a ciphertext sample.

    Baseline consumes the first 5 bytes, reverso the first 13.
    """
    if len(sample) != 16:
        raise ValueError(f"sample must be 16 bytes, got {len(sample)}")
    return ks._hp.update(sample)


# --- truncated integers (packet numbers and reverso offsets) ---
#
# A sender writes only the 1..4 low bytes of a full value; the receiver
# reconstructs it as the candidate congruent to the truncated bytes that
# lies nearest reference+1. Same window algebra as packet-number
# protection in standard QUIC.

def truncate_int(full: int, reference: int) -> bytes:
    """Emit the fewest low-order bytes (1..4) recoverable near reference.

    The emitted size's half-window must exceed the forward distance
    full - reference; more than 2**31 ahead cannot be represented.
    """
    if full < 0:
        raise TruncationRangeError("value must be non-negative")
    return encode_truncated(full, truncated_len(full, reference))


def truncated_len(full: int, reference: int) -> int:
    """Length truncate_int would emit, for header budget planning."""
    # unrolled: the sender sizes two fields of every packet with this
    span = full - reference
    if span < 0x80:
        return 1
    if span < 0x8000:
        return 2
    if span < 0x800000:
        return 3
    if span < 0x80000000:
        return 4
    raise TruncationRangeError(f"{full} is more than 2**31 ahead of {reference}")


def encode_truncated(full: int, n: int) -> bytes:
    """Low n bytes of full, for a caller that fixed the length itself."""
    return (full & ((1 << (8 * n)) - 1)).to_bytes(n, "big")


def expand_int(truncated: bytes, reference: int) -> int:
    """Reconstruct the full value from its low bytes.

    Picks the value congruent to the truncated bytes modulo 2**(8*len)
    closest to reference+1, never negative, capped below 2**62. Ties at
    exactly half a window resolve upward.
    """
    n = len(truncated)
    expected = reference + 1
    win = 1 << (8 * n)
    hwin = win >> 1
    candidate = (expected & ~(win - 1)) | int.from_bytes(truncated, "big")
    if candidate <= expected - hwin and candidate < (1 << 62) - win:
        candidate += win
    elif candidate > expected + hwin and candidate >= win:
        candidate -= win
    if candidate >= 1 << 62:
        candidate -= win
    return candidate
