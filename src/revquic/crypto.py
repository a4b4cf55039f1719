"""Key schedule and truncated-length sizing.

The receive paths in endpoint call decrypt_into, which writes the
plaintext straight into its final place: the stream's storage at the
header's offset (the tail or an unreceived hole past it) on the
zero-copy lane, or the datagram's ciphertext region (aliased exactly)
on the in-place lane. decrypt_into is not atomic: a failed tag check
leaves unauthenticated bytes in the destination, neither the old
contents nor zeros. The receive paths therefore aim it only at a hole
past a stream's contiguous_offset that ends by the next received range,
or at the caller's datagram, so a forged packet can never touch stream
bytes already received. The sender seals in place with encrypt_into.
Both use the KeySchedule's AESGCM and the nonce IV XOR packet number,
and header protection uses its cached ECB context.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import KeyDerivationError, TruncationRangeError

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
        object.__setattr__(self, "_iv_int", int.from_bytes(self.payload_iv))


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


# --- truncated lengths ---
#
# A packet number travels as its 1..4 low bytes, fewest that let the
# receiver recover it: the candidate congruent to them nearest one past
# the largest it has seen (header.unprotect). The reverso header's
# offset field is sized the same way, from offset + 1 against 0, and
# then holds the whole offset.

# bytes by the bit length of the distance: 0-7 bits fit one byte's
# half-window, 8-15 two, 16-23 three, 24-31 four
_TRUNC_LEN = tuple((bits >> 3) + 1 for bits in range(32))


def truncated_len(full: int, reference: int) -> int:
    """Fewest low-order bytes (1..4) of full recoverable near reference,
    full >= reference: the half-window of that size must exceed full -
    reference. 2**31 or more ahead cannot be represented."""
    # one lookup: the sender sizes two fields of every packet with this
    try:
        return _TRUNC_LEN[(full - reference).bit_length()]
    except IndexError:
        raise TruncationRangeError(f"{full} is more than 2**31 ahead of {reference}") from None
