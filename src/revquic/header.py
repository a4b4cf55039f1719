"""Short packet header: pack, protect, unprotect.

Layout (byte offsets):

    0        flags: form(0) | fixed(1) | spin(0) | sid_len(2) | key_phase(1) | pn_len(2)
    1..8     destination connection id, fixed 8 bytes
    9..      truncated packet number, 1..4 bytes
    then, reverso mode only:
             wire stream id, 1..4 bytes: (stream_id << 2) | off_len_tag
             offset, 1..4 bytes, the whole offset

The sid_len bits are reserved (00) in baseline mode. Length tags store
length minus one. The wire stream id is the full (untruncated) id; its
low 2 bits give the offset field's length. In reverso the header is the
one locator of the packet's stream data: the anchor frame carries no
stream id or offset, and the header, the AEAD's associated data, is
authenticated with the payload. The offset field is the whole offset:
build_packet sizes it from offset + 1 against 0, and unprotect returns
it as it stands and never expands it.

Header protection XORs flags' low bits (5 in baseline, 7 in reverso) and
every byte of the variable fields with a mask derived from a fixed-offset
ciphertext sample. The sample starts at pn_offset + 12, past the largest
possible protected region (4+4+4), so both modes share one code path and
the mask never covers its own sample. Builders must pad plaintexts so
ciphertexts reach the sample window.

Both directions XOR the mask into the header as big-endian integers:
protect on the sender, which knows the header length, and unprotect on
the receiver, which unmasks the maximal window because it learns the
lengths only from the unmasked flags.
pack_header builds the unprotected header as that integer, one
expression per layout; the sender seals with its bytes as associated
data and protect writes it, masked, into the packet in one step.

unprotect expands the truncated packet number to the candidate nearest
one past the largest received (RFC 9000, Appendix A.3). It first forms
the candidate with the field in the low bytes of largest + 1. When that
candidate is largest + 1 itself, the packet is the next one, as almost
every packet on an orderly path is, and below 2**62 it is the answer
with no further test: the A.3 comparisons can only move a candidate
that lies a half-window or more from largest + 1, or one at 2**62 or
above. Every other packet runs the A.3 tests unchanged.
"""

from __future__ import annotations

from . import crypto
from .errors import MalformedHeader, PacketTooShortForSampling, StreamIdOverflow

DCID_LEN = 8
PN_OFFSET = 1 + DCID_LEN
SAMPLE_OFFSET = PN_OFFSET + 12
SAMPLE_LEN = 16
# minimum plaintext a builder must produce so every packet is samplable
MIN_PLAINTEXT = 28
MAX_STREAM_ID = (1 << 30) - 1

_FIXED_BIT = 0x40
_BASELINE_FLAG_MASK = 0x1F
_REVERSO_FLAG_MASK = 0x7F
# field-window masks by encoded length in bytes
_WMASK = (0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF)
_MIN_PACKET = SAMPLE_OFFSET + SAMPLE_LEN
# the sample, and the maximal window of fields after the dcid that
# unprotect unmasks, as slices bound once
_SAMPLE = slice(SAMPLE_OFFSET, _MIN_PACKET)
_FIELDS = slice(PN_OFFSET, SAMPLE_OFFSET)
# bytes to integers big-endian, the default order, through one global
_from_bytes = int.from_bytes


def wire_sid_length(stream_id: int) -> int:
    """Bytes needed for (stream_id << 2) | tag, always minimal."""
    if stream_id < 0 or stream_id > MAX_STREAM_ID:
        raise StreamIdOverflow(f"stream id {stream_id} outside [0, 2**30)")
    return 1 if stream_id < 1 << 6 else 2 if stream_id < 1 << 14 else 3 if stream_id < 1 << 22 else 4


def pack_header(
    reverso: bool, pn: int, pn_len: int, stream_id: int = 0, offset: int = 0,
    off_len: int = 1, dcid: int = 0, key_phase: int = 0, sid_len: int = 0,
) -> int:
    """The unprotected header as one integer of PN_OFFSET + pn_len bytes
    (+ sid_len + off_len in reverso): flags, dcid, the packet number's low
    pn_len bytes and, in reverso, the wire stream id and the offset's low
    off_len bytes. sid_len, if given, is wire_sid_length(stream_id).
    Each layout is one expression; the dcid is 8 bytes, 64 bits."""
    if reverso:
        sid_len = sid_len or wire_sid_length(stream_id)
        return (
            ((_FIXED_BIT | (sid_len - 1) << 3 | (key_phase & 1) << 2 | (pn_len - 1)) << 64 | dcid)
            << ((pn_len + sid_len + off_len) << 3)
            | (pn & _WMASK[pn_len]) << ((sid_len + off_len) << 3)
            | (stream_id << 2 | (off_len - 1)) << (off_len << 3)
            | offset & _WMASK[off_len]
        )
    return ((_FIXED_BIT | (key_phase & 1) << 2 | (pn_len - 1)) << 64 | dcid) << (pn_len << 3) | pn & _WMASK[pn_len]


def protect(packet, ks: crypto.KeySchedule, hdr: int, hdr_len: int, reverso: bool) -> None:
    """Write header hdr, pack_header's integer of hdr_len bytes, masked
    into packet[:hdr_len] (sender side) in one step: the flags' low bits
    take mask[0], the fields after the dcid mask[1:] as one integer
    window. The mask is sampled from the ciphertext, so the packet must
    already hold the sealed payload past hdr_len.
    """
    if len(packet) < _MIN_PACKET:
        raise PacketTooShortForSampling(
            f"packet of {len(packet)} bytes cannot reach the sample window"
        )
    mask = ks._hp.update(packet[_SAMPLE])
    packet[:hdr_len] = (
        hdr
        ^ (mask[0] & (_REVERSO_FLAG_MASK if reverso else _BASELINE_FLAG_MASK)) << ((hdr_len - 1) << 3)
        ^ _from_bytes(mask[1 : hdr_len - DCID_LEN])
    ).to_bytes(hdr_len)


def _hdr_geometry(reverso: bool):
    """Field arithmetic for each value of the protected flag bits.

    Binding the per-length shifts and masks to one tuple load keeps the
    receive path free of recomputing them packet by packet. pnmask,
    -(1 << 8 * pn_len), clears the packet number's truncated bytes; its
    negation is the window the expansion steps by.
    """
    rows = []
    # baseline's table is indexed by the pn-length bits alone
    for fl in range(32 if reverso else 4):
        pn_len = (fl & 0x03) + 1
        sid_len = ((fl >> 3) & 0x03) + 1
        pnmask = -(1 << (pn_len << 3))
        if reverso:
            lead = pn_len + sid_len
            sh_sid = (12 - lead) << 3  # shift placing the wire stream id at bit 0
            # keyed by the offset-length bits of the wire stream id:
            # header length, length of the fields after the dcid, shift
            # placing the offset at bit 0, shift placing the pn at bit 0,
            # the offset's mask
            by_off = tuple(
                (PN_OFFSET + lead + n, lead + n, sh_sid - (n << 3), (sid_len + n) << 3, _WMASK[n])
                for n in (1, 2, 3, 4)
            )
            rows.append((sh_sid, _WMASK[sid_len], pnmask, by_off))
        else:
            # pn length, header length, shift placing the pn at bit 0
            rows.append((pn_len, PN_OFFSET + pn_len, (12 - pn_len) << 3, pnmask))
    return tuple(rows)


_RV_HDR = _hdr_geometry(True)
_BL_HDR = _hdr_geometry(False)


def unprotect(packet, ks: crypto.KeySchedule, largest_pn: int, reverso: bool):
    """Remove protection in place and decode what the receiver routes on.

    Returns (header_length, packet_number, stream_id, offset); baseline
    headers carry no stream fields and report zeros for them. The packet
    number is expanded against largest_pn; the offset is returned as on
    the wire, the whole offset of the packet's stream data.
    Nothing here is authenticated yet: every field is attacker-controlled
    until the AEAD open over the unprotected header succeeds.
    """
    if len(packet) < _MIN_PACKET:
        raise PacketTooShortForSampling(
            f"packet of {len(packet)} bytes cannot reach the sample window"
        )
    mask = ks._hp.update(packet[_SAMPLE])
    # unmask the maximal field window in one pass; the header fields are
    # its top bytes, the rest is ciphertext short of the sample and
    # stays untouched
    w = _from_bytes(packet[_FIELDS]) ^ _from_bytes(mask[1:13])
    if reverso:
        flags = packet[0] ^ mask[0] & _REVERSO_FLAG_MASK
        if flags & 0xC0 != _FIXED_BIT:  # form 0, fixed 1
            raise MalformedHeader(f"bad form/fixed bits in flags 0x{flags:02x}")
        sh_sid, wm_sid, pnmask, by_off = _RV_HDR[flags & 0x1F]
        wire_sid = w >> sh_sid & wm_sid
        hdr_len, fields_len, sh_off, sh_pn, wm_off = by_off[wire_sid & 0x03]
        fields = w >> sh_off  # pn, wire stream id, offset
        pn_t = fields >> sh_pn
        sid = wire_sid >> 2
        off = fields & wm_off
    else:
        flags = packet[0] ^ mask[0] & _BASELINE_FLAG_MASK
        if flags & 0xD8 != _FIXED_BIT:  # form 0, fixed 1, sid_len 00
            if flags & 0xC0 != _FIXED_BIT:
                raise MalformedHeader(f"bad form/fixed bits in flags 0x{flags:02x}")
            raise MalformedHeader("reserved sid_length bits set in baseline mode")
        fields_len, hdr_len, sh_pn, pnmask = _BL_HDR[flags & 0x03]
        fields = pn_t = w >> sh_pn
        sid = off = 0
    # the unprotected header is the AEAD's associated data
    packet[0] = flags
    packet[PN_OFFSET:hdr_len] = fields.to_bytes(fields_len)
    # the candidate congruent to the truncated bytes nearest one past
    # the largest seen (RFC 9000, Appendix A.3). Mostly that is one past
    # the largest itself, which needs no further test below 2**62
    expected = largest_pn + 1
    pn = expected & pnmask | pn_t
    if pn != expected or pn >= 1 << 62:
        win = -pnmask
        hwin = win >> 1
        if pn <= expected - hwin and pn < (1 << 62) - win:
            pn += win
        elif pn > expected + hwin and pn >= win:
            pn -= win
        if pn >= 1 << 62:
            pn -= win
    return hdr_len, pn, sid, off
