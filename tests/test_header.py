"""Short header pack/protect/unprotect in both modes."""

import random

import pytest

from revquic import crypto, header
from revquic.errors import MalformedHeader, PacketTooShortForSampling, StreamIdOverflow

KS = crypto.derive_keys(b"\x07" * 32, "c2s")


def packed(reverso, pn, pn_len, sid=0, offset=0, off_len=1, dcid=0, key_phase=0) -> bytes:
    """The unprotected header pack_header builds, as bytes."""
    n = header.PN_OFFSET + pn_len + (header.wire_sid_length(sid) + off_len if reverso else 0)
    return header.pack_header(reverso, pn, pn_len, sid, offset, off_len, dcid, key_phase).to_bytes(n, "big")


def padded(hdr_bytes: bytes, rng=None, payload_len: int = 48) -> bytearray:
    """Header plus enough pseudo-ciphertext to reach the sample window."""
    rng = rng or random.Random(0)
    return bytearray(hdr_bytes) + bytearray(rng.randbytes(payload_len))


def protected(reverso, hdr_bytes: bytes, rng=None, payload_len: int = 48) -> bytearray:
    """hdr_bytes, masked by protect, over pseudo-ciphertext."""
    pkt = padded(hdr_bytes, rng, payload_len)
    header.protect(pkt, KS, int.from_bytes(hdr_bytes, "big"), len(hdr_bytes), reverso)
    return pkt


class TestEncode:
    def test_baseline_minimal_length(self):
        enc = packed(False, 0, 1)
        assert len(enc) == 10
        assert header.unprotect(protected(False, enc), KS, 0, False)[0] == 10

    def test_reverso_minimal_length(self):
        enc = packed(True, 0, 1, 1, 0)
        assert len(enc) == 12  # flags + dcid + pn + sid + offset
        assert header.unprotect(protected(True, enc), KS, 0, True)[0] == 12

    def test_control_only_header(self):
        enc = packed(True, 5, 1, 0, 0)
        assert len(enc) == 12
        assert enc[9 + 1] == 0  # wire stream id byte: (0 << 2) | tag 0

    def test_flags_packing(self):
        enc = packed(True, 300, 2, 1, 0, key_phase=1)
        # form 0, fixed 1, spin 0, sid_len 00 (1 byte), key_phase 1, pn_len 01
        assert enc[0] == 0x40 | (1 << 2) | 0x01

    def test_wire_sid_low_bits_carry_offset_length(self):
        enc = packed(True, 0, 1, 3, 0, off_len=4)
        assert enc[9 + 1] == (3 << 2) | 3  # off_length tag = length - 1

    def test_stream_id_overflow(self):
        with pytest.raises(StreamIdOverflow):
            header.wire_sid_length(1 << 30)
        with pytest.raises(StreamIdOverflow):
            header.pack_header(True, 0, 1, 1 << 30, 0)

    def test_wire_sid_length_boundaries(self):
        for sid, n in (
            (0, 1),
            ((1 << 6) - 1, 1),
            (1 << 6, 2),
            ((1 << 14) - 1, 2),
            (1 << 14, 3),
            ((1 << 22) - 1, 3),
            (1 << 22, 4),
            ((1 << 30) - 1, 4),
        ):
            assert header.wire_sid_length(sid) == n


class TestProtection:
    def test_protect_changes_only_protected_fields(self):
        rng = random.Random(2)
        for reverso in (False, True):
            enc = packed(reverso, 777, 3, 99, 1 << 20, 4, int.from_bytes(rng.randbytes(8), "big"))
            pkt = padded(enc, rng)
            before = bytes(pkt)
            header.protect(pkt, KS, int.from_bytes(enc, "big"), len(enc), reverso)
            changed = {i for i, (a, b) in enumerate(zip(before, pkt)) if a != b}
            field_end = len(enc)  # pn [+ sid + offset] end
            allowed = {0} | set(range(header.PN_OFFSET, field_end))
            assert changed <= allowed
            # dcid untouched, sample untouched
            assert pkt[1:9] == before[1:9]
            assert pkt[field_end:] == before[field_end:]
            # form bit never masked; fixed bit never masked in baseline
            assert (pkt[0] ^ before[0]) & 0x80 == 0
            if not reverso:
                assert (pkt[0] ^ before[0]) & 0xE0 == 0

    def test_unprotect_restores_header_bytes(self):
        rng = random.Random(3)
        enc = packed(True, 4096, 2, 12, 640, 2)
        pkt = protected(True, enc, rng)
        assert bytes(pkt[: len(enc)]) != enc  # actually masked
        hlen, pn, sid, offset = header.unprotect(pkt, KS, 4095, True)
        assert hlen == len(enc)
        assert bytes(pkt[:hlen]) == enc  # mask is its own inverse
        assert (pn, sid, offset) == (4096, 12, 640)

    def test_round_trip_random_headers(self):
        rng = random.Random(0xD00D)
        for _ in range(10_000):
            reverso = rng.choice((False, True))
            pn = rng.getrandbits(rng.choice((8, 16, 24, 30, 61)))
            pn_len = rng.randint(1, 4)
            sid = rng.getrandbits(rng.choice((4, 12, 20, 29)))
            offset = rng.getrandbits(rng.choice((6, 14, 22, 30, 61)))
            off_len = rng.randint(1, 4)
            dcid = int.from_bytes(rng.randbytes(8), "big")
            enc = packed(reverso, pn, pn_len, sid, offset, off_len, dcid, rng.randint(0, 1))
            pkt = protected(reverso, enc, rng, payload_len=28)
            hlen, got_pn, got_sid, got_off = header.unprotect(pkt, KS, max(pn - 1, 0), reverso)
            # the flags, key phase and dcid come back as written
            assert (hlen, bytes(pkt[:hlen])) == (len(enc), enc)
            assert got_pn == pn
            if reverso:
                assert got_sid == sid
                # the field is read whole: an offset wider than it comes
                # back as its low off_len bytes
                assert got_off == offset & ((1 << 8 * off_len) - 1)

    def test_unknown_stream_expands_against_zero(self):
        pkt = protected(True, packed(True, 1, 1, 42, 0))
        assert header.unprotect(pkt, KS, 0, True)[3] == 0

    @pytest.mark.parametrize("offset, off_len", [(0, 1), (0x7E, 1), (0x7F, 2), (3945, 2),
                                                 ((1 << 24) - 2, 4), ((1 << 31) - 2, 4)])
    def test_offset_field_holds_the_whole_offset(self, offset, off_len):
        """build_packet sizes the offset field from offset + 1 against
        0, and unprotect reads it whole, as the receiver does, with no
        reference to expand it against."""
        assert crypto.truncated_len(offset + 1, 0) == off_len
        pkt = protected(True, packed(True, 1, 1, 42, offset, off_len))
        hlen, _, _, got = header.unprotect(pkt, KS, 0, True)
        assert (got, hlen) == (offset, header.PN_OFFSET + 2 + off_len)

    def test_too_short_for_sample(self):
        with pytest.raises(PacketTooShortForSampling):
            header.protect(bytearray(36), KS, header.pack_header(False, 0, 1), 10, False)
        with pytest.raises(PacketTooShortForSampling):
            header.unprotect(bytearray(36), KS, 0, False)

    def test_sample_window_constants(self):
        # sample starts past the widest possible field region
        assert header.SAMPLE_OFFSET == header.PN_OFFSET + 12
        assert header.SAMPLE_LEN == 16
        assert header.MIN_PLAINTEXT + crypto.TAG_LEN >= header.SAMPLE_OFFSET + header.SAMPLE_LEN - header.PN_OFFSET


class TestMalformed:
    def craft(self, reverso, mutate, sid=1):
        enc = bytearray(packed(reverso, 9, 1, sid, 0))
        mutate(enc)
        return protected(reverso, bytes(enc))

    @pytest.mark.parametrize("reverso", [False, True], ids=["baseline", "reverso"])
    def test_form_bit_rejected(self, reverso):
        def set_form(enc):
            enc[0] |= 0x80

        pkt = self.craft(reverso, set_form, sid=int(reverso))
        with pytest.raises(MalformedHeader, match="form/fixed"):
            header.unprotect(pkt, KS, 0, reverso)

    @pytest.mark.parametrize("reverso", [False, True], ids=["baseline", "reverso"])
    def test_fixed_bit_rejected(self, reverso):
        def clear_fixed(enc):
            enc[0] &= ~0x40

        pkt = self.craft(reverso, clear_fixed, sid=int(reverso))
        with pytest.raises(MalformedHeader, match="form/fixed"):
            header.unprotect(pkt, KS, 0, reverso)

    def test_baseline_reserved_bits_rejected(self):
        def set_reserved(enc):
            enc[0] |= 0x18

        pkt = self.craft(False, set_reserved, sid=0)
        with pytest.raises(MalformedHeader):
            header.unprotect(pkt, KS, 0, False)
