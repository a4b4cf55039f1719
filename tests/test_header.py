"""Short header encode/protect/unprotect/decode in both modes."""

import random

import pytest

from revquic import crypto, header
from revquic.errors import MalformedHeader, PacketTooShortForSampling, StreamIdOverflow
from revquic.header import ShortHeader
from revquic.mode import WireMode

KS = crypto.derive_keys(b"\x07" * 32, "c2s")


def padded(hdr_bytes: bytes, rng=None, payload_len: int = 48) -> bytearray:
    """Header plus enough pseudo-ciphertext to reach the sample window."""
    rng = rng or random.Random(0)
    return bytearray(hdr_bytes) + bytearray(rng.randbytes(payload_len))


class TestEncode:
    def test_baseline_minimal_length(self):
        h = ShortHeader(packet_number=0, pn_length=1)
        enc = header.encode_header(WireMode.BASELINE, h)
        assert len(enc) == 10
        assert header.header_length(WireMode.BASELINE, h) == 10

    def test_reverso_minimal_length(self):
        h = ShortHeader(packet_number=0, pn_length=1, stream_id=1, offset=0)
        enc = header.encode_header(WireMode.REVERSO, h)
        assert len(enc) == 12  # flags + dcid + pn + sid + offset

    def test_control_only_header(self):
        h = ShortHeader(packet_number=5, pn_length=1, stream_id=0, offset=0)
        enc = header.encode_header(WireMode.REVERSO, h)
        assert len(enc) == 12
        assert enc[9 + 1] == 0  # wire stream id byte: (0 << 2) | tag 0

    def test_flags_packing(self):
        h = ShortHeader(packet_number=300, pn_length=2, key_phase=1, stream_id=1, offset=0)
        enc = header.encode_header(WireMode.REVERSO, h)
        # form 0, fixed 1, spin 0, sid_len 00 (1 byte), key_phase 1, pn_len 01
        assert enc[0] == 0x40 | (1 << 2) | 0x01

    def test_wire_sid_low_bits_carry_offset_length(self):
        h = ShortHeader(packet_number=0, pn_length=1, stream_id=3, offset=0, off_length=4)
        enc = header.encode_header(WireMode.REVERSO, h)
        assert enc[9 + 1] == (3 << 2) | 3  # off_length tag = length - 1

    def test_stream_id_overflow(self):
        with pytest.raises(StreamIdOverflow):
            header.wire_sid_length(1 << 30)
        h = ShortHeader(packet_number=0, pn_length=1, stream_id=1 << 30, offset=0)
        with pytest.raises(StreamIdOverflow):
            header.encode_header(WireMode.REVERSO, h)

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

    def test_bad_dcid(self):
        h = ShortHeader(packet_number=0, pn_length=1, dcid=b"short")
        with pytest.raises(MalformedHeader):
            header.encode_header(WireMode.BASELINE, h)


class TestProtection:
    def test_protect_changes_only_protected_fields(self):
        rng = random.Random(2)
        for mode in (WireMode.BASELINE, WireMode.REVERSO):
            h = ShortHeader(
                packet_number=777,
                pn_length=3,
                dcid=rng.randbytes(8),
                stream_id=99,
                offset=1 << 20,
                off_length=4,
            )
            enc = header.encode_header(mode, h)
            pkt = padded(enc, rng)
            before = bytes(pkt)
            header.protect_header(mode, pkt, KS)
            changed = {i for i, (a, b) in enumerate(zip(before, pkt)) if a != b}
            field_end = len(enc)  # pn [+ sid + offset] end
            allowed = {0} | set(range(header.PN_OFFSET, field_end))
            assert changed <= allowed
            # dcid untouched, sample untouched
            assert pkt[1:9] == before[1:9]
            assert pkt[field_end:] == before[field_end:]
            # form bit never masked; fixed bit never masked in baseline
            assert (pkt[0] ^ before[0]) & 0x80 == 0
            if mode is WireMode.BASELINE:
                assert (pkt[0] ^ before[0]) & 0xE0 == 0

    def test_unprotect_restores_header_bytes(self):
        rng = random.Random(3)
        h = ShortHeader(packet_number=4096, pn_length=2, stream_id=12, offset=640, off_length=2)
        enc = header.encode_header(WireMode.REVERSO, h)
        pkt = padded(enc, rng)
        header.protect_header(WireMode.REVERSO, pkt, KS)
        assert bytes(pkt[: len(enc)]) != enc  # actually masked
        got, hlen = header.unprotect_and_decode(
            WireMode.REVERSO, pkt, KS, reference_pn=4095
        )
        assert hlen == len(enc)
        assert bytes(pkt[:hlen]) == enc  # mask is its own inverse
        assert (got.packet_number, got.stream_id, got.offset) == (4096, 12, 640)

    def test_round_trip_random_headers(self):
        rng = random.Random(0xD00D)
        for _ in range(10_000):
            mode = rng.choice((WireMode.BASELINE, WireMode.REVERSO))
            pn = rng.getrandbits(rng.choice((8, 16, 24, 30, 61)))
            pn_len = rng.randint(1, 4)
            sid = rng.getrandbits(rng.choice((4, 12, 20, 29)))
            offset = rng.getrandbits(rng.choice((6, 14, 22, 30, 61)))
            off_len = rng.randint(1, 4)
            h = ShortHeader(
                packet_number=pn,
                pn_length=pn_len,
                dcid=rng.randbytes(8),
                key_phase=rng.randint(0, 1),
                stream_id=sid,
                offset=offset,
                off_length=off_len,
            )
            enc = header.encode_header(mode, h)
            pkt = padded(enc, rng, payload_len=28)
            header.protect_header(mode, pkt, KS)
            got, hlen = header.unprotect_and_decode(mode, pkt, KS, reference_pn=max(pn - 1, 0))
            assert hlen == len(enc)
            assert got.packet_number == pn
            assert got.key_phase == h.key_phase
            assert got.dcid == h.dcid
            if mode is WireMode.REVERSO:
                assert got.stream_id == sid
                # the field is read whole: an offset wider than it comes
                # back as its low off_len bytes
                assert got.offset == offset & ((1 << 8 * off_len) - 1)

    def test_unknown_stream_expands_against_zero(self):
        h = ShortHeader(packet_number=1, pn_length=1, stream_id=42, offset=0)
        enc = header.encode_header(WireMode.REVERSO, h)
        pkt = padded(enc)
        header.protect_header(WireMode.REVERSO, pkt, KS)
        got, _ = header.unprotect_and_decode(WireMode.REVERSO, pkt, KS, reference_pn=0)
        assert got.offset == 0

    @pytest.mark.parametrize("offset, off_len", [(0, 1), (0x7E, 1), (0x7F, 2), (3945, 2),
                                                 ((1 << 24) - 2, 4), ((1 << 31) - 2, 4)])
    def test_offset_field_holds_the_whole_offset(self, offset, off_len):
        """encode_header sizes the offset field as build_packet does,
        from offset + 1 against 0, and unprotect_and_decode reads it
        whole, as the receiver does, with no reference to expand it
        against."""
        h = ShortHeader(packet_number=1, pn_length=1, stream_id=42, offset=offset)
        assert header.header_length(WireMode.REVERSO, h) == header.PN_OFFSET + 1 + 1 + off_len
        pkt = padded(header.encode_header(WireMode.REVERSO, h))
        header.protect_header(WireMode.REVERSO, pkt, KS)
        got, hlen = header.unprotect_and_decode(WireMode.REVERSO, pkt, KS, reference_pn=0)
        assert (got.offset, got.off_length, hlen) == (offset, off_len, header.PN_OFFSET + 2 + off_len)

    def test_too_short_for_sample(self):
        with pytest.raises(PacketTooShortForSampling):
            header.protect_header(WireMode.BASELINE, bytearray(36), KS)
        with pytest.raises(PacketTooShortForSampling):
            header.unprotect_and_decode(
                WireMode.BASELINE, bytearray(36), KS, 0
            )

    def test_sample_window_constants(self):
        # sample starts past the widest possible field region
        assert header.SAMPLE_OFFSET == header.PN_OFFSET + 12
        assert header.SAMPLE_LEN == 16
        assert header.MIN_PLAINTEXT + crypto.TAG_LEN >= header.SAMPLE_OFFSET + header.SAMPLE_LEN - header.PN_OFFSET


class TestMalformed:
    def craft(self, mode, mutate):
        h = ShortHeader(packet_number=9, pn_length=1, stream_id=1, offset=0)
        enc = bytearray(header.encode_header(mode, h))
        mutate(enc)
        pkt = padded(bytes(enc))
        header.protect_header(mode, pkt, KS)
        return pkt

    def test_form_bit_rejected(self):
        def set_form(enc):
            enc[0] |= 0x80

        pkt = self.craft(WireMode.REVERSO, set_form)
        with pytest.raises(MalformedHeader):
            header.unprotect_and_decode(WireMode.REVERSO, pkt, KS, 0)

    def test_fixed_bit_rejected(self):
        def clear_fixed(enc):
            enc[0] &= ~0x40

        pkt = self.craft(WireMode.REVERSO, clear_fixed)
        with pytest.raises(MalformedHeader):
            header.unprotect_and_decode(WireMode.REVERSO, pkt, KS, 0)

    def test_baseline_reserved_bits_rejected(self):
        def set_reserved(enc):
            enc[0] |= 0x18

        h = ShortHeader(packet_number=9, pn_length=1)
        enc = bytearray(header.encode_header(WireMode.BASELINE, h))
        set_reserved(enc)
        pkt = padded(bytes(enc))
        header.protect_header(WireMode.BASELINE, pkt, KS)
        with pytest.raises(MalformedHeader):
            header.unprotect_and_decode(WireMode.BASELINE, pkt, KS, 0)
