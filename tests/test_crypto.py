"""Key schedule, AEAD contract, mask PRF, packet-number truncation and
expansion."""

import pathlib
import random

import pytest

from cryptography.exceptions import InvalidTag

from revquic import crypto, header
from revquic.errors import KeyDerivationError, TruncationRangeError

from packets import nonce

GOLDEN = pathlib.Path(__file__).parent / "data" / "derive_keys_golden.txt"


def read_golden():
    fields = {}
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        fields[name] = bytes.fromhex(value)
    return fields


class TestDeriveKeys:
    def test_deterministic(self):
        a = crypto.derive_keys(b"\x11" * 32, "c2s")
        b = crypto.derive_keys(b"\x11" * 32, "c2s")
        assert (a.payload_key, a.payload_iv, a.hp_key) == (
            b.payload_key,
            b.payload_iv,
            b.hp_key,
        )

    def test_label_separation(self):
        a = crypto.derive_keys(b"\x22" * 32, "c2s")
        b = crypto.derive_keys(b"\x22" * 32, "s2c")
        values = [a.payload_key, a.payload_iv, a.hp_key, b.payload_key, b.payload_iv, b.hp_key]
        assert len(set(values)) == 6

    def test_golden_vector(self):
        want = read_golden()
        ks = crypto.derive_keys(b"\x00" * 32, "c2s")
        assert ks.payload_key == want["payload_key"]
        assert ks.payload_iv == want["payload_iv"]
        assert ks.hp_key == want["hp_key"]

    def test_wrong_secret_length(self):
        with pytest.raises(KeyDerivationError):
            crypto.derive_keys(b"\x00" * 31, "c2s")
        with pytest.raises(KeyDerivationError):
            crypto.derive_keys(b"\x00" * 33, "c2s")


class TestSealOpen:
    """The AEAD as both ends use it: the key schedule's AESGCM under the
    nonce IV XOR packet number, sealed with encrypt_into, opened with
    decrypt_into, in place as the receive lanes open."""

    def setup_method(self):
        self.ks = crypto.derive_keys(b"\x42" * 32, "c2s")

    def seal(self, pn, aad, pt):
        ct = bytearray(len(pt) + crypto.TAG_LEN)
        self.ks._aead.encrypt_into(nonce(self.ks, pn), pt, aad, ct)
        return ct

    def open(self, pn, aad, ct):
        out = bytearray(len(ct) - crypto.TAG_LEN)
        self.ks._aead.decrypt_into(nonce(self.ks, pn), bytes(ct), aad, out)
        return out

    def test_round_trip_sampled_lengths(self):
        rng = random.Random(13)
        for n in (0, 1, 2, 15, 16, 17, 64, 333, 1319, 4096):
            pt = rng.randbytes(n)
            aad = rng.randbytes(11)
            ct = self.seal(7, aad, pt)
            assert len(ct) == n + 16
            assert bytes(self.open(7, aad, ct)) == pt

    def test_nonce_uniqueness(self):
        pt = b"same plaintext"
        assert self.seal(1, b"", pt) != self.seal(2, b"", pt)

    def test_tampered_ciphertext(self):
        ct = self.seal(3, b"hdr", b"0123456789")
        for flip in (0, 9, 10, 25):  # body, body end, tag start, tag end
            bad = bytearray(ct)
            bad[flip] ^= 0x01
            with pytest.raises(InvalidTag):
                self.open(3, b"hdr", bad)

    def test_tampered_aad(self):
        ct = self.seal(3, b"hdr", b"0123456789")
        with pytest.raises(InvalidTag):
            self.open(3, b"hdR", ct)

    def test_wrong_packet_number(self):
        ct = self.seal(3, b"hdr", b"0123456789")
        with pytest.raises(InvalidTag):
            self.open(4, b"hdr", ct)

    def test_in_place_open(self):
        pt = bytes(range(100))
        buf = self.seal(9, b"a", pt)
        out_of_place = self.open(9, b"a", buf)
        # dest aliases the ciphertext region exactly
        view = memoryview(buf)
        self.ks._aead.decrypt_into(nonce(self.ks, 9), view, b"a", view[:100])
        assert buf[:100] == pt
        assert bytes(out_of_place) == pt


class TestHpMask:
    """The header-protection mask: the key schedule's cached AES-ECB
    context applied to a 16-byte sample."""

    def setup_method(self):
        self.ks = crypto.derive_keys(b"\x99" * 32, "s2c")

    def mask(self, sample):
        return self.ks._hp.update(sample)

    def test_deterministic(self):
        sample = bytes(range(16))
        assert self.mask(sample) == self.mask(sample)
        assert len(self.mask(sample)) == 16

    def test_matches_fresh_cipher(self):
        # the cached context must agree with a one-shot AES-ECB of the
        # sample under hp_key
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        sample = b"\xa5" * 16
        fresh = Cipher(algorithms.AES(self.ks.hp_key), modes.ECB()).encryptor()
        assert self.mask(sample) == fresh.update(sample)

    def test_no_collisions_over_random_samples(self):
        rng = random.Random(31337)
        seen = set()
        for _ in range(10_000):
            seen.add(self.mask(rng.randbytes(16)))
        assert len(seen) == 10_000

    def test_cached_context_is_stateless_per_block(self):
        # interleaving other samples must not perturb a repeated one
        s1 = b"\x01" * 16
        first = self.mask(s1)
        for i in range(50):
            self.mask(bytes([i]) * 16)
        assert self.mask(s1) == first


def oracle_expand(truncated: bytes, reference: int) -> int:
    """Exhaustive nearest-candidate search, ties upward, capped at 2**62."""
    win = 1 << (8 * len(truncated))
    t = int.from_bytes(truncated, "big")
    expected = reference + 1
    base = (expected // win) * win
    cands = [c for c in (base - win + t, base + t, base + win + t) if 0 <= c < (1 << 62)]
    return min(cands, key=lambda c: (abs(c - expected), -c))


HP_KS = crypto.derive_keys(b"\x17" * 32, "c2s")
_CIPHERTEXT = random.Random(17).randbytes(32)


def unprotect_pn(truncated: int, n: int, reference: int, reverso: bool, ciphertext=_CIPHERTEXT) -> int:
    """The packet number header.unprotect expands from the n-byte field
    truncated, written by header.pack_header and protected over
    ciphertext, against the largest number received, reference."""
    hdr_len = header.PN_OFFSET + n + (2 if reverso else 0)
    packet = bytearray(hdr_len) + ciphertext
    header.protect(packet, HP_KS, header.pack_header(reverso, truncated, n), hdr_len, reverso)
    return header.unprotect(packet, HP_KS, reference, reverso)[1]


def reference_truncated_len(full: int, reference: int) -> int:
    """The fewest bytes whose half-window exceeds full - reference."""
    return next(n for n in (1, 2, 3, 4) if full - reference < 1 << (8 * n - 1))


def pn_field(pn: int, n: int) -> bytes:
    """The n-byte packet-number field pack_header writes for pn."""
    return header.pack_header(False, pn, n).to_bytes(header.PN_OFFSET + n, "big")[header.PN_OFFSET :]


class TestTruncatedInts:
    """truncated_len, with which build_packet sizes the packet number,
    and the expansion header.unprotect applies to it."""

    def test_truncate_examples(self):
        assert pn_field(5, crypto.truncated_len(5, 4)) == b"\x05"
        assert pn_field(256, crypto.truncated_len(256, 0)) == b"\x01\x00"

    def test_encode_truncated_fixed_width(self):
        assert pn_field(0x0102030405, 2) == b"\x04\x05"
        assert pn_field(7, 4) == b"\x00\x00\x00\x07"

    def test_expand_examples(self):
        for reverso in (False, True):
            assert unprotect_pn(0x00, 1, 255, reverso) == 256
            assert unprotect_pn(0xFF, 1, 0, reverso) == 255

    def test_too_far_ahead(self):
        with pytest.raises(TruncationRangeError):
            crypto.truncated_len((1 << 31) + 5, 0)
        with pytest.raises(TruncationRangeError):
            crypto.truncated_len(1 << 40, 0)

    def test_truncated_len_matches_truncate(self):
        """The fewest bytes whose half-window exceeds the distance."""
        rng = random.Random(5)
        for _ in range(5000):
            ref = rng.getrandbits(40)
            full = ref + rng.getrandbits(30)
            assert crypto.truncated_len(full, ref) == reference_truncated_len(full, ref)

    def test_truncated_len_every_bit_length(self):
        """The bit-length lookup agrees with the reference at both ends
        of every distance of 0 to 31 bits, and refuses 2**31 on."""
        for bits in range(32):
            for span in {(1 << bits) - 1, 1 << bits >> 1}:  # the largest and the smallest
                assert span.bit_length() == bits
                for ref in (0, 12345, (1 << 40) + 7):
                    assert crypto.truncated_len(ref + span, ref) == reference_truncated_len(ref + span, ref)
        for span in (1 << 31, (1 << 31) + 1, 1 << 32, 1 << 62):
            with pytest.raises(TruncationRangeError):
                crypto.truncated_len(span + 9, 9)

    def test_round_trip_property(self):
        # forward distances spanning every size truncated_len picks
        rng = random.Random(1234)
        for i in range(20_000):
            ref = rng.getrandbits(rng.randrange(1, 61))
            full = ref + rng.getrandbits(rng.randrange(1, 31))
            if full >= 1 << 62:
                continue
            n = crypto.truncated_len(full, ref)
            assert unprotect_pn(full & ((1 << 8 * n) - 1), n, ref, i % 2 == 1) == full

    def test_expand_matches_oracle(self):
        rng = random.Random(4242)
        for i in range(20_000):
            n = rng.choice((1, 2, 3, 4))
            ref = rng.getrandbits(rng.choice((8, 16, 30, 61)))
            t = rng.getrandbits(8 * n)
            assert unprotect_pn(t, n, ref, i % 2 == 1) == oracle_expand(t.to_bytes(n, "big"), ref)

    @pytest.mark.parametrize("reverso", [False, True], ids=["baseline", "reverso"])
    def test_expand_next_number(self, reverso):
        """A field holding the low bytes of one past the largest received,
        the common case unprotect answers without the candidate tests,
        at every width: references at 0, at each window's edges and at
        the top of the range agree with the oracle, and below 2**62 the
        answer is that next number."""
        refs = {0, (1 << 62) - 2, (1 << 62) - 1}
        for n in (1, 2, 3, 4):
            win = 1 << (8 * n)
            refs |= {win // 2 - 1, win // 2, win - 2, win - 1, win, 2 * win - 1}
        for n in (1, 2, 3, 4):
            for ref in sorted(refs):
                t = (ref + 1) & ((1 << (8 * n)) - 1)
                got = unprotect_pn(t, n, ref, reverso)
                assert got == oracle_expand(t.to_bytes(n, "big"), ref)
                if ref + 1 < 1 << 62:
                    assert got == ref + 1

    def test_expand_never_negative_and_capped(self):
        for ref in (0, 1, (1 << 62) - 2, (1 << 62) - 1):
            for t, n in ((0x00, 1), (0xFF, 1), (0xFFFFFFFF, 4), (0, 4)):
                for reverso in (False, True):
                    assert 0 <= unprotect_pn(t, n, ref, reverso) < (1 << 62)
