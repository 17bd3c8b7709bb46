"""Two-phase key mixing: frozen vectors, structural invariants, substitution
table validation, and random equivalence against the reference module."""

import pytest

from lotkip.crypto import TKIP_SBOX, phase1_mix, phase2_mix
from lotkip.crypto.keymix import _SBOX_SWAPPED
from lotkip.reference import ref_phase1, ref_phase2, ref_sbox_table


def sbox16(v):
    """S(v) from the two tables phase 1 and phase 2 index."""
    return TKIP_SBOX[v & 0xFF] ^ _SBOX_SWAPPED[v >> 8]


def test_sbox_matches_field_derivation():
    # the embedded table must equal the one rebuilt from GF(2^8) arithmetic
    assert TKIP_SBOX == ref_sbox_table()


def test_sbox_is_invertible():
    assert len({sbox16(v) for v in range(1 << 16)}) == 1 << 16


def test_phase1_frozen_zero_vector():
    assert phase1_mix(bytes(16), bytes(6), 0) == \
        (0x06BF, 0x23C8, 0xD9F7, 0x59E5, 0x4E24)


def test_phase1_frozen_nontrivial_vector():
    tk = bytes(range(16))
    ta = bytes.fromhex("105027ab9c4d")
    assert phase1_mix(tk, ta, 0x01020304) == \
        (0x27A0, 0xCF43, 0x3EE2, 0xD31D, 0xCA13)


@pytest.mark.parametrize("phase1, phase2", [(phase1_mix, phase2_mix),
                                            (ref_phase1, ref_phase2)])
def test_ieee80211_key_mixing_known_answer(phase1, phase2):
    # IEEE 802.11 TKIP mixing test vector: TK = 00..0f,
    # TA = 10:22:33:44:55:66, IV32 = 0, IV16 = 0
    tk = bytes(range(16))
    p1k = phase1(tk, bytes.fromhex("102233445566"), 0)
    assert p1k == (0x3DD2, 0x016E, 0x76F4, 0x8697, 0xB2E8)
    assert phase2(p1k, tk, 0) == \
        bytes.fromhex("00200033EA8D2F60CA6D1374234A660B")


def test_phase1_deterministic():
    tk, ta = bytes(range(16)), bytes(6)
    assert phase1_mix(tk, ta, 99) == phase1_mix(tk, ta, 99)


def test_phase1_ignores_low_counter_bytes(rng):
    # counters that differ only in their low 16 bits share the upper half
    tk, ta = rng.randbytes(16), rng.randbytes(6)
    a = 0x123456780000
    b = 0x12345678FFFF
    assert a >> 16 == b >> 16
    assert phase1_mix(tk, ta, a >> 16) == phase1_mix(tk, ta, b >> 16)


def test_phase1_validation():
    with pytest.raises(ValueError):
        phase1_mix(bytes(15), bytes(6), 0)
    with pytest.raises(ValueError):
        phase1_mix(bytes(16), bytes(5), 0)
    with pytest.raises(ValueError):
        phase1_mix(bytes(16), bytes(6), 1 << 32)


def test_phase2_frozen_vectors():
    ttak = phase1_mix(bytes(16), bytes(6), 0)
    assert phase2_mix(ttak, bytes(16), 0) == \
        bytes.fromhex("002000430b9e0b2952764507efcf87dc")
    tk = bytes(range(16))
    ttak = phase1_mix(tk, bytes.fromhex("105027ab9c4d"), 0x01020304)
    assert phase2_mix(ttak, tk, 0xFFEE) == \
        bytes.fromhex("ff7feea1097016dc1d19d7a6e23743ec")


def test_seed_structure(rng):
    for _ in range(200):
        tk = rng.randbytes(16)
        ttak = phase1_mix(tk, rng.randbytes(6), rng.getrandbits(32))
        tsc_lo = rng.getrandbits(16)
        seed = phase2_mix(ttak, tk, tsc_lo)
        tsc0, tsc1 = tsc_lo & 0xFF, tsc_lo >> 8
        assert seed[0] == tsc1
        assert seed[1] == (tsc1 | 0x20) & 0x7F
        assert seed[2] == tsc0


def test_counter_bytes_are_direct_copies():
    ttak = phase1_mix(bytes(16), bytes(6), 0)
    a = phase2_mix(ttak, bytes(16), 0x0100)
    b = phase2_mix(ttak, bytes(16), 0x0101)
    assert (a[0], a[2]) == (0x01, 0x00)
    assert (b[0], b[2]) == (0x01, 0x01)


def test_phase2_validation():
    ttak = (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        phase2_mix(ttak, bytes(15), 0)
    with pytest.raises(ValueError):
        phase2_mix((0, 0, 0), bytes(16), 0)
    with pytest.raises(ValueError):
        phase2_mix(ttak, bytes(16), 1 << 16)


def test_cache_soundness(rng):
    # equal upper counter halves must give bit-identical phase 1 output
    for _ in range(100):
        tk, ta = rng.randbytes(16), rng.randbytes(6)
        hi = rng.getrandbits(32)
        lo_a, lo_b = rng.getrandbits(16), rng.getrandbits(16)
        a = (hi << 16) | lo_a
        b = (hi << 16) | lo_b
        assert phase1_mix(tk, ta, a >> 16) == phase1_mix(tk, ta, b >> 16)


def test_seed_drives_rc4_deterministically():
    # keystream of the all-zero phase 2 seed, frozen from the reference
    from lotkip.crypto import rc4_apply
    seed = phase2_mix(phase1_mix(bytes(16), bytes(6), 0), bytes(16), 0)
    assert rc4_apply(seed, bytes(10)) == bytes.fromhex("ac4f37fe2917773fa884")


def test_matches_reference_on_random_inputs(rng):
    for _ in range(300):
        tk, ta = rng.randbytes(16), rng.randbytes(6)
        tsc_hi, tsc_lo = rng.getrandbits(32), rng.getrandbits(16)
        ttak = phase1_mix(tk, ta, tsc_hi)
        assert ttak == ref_phase1(tk, ta, tsc_hi)
        assert phase2_mix(ttak, tk, tsc_lo) == ref_phase2(ttak, tk, tsc_lo)


def test_sbox16_matches_reference_on_every_value():
    from lotkip.reference import ref_sbox16
    assert [sbox16(v) for v in range(1 << 16)] == \
        [ref_sbox16(v) for v in range(1 << 16)]


def test_phase2_matches_reference_for_every_counter(rng):
    tk = rng.randbytes(16)
    ttak = tuple(rng.getrandbits(16) for _ in range(5))
    for tsc_lo in range(1 << 16):
        assert phase2_mix(ttak, tk, tsc_lo) == ref_phase2(ttak, tk, tsc_lo)
