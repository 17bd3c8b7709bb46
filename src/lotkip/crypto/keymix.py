"""Two-phase per-packet key mixing.

Phase 1 folds the temporal key, the transmitter address, and the upper
32 bits of the packet counter into an 80-bit intermediate key (five 16-bit
words) that stays valid for a whole 2^16-packet counter epoch.  Phase 2
mixes that intermediate key with the low 16 counter bits into the 16-byte
RC4 seed whose first three bytes travel in clear as the WEP IV.
"""

from __future__ import annotations

import struct

# Loop bound of the phase 1 mixing loop.
PHASE1_LOOP_COUNT = 8

# Combined substitution table: S(v) = TKIP_SBOX[lo8(v)] ^ byteswap(TKIP_SBOX[hi8(v)]).
# Invertible as a map on 16-bit values.
TKIP_SBOX = (
    0xC6A5, 0xF884, 0xEE99, 0xF68D, 0xFF0D, 0xD6BD, 0xDEB1, 0x9154,
    0x6050, 0x0203, 0xCEA9, 0x567D, 0xE719, 0xB562, 0x4DE6, 0xEC9A,
    0x8F45, 0x1F9D, 0x8940, 0xFA87, 0xEF15, 0xB2EB, 0x8EC9, 0xFB0B,
    0x41EC, 0xB367, 0x5FFD, 0x45EA, 0x23BF, 0x53F7, 0xE496, 0x9B5B,
    0x75C2, 0xE11C, 0x3DAE, 0x4C6A, 0x6C5A, 0x7E41, 0xF502, 0x834F,
    0x685C, 0x51F4, 0xD134, 0xF908, 0xE293, 0xAB73, 0x6253, 0x2A3F,
    0x080C, 0x9552, 0x4665, 0x9D5E, 0x3028, 0x37A1, 0x0A0F, 0x2FB5,
    0x0E09, 0x2436, 0x1B9B, 0xDF3D, 0xCD26, 0x4E69, 0x7FCD, 0xEA9F,
    0x121B, 0x1D9E, 0x5874, 0x342E, 0x362D, 0xDCB2, 0xB4EE, 0x5BFB,
    0xA4F6, 0x764D, 0xB761, 0x7DCE, 0x527B, 0xDD3E, 0x5E71, 0x1397,
    0xA6F5, 0xB968, 0x0000, 0xC12C, 0x4060, 0xE31F, 0x79C8, 0xB6ED,
    0xD4BE, 0x8D46, 0x67D9, 0x724B, 0x94DE, 0x98D4, 0xB0E8, 0x854A,
    0xBB6B, 0xC52A, 0x4FE5, 0xED16, 0x86C5, 0x9AD7, 0x6655, 0x1194,
    0x8ACF, 0xE910, 0x0406, 0xFE81, 0xA0F0, 0x7844, 0x25BA, 0x4BE3,
    0xA2F3, 0x5DFE, 0x80C0, 0x058A, 0x3FAD, 0x21BC, 0x7048, 0xF104,
    0x63DF, 0x77C1, 0xAF75, 0x4263, 0x2030, 0xE51A, 0xFD0E, 0xBF6D,
    0x814C, 0x1814, 0x2635, 0xC32F, 0xBEE1, 0x35A2, 0x88CC, 0x2E39,
    0x9357, 0x55F2, 0xFC82, 0x7A47, 0xC8AC, 0xBAE7, 0x322B, 0xE695,
    0xC0A0, 0x1998, 0x9ED1, 0xA37F, 0x4466, 0x547E, 0x3BAB, 0x0B83,
    0x8CCA, 0xC729, 0x6BD3, 0x283C, 0xA779, 0xBCE2, 0x161D, 0xAD76,
    0xDB3B, 0x6456, 0x744E, 0x141E, 0x92DB, 0x0C0A, 0x486C, 0xB8E4,
    0x9F5D, 0xBD6E, 0x43EF, 0xC4A6, 0x39A8, 0x31A4, 0xD337, 0xF28B,
    0xD532, 0x8B43, 0x6E59, 0xDAB7, 0x018C, 0xB164, 0x9CD2, 0x49E0,
    0xD8B4, 0xACFA, 0xF307, 0xCF25, 0xCAAF, 0xF48E, 0x47E9, 0x1018,
    0x6FD5, 0xF088, 0x4A6F, 0x5C72, 0x3824, 0x57F1, 0x73C7, 0x9751,
    0xCB23, 0xA17C, 0xE89C, 0x3E21, 0x96DD, 0x61DC, 0x0D86, 0x0F85,
    0xE090, 0x7C42, 0x71C4, 0xCCAA, 0x90D8, 0x0605, 0xF701, 0x1C12,
    0xC2A3, 0x6A5F, 0xAEF9, 0x69D0, 0x1791, 0x9958, 0x3A27, 0x27B9,
    0xD938, 0xEB13, 0x2BB3, 0x2233, 0xD2BB, 0xA970, 0x0789, 0x33A7,
    0x2DB6, 0x3C22, 0x1592, 0xC920, 0x8749, 0xAAFF, 0x5078, 0xA57A,
    0x038F, 0x59F8, 0x0980, 0x1A17, 0x65DA, 0xD731, 0x84C6, 0xD0B8,
    0x82C3, 0x29B0, 0x5A77, 0x1E11, 0x7BCB, 0xA8FC, 0x6DD6, 0x2C3A,
)


# TKIP_SBOX with the bytes of each entry swapped, so that
# S(v) = TKIP_SBOX[lo8(v)] ^ _SBOX_SWAPPED[hi8(v)] is two lookups.
_SBOX_SWAPPED = tuple(((v & 0xFF) << 8) | (v >> 8) for v in TKIP_SBOX)

# The temporal key as eight little-endian 16-bit words: word n is
# Mk16(TK[2n+1], TK[2n]).
_TK_WORDS = struct.Struct("<8H")
# The RC4 seed: the three WEP IV bytes, one byte derived from P5, then
# P0..P5 as little-endian 16-bit words.
_SEED = struct.Struct("<4B6H")


def _tk_words(tk: bytes) -> tuple[int, ...]:
    if len(tk) != 16:
        raise ValueError(f"temporal key must be 16 bytes, got {len(tk)}")
    return _TK_WORDS.unpack(tk)


def phase1_mix(tk: bytes, ta: bytes, tsc_hi: int) -> tuple[int, int, int, int, int]:
    """Intermediate key from (TK, TA, upper 32 counter bits).

    Pure in its arguments, so the result can be cached for an entire
    low-16-bit counter epoch.
    """
    k = _tk_words(tk)
    if len(ta) != 6:
        raise ValueError(f"transmitter address must be 6 bytes, got {len(ta)}")
    if not 0 <= tsc_hi <= 0xFFFFFFFF:
        raise ValueError("tsc_hi must be a 32-bit value")

    t0 = tsc_hi & 0xFFFF
    t1 = tsc_hi >> 16
    t2, t3, t4 = struct.unpack("<3H", ta)

    lo, hi = TKIP_SBOX, _SBOX_SWAPPED
    # even rounds use TK words 0, 2, 4, 6 and odd rounds 1, 3, 5, 7
    even, odd = k[0::2], k[1::2]
    for i in range(PHASE1_LOOP_COUNT):
        a, b, c, d = odd if i & 1 else even
        v = t4 ^ a
        t0 = (t0 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
        v = t0 ^ b
        t1 = (t1 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
        v = t1 ^ c
        t2 = (t2 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
        v = t2 ^ d
        t3 = (t3 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
        v = t3 ^ a
        t4 = (t4 + (lo[v & 0xFF] ^ hi[v >> 8]) + i) & 0xFFFF
    return t0, t1, t2, t3, t4


def phase2_mix(ttak: tuple[int, int, int, int, int], tk: bytes, tsc_lo: int) -> bytes:
    """16-byte RC4 seed for one packet; bytes 0-2 are the on-air WEP IV."""
    k0, k1, k2, k3, k4, k5, k6, k7 = _tk_words(tk)
    if len(ttak) != 5:
        raise ValueError("ttak must hold five 16-bit words")
    if not 0 <= tsc_lo <= 0xFFFF:
        raise ValueError("tsc_lo must be a 16-bit value")

    lo, hi = TKIP_SBOX, _SBOX_SWAPPED
    p0, p1, p2, p3, p4 = ttak
    p5 = (p4 + tsc_lo) & 0xFFFF
    v = p5 ^ k0
    p0 = (p0 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    v = p0 ^ k1
    p1 = (p1 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    v = p1 ^ k2
    p2 = (p2 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    v = p2 ^ k3
    p3 = (p3 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    v = p3 ^ k4
    p4 = (p4 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    v = p4 ^ k5
    p5 = (p5 + (lo[v & 0xFF] ^ hi[v >> 8])) & 0xFFFF
    # a 16-bit rotate right by one; v >> 1 and v << 15 share no bits, and
    # the final mask drops what v << 15 carries past bit 15
    v = p5 ^ k6
    p0 = (p0 + (v >> 1 | v << 15)) & 0xFFFF
    v = p0 ^ k7
    p1 = (p1 + (v >> 1 | v << 15)) & 0xFFFF
    p2 = (p2 + (p1 >> 1 | p1 << 15)) & 0xFFFF
    p3 = (p3 + (p2 >> 1 | p2 << 15)) & 0xFFFF
    p4 = (p4 + (p3 >> 1 | p3 << 15)) & 0xFFFF
    p5 = (p5 + (p4 >> 1 | p4 << 15)) & 0xFFFF

    # TSC1, then TSC1 with bit 5 set and bit 7 clear so the IV avoids the
    # weak-key classes; TSC0, then (P5 ^ TK0) >> 1
    tsc1 = tsc_lo >> 8
    return _SEED.pack(tsc1, (tsc1 | 0x20) & 0x7F, tsc_lo & 0xFF,
                      ((p5 ^ k0) >> 1) & 0xFF, p0, p1, p2, p3, p4, p5)
