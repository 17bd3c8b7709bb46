"""Two-phase per-packet key mixing.

Phase 1 folds the temporal key, the transmitter address, and the upper
32 bits of the packet counter into an 80-bit intermediate key (five 16-bit
words) that stays valid for a whole 2^16-packet counter epoch.  Phase 2
mixes that intermediate key with the low 16 counter bits into the 16-byte
RC4 seed whose first three bytes travel in clear as the WEP IV.
"""

from __future__ import annotations

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


def tkip_sbox16(v: int) -> int:
    left = TKIP_SBOX[v & 0xFF]
    right = TKIP_SBOX[(v >> 8) & 0xFF]
    return left ^ (((right & 0xFF) << 8) | (right >> 8))


def _mk16(x: int, y: int) -> int:
    return (256 * x + y) & 0xFFFF


def _rotr1(v: int) -> int:
    return ((v >> 1) | (v << 15)) & 0xFFFF


def _check_tk(tk: bytes) -> None:
    if len(tk) != 16:
        raise ValueError(f"temporal key must be 16 bytes, got {len(tk)}")


def phase1_mix(tk: bytes, ta: bytes, tsc_hi: int) -> tuple[int, int, int, int, int]:
    """Intermediate key from (TK, TA, upper 32 counter bits).

    Pure in its arguments, so the result can be cached for an entire
    low-16-bit counter epoch.
    """
    _check_tk(tk)
    if len(ta) != 6:
        raise ValueError(f"transmitter address must be 6 bytes, got {len(ta)}")
    if not 0 <= tsc_hi <= 0xFFFFFFFF:
        raise ValueError("tsc_hi must be a 32-bit value")

    tsc2 = tsc_hi & 0xFF
    tsc3 = (tsc_hi >> 8) & 0xFF
    tsc4 = (tsc_hi >> 16) & 0xFF
    tsc5 = tsc_hi >> 24

    t0 = _mk16(tsc3, tsc2)
    t1 = _mk16(tsc5, tsc4)
    t2 = _mk16(ta[1], ta[0])
    t3 = _mk16(ta[3], ta[2])
    t4 = _mk16(ta[5], ta[4])

    s = tkip_sbox16
    for i in range(PHASE1_LOOP_COUNT):
        j = 2 * (i & 1)
        t0 = (t0 + s(t4 ^ _mk16(tk[1 + j], tk[0 + j]))) & 0xFFFF
        t1 = (t1 + s(t0 ^ _mk16(tk[5 + j], tk[4 + j]))) & 0xFFFF
        t2 = (t2 + s(t1 ^ _mk16(tk[9 + j], tk[8 + j]))) & 0xFFFF
        t3 = (t3 + s(t2 ^ _mk16(tk[13 + j], tk[12 + j]))) & 0xFFFF
        t4 = (t4 + s(t3 ^ _mk16(tk[1 + j], tk[0 + j])) + i) & 0xFFFF
    return t0, t1, t2, t3, t4


def phase2_mix(ttak: tuple[int, int, int, int, int], tk: bytes, tsc_lo: int) -> bytes:
    """16-byte RC4 seed for one packet; bytes 0-2 are the on-air WEP IV."""
    _check_tk(tk)
    if len(ttak) != 5:
        raise ValueError("ttak must hold five 16-bit words")
    if not 0 <= tsc_lo <= 0xFFFF:
        raise ValueError("tsc_lo must be a 16-bit value")

    tsc0 = tsc_lo & 0xFF
    tsc1 = tsc_lo >> 8

    p0, p1, p2, p3, p4 = ttak
    p5 = (p4 + _mk16(tsc1, tsc0)) & 0xFFFF

    s = tkip_sbox16
    p0 = (p0 + s(p5 ^ _mk16(tk[1], tk[0]))) & 0xFFFF
    p1 = (p1 + s(p0 ^ _mk16(tk[3], tk[2]))) & 0xFFFF
    p2 = (p2 + s(p1 ^ _mk16(tk[5], tk[4]))) & 0xFFFF
    p3 = (p3 + s(p2 ^ _mk16(tk[7], tk[6]))) & 0xFFFF
    p4 = (p4 + s(p3 ^ _mk16(tk[9], tk[8]))) & 0xFFFF
    p5 = (p5 + s(p4 ^ _mk16(tk[11], tk[10]))) & 0xFFFF
    p0 = (p0 + _rotr1(p5 ^ _mk16(tk[13], tk[12]))) & 0xFFFF
    p1 = (p1 + _rotr1(p0 ^ _mk16(tk[15], tk[14]))) & 0xFFFF
    p2 = (p2 + _rotr1(p1)) & 0xFFFF
    p3 = (p3 + _rotr1(p2)) & 0xFFFF
    p4 = (p4 + _rotr1(p3)) & 0xFFFF
    p5 = (p5 + _rotr1(p4)) & 0xFFFF

    seed = bytearray(16)
    seed[0] = tsc1
    seed[1] = (tsc1 | 0x20) & 0x7F
    seed[2] = tsc0
    seed[3] = ((p5 ^ _mk16(tk[1], tk[0])) >> 1) & 0xFF
    for i, word in enumerate((p0, p1, p2, p3, p4, p5)):
        seed[4 + 2 * i] = word & 0xFF
        seed[5 + 2 * i] = word >> 8
    return bytes(seed)
