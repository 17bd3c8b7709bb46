"""Independent reference implementations used for cross-validation.

Every primitive here is a second, deliberately separate expression of the
algorithms in ``lotkip.crypto``: the CRC is computed bit-by-bit from the
polynomial and checked against zlib, which the production code calls; RC4
is a keystream generator instead of an in-place buffer cipher; the
key-mixing substitution table is rebuilt from GF(2^8) arithmetic instead of
embedded literals; and Michael is a straight-line transcription. The test
suite and ``perfbench``'s output checks compare the production code
against these byte-for-byte; none of this module is imported by the
production code paths.
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Michael
# ---------------------------------------------------------------------------

def ref_michael_b(l: int, r: int) -> tuple[int, int]:
    """The b() mixing round, written out step by step."""
    r = r ^ (((l << 17) | (l >> 15)) & MASK32)
    l = (l + r) & MASK32
    r = r ^ (((l & 0x00FF00FF) << 8) | ((l & 0xFF00FF00) >> 8))
    l = (l + r) & MASK32
    r = r ^ (((l << 3) | (l >> 29)) & MASK32)
    l = (l + r) & MASK32
    r = r ^ ((l >> 2) | ((l << 30) & MASK32))
    l = (l + r) & MASK32
    return l, r


def ref_michael_pad(message: bytes) -> list[int]:
    padded = bytearray(message)
    padded.append(0x5A)
    while len(padded) % 4:
        padded.append(0x00)
    padded.extend(b"\x00\x00\x00\x00")
    return [
        padded[i] | padded[i + 1] << 8 | padded[i + 2] << 16 | padded[i + 3] << 24
        for i in range(0, len(padded), 4)
    ]


def ref_michael_mic(key: bytes, sa: bytes, da: bytes, priority: int,
                    iv: int | None, data: bytes) -> bytes:
    """Tag over da || sa || priority || 3 zero bytes || [iv] || data."""
    message = bytearray()
    message += da
    message += sa
    message.append(priority)
    message += b"\x00\x00\x00"
    if iv is not None:
        message += bytes((iv >> (8 * k)) & 0xFF for k in range(6))
    message += data
    l = key[0] | key[1] << 8 | key[2] << 16 | key[3] << 24
    r = key[4] | key[5] << 8 | key[6] << 16 | key[7] << 24
    for word in ref_michael_pad(bytes(message)):
        l ^= word
        l, r = ref_michael_b(l, r)
    return bytes(((l >> (8 * k)) & 0xFF) for k in range(4)) + \
        bytes(((r >> (8 * k)) & 0xFF) for k in range(4))


# ---------------------------------------------------------------------------
# CRC-32 (bitwise, straight from the reversed polynomial 0xEDB88320)
# ---------------------------------------------------------------------------

def ref_crc32(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def ref_crc32_bytes(data: bytes) -> bytes:
    value = ref_crc32(data)
    return bytes((value >> (8 * k)) & 0xFF for k in range(4))


# ---------------------------------------------------------------------------
# Key-mixing substitution table, rebuilt from field arithmetic
# ---------------------------------------------------------------------------

def _gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return product


def _aes_sbox() -> list[int]:
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    box = []
    for x in range(256):
        q = inverse[x]
        f = q
        for _ in range(4):
            q = ((q << 1) | (q >> 7)) & 0xFF
            f ^= q
        box.append(f ^ 0x63)
    return box


def _build_sbox_rows() -> tuple[list[int], list[int]]:
    base = _aes_sbox()
    row0 = [(_gf_mul(2, s) << 8) | _gf_mul(3, s) for s in base]
    row1 = [((v & 0xFF) << 8) | (v >> 8) for v in row0]
    return row0, row1


_SBOX_ROW0, _SBOX_ROW1 = _build_sbox_rows()


def ref_sbox16(v: int) -> int:
    return _SBOX_ROW0[v & 0xFF] ^ _SBOX_ROW1[(v >> 8) & 0xFF]


def ref_sbox_table() -> tuple[int, ...]:
    """The combined 256-entry row as the production code embeds it."""
    return tuple(_SBOX_ROW0)


# ---------------------------------------------------------------------------
# Two-phase key mixing
# ---------------------------------------------------------------------------

def _mk16(x: int, y: int) -> int:
    return (256 * x + y) & 0xFFFF


def ref_phase1(tk: bytes, ta: bytes, tsc_hi: int) -> tuple[int, ...]:
    tsc2 = tsc_hi & 0xFF
    tsc3 = (tsc_hi >> 8) & 0xFF
    tsc4 = (tsc_hi >> 16) & 0xFF
    tsc5 = (tsc_hi >> 24) & 0xFF
    ttak = [
        _mk16(tsc3, tsc2),
        _mk16(tsc5, tsc4),
        _mk16(ta[1], ta[0]),
        _mk16(ta[3], ta[2]),
        _mk16(ta[5], ta[4]),
    ]
    for i in range(8):
        j = 2 * (i & 1)
        ttak[0] = (ttak[0] + ref_sbox16(ttak[4] ^ _mk16(tk[1 + j], tk[0 + j]))) & 0xFFFF
        ttak[1] = (ttak[1] + ref_sbox16(ttak[0] ^ _mk16(tk[5 + j], tk[4 + j]))) & 0xFFFF
        ttak[2] = (ttak[2] + ref_sbox16(ttak[1] ^ _mk16(tk[9 + j], tk[8 + j]))) & 0xFFFF
        ttak[3] = (ttak[3] + ref_sbox16(ttak[2] ^ _mk16(tk[13 + j], tk[12 + j]))) & 0xFFFF
        ttak[4] = (ttak[4] + ref_sbox16(ttak[3] ^ _mk16(tk[1 + j], tk[0 + j])) + i) & 0xFFFF
    return tuple(ttak)


def ref_phase2(ttak: tuple[int, ...], tk: bytes, tsc_lo: int) -> bytes:
    tsc0 = tsc_lo & 0xFF
    tsc1 = (tsc_lo >> 8) & 0xFF

    def rotr1(v: int) -> int:
        return ((v >> 1) | (v << 15)) & 0xFFFF

    ppk = [ttak[0], ttak[1], ttak[2], ttak[3], ttak[4],
           (ttak[4] + _mk16(tsc1, tsc0)) & 0xFFFF]

    ppk[0] = (ppk[0] + ref_sbox16(ppk[5] ^ _mk16(tk[1], tk[0]))) & 0xFFFF
    ppk[1] = (ppk[1] + ref_sbox16(ppk[0] ^ _mk16(tk[3], tk[2]))) & 0xFFFF
    ppk[2] = (ppk[2] + ref_sbox16(ppk[1] ^ _mk16(tk[5], tk[4]))) & 0xFFFF
    ppk[3] = (ppk[3] + ref_sbox16(ppk[2] ^ _mk16(tk[7], tk[6]))) & 0xFFFF
    ppk[4] = (ppk[4] + ref_sbox16(ppk[3] ^ _mk16(tk[9], tk[8]))) & 0xFFFF
    ppk[5] = (ppk[5] + ref_sbox16(ppk[4] ^ _mk16(tk[11], tk[10]))) & 0xFFFF
    ppk[0] = (ppk[0] + rotr1(ppk[5] ^ _mk16(tk[13], tk[12]))) & 0xFFFF
    ppk[1] = (ppk[1] + rotr1(ppk[0] ^ _mk16(tk[15], tk[14]))) & 0xFFFF
    ppk[2] = (ppk[2] + rotr1(ppk[1])) & 0xFFFF
    ppk[3] = (ppk[3] + rotr1(ppk[2])) & 0xFFFF
    ppk[4] = (ppk[4] + rotr1(ppk[3])) & 0xFFFF
    ppk[5] = (ppk[5] + rotr1(ppk[4])) & 0xFFFF

    seed = bytearray(16)
    seed[0] = tsc1
    seed[1] = (tsc1 | 0x20) & 0x7F
    seed[2] = tsc0
    seed[3] = ((ppk[5] ^ _mk16(tk[1], tk[0])) >> 1) & 0xFF
    for i in range(6):
        seed[4 + 2 * i] = ppk[i] & 0xFF
        seed[5 + 2 * i] = (ppk[i] >> 8) & 0xFF
    return bytes(seed)


# ---------------------------------------------------------------------------
# RC4 as a keystream generator
# ---------------------------------------------------------------------------

def ref_rc4_keystream(key: bytes):
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 0xFF
        s[i], s[j] = s[j], s[i]
    i = j = 0
    while True:
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        yield s[(s[i] + s[j]) & 0xFF]


def ref_rc4(key: bytes, data: bytes) -> bytes:
    stream = ref_rc4_keystream(key)
    return bytes(b ^ next(stream) for b in data)
