"""CRC-32 ICV: zlib-backed production code against the bitwise reference."""

import zlib

from lotkip.crypto import crc32_icv
from lotkip.reference import ref_crc32, ref_crc32_bytes

# residue of data || icv(data), computed with the bitwise reference
RESIDUE = 0x2144DF1C


def test_empty_input_is_zero():
    assert crc32_icv(b"") == b"\x00\x00\x00\x00"


def test_check_value():
    # derived with the bitwise oracle; the classic check input
    assert ref_crc32(b"123456789") == 0xCBF43926
    assert crc32_icv(b"123456789") == bytes.fromhex("2639f4cb")


def test_residue_identity(rng):
    for _ in range(50):
        data = rng.randbytes(rng.randrange(256))
        assert ref_crc32(data + crc32_icv(data)) == RESIDUE


def test_matches_bitwise_reference(rng):
    for _ in range(300):
        data = rng.randbytes(rng.randrange(512))
        assert crc32_icv(data) == ref_crc32_bytes(data)


def test_matches_zlib(rng):
    # the oracle's parameters are zlib's, which is what production calls
    for _ in range(100):
        data = rng.randbytes(rng.randrange(512))
        assert ref_crc32(data) == zlib.crc32(data)
