"""CRC-32 integrity check value.

Parameters are the standard 802.11 FCS/WEP-ICV set: polynomial 0x04C11DB7
in reflected form 0xEDB88320, initial register 0xFFFFFFFF, final XOR
0xFFFFFFFF, little-endian output.  These are exactly zlib's CRC-32
parameters, so zlib computes it; the bitwise oracle in ``lotkip.reference``
is checked against this.
"""

from __future__ import annotations

import zlib


def crc32_icv(data: bytes) -> bytes:
    """The 4-byte trailer appended to each fragment before encryption."""
    return zlib.crc32(data).to_bytes(4, "little")
