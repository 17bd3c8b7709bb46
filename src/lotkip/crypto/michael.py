"""Michael 64-bit message integrity code.

The tag is computed over a fixed pseudo-header (source address, destination
address, priority byte, three zero bytes, and optionally the 48-bit packet
counter) followed by the payload, padded with 0x5a and zeros so the word
stream always ends in exactly one all-zero word.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

# (L, R) as two little-endian 32-bit words: the key and the tag
_TAG = struct.Struct("<2I")


def _absorb(l: int, r: int, words, m: int = 0xFFFFFFFF) -> tuple[int, int]:
    """XOR each word into L and run the b() mixing round: rotates, a
    half-word swap, and mod-2^32 adds.  The only copy of the round.

    With the default mask L, R and the words are 32-bit values.
    `lotkip.crypto.lanes` passes many lanes packed into one integer, each
    a 64-bit slot of 32 value bits under 32 zero guard bits, and `m` with
    0xFFFFFFFF in every slot: a carry or a shifted-out bit lands in a
    guard, which `& m` clears, and a right shift pulls in only zero
    guards, so every slot runs the 32-bit round on its own.
    """
    for word in words:
        l ^= word
        r ^= ((l << 17) | (l >> 15)) & m
        l = (l + r) & m
        r ^= ((l << 16) | (l >> 16)) & m
        l = (l + r) & m
        r ^= ((l << 3) | (l >> 29)) & m
        l = (l + r) & m
        r ^= ((l >> 2) | (l << 30)) & m
        l = (l + r) & m
    return l, r


def michael_pad(message: bytes) -> list[int]:
    """Split into little-endian 32-bit words, padded with 0x5a and zeros.

    The padded stream always ends with exactly one all-zero word, and the
    word before it is non-zero because it contains the 0x5a byte.
    """
    buf = bytearray(message)
    buf.append(0x5A)
    buf.extend(b"\x00" * (-len(buf) % 4))
    buf.extend(b"\x00\x00\x00\x00")
    return list(struct.unpack(f"<{len(buf) // 4}I", buf))


def michael_key_words(key: bytes) -> tuple[int, int]:
    """Split the 8-byte key into its two little-endian 32-bit words."""
    if len(key) != 8:
        raise ValueError(f"Michael key must be 8 bytes, got {len(key)}")
    return _TAG.unpack(key)


@dataclass(frozen=True)
class MicHeader:
    """Pseudo-header mixed into the tag ahead of the payload.

    ``iv`` is the 48-bit packet counter; it is included only in the
    low-overhead framing mode, where the counter is authenticated because
    most frames no longer carry its upper bytes on air.
    """

    sa: bytes
    da: bytes
    priority: int = 0
    iv: int | None = None
    # the header's bytes, built once: a session reuses one header per MSDU
    _packed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.sa) != 6 or len(self.da) != 6:
            raise ValueError("sa and da must be 6 bytes each")
        if not 0 <= self.priority <= 0xFF:
            raise ValueError("priority must fit in one byte")
        if self.iv is not None and not 0 <= self.iv < 1 << 48:
            raise ValueError("iv must be a 48-bit value")
        out = bytearray(self.sa)
        out += self.da
        out.append(self.priority)
        out += b"\x00\x00\x00"
        if self.iv is not None:
            out += self.iv.to_bytes(6, "little")
        object.__setattr__(self, "_packed", bytes(out))

    def packed(self) -> bytes:
        return self._packed


def michael_mic(key: bytes, header: MicHeader, data: bytes) -> bytes:
    """8-byte tag over header.packed() || data, serialized (L, R) little-endian."""
    l, r = michael_key_words(key)
    return _TAG.pack(*_absorb(l, r, michael_pad(header.packed() + data)))
