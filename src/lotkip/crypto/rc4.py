"""RC4 key schedule and stream cipher."""

from __future__ import annotations


def rc4_ksa(key: bytes) -> list[int]:
    """Standard 256-iteration key schedule; the key must be 1..256 bytes.

    Returns the scheduled permutation of 0..255.
    """
    if not 1 <= len(key) <= 256:
        raise ValueError(f"RC4 key length must be in 1..256, got {len(key)}")
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s


def rc4_apply(key: bytes, data: bytes) -> bytes:
    """XOR data with the keystream of a freshly scheduled key; encryption
    and decryption are the same pure function of (key, data)."""
    s = rc4_ksa(key)
    i = j = 0
    out = bytearray(len(data))
    for k, byte in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[k] = byte ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)
