"""RC4 key schedule and stream cipher."""

from __future__ import annotations


def rc4_ksa(key: bytes) -> list[int]:
    """Standard 256-iteration key schedule; the key must be 1..256 bytes.

    Returns the scheduled permutation of 0..255.
    """
    klen = len(key)
    if not 1 <= klen <= 256:
        raise ValueError(f"RC4 key length must be in 1..256, got {klen}")
    s = list(range(256))
    j = 0
    # key[i % klen] for i in 0..255, as one slice of the repeated key
    for i, k in enumerate((key * -(-256 // klen))[:256]):
        t = s[i]
        j = (j + t + k) & 0xFF
        s[i] = s[j]
        s[j] = t
    return s


def rc4_apply(key: bytes, data: bytes) -> bytes:
    """XOR data with the keystream of a freshly scheduled key; encryption
    and decryption are the same pure function of (key, data)."""
    s = rc4_ksa(key)
    n = len(data)
    stream = bytearray(n)
    i = j = 0
    for k in range(n):
        i = (i + 1) & 0xFF
        t = s[i]
        j = (j + t) & 0xFF
        u = s[j]
        s[i] = u
        s[j] = t
        stream[k] = s[(t + u) & 0xFF]
    # one XOR of the whole buffer as a big integer, not one per byte
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(n, "little")
