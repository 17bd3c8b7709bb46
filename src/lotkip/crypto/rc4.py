"""RC4 key schedule and stream cipher.

`rc4_apply` runs on the RC4 of the platform's libcrypto
(`lotkip.crypto.libcrypto`) wherever it binds, and on the pure-Python
`rc4_ksa` and keystream loop below otherwise.  Its first call imports and
binds the library, so importing this module loads neither that module,
`ctypes` nor libcrypto.  Nothing but the outcome of binding selects the
backend.
"""

from __future__ import annotations

from typing import Callable, Optional


def _check_key(key: bytes) -> int:
    klen = len(key)
    if not 1 <= klen <= 256:
        raise ValueError(f"RC4 key length must be in 1..256, got {klen}")
    return klen


def rc4_ksa(key: bytes) -> list[int]:
    """Standard 256-iteration key schedule; the key must be 1..256 bytes.

    Returns the scheduled permutation of 0..255.
    """
    klen = _check_key(key)
    s = list(range(256))
    j = 0
    # key[i % klen] for i in 0..255, as one slice of the repeated key
    for i, k in enumerate((key * -(-256 // klen))[:256]):
        t = s[i]
        j = (j + t + k) & 0xFF
        s[i] = s[j]
        s[j] = t
    return s


def _python_rc4(key: bytes, data: bytes) -> bytes:
    """`rc4_apply` in pure Python: the fallback, and the only path that
    runs `rc4_ksa`."""
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


# The function `rc4_apply` runs, chosen by its first call.
_backend: Optional[Callable[[bytes, bytes], bytes]] = None


def _bind() -> Callable[[bytes, bytes], bytes]:
    global _backend
    from lotkip.crypto.libcrypto import libcrypto_rc4
    _backend = libcrypto_rc4() or _python_rc4
    return _backend


def rc4_apply(key: bytes, data: bytes) -> bytes:
    """XOR data with the keystream of a freshly scheduled key; encryption
    and decryption are the same pure function of (key, data).  The key
    must be 1..256 bytes."""
    return (_backend or _bind())(key, data)
