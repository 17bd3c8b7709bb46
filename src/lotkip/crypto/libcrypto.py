"""RC4 from the platform's libcrypto, through `ctypes`.

OpenSSL's `RC4_set_key` and `RC4` are deprecated but exported whatever
providers are loaded.  The library is loaded by soname, without
`ctypes.util.find_library`, which starts a process.  `lotkip.crypto.rc4`
imports this module on its first call, so importing the codec loads none
of this module, `ctypes` or libcrypto.
"""

from __future__ import annotations

from typing import Callable, Optional

from lotkip.crypto.rc4 import _check_key

# Tried in order: OpenSSL 3, then 1.1.
_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")
# A published (key, plaintext, ciphertext) vector, checked at binding; a
# plaintext of zeros would not show a cipher that ignores its input.
_KAT = (b"Key", b"Plaintext", bytes.fromhex("BBF316E8D940AF0AD3"))


def libcrypto_rc4() -> Optional[Callable[[bytes, bytes], bytes]]:
    """libcrypto's RC4 as a function of (key, data) like
    `lotkip.crypto.rc4.rc4_apply`, or None where no soname loads, a symbol
    is missing, or the bound cipher misses the known-answer vector."""
    try:
        import ctypes
    except ImportError:
        return None
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            set_key, cipher = lib.RC4_set_key, lib.RC4
            break
        except (OSError, AttributeError):
            continue
    else:
        return None
    # OpenSSL's RC4_KEY is two counters and a 256-entry table of
    # RC4_INT, at most 32 bits each: 1 032 bytes, held as 32-bit words so
    # the buffer is word-aligned
    state_type = ctypes.c_uint32 * 258
    set_key.argtypes = (state_type, ctypes.c_int, ctypes.c_char_p)
    set_key.restype = None
    cipher.argtypes = (state_type, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_void_p)
    cipher.restype = None
    char = ctypes.c_char

    def apply(key: bytes, data: bytes) -> bytes:
        _check_key(key)
        # c_char_p passes only bytes: copy any other buffer, so the lengths
        # passed are those of the bytes passed
        if type(key) is not bytes:
            key = memoryview(key).tobytes()
        if type(data) is not bytes:
            data = memoryview(data).tobytes()
        n = len(data)
        # a fresh key state and output buffer per call, so calls from any
        # number of threads share nothing
        state, out = state_type(), (char * n)()
        set_key(state, len(key), key)
        cipher(state, n, data, out)
        return out.raw

    key, plain, cipher_text = _KAT
    return apply if apply(key, plain) == cipher_text else None
