"""RC4: known keystream vectors, permutation and involution properties,
key limits, random equivalence against the reference generator, and how
`rc4_apply` binds libcrypto's RC4 or falls back to the pure path.

These tests run on whichever backend binds; `test_python_rc4.py` runs
them again on the pure path."""

import sys

import pytest

from lotkip.crypto import libcrypto, rc4, rc4_apply, rc4_ksa
from lotkip.reference import ref_rc4


def test_known_vectors():
    # confirmed against the independent generator implementation
    assert rc4_apply(b"Key", bytes(10)) == bytes.fromhex("EB9F7781B734CA72A719")
    assert rc4_apply(b"Key", b"Plaintext") == bytes.fromhex("BBF316E8D940AF0AD3")


# RFC 6229, section 2: (key, offset into the keystream, 16 keystream bytes)
RFC6229 = [
    ("0102030405", 0, "b2396305f03dc027ccc3524a0a1118a8"),
    ("0102030405", 16, "6982944f18fc82d589c403a47a0d0919"),
    ("0102030405060708", 0, "97ab8a1bf0afb96132f2f67258da15a8"),
    ("0102030405060708090a0b0c0d0e0f10", 0, "9ac7cc9a609d1ef7b2932899cde41b97"),
]


@pytest.mark.parametrize("key, offset, stream", RFC6229)
def test_rfc6229_keystream(key, offset, stream):
    # the keystream is RC4 applied to zeros
    out = rc4_apply(bytes.fromhex(key), bytes(offset + 16))
    assert out[offset:].hex() == stream


def test_ksa_produces_permutation(rng):
    for _ in range(50):
        assert sorted(rc4_ksa(rng.randbytes(rng.randrange(1, 64)))) == list(range(256))


def test_involution(rng):
    for _ in range(100):
        key = rng.randbytes(rng.randrange(1, 32))
        msg = rng.randbytes(rng.randrange(256))
        assert rc4_apply(key, rc4_apply(key, msg)) == msg


def test_empty_data_leaves_state_untouched():
    assert rc4_apply(b"k", b"") == b""


def test_key_length_limits():
    with pytest.raises(ValueError):
        rc4_ksa(b"")
    with pytest.raises(ValueError):
        rc4_ksa(bytes(257))
    for key in (b"", bytes(257)):
        with pytest.raises(ValueError):
            rc4_apply(key, b"data")
    rc4_ksa(bytes(256))  # upper bound allowed


def test_matches_reference_on_random_inputs(rng):
    for _ in range(300):
        key = rng.randbytes(rng.randrange(1, 48))
        data = rng.randbytes(rng.randrange(256))
        assert rc4_apply(key, data) == ref_rc4(key, data)


@pytest.mark.parametrize("key_len", [1, 3, 5, 16, 100, 255, 256])
def test_matches_reference_at_key_lengths(rng, key_len):
    # lengths that do and do not divide 256: the schedule walks the key
    # repeated to 256 bytes
    key = rng.randbytes(key_len)
    assert sorted(rc4_ksa(key)) == list(range(256))
    for data_len in (0, 1, 255, 256, 257, 2304, rng.randrange(2305)):
        data = rng.randbytes(data_len)
        assert rc4_apply(key, data) == ref_rc4(key, data)


@pytest.fixture
def unbound(monkeypatch):
    """`rc4` as before its first call; monkeypatch restores the binding."""
    monkeypatch.setattr(rc4, "_backend", None)
    return monkeypatch


@pytest.mark.parametrize("sonames", [("libnonexistent-lotkip.so.0",), ("libc.so.6",)],
                         ids=["missing", "no-rc4-symbol"])
def test_binding_falls_back_without_libcrypto_rc4(rng, unbound, sonames):
    # a library that does not load, or one without RC4
    unbound.setattr(libcrypto, "_SONAMES", sonames)
    key, data = rng.randbytes(16), rng.randbytes(300)
    assert rc4_apply(key, data) == ref_rc4(key, data)
    assert rc4._backend is rc4._python_rc4


def test_binding_falls_back_on_a_wrong_known_answer(unbound):
    # a cipher that misses the vector checked at binding is never used
    unbound.setattr(libcrypto, "_KAT", (b"Key", b"Plaintext", bytes(9)))
    assert libcrypto.libcrypto_rc4() is None
    rc4_apply(b"Key", b"")
    assert rc4._backend is rc4._python_rc4


def test_binds_libcrypto_where_it_exports_rc4():
    # a binding that failed silently would leave every test above on the
    # pure path; the check vector must pass on any real libcrypto
    import ctypes
    for soname in libcrypto._SONAMES:
        try:
            ctypes.CDLL(soname).RC4_set_key
            break
        except (OSError, AttributeError):
            continue
    else:
        pytest.skip("no libcrypto with RC4 loads here")
    assert libcrypto.libcrypto_rc4() is not None


def test_binding_returns_none_without_ctypes(monkeypatch):
    # an interpreter built without ctypes runs the pure path
    monkeypatch.setitem(sys.modules, "ctypes", None)
    assert libcrypto.libcrypto_rc4() is None


def test_bound_cipher_takes_any_buffer(rng):
    # c_char_p passes only bytes, so the cipher copies any other buffer
    apply = libcrypto.libcrypto_rc4()
    if apply is None:
        pytest.skip("no libcrypto with RC4 loads here")
    key, data = rng.randbytes(16), rng.randbytes(300)
    expected = apply(key, data)
    assert expected == ref_rc4(key, data)
    for wrap in (bytearray, memoryview):
        assert apply(wrap(key), wrap(data)) == expected
