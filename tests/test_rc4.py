"""RC4: known keystream vectors, permutation and involution properties,
key limits, and random equivalence against the reference generator."""

import pytest

from lotkip.crypto import rc4_apply, rc4_ksa
from lotkip.reference import ref_rc4


def test_known_vectors():
    # confirmed against the independent generator implementation
    assert rc4_apply(b"Key", bytes(10)) == bytes.fromhex("EB9F7781B734CA72A719")
    assert rc4_apply(b"Key", b"Plaintext") == bytes.fromhex("BBF316E8D940AF0AD3")


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
    with pytest.raises(ValueError):
        rc4_apply(b"", b"data")
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
