"""Michael MIC: frozen vectors from the reference transcription, padding
structure, and random equivalence against the reference module."""

import pytest

from lotkip.crypto import (
    MicHeader,
    michael_key_words,
    michael_mic,
    michael_pad,
)
from lotkip.crypto.michael import _absorb
from lotkip.reference import ref_michael_mic


def test_block_preserves_all_zero():
    # the b() round alone is `_absorb` of one all-zero word
    assert _absorb(0, 0, (0,)) == (0, 0)


def test_block_frozen_vectors():
    # computed with the straight-line reference before the main build
    assert _absorb(1, 0, (0,)) == (0x4057003A, 0x4027001D)
    assert _absorb(0xFFFFFFFF, 0xFFFFFFFF, (0,)) == (0x8000000F, 0x80000009)


def test_pad_examples():
    assert michael_pad(bytes([1, 2, 3, 4])) == [0x04030201, 0x0000005A, 0]
    assert michael_pad(b"") == [0x0000005A, 0]
    assert michael_pad(bytes([1, 2, 3])) == [0x5A030201, 0]


def test_pad_invariant_all_lengths(rng):
    for length in range(1025):
        words = michael_pad(rng.randbytes(length))
        assert words[-1] == 0
        assert words[-2] != 0
        assert len(words) == length // 4 + 2


def test_key_words():
    assert michael_key_words(bytes(range(8))) == (0x03020100, 0x07060504)
    with pytest.raises(ValueError):
        michael_key_words(bytes(7))


def test_header_packs_fixed_layout():
    header = MicHeader(bytes([1] * 6), bytes([2] * 6), priority=5)
    assert header.packed() == bytes([1] * 6) + bytes([2] * 6) + b"\x05\x00\x00\x00"
    with_iv = MicHeader(bytes([1] * 6), bytes([2] * 6), 5, iv=0x0102030405)
    assert with_iv.packed().endswith(bytes.fromhex("050403020100"))
    assert len(with_iv.packed()) == 22


def test_header_validation():
    with pytest.raises(ValueError):
        MicHeader(bytes(5), bytes(6))
    with pytest.raises(ValueError):
        MicHeader(bytes(6), bytes(6), priority=256)
    with pytest.raises(ValueError):
        MicHeader(bytes(6), bytes(6), iv=1 << 48)


def test_mic_frozen_vectors():
    z6 = bytes(6)
    assert michael_mic(bytes(8), MicHeader(z6, z6), b"") == \
        bytes.fromhex("f2de0a28f374fb2f")
    assert michael_mic(bytes(8), MicHeader(z6, z6, iv=0), b"") == \
        bytes.fromhex("12a4629e1cac3034")
    key = bytes(range(1, 9))
    header = MicHeader(bytes([2] * 6), bytes([3] * 6))
    assert michael_mic(key, header, b"hello") == bytes.fromhex("2d87f8ffac0cd68a")
    with_iv = MicHeader(bytes([2] * 6), bytes([3] * 6), iv=0x0000AABBCCDD)
    assert michael_mic(key, with_iv, b"hello") == bytes.fromhex("7b9ebf7190d58b67")


def test_iv_presence_changes_tag():
    header = MicHeader(bytes(6), bytes(6))
    with_iv = MicHeader(bytes(6), bytes(6), iv=0)
    assert michael_mic(bytes(8), header, b"") != michael_mic(bytes(8), with_iv, b"")


def test_matches_reference_on_random_inputs(rng):
    for _ in range(300):
        key = rng.randbytes(8)
        sa = rng.randbytes(6)
        da = rng.randbytes(6)
        priority = rng.randrange(256)
        iv = rng.getrandbits(48) if rng.random() < 0.5 else None
        data = rng.randbytes(rng.randrange(200))
        assert michael_mic(key, MicHeader(sa, da, priority, iv), data) == \
            ref_michael_mic(key, sa, da, priority, iv, data)


@pytest.mark.parametrize("with_iv", [False, True], ids=["no-iv", "iv"])
def test_matches_reference_at_every_short_length(rng, with_iv):
    # every padding phase of the word loop, and one maximum-size MSDU
    key, sa, da = rng.randbytes(8), rng.randbytes(6), rng.randbytes(6)
    priority = rng.randrange(256)
    iv = rng.getrandbits(48) if with_iv else None
    header = MicHeader(sa, da, priority, iv)
    for length in [*range(65), 2304]:
        data = rng.randbytes(length)
        assert michael_mic(key, header, data) == \
            ref_michael_mic(key, sa, da, priority, iv, data)
