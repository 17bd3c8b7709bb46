"""Michael MIC: the 802.11 chained test vectors, frozen vectors from the
reference transcription, padding structure, and random equivalence against
the reference module, for tags started from a session's header midstate on
the scalar path and in lanes."""

import pytest

from lotkip.crypto import (
    michael_header,
    michael_key_words,
    michael_mic,
    michael_mic_lanes,
    michael_midstate,
    michael_pad,
)
from lotkip.crypto.michael import _absorb
from lotkip.reference import ref_michael_b, ref_michael_mic, ref_michael_pad

from conftest import mic_counter, mic_of


def test_block_preserves_all_zero():
    # the b() round alone is `_absorb` of one all-zero word
    assert _absorb(0, 0, (0,)) == (0, 0)


# 802.11's Michael test vectors, chained: each tag keys the next message
IEEE_VECTORS = (
    (b"", "82925c1ca1d130b8"),
    (b"M", "434721ca40639b3f"),
    (b"Mi", "e8f9becae97e5d29"),
    (b"Mic", "90038fc6cf13c1db"),
    (b"Mich", "d55e100510128986"),
    (b"Michael", "0a942b124ecaa546"),
)


def _ref_michael(key, message):
    """The reference round over a raw message, with no pseudo-header."""
    l, r = int.from_bytes(key[:4], "little"), int.from_bytes(key[4:], "little")
    for word in ref_michael_pad(message):
        l, r = ref_michael_b(l ^ word, r)
    return (l | r << 32).to_bytes(8, "little")


@pytest.mark.parametrize("path", ["scalar", "lanes", "reference"])
def test_ieee_chained_vectors(path):
    # a key's words are the midstate of an empty header; three packed lanes
    # of the same message, so a slot's spill would reach its neighbours
    key = bytes(8)
    for message, tag in IEEE_VECTORS:
        if path == "lanes":
            tags = michael_mic_lanes(michael_key_words(key), [(b"", message)] * 3)
            assert tags[1:] == tags[:-1]
            key = tags[0]
        elif path == "scalar":
            key = michael_mic(michael_key_words(key), b"", message)
        else:
            key = _ref_michael(key, message)
        assert key.hex() == tag


def test_block_frozen_vectors():
    # computed with the straight-line reference
    assert _absorb(1, 0, (0,)) == (0x6B519593, 0x572B8B8A)
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
    # DA || SA || priority || 0 0 0, as 802.11 orders them
    header = michael_header(sa=bytes([1] * 6), da=bytes([2] * 6), priority=5)
    assert header == bytes([2] * 6) + bytes([1] * 6) + b"\x05\x00\x00\x00"
    # four whole Michael words, so the midstate after them is fixed
    assert len(header) == 16
    assert mic_counter(0x0102030405) == bytes.fromhex("050403020100")


def test_header_validation():
    with pytest.raises(ValueError):
        michael_header(bytes(5), bytes(6), 0)
    with pytest.raises(ValueError):
        michael_header(bytes(6), bytes(6), priority=256)
    with pytest.raises(ValueError):
        michael_midstate(bytes(8), bytes(15))
    with pytest.raises(ValueError):
        michael_midstate(bytes(7), bytes(16))


def test_mic_frozen_vectors():
    z6 = bytes(6)
    # an all-zero header leaves a zero key at zero: 802.11's first vector
    assert mic_of(bytes(8), z6, z6, 0, None, b"") == bytes.fromhex("82925c1ca1d130b8")
    assert mic_of(bytes(8), z6, z6, 0, 0, b"") == bytes.fromhex("b1a0fe6dd8332b2d")
    key = bytes(range(1, 9))
    sa, da = bytes([2] * 6), bytes([3] * 6)
    assert mic_of(key, sa, da, 0, None, b"hello") == bytes.fromhex("65d56e153ed797a9")
    assert mic_of(key, sa, da, 0, 0x0000AABBCCDD, b"hello") == \
        bytes.fromhex("e15903de2ac6c13f")


def test_iv_presence_changes_tag():
    midstate = michael_midstate(bytes(8), michael_header(bytes(6), bytes(6), 0))
    assert michael_mic(midstate, b"", b"") != michael_mic(midstate, bytes(6), b"")


def test_matches_reference_on_random_inputs(rng):
    for _ in range(300):
        key = rng.randbytes(8)
        sa = rng.randbytes(6)
        da = rng.randbytes(6)
        priority = rng.randrange(256)
        iv = rng.getrandbits(48) if rng.random() < 0.5 else None
        data = rng.randbytes(rng.randrange(200))
        assert mic_of(key, sa, da, priority, iv, data) == \
            ref_michael_mic(key, sa, da, priority, iv, data)


@pytest.mark.parametrize("with_iv", [False, True], ids=["no-iv", "iv"])
def test_matches_reference_at_every_short_length(rng, with_iv):
    # every padding phase of the word loop, and one maximum-size MSDU
    key, sa, da = rng.randbytes(8), rng.randbytes(6), rng.randbytes(6)
    priority = rng.randrange(256)
    iv = rng.getrandbits(48) if with_iv else None
    midstate = michael_midstate(key, michael_header(sa, da, priority))
    for length in [*range(65), 2304]:
        data = rng.randbytes(length)
        assert michael_mic(midstate, mic_counter(iv), data) == \
            ref_michael_mic(key, sa, da, priority, iv, data)


# TKIP, then LOTKIP counters at zero, at the top of an epoch, at the first
# of the next, and at the last before exhaustion
MIDSTATE_COUNTERS = (None, 0, 0xFFFF, 0x10000, (1 << 48) - 1)


@pytest.mark.parametrize("path", ["scalar", "lanes"])
@pytest.mark.parametrize("iv", MIDSTATE_COUNTERS,
                         ids=["tkip", "0", "ffff", "10000", "max"])
def test_midstate_tags_match_reference(rng, path, iv):
    """A tag started from the header midstate equals the reference's tag
    over the whole pseudo-header, at every padding phase and for a
    maximum-size MSDU, one message at a time and across packed lanes."""
    key, sa, da = rng.randbytes(8), rng.randbytes(6), rng.randbytes(6)
    priority = rng.randrange(256)
    midstate = michael_midstate(key, michael_header(sa, da, priority))
    datas = [rng.randbytes(length) for length in [*range(65), 2304]]
    counter = mic_counter(iv)
    if path == "lanes":
        tags = michael_mic_lanes(midstate, [(counter, data) for data in datas])
    else:
        tags = [michael_mic(midstate, counter, data) for data in datas]
    assert tags == [ref_michael_mic(key, sa, da, priority, iv, data) for data in datas]
