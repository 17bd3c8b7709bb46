"""Michael in lanes: every lane's tag equals `michael_mic` and the
reference module, over lane counts, mixed lengths (empty to a full MSDU
with its counter), tags with and without the counter, and midstates that
carry into the packed lanes' guard bits. The codec's many-packet phase 2
and RC4 path gives, packet by packet, what the one-packet functions and
the reference module give, also with phase 1 keys of two epochs in one
call."""

import struct

import pytest

from lotkip.codec import LANES_BLOCK_MSDUS, _rc4_many
from lotkip.crypto import (
    michael_header,
    michael_mic,
    michael_mic_lanes,
    michael_midstate,
    phase1_mix,
    phase2_mix,
    rc4_apply,
)
from lotkip.reference import ref_michael_mic, ref_phase2, ref_rc4

from conftest import mic_counter

LANE_COUNTS = (1, 2, 7, 64, 300)
# a full MSDU, the fragments of one at threshold 1024 with their check
# values, and short and empty inputs
LENGTHS = (0, 1, 2, 3, 4, 5, 2304, 1028, 268)
M32 = 0xFFFFFFFF


def _length(rng, lane):
    return LENGTHS[lane] if lane < len(LENGTHS) else rng.randrange(2400)


def _messages(rng, count):
    # (LOTKIP counter or None for TKIP, data) per lane
    return [(rng.randrange(1 << 48) if lane % 2 else None,
             rng.randbytes(_length(rng, lane))) for lane in range(count)]


def _all_ones(rng, count):
    # every midstate, counter and data bit set: the first adds already
    # carry into the packed lanes' guard bits
    return [((1 << 48) - 1, b"\xff" * _length(rng, lane)) for lane in range(count)]


def _staggered(rng, count):
    # three lanes per length, 150 B apart: the lanes finish three at a
    # time, mid-chunk and mid-run, while the rest keep going
    return [(None, rng.randbytes(lane // 3 * 150)) for lane in range(count)]


def _zero_first_word(rng, count):
    # counter 0, so the first word after the midstate is 0 in every lane
    return [(0, rng.randbytes(_length(rng, lane))) for lane in range(count)]


def _rotl(n):
    return lambda x: ((x << n) | (x >> (32 - n))) & M32


def _xswap(x):
    # the two bytes of each 16-bit half swapped
    return ((x & 0x00FF00FF) << 8) | ((x & 0xFF00FF00) >> 8)


# the four steps of the round, in order, by name (rotr 2 = rotl 30); each
# is R ^= step(L), then L += R
STEPS = {"rotl17": _rotl(17), "xswap": _xswap, "rotl3": _rotl(3), "rotl30": _rotl(30)}


def _saturating_state(step):
    """The state that leaves L = 0xFFFFFFFF and R = 0 just before the
    round's given step when the next word is 0: the sub-rounds before it
    (R ^= step(L); L += R) run backwards from that state.  Packed lanes
    then shift an all-ones L, whose spill fills every guard bit, and the
    next add carries out of the guard into the next lane unless the
    step was masked."""
    names = list(STEPS)
    l, r = M32, 0
    for name in reversed(names[:names.index(step)]):
        l = (l - r) & M32
        r ^= STEPS[name](l)
    return l, r


def _key_for_midstate(midstate, header):
    """The key whose midstate after `header` is `midstate`: every round
    over the header's words run backwards."""
    l, r = midstate
    for word in reversed(struct.unpack("<4I", header)):
        for step in reversed(STEPS.values()):
            l = (l - r) & M32
            r ^= step(l)
        l ^= word
    return struct.pack("<2I", l, r)


# (lane count, message builder, midstate), by lane count for random messages
MICHAEL_CASES = [pytest.param(count, _messages, None, id=str(count))
                 for count in LANE_COUNTS] + [
    # the most lanes the codec runs Michael on
    pytest.param(LANES_BLOCK_MSDUS, _messages, None, id="block"),
    pytest.param(LANES_BLOCK_MSDUS, _all_ones, (M32, M32), id="block-all-ones"),
    pytest.param(48, _staggered, None, id="staggered"),
] + [pytest.param(16, _zero_first_word, _saturating_state(step), id=f"guard-carry-{step}")
     for step in STEPS]


@pytest.mark.parametrize("count, build, state", MICHAEL_CASES)
def test_michael_lanes_match_scalar_and_reference(rng, count, build, state):
    sa, da, priority = rng.randbytes(6), rng.randbytes(6), rng.randrange(256)
    header = michael_header(sa, da, priority)
    key = rng.randbytes(8) if state is None else _key_for_midstate(state, header)
    midstate = michael_midstate(key, header)
    assert state in (None, midstate)
    messages = build(rng, count)
    tags = michael_mic_lanes(midstate, [(mic_counter(iv), data) for iv, data in messages])
    assert tags == [michael_mic(midstate, mic_counter(iv), data) for iv, data in messages]
    for (iv, data), tag in list(zip(messages, tags))[:12]:
        assert tag == ref_michael_mic(key, sa, da, priority, iv, data)


@pytest.mark.parametrize("count", LANE_COUNTS)
def test_rc4_many_matches_scalar_and_reference(rng, count):
    # one phase 1 key and low counter per packet
    tk = rng.randbytes(16)
    ttaks = [tuple(rng.randrange(1 << 16) for _ in range(5)) for _ in range(count)]
    tsc_los = [rng.randrange(1 << 16) for _ in range(count)]
    datas = [rng.randbytes(_length(rng, lane)) for lane in range(count)]
    seeds = [phase2_mix(p1k, tk, lo) for p1k, lo in zip(ttaks, tsc_los)]
    outs = _rc4_many(ttaks, tk, tsc_los, datas)
    assert outs == [rc4_apply(seed, data) for seed, data in zip(seeds, datas)]
    for seed, data, out in list(zip(seeds, datas, outs))[:12]:
        assert out == ref_rc4(seed, data)


# low counter values whose bytes are all zero, all ones or mixed, so the
# seed's IV bytes and P5 = P4 + tsc_lo carry at every byte boundary
TSC_LO_EDGES = (0, 1, 0x00FF, 0xFF00, 0xFFFF)


@pytest.mark.parametrize("count", (1, 2, 300))
@pytest.mark.parametrize("tk_kind", ("random", "all-ones"))
def test_phase2_rc4_many_matches_scalar_and_reference(rng, count, tk_kind):
    tk = rng.randbytes(16) if tk_kind == "random" else b"\xff" * 16
    ta = rng.randbytes(6)
    hi = rng.randrange((1 << 32) - 1)
    # the phase 1 keys of two consecutive epochs, mixed packet by packet
    epochs = (phase1_mix(tk, ta, hi), phase1_mix(tk, ta, hi + 1))
    # 256 bytes of zeros, so each output is the seed's first keystream
    zeros = [bytes(256)] * count
    for first in TSC_LO_EDGES + (rng.randrange(1 << 16),):
        ttaks = [epochs[(lane + first) % 2] if lane < 2 else rng.choice(epochs)
                 for lane in range(count)]
        # packet 0 takes each edge value in turn; 300 packets also take them all
        tsc_los = [first] + [TSC_LO_EDGES[lane - 1] if lane <= len(TSC_LO_EDGES)
                             else rng.randrange(1 << 16) for lane in range(1, count)]
        streams = _rc4_many(ttaks, tk, tsc_los, zeros)
        assert streams == [rc4_apply(phase2_mix(p1k, tk, lo), z)
                           for p1k, lo, z in zip(ttaks, tsc_los, zeros)]
        assert streams == [ref_rc4(ref_phase2(p1k, tk, lo), z)
                           for p1k, lo, z in zip(ttaks, tsc_los, zeros)]


def test_slot_cast_moves_four_byte_items():
    # the lanes' transpose copies words as memoryview "I" items, so it moves
    # whole words only where that format is four bytes wide
    assert memoryview(bytes(8)).cast("I").itemsize == 4


def test_lanes_edge_inputs(rng):
    midstate = michael_midstate(rng.randbytes(8), michael_header(bytes(6), bytes(6), 0))
    assert michael_mic_lanes(midstate, []) == []
    assert _rc4_many([], rng.randbytes(16), [], []) == []
    for bad in ((1 << 32, 0), (0, -1)):
        with pytest.raises(ValueError):
            michael_mic_lanes(bad, [(b"", b"x")])
