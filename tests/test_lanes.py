"""Michael and RC4 in lanes: every lane's result equals the one-message
functions and the reference module, over lane counts, mixed lengths
(empty to a full MSDU with its header) and headers with and without the
counter."""

import pytest

from lotkip.crypto import MicHeader, michael_mic, rc4_apply
from lotkip.crypto.lanes import michael_mic_lanes, rc4_apply_lanes
from lotkip.reference import ref_michael_mic, ref_rc4

LANE_COUNTS = (1, 2, 7, 64, 300)
# a full MSDU, the fragments of one at threshold 1024 with their check
# values, and short and empty inputs
LENGTHS = (0, 1, 2, 3, 4, 5, 2304, 1028, 268)


def _length(rng, lane):
    return LENGTHS[lane] if lane < len(LENGTHS) else rng.randrange(2400)


def _messages(rng, count):
    out = []
    for lane in range(count):
        iv = rng.randrange(1 << 48) if lane % 2 else None
        header = MicHeader(rng.randbytes(6), rng.randbytes(6), rng.randrange(256), iv)
        out.append((header, rng.randbytes(_length(rng, lane))))
    return out


@pytest.mark.parametrize("count", LANE_COUNTS)
def test_michael_lanes_match_scalar_and_reference(rng, count):
    key = rng.randbytes(8)
    messages = _messages(rng, count)
    tags = michael_mic_lanes(key, messages)
    assert tags == [michael_mic(key, header, data) for header, data in messages]
    for (h, data), tag in list(zip(messages, tags))[:12]:
        assert tag == ref_michael_mic(key, h.sa, h.da, h.priority, h.iv, data)


@pytest.mark.parametrize("count", LANE_COUNTS)
def test_rc4_lanes_match_scalar_and_reference(rng, count):
    # 16-byte per-packet seeds, plus the shortest and longest keys
    seeds = [rng.randbytes((16, 16, 1, 256, 5)[lane % 5]) for lane in range(count)]
    datas = [rng.randbytes(_length(rng, lane)) for lane in range(count)]
    outs = rc4_apply_lanes(seeds, datas)
    assert outs == [rc4_apply(seed, data) for seed, data in zip(seeds, datas)]
    for seed, data, out in list(zip(seeds, datas, outs))[:12]:
        assert out == ref_rc4(seed, data)


def test_lanes_edge_inputs(rng):
    key = rng.randbytes(8)
    assert michael_mic_lanes(key, []) == []
    assert rc4_apply_lanes([], []) == []
    assert rc4_apply_lanes([b"k", b"key"], [b"", b""]) == [b"", b""]
    with pytest.raises(ValueError):
        michael_mic_lanes(bytes(7), [(MicHeader(bytes(6), bytes(6)), b"x")])
    with pytest.raises(ValueError):
        rc4_apply_lanes([b"k"], [b"a", b"b"])
    for bad in (b"", bytes(257)):
        with pytest.raises(ValueError):
            rc4_apply_lanes([b"k", bad], [b"a", b"b"])
