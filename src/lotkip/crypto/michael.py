"""Michael 64-bit message integrity code.

The tag is computed over a pseudo-header (destination address, source
address, priority byte, three zero bytes, and in the low-overhead mode the
48-bit packet counter) followed by the payload, padded with 0x5a and zeros
so the word stream always ends in exactly one all-zero word.  The round and
the header order are 802.11's: the standard's chained test vectors pin them.

The fixed part of the pseudo-header is 16 bytes, four whole words, and the
same for every MSDU of a session.  So Michael's (L, R) state after the key
and those four words, the midstate, is fixed per session too: a session
computes it once with `michael_midstate`, and each tag starts from it and
absorbs only the counter, if any, and the payload.

`michael_mic_lanes` runs many independent messages at once.  Michael is
strictly sequential within one message, but the messages of a batch do not
depend on each other.  Each message gets a lane and all lanes take the same
step together.  The lanes are sorted longest first, so the lanes still
running at any step are a prefix.  The lanes are packed into one Python
integer, a 32-bit slot per lane, and `_absorb_lanes` masks every shift
and add to its slot, so one round of integer operations serves every lane;
a lane that finishes is read out of its slot and masked away.  The masks
would make the scalar `_absorb` ~1.7 times as slow, so the rounds are two.
A batch has a fixed cost (sorting, the word table and its transpose), so
it pays off only from a few messages; the codec decides when to use it.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

# (L, R) as two little-endian 32-bit words: the key and the tag
_TAG = struct.Struct("<2I")
# the fixed pseudo-header as Michael words
_HEADER = struct.Struct("<4I")
# michael_pad's tail by message length mod 4: 0x5a, zeros to a word
# boundary, then one all-zero word
_PAD = tuple(b"\x5a" + bytes(7 - n) for n in range(4))


def _absorb(l: int, r: int, words) -> tuple[int, int]:
    """XOR each word into L and run the b() mixing round: rotates, XSWAP
    (the two bytes of each 16-bit half swapped), and mod-2^32 adds, on
    32-bit L, R and words."""
    for word in words:
        l ^= word
        r ^= ((l << 17) | (l >> 15)) & 0xFFFFFFFF
        l = (l + r) & 0xFFFFFFFF
        r ^= ((l << 8) & 0xFF00FF00) | ((l >> 8) & 0x00FF00FF)
        l = (l + r) & 0xFFFFFFFF
        r ^= ((l << 3) | (l >> 29)) & 0xFFFFFFFF
        l = (l + r) & 0xFFFFFFFF
        r ^= ((l >> 2) | (l << 30)) & 0xFFFFFFFF
        l = (l + r) & 0xFFFFFFFF
    return l, r


def _absorb_lanes(l: int, r: int, words, lanes: int) -> tuple[int, int]:
    """`_absorb` on `lanes` 32-bit slots packed into one integer with no
    bits between them.  Each piece a rotate or XSWAP shifts is masked to
    its own slot.  Each add sums the low 31 bits of every slot, which cannot
    carry out of it, then sets its top bit to that carry XOR both top bits."""
    ones = int.from_bytes(b"\x01\x00\x00\x00" * lanes, "little")
    a17, b17, hi, lo, a3, b3, a30, b30, n, h = map(ones.__mul__, (
        0xFFFE0000, 0x0001FFFF, 0xFF00FF00, 0x00FF00FF, 0xFFFFFFF8, 0x00000007,
        0x3FFFFFFF, 0xC0000000, 0x7FFFFFFF, 0x80000000))
    for word in words:
        l ^= word
        r ^= ((l << 17) & a17) | ((l >> 15) & b17)
        l = ((l & n) + (r & n)) ^ ((l ^ r) & h)
        r ^= ((l << 8) & hi) | ((l >> 8) & lo)
        l = ((l & n) + (r & n)) ^ ((l ^ r) & h)
        r ^= ((l << 3) & a3) | ((l >> 29) & b3)
        l = ((l & n) + (r & n)) ^ ((l ^ r) & h)
        r ^= ((l >> 2) & a30) | ((l << 30) & b30)
        l = ((l & n) + (r & n)) ^ ((l ^ r) & h)
    return l, r


def michael_pad(message: bytes) -> list[int]:
    """Split into little-endian 32-bit words, padded with 0x5a and zeros:
    the stream always ends with exactly one all-zero word, and the word
    before it is non-zero because it contains the 0x5a byte."""
    buf = message + _PAD[len(message) & 3]
    return list(struct.unpack(f"<{len(buf) >> 2}I", buf))


def michael_key_words(key: bytes) -> tuple[int, int]:
    """Split the 8-byte key into its two little-endian 32-bit words."""
    if len(key) != 8:
        raise ValueError(f"Michael key must be 8 bytes, got {len(key)}")
    return _TAG.unpack(key)


def michael_header(sa: bytes, da: bytes, priority: int) -> bytes:
    """The pseudo-header's 16 fixed bytes: DA || SA || priority || 0 0 0,
    as 802.11 (and Linux mac80211's ``michael_mic_hdr``) orders them."""
    if len(sa) != 6 or len(da) != 6:
        raise ValueError("sa and da must be 6 bytes each")
    if not 0 <= priority <= 0xFF:
        raise ValueError("priority must fit in one byte")
    return bytes((*da, *sa, priority, 0, 0, 0))


def michael_midstate(key: bytes, header: bytes) -> tuple[int, int]:
    """Michael's (L, R) after the key has absorbed the 16 header bytes."""
    if len(header) != _HEADER.size:
        raise ValueError(f"Michael header must be {_HEADER.size} bytes, "
                         f"got {len(header)}")
    return _absorb(*michael_key_words(key), _HEADER.unpack(header))


def michael_mic(midstate: tuple[int, int], counter: bytes, data: bytes) -> bytes:
    """8-byte tag over header || counter || data, serialized (L, R)
    little-endian, from the header's `michael_midstate`.  `counter` is
    empty for TKIP and the 48-bit counter, 6 bytes little-endian, for
    LOTKIP."""
    l, r = midstate
    return _TAG.pack(*_absorb(l, r, michael_pad(counter + data)))


def _segments(lengths: list[int]) -> Iterator[tuple[int, int, int]]:
    """(start, stop, lanes) runs of steps for lane lengths sorted longest
    first: steps start..stop-1 run on the first `lanes` lanes."""
    step = 0
    for lanes in range(len(lengths), 0, -1):
        stop = lengths[lanes - 1]
        if stop > step:
            yield step, stop, lanes
            step = stop


def michael_mic_lanes(midstate: tuple[int, int],
                      messages: Sequence[tuple[bytes, bytes]]) -> list[bytes]:
    """`michael_mic(midstate, counter, data)` for each pair, in lanes."""
    l0, r0 = midstate
    # a wider value would spill into the next slot, as would a negative one
    if l0 >> 32 or r0 >> 32:
        raise ValueError("Michael midstate must be two 32-bit words")
    if not messages:
        return []
    rows = [counter + data + _PAD[(len(counter) + len(data)) & 3]
            for counter, data in messages]
    order = sorted(range(len(rows)), key=lambda n: len(rows[n]), reverse=True)
    words = [len(rows[n]) >> 2 for n in order]
    count = len(order)
    # step-major: step s holds each lane's word s, lane 0 first.  The cast
    # moves whole 4-byte items and never reads them as numbers, so the
    # slots are little-endian whatever the host's byte order.
    slots = memoryview(bytearray(4 * count * words[0])).cast("I")
    for lane, n in enumerate(order):
        slots[lane:lane + count * words[lane]:count] = memoryview(rows[n]).cast("I")
    # lane n runs in bits 32n..32n+31 of l and r, from the session's midstate
    ones = int.from_bytes(b"\x01\x00\x00\x00" * count, "little")
    l, r = l0 * ones, r0 * ones
    tags = [b""] * count
    running = count
    for start, stop, lanes in _segments(words):
        if lanes < running:
            l, r = _read_tags(tags, order, l, r, lanes, running)
            running = lanes
        steps = (int.from_bytes(slots[i:i + lanes], "little")
                 for i in range(count * start, count * stop, count))
        l, r = _absorb_lanes(l, r, steps, lanes)
    _read_tags(tags, order, l, r, 0, running)
    return tags


def _read_tags(tags: list[bytes], order: list[int], l: int, r: int,
               first: int, stop: int) -> tuple[int, int]:
    """Store the tags of packed lanes first..stop-1 under their message
    indices, and return L and R without those lanes."""
    lb, rb = l.to_bytes(4 * stop, "little"), r.to_bytes(4 * stop, "little")
    for lane in range(first, stop):
        tags[order[lane]] = lb[4 * lane:4 * lane + 4] + rb[4 * lane:4 * lane + 4]
    keep = (1 << 32 * first) - 1
    return l & keep, r & keep
