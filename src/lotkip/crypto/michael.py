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
integer, a 64-bit slot per lane, and `_absorb` runs on it, so one round of
integer operations serves every lane; a lane that finishes is read out of
its slot and masked away.  A batch has a fixed cost (sorting, the word
table and its transpose), so it pays off only from a few messages; the
codec decides when to use it.
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


def _absorb(l: int, r: int, words, m: int = 0xFFFFFFFF, hi: int = 0xFF00FF00,
            lo: int = 0x00FF00FF) -> tuple[int, int]:
    """XOR each word into L and run the b() mixing round: rotates, XSWAP
    (the two bytes of each 16-bit half swapped), and mod-2^32 adds.  The
    only copy of the round.

    With the default masks L, R and the words are 32-bit values.
    `michael_mic_lanes` passes many lanes packed into one integer, each
    a 64-bit slot of 32 value bits under 32 zero guard bits, and the masks
    repeated in every slot: a carry or a shifted-out bit lands in a guard,
    which `& m` or XSWAP's `& hi` clears, and a right shift pulls in only
    zero guards, or for XSWAP the next slot's low byte, which `& lo`
    clears, so every slot runs the 32-bit round on its own.
    """
    for word in words:
        l ^= word
        r ^= ((l << 17) | (l >> 15)) & m
        l = (l + r) & m
        r ^= ((l << 8) & hi) | ((l >> 8) & lo)
        l = (l + r) & m
        r ^= ((l << 3) | (l >> 29)) & m
        l = (l + r) & m
        r ^= ((l >> 2) | (l << 30)) & m
        l = (l + r) & m
    return l, r


def michael_pad(message: bytes) -> list[int]:
    """Split into little-endian 32-bit words, padded with 0x5a and zeros.

    The padded stream always ends with exactly one all-zero word, and the
    word before it is non-zero because it contains the 0x5a byte.
    """
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
    """`michael_mic(midstate, counter, data)` for every (counter, data)
    pair, in lanes."""
    l0, r0 = midstate
    # a wider value would spill into its slot's guard bits; a shifted value
    # is non-zero if it is too large or negative
    if l0 >> 32 or r0 >> 32:
        raise ValueError("Michael midstate must be two 32-bit words")
    if not messages:
        return []
    rows = [counter + data + _PAD[(len(counter) + len(data)) & 3]
            for counter, data in messages]
    order = sorted(range(len(rows)), key=lambda n: len(rows[n]), reverse=True)
    words = [len(rows[n]) >> 2 for n in order]
    count = len(order)
    # step-major: step s holds a 64-bit slot per lane, lane 0 first, with
    # the lane's word s in its low four bytes and zeros above.  The cast
    # moves whole 4-byte items and never reads them as numbers, so the
    # slots are little-endian whatever the host's byte order.
    width = 8 * count
    table = bytearray(width * words[0])
    slots = memoryview(table).cast("I")
    for lane, n in enumerate(order):
        slots[2 * lane:2 * lane + 2 * count * words[lane]:2 * count] = \
            memoryview(rows[n]).cast("I")
    view = memoryview(table)
    # lane n runs in bits 64n..64n+31 of l and r, from the session's
    # midstate; bits 64n+32..64n+63 are its guard, zero outside `_absorb`
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * count, "little")
    l, r, m = l0 * ones, r0 * ones, 0xFFFFFFFF * ones
    hi, lo = 0xFF00FF00 * ones, 0x00FF00FF * ones
    tags = [b""] * count
    running = count
    for start, stop, lanes in _segments(words):
        if lanes < running:
            _read_tags(tags, order, l, r, lanes, running)
            m &= (1 << 64 * lanes) - 1
            l &= m
            r &= m
            running = lanes
        step = 8 * lanes
        l, r = _absorb(l, r, (int.from_bytes(view[i:i + step], "little")
                              for i in range(width * start, width * stop, width)),
                       m, hi, lo)
    _read_tags(tags, order, l, r, 0, running)
    return tags


def _read_tags(tags: list[bytes], order: list[int], l: int, r: int,
               first: int, stop: int) -> None:
    """Store the tags of packed lanes first..stop-1 under their message
    indices."""
    lb, rb = l.to_bytes(8 * stop, "little"), r.to_bytes(8 * stop, "little")
    for lane in range(first, stop):
        tags[order[lane]] = lb[8 * lane:8 * lane + 4] + rb[8 * lane:8 * lane + 4]
