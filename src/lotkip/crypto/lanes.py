"""Michael over many independent messages at once.

Michael is strictly sequential within one message, but the messages of a
batch do not depend on each other.  Each message gets a lane and all lanes
take the same step together.  The lanes are sorted longest first, so the
lanes still running at any step are a prefix.  The tags equal
`michael_mic` called once per message.

The lanes are packed into one Python integer, a 64-bit slot per lane, and
the scalar round `michael._absorb` runs on it, so one round of integer
operations serves every lane; a lane that finishes is read out of its slot
and masked away.  Every slot starts from the session's header midstate, so
a lane absorbs only its counter, if any, and its data.  numpy only
transposes the table of message words into one row of slots per step.

A batch has a fixed cost (sorting, the word table and its transpose), so
it pays off only from a few messages; the codec decides when to use it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from lotkip.crypto.michael import _PAD, _absorb


def _segments(lengths: list[int]) -> Iterator[tuple[int, int, int]]:
    """(start, stop, lanes) runs of steps for lane lengths sorted longest
    first: steps start..stop-1 run on the first `lanes` lanes."""
    step = 0
    for lanes in range(len(lengths), 0, -1):
        stop = lengths[lanes - 1]
        if stop > step:
            yield step, stop, lanes
            step = stop


def _rows(rows: list[tuple[bytes, ...]], width: int) -> bytearray:
    """One row of `width` bytes per tuple: its parts back to back, then
    zeros."""
    buf = bytearray(len(rows) * width)
    for row, parts in enumerate(rows):
        at = row * width
        for part in parts:
            buf[at:at + len(part)] = part
            at += len(part)
    return buf


def michael_mic_lanes(midstate: tuple[int, int],
                      messages: Sequence[tuple[bytes, bytes]]) -> list[bytes]:
    """`michael_mic(midstate, counter, data)` for every (counter, data)
    pair."""
    l0, r0 = midstate
    # a wider value would spill into its slot's guard bits; a shifted value
    # is non-zero if it is too large or negative
    if l0 >> 32 or r0 >> 32:
        raise ValueError("Michael midstate must be two 32-bit words")
    if not messages:
        return []
    rows = [(counter, data, _PAD[(len(counter) + len(data)) & 3])
            for counter, data in messages]
    words = [sum(map(len, row)) >> 2 for row in rows]
    order = sorted(range(len(rows)), key=words.__getitem__, reverse=True)
    width = words[order[0]]
    count = len(order)
    # one row of words per lane
    table = np.frombuffer(_rows([rows[n] for n in order], 4 * width),
                          "<u4").reshape(count, width)
    # lane n runs in bits 64n..64n+31 of l and r, from the session's
    # midstate; bits 64n+32..64n+63 are its guard, zero outside `_absorb`
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * count, "little")
    l, r, m = l0 * ones, r0 * ones, 0xFFFFFFFF * ones
    hi, lo = 0xFF00FF00 * ones, 0x00FF00FF * ones
    tags = [b""] * count
    running = count
    for start, stop, lanes in _segments([words[n] for n in order]):
        if lanes < running:
            _read_tags(tags, order, l, r, lanes, running)
            m &= (1 << 64 * lanes) - 1
            l &= m
            r &= m
            running = lanes
        step = 8 * lanes
        # one row of 64-bit slots per step, lane 0 first
        buf = np.ascontiguousarray(table[:lanes, start:stop].T, "<u8").data.cast("B")
        l, r = _absorb(l, r, (int.from_bytes(buf[i:i + step], "little")
                              for i in range(0, len(buf), step)), m, hi, lo)
    _read_tags(tags, order, l, r, 0, running)
    return tags


def _read_tags(tags: list[bytes], order: list[int], l: int, r: int,
               first: int, stop: int) -> None:
    """Store the tags of packed lanes first..stop-1 under their message
    indices."""
    lb, rb = l.to_bytes(8 * stop, "little"), r.to_bytes(8 * stop, "little")
    for lane in range(first, stop):
        tags[order[lane]] = lb[8 * lane:8 * lane + 4] + rb[8 * lane:8 * lane + 4]
