"""Michael and RC4 over many independent messages at once.

Both algorithms are strictly sequential within one message, but the
messages of a batch do not depend on each other.  Each message gets a lane
and all lanes take the same step together.  Lanes are sorted longest first,
so the lanes still running at any step are a prefix.  The results equal
`michael_mic` and `rc4_apply` called once per message.

Michael packs its lanes into one Python integer, a 64-bit slot per lane,
and runs the scalar round `michael._absorb` on it, so one round of integer
operations serves every lane; a lane that finishes is read out of its slot
and masked away.  RC4 stays in numpy, one row of a uint8 array per lane,
because each step gathers from every lane's own permutation; it uses
in-place ufuncs and operands of the same dtype, so additions wrap as the
algorithm requires and the results do not depend on numpy's scalar casting
rules (value-based before numpy 2, NEP 50 after).

Each RC4 step and each packed Michael word carries a fixed interpreter
overhead whatever the lane count, so a batch pays off only with many
lanes; the codec decides when to use it.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

import numpy as np

from lotkip.crypto.michael import MicHeader, _absorb, michael_key_words

# Michael builds its packed words this many steps at a time, so their
# buffer stays O(lanes x chunk) whatever the message length.
_CHUNK_STEPS = 64


def _segments(lengths: list[int]) -> Iterator[tuple[int, int, int]]:
    """(start, stop, lanes) runs of steps for lane lengths sorted longest
    first: steps start..stop-1 run on the first `lanes` lanes."""
    step = 0
    for lanes in range(len(lengths), 0, -1):
        stop = lengths[lanes - 1]
        if stop > step:
            yield step, stop, lanes
            step = stop


def _low_byte(values: np.ndarray) -> np.ndarray:
    """A writable uint8 view of the least significant byte of each element."""
    first = 0 if sys.byteorder == "little" else values.itemsize - 1
    return values.view(np.uint8)[first::values.itemsize]


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


def michael_mic_lanes(key: bytes,
                      messages: Sequence[tuple[MicHeader, bytes]]) -> list[bytes]:
    """`michael_mic(key, header, data)` for every (header, data) pair."""
    k0, k1 = michael_key_words(key)
    if not messages:
        return []
    rows = [(header.packed(), data, b"\x5a") for header, data in messages]
    # michael_pad: 0x5a, zeros to a word boundary, then one all-zero word
    words = [(len(h) + len(d) + 4) // 4 + 1 for h, d, _ in rows]
    order = sorted(range(len(rows)), key=words.__getitem__, reverse=True)
    width = words[order[0]]
    count = len(order)
    # one row of words per lane
    table = np.frombuffer(_rows([rows[n] for n in order], 4 * width),
                          "<u4").reshape(count, width)
    # lane n runs in bits 64n..64n+31 of l and r; bits 64n+32..64n+63 are
    # its guard, zero outside `_absorb`
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * count, "little")
    l, r, m = k0 * ones, k1 * ones, 0xFFFFFFFF * ones
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
        for at in range(start, stop, _CHUNK_STEPS):
            # one row of 64-bit slots per step, lane 0 first
            chunk = np.ascontiguousarray(table[:lanes, at:min(at + _CHUNK_STEPS, stop)].T,
                                         "<u8")
            buf = chunk.data.cast("B")
            l, r = _absorb(l, r, (int.from_bytes(buf[i:i + step], "little")
                                  for i in range(0, len(buf), step)), m)
    _read_tags(tags, order, l, r, 0, running)
    return tags


def _read_tags(tags: list[bytes], order: list[int], l: int, r: int,
               first: int, stop: int) -> None:
    """Store the tags of packed lanes first..stop-1 under their message
    indices."""
    lb, rb = l.to_bytes(8 * stop, "little"), r.to_bytes(8 * stop, "little")
    for lane in range(first, stop):
        tags[order[lane]] = lb[8 * lane:8 * lane + 4] + rb[8 * lane:8 * lane + 4]


def rc4_apply_lanes(seeds: Sequence[bytes], datas: Sequence[bytes]) -> list[bytes]:
    """`rc4_apply(seed, data)` for every (seed, data) pair."""
    if len(seeds) != len(datas):
        raise ValueError("one seed per data buffer is required")
    for seed in seeds:
        if not 1 <= len(seed) <= 256:
            raise ValueError(f"RC4 key length must be in 1..256, got {len(seed)}")
    count = len(datas)
    if count == 0:
        return []
    order = sorted(range(count), key=lambda n: len(datas[n]), reverse=True)
    lengths = [len(datas[n]) for n in order]
    width = lengths[0]
    if width == 0:
        return [b""] * count

    # state[lane, v] is the lane's permutation, at flat index lane*256 + v.
    # The RC4 indices j and S[i] + S[j] are kept as those flat indices:
    # each starts at lane*256, and uint8 arithmetic on its lowest byte
    # wraps mod 256 without touching the lane part.
    state = np.empty((count, 256), dtype=np.uint8)
    state[:] = np.arange(256, dtype=np.uint8)
    flat = state.reshape(-1)
    j_at = np.arange(count, dtype=np.intp) * 256
    t_at = j_at.copy()
    j, t = _low_byte(j_at), _low_byte(t_at)
    sj = np.empty(count, dtype=np.uint8)
    ks = np.empty_like(sj)
    key_rows = b"".join((seeds[n] * (256 // len(seeds[n]) + 1))[:256] for n in order)
    schedule = np.ascontiguousarray(
        np.frombuffer(key_rows, np.uint8).reshape(count, 256).T)
    for i in range(256):
        col = state[:, i]
        j += col
        j += schedule[i]
        flat.take(j_at, out=sj, mode="wrap")
        flat[j_at] = col
        col[...] = sj

    # keystream, XORed into one row of data per lane
    text = np.frombuffer(_rows([(datas[n],) for n in order], width),
                         np.uint8).reshape(count, width)
    j[...] = 0
    i = 0
    for start, stop, lanes in _segments(lengths):
        jv, tv, sjv, ksv = j[:lanes], t[:lanes], sj[:lanes], ks[:lanes]
        j_atv, t_atv = j_at[:lanes], t_at[:lanes]
        head = state[:lanes]
        for k in range(start, stop):
            i = (i + 1) & 0xFF
            col = head[:, i]
            jv += col
            flat.take(j_atv, out=sjv, mode="wrap")
            np.add(col, sjv, out=tv)
            flat[j_atv] = col
            col[...] = sjv
            flat.take(t_atv, out=ksv, mode="wrap")
            byte = text[:lanes, k]
            byte ^= ksv

    out = [b""] * count
    for lane, n in enumerate(order):
        out[n] = text[lane, :lengths[lane]].tobytes()
    return out
