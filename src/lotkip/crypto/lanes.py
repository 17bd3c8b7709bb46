"""Michael and RC4 over many independent messages at once.

Both algorithms are strictly sequential within one message, but the
messages of a batch do not depend on each other.  Each message gets a lane
and all lanes take the same step together in numpy.  Lanes are sorted
longest first, so the lanes still running at any step are a prefix, and a
step works on views of that prefix.  The results equal `michael_mic` and
`rc4_apply` called once per message.

Each step costs a fixed numpy overhead whatever the lane count, so a batch
pays off only with many lanes; the codec decides when to use it.

Michael runs on uint32 and RC4 on uint8 arrays, with in-place ufuncs and
operands of the same dtype, so additions wrap as the algorithms require
and the results do not depend on numpy's scalar casting rules (value-based
before numpy 2, NEP 50 after).
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

import numpy as np

from lotkip.crypto.michael import MicHeader, michael_key_words

_U32 = np.uint32


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
    # one row of words per lane
    table = np.frombuffer(_rows([rows[n] for n in order], 4 * width),
                          "<u4").reshape(len(order), width)
    l = np.full(len(order), k0, dtype=_U32)
    r = np.full(len(order), k1, dtype=_U32)
    t = np.empty_like(l)
    u = np.empty_like(l)
    s2, s3, s15, s16, s17, s29, s30 = (_U32(n) for n in (2, 3, 15, 16, 17, 29, 30))
    shl, shr = np.left_shift, np.right_shift
    for start, stop, lanes in _segments([words[n] for n in order]):
        lv, rv, tv, uv = l[:lanes], r[:lanes], t[:lanes], u[:lanes]
        for word in table[:lanes, start:stop].T:
            # l ^= word, then michael_block: rotl 17, the half-word swap
            # (rotl 16), rotl 3 and rotr 2, each followed by l += r
            lv ^= word
            shl(lv, s17, out=tv)
            shr(lv, s15, out=uv)
            rv ^= tv
            rv ^= uv
            lv += rv
            shl(lv, s16, out=tv)
            shr(lv, s16, out=uv)
            rv ^= tv
            rv ^= uv
            lv += rv
            shl(lv, s3, out=tv)
            shr(lv, s29, out=uv)
            rv ^= tv
            rv ^= uv
            lv += rv
            shr(lv, s2, out=tv)
            shl(lv, s30, out=uv)
            rv ^= tv
            rv ^= uv
            lv += rv
    raw = np.column_stack((l, r)).astype("<u4").tobytes()
    tags = [b""] * len(order)
    for lane, n in enumerate(order):
        tags[n] = raw[8 * lane:8 * lane + 8]
    return tags


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
