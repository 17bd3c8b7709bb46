"""Michael, phase 2 key mixing and RC4 over many independent messages at
once.

Each algorithm is strictly sequential within one message, but the messages
of a batch do not depend on each other.  Each message gets a lane and all
lanes take the same step together.  Michael and RC4 sort their lanes
longest first, so the lanes still running at any step are a prefix.  The
results equal `michael_mic`, `phase2_mix` and `rc4_apply` called once per
message.

Michael packs its lanes into one Python integer, a 64-bit slot per lane,
and runs the scalar round `michael._absorb` on it, so one round of integer
operations serves every lane; a lane that finishes is read out of its slot
and masked away.  Every slot starts from the session's header midstate,
so a lane absorbs only its counter, if any, and its data.  Phase 2 runs
the scalar network `keymix._phase2_words` on uint16 arrays, one element
per packet, so one pass of its fixed network of S-box lookups, adds and
rotates derives every packet's seed, and hands RC4 all of them as one
(packets, 16) uint8 array.  RC4 lanes take only such 16-byte per-packet
seeds.  RC4 stays in numpy, one row of a uint8 array per lane, because
each step gathers from every lane's own permutation.  The numpy kernels
keep every operand in one dtype, or a Python int that fits it, so
additions wrap as the algorithms require and the results do not depend on
numpy's scalar casting rules (value-based before numpy 2, NEP 50 after).

Each RC4 step and each packed Michael word carries a fixed interpreter
overhead whatever the lane count, so a batch pays off only with many
lanes; the codec decides when to use it.
"""

from __future__ import annotations

import sys
from itertools import cycle
from typing import Iterator, Sequence

import numpy as np

from lotkip.crypto.keymix import TKIP_SBOX, _SBOX_SWAPPED, _phase2_words, _tk_words
from lotkip.crypto.michael import _PAD, _absorb

# The phase 2 S-box tables as arrays, so `_phase2_words` gathers all lanes'
# substitutions with one index operation each.
_SBOX_LO = np.array(TKIP_SBOX, dtype=np.uint16)
_SBOX_HI = np.array(_SBOX_SWAPPED, dtype=np.uint16)


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


def phase2_mix_lanes(ttaks: Sequence[tuple[int, ...]], tk: bytes,
                     tsc_los: Sequence[int]) -> np.ndarray:
    """A (pairs, 16) uint8 array whose row n is the bytes of
    `phase2_mix(ttaks[n], tk, tsc_los[n])`.  Each pair has its own phase 1
    key, so one call may span counter epochs."""
    k = _tk_words(tk)
    count = len(tsc_los)
    if len(ttaks) != count:
        raise ValueError("one ttak per tsc_lo is required")
    if count == 0:
        return np.empty((0, 16), np.uint8)
    words = np.array(ttaks, dtype=np.int64)
    lows = np.array(tsc_los, dtype=np.int64)
    if words.shape != (count, 5):
        raise ValueError("ttak must hold five 16-bit words")
    # a shifted value is non-zero if it is too large or negative
    if (words >> 16).any() or (lows >> 16).any():
        raise ValueError("ttak words and tsc_lo must be 16-bit values")
    seeds = _phase2_words(words.T.astype(np.uint16), k, lows.astype(np.uint16),
                          _SBOX_LO, _SBOX_HI)
    # one row of eight little-endian words per lane: its 16-byte seed
    return np.stack(seeds, axis=1).astype("<u2").view(np.uint8)


def rc4_apply_lanes(seeds: np.ndarray, datas: Sequence[bytes]) -> list[bytes]:
    """`rc4_apply(bytes(seeds[n]), datas[n])` for every data buffer, from
    a (len(datas), 16) uint8 array of per-packet seeds."""
    count = len(datas)
    if seeds.shape != (count, 16) or seeds.dtype != np.uint8:
        raise ValueError("one 16-byte uint8 seed row per data buffer is required")
    if count == 0:
        return []
    order = sorted(range(count), key=lambda n: len(datas[n]), reverse=True)
    lengths = [len(datas[n]) for n in order]
    width = lengths[0]

    # state[lane, v] is the lane's permutation, at flat index lane*256 + v.
    # The RC4 indices j and S[i] + S[j] are kept as those flat indices:
    # each starts at lane*256, and uint8 arithmetic on its lowest byte
    # wraps mod 256 without touching the lane part.
    state = np.empty((count, 256), dtype=np.uint8)
    state[:] = np.arange(256, dtype=np.uint8)
    flat = state.reshape(-1)
    # cols[i] is column i of the state: S[i] of every lane
    cols = list(state.T)
    j_at = np.arange(count, dtype=np.intp) * 256
    t_at = j_at.copy()
    j, t = _low_byte(j_at), _low_byte(t_at)
    sj = np.empty(count, dtype=np.uint8)
    # row i of the schedule is seed byte i % 16 of every lane
    schedule = np.tile(seeds[order].T, (16, 1))
    # a contiguous copy of S[i]: numpy adds and scatters from it faster
    # than from the strided column
    si = np.empty_like(sj)
    for col, key in zip(cols, schedule):
        si[...] = col
        j += si
        j += key
        flat.take(j_at, out=sj, mode="wrap")
        flat[j_at] = si
        col[...] = sj

    # keystream byte k of every running lane goes to row k of `stream`,
    # then one XOR applies it to every lane's data
    stream = np.empty((width, count), dtype=np.uint8)
    j[...] = 0
    for start, stop, lanes in _segments(lengths):
        jv, tv, sjv = j[:lanes], t[:lanes], sj[:lanes]
        j_atv, t_atv = j_at[:lanes], t_at[:lanes]
        # step k uses column (k + 1) mod 256 of the running lanes, so the
        # segment's column views repeat every 256 steps
        heads = [cols[(k + 1) & 0xFF][:lanes]
                 for k in range(start, min(stop, start + 256))]
        siv = si[:lanes]
        for col, row in zip(cycle(heads), stream[start:stop, :lanes]):
            siv[...] = col
            jv += siv
            flat.take(j_atv, out=sjv, mode="wrap")
            np.add(siv, sjv, out=tv)
            flat[j_atv] = siv
            col[...] = sjv
            flat.take(t_atv, out=row, mode="wrap")

    text = np.frombuffer(_rows([(datas[n],) for n in order], width),
                         np.uint8).reshape(count, width)
    text ^= stream.T
    out = [b""] * count
    for lane, n in enumerate(order):
        out[n] = text[lane, :lengths[lane]].tobytes()
    return out
