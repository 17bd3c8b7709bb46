"""Predicted inputs of whole-file seal/open, whose crypto runs ahead in lanes.

`SenderSession.seal_many` and `ReceiverSession.open_many` call `seal_block`
and `open_block` on a block of MSDUs before running the per-MSDU state
machine.  Each predicts the counter every frame gets if every MSDU of the
block succeeds, and has the Michael tags and RC4 outputs for those inputs
computed in lanes into a `pre` map of `lotkip.codec`.  A wrong prediction
only leaves keys unused.

`lotkip.codec` imports this module on the first whole-file call, so a
process that only seals or opens single MSDUs neither compiles nor loads
it.
"""

from __future__ import annotations

from lotkip.codec import (
    ICV_BYTES,
    MIC_BYTES,
    MSDU_MAX_BYTES,
    TSC_MAX,
    MpduFrame,
    ReceiverSession,
    SenderSession,
    _chunks,
    _mic_lanes,
    _rc4_lanes,
    fragment_count,
)
from lotkip.crypto import crc32_icv


def seal_block(sender: SenderSession, msdus: list[bytes]) -> dict:
    """Tags and bodies of `msdus` for the counters they get if every seal
    succeeds."""
    cfg = sender.config
    pre: dict = {}
    messages, firsts = [], []
    tsc = sender.next_tsc
    for msdu in msdus:
        frames = fragment_count(len(msdu), cfg.frag_threshold)
        if len(msdu) > MSDU_MAX_BYTES or tsc + frames - 1 > TSC_MAX:
            break
        messages.append((cfg.mic_header(tsc), bytes(msdu)))
        firsts.append(tsc)
        tsc += frames
    tags = _mic_lanes(cfg.keys.mic_key_tx, messages, pre)
    counters, plains = [], []
    for (_, msdu), tag, first in zip(messages, tags, firsts):
        for i, chunk in enumerate(_chunks(msdu + tag, cfg.frag_threshold)):
            counters.append(first + i)
            plains.append(chunk + crc32_icv(chunk))
    _rc4_lanes(cfg.keys, counters, plains, pre)
    return pre


def open_block(receiver: ReceiverSession, groups: list[list[MpduFrame]]) -> dict:
    """Plaintexts and tags of `groups` for the counters their frames
    resolve to if every open succeeds."""
    cfg = receiver.config
    pre: dict = {}
    counters, bodies, spans = [], [], []
    hi = receiver.ttak_cache.hi
    for frames in groups:
        start = len(counters)
        for frame in frames:
            if frame.tsc_hi is not None:
                hi = frame.tsc_hi
            elif hi is None:
                break
            tsc = (hi << 16) | frame.tsc_low
            if not 0 <= tsc <= TSC_MAX:
                break
            hi = tsc >> 16
            counters.append(tsc)
            bodies.append(bytes(frame.body))
        else:
            spans.append((start, len(counters)))
    plains = _rc4_lanes(cfg.keys, counters, bodies, pre)
    messages = []
    for start, stop in spans:
        chunks = [p[:-ICV_BYTES] for p in plains[start:stop]
                  if len(p) >= ICV_BYTES
                  and crc32_icv(p[:-ICV_BYTES]) == p[-ICV_BYTES:]]
        stream = b"".join(chunks)
        if len(chunks) == stop - start and len(stream) >= MIC_BYTES:
            messages.append((cfg.mic_header(counters[start]), stream[:-MIC_BYTES]))
    _mic_lanes(cfg.keys.mic_key_rx, messages, pre)
    return pre
