"""Output checks, run outside the timed regions.

Sealed frames are re-derived live from ``lotkip.reference`` (never from
stored digests), so a fix that changes the production code and the
reference together keeps the benchmark passing.  The functions here hold
the unwrapped lotkip originals, bound at import, so checking adds no spans
to a traced run.
"""

from __future__ import annotations

import csv
import hashlib
import io

from lotkip.codec import (
    FrameLayout,
    container_to_frames,
    fragment_count,
    frames_to_container,
)
from lotkip.reference import (
    ref_crc32_bytes,
    ref_michael_mic,
    ref_phase1,
    ref_phase2,
    ref_rc4,
)

# SHA-256 of the `lotkip sim` CSV for the paper's default scenario with
# placement=both, at the recorded seed.
RECORDED_SIM_SEED = 1
RECORDED_SIM_SHA256 = "fa253d684b4a677c7dfaffee19a4cb6e0f018bdc0cdef30389dd126c646c8135"

LOTKIP_LAYOUTS = (FrameLayout.LOTKIP_TYPE_A, FrameLayout.LOTKIP_TYPE_B)


parse_container = container_to_frames
to_container = frames_to_container


def frame_matches_reference(frame, cfg, msdu: bytes, msdu_tsc: int,
                            frag_index: int, tsc: int) -> bool:
    """True when ``frame`` is fragment ``frag_index`` of ``msdu`` sealed
    with counter ``tsc``, re-derived with the reference primitives.

    ``msdu_tsc`` is the counter of the MSDU's first fragment, which the
    LOTKIP tag also covers.
    """
    keys = cfg.keys
    lotkip = cfg.mode == "lotkip"
    if lotkip:
        if frame.layout not in LOTKIP_LAYOUTS:
            return False
    elif frame.layout is not FrameLayout.TKIP_BASELINE:
        return False
    if frame.tsc_low != tsc & 0xFFFF:
        return False
    if frame.tsc_hi is not None and frame.tsc_hi != tsc >> 16:
        return False
    mic = ref_michael_mic(keys.mic_key_tx, cfg.sa, cfg.da, cfg.priority,
                          msdu_tsc if lotkip else None, msdu)
    stream = msdu + mic
    chunk = stream[frag_index * cfg.frag_threshold:
                   (frag_index + 1) * cfg.frag_threshold]
    seed = ref_phase2(ref_phase1(keys.tk, keys.ta, tsc >> 16), keys.tk,
                      tsc & 0xFFFF)
    if frame.raw()[:3] != seed[:3]:
        return False
    return frame.body == ref_rc4(seed, chunk + ref_crc32_bytes(chunk))


def sim_csv_ok(text: str) -> bool:
    """LOTKIP network energy is below TKIP at every (packet size, placement)."""
    energy = {}
    for row in csv.DictReader(io.StringIO(text)):
        energy[(row["P"], row["placement"], row["scheme"])] = \
            float(row["network_energy_J"])
    pairs = {(p, pl) for p, pl, _ in energy}
    return bool(pairs) and all(
        (p, pl, s) in energy for p, pl in pairs for s in ("tkip", "lotkip")) \
        and all(energy[(p, pl, "lotkip")] < energy[(p, pl, "tkip")]
                for p, pl in pairs)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
