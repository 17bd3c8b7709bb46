"""Byte-exact TKIP primitives: Michael MIC, CRC-32 ICV, two-phase per-packet
key mixing, and RC4."""

from lotkip.crypto.crc32 import crc32_icv
from lotkip.crypto.keymix import (
    TKIP_SBOX,
    phase1_mix,
    phase2_mix,
)
from lotkip.crypto.michael import (
    michael_header,
    michael_key_words,
    michael_mic,
    michael_mic_lanes,
    michael_midstate,
    michael_pad,
)
from lotkip.crypto.rc4 import rc4_apply, rc4_ksa

__all__ = [
    "TKIP_SBOX",
    "crc32_icv",
    "michael_header",
    "michael_key_words",
    "michael_mic",
    "michael_mic_lanes",
    "michael_midstate",
    "michael_pad",
    "phase1_mix",
    "phase2_mix",
    "rc4_apply",
    "rc4_ksa",
]
