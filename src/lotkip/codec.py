"""MSDU/MPDU encapsulation for baseline TKIP and the low-overhead variant.

Both modes run one pipeline, owned by `SenderSession` and `ReceiverSession`.
Seal: the 8-byte Michael tag is appended to the MSDU, the result is split
into fragments, and every fragment gets its own counter value, its own
per-packet RC4 seed, and a CRC trailer before encryption.  Open runs the
checks in a fixed order -- counter resolution, fragment counter continuity,
replay window, key mixing, decrypt, CRC, reassembly, and the Michael verify
last -- so that noise, replays and spliced fragments can never feed the
MIC-failure countermeasures.

`seal_many`/`open_many` handle a whole file of MSDUs through the same
per-MSDU state machine.  For a block of enough MSDUs they first predict
every frame's counter and compute the Michael tags and RC4 outputs for
those counters in lanes (`lotkip.batch`), keyed by the inputs that
determine them; the state machine looks each result up and computes it on
the spot when the prediction missed.  Frames, results, session state and
exceptions are therefore those of a loop of `seal`/`open`.

`SessionConfig.mode` selects the only three things that differ: the frame
layout policy (always baseline, or the type A/type B schedule of
`is_type_a`), whether the Michael header carries the counter of the MSDU's
first fragment, and which layouts `open` accepts.

Wire layouts (after the MAC header, which is not modeled):

  baseline / type A / probe   B0 B1 B2 B3  TSC2 TSC3 TSC4 TSC5  <ciphertext>
  type B                      B0 B1 B2 B3  <ciphertext>

with B0 = TSC1, B1 = (TSC1 | 0x20) & 0x7F, B2 = TSC0 (the WEP IV bytes the
RC4 seed is required to start with), and the flags byte
B3 = key_id << 6 | extiv << 5 | type_a << 4 | probe << 3; bits 0-2 are zero.
Type A frames carry the full 48-bit counter; type B frames carry only its
low 16 bits and the receiver supplies the upper bits from the last type A
frame of the epoch.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from lotkip.crypto import (
    MicHeader,
    crc32_icv,
    michael_mic,
    phase1_mix,
    phase2_mix,
    rc4_apply,
)

MSDU_MAX_BYTES = 2304
FRAG_THRESHOLD_MIN = 256
FRAG_THRESHOLD_MAX = 2346
MIC_BYTES = 8
ICV_BYTES = 4
TSC_MAX = (1 << 48) - 1
# Counter values that share one upper-32-bit value, and so one phase 1 key.
EPOCH_FRAMES = 1 << 16
REPLAY_WINDOW_SIZE = 16
MIC_FAILURE_WINDOW_S = 60.0
BLACKOUT_S = 60.0
# For comparison: plain WEP appends 3 IV bytes + 1 key-id byte + 4 ICV bytes.
WEP_OVERHEAD_BYTES = 8
PROBE_PAYLOAD = b"\x00\x00\x00\x00"
# `seal_many`/`open_many` work through MSDUs in blocks of this many, so
# their lane buffers stay O(block) whatever the file size.
LANES_BLOCK_MSDUS = 128
# Smallest block whose crypto runs in lanes.  A lane step costs about the
# same for 1 lane as for 100, so lanes pay off only with enough MSDUs.
# seal_many + open_many, lanes against scalar, best of 9 on a 2-vCPU VM
# (Python 3.11, numpy 2.4): one 2304 B MSDU took 31 ms against 3 ms; lanes
# broke even near 8 MSDUs of 2304 B at threshold 1024, 12 at threshold
# 2346, 10 to 14 of 300 B, and 16 of 60 B, where RC4's 256-step key
# schedule dominates.
LANES_MIN_MSDUS = 10

Clock = Callable[[], float]


class CodecError(Exception):
    """Base class for encapsulation/decapsulation failures."""


class OversizeMsdu(CodecError):
    pass


class TscExhausted(CodecError):
    """Counter space used up; the session must be rekeyed before more traffic."""


class MalformedFrame(CodecError):
    pass


class ReplayRejected(CodecError):
    pass


class IcvMismatch(CodecError):
    pass


class MicFailure(CodecError):
    """Michael verify failed; recorded against the countermeasure state."""


class Blackout(CodecError):
    """Frame dropped: countermeasures have suspended traffic."""


class NoEpochState(CodecError):
    """Type B frame arrived before any type A frame of its counter epoch."""


class ProbingActive(CodecError):
    """Data transmission is stopped while the sender is probing."""


# ---------------------------------------------------------------------------
# Counter and key material
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Tsc48:
    """48-bit packet sequence counter; byte 0 is least significant."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= TSC_MAX:
            raise ValueError("counter out of 48-bit range")

    def byte(self, k: int) -> int:
        return (self.value >> (8 * k)) & 0xFF

    @property
    def low16(self) -> int:
        return self.value & 0xFFFF

    @property
    def high32(self) -> int:
        return self.value >> 16


@dataclass(frozen=True)
class SessionKeys:
    """Per-session key material: 128-bit encryption key plus the 64-bit
    integrity key for each direction, bound to the transmitter address."""

    tk: bytes
    mic_key_tx: bytes
    mic_key_rx: bytes
    ta: bytes
    key_id: int = 0

    def __post_init__(self) -> None:
        if len(self.tk) != 16:
            raise ValueError("tk must be 16 bytes")
        if len(self.mic_key_tx) != 8 or len(self.mic_key_rx) != 8:
            raise ValueError("integrity keys must be 8 bytes")
        if len(self.ta) != 6:
            raise ValueError("ta must be 6 bytes")
        if not 0 <= self.key_id <= 3:
            raise ValueError("key_id must be in 0..3")


# ---------------------------------------------------------------------------
# Frame layout
# ---------------------------------------------------------------------------

class FrameLayout(enum.Enum):
    TKIP_BASELINE = "tkip_baseline"
    LOTKIP_TYPE_A = "lotkip_type_a"
    LOTKIP_TYPE_B = "lotkip_type_b"
    PROBE = "probe"


_EXTENDED_LAYOUTS = (FrameLayout.TKIP_BASELINE, FrameLayout.LOTKIP_TYPE_A,
                     FrameLayout.PROBE)


@dataclass
class MpduFrame:
    """One on-air fragment: parsed header fields plus the encrypted body."""

    layout: FrameLayout
    key_id: int
    tsc_low: int
    tsc_hi: Optional[int]
    body: bytes

    @property
    def tsc(self) -> Optional[Tsc48]:
        if self.tsc_hi is None:
            return None
        return Tsc48((self.tsc_hi << 16) | self.tsc_low)

    def header(self) -> bytes:
        tsc1 = self.tsc_low >> 8
        extiv = self.layout in _EXTENDED_LAYOUTS
        type_a = self.layout in (FrameLayout.LOTKIP_TYPE_A, FrameLayout.PROBE)
        probe = self.layout is FrameLayout.PROBE
        flags = (self.key_id << 6) | (extiv << 5) | (type_a << 4) | (probe << 3)
        head = bytes((tsc1, (tsc1 | 0x20) & 0x7F, self.tsc_low & 0xFF, flags))
        if extiv:
            head += self.tsc_hi.to_bytes(4, "little")
        return head

    def raw(self) -> bytes:
        return self.header() + self.body


def parse_frame(raw: bytes) -> MpduFrame:
    if len(raw) < 4:
        raise MalformedFrame("frame shorter than minimum header")
    tsc1, check, tsc0, flags = raw[0], raw[1], raw[2], raw[3]
    if check != (tsc1 | 0x20) & 0x7F:
        raise MalformedFrame("WEP IV structure byte does not match")
    if flags & 0x07:
        raise MalformedFrame("reserved flag bits set")
    key_id = flags >> 6
    extiv = bool(flags & 0x20)
    type_a = bool(flags & 0x10)
    probe = bool(flags & 0x08)
    if (probe or type_a) and not extiv:
        raise MalformedFrame("type A and probe frames must carry the full counter")
    tsc_low = (tsc1 << 8) | tsc0
    if extiv:
        if len(raw) < 8:
            raise MalformedFrame("truncated extended counter field")
        tsc_hi = int.from_bytes(raw[4:8], "little")
        body = raw[8:]
        if probe:
            layout = FrameLayout.PROBE
        elif type_a:
            layout = FrameLayout.LOTKIP_TYPE_A
        else:
            layout = FrameLayout.TKIP_BASELINE
    else:
        tsc_hi = None
        body = raw[4:]
        layout = FrameLayout.LOTKIP_TYPE_B
    return MpduFrame(layout, key_id, tsc_low, tsc_hi, body)


# ---------------------------------------------------------------------------
# Replay window
# ---------------------------------------------------------------------------

class Classification(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    WINDOW = "window"


@dataclass
class ReplayWindow:
    """Highest counter seen plus the largest 16 accepted counter values.

    Duplicates are always rejected; a counter below the smallest tracked
    value is rejected once the window is full (16 entries), since it can no
    longer belong to an in-flight burst.
    """

    recent: list[int] = field(default_factory=list)

    @property
    def highest(self) -> Optional[int]:
        return max(self.recent) if self.recent else None

    def classify(self, tsc: "int | Tsc48") -> Classification:
        value = tsc.value if isinstance(tsc, Tsc48) else tsc
        if value in self.recent:
            return Classification.REJECT
        if not self.recent or value > max(self.recent):
            self._admit(value)
            return Classification.ACCEPT
        if len(self.recent) >= REPLAY_WINDOW_SIZE and value < min(self.recent):
            return Classification.REJECT
        self._admit(value)
        return Classification.WINDOW

    def _admit(self, value: int) -> None:
        self.recent.append(value)
        if len(self.recent) > REPLAY_WINDOW_SIZE:
            self.recent.remove(min(self.recent))


# ---------------------------------------------------------------------------
# MIC-failure countermeasures
# ---------------------------------------------------------------------------

@dataclass
class CountermeasureState:
    """Tracks Michael failures; two failures less than a minute apart
    suspend traffic for 60 seconds and demand a rekey."""

    last_failure: Optional[float] = None
    blackout_until: Optional[float] = None
    rekey_required: bool = False

    def in_blackout(self, now: float) -> bool:
        return self.blackout_until is not None and now < self.blackout_until

    def record_failure(self, now: float) -> bool:
        triggered = self.last_failure is not None and \
            (now - self.last_failure) < MIC_FAILURE_WINDOW_S
        self.last_failure = now
        if triggered:
            self.blackout_until = now + BLACKOUT_S
            self.rekey_required = True
        return triggered


# ---------------------------------------------------------------------------
# Seal/open building blocks
# ---------------------------------------------------------------------------

def fragment_count(msdu_len: int, frag_threshold: int) -> int:
    """Fragments produced for an MSDU of the given length (tag included)."""
    total = msdu_len + MIC_BYTES
    return max(1, -(-total // frag_threshold))


def _chunks(stream: bytes, frag_threshold: int) -> list[bytes]:
    if len(stream) <= frag_threshold:
        return [stream]
    return [stream[i:i + frag_threshold]
            for i in range(0, len(stream), frag_threshold)]


class _TtakCache:
    """Phase 1 results per upper-counter value, with an invocation counter
    so tests can assert how often the mixing actually ran."""

    __slots__ = ("hi", "ttak", "calls")

    def __init__(self) -> None:
        self.hi: Optional[int] = None
        self.ttak = None
        self.calls = 0

    def get(self, keys: SessionKeys, hi: int):
        if self.hi != hi:
            self.ttak = phase1_mix(keys.tk, keys.ta, hi)
            self.hi = hi
            self.calls += 1
        return self.ttak


# `pre` maps hold crypto results computed ahead in lanes for one session
# direction, keyed by the inputs that determine them: ("rc4", counter, data)
# -> RC4 of data under that counter's seed, ("mic", iv, msdu) -> the Michael
# tag.  A missing key is computed on the spot.  `lotkip.batch` predicts the
# inputs, and it and `lotkip.crypto.lanes` load on the first whole-file
# call, so processes that only seal or open single MSDUs never load them.

def _rc4(keys: SessionKeys, ttak, tsc: Tsc48, data: bytes, pre: dict) -> bytes:
    out = pre.get(("rc4", tsc.value, data)) if pre else None
    if out is None:
        out = rc4_apply(phase2_mix(ttak, keys.tk, tsc.low16), data)
    return out


def _mic(key: bytes, header: MicHeader, msdu: bytes, pre: dict) -> bytes:
    tag = pre.get(("mic", header.iv, msdu)) if pre else None
    if tag is None:
        tag = michael_mic(key, header, msdu)
    return tag


def _rc4_lanes(keys: SessionKeys, counters: list[int], datas: list[bytes],
               pre: dict) -> list[bytes]:
    """RC4 of each data buffer under its counter's seed, computed in lanes
    and stored in ``pre``."""
    from lotkip.crypto.lanes import rc4_apply_lanes
    ttaks: dict[int, tuple] = {}
    seeds = []
    for tsc in counters:
        hi = tsc >> 16
        if hi not in ttaks:
            ttaks[hi] = phase1_mix(keys.tk, keys.ta, hi)
        seeds.append(phase2_mix(ttaks[hi], keys.tk, tsc & 0xFFFF))
    outs = rc4_apply_lanes(seeds, datas)
    pre.update(((("rc4", tsc, data), out)
                for tsc, data, out in zip(counters, datas, outs)))
    return outs


def _mic_lanes(key: bytes, messages: list[tuple[MicHeader, bytes]],
               pre: dict) -> list[bytes]:
    """Michael tags of (header, msdu) pairs, computed in lanes and stored
    in ``pre``."""
    from lotkip.crypto.lanes import michael_mic_lanes
    tags = michael_mic_lanes(key, messages)
    pre.update(((("mic", header.iv, msdu), tag)
                for (header, msdu), tag in zip(messages, tags)))
    return tags


def _blocks(items: Iterable) -> Iterator[list]:
    it = iter(items)
    while block := list(islice(it, LANES_BLOCK_MSDUS)):
        yield block


def _seal_body(keys: SessionKeys, ttak, tsc: Tsc48, chunk: bytes,
               pre: dict) -> bytes:
    return _rc4(keys, ttak, tsc, chunk + crc32_icv(chunk), pre)


def _open_body(keys: SessionKeys, ttak, tsc: Tsc48, body: bytes,
               pre: dict) -> bytes:
    plain = _rc4(keys, ttak, tsc, bytes(body), pre)
    if len(plain) < ICV_BYTES:
        raise IcvMismatch("fragment too short to carry a check value")
    chunk, icv = plain[:-ICV_BYTES], plain[-ICV_BYTES:]
    if crc32_icv(chunk) != icv:
        raise IcvMismatch("fragment check value mismatch")
    return chunk


def _as_frame_list(frames: "MpduFrame | Iterable[MpduFrame]") -> list[MpduFrame]:
    if isinstance(frames, MpduFrame):
        return [frames]
    out = list(frames)
    if not out:
        raise MalformedFrame("no frames supplied")
    return out


# ---------------------------------------------------------------------------
# Type A schedule
# ---------------------------------------------------------------------------

def is_type_a(rearmed: bool, epoch_changed: bool, since_type_a: int,
              refresh_interval: int) -> bool:
    """The low-overhead layout rule for one data frame.

    A frame carries the full counter (type A) when it is the first frame
    after the sender was (re)armed, when its upper counter bits differ from
    the previous frame's, or when `since_type_a` -- the frames sent from the
    last type A frame on, that frame included -- has reached
    `refresh_interval`; otherwise it is a short type B frame.
    """
    return rearmed or epoch_changed or since_type_a >= refresh_interval


def lotkip_frame_classes(frames: int, refresh_interval: int) -> tuple[int, int, int]:
    """(epoch-first type A, refresh type A, type B) counts that `is_type_a`
    gives a stream of `frames` frames from counter 0 with no probing.

    The refresh count restarts at every epoch change, so an epoch of n
    frames holds ceil(n / refresh_interval) type A frames.
    """
    full, rest = divmod(frames, EPOCH_FRAMES)
    epochs = full + (rest > 0)
    type_a = (full * -(-EPOCH_FRAMES // refresh_interval)
              + -(-rest // refresh_interval))
    return epochs, type_a - epochs, frames - type_a


# ---------------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverheadLedger:
    """Per-frame encapsulation overhead, by field."""

    iv_keyid: int
    extiv: int
    mic: int
    icv: int

    @property
    def total(self) -> int:
        return self.iv_keyid + self.extiv + self.mic + self.icv


def overhead_of(layout: FrameLayout) -> OverheadLedger:
    if layout is FrameLayout.LOTKIP_TYPE_B:
        return OverheadLedger(iv_keyid=4, extiv=0, mic=8, icv=4)
    if layout in (FrameLayout.TKIP_BASELINE, FrameLayout.LOTKIP_TYPE_A):
        return OverheadLedger(iv_keyid=4, extiv=4, mic=8, icv=4)
    raise ValueError("probe frames carry no data and are not accounted")


# ---------------------------------------------------------------------------
# Framed container and session configuration
# ---------------------------------------------------------------------------

def frames_to_container(frames: Iterable[MpduFrame]) -> bytes:
    """Length-prefixed concatenation: 4-byte big-endian size per frame."""
    out = bytearray()
    for frame in frames:
        raw = frame.raw()
        out += struct.pack(">I", len(raw))
        out += raw
    return bytes(out)


def container_to_frames(data: bytes) -> list[MpduFrame]:
    frames = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise MalformedFrame("truncated container length prefix")
        (length,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if pos + length > len(data):
            raise MalformedFrame("container frame extends past end of data")
        frames.append(parse_frame(data[pos:pos + length]))
        pos += length
    return frames


def _parse_hex(value: str, expect_len: int, key: str) -> bytes:
    cleaned = value.replace(":", "").replace("-", "").strip()
    try:
        raw = bytes.fromhex(cleaned)
    except ValueError as exc:
        raise CodecError(f"config field {key!r}: invalid hex {value!r}") from exc
    if len(raw) != expect_len:
        raise CodecError(f"config field {key!r}: expected {expect_len} bytes, "
                         f"got {len(raw)}")
    return raw


@dataclass
class SessionConfig:
    """Parsed session description shared by both endpoints of a link.

    The integrity endpoints (sa, da, priority) are part of the tag input and
    must match on both sides; they default to the transmitter address, the
    broadcast address, and zero.  The mode, the fragmentation threshold, the
    refresh interval K and the priority are validated here, once for the
    whole session.
    """

    keys: SessionKeys
    mode: str = "tkip"
    refresh_interval: int = 256
    frag_threshold: int = FRAG_THRESHOLD_MAX
    sa: bytes = b""
    da: bytes = b"\xff" * 6
    priority: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("tkip", "lotkip"):
            raise CodecError(f"mode must be 'tkip' or 'lotkip', got {self.mode!r}")
        if not FRAG_THRESHOLD_MIN <= self.frag_threshold <= FRAG_THRESHOLD_MAX:
            raise CodecError(
                f"fragmentation threshold {self.frag_threshold} outside "
                f"[{FRAG_THRESHOLD_MIN}, {FRAG_THRESHOLD_MAX}]")
        if self.refresh_interval < 1:
            raise CodecError("K must be positive")
        if not 0 <= self.priority <= 0xFF:
            raise CodecError(f"priority must be in 0..255, got {self.priority}")
        if not self.sa:
            self.sa = self.keys.ta

    def mic_header(self, first_tsc: int) -> MicHeader:
        """Michael pseudo-header of an MSDU whose first fragment has counter
        `first_tsc`; only LOTKIP puts the counter in it."""
        return MicHeader(self.sa, self.da, self.priority,
                         first_tsc if self.mode == "lotkip" else None)


def parse_key_values(text: str, known: Iterable[str],
                     error: type[Exception]) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment.  A line without '=' or
    a key outside ``known`` raises ``error``."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - set(known)
    if unknown:
        raise error(f"unknown config fields: {', '.join(sorted(unknown))}")
    return fields


_SESSION_FIELDS = ("tk", "mic_key_tx", "mic_key_rx", "ta", "key_id", "mode",
                   "K", "frag_threshold", "sa", "da", "priority")


def parse_session_config(text: str) -> SessionConfig:
    """Parse a session config of key=value lines; '#' starts a comment."""
    fields = parse_key_values(text, _SESSION_FIELDS, CodecError)
    missing = [k for k in ("tk", "mic_key_tx", "mic_key_rx", "ta") if k not in fields]
    if missing:
        raise CodecError(f"config missing required fields: {', '.join(missing)}")

    try:
        keys = SessionKeys(
            tk=_parse_hex(fields["tk"], 16, "tk"),
            mic_key_tx=_parse_hex(fields["mic_key_tx"], 8, "mic_key_tx"),
            mic_key_rx=_parse_hex(fields["mic_key_rx"], 8, "mic_key_rx"),
            ta=_parse_hex(fields["ta"], 6, "ta"),
            key_id=int(fields.get("key_id", "0")),
        )
        return SessionConfig(
            keys=keys,
            mode=fields.get("mode", "tkip"),
            refresh_interval=int(fields.get("K", "256")),
            frag_threshold=int(fields.get("frag_threshold", str(FRAG_THRESHOLD_MAX))),
            sa=_parse_hex(fields["sa"], 6, "sa") if "sa" in fields else b"",
            da=_parse_hex(fields["da"], 6, "da") if "da" in fields else b"\xff" * 6,
            priority=int(fields.get("priority", "0")),
        )
    except ValueError as exc:
        raise CodecError(f"invalid session config: {exc}") from exc


# ---------------------------------------------------------------------------
# Stateful session endpoints
# ---------------------------------------------------------------------------

class SenderMode(enum.Enum):
    INITIAL = "initial"      # next data frame must carry the full counter
    STREAMING = "streaming"
    PROBING = "probing"      # data stopped, only probe frames go out


class ProbeEvent(enum.Enum):
    ACK_RECEIVED = "ack_received"
    ACK_TIMEOUT = "ack_timeout"


# Data frame layouts each mode's receiver accepts; a low-overhead receiver
# also accepts a lone probe.
_DATA_LAYOUTS = {
    "tkip": (FrameLayout.TKIP_BASELINE,),
    "lotkip": (FrameLayout.LOTKIP_TYPE_A, FrameLayout.LOTKIP_TYPE_B),
}


class SenderSession:
    """Owns the outbound counter, the probe/resume mode, the type A refresh
    count, and the phase 1 cache."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self.next_tsc = 0
        self.probe_mode = SenderMode.INITIAL
        self.since_type_a = 0
        self.ttak_cache = _TtakCache()

    def _alloc(self) -> Tsc48:
        if self.next_tsc > TSC_MAX:
            raise TscExhausted("counter space exhausted; rekey required")
        tsc = Tsc48(self.next_tsc)
        self.next_tsc += 1
        return tsc

    def _next_frame(self) -> tuple[Tsc48, FrameLayout, tuple]:
        """Counter, layout and phase 1 key of the next data frame."""
        cfg = self.config
        tsc = self._alloc()
        epoch_changed = self.ttak_cache.hi != tsc.high32
        ttak = self.ttak_cache.get(cfg.keys, tsc.high32)
        if cfg.mode == "tkip":
            layout = FrameLayout.TKIP_BASELINE
        elif is_type_a(self.probe_mode is SenderMode.INITIAL, epoch_changed,
                       self.since_type_a, cfg.refresh_interval):
            layout = FrameLayout.LOTKIP_TYPE_A
            self.since_type_a = 1
        else:
            layout = FrameLayout.LOTKIP_TYPE_B
            self.since_type_a += 1
        self.probe_mode = SenderMode.STREAMING
        return tsc, layout, ttak

    def seal(self, msdu: bytes) -> list[MpduFrame]:
        """Encapsulate one MSDU into frames with consecutive counters.  In
        LOTKIP mode the tag also covers the 48-bit counter of the MSDU's
        first fragment, since most frames do not carry its upper bits."""
        return self._seal_one(msdu, {})

    def seal_many(self, msdus: Iterable[bytes]) -> list[list[MpduFrame]]:
        """`seal` of each MSDU in order; one frame list per MSDU.

        In every block of at least LANES_MIN_MSDUS MSDUs, the tags and
        bodies for the counters the MSDUs will get are first computed in
        lanes; `seal` of each MSDU then looks them up.  Frames, sender
        state and any exception are those of a loop of `seal`.
        """
        from lotkip.batch import seal_block
        sealed = []
        for block in _blocks(msdus):
            pre = seal_block(self, block) if len(block) >= LANES_MIN_MSDUS else {}
            for msdu in block:
                sealed.append(self._seal_one(msdu, pre))
        return sealed

    def _seal_one(self, msdu: bytes, pre: dict) -> list[MpduFrame]:
        cfg = self.config
        keys = cfg.keys
        if self.probe_mode is SenderMode.PROBING:
            raise ProbingActive("sender is probing; data transmission stopped")
        if len(msdu) > MSDU_MAX_BYTES:
            raise OversizeMsdu(f"MSDU of {len(msdu)} bytes exceeds {MSDU_MAX_BYTES}")
        if self.next_tsc + fragment_count(len(msdu), cfg.frag_threshold) - 1 > TSC_MAX:
            raise TscExhausted("counter would overflow; rekey required")
        msdu = bytes(msdu)
        mic = _mic(keys.mic_key_tx, cfg.mic_header(self.next_tsc), msdu, pre)
        frames = []
        for chunk in _chunks(msdu + mic, cfg.frag_threshold):
            tsc, layout, ttak = self._next_frame()
            hi = None if layout is FrameLayout.LOTKIP_TYPE_B else tsc.high32
            frames.append(MpduFrame(layout, keys.key_id, tsc.low16, hi,
                                    _seal_body(keys, ttak, tsc, chunk, pre)))
        return frames

    def probe_cycle(self, event: ProbeEvent) -> None:
        """Advance the loss-recovery machine.

        Any ack timeout stops data and enters probing.  An acknowledged probe
        re-arms the sender so the next data frame is a full-counter type A
        frame; an ack while already re-armed simply resumes streaming.
        """
        if event is ProbeEvent.ACK_TIMEOUT:
            self.probe_mode = SenderMode.PROBING
        elif self.probe_mode is SenderMode.PROBING:
            self.probe_mode = SenderMode.INITIAL
        elif self.probe_mode is SenderMode.INITIAL:
            self.probe_mode = SenderMode.STREAMING

    def make_probe(self) -> MpduFrame:
        """A 16-byte keep-alive: full-counter header plus an encrypted
        fixed zero payload with its check value."""
        keys = self.config.keys
        tsc = self._alloc()
        ttak = self.ttak_cache.get(keys, tsc.high32)
        body = _seal_body(keys, ttak, tsc, PROBE_PAYLOAD, {})
        return MpduFrame(FrameLayout.PROBE, keys.key_id, tsc.low16, tsc.high32, body)


class ReceiverSession:
    """Owns the replay window, the countermeasure state, and the phase 1
    cache, whose upper counter value is the epoch type B frames resolve to."""

    def __init__(self, config: SessionConfig, clock: Optional[Clock] = None) -> None:
        self.config = config
        self.clock = clock
        self.window = ReplayWindow()
        self.cm_state = CountermeasureState()
        self.ttak_cache = _TtakCache()

    def open(self, frames: "MpduFrame | Iterable[MpduFrame]") -> Optional[bytes]:
        """Decapsulate the fragments of one MSDU, or validate a lone LOTKIP
        probe and return None; raises on the first failed check."""
        return self._open_one(frames, {})

    def open_many(self, groups: Iterable["MpduFrame | Iterable[MpduFrame]"]
                  ) -> list[Optional[bytes]]:
        """`open` of each group (the fragments of one MSDU, or a lone probe)
        in order; one result per group.

        In every block of at least LANES_MIN_MSDUS groups, the plaintexts
        and tags for the counters the frames are predicted to resolve to
        are first computed in lanes; `open` of each group then looks them
        up.  Results, receiver state and any exception are those of a loop
        of `open`.
        """
        from lotkip.batch import open_block
        opened = []
        for block in _blocks(groups):
            block = [[g] if isinstance(g, MpduFrame) else list(g) for g in block]
            pre = open_block(self, block) if len(block) >= LANES_MIN_MSDUS else {}
            for frames in block:
                opened.append(self._open_one(frames, pre))
        return opened

    def _open_one(self, frames: "MpduFrame | Iterable[MpduFrame]",
                  pre: dict) -> Optional[bytes]:
        cfg = self.config
        keys = cfg.keys
        now = self.clock() if self.clock is not None else 0.0
        if self.cm_state.in_blackout(now):
            raise Blackout("countermeasures active; frame dropped")
        frame_list = _as_frame_list(frames)
        probe = cfg.mode == "lotkip" and frame_list[0].layout is FrameLayout.PROBE
        if probe and len(frame_list) != 1:
            raise MalformedFrame("probe frames are not fragmented")
        accepted = (FrameLayout.PROBE,) if probe else _DATA_LAYOUTS[cfg.mode]

        chunks = []
        for i, frame in enumerate(frame_list):
            if frame.layout not in accepted:
                raise MalformedFrame(f"unexpected layout {frame.layout.value}")
            if frame.tsc_hi is not None:
                tsc = frame.tsc
            elif self.ttak_cache.hi is None:
                raise NoEpochState("type B frame before any type A frame")
            else:
                tsc = Tsc48((self.ttak_cache.hi << 16) | frame.tsc_low)
            if i == 0:
                first = tsc
            elif tsc.value != first.value + i:
                raise MalformedFrame("fragment counters are not consecutive")
            if self.window.classify(tsc) is Classification.REJECT:
                raise ReplayRejected(f"counter {tsc.value:#014x} rejected")
            ttak = self.ttak_cache.get(keys, tsc.high32)
            chunks.append(_open_body(keys, ttak, tsc, frame.body, pre))
        if probe:
            if chunks[0] != PROBE_PAYLOAD:
                raise MalformedFrame("probe payload mismatch")
            return None

        stream = b"".join(chunks)
        msdu, tag = stream[:-MIC_BYTES], stream[-MIC_BYTES:]
        if len(stream) < MIC_BYTES or tag != _mic(
                keys.mic_key_rx, cfg.mic_header(first.value), msdu, pre):
            self.cm_state.record_failure(now)
            raise MicFailure("Michael tag mismatch")
        return msdu
