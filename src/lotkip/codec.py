"""MSDU/MPDU encapsulation for baseline TKIP and the low-overhead variant.

Both modes run one pipeline, owned by `SenderSession` and `ReceiverSession`.
`seal`/`open` run it on a block of one MSDU, `seal_many`/`open_many` on
blocks of up to LANES_BLOCK_MSDUS, in three passes: check, compute, commit.

Seal: the sender's state never depends on the crypto, so the check pass
allocates each MSDU's counters, layouts and phase 1 keys in order, raising
at the first failed check.  The compute pass appends each MSDU's Michael
tag, splits the result into fragments, and encrypts each with a CRC
trailer under its own per-packet RC4 seed.

Open: the check pass is pure.  For each group of frames it checks layout,
counter resolution, fragment counter continuity and the replay counter,
against the window and epoch that the block's earlier groups would leave if
they committed.  TKIP, as in 802.11, admits only a counter above the
highest it has admitted; LOTKIP admits any counter its `ReplayWindow` does
not reject.  The compute pass runs key mixing and RC4 for the groups
that passed, checks each fragment's CRC once, and derives the tags of the
data groups.  Either pass stops at the first failure and records it instead
of raising it.  The commit pass then walks the groups in order, reading the
clock and checking for blackout before each.  It verifies the probe
payload or the Michael tag, and only then admits the group's counters to
the window and takes its epoch into the phase 1 cache; at the failed group
it raises the recorded failure.  So noise, replays, forgeries and spliced
fragments can never move receiver state or feed the MIC-failure
countermeasures, and a block's results, state and first exception are
those of a loop of `seal`/`open`.

Each crypto step runs in numpy lanes (`lotkip.crypto.lanes`) for a block of
at least LANES_MIN_MSDUS MSDUs, and on the scalar functions otherwise.

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
from itertools import islice, repeat
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
# seal_many + open_many in LOTKIP mode, lanes against scalar, best of 11,
# two runs on one pinned CPU of a 2-vCPU VM (Python 3.11, numpy 2.4): lanes
# broke even near 12 to 14 MSDUs of 2304 B at threshold 1024, 18 at
# threshold 2346, 18 to 20 of 300 B, and 18 to 22 of 60 B, where RC4's
# 256-step key schedule dominates.
LANES_MIN_MSDUS = 18

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
# Key material
# ---------------------------------------------------------------------------

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


# Module-level names for the members: the per-frame code reads these, since
# a plain global loads several times faster than an enum attribute.
_BASELINE = FrameLayout.TKIP_BASELINE
_TYPE_A = FrameLayout.LOTKIP_TYPE_A
_TYPE_B = FrameLayout.LOTKIP_TYPE_B
_PROBE = FrameLayout.PROBE

_EXTENDED_LAYOUTS = (_BASELINE, _TYPE_A, _PROBE)


@dataclass
class MpduFrame:
    """One on-air fragment: parsed header fields plus the encrypted body."""

    layout: FrameLayout
    key_id: int
    tsc_low: int
    tsc_hi: Optional[int]
    body: bytes

    @property
    def tsc(self) -> Optional[int]:
        """The 48-bit counter, if the frame carries all of it."""
        if self.tsc_hi is None:
            return None
        return (self.tsc_hi << 16) | self.tsc_low

    def header(self) -> bytes:
        tsc1 = self.tsc_low >> 8
        extiv = self.layout in _EXTENDED_LAYOUTS
        type_a = self.layout in (_TYPE_A, _PROBE)
        probe = self.layout is _PROBE
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
            layout = _PROBE
        elif type_a:
            layout = _TYPE_A
        else:
            layout = _BASELINE
    else:
        tsc_hi = None
        body = raw[4:]
        layout = _TYPE_B
    return MpduFrame(layout, key_id, tsc_low, tsc_hi, body)


# ---------------------------------------------------------------------------
# Replay window
# ---------------------------------------------------------------------------

class Classification(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    WINDOW = "window"


_ACCEPT = Classification.ACCEPT
_REJECT = Classification.REJECT
_WINDOW = Classification.WINDOW


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

    def check(self, value: int) -> Classification:
        """How `classify` treats `value`, without admitting it."""
        if value in self.recent:
            return _REJECT
        if not self.recent or value > max(self.recent):
            return _ACCEPT
        if len(self.recent) >= REPLAY_WINDOW_SIZE and value < min(self.recent):
            return _REJECT
        return _WINDOW

    def classify(self, value: int) -> Classification:
        """`check`, then `admit` a value that is not rejected."""
        verdict = self.check(value)
        if verdict is not _REJECT:
            self.admit(value)
        return verdict

    def admit(self, value: int) -> None:
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
    """The phase 1 key of one upper-counter value, the epoch, and `calls`,
    the number of keys it has taken, so tests can assert how often the
    mixing ran.  A sender takes every key it derives; a receiver derives a
    new epoch's key as a candidate and takes it once a group that uses it
    has verified."""

    __slots__ = ("hi", "ttak", "calls")

    def __init__(self) -> None:
        self.hi: Optional[int] = None
        self.ttak = None
        self.calls = 0

    def candidate(self, keys: SessionKeys, hi: int):
        """The phase 1 key of `hi`, derived without taking it."""
        return phase1_mix(keys.tk, keys.ta, hi)

    def take(self, hi: int, ttak) -> None:
        if hi != self.hi:
            self.hi, self.ttak = hi, ttak
            self.calls += 1

    def get(self, keys: SessionKeys, hi: int):
        """The phase 1 key of `hi`, taken into the cache."""
        if hi != self.hi:
            self.take(hi, self.candidate(keys, hi))
        return self.ttak


# `lotkip.crypto.lanes` loads on first use; lanes and scalar give the same bytes.

def _michael_many(key: bytes, headers: list[MicHeader], msdus: list[bytes],
                  lanes: bool) -> list[bytes]:
    if lanes:
        from lotkip.crypto.lanes import michael_mic_lanes
        return michael_mic_lanes(key, list(zip(headers, msdus)))
    return list(map(michael_mic, repeat(key), headers, msdus))


def _rc4_many(seeds: list[bytes], datas: list[bytes], lanes: bool) -> list[bytes]:
    if lanes:
        from lotkip.crypto.lanes import rc4_apply_lanes
        return rc4_apply_lanes(seeds, datas)
    return list(map(rc4_apply, seeds, datas))


def _blocks(items: Iterable) -> Iterator[list]:
    it = iter(items)
    while block := list(islice(it, LANES_BLOCK_MSDUS)):
        yield block


def _strip_icv(plain: bytes) -> bytes:
    """A decrypted fragment without its check value, once that matches."""
    if len(plain) < ICV_BYTES:
        raise IcvMismatch("fragment too short to carry a check value")
    chunk = plain[:-ICV_BYTES]
    if crc32_icv(chunk) != plain[-ICV_BYTES:]:
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
    if layout is _TYPE_B:
        return OverheadLedger(iv_keyid=4, extiv=0, mic=8, icv=4)
    if layout in (_BASELINE, _TYPE_A):
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


@dataclass(frozen=True)
class SessionConfig:
    """Parsed session description shared by both endpoints of a link.

    The integrity endpoints (sa, da, priority) are part of the tag input and
    must match on both sides; they default to the transmitter address, the
    broadcast address, and zero.  The mode, the fragmentation threshold, the
    refresh interval K and the priority are validated here, once for the
    whole session; the config is frozen, so a changed copy comes from
    `dataclasses.replace`, which validates it again.
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
            object.__setattr__(self, "sa", self.keys.ta)

    def mic_header(self, first_tsc: int) -> MicHeader:
        """Michael pseudo-header of an MSDU whose first fragment has counter
        `first_tsc`; only LOTKIP puts the counter in it."""
        return MicHeader(self.sa, self.da, self.priority,
                         first_tsc if self.mode == "lotkip" else None)


def _session_mic_header(config: SessionConfig) -> Callable[[int], MicHeader]:
    """`config.mic_header` as a session uses it.  A TKIP header holds no
    counter, so the session builds it once, here."""
    if config.mode == "lotkip":
        return config.mic_header
    header = config.mic_header(0)
    return lambda first_tsc: header


def parse_key_values(text: str, known: Iterable[str],
                     error: type[Exception]) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment.  A line without '=', a
    key given twice or a key outside ``known`` raises ``error``."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise error(f"config line {lineno}: {key} is already set")
        fields[key] = value.strip()
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


_INITIAL = SenderMode.INITIAL
_STREAMING = SenderMode.STREAMING
_PROBING = SenderMode.PROBING


class ProbeEvent(enum.Enum):
    ACK_RECEIVED = "ack_received"
    ACK_TIMEOUT = "ack_timeout"


# Data frame layouts each mode's receiver accepts; a low-overhead receiver
# also accepts a lone probe.
_DATA_LAYOUTS = {
    "tkip": (_BASELINE,),
    "lotkip": (_TYPE_A, _TYPE_B),
}


class SenderSession:
    """Owns the outbound counter, the probe/resume mode, the type A refresh
    count, and the phase 1 cache."""

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self.next_tsc = 0
        self.probe_mode = _INITIAL
        self.since_type_a = 0
        self.ttak_cache = _TtakCache()
        self._mic_header = _session_mic_header(config)

    def _alloc(self) -> int:
        if self.next_tsc > TSC_MAX:
            raise TscExhausted("counter space exhausted; rekey required")
        self.next_tsc += 1
        return self.next_tsc - 1

    def _next_frame(self) -> tuple[int, FrameLayout, tuple]:
        """Counter, layout and phase 1 key of the next data frame."""
        cfg = self.config
        tsc = self._alloc()
        epoch_changed = self.ttak_cache.hi != tsc >> 16
        ttak = self.ttak_cache.get(cfg.keys, tsc >> 16)
        if cfg.mode == "tkip":
            layout = _BASELINE
        elif is_type_a(self.probe_mode is _INITIAL, epoch_changed,
                       self.since_type_a, cfg.refresh_interval):
            layout = _TYPE_A
            self.since_type_a = 1
        else:
            layout = _TYPE_B
            self.since_type_a += 1
        self.probe_mode = _STREAMING
        return tsc, layout, ttak

    def seal(self, msdu: bytes) -> list[MpduFrame]:
        """Encapsulate one MSDU into frames with consecutive counters.  In
        LOTKIP mode the tag also covers the 48-bit counter of the MSDU's
        first fragment, since most frames do not carry its upper bits."""
        return self._seal_block([msdu])[0]

    def seal_many(self, msdus: Iterable[bytes]) -> list[list[MpduFrame]]:
        """`seal` of each MSDU in order; one frame list per MSDU.  Frames,
        sender state and any exception are those of a loop of `seal`."""
        return [frames for block in _blocks(msdus)
                for frames in self._seal_block(block)]

    def _seal_block(self, block: list[bytes]) -> list[list[MpduFrame]]:
        cfg = self.config
        keys = cfg.keys
        # check each MSDU and allocate its frames; sender state never
        # depends on the crypto, so a failed check raises at once
        headers, msdus, allocs = [], [], []
        for msdu in block:
            if self.probe_mode is _PROBING:
                raise ProbingActive("sender is probing; data transmission stopped")
            if len(msdu) > MSDU_MAX_BYTES:
                raise OversizeMsdu(f"MSDU of {len(msdu)} bytes exceeds {MSDU_MAX_BYTES}")
            count = fragment_count(len(msdu), cfg.frag_threshold)
            if self.next_tsc + count - 1 > TSC_MAX:
                raise TscExhausted("counter would overflow; rekey required")
            headers.append(self._mic_header(self.next_tsc))
            msdus.append(bytes(msdu))
            allocs.append([self._next_frame() for _ in range(count)])
        # compute every tag, one check value per chunk, then every body
        lanes = len(block) >= LANES_MIN_MSDUS
        tags = _michael_many(keys.mic_key_tx, headers, msdus, lanes)
        seeds, plains = [], []
        for msdu, tag, frames in zip(msdus, tags, allocs):
            for chunk, (tsc, _, ttak) in zip(_chunks(msdu + tag, cfg.frag_threshold),
                                             frames):
                seeds.append(phase2_mix(ttak, keys.tk, tsc & 0xFFFF))
                plains.append(chunk + crc32_icv(chunk))
        bodies = iter(_rc4_many(seeds, plains, lanes))
        sealed = []
        for frames in allocs:
            out = []
            for tsc, layout, _ in frames:
                hi = tsc >> 16 if layout in _EXTENDED_LAYOUTS else None
                out.append(MpduFrame(layout, keys.key_id, tsc & 0xFFFF, hi, next(bodies)))
            sealed.append(out)
        return sealed

    def probe_cycle(self, event: ProbeEvent) -> None:
        """Advance the loss-recovery machine.

        Any ack timeout stops data and enters probing.  An acknowledged probe
        re-arms the sender so the next data frame is a full-counter type A
        frame; an ack while already re-armed simply resumes streaming.
        """
        if event is ProbeEvent.ACK_TIMEOUT:
            self.probe_mode = _PROBING
        elif self.probe_mode is _PROBING:
            self.probe_mode = _INITIAL
        elif self.probe_mode is _INITIAL:
            self.probe_mode = _STREAMING

    def make_probe(self) -> MpduFrame:
        """A 16-byte keep-alive: full-counter header plus an encrypted
        fixed zero payload with its check value."""
        keys = self.config.keys
        tsc = self._alloc()
        seed = phase2_mix(self.ttak_cache.get(keys, tsc >> 16), keys.tk, tsc & 0xFFFF)
        body = rc4_apply(seed, PROBE_PAYLOAD + crc32_icv(PROBE_PAYLOAD))
        return MpduFrame(_PROBE, keys.key_id, tsc & 0xFFFF, tsc >> 16, body)


class ReceiverSession:
    """Owns the replay window, the countermeasure state, and the phase 1
    cache, whose upper counter value is the epoch type B frames resolve to.
    Only a group that passes every check, the Michael verify or the probe
    payload last, moves the window or the epoch.  In TKIP mode a counter
    must exceed the window's highest; the window's own `WINDOW` verdict,
    an unseen counter below it, counts as a replay."""

    def __init__(self, config: SessionConfig, clock: Optional[Clock] = None) -> None:
        self.config = config
        self.clock = clock
        self.window = ReplayWindow()
        self.cm_state = CountermeasureState()
        self.ttak_cache = _TtakCache()
        self._mic_header = _session_mic_header(config)

    def open(self, frames: "MpduFrame | Iterable[MpduFrame]") -> Optional[bytes]:
        """Decapsulate the fragments of one MSDU, or validate a lone LOTKIP
        probe and return None; raises on the first failed check."""
        return self._open_block([frames])[0]

    def open_many(self, groups: Iterable["MpduFrame | Iterable[MpduFrame]"]
                  ) -> list[Optional[bytes]]:
        """`open` of each group (the fragments of one MSDU, or a lone probe)
        in order; one result per group.  Results, receiver state and any
        exception are those of a loop of `open`."""
        return [msdu for block in _blocks(groups)
                for msdu in self._open_block(block)]

    def _now(self) -> float:
        """The clock's time, unless countermeasures suspend traffic then."""
        now = self.clock() if self.clock is not None else 0.0
        if self.cm_state.in_blackout(now):
            raise Blackout("countermeasures active; frame dropped")
        return now

    def _check(self, block: list) -> tuple[list, Optional[CodecError]]:
        """(frames, counters, probe) of each group up to the first that fails
        a header check, and that failure.  Each group is checked against the
        window and epoch its earlier groups leave, as if they had committed:
        the first against the session's window, which checking leaves as it
        is, the later ones against a trial copy."""
        mode = self.config.mode
        # 802.11 TKIP keeps one strictly increasing counter per priority
        replays = (_REJECT, _WINDOW) if mode == "tkip" else (_REJECT,)
        window = self.window
        hi = self.ttak_cache.hi
        plans = []
        try:
            for group in block:
                if plans:
                    if window is self.window:
                        window = ReplayWindow(list(window.recent))
                    for tsc in plans[-1][1]:
                        window.admit(tsc)
                frames = _as_frame_list(group)
                probe = mode == "lotkip" and frames[0].layout is _PROBE
                if probe and len(frames) != 1:
                    raise MalformedFrame("probe frames are not fragmented")
                accepted = (_PROBE,) if probe else _DATA_LAYOUTS[mode]
                counters = []
                for frame in frames:
                    if frame.layout not in accepted:
                        raise MalformedFrame(f"unexpected layout {frame.layout.value}")
                    if frame.tsc_hi is not None:
                        hi = frame.tsc_hi
                    elif hi is None:
                        raise NoEpochState("type B frame before any type A frame")
                    # a shifted field is non-zero if it is too large or negative
                    if frame.tsc_low >> 16 or hi >> 32:
                        raise MalformedFrame("counter field out of range")
                    tsc = (hi << 16) | frame.tsc_low
                    if counters and tsc != counters[-1] + 1:
                        raise MalformedFrame("fragment counters are not consecutive")
                    # admitting the group's own earlier counters, which are
                    # consecutive and lower, could not change this verdict
                    if window.check(tsc) in replays:
                        raise ReplayRejected(f"counter {tsc:#014x} rejected")
                    counters.append(tsc)
                plans.append((frames, counters, probe))
        except CodecError as exc:
            return plans, exc
        return plans, None

    def _open_block(self, block: list) -> list[Optional[bytes]]:
        cfg = self.config
        keys = cfg.keys
        cache = self.ttak_cache
        plans, error = self._check(block)
        # compute every frame's plaintext and check value, then the tag of
        # every data group whose fragments all check out
        ttaks = {cache.hi: cache.ttak}
        seeds, bodies = [], []
        for frames, counters, _ in plans:
            for frame, tsc in zip(frames, counters):
                hi = tsc >> 16
                if hi not in ttaks:
                    ttaks[hi] = cache.candidate(keys, hi)
                seeds.append(phase2_mix(ttaks[hi], keys.tk, tsc & 0xFFFF))
                bodies.append(frame.body)
        lanes = len(block) >= LANES_MIN_MSDUS
        plains = iter(_rc4_many(seeds, bodies, lanes))
        streams, headers, msdus = [], [], []
        try:
            for frames, counters, probe in plans:
                stream = b"".join(map(_strip_icv, islice(plains, len(frames))))
                streams.append(stream)
                if not probe and len(stream) >= MIC_BYTES:
                    headers.append(self._mic_header(counters[0]))
                    msdus.append(stream[:-MIC_BYTES])
        except IcvMismatch as exc:
            error = exc         # raised in place of this group and the rest
        tags = iter(_michael_many(keys.mic_key_rx, headers, msdus, lanes))
        # verify each group in order, then commit its counters and epoch
        opened = []
        for (_, counters, probe), stream in zip(plans, streams):
            now = self._now()
            if probe:
                if stream != PROBE_PAYLOAD:
                    raise MalformedFrame("probe payload mismatch")
                opened.append(None)
            elif len(stream) >= MIC_BYTES and stream[-MIC_BYTES:] == next(tags):
                opened.append(stream[:-MIC_BYTES])
            else:
                self.cm_state.record_failure(now)
                raise MicFailure("Michael tag mismatch")
            for tsc in counters:
                self.window.admit(tsc)
            hi = counters[-1] >> 16
            cache.take(hi, ttaks[hi])
        if error is not None:
            self._now()
            raise error
        return opened
