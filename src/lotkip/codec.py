"""MSDU/MPDU encapsulation for baseline TKIP and the low-overhead variant.

Both modes run one pipeline, owned by `SenderSession` and `ReceiverSession`.
`seal`/`open` run it on a block of one MSDU, `seal_many`/`open_many` on
blocks of up to LANES_BLOCK_MSDUS: one pass over the block's MSDUs, then
Michael for the whole block, then each MSDU is encrypted or committed.

Seal: the sender's state never depends on the crypto, so the pass builds
each MSDU's frames in order, with their counters and layouts but empty
bodies, and takes each frame's phase 1 key, raising at the first failed
check.  Then each MSDU's Michael tag is appended, the result split into
fragments, and each fragment encrypted with a CRC trailer under its own
per-packet RC4 seed, as its frame's body.

Open: the pass is pure.  For each group of frames it checks layout,
counter resolution, fragment numbers and more-fragments bits, fragment
counter continuity and the replay counter, against the window and epoch the
block's earlier groups would leave if they committed; each frame that
passes takes its epoch's phase 1 key, derived at most once a block.  It
then decrypts the group and checks each fragment's CRC, so the epoch a
frame resolved to is confirmed before the next group is checked against
it, fails an MSDU too short for a tag as malformed, and builds the window
the group would leave.  The pass records its first failure instead of
raising it, and Michael derives the tags of the groups before it, probes
included.  The commit pass then walks those groups in order, reading the
clock and checking for blackout before each.  It verifies the Michael tag,
then a probe's payload, and only then installs the group's window and
takes its epoch into the phase 1 cache; at the failed group it raises
the recorded failure.  So unauthenticated input never
moves receiver state or feeds the MIC-failure countermeasures, and a
block's results, state and first exception are those of a loop of
`seal`/`open`.  The clock is `time.monotonic` unless the receiver is given
another, as tests and simulations give one.

Phase 2 key mixing and RC4 run once per frame, RC4 on libcrypto where it
binds (`lotkip.crypto.rc4`).  Michael runs in lanes (`michael_mic_lanes`)
for at least LANES_MIN_MSDUS MSDUs, and on `michael_mic` otherwise.
Michael's pseudo-header is fixed for a session but for LOTKIP's counter, so
each session absorbs the fixed part once, into its direction's midstate,
and every tag starts from there.

`SessionConfig.mode` selects the only four things that differ: the frame
layout policy (always baseline, or the type A/type B schedule of
`is_type_a`), whether the Michael tag covers the counter of the MSDU's
first fragment, which layouts `open` accepts, and the replay rule (TKIP
admits only a counter above the highest it has admitted, LOTKIP any
counter its `ReplayWindow` does not reject).

Wire layouts (after the MAC header, which is not modeled):

  baseline / type A / probe   B0 B1 B2 B3  TSC2 TSC3 TSC4 TSC5  <ciphertext>
  type B                      B0 B1 B2 B3  <ciphertext>

with B0 = TSC1, B1 = (TSC1 | 0x20) & 0x7F, B2 = TSC0 (the WEP IV bytes the
RC4 seed is required to start with), and the flags byte B3 = key_id << 6 |
F, where F is 0x20 (baseline), 0x30 (type A), 0x38 (probe) or 0x00
(type B).  Bit 5 of F marks the extended counter field TSC2..TSC5; a frame
whose low six flag bits hold any other value is malformed.  Type A frames
carry the full 48-bit counter; type B frames carry only its low 16 bits
and the receiver supplies the upper bits from the last type A frame of the
epoch.

Container (`lotkip seal`'s output): one record per frame, a 4-byte
big-endian prefix and then the frame's bytes,

  prefix = more_fragments << 28 | fragment << 24 | length

where length (bits 0-23) is the frame's byte count, fragment (bits 24-27)
its number within its MSDU, and more_fragments (bit 28) is set on every
fragment but an MSDU's last, as the 802.11 MAC header carries them.  Bits
29-31 are reserved and zero.  A record of a one-fragment MSDU or of a
probe is a plain length.  The record bits are not authenticated, as the
MAC header's are not; a receiver checks them against each group's
position before any crypto.
"""

from __future__ import annotations

import enum
import struct
import time
from dataclasses import dataclass, field, fields
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Optional

from lotkip.crypto import (
    crc32_icv,
    michael_header,
    michael_mic,
    michael_mic_lanes,
    michael_midstate,
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
PROBE_PAYLOAD = b"\x00\x00\x00\x00"
# `seal_many`/`open_many` work through MSDUs in blocks of this many, so
# their lane buffers stay O(block) whatever the file size.  Michael's lanes
# took 84, 59, 45 and 42 ns per lane-word at 32, 64, 128 and 256 lanes of
# 2304 B (one pinned CPU of a 2-vCPU VM), so a larger block needs Michael
# measured again.
LANES_BLOCK_MSDUS = 128
# Fewest MSDUs whose Michael tags run in lanes, the codec's only lane
# kernel.  `michael_mic_lanes` against a `michael_mic` loop, 9 alternating
# rounds on one pinned CPU of a 2-vCPU VM (Python 3.11).  At 2 MSDUs lanes
# ran 0.84 to 1.02 times as fast at 60 B to 2304 B and half as fast at 1 to
# 20 B.  At 3 MSDUs they ran 1.17 to 1.28 times as fast at 60 B and 1.29 to
# 1.97 at 300 B and 2304 B, saving ~0.5 ms at 2304 B; at 1 to 20 B they
# ran 0.80 to 0.87 times as fast, 3 to 4 us per block.
LANES_MIN_MSDUS = 3

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
        for name, size in (("tk", 16), ("mic_key_tx", 8), ("mic_key_rx", 8), ("ta", 6)):
            got = len(getattr(self, name))
            if got != size:
                raise ValueError(f"{name} must be {size} bytes, got {got}")
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

# The low six bits of each layout's flags byte; bit 5 marks the extended
# counter field.
_LAYOUT_FLAGS = {_BASELINE: 0x20, _TYPE_A: 0x30, _PROBE: 0x38, _TYPE_B: 0x00}
_FLAGS_LAYOUT = {flags: layout for layout, flags in _LAYOUT_FLAGS.items()}
# a probe's tag covers its flags byte, so no probe or data MSDU opens as the other
_PROBE_MIC = bytes((_LAYOUT_FLAGS[_PROBE],))


@dataclass
class MpduFrame:
    """One on-air fragment: parsed header fields plus the encrypted body,
    and its fragment number within its MSDU and whether more fragments
    follow, which the MAC header (here the container record) carries."""

    layout: FrameLayout
    key_id: int
    tsc_low: int
    tsc_hi: Optional[int]
    body: bytes
    fragment: int = 0
    more_fragments: bool = False

    def header(self) -> bytes:
        tsc1 = self.tsc_low >> 8
        flags = _LAYOUT_FLAGS[self.layout]
        head = bytes((tsc1, (tsc1 | 0x20) & 0x7F, self.tsc_low & 0xFF,
                      self.key_id << 6 | flags))
        if flags & 0x20:
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
    layout = _FLAGS_LAYOUT.get(flags & 0x3F)
    if layout is None:
        raise MalformedFrame(f"invalid flags byte {flags:#04x}")
    tsc_low = (tsc1 << 8) | tsc0
    if not flags & 0x20:
        return MpduFrame(layout, flags >> 6, tsc_low, None, raw[4:])
    if len(raw) < 8:
        raise MalformedFrame("truncated extended counter field")
    return MpduFrame(layout, flags >> 6, tsc_low, int.from_bytes(raw[4:8], "little"),
                     raw[8:])


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

    def check(self, value: int) -> Classification:
        """The verdict on `value`, without admitting it: REJECT for a
        duplicate or a value below a full window, ACCEPT above the highest,
        WINDOW otherwise.  A caller that takes the value calls `admit`."""
        if value in self.recent:
            return _REJECT
        if not self.recent or value > max(self.recent):
            return _ACCEPT
        if len(self.recent) >= REPLAY_WINDOW_SIZE and value < min(self.recent):
            return _REJECT
        return _WINDOW

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


def split(data: bytes, size: int) -> list[bytes]:
    """`data` in `size`-byte pieces, the last maybe shorter; empty data is one piece."""
    if len(data) <= size:
        return [data]
    return [data[i:i + size] for i in range(0, len(data), size)]


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

    def take(self, hi: int, ttak) -> None:
        if hi != self.hi:
            self.hi, self.ttak = hi, ttak
            self.calls += 1

    def get(self, keys: SessionKeys, hi: int):
        """The phase 1 key of `hi`, taken into the cache."""
        if hi != self.hi:
            self.take(hi, phase1_mix(keys.tk, keys.ta, hi))
        return self.ttak


def _michael_many(midstate: tuple[int, int], counters: list[bytes],
                  msdus: list[bytes]) -> list[bytes]:
    """Each MSDU's tag; lanes and scalar give the same bytes."""
    if len(msdus) >= LANES_MIN_MSDUS:
        return michael_mic_lanes(midstate, list(zip(counters, msdus)))
    return list(map(michael_mic, repeat(midstate), counters, msdus))


def _rc4_many(ttaks: list, tk: bytes, tsc_los: list[int],
              datas: list[bytes]) -> list[bytes]:
    """Each data buffer through RC4 under its packet's phase 2 seed, from
    the packet's phase 1 key and low 16 counter bits."""
    return list(map(rc4_apply, map(phase2_mix, ttaks, repeat(tk), tsc_los), datas))


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
    """A data frame's overhead, its extended counter field read from the
    layout's flags byte."""
    if layout is _PROBE:
        raise ValueError("probe frames carry no data and are not accounted")
    extiv = 4 if _LAYOUT_FLAGS[layout] & 0x20 else 0
    return OverheadLedger(iv_keyid=4, extiv=extiv, mic=MIC_BYTES, icv=ICV_BYTES)


# ---------------------------------------------------------------------------
# Framed container and session configuration
# ---------------------------------------------------------------------------

def frames_to_container(frames: Iterable[MpduFrame]) -> bytes:
    """One record per frame: the 4-byte prefix of the module docstring,
    then the frame's bytes."""
    out = bytearray()
    for frame in frames:
        raw = frame.raw()
        out += struct.pack(">I", frame.more_fragments << 28 | frame.fragment << 24
                           | len(raw))
        out += raw
    return bytes(out)


def container_to_frames(data: bytes) -> list[MpduFrame]:
    if not data:                    # seal writes a record even for no payload
        raise MalformedFrame("empty container")
    frames = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise MalformedFrame("truncated container length prefix")
        (prefix,) = struct.unpack_from(">I", data, pos)
        if prefix >> 29:
            raise MalformedFrame("reserved container record bits set")
        length = prefix & 0xFFFFFF
        pos += 4
        if pos + length > len(data):
            raise MalformedFrame("container frame extends past end of data")
        frame = parse_frame(data[pos:pos + length])
        frame.fragment = prefix >> 24 & 0xF
        frame.more_fragments = bool(prefix >> 28)
        frames.append(frame)
        pos += length
    return frames


def msdu_groups(frames: Iterable[MpduFrame]) -> list[list[MpduFrame]]:
    """The frames split into the groups `ReceiverSession.open_many` takes.
    A group ends after a frame whose more-fragments bit is clear, and a
    frame numbered 0 starts a new one, so a lost, repeated or reordered
    frame spoils only its own MSDU.  Grouping never raises: a group whose
    fragment numbers or bits are out of place fails when it is opened."""
    groups: list[list[MpduFrame]] = []
    for frame in frames:
        if groups and frame.fragment and groups[-1][-1].more_fragments:
            groups[-1].append(frame)
        else:
            groups.append([frame])
    return groups


def _parse_hex(value: str) -> bytes:
    """Hex bytes, optionally split by ':' or '-'; not empty, so `sa =` cannot
    pass for `sa`'s default.  The dataclasses check the lengths."""
    try:
        raw = bytes.fromhex(value.replace(":", "").replace("-", ""))
    except ValueError:
        raw = b""
    if not raw:
        raise ValueError(f"invalid hex {value!r}")
    return raw


@dataclass(frozen=True)
class SessionConfig:
    """Parsed session description shared by both endpoints of a link.

    The integrity endpoints (sa, da, priority) are part of the tag input and
    must match on both sides; they default to the transmitter address, the
    broadcast address, and zero.  The mode, the fragmentation threshold, the
    refresh interval K, the addresses and the priority are validated here,
    once for the whole session; the config is frozen, so a changed copy
    comes from `dataclasses.replace`, which validates it again.
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
        for name, value in (("sa", self.sa), ("da", self.da)):
            if len(value) != 6:
                raise CodecError(f"{name} must be 6 bytes, got {len(value)}")


def _mic_midstate(config: SessionConfig, key: bytes) -> tuple[int, int]:
    """Michael's state after `key` and the session's fixed pseudo-header;
    each session computes it once for its direction."""
    return michael_midstate(key, michael_header(config.sa, config.da, config.priority))


def parse_key_values(text: str, fields: dict[str, tuple[str, Callable[[str], object]]],
                     error: type[Exception]) -> dict[str, object]:
    """Parse key=value lines ('#' starts a comment) into values by field name;
    ``fields`` maps a key to (field name, converter).  A line without '=', a
    repeated or unknown key, or a converter's ValueError raises ``error``."""
    texts: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in texts:
            raise error(f"config line {lineno}: {key} is already set")
        texts[key] = value.strip()
    unknown = texts.keys() - fields.keys()
    if unknown:
        raise error(f"unknown config fields: {', '.join(sorted(unknown))}")
    values = {}
    for key, value in texts.items():
        name, convert = fields[key]
        try:
            values[name] = convert(value)
        except ValueError as exc:
            raise error(f"config field {key!r}: {exc}") from exc
    return values


_SESSION_FIELDS = {
    "tk": ("tk", _parse_hex),
    "mic_key_tx": ("mic_key_tx", _parse_hex),
    "mic_key_rx": ("mic_key_rx", _parse_hex),
    "ta": ("ta", _parse_hex),
    "key_id": ("key_id", int),
    "mode": ("mode", str),
    "K": ("refresh_interval", int),
    "frag_threshold": ("frag_threshold", int),
    "sa": ("sa", _parse_hex),
    "da": ("da", _parse_hex),
    "priority": ("priority", int),
}


def parse_session_config(text: str) -> SessionConfig:
    """Parse a session config of key=value lines; '#' starts a comment.  A
    field left out takes its dataclass default, if it has one."""
    values = parse_key_values(text, _SESSION_FIELDS, CodecError)
    missing = [k for k in ("tk", "mic_key_tx", "mic_key_rx", "ta") if k not in values]
    if missing:
        raise CodecError(f"config missing required fields: {', '.join(missing)}")
    keys = {f.name: values.pop(f.name) for f in fields(SessionKeys) if f.name in values}
    try:
        return SessionConfig(SessionKeys(**keys), **values)
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
        self._mic_state = _mic_midstate(config, config.keys.mic_key_tx)

    def _alloc(self) -> int:
        if self.next_tsc > TSC_MAX:
            raise TscExhausted("counter space exhausted; rekey required")
        self.next_tsc += 1
        return self.next_tsc - 1

    def _next_frame(self, fragment: int,
                    more_fragments: bool) -> tuple[MpduFrame, tuple]:
        """The next data frame, its body still empty, and its phase 1 key."""
        cfg = self.config
        tsc = self._alloc()
        hi = tsc >> 16
        epoch_changed = self.ttak_cache.hi != hi
        ttak = self.ttak_cache.get(cfg.keys, hi)
        if cfg.mode == "tkip":
            layout = _BASELINE
        elif is_type_a(self.probe_mode is _INITIAL, epoch_changed,
                       self.since_type_a, cfg.refresh_interval):
            layout = _TYPE_A
            self.since_type_a = 1
        else:
            layout, hi = _TYPE_B, None
            self.since_type_a += 1
        self.probe_mode = _STREAMING
        return MpduFrame(layout, cfg.keys.key_id, tsc & 0xFFFF, hi, b"",
                         fragment, more_fragments), ttak

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
        lotkip = cfg.mode == "lotkip"
        # check each MSDU and build its frames; sender state never depends
        # on the crypto, so a failed check raises at once
        mic_counters, msdus, sealed, frames, ttaks = [], [], [], [], []
        for msdu in block:
            if self.probe_mode is _PROBING:
                raise ProbingActive("sender is probing; data transmission stopped")
            if len(msdu) > MSDU_MAX_BYTES:
                raise OversizeMsdu(f"MSDU of {len(msdu)} bytes exceeds {MSDU_MAX_BYTES}")
            count = fragment_count(len(msdu), cfg.frag_threshold)
            if self.next_tsc + count - 1 > TSC_MAX:
                raise TscExhausted("counter would overflow; rekey required")
            # LOTKIP's tag covers the counter of the MSDU's first fragment
            mic_counters.append(self.next_tsc.to_bytes(6, "little") if lotkip else b"")
            msdus.append(bytes(msdu))
            for n in range(count):
                frame, ttak = self._next_frame(n, n < count - 1)
                frames.append(frame)
                ttaks.append(ttak)
            sealed.append(frames[-count:])
        # compute every tag, one check value per chunk, then every body
        tags = _michael_many(self._mic_state, mic_counters, msdus)
        plains = [chunk + crc32_icv(chunk) for msdu, tag in zip(msdus, tags)
                  for chunk in split(msdu + tag, cfg.frag_threshold)]
        bodies = _rc4_many(ttaks, cfg.keys.tk, [f.tsc_low for f in frames], plains)
        for frame, body in zip(frames, bodies):
            frame.body = body
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
        """A 24-byte keep-alive: full-counter header plus the encrypted fixed
        zero payload, its Michael tag (`_PROBE_MIC`) and check value."""
        keys = self.config.keys
        tsc = self._alloc()
        ttak = self.ttak_cache.get(keys, tsc >> 16)
        counter = tsc.to_bytes(6, "little") + _PROBE_MIC
        plain = PROBE_PAYLOAD + michael_mic(self._mic_state, counter, PROBE_PAYLOAD)
        (body,) = _rc4_many([ttak], keys.tk, [tsc & 0xFFFF], [plain + crc32_icv(plain)])
        return MpduFrame(_PROBE, keys.key_id, tsc & 0xFFFF, tsc >> 16, body)


class ReceiverSession:
    """Owns the replay window, the countermeasure state, and the phase 1
    cache, whose upper counter value is the epoch type B frames resolve to.
    Only a group that passes every check, the Michael verify and then a
    probe's payload last, moves the epoch or installs the window its
    block's pass built for it.  In TKIP mode a counter must exceed the
    window's highest; the window's own `WINDOW` verdict, an unseen counter
    below it, counts as a replay.  Michael failures and blackouts are timed
    by `clock`, `time.monotonic` unless tests or simulations inject another."""

    def __init__(self, config: SessionConfig, clock: Clock = time.monotonic) -> None:
        self.config = config
        self.clock = clock
        self.window = ReplayWindow()
        self.cm_state = CountermeasureState()
        self.ttak_cache = _TtakCache()
        self._mic_state = _mic_midstate(config, config.keys.mic_key_rx)

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
        now = self.clock()
        if self.cm_state.in_blackout(now):
            raise Blackout("countermeasures active; frame dropped")
        return now

    def _open_block(self, block: list) -> list[Optional[bytes]]:
        cfg = self.config
        keys = cfg.keys
        key_id = keys.key_id
        lotkip = cfg.mode == "lotkip"
        # 802.11 TKIP keeps one strictly increasing counter per priority
        replays = (_REJECT,) if lotkip else (_REJECT, _WINDOW)
        cache = self.ttak_cache
        # each group is checked against the window and epoch its earlier
        # groups leave, as if they had committed; each frame that passes
        # takes its epoch's phase 1 key, derived at most once a block
        window, hi = self.window, cache.hi
        ttaks = {hi: cache.ttak}
        plans, mic_counters, msdus, error = [], [], [], None
        try:
            for group in block:
                frames = _as_frame_list(group)
                probe = lotkip and frames[0].layout is _PROBE
                if probe and len(frames) != 1:
                    raise MalformedFrame("probe frames are not fragmented")
                accepted = (_PROBE,) if probe else _DATA_LAYOUTS[cfg.mode]
                last = len(frames) - 1
                counters, group_ttaks = [], []
                for frame in frames:
                    if frame.layout not in accepted:
                        raise MalformedFrame(f"unexpected layout {frame.layout.value}")
                    # the key ID selects the temporal key; this session has one
                    if frame.key_id != key_id:
                        raise MalformedFrame(f"key ID {frame.key_id} is not the "
                                             f"session's {key_id}")
                    if frame.tsc_hi is not None:
                        hi = frame.tsc_hi
                    elif hi is None:
                        raise NoEpochState("type B frame before any type A frame")
                    # a shifted field is non-zero if it is too large or negative
                    if frame.tsc_low >> 16 or hi >> 32:
                        raise MalformedFrame("counter field out of range")
                    tsc = (hi << 16) | frame.tsc_low
                    n = len(counters)
                    if frame.fragment != n or frame.more_fragments != (n < last):
                        raise MalformedFrame("fragment number or more-fragments "
                                             "bit out of place")
                    if counters and tsc != counters[-1] + 1:
                        raise MalformedFrame("fragment counters are not consecutive")
                    # admitting the group's own earlier counters, which are
                    # consecutive and lower, could not change this verdict
                    if window.check(tsc) in replays:
                        raise ReplayRejected(f"counter {tsc:#014x} rejected")
                    counters.append(tsc)
                    if hi not in ttaks:
                        ttaks[hi] = phase1_mix(keys.tk, keys.ta, hi)
                    group_ttaks.append(ttaks[hi])
                plains = _rc4_many(group_ttaks, keys.tk,
                                   [frame.tsc_low for frame in frames],
                                   [frame.body for frame in frames])
                stream = b"".join(map(_strip_icv, plains))
                if len(stream) < MIC_BYTES:
                    raise MalformedFrame("MSDU too short to carry a Michael tag")
                counter = counters[0].to_bytes(6, "little") if lotkip else b""
                mic_counters.append(counter + _PROBE_MIC if probe else counter)
                msdus.append(stream[:-MIC_BYTES])
                window = ReplayWindow(window.recent[:])
                for tsc in counters:
                    window.admit(tsc)
                plans.append((stream, probe, window, hi))
        except CodecError as exc:
            error = exc         # raised in place of this group and the rest
        tags = iter(_michael_many(self._mic_state, mic_counters, msdus))
        # verify each group in order, then install its window and epoch
        opened = []
        for stream, probe, window, hi in plans:
            now = self._now()
            if stream[-MIC_BYTES:] != next(tags):
                self.cm_state.record_failure(now)
                raise MicFailure("Michael tag mismatch")
            if probe and stream[:-MIC_BYTES] != PROBE_PAYLOAD:
                raise MalformedFrame("probe payload mismatch")
            opened.append(None if probe else stream[:-MIC_BYTES])
            self.window = window
            cache.take(hi, ttaks[hi])
        if error is not None:
            self._now()
            raise error
        return opened
