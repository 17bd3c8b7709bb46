"""Frame codec: header layout, the session seal/open pipeline in both
modes, replay window, countermeasures, the type A schedule and probe
machinery, overhead accounting, and the container/config formats."""

import random
import re
import time
from dataclasses import FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import pytest

from lotkip.codec import (
    PROBE_PAYLOAD,
    Blackout,
    Classification,
    CodecError,
    CountermeasureState,
    FrameLayout,
    EPOCH_FRAMES,
    IcvMismatch,
    LANES_BLOCK_MSDUS,
    LANES_MIN_MSDUS,
    MalformedFrame,
    MicFailure,
    MpduFrame,
    NoEpochState,
    OverheadLedger,
    OversizeMsdu,
    ProbeEvent,
    ProbingActive,
    ReceiverSession,
    ReplayRejected,
    ReplayWindow,
    SenderMode,
    SenderSession,
    SessionConfig,
    SessionKeys,
    TSC_MAX,
    TscExhausted,
    container_to_frames,
    fragment_count,
    frames_to_container,
    lotkip_frame_classes,
    msdu_groups,
    overhead_of,
    parse_frame,
    parse_session_config,
)

from lotkip.reference import (
    ref_crc32_bytes,
    ref_michael_mic,
    ref_phase1,
    ref_phase2,
    ref_rc4,
)

from conftest import BruteForceWindow, check_then_admit, symmetric_keys

SA = bytes.fromhex("020202020202")
DA = bytes.fromhex("030303030303")


def config(mode="tkip", keys=None, **fields):
    fields.setdefault("frag_threshold", 256)
    fields.setdefault("sa", SA)
    fields.setdefault("da", DA)
    return SessionConfig(keys=keys or symmetric_keys(), mode=mode, **fields)


def sessions(mode="tkip", keys=None, clock=time.monotonic, **fields):
    """Sender and receiver sessions sharing one config."""
    cfg = config(mode, keys, **fields)
    return SenderSession(cfg), ReceiverSession(cfg, clock)


def tsc_of(frame):
    """The 48-bit counter of a frame that carries all of it."""
    return (frame.tsc_hi << 16) | frame.tsc_low


def test_session_keys_validation():
    with pytest.raises(ValueError):
        SessionKeys(bytes(15), bytes(8), bytes(8), bytes(6))
    with pytest.raises(ValueError):
        SessionKeys(bytes(16), bytes(7), bytes(8), bytes(6))
    with pytest.raises(ValueError):
        SessionKeys(bytes(16), bytes(8), bytes(8), bytes(6), key_id=4)


# ---------------------------------------------------------------------------
# Header layout
# ---------------------------------------------------------------------------

def test_header_bit_layout():
    frame = MpduFrame(FrameLayout.TKIP_BASELINE, key_id=2, tsc_low=0xABCD,
                      tsc_hi=0x01020304, body=b"")
    head = frame.header()
    assert head[0] == 0xAB
    assert head[1] == (0xAB | 0x20) & 0x7F
    assert head[2] == 0xCD
    assert head[3] == (2 << 6) | (1 << 5)
    assert head[4:8] == bytes.fromhex("04030201")
    b = MpduFrame(FrameLayout.LOTKIP_TYPE_B, key_id=0, tsc_low=1, tsc_hi=None,
                  body=b"")
    assert len(b.header()) == 4
    assert b.header()[3] == 0
    a = MpduFrame(FrameLayout.LOTKIP_TYPE_A, key_id=0, tsc_low=1, tsc_hi=0,
                  body=b"")
    assert a.header()[3] == 1 << 5 | 1 << 4
    p = MpduFrame(FrameLayout.PROBE, key_id=3, tsc_low=1, tsc_hi=0, body=b"")
    assert p.header()[3] == (3 << 6) | (1 << 5) | (1 << 4) | (1 << 3)


def test_parse_roundtrip_all_layouts():
    for layout, hi in [(FrameLayout.TKIP_BASELINE, 7), (FrameLayout.LOTKIP_TYPE_A, 7),
                       (FrameLayout.LOTKIP_TYPE_B, None), (FrameLayout.PROBE, 7)]:
        frame = MpduFrame(layout, key_id=1, tsc_low=0x1234, tsc_hi=hi, body=b"abc")
        parsed = parse_frame(frame.raw())
        assert parsed.layout is layout
        assert parsed.key_id == 1
        assert parsed.tsc_low == 0x1234
        assert parsed.tsc_hi == hi
        assert parsed.body == b"abc"


def test_parse_rejects_malformed():
    good = MpduFrame(FrameLayout.TKIP_BASELINE, 0, 0x1234, 5, b"xy").raw()
    with pytest.raises(MalformedFrame):
        parse_frame(good[:3])                       # too short
    bad_structure = bytearray(good)
    bad_structure[1] ^= 0x01                        # break the (b0|0x20)&0x7F rule
    with pytest.raises(MalformedFrame):
        parse_frame(bytes(bad_structure))
    reserved = bytearray(good)
    reserved[3] |= 0x01                             # reserved bits must be zero
    with pytest.raises(MalformedFrame):
        parse_frame(bytes(reserved))
    type_a_short = bytearray(good)
    type_a_short[3] = 1 << 4                        # type A without the full counter
    with pytest.raises(MalformedFrame):
        parse_frame(bytes(type_a_short[:4]))
    truncated_ext = good[:6]                        # extended header cut off
    with pytest.raises(MalformedFrame):
        parse_frame(truncated_ext)
    # the low six bits of the flags byte are one of the four that `header`
    # writes, under any key ID; every other flags byte is malformed
    valid = {0x20: FrameLayout.TKIP_BASELINE, 0x30: FrameLayout.LOTKIP_TYPE_A,
             0x38: FrameLayout.PROBE, 0x00: FrameLayout.LOTKIP_TYPE_B}
    for flags in range(256):
        raw = good[:3] + bytes((flags,)) + good[4:]
        if flags & 0x3F in valid:
            frame = parse_frame(raw)
            assert (frame.layout, frame.key_id) == (valid[flags & 0x3F], flags >> 6)
            assert frame.raw() == raw
        else:
            with pytest.raises(MalformedFrame):
                parse_frame(raw)


# ---------------------------------------------------------------------------
# Baseline seal/open
# ---------------------------------------------------------------------------

def test_seal_sizes_match_overhead_arithmetic():
    sender, _ = sessions()
    frames = sender.seal(b"x" * 100)
    assert len(frames) == 1
    # 100 payload + 8 tag + 4 check value + 8 header
    assert len(frames[0].raw()) == 120


def test_fragmentation_split():
    sender, _ = sessions()
    frames = sender.seal(b"y" * 300)
    assert len(frames) == 2
    assert [tsc_of(f) for f in frames] == [0, 1]
    # the tag rides at the tail of the stream, split across fragments
    assert len(frames[0].body) == 256 + 4
    assert len(frames[1].body) == 52 + 4


def test_round_trip_baseline():
    sender, receiver = sessions(priority=3, frag_threshold=300)
    sender.next_tsc = 5
    msdu = bytes(range(256)) * 4
    assert receiver.open(sender.seal(msdu)) == msdu


def test_round_trip_empty_msdu():
    sender, receiver = sessions()
    frames = sender.seal(b"")
    assert len(frames) == 1
    assert receiver.open(frames) == b""


def test_mic_key_direction():
    tx_key = bytes(range(8))
    rng = random.Random(5)
    sender_keys = SessionKeys(rng.randbytes(16), tx_key, bytes(8), rng.randbytes(6))
    receiver_keys = SessionKeys(sender_keys.tk, bytes(8), tx_key, sender_keys.ta)
    frames = SenderSession(config(keys=sender_keys)).seal(b"directional")
    receiver = ReceiverSession(config(keys=receiver_keys))
    assert receiver.open(frames) == b"directional"


def test_seal_argument_validation():
    sender, _ = sessions()
    with pytest.raises(OversizeMsdu):
        sender.seal(bytes(2305))
    # session-wide settings are checked once, when the config is built
    with pytest.raises(CodecError):
        config(frag_threshold=255)
    with pytest.raises(CodecError):
        config(frag_threshold=2347)
    with pytest.raises(CodecError):
        config("lotkip", refresh_interval=0)
    with pytest.raises(CodecError):
        config(sa=bytes(5))
    with pytest.raises(CodecError):
        config("lotkip", da=bytes(7))


def _check_exhaustion(mode):
    sender, _ = sessions(mode)
    sender.next_tsc = TSC_MAX
    with pytest.raises(TscExhausted):
        sender.seal(bytes(300))                     # second fragment past the end
    # last usable counter value still seals
    assert tsc_of(sender.seal(b"z")[0]) == TSC_MAX
    with pytest.raises(TscExhausted):
        sender.seal(b"z")


def test_tsc_exhaustion():
    _check_exhaustion("tkip")


def test_lotkip_tsc_exhaustion():
    _check_exhaustion("lotkip")


def test_probe_at_counter_exhaustion():
    # a data seal checks its whole MSDU's counters before it takes any, so
    # only a probe reaches the allocator's own check
    sender, receiver = sessions("lotkip")
    sender.next_tsc = TSC_MAX
    probe = sender.make_probe()
    assert tsc_of(probe) == TSC_MAX
    assert receiver.open(probe) is None
    before = (sender.next_tsc, sender.ttak_cache.calls)
    assert before[0] == TSC_MAX + 1
    with pytest.raises(TscExhausted):
        sender.make_probe()
    assert (sender.next_tsc, sender.ttak_cache.calls) == before


def test_open_pipeline_order_replay_before_decrypt():
    sender, receiver = sessions()
    sender.next_tsc = 9
    frames = sender.seal(b"payload")
    assert receiver.open(frames) == b"payload"
    # replayed frame with a corrupted body: the replay check fires first,
    # so no integrity accounting can be poisoned
    corrupt = MpduFrame(frames[0].layout, frames[0].key_id, frames[0].tsc_low,
                        frames[0].tsc_hi, b"\x00" * len(frames[0].body))
    with pytest.raises(ReplayRejected):
        receiver.open(corrupt)
    assert receiver.cm_state.last_failure is None


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_spliced_fragments_rejected_before_mic(mode):
    # fragment 0 of one genuine MSDU with fragment 1 of another: each piece
    # passes its check value, so only the counter gap can stop it before
    # the Michael check feeds the countermeasures
    sender, receiver = sessions(mode)
    msdus = [sender.seal(bytes([i]) * 300) for i in range(5)]
    assert all(len(frames) == 2 for frames in msdus)
    # a genuine MSDU gives the receiver its epoch, so the type B fragments
    # below resolve and reach the continuity check
    assert receiver.open(msdus[0]) == bytes(300)
    for first, second in ((1, 2), (3, 4)):
        with pytest.raises(MalformedFrame):
            receiver.open([msdus[first][0], msdus[second][1]])
    cm = receiver.cm_state
    assert cm.last_failure is None
    assert cm.blackout_until is None
    assert not cm.rekey_required


def test_single_bit_corruption_detected(rng):
    sender, receiver = sessions()
    for tsc in range(0, 40):
        msdu = rng.randbytes(rng.randrange(1, 200))
        sender.next_tsc = tsc * 10
        frame = sender.seal(msdu)[0]
        bit = rng.randrange(len(frame.body) * 8)
        body = bytearray(frame.body)
        body[bit // 8] ^= 1 << (bit % 8)
        tampered = MpduFrame(frame.layout, frame.key_id, frame.tsc_low,
                             frame.tsc_hi, bytes(body))
        with pytest.raises((IcvMismatch, MicFailure)):
            receiver.open(tampered)


def test_corruption_confirmed_by_crc_reference():
    # the bitwise CRC reference confirms the flipped fragment really does
    # carry a mismatched check value before we assert on the error class
    from lotkip.reference import ref_crc32_bytes, ref_rc4
    from lotkip.crypto import phase1_mix, phase2_mix
    keys = symmetric_keys()
    sender, receiver = sessions(keys=keys)
    frame = sender.seal(b"known corruption target")[0]
    body = bytearray(frame.body)
    body[5] ^= 0x10
    seed = phase2_mix(phase1_mix(keys.tk, keys.ta, 0), keys.tk, 0)
    plain = ref_rc4(seed, bytes(body))
    assert ref_crc32_bytes(plain[:-4]) != plain[-4:]
    tampered = MpduFrame(frame.layout, frame.key_id, frame.tsc_low,
                         frame.tsc_hi, bytes(body))
    with pytest.raises(IcvMismatch):
        receiver.open(tampered)


def test_wrong_mic_key_fails_after_icv_passes():
    keys = symmetric_keys()
    other = SessionKeys(keys.tk, keys.mic_key_tx, bytes(8), keys.ta)
    frames = SenderSession(config(keys=keys)).seal(b"check order")
    receiver = ReceiverSession(config(keys=other), clock=lambda: 1.0)
    with pytest.raises(MicFailure):
        receiver.open(frames)
    assert receiver.cm_state.last_failure == 1.0
    # the failure is recorded, but the unauthenticated counter is not admitted
    assert receiver.window.recent == []
    assert receiver.ttak_cache.hi is None


def test_receiver_reads_the_monotonic_clock_by_default():
    # a receiver built without a clock times a Michael failure by
    # time.monotonic, so two failures far apart do not start countermeasures
    keys = symmetric_keys()
    other = SessionKeys(keys.tk, bytes(8), keys.mic_key_rx, keys.ta)
    forged = SenderSession(config(keys=other)).seal(b"forged")
    receiver = ReceiverSession(config(keys=keys))
    before = time.monotonic()
    with pytest.raises(MicFailure):
        receiver.open(forged)
    assert before <= receiver.cm_state.last_failure <= time.monotonic()


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
@pytest.mark.parametrize("size", [0, 3, 7])
def test_msdu_too_short_for_a_tag_is_malformed(mode, size):
    # a frame whose check value holds but whose MSDU is shorter than a tag
    # never reaches Michael, so it must not feed the countermeasures: two
    # such frames at one instant would otherwise start a blackout
    cfg = config(mode)
    receiver = ReceiverSession(cfg, clock=lambda: 5.0)
    for tsc in (0, 1):
        # a fresh sender's first frame, so type A in LOTKIP mode
        sender = SenderSession(cfg)
        sender.next_tsc = tsc
        frame = sender.seal(b"")[0]
        frame.body = _ref_frame_parts(cfg.keys, tsc, bytes(size))[1]
        with pytest.raises(MalformedFrame, match="too short"):
            receiver.open(frame)
        with pytest.raises(MalformedFrame, match="too short"):
            receiver.open_many([[frame]])
    assert receiver.cm_state == CountermeasureState()
    assert receiver.window.recent == []
    assert receiver.ttak_cache.hi is None


def _forged_frame(mode, tsc_hi, tsc_low=0):
    """A full-counter data frame made without any key: 40 zero body bytes."""
    layout = FrameLayout.LOTKIP_TYPE_A if mode == "lotkip" else FrameLayout.TKIP_BASELINE
    return MpduFrame(layout, 0, tsc_low, tsc_hi, bytes(40))


def test_forged_type_a_frame_moves_no_receiver_state():
    sender, receiver = sessions("lotkip", refresh_interval=256)
    msdus = [bytes([i]) * 50 for i in range(40)]
    groups = [sender.seal(m) for m in msdus]
    for frames, msdu in zip(groups[:5], msdus):
        assert receiver.open(frames) == msdu
    before = (receiver.ttak_cache.hi, receiver.ttak_cache.calls,
              list(receiver.window.recent))
    with pytest.raises(IcvMismatch):
        receiver.open(_forged_frame("lotkip", tsc_hi=7))
    assert (receiver.ttak_cache.hi, receiver.ttak_cache.calls,
            receiver.window.recent) == before
    # the 35 later genuine MSDUs, mostly type B frames, still resolve
    assert [receiver.open(g) for g in groups[5:]] == msdus[5:]


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_forged_high_counters_cannot_fill_the_window(mode):
    sender, receiver = sessions(mode)
    assert receiver.open(sender.seal(b"first")) == b"first"
    recent = list(receiver.window.recent)
    for k in range(16):
        with pytest.raises(IcvMismatch):
            receiver.open(_forged_frame(mode, tsc_hi=1000 + k))
    assert receiver.window.recent == recent
    assert receiver.open(sender.seal(b"next")) == b"next"


@pytest.mark.parametrize("tsc_low, tsc_hi", [
    (0, 1 << 32), (0, -1), (0x10000, 0), (-1, 0)])
def test_counter_fields_out_of_range_are_malformed(tsc_low, tsc_hi):
    frame = _forged_frame("tkip", tsc_hi, tsc_low)
    with pytest.raises(MalformedFrame):
        ReceiverSession(config()).open(frame)
    with pytest.raises(MalformedFrame):
        ReceiverSession(config()).open_many([[frame]])


def test_open_rejects_foreign_layout():
    lotkip_sender, lotkip_receiver = sessions("lotkip")
    tkip_sender, tkip_receiver = sessions("tkip")
    with pytest.raises(MalformedFrame):
        tkip_receiver.open(lotkip_sender.seal(b"m"))
    with pytest.raises(MalformedFrame):
        tkip_receiver.open(lotkip_sender.make_probe())
    with pytest.raises(MalformedFrame):
        lotkip_receiver.open(tkip_sender.seal(b"m"))


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_frame_with_another_key_id_moves_no_receiver_state(mode):
    # 802.11 selects the temporal key by the IV's key ID, and a session
    # holds the key of one ID: a frame naming another is malformed
    sender, receiver = sessions(mode, keys=symmetric_keys(key_id=1))
    msdus = [bytes([i]) * 300 for i in range(4)]      # two fragments each
    groups = sender.seal_many(msdus)
    assert receiver.open(groups[0]) == msdus[0]

    def state():
        return (list(receiver.window.recent), receiver.ttak_cache.hi,
                receiver.ttak_cache.calls, astuple(receiver.cm_state))

    before = state()
    for index in (0, 1):
        frames = list(groups[1])
        raw = bytearray(frames[index].raw())
        raw[3] ^= 0x40                                  # key ID 1 -> 0
        frames[index] = parse_frame(bytes(raw))
        assert frames[index].key_id == 0
        with pytest.raises(MalformedFrame, match="key ID"):
            receiver.open(frames)
        with pytest.raises(MalformedFrame, match="key ID"):
            receiver.open_many([frames] + groups[2:])
        assert state() == before
    if mode == "lotkip":
        probe = sender.make_probe()
        moved = MpduFrame(probe.layout, 2, probe.tsc_low, probe.tsc_hi, probe.body)
        with pytest.raises(MalformedFrame, match="key ID"):
            receiver.open(moved)
        assert state() == before
    assert receiver.open_many(groups[1:]) == msdus[1:]


# ---------------------------------------------------------------------------
# Replay window
# ---------------------------------------------------------------------------

def test_replay_spec_cases():
    window = ReplayWindow()
    assert check_then_admit(window, 5) is Classification.ACCEPT

    full = ReplayWindow(recent=list(range(10, 26)))
    assert check_then_admit(full, 7) is Classification.REJECT

    gap = ReplayWindow(recent=[v for v in range(10, 26) if v != 18])
    assert check_then_admit(gap, 18) is Classification.WINDOW
    assert 18 in gap.recent


def test_replay_duplicate_never_accepted_twice():
    window = ReplayWindow()
    assert check_then_admit(window, 100) is Classification.ACCEPT
    assert check_then_admit(window, 100) is Classification.REJECT
    # push 20 larger values; 100 falls off the window and stays rejected
    for v in range(101, 121):
        assert check_then_admit(window, v) is Classification.ACCEPT
    assert check_then_admit(window, 100) is Classification.REJECT


def test_replay_window_tracks_largest_16():
    window = ReplayWindow()
    for v in range(32):
        check_then_admit(window, v)
    assert sorted(window.recent) == list(range(16, 32))
    assert max(window.recent) == 31


def test_replay_below_partial_window_admits():
    # the lower bound only exists once 16 values are tracked
    window = ReplayWindow()
    check_then_admit(window, 50)
    assert check_then_admit(window, 3) is Classification.WINDOW


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_out_of_order_counter_strict_for_tkip_only(mode):
    # two MSDUs opened in reverse order: TKIP admits only a counter above
    # the highest it has admitted, as 802.11 does; LOTKIP's window admits
    # an unseen counter below it (every LOTKIP frame is type A here, so
    # each carries its whole counter)
    sender, receiver = sessions(mode, refresh_interval=1)
    first, second, third = (sender.seal(bytes([i]) * 40) for i in range(3))
    batch = ReceiverSession(receiver.config)
    assert receiver.open(second) == bytes([1]) * 40
    if mode == "tkip":
        with pytest.raises(ReplayRejected):
            receiver.open(first)
        with pytest.raises(ReplayRejected):
            batch.open_many([second, first])
        assert receiver.window.recent == batch.window.recent == [tsc_of(second[0])]
    else:
        assert receiver.open(first) == bytes([0]) * 40
        assert batch.open_many([second, first]) == [bytes([1]) * 40, bytes([0]) * 40]
    assert receiver.open(third) == bytes([2]) * 40
    for replay in (first, second, third):
        with pytest.raises(ReplayRejected):
            receiver.open(replay)


def test_replay_matches_brute_force_reference(rng):
    for _ in range(40):
        window = ReplayWindow()
        reference = BruteForceWindow()
        value = 0
        for _ in range(250):
            # drift upward with jitter so all three outcomes occur
            value = max(0, value + rng.randrange(-6, 10))
            assert check_then_admit(window, value) is reference.classify(value)


def test_group_counters_need_no_admits_between_checks(rng):
    # the receiver checks a group's consecutive counters against a window
    # that does not hold the group's earlier counters yet; the first one it
    # rejects must be the first a loop of `check_then_admit` rejects
    def first_reject(verdicts):
        return next((i for i, v in enumerate(verdicts) if v is Classification.REJECT),
                    None)

    for _ in range(2000):
        window = ReplayWindow()
        value = rng.randrange(40)
        for _ in range(rng.randrange(30)):
            value = max(0, value + rng.randrange(-6, 10))
            check_then_admit(window, value)
        start = rng.randrange(80)
        group = range(start, start + rng.randrange(1, 11))
        loop = ReplayWindow(list(window.recent))
        assert first_reject([window.check(v) for v in group]) == \
            first_reject([check_then_admit(loop, v) for v in group])


# ---------------------------------------------------------------------------
# Countermeasures
# ---------------------------------------------------------------------------

def test_countermeasure_triggers_iff_failures_close():
    cm = CountermeasureState()
    assert cm.record_failure(0.0) is False
    assert cm.record_failure(30.0) is True
    assert cm.blackout_until == 90.0
    assert cm.rekey_required

    spaced = CountermeasureState()
    assert spaced.record_failure(0.0) is False
    assert spaced.record_failure(60.0) is False      # exactly 60 s: no trigger
    assert spaced.record_failure(119.9) is True      # 59.9 s after the second


def test_blackout_blocks_then_resumes():
    now = 30.0
    sender, receiver = sessions(clock=lambda: now)
    cm = receiver.cm_state
    cm.record_failure(0.0)
    cm.record_failure(10.0)
    assert cm.in_blackout(69.9)
    frames = sender.seal(b"later")
    with pytest.raises(Blackout):
        receiver.open(frames)
    # resumes 60 s after the second failure
    assert not cm.in_blackout(70.0)
    now = 70.0
    assert receiver.open(frames) == b"later"


# ---------------------------------------------------------------------------
# Low-overhead framing
# ---------------------------------------------------------------------------

def test_lotkip_refresh_pattern_k2():
    sender, _ = sessions("lotkip", refresh_interval=2)
    layouts = [sender.seal(b"m")[0].layout for _ in range(6)]
    expect = [FrameLayout.LOTKIP_TYPE_A, FrameLayout.LOTKIP_TYPE_B] * 3
    assert layouts == expect


def test_lotkip_refresh_indices_k4():
    sender, _ = sessions("lotkip", refresh_interval=4)
    frames = [sender.seal(b"m")[0] for _ in range(10)]
    a_indices = [i for i, f in enumerate(frames)
                 if f.layout is FrameLayout.LOTKIP_TYPE_A]
    assert a_indices == [0, 4, 8]


@pytest.mark.parametrize("refresh", [1, 3, 999, EPOCH_FRAMES, 70_000])
def test_type_a_schedule_matches_closed_form(refresh):
    # the sender's own per-frame layout step (counter, epoch change, refresh
    # count), minus the crypto, against the closed form the network
    # simulation charges, at every length of a stream that crosses two
    # epoch boundaries
    sender = SenderSession(config("lotkip", refresh_interval=refresh))
    first = refreshed = 0
    mismatched = []
    for n in range(1, 2 * EPOCH_FRAMES + 1000):
        frame, _ = sender._next_frame(0, False)
        if frame.tsc_low == 0:
            first += frame.layout is FrameLayout.LOTKIP_TYPE_A
        else:
            refreshed += frame.layout is FrameLayout.LOTKIP_TYPE_A
        if lotkip_frame_classes(n, refresh) != (first, refreshed,
                                                n - first - refreshed):
            mismatched.append(n)
    assert first == 3
    assert mismatched == []


def test_lotkip_frame_sizes():
    sender, _ = sessions("lotkip", refresh_interval=256)
    sizes = [len(sender.seal(b"p" * 100)[0].raw()) for _ in range(3)]
    assert sizes == [120, 116, 116]


def test_lotkip_round_trip_with_caching():
    sender, receiver = sessions("lotkip", refresh_interval=8)
    for i in range(20):
        msdu = bytes([i]) * (i * 13 % 300)
        assert receiver.open(sender.seal(msdu)) == msdu
    # one epoch, one phase-1 run on each side
    assert sender.ttak_cache.calls == 1
    assert receiver.ttak_cache.calls == 1


def test_lotkip_type_b_needs_no_phase1():
    sender, receiver = sessions("lotkip", refresh_interval=64)
    receiver.open(sender.seal(b"a"))
    calls_after_type_a = receiver.ttak_cache.calls
    frames = sender.seal(b"b")
    assert frames[0].layout is FrameLayout.LOTKIP_TYPE_B
    receiver.open(frames)
    assert receiver.ttak_cache.calls == calls_after_type_a


def test_lotkip_rollover_emits_type_a_and_round_trips():
    sender, receiver = sessions("lotkip", refresh_interval=10_000)
    sender.next_tsc = 0xFFFE
    layouts = []
    for i in range(4):
        frames = sender.seal(bytes([i]) * 32)
        layouts.append(frames[0].layout)
        assert receiver.open(frames) == bytes([i]) * 32
    # counters 0xFFFE, 0xFFFF, 0x10000, 0x10001: the epoch change forces A
    assert layouts[2] is FrameLayout.LOTKIP_TYPE_A
    assert layouts[3] is FrameLayout.LOTKIP_TYPE_B
    assert sender.ttak_cache.calls == 2
    assert receiver.ttak_cache.calls == 2


def test_lotkip_type_b_first_raises():
    sender, receiver = sessions("lotkip", refresh_interval=64)
    sender.seal(b"a")                               # type A, dropped
    frames = sender.seal(b"b")                      # type B
    with pytest.raises(NoEpochState):
        receiver.open(frames)


def test_lotkip_mic_covers_counter():
    # shifting a type A frame to another counter must break the tag even
    # though body decryption is re-done accordingly
    keys = symmetric_keys()
    sender, receiver = sessions("lotkip", keys, refresh_interval=64,
                                frag_threshold=2346)
    frame = sender.seal(b"bound to counter")[0]
    # re-seal the same plaintext chunk under the next counter by hand:
    # decrypt, then re-encrypt at tsc+1
    from lotkip.crypto import phase2_mix, rc4_apply
    ttak = sender.ttak_cache.ttak
    plain = rc4_apply(phase2_mix(ttak, keys.tk, frame.tsc_low), frame.body)
    moved_tsc = tsc_of(frame) + 1
    moved_body = rc4_apply(phase2_mix(ttak, keys.tk, moved_tsc & 0xFFFF), plain)
    moved = MpduFrame(FrameLayout.LOTKIP_TYPE_A, frame.key_id,
                      moved_tsc & 0xFFFF, moved_tsc >> 16, moved_body)
    with pytest.raises(MicFailure):
        receiver.open(moved)


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_michael_midstate_computed_once_per_session(monkeypatch, mode):
    # the pseudo-header's fixed 16 bytes are absorbed once per session, for
    # its direction's key; every tag, scalar or in lanes, starts from there
    import lotkip.codec as codec
    cfg = config(mode)
    computed = []
    original = codec.michael_midstate
    monkeypatch.setattr(codec, "michael_midstate", lambda key, header:
                        computed.append((key, header)) or original(key, header))
    sender = SenderSession(cfg)
    assert computed == [(cfg.keys.mic_key_tx, DA + SA + bytes(4))]
    receiver = ReceiverSession(cfg)
    assert computed[1:] == [(cfg.keys.mic_key_rx, DA + SA + bytes(4))]
    msdus = [bytes([n]) * 300 for n in range(LANES_MIN_MSDUS)]
    assert [receiver.open(sender.seal(m)) for m in msdus[:5]] == msdus[:5]
    assert receiver.open_many(sender.seal_many(msdus)) == msdus
    assert len(computed) == 2


@pytest.mark.parametrize("parsed, chosen", [("tkip", "lotkip"), ("lotkip", "tkip")])
def test_mode_set_after_config_reaches_michael_header(parsed, chosen):
    # a parsed config whose mode is replaced before the sessions are built
    late = replace(config(parsed), mode=chosen)
    msdus = [bytes(range(n, n + 40)) for n in range(3)]
    sealed = SenderSession(late).seal_many(msdus)
    assert sealed == SenderSession(config(chosen)).seal_many(msdus)
    assert ReceiverSession(config(chosen)).open_many(sealed) == msdus


def test_lotkip_fragmented_round_trip():
    sender, receiver = sessions("lotkip", refresh_interval=3)
    msdu = bytes(range(256)) * 5
    frames = sender.seal(msdu)
    assert len(frames) > 1
    assert receiver.open(frames) == msdu


# ---------------------------------------------------------------------------
# Probe machinery
# ---------------------------------------------------------------------------

def test_probe_cycle_transitions():
    sender, _ = sessions("lotkip")
    sender.probe_mode = SenderMode.STREAMING
    sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
    assert sender.probe_mode is SenderMode.PROBING
    sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
    assert sender.probe_mode is SenderMode.PROBING
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    assert sender.probe_mode is SenderMode.INITIAL
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    assert sender.probe_mode is SenderMode.STREAMING
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    assert sender.probe_mode is SenderMode.STREAMING


def test_probing_blocks_data_and_resume_is_type_a():
    sender, receiver = sessions("lotkip", refresh_interval=64)
    for _ in range(3):
        receiver.open(sender.seal(b"d"))
    sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
    with pytest.raises(ProbingActive):
        sender.seal(b"blocked")
    probe = sender.make_probe()
    assert len(probe.raw()) == 24
    assert receiver.open(probe) is None
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    frames = sender.seal(b"resumed")
    assert frames[0].layout is FrameLayout.LOTKIP_TYPE_A
    assert receiver.open(frames) == b"resumed"


def test_probe_replay_rejected():
    sender, receiver = sessions("lotkip")
    probe = sender.make_probe()
    assert receiver.open(probe) is None
    with pytest.raises(ReplayRejected):
        receiver.open(probe)


def _openers(receiver):
    """`open` of one group, and `open_many` of a block of that group alone."""
    return receiver.open, lambda group: receiver.open_many([group])


def _as_probe(frame, tsc):
    """`frame`'s body under a probe header at counter `tsc`."""
    return MpduFrame(FrameLayout.PROBE, frame.key_id, tsc & 0xFFFF, tsc >> 16,
                     frame.body)


@pytest.mark.parametrize("opener", [0, 1], ids=["open", "open_many"])
def test_probe_forged_from_known_plaintext_fails_michael(opener):
    # MSDUs that start with 16 known bytes (LLC/SNAP, then an IPv4 header's
    # first 8 bytes): XORed with the withheld MSDU 1's body, they give 16
    # keystream bytes at its counter, room for a probe body with a guessed
    # tag and a valid check value.  Michael rejects it: the failure is
    # charged to the countermeasures, and the window stays where it was.
    known = bytes.fromhex("aaaa030000000800" "4500005c1c464000")
    sender, receiver = sessions("lotkip", clock=lambda: 5.0)
    msdus = [known + bytes([i]) * 40 for i in range(4)]
    groups = sender.seal_many(msdus)
    for i in (0, 2, 3):
        assert receiver.open(groups[i]) == msdus[i]
    window = list(receiver.window.recent)
    withheld = groups[1][0]
    keystream = bytes(a ^ b for a, b in zip(withheld.body, known))
    tsc = withheld.tsc_low                          # the session's first epoch
    open_group = _openers(receiver)[opener]
    # a probe body of payload and check value alone is too short for a tag
    old = PROBE_PAYLOAD + ref_crc32_bytes(PROBE_PAYLOAD)
    untagged = bytes(a ^ b for a, b in zip(old, keystream))
    with pytest.raises(MalformedFrame, match="too short to carry a Michael tag"):
        open_group([_as_probe(replace(withheld, body=untagged), tsc)])
    assert receiver.cm_state.last_failure is None
    plain = PROBE_PAYLOAD + bytes(8)
    body = bytes(a ^ b for a, b in zip(plain + ref_crc32_bytes(plain), keystream))
    with pytest.raises(MicFailure):
        open_group([_as_probe(replace(withheld, body=body), tsc)])
    assert receiver.window.recent == window
    assert receiver.cm_state.last_failure == 5.0
    assert receiver.open(groups[1]) == msdus[1]


@pytest.mark.parametrize("opener", [0, 1], ids=["open", "open_many"])
def test_relabelled_bodies_fail_as_data_frames_would(opener):
    # a data body under a probe header, or a probe's under a data header,
    # fails Michael when its check value holds and the ICV when it does not;
    # only the Michael failure is charged to the countermeasures
    cfg = config("lotkip")
    sender = SenderSession(cfg)
    one, two = sender.seal_many([b"x" * 100, b"y" * 300])
    probe = sender.make_probe()
    first = two[0]
    flipped = replace(first, body=first.body[:-1] + bytes([first.body[-1] ^ 1]))
    cases = [
        ([_as_probe(one[0], 0)], MicFailure),
        ([_as_probe(first, 1)], MicFailure),
        ([_as_probe(flipped, 1)], IcvMismatch),
        ([replace(probe, layout=FrameLayout.LOTKIP_TYPE_A)], MicFailure),
    ]
    for group, error in cases:
        receiver = ReceiverSession(cfg, lambda: 5.0)
        with pytest.raises(error):
            _openers(receiver)[opener](group)
        assert receiver.window.recent == []
        assert receiver.cm_state.last_failure == (5.0 if error is MicFailure else None)
    receiver = ReceiverSession(cfg)
    assert receiver.open_many([one, two, [probe]]) == [b"x" * 100, b"y" * 300, None]


def test_probe_tagged_over_another_payload_is_malformed(monkeypatch):
    # its Michael tag verifies, so only the payload check stops it
    import lotkip.codec as codec

    sender, receiver = sessions("lotkip")
    monkeypatch.setattr(codec, "PROBE_PAYLOAD", b"\x01\x00\x00\x00")
    probe = sender.make_probe()
    monkeypatch.undo()
    for open_group in _openers(receiver):
        with pytest.raises(MalformedFrame, match="probe payload mismatch"):
            open_group([probe])
        assert _receiver_state(receiver) == ([], None, 0, (None, None, False))


def test_fragmented_probe_is_malformed():
    sender, receiver = sessions("lotkip")
    probes = [sender.make_probe(), sender.make_probe()]
    probes[0].more_fragments, probes[1].fragment = True, 1
    for open_group in _openers(receiver):
        with pytest.raises(MalformedFrame, match="probe frames are not fragmented"):
            open_group(probes)
        assert _receiver_state(receiver) == ([], None, 0, (None, None, False))


# ---------------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------------

def test_overhead_values():
    assert overhead_of(FrameLayout.TKIP_BASELINE) == \
        OverheadLedger(iv_keyid=4, extiv=4, mic=8, icv=4)
    assert overhead_of(FrameLayout.TKIP_BASELINE).total == 20
    assert overhead_of(FrameLayout.LOTKIP_TYPE_A).total == 20
    assert overhead_of(FrameLayout.LOTKIP_TYPE_B).total == 16
    # plain WEP's 3 IV bytes + 1 key-id byte + 4 ICV bytes
    wep = overhead_of(FrameLayout.TKIP_BASELINE)
    assert wep.iv_keyid + wep.icv == 8
    with pytest.raises(ValueError):
        overhead_of(FrameLayout.PROBE)


def test_overhead_identity_by_byte_counting():
    # single-fragment stream: on-air bytes == payload + per-frame ledger total
    sender, _ = sessions("lotkip", refresh_interval=4)
    n = 10
    total = 0
    for _ in range(n):
        frame = sender.seal(b"q" * 64)[0]
        total += len(frame.raw()) - 64
    n_a = -(-n // 4)
    assert total == 20 * n_a + 16 * (n - n_a)


def test_overhead_multi_fragment_accounting():
    msdu = bytes(1000)
    frames = sessions()[0].seal(msdu)
    on_air = sum(len(f.raw()) for f in frames)
    headers = sum(len(f.header()) for f in frames)
    # one 8-byte tag per MSDU, one 4-byte check value per fragment
    assert on_air == len(msdu) + 8 + 4 * len(frames) + headers


# ---------------------------------------------------------------------------
# Container and session config
# ---------------------------------------------------------------------------

def test_container_round_trip():
    frames = sessions()[0].seal(bytes(600))
    blob = frames_to_container(frames)
    parsed = container_to_frames(blob)
    assert [f.raw() for f in parsed] == [f.raw() for f in frames]


def test_container_record_carries_fragment_bits():
    # prefix = more_fragments << 28 | fragment << 24 | length; a record of
    # a one-fragment MSDU is a plain length, and bits 29-31 are reserved
    sender = sessions()[0]
    frames = sender.seal(bytes(600))        # 608 B with the tag: 3 fragments
    blob = frames_to_container(frames)
    assert container_to_frames(blob) == frames
    prefixes, pos = [], 0
    for frame in frames:
        prefixes.append(int.from_bytes(blob[pos:pos + 4], "big"))
        pos += 4 + len(frame.raw())
    assert prefixes == [0x1000010C, 0x1100010C, 0x0200006C]
    single = sender.seal(b"x")
    assert frames_to_container(single)[:4] == len(single[0].raw()).to_bytes(4, "big")
    for bit in (29, 30, 31):
        with pytest.raises(MalformedFrame, match="reserved"):
            container_to_frames((prefixes[0] | 1 << bit).to_bytes(4, "big") + blob[4:])


def test_msdu_groups_split_at_fragment_bits():
    # a group ends after a frame without the more-fragments bit, and a
    # frame numbered 0 starts one
    sender, _ = sessions("lotkip")
    a, b = sender.seal(bytes(600)), sender.seal(b"x")
    sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
    probe = sender.make_probe()
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    c = sender.seal(bytes(300))
    assert msdu_groups(a + b + [probe] + c) == [a, b, [probe], c]
    assert msdu_groups(a[:1] + c) == [a[:1], c]
    assert msdu_groups(a[1:] + a[1:]) == [a[1:], a[1:]]
    assert msdu_groups([]) == []
    # records written without fragment bits: every frame is its own group
    bare = [replace(f, fragment=0, more_fragments=False) for f in a]
    assert msdu_groups(bare) == [[f] for f in bare]


@pytest.mark.parametrize("fault", ["drop", "duplicate", "swap"])
@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_lost_or_reordered_fragment_spoils_only_its_msdu(mode, fault):
    # each record says where its MSDU ends, so a lost, repeated or
    # reordered fragment fails its own MSDU, before any crypto, and the
    # MSDUs after it still open
    sender, receiver = sessions(mode)
    msdus = [bytes([n]) * 700 for n in range(6)]
    groups = sender.seal_many(msdus)
    assert all(len(g) == 3 for g in groups)
    third = list(groups[3])
    if fault == "drop":
        del third[1]
    elif fault == "duplicate":
        third.insert(1, third[1])
    else:
        third[1], third[2] = third[2], third[1]
    frames = [f for g in groups[:3] for f in g] + third + \
        [f for g in groups[4:] for f in g]
    opened, failed = [], []
    for group in msdu_groups(container_to_frames(frames_to_container(frames))):
        try:
            opened.append(receiver.open(group))
        except CodecError as exc:
            failed.append(type(exc))
    assert opened == msdus[:3] + msdus[4:]
    assert failed and set(failed) == {MalformedFrame}
    assert receiver.cm_state.last_failure is None


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_last_fragment_with_more_fragments_bit_is_malformed(mode):
    sender, receiver = sessions(mode)
    # a genuine MSDU gives a LOTKIP receiver its epoch
    assert receiver.open(sender.seal(b"first")) == b"first"
    alone, following = sender.seal(b"alone"), sender.seal(b"following")
    alone = [replace(alone[0], more_fragments=True)]
    groups = msdu_groups(container_to_frames(frames_to_container(alone + following)))
    assert groups == [alone, following]
    with pytest.raises(MalformedFrame, match="more-fragments"):
        receiver.open(groups[0])
    assert receiver.cm_state.last_failure is None
    assert receiver.open(groups[1]) == b"following"


def test_container_truncation_rejected():
    blob = frames_to_container(sessions()[0].seal(b"x"))
    with pytest.raises(MalformedFrame):
        container_to_frames(blob[:-1])
    with pytest.raises(MalformedFrame):
        container_to_frames(blob + b"\x00\x00")


def test_session_config_is_frozen():
    # a session reads its config on every frame, so the config cannot
    # change under it; a changed copy is validated again
    cfg = config("tkip")
    for field, value in (("mode", "lotkip"), ("frag_threshold", 3),
                         ("refresh_interval", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field, value)
    with pytest.raises(CodecError):
        replace(cfg, frag_threshold=3)
    assert replace(cfg, mode="lotkip").sa == cfg.sa == SA
    keys = symmetric_keys()
    assert replace(SessionConfig(keys=keys), mode="lotkip").sa == keys.ta


def test_parse_session_config():
    text = """
    # sample session
    tk = 000102030405060708090a0b0c0d0e0f
    mic_key_tx = 0011223344556677
    mic_key_rx = 8899aabbccddeeff
    ta = 10:50:27:ab:9c:4d
    key_id = 2
    mode = lotkip
    K = 16
    frag_threshold = 512
    da = 01-02-03-04-05-06
    priority = 3
    """
    config = parse_session_config(text)
    assert config.keys.tk == bytes(range(16))
    assert config.keys.ta == bytes.fromhex("105027ab9c4d")
    assert config.keys.key_id == 2
    assert config.mode == "lotkip"
    assert config.refresh_interval == 16
    assert config.frag_threshold == 512
    assert config.sa == config.keys.ta            # defaulted
    assert config.da == bytes.fromhex("010203040506")
    assert config.priority == 3


def test_parse_session_config_errors():
    with pytest.raises(CodecError):
        parse_session_config("tk = 00")            # missing fields + bad length
    base = ("tk = 00000000000000000000000000000000\n"
            "mic_key_tx = 0000000000000000\n"
            "mic_key_rx = 0000000000000000\n"
            "ta = 000000000000\n")
    with pytest.raises(CodecError):
        parse_session_config(base + "mode = wep\n")
    with pytest.raises(CodecError):
        parse_session_config(base + "frag_threshold = 100\n")
    with pytest.raises(CodecError):
        parse_session_config(base + "K = 0\n")
    with pytest.raises(CodecError):
        parse_session_config(base + "garbage line\n")
    for line in ("k = 5", "K = x", "key_id = 7", "priority = 300"):
        with pytest.raises(CodecError):
            parse_session_config(base + line + "\n")
    assert parse_session_config(base).mode == "tkip"
    # every field left out takes its dataclass default
    assert parse_session_config(base) == SessionConfig(
        keys=SessionKeys(tk=bytes(16), mic_key_tx=bytes(8), mic_key_rx=bytes(8),
                         ta=bytes(6)))


# Each session file key: a valid non-default text, the field it sets and
# that field's value, then a bad text and the start of its error message.
SESSION_KEY_CASES = {
    "tk": ("0f" * 16, "tk", bytes([15]) * 16, "zz", "config field 'tk': "),
    "mic_key_tx": ("11:22:33:44:55:66:77:88", "mic_key_tx",
                   bytes.fromhex("1122334455667788"), "11:2", "config field 'mic_key_tx': "),
    "mic_key_rx": ("88-77-66-55-44-33-22-11", "mic_key_rx",
                   bytes.fromhex("8877665544332211"), "-", "config field 'mic_key_rx': "),
    "ta": ("0a0b0c0d0e0f", "ta", bytes.fromhex("0a0b0c0d0e0f"), "0a0b0c0d0e",
           "invalid session config: ta must be 6 bytes, got 5"),
    "key_id": ("3", "key_id", 3, "x", "config field 'key_id': "),
    "mode": ("lotkip", "mode", "lotkip", "wep", "mode must be 'tkip' or 'lotkip'"),
    "K": ("16", "refresh_interval", 16, "1.5", "config field 'K': "),
    "frag_threshold": ("512", "frag_threshold", 512, "big", "config field 'frag_threshold': "),
    "sa": ("01:02:03:04:05:06", "sa", bytes(range(1, 7)), "", "config field 'sa': "),
    "da": ("06:05:04:03:02:01", "da", bytes(range(6, 0, -1)), "", "config field 'da': "),
    "priority": ("7", "priority", 7, "high", "config field 'priority': "),
}
ZERO_KEYS = {"tk": bytes(16), "mic_key_tx": bytes(8), "mic_key_rx": bytes(8), "ta": bytes(6)}


def _session_text(key, text):
    """A session file of zero keys with `key` set to `text`."""
    lines = {name: value.hex() for name, value in ZERO_KEYS.items()}
    lines[key] = text
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


@pytest.mark.parametrize("key", SESSION_KEY_CASES)
def test_session_file_key_sets_its_field_only(key):
    import lotkip.codec as codec

    assert set(SESSION_KEY_CASES) == set(codec._SESSION_FIELDS)
    text, name, value, bad, error = SESSION_KEY_CASES[key]
    default = SessionConfig(SessionKeys(**ZERO_KEYS))
    keys, rest = dict(ZERO_KEYS), {}
    key_fields = {f.name for f in fields(SessionKeys)}
    (keys if name in key_fields else rest)[name] = value
    parsed = parse_session_config(_session_text(key, text))
    assert parsed == SessionConfig(SessionKeys(**keys), **rest) != default
    with pytest.raises(CodecError, match=re.escape(error)):
        parse_session_config(_session_text(key, bad))


@pytest.mark.parametrize("key, size, prefix", [
    ("tk", 16, "invalid session config: "), ("mic_key_tx", 8, "invalid session config: "),
    ("mic_key_rx", 8, "invalid session config: "), ("ta", 6, "invalid session config: "),
    ("sa", 6, ""), ("da", 6, "")])
def test_session_file_key_lengths_name_the_field(key, size, prefix):
    # SessionKeys raises ValueError, which the parser wraps; SessionConfig
    # raises CodecError itself
    for got in (size - 1, size + 1):
        with pytest.raises(CodecError,
                           match=f"^{prefix}{key} must be {size} bytes, got {got}$"):
            parse_session_config(_session_text(key, "ab" * got))


def test_sessions_round_trip_both_modes(rng):
    for mode in ("tkip", "lotkip"):
        keys = symmetric_keys(rng)
        config = SessionConfig(keys=keys, mode=mode, refresh_interval=3,
                               frag_threshold=256)
        sender = SenderSession(config)
        receiver = ReceiverSession(config)
        for _ in range(12):
            msdu = rng.randbytes(rng.randrange(600))
            assert receiver.open(sender.seal(msdu)) == msdu


def test_fragment_count_helper():
    assert fragment_count(100, 256) == 1
    assert fragment_count(300, 256) == 2
    assert fragment_count(0, 256) == 1
    assert fragment_count(2304, 256) == 10


# ---------------------------------------------------------------------------
# Sealed frames against the reference primitives
# ---------------------------------------------------------------------------

def _ref_frame_parts(keys, tsc: int, plain: bytes) -> tuple[bytes, bytes]:
    """The WEP IV bytes and body the reference derives for one fragment."""
    seed = ref_phase2(ref_phase1(keys.tk, keys.ta, tsc >> 16), keys.tk, tsc & 0xFFFF)
    return seed[:3], ref_rc4(seed, plain + ref_crc32_bytes(plain))


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_sealed_frames_match_reference(rng, mode):
    lotkip = mode == "lotkip"
    for frag_threshold in (256, 2346):
        for k in (1, 3):
            sender, _ = sessions(mode, priority=5, frag_threshold=frag_threshold,
                                 refresh_interval=k)
            cfg = sender.config
            keys = cfg.keys
            for start in (0, EPOCH_FRAMES - 3):     # the second run crosses an epoch
                sender.next_tsc = start
                for _ in range(4):
                    msdu = rng.randbytes(rng.randrange(700))
                    msdu_tsc = sender.next_tsc
                    mic = ref_michael_mic(keys.mic_key_tx, cfg.sa, cfg.da, cfg.priority,
                                          msdu_tsc if lotkip else None, msdu)
                    stream = msdu + mic
                    frames = sender.seal(msdu)
                    assert len(frames) == fragment_count(len(msdu), frag_threshold)
                    for i, frame in enumerate(frames):
                        tsc = msdu_tsc + i
                        chunk = stream[i * frag_threshold:(i + 1) * frag_threshold]
                        iv, body = _ref_frame_parts(keys, tsc, chunk)
                        assert frame.tsc_low == tsc & 0xFFFF
                        assert frame.tsc_hi in (None, tsc >> 16)
                        assert frame.raw()[:3] == iv
                        assert frame.body == body
            assert sender.next_tsc > EPOCH_FRAMES
            if lotkip:
                tsc = sender.next_tsc
                probe = sender.make_probe()
                assert probe.layout is FrameLayout.PROBE
                assert (probe.tsc_low, probe.tsc_hi) == (tsc & 0xFFFF, tsc >> 16)
                # the tag covers the probe's flags byte after the counter
                mic = ref_michael_mic(keys.mic_key_tx, cfg.sa, cfg.da, cfg.priority,
                                      tsc, b"\x38" + PROBE_PAYLOAD)
                assert (probe.raw()[:3], probe.body) == \
                    _ref_frame_parts(keys, tsc, PROBE_PAYLOAD + mic)


# ---------------------------------------------------------------------------
# Whole-file seal/open in lanes against loops of seal/open
# ---------------------------------------------------------------------------

BATCH_COUNTS = tuple(sorted({1, LANES_MIN_MSDUS - 1, LANES_MIN_MSDUS,
                             LANES_BLOCK_MSDUS + 1}))


def _sender_state(sender):
    return (sender.next_tsc, sender.probe_mode, sender.since_type_a,
            sender.ttak_cache.hi, sender.ttak_cache.calls)


def _receiver_state(receiver):
    return (list(receiver.window.recent), receiver.ttak_cache.hi,
            receiver.ttak_cache.calls, astuple(receiver.cm_state))


def _open_loop(receiver, groups):
    """A loop of `open`: the results, or the first exception's type and
    message."""
    try:
        return [receiver.open(g) for g in groups]
    except CodecError as exc:
        return type(exc), str(exc)


def _open_many(receiver, groups):
    try:
        return receiver.open_many(groups)
    except CodecError as exc:
        return type(exc), str(exc)


def _assert_open_many_matches_loop(cfg, groups, clock=lambda: 0.0):
    loop, many = ReceiverSession(cfg, clock), ReceiverSession(cfg, clock)
    expected = _open_loop(loop, groups)
    assert _open_many(many, groups) == expected
    assert _receiver_state(many) == _receiver_state(loop)
    return expected


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
@pytest.mark.parametrize("frag_threshold", [256, 1024, 2346])
@pytest.mark.parametrize("k", [1, 3, 256])
def test_seal_many_open_many_equal_loops(rng, mode, frag_threshold, k):
    cfg = config(mode, frag_threshold=frag_threshold, refresh_interval=k)
    for count in BATCH_COUNTS:
        lengths = [rng.randrange(300) for _ in range(count)]
        lengths[:3] = [0, 2304, 1][:count]
        msdus = [rng.randbytes(n) for n in lengths]
        loop, many = SenderSession(cfg), SenderSession(cfg)
        # the run crosses counter 0xFFFF -> 0x10000
        loop.next_tsc = many.next_tsc = EPOCH_FRAMES - 7
        groups = [loop.seal(m) for m in msdus]
        assert many.seal_many(msdus) == groups
        assert _sender_state(many) == _sender_state(loop)
        if mode == "lotkip":
            # a probe opens as a group of its own
            groups.append([loop.make_probe()])
        opened = _assert_open_many_matches_loop(cfg, groups)
        assert [m for m in opened if m is not None] == msdus


@pytest.mark.parametrize("mode, fault", [
    (mode, fault) for mode in ("tkip", "lotkip")
    for fault in ("bit_flip", "wrong_mic_key", "replay", "splice", "forged",
                  "bit_flip_then_splice", "splice_then_bit_flip")
] + [("lotkip", "type_b_first"), ("lotkip", "relabelled_probe")])
def test_open_many_failure_matches_loop(rng, mode, fault):
    """A block with a fault in group `mid` fails as a loop of `open` does.
    With a check value fault and a header fault in neighbouring groups, the
    earlier group's fault is the one raised, whichever kind it is."""
    cfg = config(mode, refresh_interval=256)
    sender = SenderSession(cfg)
    start = EPOCH_FRAMES - 11
    sender.next_tsc = start
    count = LANES_MIN_MSDUS + 6
    mid = count // 2
    groups = [sender.seal(rng.randbytes(rng.randrange(260, 500)))
              for _ in range(count)]
    assert all(len(g) == 2 for g in groups)

    def bit_flip(i):
        frame = groups[i][1]
        body = bytearray(frame.body)
        body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
        groups[i][1] = replace(frame, body=bytes(body))

    def splice(i):
        groups[i] = [groups[i][0], groups[i + 1][1]]

    if fault == "bit_flip":
        bit_flip(mid)
    elif fault == "bit_flip_then_splice":
        bit_flip(mid)
        splice(mid + 1)
    elif fault == "splice_then_bit_flip":
        splice(mid)
        bit_flip(mid + 1)
    elif fault == "wrong_mic_key":
        keys = cfg.keys
        other = SenderSession(config(mode, keys=SessionKeys(
            keys.tk, bytes(8), bytes(8), keys.ta), refresh_interval=256))
        other.next_tsc = start + 2 * mid
        groups[mid] = other.seal(rng.randbytes(300))
    elif fault == "replay":
        groups[mid] = groups[mid - 1]
    elif fault == "forged":
        groups[mid] = [_forged_frame(mode, tsc_hi=7)]
    elif fault == "type_b_first":
        groups = groups[1:]
        assert groups[0][0].layout is FrameLayout.LOTKIP_TYPE_B
    elif fault == "relabelled_probe":
        # a first fragment's body under a probe header: its check value
        # holds, so Michael is what rejects it
        groups[mid] = [_as_probe(groups[mid][0], start + 2 * mid)]
    else:
        splice(mid)
    expected = {"bit_flip": IcvMismatch, "wrong_mic_key": MicFailure,
                "replay": ReplayRejected, "type_b_first": NoEpochState,
                "splice": MalformedFrame, "forged": IcvMismatch,
                "bit_flip_then_splice": IcvMismatch,
                "splice_then_bit_flip": MalformedFrame,
                "relabelled_probe": MicFailure}[fault]
    raised, _ = _assert_open_many_matches_loop(cfg, groups, clock=lambda: 7.0)
    assert raised is expected


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_fragment_too_short_for_a_check_value_moves_no_state(mode):
    sender, receiver = sessions(mode)
    groups = sender.seal_many([b"first", b"second", b"third"])
    assert receiver.open(groups[0]) == b"first"
    before = _receiver_state(receiver)
    cut = [replace(groups[1][0], body=groups[1][0].body[:3])]
    for open_group in (receiver.open, lambda group: receiver.open_many([group])):
        with pytest.raises(IcvMismatch, match="too short to carry a check value"):
            open_group(cut)
        assert _receiver_state(receiver) == before
    assert receiver.open_many(groups[1:]) == [b"second", b"third"]


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_empty_group_is_malformed_and_moves_no_state(mode):
    cfg = config(mode)
    good = SenderSession(cfg).seal(b"good")
    receiver = ReceiverSession(cfg)
    before = _receiver_state(receiver)
    for open_group in (receiver.open, lambda group: receiver.open_many([group])):
        with pytest.raises(MalformedFrame, match="no frames supplied"):
            open_group([])
        assert _receiver_state(receiver) == before
    # the group before the empty one commits, then the empty one raises
    assert _assert_open_many_matches_loop(cfg, [good, []]) == (
        MalformedFrame, "no frames supplied")
    with pytest.raises(MalformedFrame, match="no frames supplied"):
        receiver.open_many([good, []])
    assert receiver.window.recent == [tsc_of(good[0])]
    with pytest.raises(ReplayRejected):
        receiver.open(good)


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_lanes_engage_at_crossover(rng, monkeypatch, mode):
    """Below LANES_MIN_MSDUS MSDUs Michael runs on `michael_mic`; from it on
    every tag comes from one `michael_mic_lanes` call per block in seal and
    in open.  Phase 2 and RC4 run once per frame through the codec's
    module-level names either way.  Every block spans two counter epochs,
    and seal and open each derive the phase 1 key of each epoch once."""
    import lotkip.codec as codec

    names = ("michael_mic_lanes", "michael_mic", "phase1_mix", "phase2_mix",
             "rc4_apply")
    calls = dict.fromkeys(names, 0)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    cfg = config(mode, refresh_interval=3)
    for count in (LANES_MIN_MSDUS - 1, LANES_MIN_MSDUS):
        # at the fixture's threshold of 256 B every MSDU has two fragments or
        # more, so the first MSDU alone crosses counter 0xFFFF -> 0x10000
        msdus = [rng.randbytes(rng.randrange(249, 600)) for _ in range(count)]
        lanes_on = count >= LANES_MIN_MSDUS
        with monkeypatch.context() as patch:
            for name in names:
                patch.setattr(codec, name, counted(name, getattr(codec, name)))
            calls.update(dict.fromkeys(names, 0))
            sender = SenderSession(cfg)
            sender.next_tsc = EPOCH_FRAMES - 1
            groups = sender.seal_many(msdus)
            frames = sum(map(len, groups))
            assert len(groups[0]) >= 2 and sender.next_tsc > EPOCH_FRAMES
            expected = {"michael_mic_lanes": int(lanes_on),
                        "michael_mic": 0 if lanes_on else count,
                        "phase1_mix": 2, "phase2_mix": frames, "rc4_apply": frames}
            assert calls == expected
            assert ReceiverSession(cfg).open_many(groups) == msdus
            assert calls == {name: 2 * n for name, n in expected.items()}


def test_seal_many_keeps_tags_and_bodies_apart(rng):
    # an MSDU equal to its first fragment's plaintext (chunk + check value):
    # its tag and that fragment's body share every input but the function
    from lotkip.crypto import crc32_icv
    cfg = config("lotkip")
    chunk = rng.randbytes(cfg.frag_threshold)
    msdus = [chunk + crc32_icv(chunk)] * LANES_MIN_MSDUS
    groups = SenderSession(cfg).seal_many(msdus)
    loop = SenderSession(cfg)
    assert groups == [loop.seal(m) for m in msdus]
    assert ReceiverSession(cfg).open_many(groups) == msdus


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_library_use_runs():
    # the README's two python blocks run in order, in one namespace
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        readme.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
