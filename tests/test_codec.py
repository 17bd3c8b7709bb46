"""Frame codec: header layout, the session seal/open pipeline in both
modes, replay window, countermeasures, the type A schedule and probe
machinery, overhead accounting, and the container/config formats."""

import random
from dataclasses import FrozenInstanceError, replace

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
    WEP_OVERHEAD_BYTES,
    container_to_frames,
    fragment_count,
    frames_to_container,
    lotkip_frame_classes,
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

from conftest import symmetric_keys

SA = bytes.fromhex("020202020202")
DA = bytes.fromhex("030303030303")


def config(mode="tkip", keys=None, **fields):
    fields.setdefault("frag_threshold", 256)
    return SessionConfig(keys=keys or symmetric_keys(), mode=mode, sa=SA, da=DA,
                         **fields)


def sessions(mode="tkip", keys=None, clock=None, **fields):
    """Sender and receiver sessions sharing one config."""
    cfg = config(mode, keys, **fields)
    return SenderSession(cfg), ReceiverSession(cfg, clock)


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
    assert [f.tsc for f in frames] == [0, 1]
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


def _check_exhaustion(mode):
    sender, _ = sessions(mode)
    sender.next_tsc = TSC_MAX
    with pytest.raises(TscExhausted):
        sender.seal(bytes(300))                     # second fragment past the end
    # last usable counter value still seals
    assert sender.seal(b"z")[0].tsc == TSC_MAX
    with pytest.raises(TscExhausted):
        sender.seal(b"z")


def test_tsc_exhaustion():
    _check_exhaustion("tkip")


def test_lotkip_tsc_exhaustion():
    _check_exhaustion("lotkip")


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


# ---------------------------------------------------------------------------
# Replay window
# ---------------------------------------------------------------------------

def test_replay_spec_cases():
    window = ReplayWindow()
    assert window.classify(5) is Classification.ACCEPT

    full = ReplayWindow(recent=list(range(10, 26)))
    assert full.classify(7) is Classification.REJECT

    gap = ReplayWindow(recent=[v for v in range(10, 26) if v != 18])
    assert gap.classify(18) is Classification.WINDOW
    assert 18 in gap.recent


def test_replay_duplicate_never_accepted_twice():
    window = ReplayWindow()
    assert window.classify(100) is Classification.ACCEPT
    assert window.classify(100) is Classification.REJECT
    # push 20 larger values; 100 falls off the window and stays rejected
    for v in range(101, 121):
        assert window.classify(v) is Classification.ACCEPT
    assert window.classify(100) is Classification.REJECT


def test_replay_window_tracks_largest_16():
    window = ReplayWindow()
    for v in range(32):
        window.classify(v)
    assert sorted(window.recent) == list(range(16, 32))
    assert window.highest == 31


def test_replay_below_partial_window_admits():
    # the lower bound only exists once 16 values are tracked
    window = ReplayWindow()
    window.classify(50)
    assert window.classify(3) is Classification.WINDOW


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
        assert receiver.window.recent == batch.window.recent == [second[0].tsc]
    else:
        assert receiver.open(first) == bytes([0]) * 40
        assert batch.open_many([second, first]) == [bytes([1]) * 40, bytes([0]) * 40]
    assert receiver.open(third) == bytes([2]) * 40
    for replay in (first, second, third):
        with pytest.raises(ReplayRejected):
            receiver.open(replay)


class BruteForceWindow:
    """Reference model: keeps every accepted value and recomputes the
    largest-16 set from scratch for each decision."""

    def __init__(self):
        self.accepted = []

    def classify(self, value):
        tracked = sorted(self.accepted)[-16:]
        if not tracked:
            self.accepted.append(value)
            return Classification.ACCEPT
        if value in tracked:
            return Classification.REJECT
        if value > max(tracked):
            self.accepted.append(value)
            return Classification.ACCEPT
        if len(tracked) == 16 and value < min(tracked):
            return Classification.REJECT
        self.accepted.append(value)
        return Classification.WINDOW


def test_replay_matches_brute_force_reference(rng):
    for _ in range(40):
        window = ReplayWindow()
        reference = BruteForceWindow()
        value = 0
        for _ in range(250):
            # drift upward with jitter so all three outcomes occur
            value = max(0, value + rng.randrange(-6, 10))
            assert window.classify(value) is reference.classify(value)


def test_group_counters_need_no_admits_between_checks(rng):
    # the receiver checks a group's consecutive counters against a window
    # that does not hold the group's earlier counters yet; the first one it
    # rejects must be the first a loop of `classify` rejects
    def first_reject(verdicts):
        return next((i for i, v in enumerate(verdicts) if v is Classification.REJECT),
                    None)

    for _ in range(2000):
        window = ReplayWindow()
        value = rng.randrange(40)
        for _ in range(rng.randrange(30)):
            value = max(0, value + rng.randrange(-6, 10))
            window.classify(value)
        start = rng.randrange(80)
        group = range(start, start + rng.randrange(1, 11))
        loop = ReplayWindow(list(window.recent))
        assert first_reject([window.check(v) for v in group]) == \
            first_reject([loop.classify(v) for v in group])


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
        tsc, layout, _ = sender._next_frame()
        if tsc & 0xFFFF == 0:
            first += layout is FrameLayout.LOTKIP_TYPE_A
        else:
            refreshed += layout is FrameLayout.LOTKIP_TYPE_A
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
    moved_tsc = frame.tsc + 1
    moved_body = rc4_apply(phase2_mix(ttak, keys.tk, moved_tsc & 0xFFFF), plain)
    moved = MpduFrame(FrameLayout.LOTKIP_TYPE_A, frame.key_id,
                      moved_tsc & 0xFFFF, moved_tsc >> 16, moved_body)
    with pytest.raises(MicFailure):
        receiver.open(moved)


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_michael_header_built_once_per_tkip_session(monkeypatch, mode):
    # TKIP's header holds no counter, so each session builds it once;
    # LOTKIP's carries the counter of each MSDU's first fragment
    cfg = config(mode)
    built = []
    original = SessionConfig.mic_header
    monkeypatch.setattr(SessionConfig, "mic_header", lambda self, first_tsc:
                        built.append(first_tsc) or original(self, first_tsc))
    sender, receiver = SenderSession(cfg), ReceiverSession(cfg)
    msdus = [bytes([n]) * 300 for n in range(5)]
    assert [receiver.open(sender.seal(m)) for m in msdus] == msdus
    assert receiver.open_many(sender.seal_many(msdus)) == msdus
    assert len(built) == (2 if mode == "tkip" else 4 * len(msdus))


@pytest.mark.parametrize("parsed, chosen", [("tkip", "lotkip"), ("lotkip", "tkip")])
def test_mode_set_after_config_reaches_michael_header(parsed, chosen):
    # `lotkip seal/open --mode` replace the mode of a parsed config,
    # before the sessions are built
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
    assert len(probe.raw()) == 16
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


# ---------------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------------

def test_overhead_values():
    assert overhead_of(FrameLayout.TKIP_BASELINE) == \
        OverheadLedger(iv_keyid=4, extiv=4, mic=8, icv=4)
    assert overhead_of(FrameLayout.TKIP_BASELINE).total == 20
    assert overhead_of(FrameLayout.LOTKIP_TYPE_A).total == 20
    assert overhead_of(FrameLayout.LOTKIP_TYPE_B).total == 16
    assert WEP_OVERHEAD_BYTES == 8
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
                assert (probe.raw()[:3], probe.body) == \
                    _ref_frame_parts(keys, tsc, PROBE_PAYLOAD)


# ---------------------------------------------------------------------------
# Whole-file seal/open in lanes against loops of seal/open
# ---------------------------------------------------------------------------

BATCH_COUNTS = (1, LANES_MIN_MSDUS - 1, LANES_MIN_MSDUS, LANES_BLOCK_MSDUS + 1)


def _sender_state(sender):
    return (sender.next_tsc, sender.probe_mode, sender.since_type_a,
            sender.ttak_cache.hi, sender.ttak_cache.calls)


def _receiver_state(receiver):
    return (list(receiver.window.recent), receiver.ttak_cache.hi,
            receiver.ttak_cache.calls, receiver.cm_state)


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


def _assert_open_many_matches_loop(cfg, groups, clock=None):
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
    for fault in ("bit_flip", "wrong_mic_key", "replay", "splice", "forged")
] + [("lotkip", "type_b_first")])
def test_open_many_failure_matches_loop(rng, mode, fault):
    cfg = config(mode, refresh_interval=256)
    sender = SenderSession(cfg)
    start = EPOCH_FRAMES - 11
    sender.next_tsc = start
    count = LANES_MIN_MSDUS + 6
    mid = count // 2
    groups = [sender.seal(rng.randbytes(rng.randrange(260, 500)))
              for _ in range(count)]
    assert all(len(g) == 2 for g in groups)
    if fault == "bit_flip":
        frame = groups[mid][1]
        body = bytearray(frame.body)
        body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
        groups[mid][1] = MpduFrame(frame.layout, frame.key_id, frame.tsc_low,
                                   frame.tsc_hi, bytes(body))
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
    else:
        groups[mid] = [groups[mid][0], groups[mid + 1][1]]
    expected = {"bit_flip": IcvMismatch, "wrong_mic_key": MicFailure,
                "replay": ReplayRejected, "type_b_first": NoEpochState,
                "splice": MalformedFrame, "forged": IcvMismatch}[fault]
    raised, _ = _assert_open_many_matches_loop(cfg, groups, clock=lambda: 7.0)
    assert raised is expected


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_lanes_engage_at_crossover(rng, monkeypatch, mode):
    """Below LANES_MIN_MSDUS MSDUs nothing runs in lanes; from it on every
    tag and body comes from the lanes, so no prediction missed."""
    import lotkip.codec as codec
    import lotkip.crypto.lanes as lanes

    def fail(*args):
        raise AssertionError("unexpected call")

    cfg = config(mode, refresh_interval=3)
    for count in (LANES_MIN_MSDUS - 1, LANES_MIN_MSDUS):
        msdus = [rng.randbytes(rng.randrange(600)) for _ in range(count)]
        with monkeypatch.context() as patch:
            if count >= LANES_MIN_MSDUS:
                patch.setattr(codec, "michael_mic", fail)
                patch.setattr(codec, "rc4_apply", fail)
            else:
                patch.setattr(lanes, "michael_mic_lanes", fail)
                patch.setattr(lanes, "rc4_apply_lanes", fail)
            sender = SenderSession(cfg)
            sender.next_tsc = EPOCH_FRAMES - 5
            groups = sender.seal_many(msdus)
            assert ReceiverSession(cfg).open_many(groups) == msdus


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
