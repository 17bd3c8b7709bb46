"""The RC4 tests, and the codec's scalar and whole-file tests, again on
the pure-Python RC4 that runs wherever libcrypto's RC4 cannot be bound.

Each test imported here is collected a second time, in this module, under
the `python_rc4` fixture; in its own module it runs on whichever backend
binds."""

import pytest

from lotkip.crypto import rc4

from test_codec import (  # noqa: F401
    test_lanes_engage_at_crossover,
    test_lotkip_fragmented_round_trip,
    test_lotkip_mic_covers_counter,
    test_open_many_failure_matches_loop,
    test_probe_replay_rejected,
    test_seal_many_keeps_tags_and_bodies_apart,
    test_seal_many_open_many_equal_loops,
    test_sealed_frames_match_reference,
    test_sessions_round_trip_both_modes,
    test_single_bit_corruption_detected,
)
from test_rc4 import (  # noqa: F401
    test_empty_data_leaves_state_untouched,
    test_involution,
    test_key_length_limits,
    test_known_vectors,
    test_matches_reference_at_key_lengths,
    test_matches_reference_on_random_inputs,
    test_rfc6229_keystream,
)

pytestmark = pytest.mark.usefixtures("python_rc4")


def test_runs_the_pure_path(monkeypatch):
    calls, ksa = [], rc4.rc4_ksa
    monkeypatch.setattr(rc4, "rc4_ksa", lambda key: calls.append(key) or ksa(key))
    assert rc4.rc4_apply(b"Key", b"Plaintext") == bytes.fromhex("BBF316E8D940AF0AD3")
    assert rc4._backend is rc4._python_rc4 and calls == [b"Key"]
