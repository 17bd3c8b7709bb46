import random

import pytest

from lotkip.codec import Classification, SessionKeys
from lotkip.crypto import michael_header, michael_mic, michael_midstate


@pytest.fixture
def rng():
    return random.Random(0xD00F)


def make_keys(rng=None, key_id=0):
    r = rng or random.Random(20)
    return SessionKeys(
        tk=r.randbytes(16),
        mic_key_tx=r.randbytes(8),
        mic_key_rx=r.randbytes(8),
        ta=r.randbytes(6),
        key_id=key_id,
    )


def symmetric_keys(rng=None, key_id=0):
    """Keys where both integrity directions match, for self round trips."""
    r = rng or random.Random(21)
    mic = r.randbytes(8)
    return SessionKeys(tk=r.randbytes(16), mic_key_tx=mic, mic_key_rx=mic,
                       ta=r.randbytes(6), key_id=key_id)


def mic_counter(iv):
    """Michael's counter input: none for TKIP, the 48-bit counter as 6
    little-endian bytes for LOTKIP."""
    return b"" if iv is None else iv.to_bytes(6, "little")


def mic_of(key, sa, da, priority, iv, data):
    """`michael_mic` on the arguments of `lotkip.reference.ref_michael_mic`."""
    midstate = michael_midstate(key, michael_header(sa, da, priority))
    return michael_mic(midstate, mic_counter(iv), data)


def check_then_admit(window, value):
    """A window's verdict on one counter, admitting it unless rejected, as
    a receiver does for a counter whose MSDU verifies."""
    verdict = window.check(value)
    if verdict is not Classification.REJECT:
        window.admit(value)
    return verdict


class BruteForceWindow:
    """Reference model of the replay window: keeps every accepted value and
    recomputes the largest-16 set from scratch for each decision."""

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


@pytest.fixture
def python_rc4(monkeypatch):
    """`rc4_apply` on the pure-Python path, as on a machine without
    libcrypto's RC4: the next call binds again and finds no library.
    monkeypatch restores the binding afterwards."""
    from lotkip.crypto import libcrypto, rc4
    monkeypatch.setattr(libcrypto, "_SONAMES", ())
    monkeypatch.setattr(rc4, "_backend", None)
