"""The benchmark's span points: each names a function that exists.

`perfbench/tracer.py` skips a span point it cannot resolve, so a renamed or
inlined function would drop its layer from a traced run without an error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lotkip.codec as codec
from conftest import symmetric_keys

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_POINTS


@pytest.mark.parametrize("path, attr", [(p[0], p[1]) for p in _span_points()])
def test_span_point_resolves(path, attr):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        # the tracer wraps the class attribute itself, not an inherited one
        assert attr in vars(getattr(owner, cls))
    else:
        assert callable(getattr(owner, attr, None))


# the crypto points of a scalar seal and open, by name, and the length
# each point's size argument must have for one TKIP MSDU of 300 B at
# threshold 256: its stream of 308 B with the tag splits into fragments
# of 256 and 52 B, each encrypted with its 4-byte check value
SCALAR_POINTS = {
    "michael_mic": [300, 300],
    "rc4_apply": [56, 56, 260, 260],
    "crc32_icv": [52, 52, 256, 256],
    "phase2_mix": None,
}


def test_scalar_tkip_seal_and_open_reach_the_crypto_points(monkeypatch):
    """A span point that still resolves can go blind: the tracer counts a
    call only if it goes through the wrapped module attribute, and bytes
    only if the argument at the point's size index is there.  One scalar
    TKIP seal and open must call each crypto point of `lotkip.codec`,
    with the MSDU or the fragment at that index."""
    points = {attr: size for path, attr, _, size in _span_points()
              if path == "lotkip.codec" and attr in SCALAR_POINTS}
    assert set(points) == set(SCALAR_POINTS)
    seen = {attr: [] for attr in points}
    for attr, size in points.items():
        def record(*args, _orig=getattr(codec, attr), _seen=seen[attr], _size=size):
            # the tracer reads the size argument only if it is positional
            assert _size is None or len(args) > _size, "size argument not positional"
            _seen.append(None if _size is None else len(args[_size]))
            return _orig(*args)
        monkeypatch.setattr(codec, attr, record)
    cfg = codec.SessionConfig(keys=symmetric_keys(), mode="tkip", frag_threshold=256)
    msdu = bytes(range(150)) * 2
    frames = codec.SenderSession(cfg).seal(msdu)
    assert codec.ReceiverSession(cfg).open(frames) == msdu
    for attr, lengths in SCALAR_POINTS.items():
        assert seen[attr], f"{attr} was not called"
        if lengths is not None:
            assert sorted(seen[attr]) == lengths, attr
