"""In-memory span recorder that wraps lotkip's public functions from outside.

Each wrapped function is replaced at the module (or class) attribute its
callers look it up by, so no file under ``src/`` changes.  A span records
its name, start, end, parent span and group; the group identifies the unit
of work (an MSDU or a simulated scenario) the span belongs to.  Spans are
kept in flat arrays while the run lasts and saved when it ends.

A layer's self time is its span duration minus the durations of its child
spans.  Calls run on one thread and nest strictly, so child spans never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module[:class], attribute, span name, index of the positional argument
# whose length is the span's byte count, or None)
SPAN_POINTS = (
    ("lotkip.codec", "michael_mic", "crypto.michael_mic", 2),
    ("lotkip.codec", "rc4_apply", "crypto.rc4_apply", 1),
    ("lotkip.codec", "crc32_icv", "crypto.crc32_icv", 0),
    ("lotkip.crypto.rc4", "rc4_ksa", "crypto.rc4_ksa", None),
    ("lotkip.codec", "phase1_mix", "crypto.phase1_mix", None),
    ("lotkip.codec", "phase2_mix", "crypto.phase2_mix", None),
    ("lotkip.codec:SenderSession", "seal", "codec.seal", None),
    ("lotkip.codec:ReceiverSession", "open", "codec.open", None),
    ("lotkip.codec", "frames_to_container", "codec.container", None),
    ("lotkip.codec", "container_to_frames", "codec.container", None),
    ("lotkip.cli", "frames_to_container", "codec.container", None),
    ("lotkip.cli", "container_to_frames", "codec.container", None),
    ("lotkip.cli", "cmd_seal", "cli.seal", None),
    ("lotkip.cli", "cmd_open", "cli.open", None),
    ("lotkip.netsim", "run_experiment", "netsim.run_experiment", None),
    ("lotkip.netsim", "generate_topology", "netsim.generate_topology", None),
    ("lotkip.netsim", "link_decide", "netsim.link_decide", None),
    ("lotkip.netsim", "route", "netsim.route", None),
    ("lotkip.netsim", "tkip_energy", "cost.tkip_energy", None),
    ("lotkip.netsim", "emit_series", "netsim.emit_series", None),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans for the wrapped functions between install() and
    uninstall().  ``unit_spans`` names the spans that start a new unit of
    work inside a request: the n-th such span of a name starts unit n, so
    the n-th seal and the n-th open of a request share a group.  Every
    later span belongs to that unit until the next one starts; root spans
    belong to the request."""

    def __init__(self, unit_spans: "tuple[str, ...]" = ()) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("q")
        self.start = array("d")
        self.end = array("d")
        self.lengths: defaultdict = defaultdict(Counter)
        self.raised: Counter = Counter()
        self.unit_spans = frozenset(unit_spans)
        self._stack: list[int] = []
        self._request = 0
        self._units: dict[int, int] = {}
        self._current = 0
        self._undo: list[tuple[object, str, object]] = []

    def begin_request(self, k: int) -> None:
        self._request = k << 20
        self._units.clear()
        self._current = self._request

    def install(self) -> None:
        for path, attr, span, size_arg in SPAN_POINTS:
            owner = _resolve(path)
            orig = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if orig is None:  # renamed or inlined: its time shows in the caller
                continue
            setattr(owner, attr, self._wrap(orig, span, size_arg))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, orig, span: str, size_arg: "int | None"):
        nid = self._span_id(span)
        opens_unit = span in self.unit_spans
        stack = self._stack
        name_id, parent, group = self.name_id, self.parent, self.group
        start, end = self.start, self.end
        lengths = self.lengths[span]
        raised = self.raised
        units = self._units

        def traced(*args, **kwargs):
            if not stack:
                self._current = self._request
            elif opens_unit:
                units[nid] = n = units.get(nid, 0) + 1
                self._current = self._request | n
            if size_arg is not None and len(args) > size_arg:
                lengths[len(args[size_arg])] += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            group.append(self._current)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return orig(*args, **kwargs)
            except Exception as exc:
                raised[(span, type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, bytes; plus root-span time."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        n = len(self.names)
        self_s = np.bincount(ids, weights=dur - covered, minlength=n)
        calls = np.bincount(ids, minlength=n)
        out = {}
        for k, name in enumerate(self.names):
            lengths = self.lengths.get(name, {})
            out[name] = {
                "calls": int(calls[k]),
                "self_s": float(self_s[k]),
                "bytes": sum(length * c for length, c in lengths.items()),
                "lengths": dict(lengths),
            }
        return {"spans": out, "root_s": float(dur[~has_parent].sum()),
                "span_count": len(dur)}

    def save(self, path, **meta) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 group=np.frombuffer(self.group, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(repr(meta)))
