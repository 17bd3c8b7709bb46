"""The three benchmark workloads and the closed loop that drives them.

Every workload runs from one process with no threads, and the next request
starts only after the previous one has finished and been checked; the codec
workloads use one sender and one receiver.  Inputs come from the harness
seed only.  Timed regions call lotkip through module attributes looked up
at call time (``codec.SenderSession``, ``cli.main``), so a tracer that
replaces those attributes sees every call; checks run between timed
regions and use the unwrapped functions held by ``checks``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from lotkip import cli, codec

import checks
from calib import calibrate

MSDU_BYTES = 2304


def _hex(rng: random.Random, n: int) -> str:
    return rng.randbytes(n).hex()


def session_text(seed: int, mode: str, frag_threshold: int) -> str:
    rng = random.Random(f"{seed}:keys")
    mic = _hex(rng, 8)
    return (f"tk = {_hex(rng, 16)}\nmic_key_tx = {mic}\nmic_key_rx = {mic}\n"
            f"ta = {_hex(rng, 6)}\nkey_id = 0\nmode = {mode}\nK = 256\n"
            f"frag_threshold = {frag_threshold}\n")


def _run_cli(argv: list[str]) -> int:
    """lotkip.cli.main with its diagnostics kept off the report unless the
    command fails."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        sys.stderr.write(err.getvalue())
    return rc


# latency histogram buckets are this factor wide, so a percentile read from
# the histogram is within 0.1% of the sample's value
BUCKET_RATIO = 1.001


class Tally:
    """Operations checked and timed totals of one pass.

    Timed totals are summed per window of requests and kept with the
    window's machine speed; per-request latencies go into log-spaced
    histograms at reference speed when their window closes.  The harness's
    memory therefore does not grow with the number of requests a run
    completes, and peak RSS stays lotkip's."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.requests = 0
        self.timed_s = 0.0
        self.timed_ref_s = 0.0
        self.speed: list[float] = []
        self.windows: list[tuple[int, dict, float]] = []
        self.hist: defaultdict = defaultdict(Counter)
        self.frames: Counter = Counter()
        self.overhead_bytes = 0
        self._sums: Counter = Counter()
        self._latency: defaultdict = defaultdict(list)
        self._in_window = 0
        self._timed_mark = 0.0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, **totals: float) -> None:
        """One request's timed totals (seconds, bytes, units)."""
        self._sums.update(totals)
        self._in_window += 1

    def latency(self, key: str, seconds: float) -> None:
        self._latency[key].append(seconds)

    def close_window(self, speed: float) -> None:
        """Close the window of requests since the last call; `speed` is the
        machine speed measured now, and the window's speed is the mean of
        the measurements at its two ends."""
        mean = (self.speed[-1] + speed) / 2
        self.speed.append(speed)
        self.windows.append((self._in_window, dict(self._sums), mean))
        self.timed_ref_s += (self.timed_s - self._timed_mark) * mean
        self._timed_mark = self.timed_s
        for key, values in self._latency.items():
            hist = self.hist[key]
            for v in values:
                hist[round(math.log(v * mean, BUCKET_RATIO))] += 1
        self._sums.clear()
        self._latency.clear()
        self._in_window = 0

    def percentile(self, key: str, q: float) -> tuple[float, int]:
        """Nearest-rank percentile (q in (0, 100]) of a latency histogram,
        and the sample count."""
        hist = self.hist[key]
        n = sum(hist.values())
        rank = max(1, math.ceil(q / 100 * n))
        seen = 0
        for bucket in sorted(hist):
            seen += hist[bucket]
            if seen >= rank:
                return BUCKET_RATIO ** bucket, n
        raise ValueError(f"no {key} latencies")

    def count_frames(self, frames) -> None:
        for frame in frames:
            self.frames[frame.layout.value] += 1
            self.overhead_bytes += codec.overhead_of(frame.layout).total

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


class Workload:
    name = ""
    loop = "closed loop, 1 sender/receiver pair, 1 process, no threads"
    unit = ""
    # requests per throughput window; rates are medians over windows
    window = 1
    # calibration kernels that track the machine's speed for this workload
    kernels = ("python",)
    # span names that start a new unit of work inside one request
    unit_spans: "tuple[str, ...]" = ()
    # the session or scenario config text the workload runs with
    text = ""
    # runs in a fresh interpreter after sys.path is set, with `text` bound
    setup_code = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def start_pass(self) -> None:
        """Reset per-pass state so every pass sees the same inputs."""

    def request(self, k: int, tally: Tally) -> None:
        raise NotImplementedError

    def final_checks(self, tally: Tally) -> None:
        """Checks made once per run, outside every pass."""


class BulkLotkip(Workload):
    """`lotkip seal` then `lotkip open` of one file of 2304-byte MSDUs."""

    name = "bulk-lotkip"
    unit = "MSDU"
    unit_spans = ("codec.seal", "codec.open")
    msdus_per_file = 100
    samples_per_file = 2
    setup_code = ("import lotkip.cli\nfrom lotkip import codec\n"
                  "cfg = codec.parse_session_config(text)\n"
                  "codec.SenderSession(cfg)\ncodec.ReceiverSession(cfg)\n")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.text = session_text(seed, "lotkip", 1024)
        self.cfg = codec.parse_session_config(self.text)
        self.config_path = workdir / "session.cfg"
        self.config_path.write_text(self.text)
        self.paths = {k: str(workdir / f"{k}.bin")
                      for k in ("input", "sealed", "recovered")}

    def request(self, k: int, tally: Tally) -> None:
        rng = random.Random(f"{self.seed}:bulk:{k}")
        data = rng.randbytes(self.msdus_per_file * MSDU_BYTES)
        Path(self.paths["input"]).write_bytes(data)
        common = ["--config", str(self.config_path)]
        t0 = perf_counter()
        rc_seal = _run_cli(["seal", *common, "--in", self.paths["input"],
                            "--out", self.paths["sealed"]])
        t1 = perf_counter()
        rc_open = _run_cli(["open", *common, "--in", self.paths["sealed"],
                            "--out", self.paths["recovered"]])
        t2 = perf_counter()

        recovered = Path(self.paths["recovered"]).read_bytes() \
            if rc_seal == 0 and rc_open == 0 else b""
        msdus = [data[i:i + MSDU_BYTES] for i in range(0, len(data), MSDU_BYTES)]
        ok = [recovered[i * MSDU_BYTES:(i + 1) * MSDU_BYTES] == m
              for i, m in enumerate(msdus)]
        frames = checks.parse_container(Path(self.paths["sealed"]).read_bytes()) \
            if rc_seal == 0 else []
        tally.count_frames(frames)
        per_msdu = checks.fragment_count(MSDU_BYTES, self.cfg.frag_threshold)
        if len(frames) != per_msdu * len(msdus):
            ok = [False] * len(msdus)
        else:
            for i in rng.sample(range(len(msdus)), self.samples_per_file):
                first = i * per_msdu
                ok[i] = ok[i] and all(
                    checks.frame_matches_reference(frames[first + j], self.cfg,
                                                   msdus[i], first, j, first + j)
                    for j in range(per_msdu))
        for result in ok:
            tally.check(result)

        tally.timed_s += t2 - t0
        tally.add(units=len(msdus), seal_s=t1 - t0, open_s=t2 - t1,
                  payload_B=len(data),
                  delivered_B=sum(len(m) for m, good in zip(msdus, ok) if good))


class SmallTkip(Workload):
    """Baseline TKIP, one small MSDU per request, with link-layer duplicates."""

    name = "small-tkip"
    unit = "MSDU"
    window = 256
    max_msdu = 128
    dup_rate = 1 / 8
    setup_code = ("from lotkip import codec\n"
                  "cfg = codec.parse_session_config(text)\n"
                  "codec.SenderSession(cfg)\ncodec.ReceiverSession(cfg)\n")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.text = session_text(seed, "tkip", 256)
        self.cfg = codec.parse_session_config(self.text)

    def start_pass(self) -> None:
        self.rng = random.Random(f"{self.seed}:small")
        self.sender = codec.SenderSession(self.cfg)
        self.receiver = codec.ReceiverSession(self.cfg)
        self.next_tsc = 0

    def _duplicate(self, wire: bytes) -> bytes:
        """The same wire bytes, or with one bit of one encrypted body flipped."""
        if self.rng.random() < 0.5:
            return wire
        frames = checks.parse_container(wire)
        j = self.rng.randrange(len(frames))
        body = bytearray(frames[j].body)
        bit = self.rng.randrange(8 * len(body))
        body[bit // 8] ^= 1 << (bit % 8)
        frames[j] = dataclasses.replace(frames[j], body=bytes(body))
        return checks.to_container(frames)

    def request(self, k: int, tally: Tally) -> None:
        rng = self.rng
        msdu = rng.randbytes(rng.randint(0, self.max_msdu))
        dup = rng.random() < self.dup_rate
        t0 = perf_counter()
        frames = self.sender.seal(msdu)
        wire = codec.frames_to_container(frames)
        t1 = perf_counter()
        try:
            got = self.receiver.open(codec.container_to_frames(wire))
        except codec.CodecError:
            got = None
        t2 = perf_counter()
        open_s = t2 - t1
        if dup:
            dup_wire = self._duplicate(wire)
            t3 = perf_counter()
            try:
                self.receiver.open(codec.container_to_frames(dup_wire))
                rejected = False
            except codec.ReplayRejected:
                rejected = True
            except codec.CodecError:
                rejected = False
            open_s += perf_counter() - t3
            tally.check(rejected)

        tally.count_frames(frames)
        tsc = self.next_tsc
        self.next_tsc += len(frames)
        tally.check(got == msdu and all(
            checks.frame_matches_reference(f, self.cfg, msdu, tsc, j, tsc + j)
            for j, f in enumerate(frames)))

        tally.timed_s += (t1 - t0) + open_s
        tally.add(units=1, seal_s=t1 - t0, open_s=open_s, payload_B=len(msdu),
                  delivered_B=len(msdu) if got == msdu else 0)
        tally.latency("seal", t1 - t0)
        tally.latency("open", t2 - t1)


class SimPaper(Workload):
    """`lotkip sim` on the paper's default scenario, both placements."""

    name = "sim-paper"
    loop = "closed loop of sim calls, 1 process, no threads"
    unit = "scenario"
    kernels = ("python", "numpy")
    unit_spans = ("netsim.generate_topology",)
    scenarios = 100
    placements = 2
    text = ("nodes = 49\narea_w = 500\narea_h = 500\nplacement = both\n"
            "R = 120\nalpha = 0.75\nP_list = 256,512,768,1024,1280,1536,1792,2048\n"
            f"packets = 10000\nscenarios = {scenarios}\nscheme = both\nK = 256\n"
            "ack = off\nseed = 1\n")
    setup_code = ("import lotkip.cli\nfrom lotkip import netsim\n"
                  "netsim.parse_scenario_config(text)\n")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.scenario_path = workdir / "scenario.cfg"
        self.scenario_path.write_text(self.text)
        self.csv_path = workdir / "series.csv"

    def _sim(self, sim_seed: int) -> "bytes | None":
        rc = _run_cli(["sim", "--scenario", str(self.scenario_path),
                       "--csv", str(self.csv_path), "--seed", str(sim_seed)])
        return self.csv_path.read_bytes() if rc == 0 else None

    def request(self, k: int, tally: Tally) -> None:
        t0 = perf_counter()
        out = self._sim(self.seed * 1000 + k)
        t1 = perf_counter()
        tally.check(out is not None and checks.sim_csv_ok(out.decode()))
        tally.timed_s += t1 - t0
        tally.add(units=self.scenarios * self.placements, sim_s=t1 - t0)

    def final_checks(self, tally: Tally) -> None:
        out = self._sim(checks.RECORDED_SIM_SEED)
        tally.check(out is not None
                    and checks.sha256(out) == checks.RECORDED_SIM_SHA256)


WORKLOADS = {w.name: w for w in (BulkLotkip, SmallTkip, SimPaper)}


def run_pass(wl: Workload, *, seconds: float = math.inf,
             requests: "int | None" = None, tracer=None) -> Tally:
    """Run requests 0, 1, ... until `requests` have run or the timed
    regions add up to `seconds`, measuring the machine's speed at the start
    and after every window of `wl.window` requests."""
    wl.start_pass()
    tally = Tally()
    tally.speed.append(calibrate(wl.kernels))
    k = 0
    while (k < requests) if requests is not None else (tally.timed_s < seconds):
        if tracer is not None:
            tracer.begin_request(k)
        wl.request(k, tally)
        k += 1
        if k % wl.window == 0:
            tally.close_window(calibrate(wl.kernels))
    if k % wl.window:
        tally.close_window(calibrate(wl.kernels))
    tally.requests = k
    return tally
