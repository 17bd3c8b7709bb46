"""lotkip benchmark: one closed-loop workload per run, metrics on stdout.

    python3 perfbench/run.py --workload small-tkip --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

Run from the root of a lotkip checkout; lotkip is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with tracing
off.  With ``--trace 1`` it runs the workload once untraced and once more,
on the same inputs, with spans recorded around lotkip's public functions,
and reports the per-layer metrics.  ``--workload all`` runs every workload
both ways, each in its own process.  Every run checks lotkip's outputs
outside the timed regions.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench_run/`` in the checkout; a traced run leaves its spans
there as ``<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("bulk-lotkip", "small-tkip", "sim-paper")
SETUP_REPEATS = 9
# end-to-end metrics defined on every workload; the rest are printed only
GATED = ("setup_s", "peak_rss_MB", "units_per_s")

CRYPTO = ("michael_mic", "rc4_apply", "crc32_icv", "rc4_ksa", "phase1_mix",
          "phase2_mix")
BYTE_LAYERS = ("michael_mic", "rc4_apply", "crc32_icv")
REJECTS = ("ReplayRejected", "IcvMismatch", "MicFailure", "MalformedFrame",
           "NoEpochState", "Blackout")


def import_lotkip():
    """Import lotkip from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lotkip
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lotkip from {SRC}: {exc}")
    if Path(lotkip.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: lotkip came from {lotkip.__file__}, not {SRC}")
    return lotkip


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

def full_windows(tally, size: int) -> list[tuple[dict, float]]:
    """(totals, speed) of the windows of `size` requests; a trailing
    partial window counts only when there is no full one."""
    full = [(sums, speed) for n, sums, speed in tally.windows if n == size]
    return full or [(sums, speed) for _, sums, speed in tally.windows]


def window_rate(tally, size: int, num: str, dens: tuple[str, ...],
                scale: float = 1.0) -> tuple[float, int]:
    """Median over windows of sum(num) / sum(dens), at reference speed,
    and the number of windows."""
    rates = [sums[num] / sum(sums[d] for d in dens) * scale / speed
             for sums, speed in full_windows(tally, size)]
    return statistics.median(rates), len(rates)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(wl) -> list[float]:
    """Seconds to import lotkip and build the workload's sessions or
    configs, each in a fresh interpreter, at reference speed.  The child
    measures its own speed just before and after, on the same CPU."""
    code = (f"import sys, time\nsys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            f"from calib import calibrate\ntext = {wl.text!r}\n"
            f"before = calibrate(('python',))\nt0 = time.perf_counter()\n"
            f"{wl.setup_code}t = time.perf_counter() - t0\n"
            f"print(t * (before + calibrate(('python',))) / 2)\n")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup child failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(wl, tally, setup_times: list[float]) -> list[tuple]:
    """(name, value, unit, note) rows.  Times and rates are at reference
    speed (see calib)."""
    size = wl.window
    codec_run = "seal_s" in tally.windows[0][1]
    busy = ("seal_s", "open_s") if codec_run else ("sim_s",)
    units, nwin = window_rate(tally, size, "units", busy)
    over = f"median of {nwin} windows of {size} request(s)"
    rows = [
        ("setup_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} fresh interpreters"),
        ("peak_rss_MB",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "ru_maxrss of this process"),
        ("units_per_s", units, "1/s", f"{wl.unit}s completed, {over}"),
    ]
    if codec_run:
        seal, _ = window_rate(tally, size, "payload_B", ("seal_s",), 1e-6)
        opened, _ = window_rate(tally, size, "delivered_B", ("open_s",), 1e-6)
        rows += [("seal_MBps", seal, "MB/s", over),
                 ("open_MBps", opened, "MB/s", f"goodput, {over}")]
    else:
        rows.append(("sim_scenarios_per_s", units, "1/s", over))
    for side in sorted(tally.hist, reverse=True):
        for q in (50, 99):
            value, n = tally.percentile(side, q)
            rows.append((f"{side}_us_p{q}", value * 1e6, "us", f"n={n} MSDUs"))
    speeds = [speed for _, speed in full_windows(tally, size)]
    rows.append(("machine_speed", statistics.median(speeds), "ratio",
                 f"raw = reference-speed time / this; median of {len(speeds)}"))
    return rows


def per_layer(summary: dict, traced, untraced, raised) -> list[tuple]:
    """(name, value, unit, note) rows from the traced pass.  Times are raw
    except the tracing overhead, which compares two passes and so is taken
    at reference speed."""
    from lotkip import cost

    spans = summary["spans"]

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    rows = []
    crypto_s = sum(get(f"crypto.{p}", "self_s") for p in CRYPTO)
    for p in CRYPTO:
        name = f"crypto.{p}"
        self_s = get(name, "self_s")
        rows += [(f"{name}.calls", get(name, "calls"), "count"),
                 (f"{name}.self_s", self_s, "s")]
        if p in BYTE_LAYERS:
            nbytes = get(name, "bytes")
            rows += [(f"{name}.bytes", nbytes, "B"),
                     (f"{name}.MBps", nbytes / self_s / 1e6 if self_s else 0.0,
                      "MB/s")]
        rows.append((f"{name}.share", self_s / crypto_s if crypto_s else 0.0,
                     "ratio"))

    # The cost model's cycles for the frame sizes this run actually used.
    def cycles_over(name: str, fn) -> int:
        return sum(c * fn(n) for n, c in spans.get(name, {}).get("lengths", {}).items())

    ksa_cycles = cost.rc4_cycles(0).total()
    model = {
        "michael_mic": cycles_over("crypto.michael_mic",
                                   lambda n: cost.mic_cycles(n).total()),
        "rc4_apply": cycles_over("crypto.rc4_apply",
                                 lambda n: cost.rc4_cycles(n).total() - ksa_cycles),
        "crc32_icv": cycles_over("crypto.crc32_icv",
                                 lambda n: cost.crc_cycles(n).total()),
        "rc4_ksa": get("crypto.rc4_apply", "calls") * ksa_cycles,
        "phase1_mix": get("crypto.phase1_mix", "calls") * cost.phase1_cycles().total(),
        "phase2_mix": get("crypto.phase2_mix", "calls") * cost.phase2_cycles().total(),
    }
    model_total = sum(model.values())
    rows += [(f"cost.model_share.{p}", model[p] / model_total if model_total else 0.0,
              "ratio") for p in CRYPTO]

    rows += [(f"codec.{part}.self_s", get(f"codec.{part}", "self_s"), "s")
             for part in ("seal", "open", "container")]
    rows += [(f"codec.frames.{label}", traced.frames.get(layout, 0), "count")
             for label, layout in (("baseline", "tkip_baseline"),
                                   ("type_a", "lotkip_type_a"),
                                   ("type_b", "lotkip_type_b"))]
    rows.append(("codec.overhead_bytes", traced.overhead_bytes, "B"))
    lookups = get("crypto.phase2_mix", "calls")
    rows.append(("codec.phase1_hit_ratio",
                 1 - get("crypto.phase1_mix", "calls") / lookups if lookups else 0.0,
                 "ratio"))
    rows += [(f"codec.rejects.{exc}", raised.get(("codec.open", exc), 0), "count")
             for exc in REJECTS]
    rows += [(f"cli.{side}.self_s", get(f"cli.{side}", "self_s"), "s")
             for side in ("seal", "open")]
    for name in ("netsim.generate_topology", "netsim.link_decide",
                 "netsim.route", "cost.tkip_energy"):
        rows += [(f"{name}.calls", get(name, "calls"), "count"),
                 (f"{name}.self_s", get(name, "self_s"), "s")]
    rows += [(f"netsim.{fn}.self_s", get(f"netsim.{fn}", "self_s"), "s")
             for fn in ("run_experiment", "emit_series")]
    rows += [
        ("trace.traced_s", traced.timed_s, "s"),
        ("trace.overhead_s", traced.timed_ref_s - untraced.timed_ref_s, "s"),
        ("trace.coverage",
         summary["root_s"] / traced.timed_s if traced.timed_s else 0.0, "ratio"),
    ]
    return [(name, value, unit, "") for name, value, unit in rows]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    lotkip = import_lotkip()
    from tracer import Tracer
    from workloads import WORKLOADS, Tally, run_pass

    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, so each speed calibration measures the CPU
    # the work around it ran on; setup children inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUN_DIR))
    try:
        wl = WORKLOADS[name](seed, workdir)
        print(f"# perfbench workload={name} seed={seed} seconds={seconds} "
              f"trace={int(trace)}")
        print(f"# env python={platform.python_version()} numpy={np.__version__} "
              f"nproc={nproc} lotkip={lotkip.__version__}")
        print(f"# loop: {wl.loop}; unit={wl.unit}")
        checked = Tally()
        checked.merge(run_pass(wl, requests=wl.window))  # warm-up
        if not trace:
            setup_times = measure_setup(wl)
            main = run_pass(wl, seconds=seconds)
            checked.merge(main)
            wl.final_checks(checked)
            rows = end_to_end(wl, main, setup_times)
        else:
            wl.final_checks(checked)
            untraced = run_pass(wl, seconds=seconds / 2)
            tracer = Tracer(wl.unit_spans)
            tracer.install()
            try:
                traced = run_pass(wl, requests=untraced.requests,
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            checked.merge(untraced)
            checked.merge(traced)
            summary = tracer.summary()
            rows = per_layer(summary, traced, untraced, tracer.raised)
            tracer.save(RUN_DIR / f"{name}.spans.npz", workload=name, seed=seed)
            print(f"# {summary['span_count']} spans over {traced.requests} "
                  f"requests saved to {RUN_DIR.name}/{name}.spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for metric, value, unit, note in rows:
        print(f"{name:<12} {metric:<34} {value:>16.6f} {unit:<6} {note}")
    ratio = checked.failed / checked.attempted
    print(f"{name:<12} {'fail_ratio':<34} {ratio:>16.6f} {'ratio':<6} "
          f"{checked.failed} failed of {checked.attempted} operations")
    return {"correct": checked.failed == 0, "attempted": checked.attempted,
            "failed": checked.failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, value, unit, _ in rows
                        if trace or metric in GATED}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload with tracing off and on, each in its own process so
    peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} --trace {trace} failed")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
