"""Acceptance suite: one test per release criterion, each printed as a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`), plus
a check of the two fit helpers criterion 6 measures with.

Every criterion runs at its full stated scale and tolerance; the runtime
budgets are asserted alongside the functional checks.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from lotkip import reference as ref
from lotkip.codec import (
    CountermeasureState,
    FrameLayout,
    IcvMismatch,
    MicFailure,
    MpduFrame,
    ReceiverSession,
    ReplayWindow,
    SenderSession,
    SessionConfig,
    SessionKeys,
)
from lotkip.cost import (
    Case,
    table1,
    TABLE1_NOTES,
    tkip_energy,
    tkip_energy_cycles,
)
from lotkip.crypto import (
    crc32_icv,
    phase1_mix,
    phase2_mix,
    rc4_apply,
)
from lotkip.netsim import (
    TopologyConfig,
    TrafficConfig,
    generate_topology,
    link_decide,
    run_experiment,
)

from conftest import BruteForceWindow, check_then_admit, mic_of

SA = bytes.fromhex("020202020202")
DA = bytes.fromhex("030303030303")


def fit_r_squared(xs: list[float], ys: list[float]) -> float:
    """Coefficient of determination of the least-squares line through (xs, ys)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if syy == 0:
        return 1.0
    if sxx == 0:
        raise ValueError("x values are all identical")
    return (sxy * sxy) / (sxx * syy)


def efficiency_fit(p: float) -> float:
    """Reference linear fit of the measured baseline/low-overhead energy ratio."""
    return 2.33 + 0.00028 * p


def test_fit_helpers():
    assert fit_r_squared([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert fit_r_squared([1, 2, 3, 4], [1, 1, 1, 1]) == pytest.approx(1.0)
    assert fit_r_squared([1, 2, 3, 4], [0, 1, 1, 0]) < 0.5
    assert efficiency_fit(256) == pytest.approx(2.40168)


def _report(number: int, description: str, failures: list, elapsed: float,
            budget: float) -> None:
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number} [{elapsed:.2f}s/<{budget:.0f}s]: {description}")
    assert not failures, "; ".join(str(f) for f in failures)


def _keys(rng: random.Random) -> SessionKeys:
    mic = rng.randbytes(8)
    return SessionKeys(rng.randbytes(16), mic, mic, rng.randbytes(6))


def _config(keys: SessionKeys, mode: str = "tkip", refresh: int = 256,
            threshold: int = 2346) -> SessionConfig:
    return SessionConfig(keys=keys, mode=mode, refresh_interval=refresh,
                         frag_threshold=threshold, sa=SA, da=DA)


# criterion 1 -----------------------------------------------------------------

PUBLISHED_TABLE = {
    16:  (700, 131, 84176, 84176, 3056, 88063, 88063),
    32:  (1400, 259, 168352, 85054, 3280, 173291, 89993),
    48:  (2100, 387, 252528, 85932, 3504, 258519, 91923),
    64:  (2800, 515, 336704, 86810, 3728, 343747, 93853),
    80:  (3500, 643, 420880, 87668, 3952, 428975, 95763),
    96:  (4200, 771, 505056, 88566, 4176, 514203, 97713),
    112: (4900, 899, 589232, 89444, 4400, 599431, 99643),
    128: (5600, 1027, 673408, 90322, 4624, 684659, 101573),
}


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    failures = []
    rows = {row.m: row for row in table1()}
    for m, published in PUBLISHED_TABLE.items():
        mic, crc, km1, km2, rc4, t1, t2 = published
        row = rows[m]
        cells = [("mic", row.mic, mic), ("crc", row.crc, crc),
                 ("keymix_case1", row.keymix_case1, km1),
                 ("rc4", row.rc4, rc4), ("tkip_case1", row.tkip_case1, t1)]
        if m != 80:
            cells += [("keymix_case2", row.keymix_case2, km2),
                      ("tkip_case2", row.tkip_case2, t2)]
        for name, got, want in cells:
            if got != want:
                failures.append(f"m={m} {name}: {got} != {want}")
    # m=80: the formula values are produced, and the divergence is documented
    if (rows[80].keymix_case2, rows[80].tkip_case2) != (87688, 95783):
        failures.append(f"m=80 formula cells wrong: {rows[80]}")
    if not ("87668" in TABLE1_NOTES and "95763" in TABLE1_NOTES
            and "87688" in TABLE1_NOTES):
        failures.append("m=80 divergence not documented in output notes")
    _report(1, "complexity table matches published cells "
               "(m=80 case-2 divergence documented)",
            failures, time.perf_counter() - start, 1.0)


# criterion 2 -----------------------------------------------------------------

def test_criterion_2_energy_anchor():
    start = time.perf_counter()
    failures = []
    cycles = tkip_energy_cycles(256, Case.NO_CACHE)
    if cycles != 1356683:
        failures.append(f"cycle count {cycles} != 1356683")
    energy = tkip_energy(256, Case.NO_CACHE)
    if abs(energy - 26862.3234) > 1e-6:
        failures.append(f"energy {energy} != 26862.3234 uJ")
    if abs(energy / 26804.0 - 1.0) > 0.003:
        failures.append(f"energy {energy} outside 0.3% of 26804 uJ")
    _report(2, "1356683 cycles and 26862.3 uJ at 256 bytes, within 0.3% of "
               "the 26804 uJ measurement", failures,
            time.perf_counter() - start, 1.0)


# criterion 3 -----------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    rng = random.Random(0xACCE55)
    checked = 0
    for i in range(1000):
        key = rng.randbytes(8)
        sa, da = rng.randbytes(6), rng.randbytes(6)
        priority = rng.randrange(256)
        iv = rng.getrandbits(48) if i % 2 else None
        data = rng.randbytes(rng.randrange(256))
        if mic_of(key, sa, da, priority, iv, data) != \
                ref.ref_michael_mic(key, sa, da, priority, iv, data):
            failures.append(f"michael case {i}")
            break
        tk, ta = rng.randbytes(16), rng.randbytes(6)
        tsc_hi, tsc_lo = rng.getrandbits(32), rng.getrandbits(16)
        ttak = phase1_mix(tk, ta, tsc_hi)
        if ttak != ref.ref_phase1(tk, ta, tsc_hi):
            failures.append(f"phase1 case {i}")
            break
        if phase2_mix(ttak, tk, tsc_lo) != ref.ref_phase2(ttak, tk, tsc_lo):
            failures.append(f"phase2 case {i}")
            break
        rc4_key = rng.randbytes(rng.randrange(1, 40))
        payload = rng.randbytes(rng.randrange(256))
        if rc4_apply(rc4_key, payload) != ref.ref_rc4(rc4_key, payload):
            failures.append(f"rc4 case {i}")
            break
        blob = rng.randbytes(rng.randrange(256))
        if crc32_icv(blob) != ref.ref_crc32_bytes(blob):
            failures.append(f"crc case {i}")
            break
        checked += 1
    if checked < 1000:
        failures.append(f"only {checked} cases checked")
    _report(3, "michael/phase1/phase2/rc4/crc byte-exact vs the independent "
               "references on 1000 random inputs each", failures,
            time.perf_counter() - start, 30.0)


# criterion 4 -----------------------------------------------------------------

def _random_msdu(rng: random.Random) -> bytes:
    if rng.random() < 0.75:
        return rng.randbytes(rng.randrange(300))
    return rng.randbytes(rng.randrange(300, 2305))


def test_criterion_4_codec_property_suite():
    start = time.perf_counter()
    failures = []
    rng = random.Random(0xC0DEC)

    # (a) round-trip identity over 10^4 randomized cases
    ok_roundtrips = 0
    cases_per_session = 100
    for group in range(10_000 // cases_per_session):
        keys = _keys(rng)
        mode = "lotkip" if group % 2 else "tkip"
        threshold = rng.randrange(256, 2347)
        refresh = rng.randrange(1, 9)
        config = _config(keys, mode, refresh, threshold)
        sender, receiver = SenderSession(config), ReceiverSession(config)
        for _ in range(cases_per_session):
            msdu = _random_msdu(rng)
            if receiver.open(sender.seal(msdu)) == msdu:
                ok_roundtrips += 1
    if ok_roundtrips != 10_000:
        failures.append(f"round trips: {ok_roundtrips}/10000")

    # (b) 100% detection of single-bit ciphertext corruption
    detected = 0
    corruptions = 1000
    config = _config(_keys(rng))
    sender = SenderSession(config)
    for i in range(corruptions):
        msdu = rng.randbytes(rng.randrange(1, 160))
        frame = sender.seal(msdu)[0]
        bit = rng.randrange(len(frame.body) * 8)
        body = bytearray(frame.body)
        body[bit // 8] ^= 1 << (bit % 8)
        tampered = MpduFrame(frame.layout, frame.key_id, frame.tsc_low,
                             frame.tsc_hi, bytes(body))
        try:
            ReceiverSession(config).open(tampered)
        except (IcvMismatch, MicFailure):
            detected += 1
    if detected != corruptions:
        failures.append(f"corruption detection: {detected}/{corruptions}")

    # (c) replay classification vs brute force over 10^5 random counters
    streams, per_stream = 200, 500
    compared = 0
    for s in range(streams):
        window = ReplayWindow()
        brute = BruteForceWindow()
        value = 0
        for _ in range(per_stream):
            value = max(0, value + rng.randrange(-8, 12))
            if check_then_admit(window, value) is not brute.classify(value):
                failures.append(f"replay divergence in stream {s} at {value}")
                break
            compared += 1
        else:
            continue
        break
    if compared != streams * per_stream:
        failures.append(f"replay comparisons: {compared}/{streams * per_stream}")

    # (d) countermeasures trigger iff two failures are < 60 s apart
    for delta, expect in [(1.0, True), (30.0, True), (59.99, True),
                          (60.0, False), (60.01, False), (600.0, False)]:
        cm = CountermeasureState()
        cm.record_failure(1000.0)
        if cm.record_failure(1000.0 + delta) is not expect:
            failures.append(f"countermeasure at delta={delta}: expected {expect}")
        if expect and cm.blackout_until != 1000.0 + delta + 60.0:
            failures.append(f"blackout end wrong for delta={delta}")

    _report(4, "10^4 round trips, 1000/1000 corruptions detected, 10^5 replay "
               "classifications match brute force, countermeasure timing exact",
            failures, time.perf_counter() - start, 60.0)


# criterion 5 -----------------------------------------------------------------

def test_criterion_5_overhead_accounting():
    start = time.perf_counter()
    failures = []
    rng = random.Random(0x0EAD)
    keys = _keys(rng)

    sender = SenderSession(_config(keys))
    for size in (0, 1, 100, 236):
        frame = sender.seal(bytes(size))[0]
        if len(frame.raw()) - size != 20:
            failures.append(f"baseline overhead at {size}B: "
                            f"{len(frame.raw()) - size}")

    for n, k in [(10, 4), (32, 5), (7, 1), (100, 256), (12, 12)]:
        sender = SenderSession(_config(keys, "lotkip", k))
        frames = [sender.seal(bytes(50))[0] for _ in range(n)]
        n_a = sum(f.layout is FrameLayout.LOTKIP_TYPE_A for f in frames)
        if n_a != math.ceil(n / k):
            failures.append(f"type-A fraction n={n} K={k}: {n_a}/{n}")
        for f in frames:
            want = 20 if f.layout is FrameLayout.LOTKIP_TYPE_A else 16
            if len(f.raw()) - 50 != want:
                failures.append(f"lotkip overhead {len(f.raw()) - 50} != {want}")
                break
    _report(5, "sealed frames carry exactly 20B (baseline/type A) or 16B "
               "(type B); type-A fraction is ceil(n/K)/n", failures,
            time.perf_counter() - start, 10.0)


# criterion 6 -----------------------------------------------------------------

def test_criterion_6_simulation_trends():
    start = time.perf_counter()
    failures = []
    traffic_defaults = dict(packet_sizes=tuple(range(256, 2049, 256)),
                            packets_per_scenario=10_000, scenario_count=100,
                            scheme="both")
    for placement in ("grid", "random"):
        for seed in (1, 2, 3):
            topo = TopologyConfig(placement=placement, seed=seed)
            traffic = TrafficConfig(**traffic_defaults)
            result = run_experiment([topo], traffic)[0]
            sizes = list(result.packet_sizes)
            tag = f"{placement}/seed={seed}"

            for scheme in ("tkip", "lotkip"):
                energies = [result.network_energy(scheme, p) for p in sizes]
                r2 = fit_r_squared(sizes, energies)
                if r2 < 0.99:
                    failures.append(f"{tag} {scheme}: R^2={r2:.4f} < 0.99")

            for p in sizes:
                if not (result.network_energy("lotkip", p)
                        < result.network_energy("tkip", p)):
                    failures.append(f"{tag}: no dominance at P={p}")

            effs = [result.efficiency_factor(p) for p in sizes]
            if not all(a < b for a, b in zip(effs, effs[1:])):
                failures.append(f"{tag}: efficiency not increasing: {effs}")
            for p, eff in zip(sizes, effs):
                fit = efficiency_fit(p)
                if abs(eff / fit - 1.0) > 0.25:
                    failures.append(
                        f"{tag}: efficiency {eff:.3f} at P={p} outside "
                        f"25% of fit {fit:.3f}")
    _report(6, "E(P) linear (R^2>=0.99), low-overhead scheme dominates at "
               "every P/seed, efficiency factor increasing and within 25% "
               "of 2.33+0.00028P", failures, time.perf_counter() - start, 300.0)


# criterion 7 -----------------------------------------------------------------

def test_criterion_7_quasi_udg_soundness():
    start = time.perf_counter()
    failures = []
    cfg = TopologyConfig(placement="random", alpha=0.75, radio_range=120)
    pairs_checked = 0
    violations = 0
    seed = 0
    while pairs_checked < 100_000:
        masks = generate_topology(replace(cfg, seed=seed))
        # the stations generate_topology places, as default_rng(seed) draws them
        positions = np.random.default_rng(seed).uniform(
            (0.0, 0.0), (cfg.area_w, cfg.area_h), size=(cfg.node_count, 2))
        seed += 1
        n = len(masks)
        for i in range(n):
            for j in range(i + 1, n):
                dist = float(np.hypot(*(positions[i] - positions[j])))
                linked = bool(masks[i] >> j & 1)
                if dist > cfg.radio_range and linked:
                    violations += 1
                if dist <= cfg.alpha * cfg.radio_range and not linked:
                    violations += 1
                pairs_checked += 1
    if violations:
        failures.append(f"{violations} deterministic rule violations "
                        f"over {pairs_checked} pairs")

    rng = np.random.default_rng(7)
    r, alpha = 120.0, 0.75
    for k in range(1, 10):
        dist = alpha * r + (k / 10.0) * (r - alpha * r)
        expect = (r - dist) / (r - alpha * r)
        draws = 10_000
        hits = sum(link_decide(dist, r, alpha, rng) for _ in range(draws))
        if abs(hits / draws - expect) > 0.03:
            failures.append(f"band frequency at d={dist:.1f}: "
                            f"{hits / draws:.3f} vs {expect:.3f}")
    _report(7, f"zero deterministic link violations over {pairs_checked} "
               "pairs; band frequencies within 0.03 of the linear rule",
            failures, time.perf_counter() - start, 10.0)
