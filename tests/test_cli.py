"""Command-line interface: every subcommand end to end through main()."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lotkip
from lotkip import cli, cost, netsim
from lotkip.cli import main
from lotkip.codec import (
    LANES_BLOCK_MSDUS,
    LANES_MIN_MSDUS,
    CodecError,
    FrameLayout,
    ProbeEvent,
    ReceiverSession,
    SenderSession,
    container_to_frames,
    frames_to_container,
    msdu_groups,
    parse_session_config,
)

SESSION_TEXT = """
tk = 000102030405060708090a0b0c0d0e0f
mic_key_tx = 0011223344556677
mic_key_rx = 0011223344556677
ta = 105027ab9c4d
mode = {mode}
K = 4
frag_threshold = 256
"""

SCENARIO_TEXT = """
nodes = 16
placement = grid
R = 170
alpha = 0.75
P_list = 256,512
packets = 200
scenarios = 3
scheme = both
seed = 5
"""

# The paper's default scenario: 49 stations, both placements, 100 scenarios.
PAPER_SCENARIO_TEXT = (
    "nodes = 49\narea_w = 500\narea_h = 500\nplacement = both\n"
    "R = 120\nalpha = 0.75\nP_list = 256,512,768,1024,1280,1536,1792,2048\n"
    "packets = 10000\nscenarios = 100\nscheme = both\nK = 256\n"
    "ack = off\nseed = 1\n")
PAPER_SIM_SHA256 = "fa253d684b4a677c7dfaffee19a4cb6e0f018bdc0cdef30389dd126c646c8135"
# SHA-256 of every per-node series of that scenario, as little-endian doubles
PAPER_PER_NODE_SHA256 = "b3ff8f85ed3752975fcc9d1135df313695feab07f4d8d2bbfd7454c0f10e12b2"


@pytest.fixture
def session_file(tmp_path):
    def write(mode="tkip"):
        path = tmp_path / f"session-{mode}.cfg"
        path.write_text(SESSION_TEXT.format(mode=mode))
        return str(path)
    return write


TABLE1_SHA256 = "ea72a7b0daa690082244adfbf052debc26bced2d09bcf66bd484f06a3e66ca49"


def test_table1_writes_golden_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table1", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,mic,crc,keymix_case1,keymix_case2,rc4,tkip_case1,tkip_case2"
    assert len(lines) == 9
    assert lines[1].split(",")[6] == "88063"
    err = capsys.readouterr().err
    assert "87668" in err            # the m=80 note is part of every run
    first = out.read_bytes()
    assert hashlib.sha256(first).hexdigest() == TABLE1_SHA256
    assert main(["table1", "--csv", str(out)]) == 0
    assert out.read_bytes() == first


def test_table1_stdout(capsys):
    assert main(["table1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("m,mic,")
    assert "88063" in captured.out


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_seal_open_round_trip(tmp_path, session_file, mode):
    payload = tmp_path / "payload.bin"
    payload.write_bytes(random.Random(4).randbytes(1024))
    sealed = tmp_path / "sealed.bin"
    opened = tmp_path / "opened.bin"
    cfg = session_file(mode)
    assert main(["seal", "--config", cfg, "--in", str(payload),
                 "--out", str(sealed), "--msdu-bytes", "100"]) == 0
    assert main(["open", "--config", cfg, "--in", str(sealed),
                 "--out", str(opened)]) == 0
    assert opened.read_bytes() == payload.read_bytes()


# SHA-256 of 20 full MSDUs sealed by `lotkip seal` at the default K and
# fragmentation threshold
LANES_SEALED_SHA256 = {
    "tkip": "3385348979c2448a9d0c65841492041332970534a178f50887217c3125c9e271",
    "lotkip": "d904581d3a456a0b7a0f793185a1eff32753625aee694fa30371517cf09a16ee",
}


@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_lanes_sealed_file_is_pinned(tmp_path, mode):
    # 20 MSDUs seal and open in lanes; a lane kernel that erred the same way
    # on both sides would still round-trip, so the sealed bytes are pinned
    data = random.Random(1).randbytes(20 * 2304)
    assert len(data) // 2304 >= LANES_MIN_MSDUS
    cfg = tmp_path / "session.cfg"
    cfg.write_text("tk = 000102030405060708090a0b0c0d0e0f\n"
                   "mic_key_tx = 0011223344556677\nmic_key_rx = 0011223344556677\n"
                   f"ta = 10:50:27:ab:9c:4d\nmode = {mode}\n")
    payload, sealed, opened = (tmp_path / name for name in ("p.bin", "s.bin", "o.bin"))
    payload.write_bytes(data)
    assert main(["seal", "--config", str(cfg), "--in", str(payload),
                 "--out", str(sealed)]) == 0
    assert main(["open", "--config", str(cfg), "--in", str(sealed),
                 "--out", str(opened)]) == 0
    assert opened.read_bytes() == data
    assert hashlib.sha256(sealed.read_bytes()).hexdigest() == LANES_SEALED_SHA256[mode]


def test_one_config_seals_one_stream(tmp_path, session_file, capsys):
    # every seal starts at packet counter 0, so two files sealed with one
    # config share their keystreams, as `seal --help` warns
    cfg = session_file("lotkip")
    rng = random.Random(8)
    plains = [rng.randbytes(200), rng.randbytes(200)]
    bodies = []
    for n, data in enumerate(plains):
        payload, sealed = tmp_path / f"p{n}.bin", tmp_path / f"s{n}.bin"
        payload.write_bytes(data)
        assert main(["seal", "--config", cfg, "--in", str(payload),
                     "--out", str(sealed)]) == 0
        bodies.append(container_to_frames(sealed.read_bytes())[0].body)
    assert bytes(a ^ b for a, b in zip(*bodies))[:200] == \
        bytes(a ^ b for a, b in zip(*plains))
    with pytest.raises(SystemExit) as exit_:
        main(["seal", "--help"])
    assert exit_.value.code == 0
    assert "one config seals one stream" in " ".join(capsys.readouterr().out.split())


def test_open_names_failed_check(tmp_path, session_file, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"A" * 64)
    sealed = tmp_path / "s.bin"
    cfg = session_file("tkip")
    assert main(["seal", "--config", cfg, "--in", str(payload),
                 "--out", str(sealed)]) == 0
    blob = bytearray(sealed.read_bytes())
    blob[4 + 8 + 10] ^= 0x40                 # flip a ciphertext bit
    sealed.write_bytes(bytes(blob))
    out = tmp_path / "o.bin"
    assert main(["open", "--config", cfg, "--in", str(sealed),
                 "--out", str(out)]) == 1
    assert "IcvMismatch" in capsys.readouterr().err


def test_open_rejects_empty_container(tmp_path, session_file, capsys):
    # seal writes one frame for an empty payload, so no container is empty
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "o.bin"
    assert main(["open", "--config", session_file("tkip"), "--in", str(empty),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "MalformedFrame: empty container"
    assert not out.exists()


def test_open_takes_a_probe_as_its_own_group(tmp_path, session_file):
    # a probe is a group of its own, since its more-fragments bit is clear;
    # grouped with the next frame, it would spoil that MSDU
    data = random.Random(3).randbytes(6 * 300)
    msdus = [data[k:k + 300] for k in range(0, len(data), 300)]
    sender = SenderSession(parse_session_config(SESSION_TEXT.format(mode="lotkip")))
    groups = sender.seal_many(msdus[:3])
    sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
    groups.append([sender.make_probe()])
    sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    groups += sender.seal_many(msdus[3:])
    assert [len(g) for g in groups] == [2, 2, 2, 1, 2, 2, 2]
    assert groups[3][0].layout is FrameLayout.PROBE
    sealed, out = tmp_path / "s.bin", tmp_path / "o.bin"
    sealed.write_bytes(frames_to_container(f for g in groups for f in g))
    assert main(["open", "--config", session_file("lotkip"), "--in", str(sealed),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == data


def _mutate(rng: random.Random, container: bytes) -> tuple[str, bytes]:
    """One seeded mutation of a sealed container: its kind and the result."""
    records, pos = [], 0
    while pos < len(container):
        end = pos + 4 + (int.from_bytes(container[pos:pos + 4], "big") & 0xFFFFFF)
        records.append(container[pos:end])
        pos = end
    kind = rng.choice(("bit", "record_bit", "truncate", "bytes",
                       "drop", "duplicate", "swap"))
    data = bytearray(container)
    i, j = rng.randrange(len(records)), rng.randrange(len(records))
    if kind == "bit":
        bit = rng.randrange(8 * len(data))
        data[bit // 8] ^= 1 << bit % 8
    elif kind == "record_bit":
        # the prefix's top byte: reserved, more-fragments and fragment bits
        data[sum(map(len, records[:i]))] ^= 1 << rng.randrange(8)
    elif kind == "truncate":
        del data[rng.randrange(len(data)):]
    elif kind == "bytes":
        at = rng.randrange(len(data))
        run = len(data[at:at + rng.randint(1, 16)])
        data[at:at + run] = rng.randbytes(run)
    else:
        if kind == "drop":
            del records[i]
        elif kind == "duplicate":
            records.insert(j, records[i])
        else:
            records[i], records[j] = records[j], records[i]
        data = b"".join(records)
    return kind, bytes(data)


@pytest.mark.parametrize("frag_threshold", [256, 2346])
@pytest.mark.parametrize("mode", ["tkip", "lotkip"])
def test_mutated_containers_open_only_sent_msdus(tmp_path, capsys, mode,
                                                  frag_threshold):
    # a damaged container raises only CodecError subclasses, and every MSDU
    # that opens was sent; a lost, repeated or reordered record never
    # reaches Michael, and `lotkip open` fails with one `Name: message` line
    rng = random.Random(f"mutate:{mode}:{frag_threshold}")
    text = SESSION_TEXT.format(mode=mode).replace(
        "frag_threshold = 256", f"frag_threshold = {frag_threshold}")
    cfg = parse_session_config(text)
    msdus = [rng.randbytes(rng.choice((0, 1, 300, 700))) for _ in range(8)]
    sender = SenderSession(cfg)
    groups = sender.seal_many(msdus[:4])
    if mode == "lotkip":
        sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
        groups.append([sender.make_probe()])
        sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    groups += sender.seal_many(msdus[4:])
    container = frames_to_container(f for g in groups for f in g)
    config_path = tmp_path / "session.cfg"
    config_path.write_text(text)
    sealed, out = tmp_path / "s.bin", tmp_path / "o.bin"
    opened = 0
    for n in range(300):
        kind, data = _mutate(rng, container)
        receiver = ReceiverSession(cfg)
        try:
            frames = container_to_frames(data)
        except CodecError:
            frames = []
        for group in msdu_groups(frames):
            try:
                msdu = receiver.open(group)
            except CodecError:
                continue
            assert msdu is None or msdu in msdus, kind
            opened += msdu is not None
        if kind in ("drop", "duplicate", "swap"):
            assert receiver.cm_state.last_failure is None, kind
        if n % 50 == 0:
            sealed.write_bytes(data)
            out.unlink(missing_ok=True)
            code = main(["open", "--config", str(config_path), "--in", str(sealed),
                         "--out", str(out)])
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("lotkip open: ") and len(err) == 2
            if code == 1:
                assert re.fullmatch(r"[A-Z]\w+: .+", err[1]), err[1]
                assert not out.exists()
            else:
                assert code == 0 and err[1].startswith("recovered ")
    assert opened > 300 * len(msdus) // 2


def test_lotkip_seal_refresh_fraction(tmp_path, session_file):
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(1000))
    sealed = tmp_path / "s.bin"
    assert main(["seal", "--config", session_file("lotkip"), "--in", str(payload),
                 "--out", str(sealed), "--msdu-bytes", "100"]) == 0
    frames = container_to_frames(sealed.read_bytes())
    assert len(frames) == 10
    a_idx = [i for i, f in enumerate(frames)
             if f.layout is FrameLayout.LOTKIP_TYPE_A]
    assert a_idx == [0, 4, 8]


def test_mode_override(tmp_path, session_file):
    # the session file alone sets the mode; no flag overrides it
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"override me")
    sealed = tmp_path / "s.bin"
    cfg = session_file("lotkip")
    assert main(["seal", "--config", cfg, "--in", str(payload),
                 "--out", str(sealed)]) == 0
    frames = container_to_frames(sealed.read_bytes())
    assert frames[0].layout is FrameLayout.LOTKIP_TYPE_A


def test_energy_command(capsys):
    assert main(["energy", "--m", "256", "--case", "1"]) == 0
    assert capsys.readouterr().out == "cycles=1356683\ncompute_uJ=26862.3234\n"
    assert main(["energy", "--m", "32", "--case", "2", "--subsequent",
                 "--frame-bytes", "276"]) == 0
    out = capsys.readouterr().out
    assert "cycles=59458" in out
    assert "tx_uJ=563.4800" in out


@pytest.mark.parametrize("flags, err", [
    (["--m", "0"],
     ["lotkip energy: m=0 case=1 first_packet=True frame_bytes=None",
      "ValueError: m must be at least 1"]),
    (["--m", "16", "--frame-bytes", "-1"],
     ["lotkip energy: m=16 case=1 first_packet=True frame_bytes=-1",
      "ValueError: size must be non-negative"]),
    # the first-packet value is the only one case 1 has
    (["--m", "64", "--case", "1", "--subsequent"],
     ["lotkip energy: m=64 case=1 first_packet=False frame_bytes=None",
      "ValueError: --subsequent applies only to --case 2"]),
], ids=["m-0", "frame-bytes-neg", "subsequent-case-1"])
def test_energy_rejects_bad_m(capsys, flags, err):
    # the settings line comes first, as in every subcommand, then the
    # error; every value is checked before anything goes to stdout
    assert main(["energy", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == err


@pytest.mark.parametrize("flags", [
    ["--m", str(10 ** 400)],
    ["--m", "16", "--frame-bytes", str(10 ** 400)],
], ids=["m", "frame-bytes"])
def test_energy_rejects_ints_too_large_for_a_float(capsys, flags):
    assert main(["energy", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith("lotkip energy: ")
    assert err[1].startswith("OverflowError: ")


def test_energy_accepts_the_largest_cycle_counts(capsys):
    # a cycle count that converts to a float stays finite at 0.0198 uJ each
    assert main(["energy", "--m", str(3 * 10 ** 304)]) == 0
    lines = capsys.readouterr().out.splitlines()
    compute = [line for line in lines if line.startswith("compute_uJ=")]
    assert len(compute) == 1
    assert math.isfinite(float(compute[0].split("=")[1]))


def test_sim_csv(tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT)
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2           # 2 P x 2 schemes x 1 placement
    first = out.read_bytes()
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    assert out.read_bytes() == first


def test_sim_paper_scenario_csv_is_pinned(tmp_path):
    # sim CSVs are a contract: the same seed gives the same bytes
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(PAPER_SCENARIO_TEXT)
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out),
                 "--seed", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_SIM_SHA256


def test_sim_seed_flag_overrides_file_seed(tmp_path):
    # --seed replaces the file's seed for both streams of every scenario,
    # the topology's and the pair's, so seed 5 in the file changes nothing
    scenario = tmp_path / "scenario.cfg"
    text = PAPER_SCENARIO_TEXT.replace("seed = 1", "seed = 5")
    assert text.endswith("seed = 5\n")
    scenario.write_text(text)
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out),
                 "--seed", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_SIM_SHA256


def test_sim_paper_scenario_per_node_energy_is_pinned():
    # the CSV sums each series over the nodes, so only the per-node series
    # depend on which relays carry a route: on `route`'s tie-break
    topo_cfgs, traffic = netsim.parse_scenario_config(PAPER_SCENARIO_TEXT)
    assert topo_cfgs[0].seed == 1
    digest = hashlib.sha256()
    for result in netsim.run_experiment(topo_cfgs, traffic):
        per_node_j = result.per_node_j
        for key in sorted(per_node_j):
            digest.update(per_node_j[key].astype("<f8").tobytes())
    assert digest.hexdigest() == PAPER_PER_NODE_SHA256


# Scenarios the paper's default leaves out: acks over relays, K = 1 and
# K = 999, an epoch crossing (over 65 536 packets), one packet per
# scenario, single schemes, and n = 30 to 400.
WIDE_SIM_SCENARIOS = (
    "placement = both\nack = on\nK = 3\nscenarios = 20\n",
    "nodes = 50\nplacement = random\nalpha = 1\nscheme = tkip\npackets = 1\n"
    "scenarios = 20\n",
    "nodes = 400\nplacement = random\nalpha = 0\npackets = 70000\nK = 999\n"
    "scenarios = 5\narea_w = 2000\narea_h = 2000\nack = on\n",
    "nodes = 30\nplacement = grid\nP_list = 256,300,2312\npackets = 65537\n"
    "K = 1\nack = on\nscenarios = 20\nscheme = lotkip\n",
)
WIDE_SIM_SHA256 = "b4c9cb8770f682ce6aee9c7022a45a7eb574733ba84468460f1db44be3052ab3"


def test_sim_wide_scenarios_csv_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for text in WIDE_SIM_SCENARIOS:
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(text)
        out = tmp_path / "sim.csv"
        assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == WIDE_SIM_SHA256


@pytest.mark.parametrize("text", [PAPER_SCENARIO_TEXT, *WIDE_SIM_SCENARIOS],
                         ids=["paper", *(f"wide-{k}" for k in range(len(WIDE_SIM_SCENARIOS)))])
def test_sim_csv_rows_follow_role_model(tmp_path, text):
    # Each route costs its source a, each relay b and its sink c
    # (`_role_rates`, in microjoules), so with R relays over S scenarios every
    # row is a closed form: network energy (a + c + b*R/S) * 1e-6 J, per-node
    # energy that over n, and the factor TKIP's over LOTKIP's network energy
    scenario, out = tmp_path / "scenario.cfg", tmp_path / "sim.csv"
    scenario.write_text(text)
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    topo_cfgs, traffic = netsim.parse_scenario_config(text)
    n, count = topo_cfgs[0].node_count, traffic.scenario_count
    relays, scenarios = {}, {}
    for k, _, path in netsim._routes(topo_cfgs, traffic):
        placement = topo_cfgs[k].placement
        relays[placement] = relays.get(placement, 0) + len(path) - 2
        scenarios[placement] = scenarios.get(placement, 0) + 1
    assert scenarios == {cfg.placement: count for cfg in topo_cfgs}

    def network(scheme, p, placement):
        a, b, c = netsim._role_rates(scheme, p, traffic)
        return (a + c + b * relays[placement] / count) * 1e-6

    lines = out.read_text().splitlines()
    assert lines[0] == netsim.SERIES_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(traffic.packet_sizes) * len(traffic.schemes) * len(topo_cfgs)
    for p, scheme, placement, network_j, per_node_j, factor in rows:
        p = int(p)
        expected = network(scheme, p, placement)
        # the CSV prints six decimals
        assert float(network_j) == pytest.approx(expected, abs=1e-6)
        assert float(per_node_j) == pytest.approx(expected / n, abs=1e-6)
        if len(traffic.schemes) == 1:
            assert factor == ""
        else:
            assert float(factor) == pytest.approx(
                network("tkip", p, placement) / network("lotkip", p, placement), abs=1e-6)


# SHA-256 of the sealed corpus below: sealed container bytes are a contract.
SEALED_CORPUS_SHA256 = "18668932110b00cc594a1a01584c4dabc589c9b1712545c634ff88c46257f1b5"


def _library_corpus(mode: str) -> bytes:
    """Containers of 40 MSDUs sealed across counter 0xFFFF -> 0x10000 with
    a probe and resume halfway, each checked to open again."""
    rng = random.Random(f"corpus:{mode}")
    cfg = parse_session_config(SESSION_TEXT.format(mode=mode))
    sender, receiver = SenderSession(cfg), ReceiverSession(cfg)
    sender.next_tsc = 0xFFFF - 30
    msdus = [rng.randbytes(rng.choice((0, 1, 255, 700, 2304))) for _ in range(40)]
    # Michael in lanes: both seal_many calls and the open_many below, each
    # one block of at least LANES_MIN_MSDUS; the seals between are scalar
    first = msdus[:20]
    assert len(first) >= LANES_MIN_MSDUS
    groups = sender.seal_many(first)
    if mode == "lotkip":
        sender.probe_cycle(ProbeEvent.ACK_TIMEOUT)
        groups.append([sender.make_probe()])
        sender.probe_cycle(ProbeEvent.ACK_RECEIVED)
    groups += [sender.seal(m) for m in msdus[20:25]] + sender.seal_many(msdus[25:])
    assert sender.next_tsc > 0x10000
    assert LANES_MIN_MSDUS <= len(groups) <= LANES_BLOCK_MSDUS
    assert [m for m in receiver.open_many(groups) if m is not None] == msdus
    return frames_to_container(f for g in groups for f in g)


def test_sealed_corpus_is_pinned(tmp_path):
    # both modes x fragmentation thresholds x K, over files of 0, 1 and
    # ~7 000 bytes and one of 11 MSDUs; the files of 0 and 1 byte seal their
    # Michael tags on the scalar path, those of 4 and 11 MSDUs in lanes
    rng = random.Random(6)
    payloads = {"empty": b"", "one": b"\x5a", "small": rng.randbytes(6929),
                "lanes": rng.randbytes(10 * 2304 + 1960)}
    digest = hashlib.sha256()
    for mode in ("tkip", "lotkip"):
        for frag_threshold in (256, 1024, 2346):
            for k in (1, 3, 256):
                cfg = tmp_path / "session.cfg"
                cfg.write_text(SESSION_TEXT.format(mode=mode).replace(
                    "K = 4", f"K = {k}").replace(
                    "frag_threshold = 256", f"frag_threshold = {frag_threshold}"))
                for name, data in payloads.items():
                    payload, sealed = tmp_path / f"{name}.bin", tmp_path / "s.bin"
                    payload.write_bytes(data)
                    assert main(["seal", "--config", str(cfg), "--in", str(payload),
                                 "--out", str(sealed)]) == 0
                    digest.update(sealed.read_bytes())
        digest.update(_library_corpus(mode))
    assert digest.hexdigest() == SEALED_CORPUS_SHA256


def test_sim_scheme_override_doubles_rows(tmp_path):
    # the scenario file alone sets the scheme; no flag overrides it
    scenario = tmp_path / "scenario.cfg"
    out = tmp_path / "sim.csv"
    scenario.write_text(SCENARIO_TEXT.replace("scheme = both", "scheme = lotkip"))
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    single = len(out.read_text().strip().splitlines())
    scenario.write_text(SCENARIO_TEXT)
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    both = len(out.read_text().strip().splitlines())
    assert both - 1 == 2 * (single - 1)


def test_sim_placement_override(tmp_path):
    # the scenario file alone sets the placement; no flag overrides it
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT.replace("placement = grid", "placement = both"))
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert {r.split(",")[2] for r in rows} == {"grid", "random"}


def test_sim_rejects_bad_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("martians = 4")
    assert main(["sim", "--scenario", str(scenario), "--csv", "-"]) == 1
    assert "ScenarioError" in capsys.readouterr().err


def test_sim_rejects_infinite_radio_range(tmp_path, capsys):
    # (R - d) / (R - alpha*R) would be NaN for every pair, so none would link
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("nodes = 9\nR = inf\nalpha = 0\nscenarios = 3\n")
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["ScenarioError: invalid scenario config: "
                   "radio_range must be positive and finite"]


def test_sim_names_the_scenario_without_a_linked_pair(tmp_path, capsys):
    # two stations up to 141 m apart with R = 120: scenarios 0-12 of seed 1
    # draw a linked pair, and scenario 13 finds none in its bounded draws
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("nodes = 2\narea_w = 100\narea_h = 100\nplacement = random\n"
                        "R = 120\nalpha = 0.75\nscenarios = 20\nseed = 1\n")
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 1
    assert not out.exists()
    # the resolved settings, then the error on one line
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == ["ScenarioError: scenario 13 (random placement, seed 1): "
                       "no connected node pair found after bounded resampling"]


@pytest.mark.parametrize("p_list", [",", "256,,512", "256,256"],
                         ids=["empty", "empty-item", "repeated"])
def test_sim_rejects_bad_packet_sizes(tmp_path, capsys, p_list):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT.replace("P_list = 256,512", f"P_list = {p_list}"))
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScenarioError: ")


@pytest.mark.parametrize("line, args, error", [
    ("seed = -1", [], "ScenarioError: invalid scenario config: seed must be"),
    ("", ["--seed", "-5"], "ValueError: seed must be"),
    ("nodes = 49", [], "ScenarioError: config line 11: nodes is already set"),
], ids=["file-seed", "flag-seed", "repeated-key"])
def test_sim_rejects_bad_seed_and_repeated_key(tmp_path, capsys, line, args, error):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT.replace("seed = 5", "") + line + "\n")
    out = tmp_path / "sim.csv"
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out), *args]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(error)


def _fresh_env(**extra):
    """This environment, with `extra` set and this lotkip first on the path."""
    src = str(Path(lotkip.__file__).resolve().parent.parent)
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(code, *args):
    """Last stdout line of `code` run in a new interpreter that imports
    this lotkip."""
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                            env=_fresh_env(), capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


def test_cli_import_leaves_oracle_cost_and_libcrypto_unloaded():
    # lotkip.reference is a test oracle, RC4 binds libcrypto through ctypes
    # on its first call, and only table1, energy and sim need the cost
    # model: none of them belongs in the import cost of every lotkip process
    probe = ("import sys, lotkip.cli; print(' '.join(m for m in "
             "('lotkip.reference', 'lotkip.cost', "
             "'lotkip.crypto.libcrypto', 'ctypes') if m in sys.modules))")
    assert _fresh_python(probe) == ""


# Runs `lotkip.cli.main` on each argument list of the JSON in argv[1], then
# prints whether numpy was loaded after the import and after each run.
NUMPY_PROBE = """
import json, sys
import lotkip, lotkip.cli
loaded = ["numpy" in sys.modules]
for args in json.loads(sys.argv[1]):
    assert lotkip.cli.main(args) == 0, args
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_the_simulator(tmp_path, session_file):
    # table1, energy, and seal/open in both modes, with Michael on the
    # scalar path, in lanes and over two blocks, never load numpy; `sim` does
    def seal_open(mode, msdus):
        payload = tmp_path / f"{mode}-{msdus}.bin"
        payload.write_bytes(random.Random(msdus).randbytes(100 * msdus))
        cfg = ["--config", session_file(mode)]
        return [["seal", *cfg, "--msdu-bytes", "100", "--in", str(payload),
                 "--out", f"{payload}.s"],
                ["open", *cfg, "--in", f"{payload}.s", "--out", f"{payload}.o"]]

    runs = [["table1", "--csv", str(tmp_path / "t.csv")],
            ["energy", "--m", "256", "--frame-bytes", "276"]]
    for mode in ("tkip", "lotkip"):
        for msdus in (1, LANES_MIN_MSDUS, LANES_BLOCK_MSDUS + 1):
            runs += seal_open(mode, msdus)
    loaded = json.loads(_fresh_python(NUMPY_PROBE, json.dumps(runs)))
    assert loaded == [False] * (1 + len(runs))

    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT.replace("scenarios = 3", "scenarios = 2"))
    sim = [["sim", "--scenario", str(scenario), "--csv", str(tmp_path / "s.csv")]]
    assert json.loads(_fresh_python(NUMPY_PROBE, json.dumps(sim))) == [False, True]

    # __all__ still names netsim, so a star import loads and binds it
    assert _fresh_python("from lotkip import *; print(netsim.__name__)") \
        == "lotkip.netsim"


def test_unknown_flags_rejected(tmp_path, session_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x")
    for command, msdu_bytes in (("seal", "0"), ("seal", "-5"), ("seal", "2305"),
                                ("seal", "abc"), ("open", "100")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", session_file(), "--in", str(payload),
                  "--out", str(tmp_path / "o.bin"), "--msdu-bytes", msdu_bytes])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "_msdu_bytes" not in err
    # open reads where each MSDU ends from the container's records
    assert "unrecognized arguments: --msdu-bytes 100" in err
    # the session file sets the mode, the scenario file the scheme and
    # placement, and the cycle energy is the constant cost.CYCLE_ENERGY_UJ
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT)
    for args in (
            ["seal", "--config", session_file(), "--in", str(payload),
             "--out", str(tmp_path / "o.bin"), "--mode", "lotkip"],
            ["open", "--config", session_file(), "--in", str(payload),
             "--out", str(tmp_path / "o.bin"), "--mode", "tkip"],
            ["energy", "--m", "16", "--cycle-energy", "0.02"],
            ["sim", "--scenario", str(scenario), "--scheme", "tkip"],
            ["sim", "--scenario", str(scenario), "--placement", "both"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    # main builds its parser once; a rejected flag leaves it as it was, and
    # each subcommand runs the cmd_ handler the module holds at the call
    assert cli.build_parser() is cli.build_parser()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--scenario", str(scenario), "--bogus"])
    assert exc.value.code == 2
    table = tmp_path / "table.csv"
    assert main(["table1", "--csv", str(table)]) == 0
    assert table.read_text() == cost.table1_csv()
    out = tmp_path / "sim.csv"
    capsys.readouterr()
    assert main(["sim", "--scenario", str(scenario), "--csv", str(out),
                 "--seed", "9"]) == 0
    assert f"csv={out} " in capsys.readouterr().err
    topo_cfgs, traffic = netsim.parse_scenario_config(
        SCENARIO_TEXT.replace("seed = 5", "seed = 9"))
    assert out.read_text() == netsim.emit_series(
        netsim.run_experiment(topo_cfgs, traffic))
    monkeypatch.setattr(cli, "cmd_energy", lambda args: 7 + args.m)
    assert main(["energy", "--m", "16"]) == 23


@pytest.mark.parametrize("line", ["k = 5", "K = x", "key_id = 7", "priority = 300",
                                  "K = 9"])
def test_seal_rejects_bad_session_config(tmp_path, session_file, capsys, line):
    cfg = Path(session_file())
    cfg.write_text(cfg.read_text() + line + "\n")
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"payload")
    assert main(["seal", "--config", str(cfg), "--in", str(payload),
                 "--out", str(tmp_path / "s.bin")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("CodecError: ")


@pytest.mark.parametrize("command", ["seal", "open"])
def test_non_utf8_config_exits_with_one_line(tmp_path, session_file, capsys,
                                             command):
    cfg = Path(session_file())
    cfg.write_bytes(b"# \xff\xfe\n" + cfg.read_bytes())
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"payload")
    assert main([command, "--config", str(cfg), "--in", str(payload),
                 "--out", str(tmp_path / "o.bin")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("UnicodeDecodeError: ")


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, Python's default text encoding
    # is ASCII; the config and scenario files are UTF-8 all the same
    cfg = tmp_path / "session.cfg"
    cfg.write_text("# caf\u00e9\n" + SESSION_TEXT.format(mode="lotkip"), encoding="utf-8")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("# caf\u00e9\n" + SCENARIO_TEXT, encoding="utf-8")
    payload = tmp_path / "p.bin"
    payload.write_bytes(random.Random(3).randbytes(700))
    env = _fresh_env(LC_ALL="C", PYTHONUTF8="0")

    def lotkip(*args):
        subprocess.run([sys.executable, "-m", "lotkip.cli", *map(str, args)],
                       env=env, capture_output=True, check=True)

    lotkip("seal", "--config", cfg, "--in", payload, "--out", tmp_path / "s.bin")
    lotkip("open", "--config", cfg, "--in", tmp_path / "s.bin", "--out", tmp_path / "o.bin")
    assert (tmp_path / "o.bin").read_bytes() == payload.read_bytes()
    lotkip("sim", "--scenario", scenario, "--csv", tmp_path / "sim.csv")
    assert (tmp_path / "sim.csv").read_text().startswith("P,scheme,")


@pytest.mark.parametrize("args", [
    ["table1", "--csv", "{tmp}/missing/t.csv"],
    ["seal", "--config", "{tmp}/nope.cfg", "--in", "x", "--out", "y"],
    ["open", "--config", "{tmp}/nope.cfg", "--in", "x", "--out", "y"],
    ["sim", "--scenario", "{tmp}/nope.cfg"],
], ids=["table1", "seal", "open", "sim"])
def test_missing_files_exit_nonzero(tmp_path, capsys, args):
    # every subcommand fails through main's one error boundary
    assert main([arg.format(tmp=tmp_path) for arg in args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("FileNotFoundError: ")


@pytest.mark.parametrize("command", ["table1", "seal", "open", "sim"])
def test_output_directory_is_checked_before_any_work(tmp_path, session_file,
                                                     capsys, monkeypatch, command):
    # seal's and open's input file is missing too, and sim's run_experiment
    # would fail, but an output path that is a directory, or whose
    # directory is missing, fails first
    def never(*args):
        raise AssertionError("run_experiment ran")
    monkeypatch.setattr(netsim, "run_experiment", never)
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT)
    existing = tmp_path / "existing"
    existing.mkdir()
    missing = tmp_path / "missing" / "out"
    for out, message in (
            (missing, "FileNotFoundError: [Errno 2] no such output directory: "
                      f"'{missing.parent}'"),
            (existing, f"IsADirectoryError: [Errno 21] output is a directory: "
                       f"'{existing}'")):
        args = {"table1": ["--csv", str(out)],
                "sim": ["--scenario", str(scenario), "--csv", str(out)]}.get(
            command, ["--config", session_file(), "--in",
                      str(tmp_path / "absent.bin"), "--out", str(out)])
        assert main([command, *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"lotkip {command}: ")
        assert err[1:] == [message]
    assert not missing.parent.exists()
    assert not any(existing.iterdir())
