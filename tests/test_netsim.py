"""Network simulator: link rule, topology generation, routing, per-packet
energy composition, and experiment determinism/aggregation."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from lotkip import netsim
from lotkip.codec import FrameLayout, lotkip_frame_classes
from lotkip.cost import Case, rx_energy, tkip_energy, tx_energy
from lotkip.netsim import (
    DEFAULT_PACKET_SIZES,
    MAC_OVERHEAD_BYTES,
    TOPOLOGY_PAIR_BUDGET,
    ScenarioError,
    Topology,
    TopologyConfig,
    TrafficConfig,
    emit_series,
    frame_bytes,
    generate_topology,
    link_decide,
    packet_energy,
    parse_scenario_config,
    route,
    run_experiment,
)


def test_topology_config_validation():
    with pytest.raises(ValueError):
        TopologyConfig(node_count=1)
    with pytest.raises(ValueError):
        TopologyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TopologyConfig(placement="ring")
    with pytest.raises(ValueError):
        TopologyConfig(radio_range=0)
    with pytest.raises(ValueError):
        TopologyConfig(radio_range=math.nan)
    for area in (dict(area_w=-5.0), dict(area_w=0.0), dict(area_h=-1.0),
                 dict(area_h=0.0), dict(area_w=math.inf), dict(area_h=math.nan)):
        with pytest.raises(ValueError, match="area_w and area_h"):
            TopologyConfig(**area)
    for seed in (-1, (1, -2, 0), 1.5):
        with pytest.raises(ValueError, match="seed"):
            TopologyConfig(seed=seed)


def test_traffic_config_validation():
    with pytest.raises(ValueError):
        TrafficConfig(packet_sizes=(128,))
    with pytest.raises(ValueError):
        TrafficConfig(packet_sizes=(2400,))
    with pytest.raises(ValueError, match="empty"):
        TrafficConfig(packet_sizes=())
    with pytest.raises(ValueError, match="repeat"):
        TrafficConfig(packet_sizes=(256, 512, 256))
    with pytest.raises(ValueError):
        TrafficConfig(scheme="wep")
    with pytest.raises(ValueError, match="seed"):
        TrafficConfig(seed=-1)
    assert TrafficConfig().schemes == ("tkip", "lotkip")
    assert TrafficConfig(scheme="lotkip").schemes == ("lotkip",)


def test_link_decide_deterministic_zones():
    rng = np.random.default_rng(0)
    assert link_decide(0.0, 100, 0.5, rng) is True
    assert link_decide(50.0, 100, 0.5, rng) is True       # == alpha*R
    assert link_decide(200.0, 100, 0.5, rng) is False     # == 2R
    assert link_decide(100.1, 100, 0.5, rng) is False
    with pytest.raises(ValueError):
        link_decide(-1.0, 100, 0.5, rng)


def test_link_decide_alpha_one_is_unit_disk():
    rng = np.random.default_rng(0)
    for dist in (0.0, 50.0, 99.9, 100.0, 100.1, 150.0):
        assert link_decide(dist, 100, 1.0, rng) is (dist <= 100)


def test_link_decide_band_probability():
    rng = np.random.default_rng(42)
    hits = sum(link_decide(75.0, 100, 0.5, rng) for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.03


def test_topology_deterministic_and_symmetric():
    cfg = TopologyConfig(placement="random", seed=11)
    a = generate_topology(cfg)
    b = generate_topology(cfg)
    assert np.array_equal(a.positions, b.positions)
    assert a.neighbors == b.neighbors
    for i, nbrs in enumerate(a.neighbors):
        assert i not in nbrs
        for j in nbrs:
            assert i in a.neighbors[j]


def _loop_topology(cfg):
    """The scalar rule pair by pair: `link_decide` over i<j in row-major
    order, from a generator seeded as `generate_topology` seeds its own."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.placement == "grid":
        side = math.isqrt(cfg.node_count)
        if side * side < cfg.node_count:
            side += 1
        xs = np.linspace(0.0, cfg.area_w, side)
        ys = np.linspace(0.0, cfg.area_h, side)
        positions = np.asarray([(xs[k % side], ys[k // side])
                                for k in range(cfg.node_count)], dtype=float)
    else:
        positions = rng.uniform((0.0, 0.0), (cfg.area_w, cfg.area_h),
                                size=(cfg.node_count, 2))
    n = cfg.node_count
    neighbors = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.hypot(*(positions[i] - positions[j])))
            if link_decide(dist, cfg.radio_range, cfg.alpha, rng):
                neighbors[i].append(j)
                neighbors[j].append(i)
    return positions, neighbors


@pytest.mark.parametrize("placement", ["grid", "random"])
@pytest.mark.parametrize("n", [2, 3, 49, 50, 400])
@pytest.mark.parametrize("alpha", [0.0, 0.75, 1.0])
def test_topology_matches_scalar_link_rule(placement, n, alpha):
    # alpha = 1 leaves the band empty (and its probability denominator 0)
    for seed in range(3):
        cfg = TopologyConfig(node_count=n, placement=placement, alpha=alpha,
                             seed=seed)
        positions, neighbors = _loop_topology(cfg)
        topo = generate_topology(cfg)
        assert np.array_equal(topo.positions, positions)
        assert topo.neighbors == neighbors


def test_topology_respects_link_rules():
    topo = generate_topology(TopologyConfig(placement="random", seed=3))
    cfg = TopologyConfig(placement="random", seed=3)
    n = topo.node_count
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.hypot(*(topo.positions[i] - topo.positions[j])))
            linked = j in topo.neighbors[i]
            if dist > cfg.radio_range:
                assert not linked
            if dist <= cfg.alpha * cfg.radio_range:
                assert linked


def test_grid_layout_and_corner_degree():
    spacing = 500.0 / 6
    cfg = TopologyConfig(placement="grid", alpha=1.0,
                         radio_range=spacing * math.sqrt(2) * 1.01)
    topo = generate_topology(cfg)
    assert topo.node_count == 49
    assert topo.positions[0].tolist() == [0.0, 0.0]
    assert topo.positions[48].tolist() == [500.0, 500.0]
    assert min(topo.degree(i) for i in range(49)) >= 2


def test_route_basics():
    # square with one diagonal: 0-1, 0-2, 1-3, 2-3, plus direct 0-3? no.
    topo = Topology(positions=np.zeros((4, 2)),
                    neighbors=[[1, 2], [0, 3], [0, 3], [1, 2]])
    assert route(topo, 0, 1) == [0, 1]
    # two equal-length paths; tie broken toward the lower middle index
    assert route(topo, 0, 3) == [0, 1, 3]
    with pytest.raises(ValueError):
        route(topo, 2, 2)


def test_route_triangle_prefers_direct_hop():
    topo = Topology(positions=np.zeros((3, 2)),
                    neighbors=[[1, 2], [0, 2], [0, 1]])
    assert route(topo, 0, 2) == [0, 2]


def test_route_disconnected_returns_none():
    topo = Topology(positions=np.zeros((4, 2)),
                    neighbors=[[1], [0], [3], [2]])
    assert route(topo, 0, 3) is None


def _list_route(neighbors, src, dst):
    """Breadth first over sorted neighbour lists with a FIFO queue: the
    reference for `route`'s paths and tie-break."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in neighbors[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


# (stations, placement, side of the square area, radio range, seeds): masks
# of one, two, three and seven 64-bit words; the grids have many min-hop
# paths of equal length, and the short ranges leave pairs disconnected and
# keep the 400-station searches small
_ROUTE_TOPOLOGIES = [
    (2, "grid", 100.0, 120.0, range(2)), (2, "random", 100.0, 120.0, range(2)),
    (2, "random", 500.0, 120.0, range(2)),
    (49, "grid", 500.0, 120.0, range(4)), (49, "random", 500.0, 120.0, range(10)),
    (49, "random", 500.0, 70.0, range(9)),
    (65, "grid", 500.0, 100.0, range(2)), (65, "random", 500.0, 90.0, range(6)),
    (65, "random", 500.0, 60.0, range(4)),
    (130, "grid", 500.0, 70.0, range(1)), (130, "random", 500.0, 45.0, range(6)),
    (400, "grid", 500.0, 29.0, range(1)), (400, "random", 500.0, 18.0, range(1)),
]


def test_route_matches_list_reference_on_every_pair():
    topologies = disconnected = 0
    for n, placement, side, r, seeds in _ROUTE_TOPOLOGIES:
        for seed in seeds:
            topo = generate_topology(TopologyConfig(
                node_count=n, placement=placement, area_w=side, area_h=side,
                radio_range=r, seed=seed))
            topologies += 1
            for src in range(n):
                for dst in range(n):
                    if src != dst:
                        path = route(topo, src, dst)
                        assert path == _list_route(topo.neighbors, src, dst)
                        disconnected += path is None
    assert topologies >= 50 and disconnected > 0


def test_packet_energy_frozen_composition():
    # 2 x compute(256, uncached) + tx(310) + rx(310); frozen from the
    # formula composition: 2*26862.3234 + 579.8 + 353.2
    assert packet_energy("tkip", 256, 1) == pytest.approx(54657.6468)


def test_packet_energy_terms():
    p = 512
    base = packet_energy("tkip", p, 1)
    two_hops = packet_energy("tkip", p, 2)
    size = frame_bytes(p, FrameLayout.TKIP_BASELINE)
    radio = tx_energy(size) + rx_energy(size)
    # extra hop adds exactly one radio leg, compute unchanged
    assert two_hops - base == pytest.approx(radio)
    assert base - radio == pytest.approx(2 * tkip_energy(p, Case.NO_CACHE))
    with pytest.raises(ValueError):
        packet_energy("tkip", p, 0)
    with pytest.raises(ValueError):
        packet_energy("wep", p, 1)


def test_type_b_frame_is_4_bytes_shorter():
    assert frame_bytes(256, FrameLayout.TKIP_BASELINE) == 256 + 20 + MAC_OVERHEAD_BYTES
    assert (frame_bytes(256, FrameLayout.TKIP_BASELINE)
            - frame_bytes(256, FrameLayout.LOTKIP_TYPE_B)) == 4
    assert frame_bytes(256, FrameLayout.LOTKIP_TYPE_A) == \
        frame_bytes(256, FrameLayout.TKIP_BASELINE)


def test_lotkip_packet_energy_layouts():
    first = packet_energy("lotkip", 256, 1, first_packet=True)
    cached_a = packet_energy("lotkip", 256, 1, layout=FrameLayout.LOTKIP_TYPE_A)
    cached_b = packet_energy("lotkip", 256, 1)
    assert first > cached_a > cached_b
    size_a = frame_bytes(256, FrameLayout.LOTKIP_TYPE_A)
    size_b = frame_bytes(256, FrameLayout.LOTKIP_TYPE_B)
    assert cached_a - cached_b == pytest.approx(
        tx_energy(size_a) + rx_energy(size_a) - tx_energy(size_b) - rx_energy(size_b))


def test_ack_energy_added_per_hop():
    with_ack = packet_energy("tkip", 256, 3, ack_enabled=True)
    without = packet_energy("tkip", 256, 3)
    assert with_ack - without == pytest.approx(3 * (tx_energy(14) + rx_energy(14)))


def test_lotkip_frame_classes():
    assert lotkip_frame_classes(10_000, 256) == (1, 39, 9960)
    assert lotkip_frame_classes(1, 256) == (1, 0, 0)
    assert lotkip_frame_classes(256, 256) == (1, 0, 255)
    assert lotkip_frame_classes(257, 256) == (1, 1, 255)
    # across an epoch boundary: 65536 is a multiple of 256, no extra frame
    n_first, n_refresh, n_b = lotkip_frame_classes(70_000, 256)
    assert n_first == 2
    assert n_first + n_refresh == math.ceil(70_000 / 256)
    # the refresh count restarts at the epoch change: the sender sends
    # ceil(65536 / 999) + ceil(4464 / 999) type A frames
    n_first, n_refresh, n_b = lotkip_frame_classes(70_000, 999)
    assert n_first == 2
    assert n_first + n_refresh == 71


def _small_traffic(**kw):
    defaults = dict(packet_sizes=(256, 512), packets_per_scenario=100,
                    scenario_count=4, seed=9)
    defaults.update(kw)
    return TrafficConfig(**defaults)


def test_experiment_deterministic():
    cfg = TopologyConfig(placement="random", seed=5)
    a = run_experiment(cfg, _small_traffic())
    b = run_experiment(cfg, _small_traffic())
    assert emit_series(a) == emit_series(b)


def test_experiment_aggregation_identities():
    result = run_experiment(TopologyConfig(seed=2), _small_traffic())
    for p in (256, 512):
        for scheme in ("tkip", "lotkip"):
            per_node = result.per_node_j[(scheme, p)]
            assert (per_node >= 0).all()
            assert result.network_energy(scheme, p) == \
                pytest.approx(float(per_node.sum()))
            assert result.per_node_mean(scheme, p) == \
                pytest.approx(result.network_energy(scheme, p) / 49)
        assert result.network_energy("lotkip", p) < result.network_energy("tkip", p)
        assert result.efficiency_factor(p) > 1.0


def test_two_node_network_matches_packet_energy():
    # forced single hop: network energy must equal packets x packet_energy
    topo = TopologyConfig(node_count=2, area_w=10, area_h=10,
                          placement="random", radio_range=120, alpha=1.0, seed=1)
    traffic = _small_traffic(packet_sizes=(256,), scenario_count=1,
                             packets_per_scenario=50, scheme="tkip")
    result = run_experiment(topo, traffic)
    expect = 50 * packet_energy("tkip", 256, 1) * 1e-6
    assert result.network_energy("tkip", 256) == pytest.approx(expect)


def test_two_node_lotkip_class_aggregation():
    topo = TopologyConfig(node_count=2, area_w=10, area_h=10,
                          placement="random", radio_range=120, alpha=1.0, seed=1)
    traffic = _small_traffic(packet_sizes=(256,), scenario_count=1,
                             packets_per_scenario=50, scheme="lotkip",
                             refresh_interval=8)
    result = run_experiment(topo, traffic)
    n_first, n_refresh, n_b = lotkip_frame_classes(50, 8)
    expect = (n_first * packet_energy("lotkip", 256, 1, first_packet=True)
              + n_refresh * packet_energy("lotkip", 256, 1,
                                          layout=FrameLayout.LOTKIP_TYPE_A)
              + n_b * packet_energy("lotkip", 256, 1)) * 1e-6
    assert result.network_energy("lotkip", 256) == pytest.approx(expect)


@pytest.mark.parametrize("scheme", ["tkip", "lotkip"])
def test_energy_lands_on_route_nodes(monkeypatch, scheme):
    # each node's joules, recomputed hop by hop along every scenario's route:
    # compute at both ends, a frame's tx/rx and an ack's rx/tx on each hop
    paths = []
    sample_pair = netsim._sample_pair

    def recording(*args, **kwargs):
        path, hops = sample_pair(*args, **kwargs)
        paths.append(path)
        return path, hops

    monkeypatch.setattr(netsim, "_sample_pair", recording)
    packets, k, n = 600, 7, 30
    traffic = _small_traffic(scheme=scheme, packets_per_scenario=packets,
                             refresh_interval=k, ack_enabled=True, scenario_count=6)
    result = run_experiment(TopologyConfig(node_count=n, placement="random", seed=3),
                            traffic)
    assert len(paths) == 6 and any(len(path) > 2 for path in paths)
    on_route = {node for path in paths for node in path}
    for p in traffic.packet_sizes:
        if scheme == "tkip":
            classes = [(packets, tkip_energy(p, Case.NO_CACHE),
                        FrameLayout.TKIP_BASELINE)]
        else:
            n_first, n_refresh, n_b = lotkip_frame_classes(packets, k)
            assert n_refresh > 0
            cached = tkip_energy(p, Case.CACHE, False)
            classes = [(n_first, tkip_energy(p, Case.CACHE, True),
                        FrameLayout.LOTKIP_TYPE_A),
                       (n_refresh, cached, FrameLayout.LOTKIP_TYPE_A),
                       (n_b, cached, FrameLayout.LOTKIP_TYPE_B)]
        expect = [0.0] * n
        for path in paths:
            for count, compute, layout in classes:
                size = frame_bytes(p, layout)
                expect[path[0]] += count * compute
                expect[path[-1]] += count * compute
                for sender, receiver in zip(path, path[1:]):
                    expect[sender] += count * (tx_energy(size) + rx_energy(14))
                    expect[receiver] += count * (rx_energy(size) + tx_energy(14))
        per_node = result.per_node_j[(scheme, p)]
        np.testing.assert_allclose(per_node, np.array(expect) * 1e-6 / len(paths),
                                   rtol=1e-12)
        assert {int(i) for i in np.flatnonzero(per_node)} == on_route


def _scenario_loop(cfg, traffic):
    """Each scenario decided alone: its topology from `generate_topology`
    seeded as `run_experiment` seeds scenario s, then its pair and route."""
    seed = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)
    runs = []
    for s in range(traffic.scenario_count):
        topo = generate_topology(replace(cfg, seed=seed + (s, 0)))
        path, _ = netsim._sample_pair(topo, np.random.default_rng((traffic.seed, s, 1)))
        runs.append((topo, path))
    return runs


@pytest.mark.parametrize("placement", ["grid", "random"])
@pytest.mark.parametrize("n, full_chunks", [(49, 3), (257, 2)])
def test_batched_scenarios_match_scenario_loop(monkeypatch, placement, n, full_chunks):
    # n = 49: three full chunks and a partial fourth; n = 257 has more pairs
    # than the budget, so every chunk holds one scenario
    per_chunk = netsim._scenarios_per_chunk(n)
    assert (per_chunk == 1) == (n * (n - 1) // 2 > TOPOLOGY_PAIR_BUDGET)
    last = (per_chunk + 1) // 2
    chunks, runs = [], []
    decide, sample_pair = netsim._decide_topologies, netsim._sample_pair

    def recording_decide(cfg, seeds):
        chunks.append(len(seeds))
        return decide(cfg, seeds)

    def recording_sample(topology, rng):
        path, hops = sample_pair(topology, rng)
        runs.append((topology, path))
        return path, hops

    monkeypatch.setattr(netsim, "_decide_topologies", recording_decide)
    monkeypatch.setattr(netsim, "_sample_pair", recording_sample)
    cfg = TopologyConfig(node_count=n, placement=placement, seed=(4, 2))
    traffic = _small_traffic(scenario_count=full_chunks * per_chunk + last)
    run_experiment(cfg, traffic)
    monkeypatch.undo()
    assert chunks == [per_chunk] * full_chunks + [last]
    expected = _scenario_loop(cfg, traffic)
    assert len(runs) == len(expected) == traffic.scenario_count
    for (topo, path), (ref_topo, ref_path) in zip(runs, expected):
        assert np.array_equal(topo.positions, ref_topo.positions)
        assert topo.neighbors == ref_topo.neighbors
        assert path == ref_path


def test_hashed_seed_states_match_default_rng():
    # the seeds run_experiment hashes, word-boundary values alone and inside
    # tuples, the empty tuple, and seeds of more than four 32-bit words, all
    # in one batch
    edges = [0, 2**32 - 1, 2**32, 2**64 + 1, ()]
    seeds = [(1, s, 0) for s in range(4000)] + [(7, s, 1) for s in range(4000)]
    seeds += [(4, 2, s, 0) for s in range(1000)] + [(s, 0) for s in range(500)]
    seeds += edges + [(v, s, 1) for v in edges[:-1] for s in range(50)]
    seeds += [(2**64 + 1, s, 0) for s in range(100)]
    seeds += [tuple(range(s, s + k)) for k in range(5, 10) for s in range(50)]
    seeds += [2**128 + s for s in range(50)] + [2**300 - s for s in range(50)]
    assert len(seeds) >= 10_000
    states = netsim._pcg64_states(seeds)
    assert states == [np.random.default_rng(seed).bit_generator.state
                      for seed in seeds]
    rng = np.random.default_rng(0)
    for seed, state in list(zip(seeds, states))[::1000]:
        rng.bit_generator.state = state
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.random(7), ref.random(7))
        assert rng.integers(49, size=5).tolist() == ref.integers(49, size=5).tolist()


def test_single_scheme_has_no_efficiency():
    result = run_experiment(TopologyConfig(seed=2), _small_traffic(scheme="tkip"))
    assert result.efficiency_factor(256) is None
    csv = emit_series(result)
    assert csv.splitlines()[1].endswith(",")


def test_unreachable_pairs_raise():
    topo = TopologyConfig(node_count=4, placement="random",
                          radio_range=0.001, alpha=1.0, seed=1)
    with pytest.raises(ScenarioError):
        run_experiment(topo, _small_traffic(scenario_count=1))


def test_emit_series_shape_and_order():
    results = [run_experiment(TopologyConfig(seed=2, placement=pl), _small_traffic())
               for pl in ("grid", "random")]
    lines = emit_series(results).strip().splitlines()
    assert lines[0] == "P,scheme,placement,network_energy_J,per_node_J,efficiency_factor"
    assert len(lines) == 1 + 2 * 2 * 2        # P x scheme x placement
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert keys == sorted(keys, key=lambda k: (int(k[0]), k[1], k[2]))


def test_parse_scenario_config():
    text = """
    nodes = 25
    placement = both
    R = 90
    alpha = 0.5
    P_list = 256, 512, 768
    packets = 500
    scenarios = 7
    scheme = lotkip
    K = 32
    ack = on
    seed = 77
    """
    topo_cfgs, traffic = parse_scenario_config(text)
    assert [c.placement for c in topo_cfgs] == ["grid", "random"]
    assert topo_cfgs[0].node_count == 25
    assert topo_cfgs[0].radio_range == 90
    assert traffic.packet_sizes == (256, 512, 768)
    assert traffic.scheme == "lotkip"
    assert traffic.refresh_interval == 32
    assert traffic.ack_enabled is True
    assert traffic.seed == 77


def test_parse_scenario_config_defaults_and_errors():
    topo_cfgs, traffic = parse_scenario_config("")
    assert len(topo_cfgs) == 1 and topo_cfgs[0].placement == "grid"
    assert traffic.packet_sizes == DEFAULT_PACKET_SIZES
    with pytest.raises(ScenarioError):
        parse_scenario_config("bogus_key = 1")
    with pytest.raises(ScenarioError):
        parse_scenario_config("nodes = many")
    with pytest.raises(ScenarioError):
        parse_scenario_config("just a line")
    with pytest.raises(ScenarioError):
        parse_scenario_config("seed = x")
    with pytest.raises(ScenarioError):
        parse_scenario_config("ack = yes")
    with pytest.raises(ScenarioError):
        parse_scenario_config("area_w = -5")
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario_config("seed = -1")
    with pytest.raises(ScenarioError, match="nodes is already set"):
        parse_scenario_config("nodes = 16\nnodes = 49")
    for p_list in ("256,,512", "256,512,", ""):
        with pytest.raises(ScenarioError, match="P_list has an empty item"):
            parse_scenario_config(f"P_list = {p_list}")
    for text, enabled in (("ack = off", False), ("ack = false", False),
                          ("ack = 0", False), ("ack = true", True),
                          ("ack = 1", True)):
        assert parse_scenario_config(text)[1].ack_enabled is enabled
