"""Network simulator: link rule, topology generation, routing, per-packet
energy composition, and experiment determinism/aggregation."""

import math
import re
from collections import deque
from dataclasses import replace
from itertools import islice
from typing import Optional

import numpy as np
import pytest

from lotkip import netsim
from lotkip.codec import FrameLayout, lotkip_frame_classes
from lotkip.cost import Case, rx_energy, tkip_energy, tx_energy
from lotkip.netsim import (
    ACK_BYTES,
    DEFAULT_PACKET_SIZES,
    MAC_OVERHEAD_BYTES,
    TOPOLOGY_PAIR_BUDGET,
    ScenarioError,
    TopologyConfig,
    TrafficConfig,
    emit_series,
    frame_bytes,
    generate_topology,
    link_decide,
    parse_scenario_config,
    route,
    run_experiment,
)


def packet_energy(scheme: str, packet_size: int, hop_count: int,
                  first_packet: bool = False,
                  layout: Optional[FrameLayout] = None,
                  ack_enabled: bool = False) -> float:
    """Total microjoules one packet costs the network end to end.

    Compute energy is charged twice (encrypt at the source, decrypt at the
    destination); radio energy once per hop.  The frame layout defaults to
    the scheme's steady state but can be forced, e.g. for refresh frames.
    """
    if hop_count < 1:
        raise ValueError("hop_count must be at least 1")
    if scheme == "tkip":
        compute = tkip_energy(packet_size, Case.NO_CACHE)
        layout = layout or FrameLayout.TKIP_BASELINE
    elif scheme == "lotkip":
        compute = tkip_energy(packet_size, Case.CACHE, first_packet)
        if layout is None:
            layout = (FrameLayout.LOTKIP_TYPE_A if first_packet
                      else FrameLayout.LOTKIP_TYPE_B)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    size = frame_bytes(packet_size, layout)
    radio = hop_count * (tx_energy(size) + rx_energy(size))
    if ack_enabled:
        radio += hop_count * (tx_energy(ACK_BYTES) + rx_energy(ACK_BYTES))
    return 2.0 * compute + radio


def _neighbors(masks):
    """Each station's links as a list in ascending order."""
    return [[j for j in range(len(masks)) if mask >> j & 1] for mask in masks]


def _recording_positions(monkeypatch):
    """Every station position `netsim._pair_classes` classes from here on,
    one (n, 2) array per topology, in call order."""
    positions = []
    pair_classes = netsim._pair_classes

    def recording(cfg, xy, pairs):
        positions.extend(xy)
        return pair_classes(cfg, xy, pairs)

    monkeypatch.setattr(netsim, "_pair_classes", recording)
    return positions


def test_topology_config_validation():
    with pytest.raises(ValueError):
        TopologyConfig(node_count=1)
    with pytest.raises(ValueError):
        TopologyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TopologyConfig(placement="ring")
    with pytest.raises(ValueError):
        TopologyConfig(radio_range=0)
    for radio_range in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radio_range"):
            TopologyConfig(radio_range=radio_range)
    for area in (dict(area_w=-5.0), dict(area_w=0.0), dict(area_h=-1.0),
                 dict(area_h=0.0), dict(area_w=math.inf), dict(area_h=math.nan)):
        with pytest.raises(ValueError, match="area_w and area_h"):
            TopologyConfig(**area)
    for seed in (-1, (1, -2, 0), (1, 2, 0), 1.5):
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
    # `_routes` hashes each scenario index as one uint32 word
    assert TrafficConfig(scenario_count=2**32).scenario_count == 2**32
    with pytest.raises(ValueError, match="scenario_count must be at most 2"):
        TrafficConfig(scenario_count=2**32 + 1)
    for counts in (dict(packets_per_scenario=0), dict(scenario_count=0)):
        with pytest.raises(ValueError, match="counts must be positive"):
            TrafficConfig(**counts)
    with pytest.raises(ValueError, match="refresh_interval must be positive"):
        TrafficConfig(refresh_interval=0)
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
    assert len(a) == cfg.node_count and a == b
    neighbors = _neighbors(a)
    assert neighbors == _neighbors(b)
    for i, nbrs in enumerate(neighbors):
        assert i not in nbrs
        for j in nbrs:
            assert i in neighbors[j]


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


_LINK_RULE_CASES = [
    pytest.param(placement, n, alpha, {}, id=f"{alpha}-{n}-{placement}")
    for alpha in (0.0, 0.75, 1.0) for n in (2, 3, 49, 50, 400)
    for placement in ("grid", "random")
] + [
    # grid spacing exactly alpha*R, then exactly R
    pytest.param("grid", 49, 0.75, dict(area_w=540.0, area_h=540.0),
                 id="grid-spacing-near-range"),
    pytest.param("grid", 49, 0.75, dict(area_w=720.0, area_h=720.0),
                 id="grid-spacing-range"),
    # R^2 below the normal floats, then above every finite one
    pytest.param("random", 49, 0.75,
                 dict(area_w=4e-160, area_h=4e-160, radio_range=1e-160),
                 id="tiny-range"),
    pytest.param("random", 49, 0.75,
                 dict(area_w=4e160, area_h=4e160, radio_range=1e160),
                 id="huge-range"),
]


@pytest.mark.parametrize("placement, n, alpha, geometry", _LINK_RULE_CASES)
def test_topology_matches_scalar_link_rule(monkeypatch, placement, n, alpha, geometry):
    # alpha = 1 leaves the band empty (and its probability denominator 0)
    classed = _recording_positions(monkeypatch)
    for seed in range(3):
        cfg = TopologyConfig(node_count=n, placement=placement, alpha=alpha,
                             seed=seed, **geometry)
        positions, neighbors = _loop_topology(cfg)
        masks = generate_topology(cfg)
        assert np.array_equal(classed.pop(), positions) and not classed
        assert _neighbors(masks) == neighbors


@pytest.mark.parametrize("r, alpha", [
    (120.0, 0.75), (1.0, 0.5), (7e5, 0.3), (3.0, 0.0),
    (2e-154, 0.01),                 # (alpha*R)^2 below the normal floats
    (1e-160, 0.75), (1e160, 0.75),  # R^2 outside them
])
def test_link_classes_exact_at_thresholds(r, alpha):
    # offsets within a few ulp of either threshold, where dx*dx + dy*dy
    # and hypot round to opposite sides of it for some angles
    near = alpha * r
    steps = 1 + np.arange(-4, 5) * 2.0 ** -52
    dist = np.concatenate([near * steps, r * steps])
    angle = np.linspace(0.0, 2 * np.pi, 1500, endpoint=False)
    dx = np.outer(dist, np.cos(angle))
    dy = np.outer(dist, np.sin(angle))
    linked, band, prob = netsim._link_classes(dx, dy, r, near)
    # link_decide's thresholds and band probability on hypot
    hypot = np.hypot(dx, dy).ravel()
    assert np.array_equal(linked, hypot <= near)
    assert np.array_equal(band, (hypot > near) & (hypot <= r))
    assert np.array_equal(prob, (r - hypot[band]) / (r - near))


@pytest.mark.parametrize("rows, n, blocks", [
    (26, 49, 5),        # blocks of up to six whole scenarios, 7 056 pairs
    (1, 200, 3),        # one scenario's 19 900 pairs in slices of 8 192
])
def test_pair_classes_blocks_equal_one_block(monkeypatch, rows, n, blocks):
    cfg = TopologyConfig(node_count=n, placement="random")
    xy = np.random.default_rng(n).random((rows, n, 2)) * (cfg.area_w, cfg.area_h)
    i, j = pairs = np.triu_indices(n, 1)
    x, y = xy.transpose(2, 0, 1)
    expected = netsim._link_classes(x.take(i, axis=1) - x.take(j, axis=1),
                                    y.take(i, axis=1) - y.take(j, axis=1),
                                    cfg.radio_range, cfg.alpha * cfg.radio_range)
    sizes = []
    link_classes = netsim._link_classes

    def counting(dx, dy, r, near):
        sizes.append(dx.size)
        return link_classes(dx, dy, r, near)

    monkeypatch.setattr(netsim, "_link_classes", counting)
    got = netsim._pair_classes(cfg, xy, pairs)
    assert len(sizes) == blocks and max(sizes) <= netsim.PAIR_BLOCK
    assert sum(sizes) == rows * i.size and expected[2].size > 0
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_topology_respects_link_rules():
    cfg = TopologyConfig(placement="random", seed=3)
    positions = np.random.default_rng(cfg.seed).uniform(
        (0.0, 0.0), (cfg.area_w, cfg.area_h), size=(cfg.node_count, 2))
    n = cfg.node_count
    neighbors = _neighbors(generate_topology(cfg))
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.hypot(*(positions[i] - positions[j])))
            linked = j in neighbors[i]
            if dist > cfg.radio_range:
                assert not linked
            if dist <= cfg.alpha * cfg.radio_range:
                assert linked


def test_grid_layout_and_corner_degree():
    spacing = 500.0 / 6
    cfg = TopologyConfig(placement="grid", alpha=1.0,
                         radio_range=spacing * math.sqrt(2) * 1.01)
    masks = generate_topology(cfg)
    assert len(masks) == 49
    positions = netsim._grid_positions(cfg)
    assert positions[0].tolist() == [0.0, 0.0]
    assert positions[48].tolist() == [500.0, 500.0]
    assert min(mask.bit_count() for mask in masks) >= 2


def test_route_basics():
    # square with one diagonal: 0-1, 0-2, 1-3, 2-3, plus direct 0-3? no.
    masks = [0b0110, 0b1001, 0b1001, 0b0110]
    assert route(masks, 0, 1) == [0, 1]
    # two equal-length paths; tie broken toward the lower middle index
    assert route(masks, 0, 3) == [0, 1, 3]
    with pytest.raises(ValueError):
        route(masks, 2, 2)


def test_route_triangle_prefers_direct_hop():
    assert route([0b110, 0b101, 0b011], 0, 2) == [0, 2]


def test_route_disconnected_returns_none():
    assert route([0b0010, 0b0001, 0b1000, 0b0100], 0, 3) is None


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
            masks = generate_topology(TopologyConfig(
                node_count=n, placement=placement, area_w=side, area_h=side,
                radio_range=r, seed=seed))
            topologies += 1
            neighbors = _neighbors(masks)
            for src in range(n):
                for dst in range(n):
                    if src != dst:
                        path = route(masks, src, dst)
                        assert path == _list_route(neighbors, src, dst)
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
                    scenario_count=4)
    defaults.update(kw)
    return TrafficConfig(**defaults)


def test_experiment_deterministic():
    cfg = TopologyConfig(placement="random", seed=5)
    a = run_experiment([cfg], _small_traffic())[0]
    b = run_experiment([cfg], _small_traffic())[0]
    assert emit_series([a]) == emit_series([b])


def test_experiment_aggregation_identities():
    result = run_experiment([TopologyConfig(seed=2)], _small_traffic())[0]
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
    result = run_experiment([topo], traffic)[0]
    expect = 50 * packet_energy("tkip", 256, 1) * 1e-6
    assert result.network_energy("tkip", 256) == pytest.approx(expect)


def test_two_node_lotkip_class_aggregation():
    topo = TopologyConfig(node_count=2, area_w=10, area_h=10,
                          placement="random", radio_range=120, alpha=1.0, seed=1)
    traffic = _small_traffic(packet_sizes=(256,), scenario_count=1,
                             packets_per_scenario=50, scheme="lotkip",
                             refresh_interval=8)
    result = run_experiment([topo], traffic)[0]
    n_first, n_refresh, n_b = lotkip_frame_classes(50, 8)
    expect = (n_first * packet_energy("lotkip", 256, 1, first_packet=True)
              + n_refresh * packet_energy("lotkip", 256, 1,
                                          layout=FrameLayout.LOTKIP_TYPE_A)
              + n_b * packet_energy("lotkip", 256, 1)) * 1e-6
    assert result.network_energy("lotkip", 256) == pytest.approx(expect)


@pytest.mark.parametrize("scheme", ["tkip", "lotkip"])
def test_energy_lands_on_route_nodes(scheme):
    # each node's joules, recomputed hop by hop along every scenario's route:
    # compute at both ends, a frame's tx/rx and an ack's rx/tx on each hop
    packets, k, n = 600, 7, 30
    traffic = _small_traffic(scheme=scheme, packets_per_scenario=packets,
                             refresh_interval=k, ack_enabled=True, scenario_count=6)
    topo_cfgs = [TopologyConfig(node_count=n, placement="random", seed=3)]
    paths = [path for _, _, path in netsim._routes(topo_cfgs, traffic)]
    result = run_experiment(topo_cfgs, traffic)[0]
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


def _numpy_sample_pair(masks, rng):
    """The route between the first linked pair of distinct stations that
    numpy's ``rng.integers`` draws: the reference for `_sample_pair`."""
    n = len(masks)
    for _ in range(netsim._PAIR_DRAWS):
        src = int(rng.integers(n))
        dst = int(rng.integers(n))
        if src == dst:
            continue
        path = route(masks, src, dst)
        if path is not None:
            return path
    raise ScenarioError("no connected node pair found after bounded resampling")


def _scenario_loop(cfg, traffic):
    """Each scenario decided alone, as `generate_topology` decides one: its
    topology from ``np.random.default_rng((seed, s, 0))``, then its pair
    and route from ``np.random.default_rng((seed, s, 1))``."""
    runs = []
    for s in range(traffic.scenario_count):
        state = np.random.default_rng((cfg.seed, s, 0)).bit_generator.state
        pairs = np.triu_indices(cfg.node_count, 1)
        masks = netsim._decide_topologies(cfg, [state], np.random.default_rng(0),
                                          pairs, netsim._fixed_links(cfg, pairs))[0]
        path = _numpy_sample_pair(masks, np.random.default_rng((cfg.seed, s, 1)))
        runs.append((masks, path))
    return runs


@pytest.mark.parametrize("placement", ["grid", "random"])
@pytest.mark.parametrize("n, full_chunks", [(49, 3), (257, 2)])
def test_batched_scenarios_match_scenario_loop(monkeypatch, placement, n, full_chunks):
    # n = 49: three full chunks and a partial fourth; n = 257 has more pairs
    # than the budget, so every chunk holds one scenario
    per_chunk = netsim._scenarios_per_chunk(n)
    assert (per_chunk == 1) == (n * (n - 1) // 2 > TOPOLOGY_PAIR_BUDGET)
    last = (per_chunk + 1) // 2
    chunks, topologies = [], []
    decide = netsim._decide_topologies

    def recording_decide(cfg, seeds, *shared):
        chunks.append(len(seeds))
        masks = decide(cfg, seeds, *shared)
        topologies.extend(masks)
        return masks

    monkeypatch.setattr(netsim, "_decide_topologies", recording_decide)
    classed = _recording_positions(monkeypatch)
    cfg = TopologyConfig(node_count=n, placement=placement, seed=42)
    traffic = _small_traffic(scenario_count=full_chunks * per_chunk + last)
    paths = [path for _, _, path in netsim._routes([cfg], traffic)]
    monkeypatch.undo()
    assert chunks == [per_chunk] * full_chunks + [last]
    # a grid's one position set, or each scenario's draws from (seed, s, 0)
    if placement == "grid":
        ref_positions = [netsim._grid_positions(cfg)]
    else:
        ref_positions = [np.random.default_rng((cfg.seed, s, 0)).uniform(
            (0.0, 0.0), (cfg.area_w, cfg.area_h), size=(n, 2))
            for s in range(traffic.scenario_count)]
    assert len(classed) == len(ref_positions)
    for xy, ref_xy in zip(classed, ref_positions):
        assert np.array_equal(xy, ref_xy)
    expected = _scenario_loop(cfg, traffic)
    assert len(topologies) == len(paths) == len(expected) == traffic.scenario_count
    for masks, path, (ref_masks, ref_path) in zip(topologies, paths, expected):
        assert masks == ref_masks
        assert path == ref_path


@pytest.mark.parametrize("n, count", [(30, 300), (49, 100)], ids=["two-batches", "paper"])
def test_routes_stream_each_scenario_once_and_charge_to_per_node(n, count):
    # n = 30 hashes seeds 260 scenarios at a time, so 300 take two batches;
    # (49, 100) is the paper scenario.  Every placement runs a batch before
    # the next is hashed, each scenario's route is the one it takes alone,
    # and the role counts the stream sums are the ones run_experiment charges
    topo_cfgs = [TopologyConfig(node_count=n, placement=pl) for pl in ("grid", "random")]
    traffic = TrafficConfig(scenario_count=count)
    chunk = netsim._scenarios_per_chunk(n)
    batch = chunk * -(-netsim._SEED_BATCH // chunk)
    assert -(-count // batch) == (2 if n == 30 else 1)
    stream = list(netsim._routes(topo_cfgs, traffic))
    assert [(k, s) for k, s, _ in stream] == [
        (k, s) for first in range(0, count, batch) for k in range(len(topo_cfgs))
        for s in range(first, min(first + batch, count))]
    results = run_experiment(topo_cfgs, traffic)
    for k, (cfg, result) in enumerate(zip(topo_cfgs, results)):
        paths = [path for kk, _, path in stream if kk == k]
        assert paths == [path for _, path in _scenario_loop(cfg, traffic)]
        source, relay, sink = ([0] * n for _ in range(3))
        for path in paths:
            source[path[0]] += 1
            for node in path[1:-1]:
                relay[node] += 1
            sink[path[-1]] += 1
        source, relay, sink = (np.array(c, dtype=float) for c in (source, relay, sink))
        for scheme in traffic.schemes:
            for p in traffic.packet_sizes:
                a, b, c = netsim._role_rates(scheme, p, traffic)
                assert np.array_equal(result.per_node_j[(scheme, p)],
                                      (a * source + b * relay + c * sink) * 1e-6 / count)


def test_hashed_seed_states_match_default_rng():
    # the seeds run_experiment hashes, word-boundary values alone and inside
    # tuples, the empty tuple, and seeds of more than four 32-bit words; the
    # rows of each word count are hashed as one array
    edges = [0, 2**32 - 1, 2**32, 2**64 + 1, ()]
    seeds = [(1, s, 0) for s in range(4000)] + [(7, s, 1) for s in range(4000)]
    seeds += [(4, 2, s, 0) for s in range(1000)] + [(s, 0) for s in range(500)]
    seeds += edges + [(v, s, 1) for v in edges[:-1] for s in range(50)]
    seeds += [(2**64 + 1, s, 0) for s in range(100)]
    seeds += [tuple(range(s, s + k)) for k in range(5, 10) for s in range(50)]
    seeds += [2**128 + s for s in range(50)] + [2**300 - s for s in range(50)]
    assert len(seeds) >= 10_000
    by_width = {}
    for index, seed in enumerate(seeds):
        # SeedSequence's entropy: each value's words, value by value
        words = [w for v in (seed if isinstance(seed, tuple) else (seed,))
                 for w in netsim._seed_words(v)]
        by_width.setdefault(len(words), []).append((index, words))
    assert {0, 1, 2, 3, 4} <= by_width.keys() and max(by_width) == 10
    states = [None] * len(seeds)
    for rows in by_width.values():
        entropy = np.array([words for _, words in rows], dtype=np.uint32)
        for (index, _), state in zip(rows, netsim._pcg64_states(entropy)):
            states[index] = state
    assert states == [np.random.default_rng(seed).bit_generator.state
                      for seed in seeds]
    rng = np.random.default_rng(0)
    for seed, state in list(zip(seeds, states))[::1000]:
        rng.bit_generator.state = state
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.random(7), ref.random(7))
        assert rng.integers(49, size=5).tolist() == ref.integers(49, size=5).tolist()


def test_pair_stream_draws_as_generator_integers():
    # n = 2**31 + 1 rejects about half the words, so the redraw runs; 2**32
    # is numpy's shortcut to the raw words
    seeds = [(s, 1) for s in range(10_000)]
    sizes = (2, 3, 49, 400, 2**31 + 1, 2**32)
    redraws = dict.fromkeys(sizes, 0)
    rng = np.random.default_rng(0)
    for state in netsim._pcg64_states(np.array(seeds)):
        stream = state["state"]
        head = list(islice(netsim._pcg64_words(stream["state"], stream["inc"]), 64))
        for n in sizes:
            rng.bit_generator.state = state
            expect = [int(rng.integers(n)) for _ in range(3)]
            words = iter(head)
            assert [netsim._draw_below(words, n) for _ in range(3)] == expect
            redraws[n] += len(head) - 3 - len(list(words))
    assert redraws[2**31 + 1] > 10_000 and redraws[2**32] == 0


def test_placements_of_one_run_match_separate_runs():
    # both placements of a sim call share each batch's seed states, and each
    # gets the energies it gets when run alone; at n = 30, 300 scenarios are
    # two batches (260 and 40)
    grid = TopologyConfig(node_count=30, seed=13)
    random_placement = TopologyConfig(node_count=30, placement="random", seed=13)
    traffic = _small_traffic(scenario_count=300)
    together = run_experiment([grid, random_placement], traffic)
    for cfg, result in zip((grid, random_placement), together):
        alone = run_experiment([cfg], traffic)[0].per_node_j
        assert result.placement == cfg.placement
        assert result.per_node_j.keys() == alone.keys()
        for key in alone:
            assert np.array_equal(result.per_node_j[key], alone[key])


def test_every_scenario_of_every_batch_is_charged(monkeypatch):
    # with one joule per source and nothing else, each series sums to the
    # share of scenarios that ran: all of them, over both batches
    monkeypatch.setattr(netsim, "_role_rates", lambda *args: (1e6, 0.0, 0.0))
    cfgs = [TopologyConfig(node_count=30, seed=13, placement=pl)
            for pl in ("grid", "random")]
    for result in run_experiment(cfgs, _small_traffic(scenario_count=300)):
        for series in result.per_node_j.values():
            assert math.fsum(series) == pytest.approx(1.0)


def test_each_seed_batch_is_hashed_once_for_all_placements(monkeypatch):
    # at n = 30 a chunk is 65 scenarios and a batch 4 chunks, so 1 301
    # scenarios are five full batches and one of a single scenario; each
    # batch hashes both streams' seeds in one call, whatever the placements
    assert netsim._scenarios_per_chunk(30) == 65
    hashed = []
    pcg64_states = netsim._pcg64_states

    def counting(seeds):
        hashed.append(len(seeds))
        return pcg64_states(seeds)

    monkeypatch.setattr(netsim, "_pcg64_states", counting)
    cfgs = [TopologyConfig(node_count=30, seed=13, placement=pl)
            for pl in ("grid", "random")]
    run_experiment(cfgs, _small_traffic(scenario_count=1301))
    assert hashed == [2 * 260] * 5 + [2]


def test_seed_free_work_runs_once_per_call(monkeypatch):
    # at n = 49 a chunk is 26 scenarios, so 79 scenarios are four chunks per
    # placement; the grid's positions and pair classes, and each (scheme, P)
    # role rate, depend on no seed, so one call makes each of them once,
    # while each random chunk classes its own pairs
    assert netsim._scenarios_per_chunk(49) == 26
    calls = {"_grid_positions": 0, "_pair_classes": 0, "_role_rates": 0}

    def counting(name):
        original = getattr(netsim, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name in calls:
        monkeypatch.setattr(netsim, name, counting(name))
    cfgs = [TopologyConfig(placement=pl, seed=3) for pl in ("grid", "random")]
    traffic = _small_traffic(scenario_count=79, packet_sizes=(256, 512, 1024))
    run_experiment(cfgs, traffic)
    assert calls == {"_grid_positions": 1, "_pair_classes": 1 + 4,
                     "_role_rates": len(traffic.schemes) * len(traffic.packet_sizes)}


def test_run_experiment_needs_configs_that_share_scenarios():
    traffic = _small_traffic(scenario_count=1)
    grid = TopologyConfig(node_count=9, seed=4)
    with pytest.raises(ValueError, match="at least one"):
        run_experiment([], traffic)
    for other in (replace(grid, node_count=10), replace(grid, seed=5),
                  replace(grid, placement="random", radio_range=100.0)):
        with pytest.raises(ValueError, match="only in placement"):
            run_experiment([grid, other], traffic)


def test_single_scheme_has_no_efficiency():
    result = run_experiment([TopologyConfig(seed=2)], _small_traffic(scheme="tkip"))[0]
    assert result.efficiency_factor(256) is None
    csv = emit_series([result])
    assert csv.splitlines()[1].endswith(",")


def test_unreachable_pairs_raise():
    topo = TopologyConfig(node_count=4, placement="random",
                          radio_range=0.001, alpha=1.0, seed=1)
    with pytest.raises(ScenarioError):
        run_experiment([topo], _small_traffic(scenario_count=1))


def test_emit_series_shape_and_order():
    cfgs = [TopologyConfig(seed=2, placement=pl) for pl in ("grid", "random")]
    results = run_experiment(cfgs, _small_traffic())
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
    assert topo_cfgs[0].seed == 77


# Each scenario file key: a valid non-default text, the field it sets and
# that field's value, then a bad text and the start of its error message.
SCENARIO_KEY_CASES = {
    "nodes": ("25", "node_count", 25, "many", "config field 'nodes': "),
    "area_w": ("300", "area_w", 300.0, "wide", "config field 'area_w': "),
    "area_h": ("200.5", "area_h", 200.5, "", "config field 'area_h': "),
    "placement": ("random", "placement", "random", "mesh",
                  "invalid scenario config: unknown placement 'mesh'"),
    "R": ("90", "radio_range", 90.0, "far", "config field 'R': "),
    "alpha": ("0.5", "alpha", 0.5, "half", "config field 'alpha': "),
    "seed": ("77", "seed", 77, "7.5", "config field 'seed': "),
    "P_list": ("256, 512", "packet_sizes", (256, 512), "256,,512",
               "config field 'P_list': P_list has an empty item"),
    "packets": ("500", "packets_per_scenario", 500, "1e3", "config field 'packets': "),
    "scenarios": ("7", "scenario_count", 7, "x", "config field 'scenarios': "),
    "scheme": ("lotkip", "scheme", "lotkip", "wep",
               "invalid scenario config: unknown scheme 'wep'"),
    "K": ("32", "refresh_interval", 32, "", "config field 'K': "),
    "ack": ("on", "ack_enabled", True, "yes", "config field 'ack': ack must be one of"),
}


@pytest.mark.parametrize("key", SCENARIO_KEY_CASES)
def test_scenario_file_key_sets_its_field_only(key):
    import lotkip.netsim as netsim

    assert set(SCENARIO_KEY_CASES) == set(netsim._SCENARIO_FIELDS)
    text, name, value, bad, error = SCENARIO_KEY_CASES[key]
    topology, traffic = TopologyConfig(), TrafficConfig()
    if hasattr(topology, name):
        topology = replace(topology, **{name: value})
    else:
        traffic = replace(traffic, **{name: value})
    parsed = parse_scenario_config(f"{key} = {text}")
    assert parsed == ([topology], traffic) != ([TopologyConfig()], TrafficConfig())
    with pytest.raises(ScenarioError, match=re.escape(error)):
        parse_scenario_config(f"{key} = {bad}")


def test_parse_scenario_config_defaults_and_errors():
    topo_cfgs, traffic = parse_scenario_config("")
    assert len(topo_cfgs) == 1 and topo_cfgs[0].placement == "grid"
    assert traffic.packet_sizes == DEFAULT_PACKET_SIZES
    # every field left out takes its dataclass default
    assert (topo_cfgs, traffic) == ([TopologyConfig()], TrafficConfig())
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
    with pytest.raises(ScenarioError, match="scenario_count must be at most"):
        parse_scenario_config(f"scenarios = {2**32 + 1}")
    with pytest.raises(ScenarioError, match="nodes is already set"):
        parse_scenario_config("nodes = 16\nnodes = 49")
    for p_list in ("256,,512", "256,512,", ""):
        with pytest.raises(ScenarioError, match="P_list has an empty item"):
            parse_scenario_config(f"P_list = {p_list}")
    for text, enabled in (("ack = off", False), ("ack = false", False),
                          ("ack = 0", False), ("ack = true", True),
                          ("ack = 1", True)):
        assert parse_scenario_config(text)[1].ack_enabled is enabled
