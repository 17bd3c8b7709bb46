"""Quasi-unit-disk ad hoc topologies and network energy accounting.

Stations are placed on a grid or uniformly at random; two stations at
distance d are linked deterministically when d <= alpha*R, never when
d > R, and with probability (R - d) / (R - alpha*R) in between.  Only
pairs in that uncertain band draw: one batched draw per band pair, in
i<j row-major order, so the links equal those of `link_decide` called
pair by pair.  `run_experiment` decides its scenarios' topologies in
chunks, as many scenarios as fit in `TOPOLOGY_PAIR_BUDGET` station pairs,
so its arrays take O(budget) memory per chunk.  From n = 256 stations a
chunk holds one scenario, whose n(n-1)/2 pairs and n x n adjacency matrix
take O(n^2).

Traffic scenarios pick random connected source/destination pairs and push
a stream of fixed-size packets along the min-hop route.  A node's energy
in one scenario depends only on its role in that route: the source
encrypts and transmits, each relay receives and transmits, the sink
receives and decrypts, and every other node spends nothing.  With acks on,
each hop's receiver also transmits an ack that its sender receives.  So
`run_experiment` counts how often each node held each role and charges
the counts at the per-scenario rate of the role.

Scenario randomness is derived from (seed, scenario index) only, so the
same scenarios are replayed for every packet size and both encryption
schemes; energy comparisons therefore use common random numbers.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from lotkip.codec import (
    FrameLayout,
    lotkip_frame_classes,
    overhead_of,
    parse_key_values,
)
from lotkip.cost import Case, rx_energy, tkip_energy, tx_energy

MAC_OVERHEAD_BYTES = 34
ACK_BYTES = 14
PACKET_SIZE_MIN = 256
PACKET_SIZE_MAX = 2312
DEFAULT_PACKET_SIZES = tuple(range(256, 2049, 256))
SCHEMES = ("tkip", "lotkip")
# Station pairs `run_experiment` decides in one chunk of scenarios; see
# `_scenarios_per_chunk`.
TOPOLOGY_PAIR_BUDGET = 1 << 15


class ScenarioError(Exception):
    """Raised when a scenario cannot be set up (e.g. no connected pair)."""


def _normalize_seed(seed: "int | tuple[int, ...]") -> tuple[int, ...]:
    return seed if isinstance(seed, tuple) else (seed,)


def _check_seed(seed: "int | tuple[int, ...]") -> None:
    """numpy seeds a generator only from non-negative integers."""
    if not all(isinstance(v, numbers.Integral) and v >= 0
               for v in _normalize_seed(seed)):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class TopologyConfig:
    node_count: int = 49
    area_w: float = 500.0
    area_h: float = 500.0
    placement: str = "grid"            # "grid" or "random"
    radio_range: float = 120.0
    alpha: float = 0.75
    seed: "int | tuple[int, ...]" = 1

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.placement not in ("grid", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if not self.radio_range > 0:
            raise ValueError("radio_range must be positive")
        if not (0 < self.area_w < math.inf and 0 < self.area_h < math.inf):
            raise ValueError("area_w and area_h must be positive and finite")
        _check_seed(self.seed)


@dataclass
class Topology:
    positions: np.ndarray              # (n, 2) coordinates in meters
    neighbors: list[list[int]]         # sorted adjacency lists

    @property
    def node_count(self) -> int:
        return len(self.neighbors)

    def degree(self, node: int) -> int:
        return len(self.neighbors[node])


def link_decide(dist: float, radio_range: float, alpha: float,
                rng: np.random.Generator) -> bool:
    """Single link decision; draws from rng only inside the uncertain band.

    The scalar form of the rule that `generate_topology` applies to all
    pairs at once; tests use it as the reference."""
    if dist < 0:
        raise ValueError("distance must be non-negative")
    if dist <= alpha * radio_range:
        return True
    if dist > radio_range:
        return False
    p = (radio_range - dist) / (radio_range - alpha * radio_range)
    return bool(rng.random() < p)


def _grid_positions(cfg: TopologyConfig) -> np.ndarray:
    side = math.isqrt(cfg.node_count)
    if side * side < cfg.node_count:
        side += 1
    xs = np.linspace(0.0, cfg.area_w, side)
    ys = np.linspace(0.0, cfg.area_h, side)
    k = np.arange(cfg.node_count)
    return np.column_stack((xs[k % side], ys[k // side]))


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, shared by every topology of n stations and
    so made read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _decide_topologies(cfg: TopologyConfig,
                       seeds: "list[int | tuple[int, ...]]") -> list[Topology]:
    """The topology of ``cfg`` under each seed, all seeds' pairs at once.

    Each seed has its own generator, drawn exactly as if its topology were
    decided alone: the random positions first, then one draw per band pair
    in i<j row-major order.  So each topology makes the same decisions, from
    the same draws, as calling `link_decide` on its pairs in that order:
    only band pairs draw, and `rng.random(k)` returns the same values as k
    scalar `rng.random()` calls.  `rng.random((n, 2)) * (w, h)` returns the
    bits of `rng.uniform((0, 0), (w, h), (n, 2))` at a fraction of its cost.
    Grid positions do not depend on the seed, so their distances and masks
    are computed once and repeated.  Pair arrays are flat and seed-major.
    """
    n = cfg.node_count
    count = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if cfg.placement == "grid":
        positions = [_grid_positions(cfg)] * count
        xy = positions[0][None]
    else:
        area = np.array((cfg.area_w, cfg.area_h))
        positions = [rng.random((n, 2)) * area for rng in rngs]
        xy = np.stack(positions)
    r = cfg.radio_range
    near_range = cfg.alpha * r
    i, j = _pair_indices(n)
    pairs = i.size
    x, y = xy.transpose(2, 0, 1)
    dx = x.take(i, axis=1) - x.take(j, axis=1)
    dy = y.take(i, axis=1) - y.take(j, axis=1)
    dist = np.hypot(dx, dy, out=dx).ravel()
    linked = dist <= near_range
    band = ~linked & (dist <= r)
    prob = (r - dist[band]) / (r - near_range)
    if len(xy) < count:
        linked, band, prob = (np.tile(a, count) for a in (linked, band, prob))
    counts = band.reshape(count, pairs).sum(axis=1).tolist()
    draws = [rng.random(k) for rng, k in zip(rngs, counts)]
    linked[band] = np.concatenate(draws) < prob
    # one scatter into all seeds' adjacency matrices, count*n rows of n, in
    # which seed s numbers its stations from s*n
    k = np.flatnonzero(linked)
    s = k // pairs
    pair = k - s * pairs
    u, v = i[pair], j[pair]
    adjacent = np.zeros(count * n * n, dtype=bool)
    adjacent[(s * n + u) * n + v] = True
    adjacent[(s * n + v) * n + u] = True
    k = np.flatnonzero(adjacent)
    rows = k // n
    cols = (k - rows * n).tolist()
    starts = np.searchsorted(rows, np.arange(count * n + 1)).tolist()
    neighbors = [cols[a:b] for a, b in zip(starts, starts[1:])]
    return [Topology(pos, neighbors[s * n:(s + 1) * n])
            for s, pos in enumerate(positions)]


def generate_topology(cfg: TopologyConfig) -> Topology:
    """Place the stations, then decide every i<j pair at once; the topology
    that `run_experiment` decides for a scenario seeded ``cfg.seed``."""
    return _decide_topologies(cfg, [cfg.seed])[0]


def route(topology: Topology, src: int, dst: int) -> Optional[list[int]]:
    """Minimum-hop path, ties broken toward lower node indices; None if
    the pair is disconnected."""
    if src == dst:
        raise ValueError("src and dst must differ")
    parent: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in topology.neighbors[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# Traffic and energy accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficConfig:
    packet_sizes: tuple[int, ...] = DEFAULT_PACKET_SIZES
    packets_per_scenario: int = 10_000
    scenario_count: int = 100
    scheme: str = "both"               # "tkip", "lotkip", or "both"
    refresh_interval: int = 256
    ack_enabled: bool = False
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.packet_sizes:
            raise ValueError("packet sizes must not be empty")
        if len(set(self.packet_sizes)) < len(self.packet_sizes):
            raise ValueError(f"packet sizes repeat in {self.packet_sizes}")
        for p in self.packet_sizes:
            if not PACKET_SIZE_MIN <= p <= PACKET_SIZE_MAX:
                raise ValueError(
                    f"packet size {p} outside [{PACKET_SIZE_MIN}, {PACKET_SIZE_MAX}]")
        if self.scheme not in ("tkip", "lotkip", "both"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.packets_per_scenario < 1 or self.scenario_count < 1:
            raise ValueError("packet and scenario counts must be positive")
        if self.refresh_interval < 1:
            raise ValueError("refresh_interval must be positive")
        _check_seed(self.seed)

    @property
    def schemes(self) -> tuple[str, ...]:
        return SCHEMES if self.scheme == "both" else (self.scheme,)


def frame_bytes(packet_size: int, layout: FrameLayout) -> int:
    """On-air frame size: payload + encapsulation overhead + MAC header/FCS."""
    return packet_size + overhead_of(layout).total + MAC_OVERHEAD_BYTES


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


def _role_rates(scheme: str, packet_size: int,
                traffic: TrafficConfig) -> tuple[float, float, float]:
    """Microjoules one scenario's packets cost the route's source, each of
    its relays and its sink; they depend on neither the topology nor the
    route.  On each hop the receiver transmits the ack and the sender
    receives it."""
    packets = traffic.packets_per_scenario
    if scheme == "tkip":
        classes = [(packets, tkip_energy(packet_size, Case.NO_CACHE),
                    FrameLayout.TKIP_BASELINE)]
    else:
        n_first, n_refresh, n_b = lotkip_frame_classes(packets, traffic.refresh_interval)
        cached = tkip_energy(packet_size, Case.CACHE, False)
        classes = [
            (n_first, tkip_energy(packet_size, Case.CACHE, True),
             FrameLayout.LOTKIP_TYPE_A),
            (n_refresh, cached, FrameLayout.LOTKIP_TYPE_A),
            (n_b, cached, FrameLayout.LOTKIP_TYPE_B),
        ]
    ack_tx = ack_rx = 0.0
    if traffic.ack_enabled:
        ack_tx, ack_rx = tx_energy(ACK_BYTES), rx_energy(ACK_BYTES)
    source = relay = sink = 0.0
    for count, compute, layout in classes:
        size = frame_bytes(packet_size, layout)
        tx, rx = tx_energy(size), rx_energy(size)
        source += count * (compute + tx + ack_rx)
        relay += count * (rx + tx + ack_tx + ack_rx)
        sink += count * (rx + compute + ack_tx)
    return source, relay, sink


@dataclass
class SimResult:
    """Mean per-node energy ledgers (joules) per scheme and packet size."""

    placement: str
    node_count: int
    packet_sizes: tuple[int, ...]
    schemes: tuple[str, ...]
    scenario_count: int
    packets_per_scenario: int
    per_node_j: dict[tuple[str, int], np.ndarray]

    def network_energy(self, scheme: str, packet_size: int) -> float:
        return float(math.fsum(self.per_node_j[(scheme, packet_size)]))

    def per_node_mean(self, scheme: str, packet_size: int) -> float:
        return self.network_energy(scheme, packet_size) / self.node_count

    def efficiency_factor(self, packet_size: int) -> Optional[float]:
        if "tkip" not in self.schemes or "lotkip" not in self.schemes:
            return None
        return (self.network_energy("tkip", packet_size)
                / self.network_energy("lotkip", packet_size))


def _sample_pair(topology: Topology, rng: np.random.Generator,
                 max_tries: int = 1000) -> tuple[list[int], int]:
    n = topology.node_count
    for _ in range(max_tries):
        src = int(rng.integers(n))
        dst = int(rng.integers(n))
        if src == dst:
            continue
        path = route(topology, src, dst)
        if path is not None:
            return path, len(path) - 1
    raise ScenarioError("no connected node pair found after bounded resampling")


def _scenarios_per_chunk(n: int) -> int:
    """As many scenarios of n stations as fit in `TOPOLOGY_PAIR_BUDGET`, and
    at least one.  A scenario counts as its pairs plus 64 for its generator
    and neighbour lists, so tiny topologies do not pile up thousands of
    generators in one chunk."""
    return max(1, TOPOLOGY_PAIR_BUDGET // (n * (n - 1) // 2 + 64))


def run_experiment(topo_cfg: TopologyConfig, traffic: TrafficConfig) -> SimResult:
    """Average network energy over the configured random scenarios.

    Scenario s's topology is `generate_topology` seeded ``seed + (s, 0)``,
    decided with the other scenarios of its chunk."""
    n = topo_cfg.node_count
    source, relay, sink = [0] * n, [0] * n, [0] * n
    topo_seed = _normalize_seed(topo_cfg.seed)
    count = traffic.scenario_count
    chunk = _scenarios_per_chunk(n)
    for first in range(0, count, chunk):
        scenarios = range(first, min(first + chunk, count))
        topologies = _decide_topologies(
            topo_cfg, [topo_seed + (s, 0) for s in scenarios])
        for s, topology in zip(scenarios, topologies):
            pair_rng = np.random.default_rng((traffic.seed, s, 1))
            path, _ = _sample_pair(topology, pair_rng)
            source[path[0]] += 1
            for node in path[1:-1]:
                relay[node] += 1
            sink[path[-1]] += 1
    source, relay, sink = (np.array(c, dtype=float) for c in (source, relay, sink))
    per_node_j = {}
    for scheme in traffic.schemes:
        for p in traffic.packet_sizes:
            a, b, c = _role_rates(scheme, p, traffic)
            per_node_j[(scheme, p)] = ((a * source + b * relay + c * sink)
                                       * 1e-6 / traffic.scenario_count)
    return SimResult(
        placement=topo_cfg.placement,
        node_count=n,
        packet_sizes=traffic.packet_sizes,
        schemes=traffic.schemes,
        scenario_count=traffic.scenario_count,
        packets_per_scenario=traffic.packets_per_scenario,
        per_node_j=per_node_j,
    )


SERIES_CSV_HEADER = "P,scheme,placement,network_energy_J,per_node_J,efficiency_factor"


def emit_series(results: "SimResult | list[SimResult]") -> str:
    """CSV rows ordered by (P, scheme, placement); byte-stable across reruns."""
    if isinstance(results, SimResult):
        results = [results]
    rows = []
    for result in results:
        for p in result.packet_sizes:
            eff = result.efficiency_factor(p)
            for scheme in result.schemes:
                rows.append((
                    p, scheme, result.placement,
                    result.network_energy(scheme, p),
                    result.per_node_mean(scheme, p),
                    eff,
                ))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [SERIES_CSV_HEADER]
    for p, scheme, placement, network, per_node, eff in rows:
        eff_text = f"{eff:.6f}" if eff is not None else ""
        lines.append(f"{p},{scheme},{placement},{network:.6f},{per_node:.6f},{eff_text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario configuration files
# ---------------------------------------------------------------------------

_ACK_VALUES = {"on": True, "true": True, "1": True,
              "off": False, "false": False, "0": False}


def parse_scenario_config(text: str) -> tuple[list[TopologyConfig], TrafficConfig]:
    """Parse key=value lines into one topology config per requested placement
    plus the traffic config; '#' starts a comment."""
    fields = parse_key_values(
        text, ("nodes", "area_w", "area_h", "placement", "R", "alpha", "P_list",
               "packets", "scenarios", "scheme", "K", "ack", "seed"),
        ScenarioError)
    placement = fields.get("placement", "grid")
    placements = ("grid", "random") if placement == "both" else (placement,)
    ack = fields.get("ack", "off")
    if ack not in _ACK_VALUES:
        raise ScenarioError(
            f"invalid scenario config: ack must be one of {', '.join(_ACK_VALUES)}")
    try:
        seed = int(fields.get("seed", "1"))
        topo_cfgs = [
            TopologyConfig(
                node_count=int(fields.get("nodes", "49")),
                area_w=float(fields.get("area_w", "500")),
                area_h=float(fields.get("area_h", "500")),
                placement=pl,
                radio_range=float(fields.get("R", "120")),
                alpha=float(fields.get("alpha", "0.75")),
                seed=seed,
            )
            for pl in placements
        ]
        if "P_list" in fields:
            items = [v.strip() for v in fields["P_list"].split(",")]
            if "" in items:
                raise ValueError("P_list has an empty item")
            sizes = tuple(map(int, items))
        else:
            sizes = DEFAULT_PACKET_SIZES
        traffic = TrafficConfig(
            packet_sizes=sizes,
            packets_per_scenario=int(fields.get("packets", "10000")),
            scenario_count=int(fields.get("scenarios", "100")),
            scheme=fields.get("scheme", "both"),
            refresh_interval=int(fields.get("K", "256")),
            ack_enabled=_ACK_VALUES[ack],
            seed=seed,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario config: {exc}") from exc
    return topo_cfgs, traffic
