"""Quasi-unit-disk ad hoc topologies and network energy accounting.

Stations are placed on a grid or uniformly at random; two stations at
distance d are linked deterministically when d <= alpha*R, never when
d > R, and with probability (R - d) / (R - alpha*R) in between.  Only
pairs in that uncertain band draw: one batched draw per band pair, in
i<j row-major order, so the links equal those of `link_decide` called
pair by pair.  A topology keeps its links as one integer bit mask per
station, bit j set when the station is linked to station j.

Traffic scenarios pick random connected source/destination pairs and push
a stream of fixed-size packets along the min-hop route that `route`
finds, which also states how it breaks ties.  A node's energy in one
scenario depends only on its role in that route: the source encrypts and
transmits, each relay receives and transmits, the sink receives and
decrypts, and every other node spends nothing.  With acks on, each hop's
receiver also transmits an ack that its sender receives.  So
`run_experiment` counts how often each node held each role and charges
the counts at the per-scenario rate of the role.

Scenario randomness is derived from (seed, scenario index) only, so the
same scenarios are replayed for every packet size and both encryption
schemes; energy comparisons therefore use common random numbers.  Each
scenario draws from two streams, its topology's, seeded ``seed + (s, 0)``,
and its pair's, seeded ``(traffic seed, s, 1)``, each exactly as
``np.random.default_rng(seed)`` would draw it.  `run_experiment` does not
build those generators: NEP 19 keeps numpy's SeedSequence hash and PCG64
seeding fixed, so it hashes both streams' seeds for at least
`_SEED_BATCH` scenarios at a time (`_pcg64_states`) and sets each state
on a reused generator, one per run for the pairs and one per chunk for
the topologies.  It decides topologies in chunks of as many scenarios as fit
in `TOPOLOGY_PAIR_BUDGET` station pairs.  So its memory does not grow with
the scenario count: O(budget) per chunk, plus the seed states of one
batch.  From n = 256 stations a chunk holds one scenario, whose n(n-1)/2
pairs and n x n adjacency matrix take O(n^2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
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
# Scenarios whose seeds `run_experiment` hashes in one `_pcg64_states` call,
# rounded up to whole chunks: a call costs ~100 us however few seeds it has.
_SEED_BATCH = 256


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


class Topology:
    """Station positions, in meters, and links.  Bit j of ``masks[i]`` is
    set when stations i and j are linked; a topology can also be built from
    sorted neighbour lists, and ``neighbors`` lists each station's links in
    ascending order."""

    def __init__(self, positions: np.ndarray,
                 neighbors: Optional[list[list[int]]] = None, *,
                 masks: Optional[list[int]] = None) -> None:
        self.positions = positions
        if masks is None:
            masks = [sum(1 << j for j in nbrs) for nbrs in neighbors]
        self.masks = masks

    @property
    def node_count(self) -> int:
        return len(self.masks)

    @cached_property
    def neighbors(self) -> list[list[int]]:
        stations = range(len(self.masks))
        return [[j for j in stations if mask >> j & 1] for mask in self.masks]

    def degree(self, node: int) -> int:
        return self.masks[node].bit_count()


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# constants, fixed by NEP 19
_POOL_WORDS = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2^32 for k < count, the multipliers a
    SeedSequence hash steps through."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _seed_words(seed: "int | tuple[int, ...]") -> tuple[int, ...]:
    """SeedSequence's entropy words: each value's 32-bit words, least
    significant first, with 0 as one word."""
    seed = _normalize_seed(seed)
    if max(seed, default=0) <= _MASK32:
        return seed
    words = []
    for value in seed:
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return tuple(words)


def _pcg64_states(seeds: "list[int | tuple[int, ...]]") -> list[dict]:
    """The PCG64 state ``np.random.default_rng(seed).bit_generator.state``
    starts from, for every seed, without building a generator.

    One row per seed runs SeedSequence's hash on uint32 columns: its
    `hashmix` of each entropy word into a pool of four, the `mix` of every
    pool word into every other, the `mix` of each word beyond the fourth
    into every pool word (skipped for the rows of shorter seeds), then
    `generate_state(4, np.uint64)`.  PCG64 seeds from those words
    ``w0..w3``: with ``inc = (w2:w3) << 1 | 1`` it steps from 0, adds
    ``w0:w1``, and steps again.  A row's hash multipliers depend only on how
    many hashes came before, so all rows share them."""
    rows = [_seed_words(seed) for seed in seeds]
    lengths = np.array([len(row) for row in rows])
    width = max(_POOL_WORDS, int(lengths.max()))
    entropy = np.zeros((len(rows), width), dtype=np.uint32)
    entropy[np.arange(width) < lengths[:, None]] = list(chain.from_iterable(rows))
    hashes = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * width + 1)
    used = 0

    def hashmix(values: np.ndarray, k: int) -> np.ndarray:
        # k hashes in a row, column c the (used + c)-th of the run
        nonlocal used
        v = (values ^ hashes[used:used + k]) * hashes[used + 1:used + k + 1]
        used += k
        return v ^ (v >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> _XSHIFT)

    pool = hashmix(entropy[:, :_POOL_WORDS], _POOL_WORDS)
    for src in range(_POOL_WORDS):
        # the other words, in order; each mixes in the same source word
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], len(dst)))
    for src in range(_POOL_WORDS, width):
        mixed = mix(pool, hashmix(entropy[:, src, None], _POOL_WORDS))
        pool = np.where((src < lengths)[:, None], mixed, pool)
    state_hashes = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
    v = (np.tile(pool, 2) ^ state_hashes[:-1]) * state_hashes[1:]
    v = (v ^ (v >> _XSHIFT)).astype(np.uint64)
    states = []
    for w0, w1, w2, w3 in (v[:, 0::2] | v[:, 1::2] << np.uint64(32)).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _reseedable_generator() -> np.random.Generator:
    """A PCG64 generator for callers that set its state before each use."""
    return np.random.Generator(np.random.PCG64(0))


def _link_masks(adjacent: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an integer, bit j from column j."""
    rows, n = adjacent.shape
    packed = np.packbits(adjacent, axis=1, bitorder="little")
    words = -(-n // 64)
    padded = np.zeros((rows, 8 * words), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    columns = padded.view("<u8").T.tolist()
    masks = columns[0]
    for shift, column in enumerate(columns[1:], 1):
        masks = [m | c << 64 * shift for m, c in zip(masks, column)]
    return masks


def _decide_topologies(cfg: TopologyConfig, states: list[dict]) -> list[Topology]:
    """The topology of ``cfg`` under each seed's PCG64 state (`_pcg64_states`),
    all seeds' pairs at once.

    Each seed's stream is drawn exactly as if its topology were decided
    alone: the random positions first, then one draw per band pair in i<j
    row-major order.  So each topology makes the same decisions, from the
    same draws, as calling `link_decide` on its pairs in that order: only
    band pairs draw, and `rng.random(k)` returns the same values as k
    scalar `rng.random()` calls.  One generator takes each seed's state in
    turn; a random placement's band draws skip its 2n position draws with
    `advance`.  `rng.random((n, 2)) * (w, h)` returns the bits of
    `rng.uniform((0, 0), (w, h), (n, 2))` at a fraction of its cost.  Grid
    positions do not depend on the seed, so their distances and band
    decisions are computed once and repeated.  Pair arrays are flat and
    seed-major.
    """
    n = cfg.node_count
    count = len(states)
    rng = _reseedable_generator()
    bits = rng.bit_generator
    if cfg.placement == "grid":
        positions = [_grid_positions(cfg)] * count
        xy = positions[0][None]
        skip = 0
    else:
        area = np.array((cfg.area_w, cfg.area_h))
        positions = []
        for state in states:
            bits.state = state
            positions.append(rng.random((n, 2)) * area)
        xy = np.stack(positions)
        skip = 2 * n
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
    draws = []
    for state, k in zip(states, band.reshape(count, pairs).sum(axis=1).tolist()):
        bits.state = state
        if skip:
            bits.advance(skip)
        draws.append(rng.random(k))
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
    masks = _link_masks(adjacent.reshape(count * n, n))
    return [Topology(pos, masks=masks[s * n:(s + 1) * n])
            for s, pos in enumerate(positions)]


def generate_topology(cfg: TopologyConfig) -> Topology:
    """Place the stations, then decide every i<j pair at once; the topology
    that `run_experiment` decides for a scenario seeded ``cfg.seed``."""
    return _decide_topologies(cfg, _pcg64_states([cfg.seed]))[0]


def route(topology: Topology, src: int, dst: int) -> Optional[list[int]]:
    """Minimum-hop path, or None if the pair is disconnected.

    Breadth first from ``src``: stations leave the queue in the order they
    joined it, and each joins it once, from the first station it is
    linked to, in ascending index order among that station's new
    neighbours.  So of several min-hop paths this is the one whose
    stations joined the queue first.  A station's path is fixed when it
    joins, so the search stops when ``dst`` would join."""
    if src == dst:
        raise ValueError("src and dst must differ")
    masks = topology.masks
    parent = {src: src}
    reached = 1 << src
    target = 1 << dst
    queue = [src]
    for node in queue:              # the loop also visits what it appends
        new = masks[node] & ~reached
        if new & target:
            path = [dst]
            while node != src:
                path.append(node)
                node = parent[node]
            path.append(src)
            return path[::-1]
        reached |= new
        while new:
            low = new & -new
            nxt = low.bit_length() - 1
            parent[nxt] = node
            queue.append(nxt)
            new ^= low
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
    at least one.  A scenario counts as its pairs plus 64 for its seed state
    and link masks, so tiny topologies do not pile up thousands of
    scenarios in one chunk."""
    return max(1, TOPOLOGY_PAIR_BUDGET // (n * (n - 1) // 2 + 64))


def run_experiment(topo_cfg: TopologyConfig, traffic: TrafficConfig) -> SimResult:
    """Average network energy over the configured random scenarios.

    Scenario s's topology is `generate_topology` seeded ``seed + (s, 0)``,
    decided with the other scenarios of its chunk, and its pair is
    `_sample_pair` drawing from ``np.random.default_rng((traffic.seed, s,
    1))``.  Both streams' seeds are hashed for whole chunks of at least
    `_SEED_BATCH` scenarios at once, and the pairs draw from one generator
    that takes each scenario's state in turn."""
    n = topo_cfg.node_count
    source, relay, sink = [0] * n, [0] * n, [0] * n
    topo_seed = _normalize_seed(topo_cfg.seed)
    count = traffic.scenario_count
    chunk = _scenarios_per_chunk(n)
    batch = chunk * -(-_SEED_BATCH // chunk)
    pair_rng = _reseedable_generator()
    for first in range(0, count, batch):
        scenarios = range(first, min(first + batch, count))
        states = _pcg64_states([topo_seed + (s, 0) for s in scenarios]
                               + [(traffic.seed, s, 1) for s in scenarios])
        topo_states, pair_states = states[:len(scenarios)], states[len(scenarios):]
        for c in range(0, len(scenarios), chunk):
            topologies = _decide_topologies(topo_cfg, topo_states[c:c + chunk])
            for topology, state in zip(topologies, pair_states[c:c + chunk]):
                pair_rng.bit_generator.state = state
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
