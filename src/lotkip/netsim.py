"""Quasi-unit-disk ad hoc topologies and network energy accounting.

Stations are placed on a grid or uniformly at random; two stations at
distance d are linked deterministically when d <= alpha*R, never when
d > R, and with probability (R - d) / (R - alpha*R) in between.  Only
pairs in that uncertain band draw: one batched draw per band pair, in
i<j row-major order, so the links equal those of `link_decide` called
pair by pair on hypot distances.  Squared offsets decide the pairs well
inside alpha*R or beyond R; hypot runs only on the band and on the pairs
within a relative 1e-9 of either squared threshold (`_link_classes`).  A
topology is its links and nothing else: a list of one integer bit mask per
station, bit j set when the station is linked to station j.

A run is routes first, charges second.  `_routes` streams each
scenario's min-hop route (`route` states how it breaks ties) between a
random connected source/destination pair.  A node's energy in one
scenario depends only on its role in that route: the source encrypts and
transmits each fixed-size packet, each relay receives and transmits it,
the sink receives and decrypts it, and every other node spends nothing;
with acks on, each hop's receiver also transmits an ack that its sender
receives.  So `run_experiment` counts each node's roles as the routes
come, keeps no route, and charges the counts at the roles' rates.

Scenario randomness is derived from (seed, scenario index) only, so the
same scenarios are replayed for every packet size and both encryption
schemes; energy comparisons therefore use common random numbers.  Each
scenario draws from two streams, ``(seed, s, 0)`` for its topology and
``(seed, s, 1)`` for its pair, from the one scenario seed, each exactly as
``np.random.default_rng`` would draw it.  `_routes` does not build those
generators: NEP 19 keeps numpy's SeedSequence hash and PCG64 seeding
fixed, so it hashes both streams' seeds for at least `_SEED_BATCH`
scenarios at a time (`_pcg64_states`), as uint32 rows of one length: the
seed's 32-bit words (`_seed_words`), then s, then the stream.  Every
placement of a `lotkip sim` call runs a batch before the next batch is
hashed.  The topologies set their states on the call's one generator;
each pair is drawn in pure Python from its stream's 32-bit PCG64 words
(`_pcg64_words`), bounded as numpy's `Generator.integers` bounds them.
It decides topologies in chunks of as many scenarios as fit in
`TOPOLOGY_PAIR_BUDGET` station pairs, and takes a chunk's float pair
offsets in blocks of at most `PAIR_BLOCK` = 2^13 pairs, which stay in
cache (`_pair_classes`).  What no seed changes is made once per call and
handed to every chunk: the i<j pair indices, a grid's pair classes
(`_fixed_links`), the generator, and each (scheme, P) role rate.  So its
memory does not grow with the scenario count: O(budget) per chunk,
O(2^13) per block of float offsets, plus one batch's seed states, plus
the call's pair indices and grid classes, O(n^2).  From n = 256 stations
a chunk holds one scenario, whose n(n-1)/2 pairs and n x n adjacency
matrix take O(n^2) too.  No cache outlives a call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional

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
# Station pairs `_routes` decides in one chunk of scenarios; see
# `_scenarios_per_chunk`.
TOPOLOGY_PAIR_BUDGET = 1 << 15
# Station pairs `_pair_classes` offsets and classes at a time: 64 KB per
# float64 array, small enough to stay on the allocator's heap and in cache.
PAIR_BLOCK = 1 << 13
# Scenarios whose seeds `_routes` hashes in one `_pcg64_states` call,
# rounded up to whole chunks: a call costs ~100 us however few seeds it has.
_SEED_BATCH = 256
# Source/destination draws a scenario makes before it gives up.
_PAIR_DRAWS = 1000
# Relative margin around (alpha*R)^2 and R^2 inside which `_link_classes`
# leaves a pair to hypot; squares of normal floats err by a few 1e-16.
_SQUARE_MARGIN = 1e-9
_TINY = np.finfo(float).tiny        # the smallest normal float


class ScenarioError(ValueError):
    """Raised when a scenario cannot be set up: a bad config value or no
    connected pair.  Both come from an impossible input, hence ValueError."""


@dataclass(frozen=True)
class TopologyConfig:
    node_count: int = 49
    area_w: float = 500.0
    area_h: float = 500.0
    placement: str = "grid"            # "grid" or "random"
    radio_range: float = 120.0
    alpha: float = 0.75
    seed: int = 1

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.placement not in ("grid", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if not 0 < self.radio_range < math.inf:
            raise ValueError("radio_range must be positive and finite")
        if not (0 < self.area_w < math.inf and 0 < self.area_h < math.inf):
            raise ValueError("area_w and area_h must be positive and finite")
        # numpy seeds a generator only from non-negative integers
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# constants, fixed by NEP 19
_POOL_WORDS = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2^32 for k < count, the multipliers a
    SeedSequence hash steps through."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _seed_words(seed: int) -> list[int]:
    """SeedSequence's entropy words for one non-negative int: its 32-bit
    words, least significant first, with 0 as one word."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """The PCG64 state ``np.random.default_rng(tuple(row)).bit_generator.state``
    starts from, for every row of ``entropy``, without building a generator.

    ``entropy`` holds equal-length rows of uint32 entropy words, one row per
    seed: `_seed_words` of a run's seed, then the scenario index and the
    stream.  Each row runs SeedSequence's hash on uint32 columns: its
    `hashmix` of each entropy word into a pool of four (short rows padded
    with zero words, as SeedSequence pads them), the `mix` of every pool
    word into every other, the `mix` of each word beyond the fourth into
    every pool word, then `generate_state(4, np.uint64)`.  PCG64 seeds from
    those words ``w0..w3``: with ``inc = (w2:w3) << 1 | 1`` it steps from 0,
    adds ``w0:w1``, and steps again.  A row's hash multipliers depend only
    on how many hashes came before, so all rows share them."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    width = max(_POOL_WORDS, entropy.shape[1])
    entropy = np.pad(entropy, ((0, 0), (0, width - entropy.shape[1])))
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
        pool = mix(pool, hashmix(entropy[:, src, None], _POOL_WORDS))
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


def _link_classes(dx: np.ndarray, dy: np.ndarray, r: float,
                  near: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat linked mask, band mask and band probabilities of the pairs at
    offsets (dx, dy): `link_decide`'s rule on ``np.hypot(dx, dy)``, bit for
    bit, with hypot only where the rule needs it.

    ``dx*dx + dy*dy`` is within a few ulp of the true squared distance, so
    a pair whose square is below near^2 by more than the relative margin
    `_SQUARE_MARGIN` is linked, and one above R^2 by more than it is not.
    Every other pair, each band pair among them, takes hypot and the rule
    as it stands.  The squares' rounding bound holds only for thresholds
    in the normal float range: a near^2 outside it decides no pair by its
    square, and an R^2 outside it sends every pair to hypot."""
    dx, dy = dx.ravel(), dy.ravel()
    with np.errstate(over="ignore"):    # a square past the floats is inf
        square = dx * dx
        square += dy * dy
    low, high = 0.0, math.inf
    r2, near2 = r * r, near * near
    if _TINY <= r2 and r2 * (1 + _SQUARE_MARGIN) < math.inf:
        high = r2 * (1 + _SQUARE_MARGIN)
        if near2 >= _TINY:
            low = near2 * (1 - _SQUARE_MARGIN)
    linked = square < low
    exact = np.flatnonzero((square >= low) & (square <= high))
    dist = np.hypot(dx[exact], dy[exact])
    near_linked = dist <= near
    linked[exact] = near_linked
    in_band = ~near_linked & (dist <= r)
    band = np.zeros(linked.shape, dtype=bool)
    band[exact[in_band]] = True
    return linked, band, (r - dist[in_band]) / (r - near)


def _pair_classes(cfg: TopologyConfig, xy: np.ndarray,
                  pairs: tuple[np.ndarray, np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_link_classes` of the i<j ``pairs`` of each row of station positions
    ``xy`` (rows x n x 2), flat and row-major.

    Offsets are taken and classed in blocks of at most `PAIR_BLOCK` pairs:
    whole rows while they fit, else consecutive slices of one row's pairs.
    The blocks' results are joined in row-major order, so they equal one
    `_link_classes` call on all the offsets, bit for bit.  A block's float
    arrays take at most 64 KB, which the allocator reuses from its heap and
    the cache still holds.  A whole 26-scenario chunk's offsets, 239 KB per
    array, go back to the system after every chunk and are faulted in again
    by the next: 530-570 minor page faults per paper-scenario `lotkip sim`
    call, against 0-9 with blocks."""
    i, j = pairs
    x, y = xy.transpose(2, 0, 1)
    rows_per_block = max(1, PAIR_BLOCK // i.size)
    step = min(i.size, PAIR_BLOCK)
    parts = []
    for row in range(0, len(xy), rows_per_block):
        xs, ys = x[row:row + rows_per_block], y[row:row + rows_per_block]
        for lo in range(0, i.size, step):
            a, b = i[lo:lo + step], j[lo:lo + step]
            parts.append(_link_classes(xs.take(a, axis=1) - xs.take(b, axis=1),
                                       ys.take(a, axis=1) - ys.take(b, axis=1),
                                       cfg.radio_range, cfg.alpha * cfg.radio_range))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _fixed_links(cfg: TopologyConfig, pairs: tuple[np.ndarray, np.ndarray]
                 ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """What no seed changes in the topologies of ``cfg``: for a grid, the
    `_pair_classes` of its ``pairs``; None for a random placement.  The
    grid's positions are not kept."""
    if cfg.placement != "grid":
        return None
    return _pair_classes(cfg, _grid_positions(cfg)[None], pairs)


def _decide_topologies(cfg: TopologyConfig, states: list[dict],
                       rng: np.random.Generator,
                       pairs: tuple[np.ndarray, np.ndarray],
                       fixed: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]
                       ) -> list[list[int]]:
    """The link masks of ``cfg``'s topology under each seed's PCG64 state
    (`_pcg64_states`), all seeds' pairs at once: ``pairs`` holds the i<j
    station indices, and ``fixed`` is `_fixed_links` of ``cfg`` and
    ``pairs``.  A topology is its list of n masks, bit j of ``masks[i]``
    set when stations i and j are linked; no positions are kept.

    Each seed's stream is drawn exactly as if its topology were decided
    alone: the random positions first, then one draw per band pair in i<j
    row-major order.  So each topology makes the same decisions, from the
    same draws, as calling `link_decide` on its pairs in that order: only
    band pairs draw, and `rng.random(k)` returns the same values as k
    scalar `rng.random()` calls.  ``rng`` takes each seed's state in turn;
    a random placement's band draws skip its 2n position draws with
    `advance`.  `rng.random((n, 2)) * (w, h)` returns the bits of
    `rng.uniform((0, 0), (w, h), (n, 2))` at a fraction of its cost.  Grid
    positions do not depend on the seed, so their pair classes are
    computed once and repeated.  `_link_classes` decides each pair from its
    squared offset and calls hypot only on the band and on the pairs near
    either threshold.  Pair arrays are flat and seed-major.
    """
    n = cfg.node_count
    count = len(states)
    bits = rng.bit_generator
    i, j = pairs
    size = i.size
    if fixed is None:
        area = np.array((cfg.area_w, cfg.area_h))
        positions = []
        for state in states:
            bits.state = state
            positions.append(rng.random((n, 2)) * area)
        linked, band, prob = _pair_classes(cfg, np.stack(positions), pairs)
        skip = 2 * n
    else:
        linked, band, prob = (np.tile(a, count) for a in fixed)
        skip = 0
    draws = []
    for state, k in zip(states, band.reshape(count, size).sum(axis=1).tolist()):
        bits.state = state
        if skip:
            bits.advance(skip)
        draws.append(rng.random(k))
    linked[band] = np.concatenate(draws) < prob
    # one scatter into all seeds' adjacency matrices, count*n rows of n, in
    # which seed s numbers its stations from s*n
    k = np.flatnonzero(linked)
    s = k // size
    pair = k - s * size
    u, v = i[pair], j[pair]
    adjacent = np.zeros(count * n * n, dtype=bool)
    adjacent[(s * n + u) * n + v] = True
    adjacent[(s * n + v) * n + u] = True
    masks = _link_masks(adjacent.reshape(count * n, n))
    return [masks[s * n:(s + 1) * n] for s in range(count)]


def generate_topology(cfg: TopologyConfig) -> list[int]:
    """The link masks of ``cfg``'s topology: place the stations, then
    decide every i<j pair at once, drawing as
    ``np.random.default_rng(cfg.seed)`` would.  `_routes` decides
    scenario s's topology the same way, from stream ``(seed, s, 0)`` of the
    one scenario seed; the scenario's pair draws from ``(seed, s, 1)``."""
    pairs = np.triu_indices(cfg.node_count, 1)
    rng = np.random.Generator(np.random.PCG64(0))    # takes the seed's state
    return _decide_topologies(cfg, _pcg64_states([_seed_words(cfg.seed)]), rng,
                              pairs, _fixed_links(cfg, pairs))[0]


def route(masks: list[int], src: int, dst: int) -> Optional[list[int]]:
    """Minimum-hop path over a topology's link ``masks``, or None if the
    pair is disconnected.

    Breadth first from ``src``: stations leave the queue in the order they
    joined it, and each joins it once, from the first station it is
    linked to, in ascending index order among that station's new
    neighbours.  So of several min-hop paths this is the one whose
    stations joined the queue first.  A station's path is fixed when it
    joins, so the search stops when ``dst`` would join."""
    if src == dst:
        raise ValueError("src and dst must differ")
    parent = [src] * len(masks)
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
        # `_routes` hashes each scenario index as one uint32 word
        if self.scenario_count > 1 << 32:
            raise ValueError(
                f"scenario_count must be at most 2**32, got {self.scenario_count}")
        if self.refresh_interval < 1:
            raise ValueError("refresh_interval must be positive")

    @property
    def schemes(self) -> tuple[str, ...]:
        return SCHEMES if self.scheme == "both" else (self.scheme,)


def frame_bytes(packet_size: int, layout: FrameLayout) -> int:
    """On-air frame size: payload + encapsulation overhead + MAC header/FCS."""
    return packet_size + overhead_of(layout).total + MAC_OVERHEAD_BYTES


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
    per_node_j: dict[tuple[str, int], np.ndarray]

    def network_energy(self, scheme: str, packet_size: int) -> float:
        return math.fsum(self.per_node_j[(scheme, packet_size)].tolist())

    def per_node_mean(self, scheme: str, packet_size: int) -> float:
        return self.network_energy(scheme, packet_size) / self.node_count

    def efficiency_factor(self, packet_size: int) -> Optional[float]:
        if "tkip" not in self.schemes or "lotkip" not in self.schemes:
            return None
        return (self.network_energy("tkip", packet_size)
                / self.network_energy("lotkip", packet_size))


def _pcg64_words(state: int, inc: int) -> Iterator[int]:
    """The 32-bit words a PCG64 generator at ``(state, inc)`` gives
    `Generator.integers` with a 32-bit bound: each step of the 128-bit LCG
    yields its XSL-RR output's low half, then its high half."""
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        high = state >> 64
        rot = high >> 58
        word = (high ^ state) & _MASK64
        word = (word >> rot | word << (64 - rot)) & _MASK64
        yield word & _MASK32
        yield word >> 32


def _draw_below(words: Iterator[int], n: int) -> int:
    """One integer in [0, n) by Lemire's bounded multiply, as numpy's
    ``buffered_bounded_lemire_uint32`` draws it for n <= 2**32: ``m = word
    * n``, with the next word while ``m mod 2**32 < 2**32 mod n``, then
    ``m >> 32``."""
    reject = (1 << 32) % n
    m = next(words) * n
    while m & _MASK32 < reject:
        m = next(words) * n
    return m >> 32


def _sample_pair(masks: list[int], words: Iterator[int]) -> list[int]:
    """The route over link ``masks`` between the first linked pair of
    distinct stations drawn from the 32-bit ``words`` of a PCG64 stream
    (`_pcg64_words`), in at most `_PAIR_DRAWS` draws.

    Source and destination are each drawn as ``int(rng.integers(n))`` draws
    them from that stream's generator: numpy's Lemire bound for n <= 2**32
    (`_draw_below`), which every topology that can be decided meets."""
    n = len(masks)
    for _ in range(_PAIR_DRAWS):
        src = _draw_below(words, n)
        dst = _draw_below(words, n)
        if src == dst:
            continue
        path = route(masks, src, dst)
        if path is not None:
            return path
    raise ScenarioError("no connected node pair found after bounded resampling")


def _scenarios_per_chunk(n: int) -> int:
    """As many scenarios of n stations as fit in `TOPOLOGY_PAIR_BUDGET`, and
    at least one.  A scenario counts as its pairs plus 64 for its seed state
    and link masks, so tiny topologies do not pile up thousands of
    scenarios in one chunk."""
    return max(1, TOPOLOGY_PAIR_BUDGET // (n * (n - 1) // 2 + 64))


def _routes(topo_cfgs: list[TopologyConfig],
            traffic: TrafficConfig) -> Iterator[tuple[int, int, list[int]]]:
    """Each scenario's route, as ``(k, s, path)`` for ``topo_cfgs[k]`` and
    scenario s, by seed batch, then config, then chunk, then scenario.
    Scenario s's topology is `generate_topology`'s from stream ``(seed, s,
    0)``, decided with the rest of its chunk; its pair is `_sample_pair`
    drawing from stream ``(seed, s, 1)``."""
    base = topo_cfgs[0]
    n, seed, count = base.node_count, base.seed, traffic.scenario_count
    seed_words = _seed_words(seed)
    chunk = _scenarios_per_chunk(n)
    batch = chunk * -(-_SEED_BATCH // chunk)
    pairs = np.triu_indices(n, 1)
    rng = np.random.Generator(np.random.PCG64(0))    # takes each seed's state
    fixed = [_fixed_links(cfg, pairs) for cfg in topo_cfgs]
    for first in range(0, count, batch):
        scenarios = range(first, min(first + batch, count))
        states = _pcg64_states([[*seed_words, s, j] for j in (0, 1)
                                for s in scenarios])
        topo_states, pair_states = states[:len(scenarios)], states[len(scenarios):]
        for k, (cfg, links) in enumerate(zip(topo_cfgs, fixed)):
            for c in range(0, len(scenarios), chunk):
                topologies = _decide_topologies(cfg, topo_states[c:c + chunk],
                                                rng, pairs, links)
                for s, masks, state in zip(scenarios[c:c + chunk], topologies,
                                           pair_states[c:c + chunk]):
                    words = _pcg64_words(state["state"]["state"], state["state"]["inc"])
                    try:
                        path = _sample_pair(masks, words)
                    except ScenarioError as exc:
                        raise ScenarioError(f"scenario {s} ({cfg.placement} placement, "
                                            f"seed {seed}): {exc}") from exc
                    yield k, s, path


def run_experiment(topo_cfgs: list[TopologyConfig],
                   traffic: TrafficConfig) -> list[SimResult]:
    """Average network energy over the configured random scenarios, one
    result per topology config, in order.  The configs may differ only in
    placement, so that they run the same scenarios (`_routes`); each
    charges its nodes' route roles at every (scheme, P)'s role rates."""
    if not topo_cfgs:
        raise ValueError("run_experiment needs at least one topology config")
    base = topo_cfgs[0]
    if any(replace(cfg, placement=base.placement) != base for cfg in topo_cfgs):
        raise ValueError("topology configs may differ only in placement")
    n, count = base.node_count, traffic.scenario_count
    roles = [([0] * n, [0] * n, [0] * n) for _ in topo_cfgs]
    for k, _, path in _routes(topo_cfgs, traffic):
        source, relay, sink = roles[k]
        source[path[0]] += 1
        for node in path[1:-1]:
            relay[node] += 1
        sink[path[-1]] += 1
    rates = {(scheme, p): _role_rates(scheme, p, traffic)
             for scheme in traffic.schemes for p in traffic.packet_sizes}
    results = []
    for cfg, counts in zip(topo_cfgs, roles):
        source, relay, sink = (np.array(c, dtype=float) for c in counts)
        per_node_j = {key: (a * source + b * relay + c * sink) * 1e-6 / count
                      for key, (a, b, c) in rates.items()}
        results.append(SimResult(cfg.placement, n, traffic.packet_sizes,
                                 traffic.schemes, per_node_j))
    return results


SERIES_CSV_HEADER = "P,scheme,placement,network_energy_J,per_node_J,efficiency_factor"


def emit_series(results: list[SimResult]) -> str:
    """CSV rows ordered by (P, scheme, placement); byte-stable across reruns."""
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


def _ack(text: str) -> bool:
    if text not in _ACK_VALUES:
        raise ValueError(f"ack must be one of {', '.join(_ACK_VALUES)}")
    return _ACK_VALUES[text]


def _packet_sizes(text: str) -> tuple[int, ...]:
    items = [v.strip() for v in text.split(",")]
    if "" in items:
        raise ValueError("P_list has an empty item")
    return tuple(map(int, items))


_SCENARIO_FIELDS = {
    "nodes": ("node_count", int),
    "area_w": ("area_w", float),
    "area_h": ("area_h", float),
    "placement": ("placement", lambda v: ("grid", "random") if v == "both" else (v,)),
    "R": ("radio_range", float),
    "alpha": ("alpha", float),
    "seed": ("seed", int),
    "P_list": ("packet_sizes", _packet_sizes),
    "packets": ("packets_per_scenario", int),
    "scenarios": ("scenario_count", int),
    "scheme": ("scheme", str),
    "K": ("refresh_interval", int),
    "ack": ("ack_enabled", _ack),
}


def parse_scenario_config(text: str) -> tuple[list[TopologyConfig], TrafficConfig]:
    """Parse key=value lines ('#' starts a comment) into one topology config
    per requested placement plus the traffic config."""
    values = parse_key_values(text, _SCENARIO_FIELDS, ScenarioError)
    placements = values.pop("placement", (TopologyConfig.placement,))
    topology = {f.name: values.pop(f.name) for f in fields(TopologyConfig)
                if f.name in values}
    try:
        topo_cfgs = [TopologyConfig(**topology, placement=p) for p in placements]
        return topo_cfgs, TrafficConfig(**values)
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario config: {exc}") from exc
