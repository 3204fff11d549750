"""Deterministic discrete-event simulation of mining networks.

Miners find blocks as independent exponential arrivals (rate = hashrate
fraction / mean block interval); blocks propagate over links with a fixed or
uniform delay, partitions hold traffic at the cut until they heal, and nodes
follow longest-chain fork choice with first-seen tie-breaking.

The double-spend attacker waits out the victim's confirmation window, then
races a withheld private fork from the pre-payment block.  The attack is
scored a success when the private fork first pulls level with the public
chain -- the classic gambler's-ruin boundary.  `catchup_probability`
returns the acceptance oracle (q/(1-q))**z for an attacker with hashrate
share q < 1/2: the limit of this model's success probability as the block
horizon and the give-up margin grow.  Where they bind the oracle runs
high: by about 21% at q = 0.3, z = 3, a 100-block horizon and a margin of
2, and at q >= 1/2 the race can still run out of blocks.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .configio import as_bool, as_float, as_float_list, as_int, as_str_list, given

HONEST = "honest"
ATTACKER = "attacker"

DEFAULT_ABANDON_MARGIN = 64
DEFAULT_HORIZON_BLOCKS = 10_000  # the race Monte Carlo's block horizon


class ConfigurationError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class MinerSpec:
    miner_id: str
    fraction: float
    role: str = HONEST

    def __post_init__(self):
        if self.role not in (HONEST, ATTACKER):
            raise ConfigurationError(f"unknown role {self.role!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("hashrate fraction must be in [0, 1]")


@dataclass(frozen=True)
class PartitionWindow:
    start: float
    end: float
    side: frozenset

    def __post_init__(self):
        object.__setattr__(self, "side", frozenset(self.side))
        # Written so that a nan bound fails it too.
        if not (0 <= self.start < self.end and math.isfinite(self.end)):
            raise ConfigurationError("partition window needs 0 <= start < end < inf")


@dataclass(frozen=True)
class SimScenario:
    seed: int
    miners: tuple[MinerSpec, ...]
    mean_block_interval: float = 600.0
    latency: tuple = (0.0, 0.0)  # (lo, hi) uniform range
    horizon_blocks: Optional[int] = None
    horizon_seconds: Optional[float] = None
    confirmations: int = 6
    partitions: tuple[PartitionWindow, ...] = ()
    integrated: bool = False
    abandon_margin: int = DEFAULT_ABANDON_MARGIN

    def __post_init__(self):
        object.__setattr__(self, "miners", tuple(self.miners))
        object.__setattr__(self, "partitions",
                           tuple(sorted(self.partitions, key=lambda w: w.start)))
        ids = [m.miner_id for m in self.miners]
        if not ids:
            raise ConfigurationError("at least one miner required")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("miner ids must be unique")
        total = sum(m.fraction for m in self.miners)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"hashrate fractions sum to {total}, not 1")
        if sum(1 for m in self.miners if m.role == ATTACKER) > 1:
            raise ConfigurationError("at most one attacker is supported")
        if self.horizon_blocks is None and self.horizon_seconds is None:
            raise ConfigurationError("set horizon_blocks or horizon_seconds")
        if self.horizon_blocks is not None and self.horizon_blocks <= 0:
            raise ConfigurationError("horizon_blocks must be positive")
        if self.horizon_seconds is not None and self.horizon_seconds <= 0:
            raise ConfigurationError("horizon_seconds must be positive")
        if self.mean_block_interval <= 0:
            raise ConfigurationError("mean_block_interval must be positive")
        if self.confirmations < 0:
            raise ConfigurationError("confirmations must be >= 0")
        if self.abandon_margin < 1:
            raise ConfigurationError("abandon_margin must be >= 1")
        lo, hi = self.latency
        if lo < 0 or hi < lo:
            raise ConfigurationError("latency range needs 0 <= lo <= hi")
        object.__setattr__(self, "latency", (float(lo), float(hi)))
        id_set = set(ids)
        prev_end = -math.inf
        for w in self.partitions:
            if not w.side or not w.side < id_set:
                raise ConfigurationError(
                    "partition side must be a nonempty proper subset of miners")
            if w.start < prev_end:
                raise ConfigurationError("partition windows must not overlap")
            if self.horizon_seconds is not None and w.end > self.horizon_seconds:
                raise ConfigurationError("partition window exceeds the horizon")
            prev_end = w.end
        if self.integrated and (self.partitions or self.attacker() is not None):
            raise ConfigurationError(
                "integrated mode supports honest, unpartitioned scenarios only")
        if self.integrated and (self.latency != (0.0, 0.0)
                                or self.horizon_seconds is not None):
            raise ConfigurationError(
                "integrated mode takes neither latency nor horizon_seconds")
        if self.integrated and (self.horizon_blocks is None
                                or self.horizon_blocks > 500):
            raise ConfigurationError(
                "integrated mode needs horizon_blocks <= 500")

    def attacker(self) -> Optional[MinerSpec]:
        for m in self.miners:
            if m.role == ATTACKER:
                return m
        return None


@dataclass(frozen=True)
class BlockRecord:
    block_id: int
    parent_id: int
    height: int
    miner: str
    time: float
    private: bool


@dataclass(frozen=True)
class DivergenceReport:
    time: float
    depth_a: int
    depth_b: int


@dataclass(frozen=True)
class SimResult:
    node_tips: dict
    node_heights: dict
    reorg_counts: dict
    attacker_success: Optional[bool]
    timeline: tuple[BlockRecord, ...]
    divergences: tuple[DivergenceReport, ...]
    stats: dict

    def to_dict(self, timeline: bool = True) -> dict:
        """The run as a record; without the timeline if `timeline` is false."""
        row = {
            "node_tips": dict(self.node_tips),
            "node_heights": dict(self.node_heights),
            "reorg_counts": dict(self.reorg_counts),
            "attacker_success": self.attacker_success,
        }
        if timeline:
            row["timeline"] = [vars(r).copy() for r in self.timeline]
        row["divergences"] = [vars(d).copy() for d in self.divergences]
        row["stats"] = dict(self.stats)
        return row


# ---------------------------------------------------------------------------
# key=value scenario configuration

# Schema for the plain-text scenario format (see opow.configio):
#   miners     = h1:0.35, h2:0.35, att:0.3:attacker
#   latency    = 5            (fixed seconds)  or  1,10  (uniform range)
#   partitions = 0:6000:h1|att, ...
SCENARIO_SCHEMA = {
    "miners": as_str_list,
    "mean_block_interval": as_float,
    "latency": as_float_list,
    "horizon_blocks": as_int,
    "horizon_seconds": as_float,
    "confirmations": as_int,
    "partitions": as_str_list,
    "abandon_margin": as_int,
    "integrated": as_bool,
}


def scenario_from_config(cfg: dict, seed: int) -> SimScenario:
    """Build a SimScenario from a parsed key=value configuration."""
    if "miners" not in cfg:
        raise ConfigurationError("scenario config needs a miners list")
    miners = []
    for item in cfg["miners"]:
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(f"bad miner spec {item!r}, "
                                     "expected id:fraction[:role]")
        role = parts[2] if len(parts) == 3 else HONEST
        try:
            fraction = float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad miner fraction in {item!r}") from exc
        miners.append(MinerSpec(parts[0], fraction, role))
    kwargs = given(cfg, "mean_block_interval", "horizon_blocks",
                   "horizon_seconds", "confirmations", "integrated",
                   "abandon_margin")
    if "latency" in cfg:
        values = cfg["latency"]
        if len(values) not in (1, 2):
            raise ConfigurationError("latency takes one value or a lo,hi pair")
        kwargs["latency"] = (values[0], values[-1])
    partitions = []
    for item in cfg.get("partitions", []):
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"bad partition {item!r}, "
                                     "expected start:end:id|id|..")
        try:
            start, end = as_float(parts[0]), as_float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad partition times in {item!r}") from exc
        side = frozenset(s for s in parts[2].split("|") if s)
        partitions.append(PartitionWindow(start, end, side))
    return SimScenario(seed=seed, miners=tuple(miners),
                       partitions=tuple(partitions), **kwargs)


# ---------------------------------------------------------------------------
# analytic oracles


def _check_race(q: float, z: int, runs: int = 1) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError("q must satisfy 0 <= q < 1")
    if z < 0:
        raise ValueError("z must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")


def catchup_probability(q: float, z: int) -> float:
    """Probability an attacker with hashrate share q erases a z-block deficit.

    Gambler's-ruin closed form (q/(1-q))**z for q < 1/2; certain at or above
    an even split.  This is the oracle the Monte-Carlo race is checked
    against; it treats pulling level as caught up.  It is the race's limit
    as the block horizon and the give-up margin grow, not its value at a
    finite horizon or margin.
    """
    _check_race(q, z)
    if z == 0 or q >= 0.5:
        return 1.0
    return (q / (1.0 - q)) ** z


def nakamoto_probability(q: float, z: int) -> float:
    """Poisson-corrected double-spend probability from the Bitcoin paper.

    Differs from catchup_probability by crediting the attacker with blocks
    pre-mined during the confirmation window; reported alongside the race
    results for comparison.
    """
    _check_race(q, z)
    if q >= 0.5:
        return 1.0
    p = 1.0 - q
    lam = z * q / p
    total = 0.0
    term = math.exp(-lam)
    for k in range(z + 1):
        if k > 0:
            term *= lam / k
        total += term * (1.0 - (q / p) ** (z - k))
    return 1.0 - total


# ---------------------------------------------------------------------------
# event-driven engine


class _Engine:
    def __init__(self, sc: SimScenario):
        self.sc = sc
        self.rng = random.Random(sc.seed)
        self.heap: list = []
        self.seq = 0
        # Every block created, genesis first; the timeline is blocks[1:].
        self.blocks = [BlockRecord(0, -1, 0, "genesis", 0.0, False)]
        self.tips = {m.miner_id: 0 for m in sc.miners}  # node -> tip block id
        self.reorgs = {m.miner_id: 0 for m in sc.miners}
        self.divergences: list[DivergenceReport] = []
        self.rates = {m.miner_id: m.fraction / sc.mean_block_interval
                      for m in sc.miners}
        self.held: dict[int, list] = {}  # partition index -> [(node, block_id)]

        att = sc.attacker()
        self.attacker_id = att.miner_id if att else None
        self.attacker_q = att.fraction if att else 0.0
        self.att_started = False
        self.att_gave_up = False
        self.private_tip = 0
        self.private_ids: list[int] = []
        self.public_best = 0
        self.success: Optional[bool] = False if att else None

        for m in sc.miners:
            if m.role == HONEST:
                self._schedule_mine(0.0, m.miner_id)
        for i, w in enumerate(sc.partitions):
            self._push(w.end, "heal", i)
        self._check_attack_trigger(0.0)

    # -- plumbing --------------------------------------------------------

    def _push(self, time: float, kind: str, data) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, data))
        self.seq += 1

    def _schedule_mine(self, now: float, miner_id: str) -> None:
        rate = self.rates[miner_id]
        if rate > 0:
            self._push(now + self.rng.expovariate(rate), "mine", miner_id)

    def _latency(self) -> float:
        lo, hi = self.sc.latency
        return self.rng.uniform(lo, hi) if hi > lo else lo

    def _adopt(self, node_id: str, block_id: int) -> None:
        tip = self.tips[node_id]
        block = self.blocks[block_id]
        height = self.blocks[tip].height
        if block.height > height:  # equal height keeps first-seen
            # A block on the tip extends it; only another branch can reorg.
            if block.parent_id != tip and self._fork_point(block_id, tip) != height:
                self.reorgs[node_id] += 1  # the old tip is not an ancestor
            self.tips[node_id] = block_id

    def _broadcast(self, sender: str, block_id: int, t: float) -> None:
        # A partition window open at t holds every delivery across its cut.
        idx, w = next(((i, w) for i, w in enumerate(self.sc.partitions)
                       if w.start <= t < w.end), (None, None))
        for other in self.tips:
            if other == sender:
                continue
            if w is not None and (sender in w.side) != (other in w.side):
                self.held.setdefault(idx, []).append((other, block_id))
            else:  # self._push, inlined: one call less per delivery
                heapq.heappush(self.heap, (t + self._latency(), self.seq,
                                           "deliver", (other, block_id)))
                self.seq += 1

    def _new_block(self, parent: int, miner: str, t: float,
                   private: bool) -> BlockRecord:
        record = BlockRecord(len(self.blocks), parent,
                             self.blocks[parent].height + 1, miner, t, private)
        self.blocks.append(record)
        return record

    def _blocks_left(self) -> bool:
        # Once an attack is decided (caught up or hopeless) nothing left in
        # the scenario changes, so block production stops early.
        if self.success or self.att_gave_up:
            return False
        hb = self.sc.horizon_blocks
        return hb is None or len(self.blocks) - 1 < hb  # genesis is not created

    def _check_attack_trigger(self, t: float) -> None:
        if (self.attacker_id is None or self.att_started or self.att_gave_up):
            return
        if self.public_best >= self.sc.confirmations:
            self.att_started = True
            if self.blocks[self.private_tip].height >= self.public_best:
                self._attack_succeed(t)  # z == 0: nothing to catch up
            self._schedule_mine(t, self.attacker_id)

    def _attack_succeed(self, t: float) -> None:
        # Production stops here (see _blocks_left); only deliveries remain.
        self.success = True
        for bid in self.private_ids:
            self._broadcast(self.attacker_id, bid, t)

    # -- event handlers ----------------------------------------------------

    def _on_mine(self, t: float, miner_id: str) -> None:
        if not self._blocks_left():
            return
        if miner_id == self.attacker_id:
            self._attacker_mine(t)
            return
        record = self._new_block(self.tips[miner_id], miner_id, t, private=False)
        self._adopt(miner_id, record.block_id)
        self._broadcast(miner_id, record.block_id, t)
        self.public_best = max(self.public_best, record.height)
        self._check_attack_trigger(t)
        self._schedule_mine(t, miner_id)

    def _attacker_mine(self, t: float) -> None:
        record = self._new_block(self.private_tip, self.attacker_id, t,
                                 private=True)
        self.private_tip = record.block_id
        self.private_ids.append(record.block_id)
        self._adopt(self.attacker_id, record.block_id)
        if record.height >= self.public_best:
            self._attack_succeed(t)
            self._schedule_mine(t, self.attacker_id)
            return
        deficit = self.public_best - record.height
        if (self.attacker_q < 0.5
                and deficit > self.sc.confirmations + self.sc.abandon_margin):
            self.att_gave_up = True
            return
        self._schedule_mine(t, self.attacker_id)

    def _on_heal(self, t: float, idx: int) -> None:
        w = self.sc.partitions[idx]
        tip_a = max((b for n, b in self.tips.items() if n in w.side),
                    key=lambda b: self.blocks[b].height)
        tip_b = max((b for n, b in self.tips.items() if n not in w.side),
                    key=lambda b: self.blocks[b].height)
        ca = self._fork_point(tip_a, tip_b)
        self.divergences.append(DivergenceReport(
            t, self.blocks[tip_a].height - ca,
            self.blocks[tip_b].height - ca))
        for node, bid in self.held.pop(idx, []):
            self._push(t + self._latency(), "deliver", (node, bid))

    def _fork_point(self, a: int, b: int) -> int:
        ia, ib = self.blocks[a], self.blocks[b]
        while ia.height > ib.height:
            ia = self.blocks[ia.parent_id]
        while ib.height > ia.height:
            ib = self.blocks[ib.parent_id]
        while ia.block_id != ib.block_id:
            ia = self.blocks[ia.parent_id]
            ib = self.blocks[ib.parent_id]
        return ia.height

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        hs = self.sc.horizon_seconds
        while self.heap:
            t, _, kind, data = heapq.heappop(self.heap)
            if hs is not None and t > hs:
                continue
            if kind == "mine":
                self._on_mine(t, data)
            elif kind == "deliver":
                node, bid = data
                self._adopt(node, bid)
            elif kind == "heal":
                self._on_heal(t, data)
        return _sim_result(self.blocks, self.tips, self.reorgs, self.success,
                           self.divergences)


def _sim_result(blocks: list[BlockRecord], tips: dict, reorgs: dict,
                success: Optional[bool], divergences: list) -> SimResult:
    """Result and run summary of both modes.  `blocks` holds every block
    created, genesis first at t = 0, indexed by block id; `tips` maps each
    node to its tip's id.  The summary follows the highest tip's chain."""
    best = max(tips.values(), key=lambda b: blocks[b].height)
    times = []
    record = blocks[best]
    while record.height > 0:
        times.append(record.time)
        record = blocks[record.parent_id]
    times.reverse()
    intervals = [b - a for a, b in zip([0.0] + times, times)]
    timeline = tuple(blocks[1:])
    by_miner: dict[str, int] = {}
    for r in timeline:
        by_miner[r.miner] = by_miner.get(r.miner, 0) + 1
    return SimResult(
        node_tips=dict(tips),
        node_heights={n: blocks[b].height for n, b in tips.items()},
        reorg_counts=dict(reorgs),
        attacker_success=success,
        timeline=timeline,
        divergences=tuple(divergences),
        stats={
            "blocks_created": len(timeline),
            "best_height": len(times),
            "mean_interval": (sum(intervals) / len(intervals)) if intervals else 0.0,
            "blocks_by_miner": by_miner,
        },
    )


def run_scenario(scenario: SimScenario) -> SimResult:
    """Run one deterministic scenario; identical seed, identical result."""
    if scenario.integrated:
        result, _ = integrated_run(scenario)
        return result
    return _Engine(scenario).run()


# ---------------------------------------------------------------------------
# Monte-Carlo double-spend race


@dataclass(frozen=True)
class AttackStats:
    runs: int
    successes: int
    rate: float
    oracle: float
    oracle_nakamoto: float
    q: float
    z: int
    note: ClassVar[str] = (
        "success = private fork pulls level with the public chain after z "
        "confirmations; oracle (q/(1-q))**z is this model's limit as the "
        "horizon and the give-up margin grow, unlike the Poisson-corrected "
        "Nakamoto value")


def _attack_stats(q: float, z: int, runs: int, successes: int) -> AttackStats:
    return AttackStats(runs=runs, successes=successes, rate=successes / runs,
                       oracle=catchup_probability(q, z),
                       oracle_nakamoto=nakamoto_probability(q, z), q=q, z=z)


# Draws per replica taken from the generator at once.  Part of the stream
# layout: it fixes which draw belongs to which (replica, step), and the
# nested-success property of attack_success_rate depends on that.
_DRAW_CHUNK = 256
# Replicas per Monte-Carlo shard; shard i runs under seed + i.
_SHARD_SIZE = 25_000
# Replica rows drawn per slab: at most a 256 KiB float64 temporary at
# k = 256.  Not part of the stream layout.
_SLAB_ROWS = 128


def _live_hits(rng: np.random.Generator, q: float, runs: int, k: int,
               live: np.ndarray) -> np.ndarray:
    """The attacker wins of `(rng.random((runs, k)) < q)[live].T`, bit-packed
    along the step axis, leaving `rng` where that draw would, without the
    (runs, k) block.

    Returns a C-contiguous ((k + 7) // 8, live.size) uint8 array: bit j % 8
    of row j // 8 is step j (`np.packbits(..., axis=0, bitorder="little")`),
    0.8 MB for a 25k-replica shard at k = 256.  In each 128-row slab that
    holds a live replica, only the rows from its first live replica to its
    last are drawn, one float64 temporary of at most 256 KiB; the rows
    around them are skipped with a jump-ahead.  Each float64 takes one
    64-bit PCG64 output, so the stream is unchanged.  `live` must be sorted
    ascending.
    """
    out = np.empty(((k + 7) // 8, live.size), dtype=np.uint8)
    lo = pos = 0  # first live column of the slab; rows drawn so far
    for s in np.unique(live // _SLAB_ROWS).tolist():
        hi = int(np.searchsorted(live, (s + 1) * _SLAB_ROWS))
        r0, r1 = int(live[lo]), int(live[hi - 1]) + 1
        if r0 > pos:
            rng.bit_generator.advance((r0 - pos) * k)
        hits = (rng.random((r1 - r0, k)) < q)[live[lo:hi] - r0]
        out[:, lo:hi] = np.packbits(hits, axis=1, bitorder="little").T
        lo, pos = hi, r1
    if runs > pos:
        rng.bit_generator.advance((runs - pos) * k)
    return out


def attack_success_rate(q: float, z: int, runs: int, seed: int = 0,
                        horizon_blocks: int = DEFAULT_HORIZON_BLOCKS,
                        abandon_margin: int = DEFAULT_ABANDON_MARGIN) -> AttackStats:
    """Vectorized replica of the engine's double-spend race.

    Each replica walks the attacker/honest Bernoulli race from a z-block
    deficit until parity (success), a hopeless deficit (z + abandon_margin,
    only meaningful below an even split), or the block horizon.  The uniform
    draw consumed by (replica, step) depends only on the seed, so success
    sets are nested across q and z grids: rates are exactly monotone.

    Only live replicas cost work.  Each chunk takes the (runs, k) block's
    worth of draws, so the stream layout never depends on who is still
    racing, but `_live_hits` draws only the rows around live replicas, in
    small slabs, and keeps their attacker wins bit-packed, one byte per
    replica per 8 steps.  Eight steps at a time are unpacked into an
    (8, live) array, and each block adds one of its rows into the live
    replicas' attacker counts `att_n`: after t blocks the deficit is
    z + t - 2·att_n, so a replica is level when 2·att_n == z + t (only for
    even z + t) and hopeless when 2·att_n <= t - abandon_margin.  Decided
    replicas are dropped from the live arrays, the packed wins included,
    once fewer than half of them are still racing, not at every death, and
    the loop stops as soon as none is.  The working set is O(runs): int64
    counts and indices, the packed wins and one slab, under 4 MB traced
    for a 25k-replica shard.
    """
    _check_race(q, z, runs)
    # Degenerate races: no block left for the race after the z confirmations,
    # or a give-up margin under one block.  Either reports a rate near 0 that
    # measures nothing.
    if horizon_blocks <= z:
        raise ValueError(f"horizon_blocks must exceed z = {z}")
    if abandon_margin < 1:
        raise ValueError("abandon_margin must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    budget = horizon_blocks - z
    give_up = q < 0.5
    # A decided replica's count is set to `done`, which neither test can
    # match again, until the next compaction drops it.
    done = np.iinfo(np.int64).max // 2
    live = np.arange(runs)
    att_n = np.zeros(runs, dtype=np.int64)
    alive = runs if z else 0  # z == 0 means already level
    successes = runs - alive
    t = 0
    while alive and t < budget:
        k = min(_DRAW_CHUNK, budget - t)
        if alive < live.size:
            keep = att_n < done
            live, att_n = live[keep], att_n[keep]
        packed = _live_hits(rng, q, runs, k, live)
        for j in range(k):
            if j % 8 == 0:
                wins = np.unpackbits(packed[j // 8][np.newaxis], axis=0,
                                     bitorder="little")
            att_n += wins[j % 8]
            t += 1
            if (z + t) % 2 == 0:
                won = att_n == (z + t) // 2
                n = int(np.count_nonzero(won))
                if n:
                    successes += n
                    alive -= n
                    att_n[won] = done
            if give_up and t >= abandon_margin:
                lost = att_n <= (t - abandon_margin) // 2
                n = int(np.count_nonzero(lost))
                if n:
                    alive -= n
                    att_n[lost] = done
            if 2 * alive < att_n.size:
                if not alive:
                    break
                keep = att_n < done
                live, att_n = live[keep], att_n[keep]
                packed, wins = packed[:, keep], wins[:, keep]
    return _attack_stats(q, z, runs, successes)


def attack_monte_carlo(q: float, z: int, runs: int, seed: int = 0,
                       threads: int = 1, **kwargs) -> AttackStats:
    """Sharded race Monte Carlo; shard i runs under seed + i.

    The shard layout depends only on `runs`, so the result is identical for
    any thread count.
    """
    _check_race(q, z, runs)
    sizes = [min(_SHARD_SIZE, runs - start)
             for start in range(0, runs, _SHARD_SIZE)]
    from concurrent.futures import ThreadPoolExecutor  # ~20 ms of cold start

    with ThreadPoolExecutor(max_workers=threads) as pool:
        shards = list(pool.map(
            lambda i, size: attack_success_rate(q, z, size, seed + i, **kwargs),
            range(len(sizes)), sizes))
    return _attack_stats(q, z, runs, sum(s.successes for s in shards))


# ---------------------------------------------------------------------------
# integrated mode: real HeavyHash mining through the chain machinery


def integrated_run(scenario: SimScenario):
    """Cross-check mode: mine a real chain with real HeavyHash at an easy
    fixed target (2**253), with winners drawn by hashrate share.  Returns
    the result plus the fully validated ChainIndex."""
    from .chain import ChainIndex, make_genesis
    from .pow import compact_from_target

    # SimScenario holds integrated scenarios to honest runs of <= 500 blocks.
    if not scenario.integrated:
        raise ConfigurationError("integrated_run needs an integrated scenario")

    index = ChainIndex(make_genesis(compact_from_target(1 << 253), timestamp=0))
    rng = random.Random(scenario.seed)
    ids = [m.miner_id for m in scenario.miners]
    weights = [m.fraction for m in scenario.miners]
    clock = 0.0
    last_ts = 0
    blocks = [BlockRecord(0, -1, 0, "genesis", 0.0, False)]
    for n in range(scenario.horizon_blocks):
        clock += rng.expovariate(1.0 / scenario.mean_block_interval)
        miner = rng.choices(ids, weights=weights, k=1)[0]
        ts = max(last_ts + 1, round(clock))
        block = index.mine_block(index.tip, (), timestamp=ts)
        if block is None:
            raise RuntimeError("nonce space exhausted at an easy target")
        report = index.add_block(block)
        if report.verdict.value != "valid":
            raise RuntimeError(f"integrated block rejected: {report.verdict.value}")
        blocks.append(BlockRecord(n + 1, n, index.tip_entry().height, miner,
                                  float(ts), False))
        last_ts = ts
    # Every block extends the tip, so every node's tip is the last block.
    return _sim_result(blocks, dict.fromkeys(ids, len(blocks) - 1),
                       dict.fromkeys(ids, 0), None, []), index
