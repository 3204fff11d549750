"""The three op families the workloads are made of, with their output checks.

Every op goes through the program's public API or its CLI entry point
(`opow.cli.main`, looked up at call time so a traced run sees it wrapped).
Checks run outside the timed region and take independent paths: the scalar
hash, `tests/reference_oracles.py`, closed-form oracles and a model of the
orphan pool.  None compares against stored output bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import time

import numpy as np

import inputs
from opow import chain, cli, photonic
from opow.heavyhash import HeavyHashParams, generate_matrix, heavyhash, heavyhash_many
from opow.pow import deserialize_header, meets_target, serialize_header

import reference_oracles as oracle


class Family:
    """Samples, op counts and check failures of one family within a run.

    A pass is `stages` slices; the scheduler interleaves the slices of all
    families so each family's samples spread over the whole run.
    """

    name = ""
    stages = 1
    min_passes = 1

    def __init__(self, seed: int, work: str, tracer=None):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = 0
        self.stage = 0
        self.digest = hashlib.sha256()  # records of the first pass only
        self._digesting = False

    def timed(self, op: str, fn):
        """Run one op; returns (result, wall seconds)."""
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin_op(f"op.{self.name}.{op}")
            tracer.active = True
        start = time.perf_counter()
        try:
            return fn(), time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.close(span)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def path(self, name: str) -> str:
        return os.path.join(self.work, f"{self.name}-{name}")

    def run_cli(self, op: str, argv: list, config: str | None = None):
        """One CLI op; returns (exit code, JSON records, raw output, wall seconds)."""
        out = self.path(f"{op}.out")
        if config is not None:
            cfg = self.path(f"{op}.cfg")
            with open(cfg, "w", encoding="utf-8") as fp:
                fp.write(config)
            argv = ["--config", cfg] + argv
        argv = ["--output", out] + argv
        if os.path.exists(out):
            os.remove(out)  # a failing op must not be checked against the last one's output
        rc, seconds = self.timed(op, lambda: cli.main(argv))
        text = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fp:
                text = fp.read()
        records = [json.loads(line) for line in text.splitlines()
                   if line.startswith("{")]
        if self._digesting:
            for record in records:
                record.pop("generated_at", None)  # the only wall-clock field
                self.digest.update(json.dumps(record, sort_keys=True).encode())
            if not records:
                self.digest.update(text.encode())
        return rc, records, text, seconds

    def step(self) -> None:
        """Run the next slice of the current pass."""
        self._digesting = self.passes == 0
        try:
            self._slice(self.stage)
        finally:
            self._digesting = False
        self.stage = (self.stage + 1) % self.stages
        if self.stage == 0:
            self.passes += 1

    @property
    def done(self) -> bool:
        """Minimum sample taken and no pass left half done."""
        return self.passes >= self.min_passes and self.stage == 0

    def _slice(self, stage: int) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class MineFamily(Family):
    """`opow --threads 2 mine` on a fresh template, then `opow verify`."""

    name = "mine"
    ops_per_pass = 4
    min_passes = 16  # 64 blocks: trials per block are geometric, so fewer
                     # make trials_per_s swing with the inputs

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trials = 0
        self.mine_seconds = 0.0
        self.verify_ms: list[float] = []
        self.found: list[tuple] = []  # (parent_hash, header bytes, digest)
        self.next_op = 0

    def _slice(self, stage: int) -> None:
        for _ in range(self.ops_per_pass):
            self.op(self.next_op)
            self.next_op += 1

    def probe(self) -> None:
        """About half a second of fixed work, kept out of the metrics."""
        for i in range(self.ops_per_pass):
            self.op(-2 - i, record=False)

    def op(self, op_index: int, record: bool = True) -> None:
        parent, config = inputs.mine_config(self.seed, op_index)
        rc, records, _, seconds = self.run_cli(
            "mine", ["--threads", str(inputs.THREADS), "mine"], config)
        rec = records[-1] if records else {}
        if not self.check(rc == 0 and rec.get("found") is True,
                          f"mine op {op_index}: rc {rc}, record {rec}"):
            return
        header_bytes = bytes.fromhex(rec["header_hex"])
        header = deserialize_header(header_bytes)
        digest = bytes.fromhex(rec["digest"])
        matrix = generate_matrix(parent)
        ok = (header.parent_hash == parent and header.nonce == rec["nonce"]
              and rec["trials"] == rec["nonce"] + 1
              and heavyhash(HeavyHashParams(), matrix, header_bytes) == digest
              and meets_target(digest, 1 << inputs.MINE_TARGET_EXPONENT))
        self.check(ok, f"mine op {op_index}: header does not re-hash under target")

        rc, records, _, vseconds = self.run_cli(
            "verify", ["verify"], f"header_hex = {rec['header_hex']}\n")
        vrec = records[-1] if records else {}
        self.check(rc == 0 and vrec.get("valid") is True
                   and vrec.get("digest") == rec["digest"],
                   f"verify op {op_index}: rc {rc}, record {vrec}")
        if record:
            self.trials += rec["trials"]
            self.mine_seconds += seconds
            self.verify_ms.append(vseconds * 1e3)
            self.found.append((parent, header_bytes, digest))

    def final_checks(self) -> None:
        """Seeded sample against the reference oracles."""
        rng = inputs.stream_rng(self.seed, "mine-oracle")
        sample = rng.sample(self.found, min(3, len(self.found)))
        for parent, header_bytes, digest in sample:
            entries = generate_matrix(parent).entries.tolist()
            self.check(oracle.ref_heavyhash(entries, header_bytes) == digest,
                       "mine digest differs from ref_heavyhash")
        if not sample:
            return
        parent, header_bytes, digest = sample[0]
        matrix = generate_matrix(parent)
        self.check(matrix.entries.tolist() == oracle.ref_matrix(parent),
                   "derived matrix differs from ref_matrix")
        # The reported nonce must be the smallest winner, whatever the sharding.
        header = deserialize_header(header_bytes)
        losers = [serialize_header(header.with_nonce(n)) for n in range(header.nonce)]
        target = 1 << inputs.MINE_TARGET_EXPONENT
        self.check(not any(meets_target(d, target) for d in
                           heavyhash_many(HeavyHashParams(), matrix, losers)),
                   "a smaller nonce also wins: sharding lost the first winner")


# ---------------------------------------------------------------------------


class SyncFamily(Family):
    """`import_chain` of an exported stream, then a gossip-order relay of
    the same blocks; passes rotate over the fixtures built in set-up."""

    name = "sync"
    relay_chunks = 16
    stages = 1 + relay_chunks
    min_passes = 2

    def __init__(self, fixtures: list, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fixtures = fixtures
        self.imported_blocks = 0
        self.import_seconds = 0.0
        self.relay_ms: list[float] = []
        self._relay = None

    def _slice(self, stage: int) -> None:
        k = self.passes % len(self.fixtures)
        if stage == 0:
            self.import_op(self.fixtures[k])
            self._relay = chain.ChainIndex(self.fixtures[k].genesis)
            return
        fx = self.fixtures[k]
        size = -(-len(fx.relay) // self.relay_chunks)
        lo = (stage - 1) * size
        self.relay_ms.extend(self.relay_op(
            self._relay, fx.relay[lo:lo + size], fx.expected[lo:lo + size]))
        if stage == self.relay_chunks:
            self.check(self._relay.tip == fx.tip, "relay ended on another tip")
            self._relay = None

    def import_op(self, fx, record: bool = True) -> None:
        index, seconds = self.timed(
            "import", lambda: chain.import_chain(io.BytesIO(fx.stream)))
        ok = index.tip == fx.tip and index.tip_entry().height == inputs.SYNC_BLOCKS
        self.check(ok, "import ended on another tip than the builder's")
        if self._digesting:
            self.digest.update(b"import" + index.tip)
        if record:
            self.imported_blocks += len(fx.blocks)
            self.import_seconds += seconds

    def relay_op(self, index, arrivals: list, expected: list) -> list:
        latencies = []
        for (block, _), (verdict, drained) in zip(arrivals, expected):
            report, seconds = self.timed("relay", lambda: index.add_block(block))
            latencies.append(seconds * 1e3)
            self.check(report.verdict.value == verdict
                       and set(report.accepted_orphans) == drained,
                       f"relay: got {report.verdict.value} with "
                       f"{len(report.accepted_orphans)} orphans, expected "
                       f"{verdict} with {len(drained)}")
            if self._digesting:
                self.digest.update(report.verdict.value.encode()
                                   + b"".join(report.accepted_orphans))
        return latencies

    def probe(self) -> None:
        """About half a second of fixed work, kept out of the metrics."""
        fx = self.fixtures[0]
        self.relay_op(chain.ChainIndex(fx.genesis), fx.relay[:200], fx.expected[:200])

    def warm_up(self) -> None:
        # Relay the first 100 arrivals: touches the validation, orphan and
        # rejection paths without paying for a whole pass.
        fx = self.fixtures[0]
        self.relay_op(chain.ChainIndex(fx.genesis), fx.relay[:100], fx.expected[:100])


# ---------------------------------------------------------------------------


def _binomial_tail_ok(successes: int, runs: int, p: float,
                      alpha: float = 1e-6) -> bool:
    """Two-sided exact binomial test of `successes` against rate p."""
    def pmf(k):
        return math.comb(runs, k) * p**k * (1 - p) ** (runs - k)
    upper = sum(pmf(k) for k in range(successes, runs + 1)) if successes else 1.0
    lower = sum(pmf(k) for k in range(0, successes + 1))
    return min(upper, lower) >= alpha


class StudyFamily(Family):
    """The README command set, run in-process through `opow.cli.main`."""

    name = "study"
    # One pass runs the command set once, and samples the two cheapest engine
    # runs again in later slices: a sub-second timing taken once swings with
    # the host.  `study.total_s` counts the first run of each command only.
    STAGES = (("attack",), ("network",), ("scenario",), ("photonic",),
              ("network",), ("scenario",), ("network",),
              ("chainsim", "econ", "heavyhash"))
    stages = len(STAGES)
    min_passes = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        names = {c for stage in self.STAGES for c in stage}
        self.seconds: dict[str, list[float]] = {c: [] for c in names}
        self.totals: list[float] = []
        self._first: dict[str, float] = {}

    def _slice(self, stage: int) -> None:
        if stage == 0:
            self._first = {}
        for name, seconds in self._commands(self.passes, stage).items():
            self.seconds[name].append(seconds)
            self._first.setdefault(name, seconds)
        if stage == self.stages - 1:
            self.totals.append(sum(self._first.values()))

    def _commands(self, index: int, stage: int, small: bool = False) -> dict:
        """Run one stage of pass `index`; returns wall seconds per command."""
        rng = inputs.stream_rng(self.seed, "study", index, stage)
        run_seed = str(rng.randrange(1 << 30))
        run = {
            "attack": lambda: self._attack(run_seed, small),
            "scenario": lambda: self._scenario(run_seed, small),
            "network": lambda: self._network(rng, run_seed, small),
            "photonic": lambda: self._photonic(rng, small),
            "chainsim": self._chainsim,
            "econ": self._econ,
            "heavyhash": lambda: self._heavyhash(rng),
        }
        return {name: run[name]() for name in self.STAGES[stage]}

    def probe(self) -> None:
        """About half a second of fixed work, kept out of the metrics: the
        two engine runs, which no cache can serve."""
        for stage in (1, 2):
            self._commands(-2, stage)

    def warm_up(self) -> None:
        for stage in range(self.stages):
            self._commands(-1, stage, small=True)

    def _attack(self, run_seed: str, small: bool) -> float:
        q, z = inputs.ATTACK_Q, inputs.ATTACK_Z
        runs = 25_000 if small else inputs.ATTACK_RUNS
        rc, records, _, seconds = self.run_cli(
            "attack", ["--seed", run_seed, "--threads", str(inputs.THREADS), "attack"],
            f"q = {q}\nz = {z}\nruns = {runs}\n")
        rec = records[-1] if records else {}
        p = (q / (1 - q)) ** z
        se = math.sqrt(p * (1 - p) / runs)
        self.check(rc == 0 and rec.get("runs") == runs
                   and abs(rec["successes"] / runs - p) <= 4 * se,
                   f"attack: rc {rc}, {rec.get('successes')} successes of {runs}, "
                   f"oracle {p:.5f}")
        return seconds

    def _scenario(self, run_seed: str, small: bool) -> float:
        runs = 5 if small else 200
        rc, records, _, seconds = self.run_cli(
            "scenario", ["--seed", run_seed, "attack"],
            "miners = h1:0.35, h2:0.35, att:0.3:attacker\n"
            "mean_block_interval = 1\nhorizon_blocks = 2000\n"
            f"confirmations = 6\nruns = {runs}\n")
        rows = [r for r in records if r.get("record") == "scenario_run"]
        summary = records[-1] if records else {}
        p = (0.3 / 0.7) ** 6  # the README scenario's attacker share and depth
        self.check(rc == 0 and len(rows) == runs
                   and summary.get("record") == "summary"
                   and _binomial_tail_ok(summary["successes"], runs, p),
                   f"scenario: rc {rc}, {len(rows)} runs, summary {summary}")
        return seconds

    def _network(self, rng: random.Random, run_seed: str, small: bool) -> float:
        horizon = 200 if small else 2000
        n = inputs.NETWORK_MINERS
        side = "|".join(f"m{i}" for i in sorted(rng.sample(range(n), n // 4)))
        start = rng.randrange(50_000, 300_000) if not small else 10_000
        rc, records, _, seconds = self.run_cli(
            "network", ["--seed", run_seed, "attack"],
            "miners = " + ", ".join(f"m{i}:{1 / n}" for i in range(n)) + "\n"
            f"mean_block_interval = 600\nlatency = 1, 30\n"
            f"horizon_blocks = {horizon}\n"
            f"partitions = {start}:{start + rng.randrange(20_000, 60_000)}:{side}\n")
        rec = records[-1] if records else {}
        stats = rec.get("stats", {})
        heights = set(rec.get("node_heights", {}).values())
        self.check(rc == 0 and stats.get("blocks_created") == horizon
                   and len(rec.get("divergences", ())) == 1
                   and heights == {stats.get("best_height")},
                   f"network: rc {rc}, stats {stats}, heights {sorted(heights)}")
        return seconds

    def _photonic(self, rng: random.Random, small: bool) -> float:
        dim, samples = (16, 100) if small else (64, 1000)
        cached = len(photonic._SYNTH_CACHE)
        rc, records, _, seconds = self.run_cli(
            "photonic", ["photonic"],
            f"dim = {dim}\nsamples = {samples}\nphase_sigmas = 0, 0.01, 0.05, 0.1\n"
            f"matrix_seed = {rng.randbytes(32).hex()}\n")
        synth = records[1] if len(records) > 1 else {}
        rows = [r for r in records if r.get("record") == "sweep"]
        zero = rows[0] if rows else {}
        # One new cache entry: the op synthesized its own mesh, no earlier
        # op's synthesis served it.
        self.check(rc == 0 and len(rows) == 4
                   and synth.get("reconstruction_residual", 1.0) < 1e-8
                   and zero.get("phase_sigma") == 0.0
                   and zero.get("hash_mismatch_rate") == 0.0
                   and zero.get("nibble_error_rate") == 0.0
                   and len(photonic._SYNTH_CACHE) == cached + 1,
                   f"photonic: rc {rc}, synthesis {synth}, zero-noise row {zero}")
        return seconds

    def _chainsim(self) -> float:
        rc, records, _, seconds = self.run_cli(
            "chainsim", ["chainsim"],
            "hashrate = 1e6\ninitial_interval = 9600\nn_windows = 5\n")
        summary = records[-1] if records else {}
        self.check(rc == 0 and summary.get("converged_within_5pct") is True
                   and abs(summary["final_mean_interval"] / 600 - 1) <= 0.05,
                   f"chainsim: rc {rc}, summary {summary}")
        return seconds

    def _econ(self) -> float:
        total = 0.0
        rc, records, _, seconds = self.run_cli(
            "econ", ["econ"], "mode = resilience\nopex_shares = 0.1, 0.9\n")
        total += seconds
        curve = {(r["opex_share"], r["multiplier"]): r["active_fraction"]
                 for r in records if r.get("record") == "resilience"}
        mults = sorted({m for _, m in curve})
        self.check(rc == 0 and len(mults) == 20
                   and all(curve[(0.1, m)] > curve[(0.9, m)] for m in mults if m < 1),
                   "econ resilience: CAPEX-heavy fleet not above OPEX-heavy one")

        rc, records, _, seconds = self.run_cli("econ", ["econ"], "mode = attack-cost\n")
        total += seconds
        costs = [r["total"] for r in records if r.get("record") == "attack_cost"]
        self.check(rc == 0 and len(costs) == 9
                   and all(b > a for a, b in zip(costs, costs[1:])),
                   "econ attack-cost: cost not increasing in CAPEX share")

        rc, records, _, seconds = self.run_cli("econ", ["econ"], "mode = calibrated-drop\n")
        total += seconds
        drops = {r["multiplier"]: r["drop"] for r in records
                 if r.get("record") == "calibrated_drop"}
        self.check(rc == 0 and drops.get(1.0) == 0.0
                   and abs(drops.get(0.55, 1.0) - 0.42) <= 0.03,
                   f"econ calibrated-drop: drops {drops}")
        return total

    def _heavyhash(self, rng: random.Random) -> float:
        data, seed = rng.randbytes(88), rng.randbytes(32)
        rc, _, text, seconds = self.run_cli(
            "heavyhash", ["heavyhash", data.hex(), "--matrix-seed", seed.hex()])
        expected = oracle.ref_heavyhash(generate_matrix(seed).entries.tolist(), data)
        self.check(rc == 0 and text.strip() == expected.hex(),
                   "heavyhash command differs from ref_heavyhash")
        return seconds


def sha256_floor_us(seed: int, n: int = 4096, repeats: int = 5) -> float:
    """Two SHA-256 passes per 88-byte header (the hash work HeavyHash does
    around its weighting stage), in microseconds per header."""
    prefix = inputs.stream_rng(seed, "floor").randbytes(80)
    headers = [prefix + i.to_bytes(8, "little") for i in range(n)]
    sha = hashlib.sha256
    best = []
    for _ in range(repeats):
        start = time.perf_counter()
        for h in headers:
            sha(sha(h).digest()).digest()
        best.append(time.perf_counter() - start)
    return float(np.median(best)) / n * 1e6
