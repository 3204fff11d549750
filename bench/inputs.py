"""Seeded inputs for the three benchmark workloads.

Everything here is derived from the workload seed alone, so the same seed
gives the same inputs.  The program under test only ever sees the generated
config files, headers and block streams.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass

from opow.chain import Block, ChainIndex, Transfer, Verdict, make_genesis
from opow.heavyhash import HeavyHashParams, heavyhash
from opow.pow import (
    compact_from_target,
    meets_target,
    mine,
    serialize_header,
    target_from_compact,
)

THREADS = 2                 # --threads for mine and attack: nproc of a 2-core box
MINE_TARGET_EXPONENT = 242  # about 16k trials per block

SYNC_BLOCKS = 1040          # main chain length: 16 retarget boundaries at window 64
SYNC_TRANSFERS = 4          # transfers per block, each with a unique spend id
SYNC_SIDE_EVERY = 50        # a stale side block about every 50 heights
SYNC_INTERVAL = 600         # mean timestamp step; jitter is +/- half of it
SYNC_ORPHAN_SWAP_P = 0.25   # neighbour swaps per step; ~20% of blocks arrive as orphans
SYNC_INVALID_EACH = 3       # invalid blocks of each kind mixed into the relay
SYNC_GENESIS_BITS = compact_from_target(1 << 252)  # about 16 trials per block

ATTACK_Q, ATTACK_Z, ATTACK_RUNS = 0.3, 6, 100_000
NETWORK_MINERS = 20


def stream_rng(seed: int, *names) -> random.Random:
    """Independent, reproducible random stream for one input family."""
    return random.Random(":".join(str(n) for n in (seed,) + names))


def block_hash(block: Block) -> bytes:
    return hashlib.sha256(serialize_header(block.header)).digest()


# ---------------------------------------------------------------------------
# mine


def mine_config(seed: int, op: int) -> tuple[bytes, str]:
    """Parent hash and config of one `opow mine` op: a fresh parent every op."""
    rng = stream_rng(seed, "mine", op)
    parent = rng.randbytes(32)
    return parent, (f"parent_hash = {parent.hex()}\n"
            f"payload_commitment = {rng.randbytes(32).hex()}\n"
            f"timestamp = {rng.randrange(1 << 32)}\n"
            f"target_exponent = {MINE_TARGET_EXPONENT}\n")


# ---------------------------------------------------------------------------
# sync


@dataclass
class SyncFixture:
    genesis: Block
    blocks: list            # every non-genesis block, parents first
    stream: bytes           # export_stream of the builder's index
    tip: bytes              # builder's best tip
    relay: list             # (block, invalid kind or None) in gossip order
    expected: list          # (verdict, accepted orphan ids) per relay arrival


def _mine_child(index: ChainIndex, parent: bytes, transfers: tuple,
                timestamp: int) -> Block:
    template = index.header_template(parent, transfers, timestamp)
    target = target_from_compact(template.compact_target)
    nonce = mine(template, index.matrix_for(parent), target, 0, 1 << 20, batch=64)
    if nonce is None:
        raise RuntimeError("fixture block found no nonce")
    return Block(template.with_nonce(nonce), transfers)


def build_sync_fixture(seed: int, variant: int) -> SyncFixture:
    """Mine a ~1,000-block chain with jittered timestamps, transfers and
    stale side blocks, then derive the relay's gossip order."""
    rng = stream_rng(seed, "sync", variant)
    genesis = make_genesis(SYNC_GENESIS_BITS,
                           timestamp=1_500_000_000 + rng.randrange(10**8))
    index = ChainIndex(genesis)
    next_spend = rng.getrandbits(48) << 12

    def transfers() -> tuple:
        nonlocal next_spend
        out = []
        for _ in range(SYNC_TRANSFERS):
            out.append(Transfer(rng.getrandbits(32), rng.getrandbits(32),
                                rng.randint(1, 10**6), next_spend))
            next_spend += 1
        return tuple(out)

    side_heights = {h + rng.randint(-10, 10)
                    for h in range(SYNC_SIDE_EVERY, SYNC_BLOCKS - 20, SYNC_SIDE_EVERY)}
    blocks, main = [], [genesis]
    stamps = [genesis.header.timestamp]
    tip = index.tip
    for height in range(1, SYNC_BLOCKS + 1):
        stamps.append(stamps[-1] + SYNC_INTERVAL
                      + rng.randint(-SYNC_INTERVAL // 2, SYNC_INTERVAL // 2))
        block = _mine_child(index, tip, transfers(), stamps[-1])
        if index.add_block(block).verdict is not Verdict.VALID:
            raise RuntimeError("fixture main block rejected")
        blocks.append(block)
        if height in side_heights:
            side = _mine_child(index, tip, transfers(),
                               stamps[-1] + rng.randint(1, 60))
            if index.add_block(side).verdict is not Verdict.VALID:
                raise RuntimeError("fixture side block rejected")
            blocks.append(side)
        tip = block_hash(block)
        main.append(block)
    if index.tip != tip:
        raise RuntimeError("fixture builder did not end on its main tip")
    out = io.BytesIO()
    index.export_stream(out)
    relay = _relay_order(rng, index, blocks, main, stamps)
    return SyncFixture(genesis, blocks, out.getvalue(), tip, relay,
                       relay_expectations(index.genesis_hash, relay))


def _relay_order(rng: random.Random, index: ChainIndex, blocks: list,
                 main: list, stamps: list) -> list:
    """Gossip order: parents-first order with seeded neighbour swaps, plus
    invalid blocks placed after their parent has been accepted."""
    order = list(blocks)
    i = 0
    while i < len(order) - 1:
        if rng.random() < SYNC_ORPHAN_SWAP_P:
            order[i], order[i + 1] = order[i + 1], order[i]
            i += 2
        else:
            i += 1
    relay = [(b, None) for b in order]
    accepted_at = {}
    for pos, ((block, _), (verdict, drained)) in enumerate(
            zip(relay, relay_expectations(index.genesis_hash, relay))):
        if verdict == "valid":
            for h in drained | {block_hash(block)}:
                accepted_at[h] = pos
    invalid = []
    for kind in (Verdict.BAD_POW, Verdict.DOUBLE_SPEND, Verdict.BAD_TIMESTAMP):
        for _ in range(SYNC_INVALID_EACH):
            height = rng.randrange(100, len(main) - 1)
            invalid.append((_invalid_block(rng, index, kind, main, stamps, height),
                            kind, block_hash(main[height])))
    # Insert from the back so earlier acceptance positions stay valid.
    for block, kind, parent in sorted(invalid, key=lambda item: -accepted_at[item[2]]):
        relay.insert(accepted_at[parent] + 1, (block, kind))
    return relay


def relay_expectations(genesis_hash: bytes, relay: list) -> list:
    """Expected (verdict, accepted orphans) per relay arrival, from a model
    of the orphan pool: a block whose parent is in the tree is accepted and
    drains the orphans waiting on it, an invalid one gets its kind, any
    other is pooled."""
    accepted = {genesis_hash}
    pooled: dict[bytes, list] = {}
    out = []
    for block, kind in relay:
        parent = block.header.parent_hash
        if parent not in accepted:
            pooled.setdefault(parent, []).append(block_hash(block))
            out.append(("orphan", set()))
        elif kind is not None:
            out.append((kind.value, set()))
        else:
            drained, stack = set(), [block_hash(block)]
            while stack:
                h = stack.pop()
                accepted.add(h)
                for child in pooled.pop(h, []):
                    drained.add(child)
                    stack.append(child)
            out.append(("valid", drained))
    return out


def _invalid_block(rng: random.Random, index: ChainIndex, kind: Verdict,
                   main: list, stamps: list, height: int) -> Block:
    parent = main[height]
    parent_hash = block_hash(parent)
    window = sorted(stamps[max(0, height - 10):height + 1])
    median_past = window[len(window) // 2]
    if kind is Verdict.BAD_TIMESTAMP:
        template = index.header_template(parent_hash, (), median_past)
        return Block(template, ())
    timestamp = stamps[height] + rng.randint(1, SYNC_INTERVAL)
    if kind is Verdict.DOUBLE_SPEND:
        spent = main[rng.randrange(1, height + 1)].transfers[0]
        again = (Transfer(spent.sender, rng.getrandbits(32), 1, spent.spend_id),)
        return _mine_child(index, parent_hash, again, timestamp)
    template = index.header_template(parent_hash, (), timestamp)
    target = target_from_compact(template.compact_target)
    matrix = index.matrix_for(parent_hash)
    nonce = rng.randrange(1 << 32)
    while meets_target(heavyhash(HeavyHashParams(), matrix,
                                 serialize_header(template.with_nonce(nonce))),
                       target):
        nonce += 1
    return Block(template.with_nonce(nonce), ())
