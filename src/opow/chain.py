"""Block tree with validation, cumulative-work fork choice, and a minimal
spend-id ledger that demonstrates double-spend rejection.

Blocks are identified by the SHA-256 of their serialized header; the PoW
digest (HeavyHash under the matrix derived from the parent id) is checked
separately against the header's own target.  Fork choice picks the tip with
the most cumulative expected work, first-seen winning ties.  "Seen" means
inserted into the tree: a pooled orphan is inserted when its parent arrives,
and orphans of one parent are inserted in the order they were pooled.

Every pooled orphan has passed its own PoW: its matrix needs only the
parent's id, so the digest is checked against the header's own bits when the
block arrives.  The header is immutable and the id commits to it, so that
check still holds when the parent arrives, and the drain runs every other
check but never derives a matrix or hashes.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Optional

from .heavyhash import DERIVE_CHUNK, WeightMatrix, generate_matrices, generate_matrix
from .pow import (
    BlockHeader,
    CompactTargetError,
    HEADER_SIZE,
    RetargetParams,
    compact_from_target,
    deserialize_header,
    is_retarget_boundary,
    mine,
    scheduled_target,
    serialize_header,
    target_from_compact,
    verify_header,
    work_from_target,
)

TRANSFER_FORMAT = "<QQQQ"  # sender, recipient, amount, spend_id
TRANSFER_SIZE = struct.calcsize(TRANSFER_FORMAT)
MEDIAN_WINDOW = 11
RETARGET = RetargetParams()  # the consensus retarget schedule
# Ids of refused blocks remembered so that their late children are not
# pooled; the oldest is forgotten first.
REJECTED_MEMORY = 4096

_U64 = 1 << 64


class Verdict(enum.Enum):
    VALID = "valid"
    ORPHAN = "orphan"
    BAD_POW = "bad-pow"
    BAD_TARGET = "bad-target"
    BAD_COMMITMENT = "bad-commitment"
    BAD_TIMESTAMP = "bad-timestamp"
    DOUBLE_SPEND = "double-spend"


@dataclass(frozen=True)
class Transfer:
    sender: int
    recipient: int
    amount: int
    spend_id: int

    def __post_init__(self):
        for name in ("sender", "recipient", "amount", "spend_id"):
            v = getattr(self, name)
            if not 0 <= v < _U64:
                raise ValueError(f"{name} out of u64 range")


def serialize_transfers(transfers: tuple[Transfer, ...]) -> bytes:
    return b"".join(
        struct.pack(TRANSFER_FORMAT, t.sender, t.recipient, t.amount, t.spend_id)
        for t in transfers
    )


def transfers_commitment(transfers: tuple[Transfer, ...]) -> bytes:
    return hashlib.sha256(serialize_transfers(transfers)).digest()


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transfers: tuple[Transfer, ...] = ()


def block_id(block: Block) -> bytes:
    """Identity hash of a block: SHA-256 of the 88-byte header."""
    return hashlib.sha256(serialize_header(block.header)).digest()


def block_to_bytes(block: Block) -> bytes:
    return (serialize_header(block.header)
            + struct.pack("<I", len(block.transfers))
            + serialize_transfers(block.transfers))


def block_from_bytes(data: bytes) -> Block:
    if len(data) < HEADER_SIZE + 4:
        raise ValueError("truncated block")
    header = deserialize_header(data[:HEADER_SIZE])
    (count,) = struct.unpack_from("<I", data, HEADER_SIZE)
    body = data[HEADER_SIZE + 4:]
    if len(body) != count * TRANSFER_SIZE:
        raise ValueError("block transfer section has the wrong length")
    transfers = tuple(
        Transfer(*struct.unpack_from(TRANSFER_FORMAT, body, i * TRANSFER_SIZE))
        for i in range(count)
    )
    return Block(header, transfers)


def make_genesis(compact_target: int, timestamp: int = 0) -> Block:
    """Genesis block: no parent and no transfers."""
    header = BlockHeader(version=1, parent_hash=bytes(32),
                         payload_commitment=transfers_commitment(()),
                         timestamp=timestamp, compact_target=compact_target,
                         nonce=0)
    return Block(header)


@dataclass
class _Entry:
    block: Block
    hash: bytes
    height: int
    cumulative_work: int


@dataclass(frozen=True)
class AddReport:
    verdict: Verdict
    block_hash: bytes
    reorg_depth: int = 0
    accepted_orphans: tuple[bytes, ...] = ()


class ChainIndex:
    """Single-writer tree of validated blocks with most-work fork choice."""

    def __init__(self, genesis: Block):
        self._entries: dict[bytes, _Entry] = {}
        self._orphans: dict[bytes, dict[bytes, Block]] = {}  # parent -> {id: orphan}
        self._rejected: dict[bytes, None] = {}  # FIFO of REJECTED_MEMORY ids
        # Matrices by parent id: the last one derived, or an import batch's.
        self._matrices: dict[bytes, WeightMatrix] = {}
        self._spenders: dict[int, list[bytes]] = {}  # spend id -> carrier ids
        # Genesis is the trust anchor: stored as-is, never PoW-validated.
        gh = block_id(genesis)
        target = target_from_compact(genesis.header.compact_target)
        self._entries[gh] = _Entry(genesis, gh, 0, work_from_target(target))
        self._index_spends(genesis, gh)
        self.genesis_hash = gh
        self.tip = gh

    # -- lookups ---------------------------------------------------------

    def tip_entry(self) -> _Entry:
        return self._entries[self.tip]

    def matrix_for(self, parent_hash: bytes) -> WeightMatrix:
        matrix = self._matrices.get(parent_hash)
        if matrix is None:
            matrix = generate_matrix(parent_hash)
            self._matrices = {parent_hash: matrix}
        return matrix

    def _hold_matrices(self, parent_ids: list[bytes]) -> None:
        """Hold the matrices of these parents and no others, deriving the
        ones not held yet in one batch."""
        kept = {h: self._matrices[h] for h in parent_ids if h in self._matrices}
        fresh = list(dict.fromkeys(h for h in parent_ids if h not in kept))
        self._matrices = kept | dict(zip(fresh, generate_matrices(fresh)))

    def ancestors(self, block_hash: bytes) -> Iterator[_Entry]:
        """Entries from the given block back to genesis, inclusive."""
        entry = self._entries[block_hash]
        while True:
            yield entry
            if entry.height == 0:
                return
            entry = self._entries[entry.block.header.parent_hash]

    # -- validation ------------------------------------------------------

    def median_time_past(self, parent_hash: bytes) -> int:
        stamps = []
        for entry in self.ancestors(parent_hash):
            stamps.append(entry.block.header.timestamp)
            if len(stamps) == MEDIAN_WINDOW:
                break
        stamps.sort()
        return stamps[len(stamps) // 2]

    def scheduled_compact(self, parent_hash: bytes) -> int:
        # Off a boundary the parent's bits carry over verbatim, even when
        # they are not the canonical encoding of the parent's target.
        parent = self._entries[parent_hash]
        if not is_retarget_boundary(parent.height, RETARGET):
            return parent.block.header.compact_target
        first = next(itertools.islice(self.ancestors(parent_hash),
                                      RETARGET.window, None))
        span = parent.block.header.timestamp - first.block.header.timestamp
        parent_target = target_from_compact(parent.block.header.compact_target)
        return compact_from_target(scheduled_target(parent_target, span, RETARGET))

    # Each check returns the verdict that refuses the block, or None.

    def _check_header(self, header: BlockHeader,
                      parent: _Entry) -> Optional[Verdict]:
        """The timestamp and the scheduled bits, against the parent."""
        if header.timestamp <= self.median_time_past(parent.hash):
            return Verdict.BAD_TIMESTAMP
        if header.compact_target != self.scheduled_compact(parent.hash):
            return Verdict.BAD_TARGET
        return None

    def _check_pow(self, header: BlockHeader) -> Optional[Verdict]:
        """The digest under the parent's matrix, against the header's own
        bits: it needs the parent's id, not the parent."""
        try:
            target_from_compact(header.compact_target)
        except CompactTargetError:
            return Verdict.BAD_TARGET
        if not verify_header(header, self.matrix_for(header.parent_hash)):
            return Verdict.BAD_POW
        return None

    def _check_spends(self, block: Block, parent: _Entry) -> Optional[Verdict]:
        """No spend id twice in the block, nor on the parent's branch."""
        spends = [t.spend_id for t in block.transfers]
        if len(set(spends)) != len(spends):
            return Verdict.DOUBLE_SPEND
        # Only a carrier of one of the ids on the parent's branch conflicts:
        # walk down from the parent to the lowest carrier that could be one.
        carriers = {h for s in spends for h in self._spenders.get(s, ())
                    if self._entries[h].height <= parent.height}
        if carriers:
            lowest = min(self._entries[h].height for h in carriers)
            branch = itertools.takewhile(lambda e: e.height >= lowest,
                                         self.ancestors(parent.hash))
            if any(e.hash in carriers for e in branch):
                return Verdict.DOUBLE_SPEND
        return None

    # -- insertion -------------------------------------------------------

    def add_block(self, block: Block) -> AddReport:
        """Validate and insert; orphans are pooled until their parent shows up.

        The commitment is checked first, as it needs no parent.  The id
        hashes only the header, so this is what refuses a copy of a block in
        the tree or the pool that carries other transfers, and what lets the
        pool key on the id.

        With the parent in the tree, the checks run in the order timestamp,
        bits, PoW, spends.  Without it, only the PoW runs, against the
        block's own bits: a miss is BAD_POW and bits that do not decode are
        BAD_TARGET.  So every pooled block has passed its own PoW, and each
        block is derived and hashed at most once, on arrival."""
        bh = block_id(block)
        header = block.header
        if header.payload_commitment != transfers_commitment(block.transfers):
            return AddReport(Verdict.BAD_COMMITMENT, bh)
        if bh in self._entries:
            return AddReport(Verdict.VALID, bh)

        parent = self._entries.get(header.parent_hash)
        if parent is None:
            return AddReport(self._pool(block, bh), bh)
        verdict = (self._check_header(header, parent)
                   or self._check_pow(header)
                   or self._check_spends(block, parent))
        if verdict is not None:
            self._discard_pooled(bh)
            return AddReport(verdict, bh)

        old_tip = self.tip
        self._insert(block, bh)
        accepted = [bh]
        self._drain_orphans(bh, accepted)

        tip_changed = self.tip != old_tip
        reorg_depth = 0
        if tip_changed:
            ca = self._common_ancestor(old_tip, self.tip)
            reorg_depth = self._entries[old_tip].height - ca.height
        return AddReport(Verdict.VALID, bh, reorg_depth, tuple(accepted[1:]))

    def _pool(self, block: Block, bh: bytes) -> Verdict:
        """Pool an orphan that passes its own PoW; the verdict to report."""
        parent_hash = block.header.parent_hash
        if bh in self._orphans.get(parent_hash, ()):
            # A repeat keeps its first place in the pool, and is not hashed.
            return Verdict.ORPHAN
        if parent_hash in self._rejected:
            # Its parent can never be inserted, so neither can it.
            self._discard_pooled(bh)
            return Verdict.ORPHAN
        verdict = self._check_pow(block.header)
        if verdict is not None:
            self._discard_pooled(bh)
            return verdict
        self._orphans.setdefault(parent_hash, {})[bh] = block
        return Verdict.ORPHAN

    def _insert(self, block: Block, bh: bytes) -> None:
        parent = self._entries[block.header.parent_hash]
        work = work_from_target(target_from_compact(block.header.compact_target))
        entry = _Entry(block, bh, parent.height + 1, parent.cumulative_work + work)
        self._entries[bh] = entry
        self._index_spends(block, bh)
        # Strictly more work displaces the tip; equal work keeps first-inserted.
        if entry.cumulative_work > self._entries[self.tip].cumulative_work:
            self.tip = bh

    def _index_spends(self, block: Block, bh: bytes) -> None:
        for t in block.transfers:
            self._spenders.setdefault(t.spend_id, []).append(bh)

    def _drain_orphans(self, parent_hash: bytes, accepted: list[bytes]) -> None:
        # Depth first, each parent's orphans in pool order; an explicit stack
        # so a deep pooled chain cannot exhaust the interpreter's.  Every
        # check runs but the PoW, which passed on arrival; an orphan mined
        # to bits other than its scheduled ones ends BAD_TARGET here.
        stack = [iter(self._orphans.pop(parent_hash, {}).items())]
        while stack:
            bh, block = next(stack[-1], (None, None))
            if block is None:
                stack.pop()
                continue
            parent = self._entries[block.header.parent_hash]
            if (self._check_header(block.header, parent)
                    or self._check_spends(block, parent)) is None:
                self._insert(block, bh)
                accepted.append(bh)
                stack.append(iter(self._orphans.pop(bh, {}).items()))
            else:
                self._discard_pooled(bh)

    def _discard_pooled(self, bh: bytes) -> None:
        """Drop the orphans pooled under a rejected block, and theirs.

        Only blocks refused for their PoW, target, timestamp or a double
        spend come here.  Those verdicts depend only on the block and its
        ancestors, and the id fixes both (the header names the parent and
        commits to the transfers), so no block with this id can ever be
        inserted.  A bad commitment does not come here: the genuine block
        with that header may still arrive.

        Each dropped id is remembered, so that a child arriving later is
        refused at once instead of pooled for good."""
        stack = [bh]
        while stack:
            dropped = stack.pop()
            self._rejected[dropped] = None
            if len(self._rejected) > REJECTED_MEMORY:
                del self._rejected[next(iter(self._rejected))]
            stack.extend(self._orphans.pop(dropped, {}))

    def _common_ancestor(self, a_hash: bytes, b_hash: bytes) -> _Entry:
        a = self._entries[a_hash]
        b = self._entries[b_hash]
        while a.height > b.height:
            a = self._entries[a.block.header.parent_hash]
        while b.height > a.height:
            b = self._entries[b.block.header.parent_hash]
        while a.hash != b.hash:
            a = self._entries[a.block.header.parent_hash]
            b = self._entries[b.block.header.parent_hash]
        return a

    # -- mining helpers ---------------------------------------------------

    def header_template(self, parent_hash: bytes,
                        transfers: tuple[Transfer, ...],
                        timestamp: int) -> BlockHeader:
        if parent_hash not in self._entries:
            raise KeyError("unknown parent")
        return BlockHeader(version=1, parent_hash=parent_hash,
                           payload_commitment=transfers_commitment(transfers),
                           timestamp=timestamp,
                           compact_target=self.scheduled_compact(parent_hash),
                           nonce=0)

    def mine_block(self, parent_hash: bytes, transfers: tuple[Transfer, ...],
                   timestamp: int) -> Optional[Block]:
        """A child of the given parent with the smallest winning nonce below
        2**24, or None if none of those wins."""
        template = self.header_template(parent_hash, transfers, timestamp)
        target = target_from_compact(template.compact_target)
        nonce = mine(template, self.matrix_for(parent_hash), target, 0, 1 << 24)
        if nonce is None:
            return None
        return Block(template.with_nonce(nonce), transfers)

    # -- import/export ----------------------------------------------------

    def export_stream(self, fp: BinaryIO) -> int:
        """Write all blocks as a length-prefixed stream in insertion order:
        parents first, and an import that replays it keeps the same tip."""
        for entry in self._entries.values():
            raw = block_to_bytes(entry.block)
            fp.write(struct.pack("<I", len(raw)))
            fp.write(raw)
        return len(self._entries)


def import_chain(fp: BinaryIO) -> ChainIndex:
    """Rebuild an index from an exported stream; first block is the genesis.

    Raises ValueError naming the verdict if any later block fails validation.
    """
    blocks = []
    while True:
        head = fp.read(4)
        if not head:
            break
        if len(head) != 4:
            raise ValueError("truncated block length prefix")
        (length,) = struct.unpack("<I", head)
        raw = fp.read(length)
        if len(raw) != length:
            raise ValueError("truncated block body")
        blocks.append(block_from_bytes(raw))
    if not blocks:
        raise ValueError("empty chain stream")
    index = ChainIndex(blocks[0])
    for start in range(1, len(blocks), DERIVE_CHUNK):
        batch = blocks[start:start + DERIVE_CHUNK]
        # One stacked derivation per batch.  A side block next to its
        # sibling may fall in the next batch: the parent's matrix is kept,
        # not derived again.
        index._hold_matrices([b.header.parent_hash for b in batch])
        for block in batch:
            report = index.add_block(block)
            if report.verdict is not Verdict.VALID:
                raise ValueError(f"invalid block in stream: {report.verdict.value}")
    return index
