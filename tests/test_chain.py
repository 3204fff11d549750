import functools
import io

import pytest
from hypothesis import given, settings, strategies as st

import opow.chain as chain_module
from opow.chain import (
    Block,
    ChainIndex,
    Transfer,
    Verdict,
    block_from_bytes,
    block_id,
    block_to_bytes,
    import_chain,
    make_genesis,
    transfers_commitment,
)
from opow.heavyhash import HeavyHashParams, generate_matrix, heavyhash
from opow.netsim import MinerSpec, SimScenario, integrated_run
from opow.pow import (
    BlockHeader,
    RetargetParams,
    compact_from_target,
    deserialize_header,
    meets_target,
    mine,
    serialize_header,
    target_from_compact,
    work_from_target,
)

EASY_BITS = compact_from_target(1 << 253)  # ~1 in 8 headers win


@pytest.fixture()
def index():
    return ChainIndex(make_genesis(EASY_BITS, timestamp=0))


def extend(index, parent, timestamp, transfers=()):
    block = index.mine_block(parent, tuple(transfers), timestamp)
    assert block is not None
    report = index.add_block(block)
    return report


def build_chain(index, length, start_ts=600, step=600, spend_base=1000):
    tip = index.genesis_hash
    for i in range(length):
        transfers = (Transfer(1, 2, 10, spend_base + i),)
        report = extend(index, tip, start_ts + i * step, transfers)
        assert report.verdict is Verdict.VALID
        tip = report.block_hash
    return tip


# -- validation verdicts -------------------------------------------------------


def test_matrix_is_derived_once_per_run_of_one_parent(index, monkeypatch):
    seeds = []
    monkeypatch.setattr("opow.chain.generate_matrix",
                        lambda seed: seeds.append(seed) or generate_matrix(seed))
    # mine_block and then add_block on the same parent share one derivation.
    assert extend(index, index.genesis_hash, 600).verdict is Verdict.VALID
    assert seeds == [index.genesis_hash]
    seeds.clear()
    integrated_run(SimScenario(seed=6, miners=(MinerSpec("a", 1.0),),
                               mean_block_interval=60.0, horizon_blocks=20,
                               integrated=True))
    assert len(seeds) == len(set(seeds)) == 20


def test_honest_block_is_valid(index):
    report = extend(index, index.genesis_hash, 600)
    assert report.verdict is Verdict.VALID
    assert index.tip == report.block_hash
    assert index.tip_entry().height == 1


def test_non_winning_nonce_is_bad_pow(index):
    template = index.header_template(index.genesis_hash, (), 600)
    matrix = index.matrix_for(index.genesis_hash)
    target = target_from_compact(template.compact_target)
    nonce = 0
    while meets_target(
            heavyhash(HeavyHashParams(), matrix,
                      serialize_header(template.with_nonce(nonce))), target):
        nonce += 1
    report = index.add_block(Block(template.with_nonce(nonce), ()))
    assert report.verdict is Verdict.BAD_POW


def test_wrong_target_is_bad_target(index):
    template = index.header_template(index.genesis_hash, (), 600)
    wrong = template.with_nonce(0)
    wrong = type(wrong)(wrong.version, wrong.parent_hash, wrong.payload_commitment,
                        wrong.timestamp, compact_from_target(1 << 255), 0)
    report = index.add_block(Block(wrong, ()))
    assert report.verdict is Verdict.BAD_TARGET


def test_wrong_commitment_is_bad_commitment(index):
    template = index.header_template(index.genesis_hash, (), 600)
    block = Block(template, (Transfer(1, 2, 3, 4),))  # commitment built for ()
    report = index.add_block(block)
    assert report.verdict is Verdict.BAD_COMMITMENT


def test_stale_timestamp_is_bad_timestamp(index):
    tip = build_chain(index, 12)
    block = index.mine_block(tip, (), timestamp=1)  # below median of last 11
    report = index.add_block(block)
    assert report.verdict is Verdict.BAD_TIMESTAMP


def test_spend_id_reuse_is_double_spend(index):
    tip = build_chain(index, 3, spend_base=500)
    block = index.mine_block(tip, (Transfer(7, 8, 1, 500),), timestamp=60_000)
    assert index.add_block(block).verdict is Verdict.DOUBLE_SPEND
    dup_inside = index.mine_block(
        tip, (Transfer(1, 2, 1, 900), Transfer(3, 4, 1, 900)), timestamp=60_000)
    assert index.add_block(dup_inside).verdict is Verdict.DOUBLE_SPEND


def test_orphan_pool_and_cascade(index):
    tip = build_chain(index, 2)
    child = index.mine_block(tip, (), timestamp=10_000)
    grand = None
    # build grandchild on a scratch copy so the real index never sees child
    scratch = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    build_chain(scratch, 2)
    assert scratch.tip == tip
    scratch.add_block(child)
    grand = scratch.mine_block(block_id(child), (), timestamp=10_600)

    report = index.add_block(grand)
    assert report.verdict is Verdict.ORPHAN
    assert index.tip == tip
    report = index.add_block(child)
    assert report.verdict is Verdict.VALID
    assert report.accepted_orphans == (block_id(grand),)
    assert index.tip == block_id(grand)
    assert index.tip_entry().height == 4


def test_deep_orphan_chain_in_reverse_order(index):
    # Every block but the first waits in the orphan pool; the first one
    # then connects a 1,199-deep pooled chain in a single drain.
    tip = index.genesis_hash
    for i in range(1200):
        template = index.header_template(tip, (), timestamp=600 * (i + 1))
        nonce = mine(template, index.matrix_for(tip),
                     target_from_compact(template.compact_target), 0, 1 << 16,
                     batch=64)
        block = Block(template.with_nonce(nonce))
        assert index.add_block(block).verdict is Verdict.VALID
        tip = block_id(block)
    blocks = [index.entry(h).block for h in index.best_chain()[1:]]
    replayed = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    for block in reversed(blocks[1:]):
        assert replayed.add_block(block).verdict is Verdict.ORPHAN
    report = replayed.add_block(blocks[0])
    assert report.verdict is Verdict.VALID
    assert len(report.accepted_orphans) == 1199
    assert replayed.tip == tip
    assert replayed.tip_entry().height == 1200


def test_repeated_orphan_is_pooled_once(index):
    first = index.add_block(index.mine_block(index.genesis_hash, (), 600))
    b1 = index.entry(first.block_hash).block
    b2 = index.mine_block(first.block_hash, (), timestamp=1200)
    c2 = index.mine_block(first.block_hash, (), timestamp=1300)
    fresh = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    # The repeat of b2 is still reported as an orphan, and keeps b2's first
    # place in the pool, ahead of its sibling c2.
    for block in (b2, c2, b2):
        assert fresh.add_block(block).verdict is Verdict.ORPHAN
    report = fresh.add_block(b1)
    assert report.verdict is Verdict.VALID
    assert report.accepted_orphans == (block_id(b2), block_id(c2))
    assert [fresh.entry(block_id(b)).seq for b in (b1, b2, c2)] == [1, 2, 3]
    assert fresh.tip == block_id(b2)


def test_bogus_copy_of_an_orphan_cannot_displace_it(index):
    first = index.add_block(index.mine_block(index.genesis_hash, (), 600))
    b1 = index.entry(first.block_hash).block
    b2 = index.mine_block(first.block_hash, (Transfer(1, 2, 3, 4),), 1200)
    bogus = Block(b2.header, (Transfer(1, 2, 99, 4),))  # same header id
    fresh = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    # The commitment needs no parent, so the copy is refused, not pooled.
    assert fresh.add_block(bogus).verdict is Verdict.BAD_COMMITMENT
    assert fresh.add_block(b2).verdict is Verdict.ORPHAN
    report = fresh.add_block(b1)
    assert report.accepted_orphans == (block_id(b2),)
    assert fresh.entry(block_id(b2)).block.transfers == b2.transfers


def easy_child(parent_hash, timestamp, transfers=()):
    """A winning EASY_BITS child of any parent id, known to an index or not."""
    template = BlockHeader(1, parent_hash, transfers_commitment(transfers),
                           timestamp, EASY_BITS, 0)
    nonce = mine(template, generate_matrix(parent_hash),
                 target_from_compact(EASY_BITS), 0, 1 << 16, batch=64)
    return Block(template.with_nonce(nonce), transfers)


def test_rejected_block_drops_its_pooled_descendants(index):
    tip = build_chain(index, 2, spend_base=500)
    # Rejected on arrival: the child and grandchild pooled under it go too.
    bad = easy_child(tip, 5_000, (Transfer(7, 8, 1, 500),))
    child = easy_child(block_id(bad), 5_600)
    grand = easy_child(block_id(child), 6_200)
    for block in (grand, child):
        assert index.add_block(block).verdict is Verdict.ORPHAN
    assert index.add_block(bad).verdict is Verdict.DOUBLE_SPEND
    assert index._orphans == {}
    # Rejected when its parent drains it: its own pooled child goes too.
    parent = easy_child(tip, 5_000)
    bad = easy_child(block_id(parent), 5_600, (Transfer(7, 8, 1, 501),))
    child = easy_child(block_id(bad), 6_200)
    for block in (child, bad):
        assert index.add_block(block).verdict is Verdict.ORPHAN
    report = index.add_block(parent)
    assert report.verdict is Verdict.VALID and report.accepted_orphans == ()
    assert index._orphans == {}


def test_late_children_of_a_rejected_block_are_not_pooled(index):
    tip = build_chain(index, 2, spend_base=500)
    bad = easy_child(tip, 5_000, (Transfer(7, 8, 1, 500),))
    child = easy_child(block_id(bad), 5_600)
    grand = easy_child(block_id(child), 6_200)
    assert index.add_block(bad).verdict is Verdict.DOUBLE_SPEND
    for block in (child, grand):
        assert index.add_block(block).verdict is Verdict.ORPHAN
        assert index._orphans == {}


def test_rejected_ids_are_forgotten_oldest_first(index, monkeypatch):
    monkeypatch.setattr(chain_module, "REJECTED_MEMORY", 2)
    tip = build_chain(index, 2, spend_base=500)
    bad = [easy_child(tip, 5_000 + i, (Transfer(7, 8, 1, 500),)) for i in range(3)]
    for block in bad:
        assert index.add_block(block).verdict is Verdict.DOUBLE_SPEND
    for block in bad[1:]:
        index.add_block(easy_child(block_id(block), 6_000))
        assert index._orphans == {}
    # The first refused id was forgotten, so its child is pooled again.
    index.add_block(easy_child(block_id(bad[0]), 6_000))
    assert list(index._orphans) == [block_id(bad[0])]


def test_bad_commitment_keeps_the_pool_for_the_genuine_block(index):
    good = easy_child(index.genesis_hash, 600, (Transfer(1, 2, 3, 4),))
    child = easy_child(block_id(good), 1_200)
    assert index.add_block(child).verdict is Verdict.ORPHAN
    copy = Block(good.header, ())  # same header id, other transfers
    assert index.add_block(copy).verdict is Verdict.BAD_COMMITMENT
    report = index.add_block(good)
    assert report.accepted_orphans == (block_id(child),)
    # A child arriving after the refused copy is still pooled: a bad
    # commitment says nothing about the id.
    good = easy_child(block_id(child), 1_800, (Transfer(1, 2, 3, 5),))
    assert index.add_block(Block(good.header, ())).verdict is Verdict.BAD_COMMITMENT
    late = easy_child(block_id(good), 2_400)
    assert index.add_block(late).verdict is Verdict.ORPHAN
    assert index.add_block(good).accepted_orphans == (block_id(late),)


def test_copy_of_an_accepted_block_with_other_transfers(index):
    report = extend(index, index.genesis_hash, 600, (Transfer(1, 2, 3, 4),))
    genuine = index.entry(report.block_hash).block
    copy = Block(genuine.header, (Transfer(1, 2, 99, 4),))  # same header id
    assert index.add_block(copy).verdict is Verdict.BAD_COMMITMENT
    assert index.add_block(genuine).verdict is Verdict.VALID
    assert index.entry(report.block_hash).block.transfers == genuine.transfers


# -- fork choice -----------------------------------------------------------------


def test_equal_work_keeps_first_seen(index):
    tip = build_chain(index, 1)
    a = index.mine_block(tip, (Transfer(1, 1, 1, 11),), timestamp=2000)
    b = index.mine_block(tip, (Transfer(2, 2, 2, 22),), timestamp=2000)
    ra = index.add_block(a)
    rb = index.add_block(b)
    assert ra.verdict is rb.verdict is Verdict.VALID
    assert index.tip == ra.block_hash
    assert not rb.tip_changed


def test_side_chain_overtake_reports_reorg_depth_one(index):
    tip = build_chain(index, 1)
    a = index.mine_block(tip, (Transfer(1, 1, 1, 11),), timestamp=2000)
    b = index.mine_block(tip, (Transfer(2, 2, 2, 22),), timestamp=2000)
    index.add_block(a)
    index.add_block(b)
    b2 = index.mine_block(block_id(b), (), timestamp=2600)
    report = index.add_block(b2)
    assert report.tip_changed and report.reorg_depth == 1
    assert index.tip == block_id(b2)


def test_attacker_seven_vs_honest_six(index):
    fork = build_chain(index, 1)
    honest = fork
    for i in range(6):
        honest = extend(index, honest, 3000 + i * 600,
                        (Transfer(1, 2, 1, 100 + i),)).block_hash
    assert index.tip == honest

    attacker = fork
    for i in range(7):
        report = extend(index, attacker, 3300 + i * 600,
                        (Transfer(9, 9, 1, 200 + i),))
        attacker = report.block_hash
    assert index.tip == attacker
    assert report.tip_changed and report.reorg_depth == 6

    # integer cumulative-work oracle: equal targets, so work is per-block
    per_block = work_from_target(target_from_compact(EASY_BITS))
    expect = (1 + 1 + 7) * per_block  # genesis + fork block + 7 attacker blocks
    assert index.entry(index.tip).cumulative_work == expect


def test_work_strictly_increases_along_chain(index):
    build_chain(index, 8)
    works = [index.entry(h).cumulative_work for h in index.best_chain()]
    assert all(b > a for a, b in zip(works, works[1:]))


def test_arrival_order_independence(index):
    import itertools

    tip = build_chain(index, 3)
    side = index.mine_block(index.best_chain()[1], (), timestamp=90_000)
    index.add_block(side)
    final_tip = index.tip
    assert final_tip == tip  # main chain is strictly heavier

    pool = [index.entry(h).block for h in index.best_chain()[1:]] + [side]
    # the orphan pool makes every arrival order equivalent, not just
    # parent-before-child ones; the side branch ends at height 2 with
    # cumulative work 21 against the main tip's 28, so no tie-break applies
    for perm in itertools.permutations(pool):
        replayed = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
        for block in perm:
            replayed.add_block(block)
        assert replayed.tip == final_tip


def test_arrival_order_equal_work_keeps_first_inserted(index):
    import itertools

    tip = build_chain(index, 3)
    side = index.mine_block(index.best_chain()[2], (), timestamp=90_000)
    index.add_block(side)
    tied = (tip, block_id(side))
    assert index.entry(tied[0]).cumulative_work == index.entry(tied[1]).cumulative_work

    pool = [index.entry(h).block for h in index.best_chain()[1:]] + [side]
    ancestors = [block_id(b) for b in pool[:2]]  # shared by both tied blocks
    for perm in itertools.permutations(pool):
        replayed = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
        for block in perm:
            replayed.add_block(block)
        first = min(tied, key=lambda h: replayed.entry(h).seq)
        assert replayed.tip == first
        # first inserted = whose last missing block arrived first; when one
        # arrival connects both, the pool drains them in their arrival order
        pos = {block_id(b): i for i, b in enumerate(perm)}
        assert first == min(tied, key=lambda h: (
            max(pos[a] for a in ancestors + [h]), pos[h]))


_FORK_PARENTS = (0, 1, 2, 3, 4, 1, 6, 7, 2, 0)  # 0 is genesis, i is block i


@functools.cache
def _fork_tree():
    # Mined once: a five-block main chain, a three-block branch off its
    # first block, and one-block branches off its second block and genesis.
    index = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    ids, heights, blocks = [index.genesis_hash], [0], []
    for i, p in enumerate(_FORK_PARENTS):
        heights.append(heights[p] + 1)
        block = index.mine_block(ids[p], (), timestamp=600 * heights[-1] + i)
        assert index.add_block(block).verdict is Verdict.VALID
        blocks.append(block)
        ids.append(block_id(block))
    tip = index.tip_entry()
    assert tip.hash == ids[5] and sorted(heights)[-2] < tip.height  # no tie
    return tuple(blocks), tip.hash, tip.cumulative_work


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(len(_FORK_PARENTS))))
def test_fork_choice_is_independent_of_arrival_order(order):
    blocks, tip, work = _fork_tree()
    replayed = ChainIndex(make_genesis(EASY_BITS, timestamp=0))
    for i in order:
        assert replayed.add_block(blocks[i]).verdict in (Verdict.VALID, Verdict.ORPHAN)
    assert replayed.tip == tip
    assert replayed.tip_entry().cumulative_work == work


def test_no_accepted_chain_has_duplicate_spend_ids(index):
    build_chain(index, 10)
    seen = set()
    for h in index.best_chain():
        for t in index.entry(h).block.transfers:
            assert t.spend_id not in seen
            seen.add(t.spend_id)


def test_spend_id_is_scoped_to_its_branch(index):
    # Sibling branches may each spend an id once; below either, it is spent.
    left = extend(index, index.genesis_hash, 600, [Transfer(1, 2, 5, 77)])
    right = extend(index, index.genesis_hash, 700, [Transfer(3, 4, 5, 77)])
    assert left.verdict is right.verdict is Verdict.VALID
    for fork, ts in ((left, 1200), (right, 1300)):
        child = extend(index, fork.block_hash, ts, [Transfer(1, 2, 1, 78)])
        assert child.verdict is Verdict.VALID
        for parent in (fork.block_hash, child.block_hash):
            reuse = index.mine_block(parent, (Transfer(5, 6, 1, 77),), ts + 600)
            assert index.add_block(reuse).verdict is Verdict.DOUBLE_SPEND


class _NaiveSpendChain:
    """Model of `ChainIndex` for blocks that pass every check but the spend
    rule: each spend check walks every ancestor back to genesis, the pool
    drains depth first in arrival order, and the first block to reach a
    greater height takes the tip (every block carries the same target)."""

    def __init__(self, genesis):
        gh = block_id(genesis)
        self.blocks = {gh: genesis}
        self.height = {gh: 0}
        self.pool = {}  # parent id -> {id: block}, in arrival order
        self.tip = gh

    def _spends_ok(self, block):
        spends = [t.spend_id for t in block.transfers]
        if len(set(spends)) != len(spends):
            return False
        h = block.header.parent_hash
        while True:
            ancestor = self.blocks[h]
            if any(t.spend_id in spends for t in ancestor.transfers):
                return False
            if self.height[h] == 0:
                return True
            h = ancestor.header.parent_hash

    def add(self, block):
        bh = block_id(block)
        parent = block.header.parent_hash
        if bh in self.blocks:
            return Verdict.VALID, ()
        if parent not in self.blocks:
            self.pool.setdefault(parent, {}).setdefault(bh, block)
            return Verdict.ORPHAN, ()
        if not self._spends_ok(block):
            return Verdict.DOUBLE_SPEND, ()
        accepted, todo = [], [(bh, block)]
        while todo:
            h, b = todo.pop()
            if not self._spends_ok(b):  # the pool holds unchecked blocks
                continue
            self.blocks[h] = b
            self.height[h] = self.height[b.header.parent_hash] + 1
            if self.height[h] > self.height[self.tip]:
                self.tip = h
            accepted.append(h)
            todo.extend(reversed(self.pool.pop(h, {}).items()))
        return Verdict.VALID, tuple(accepted[1:])


_SPEND_POOL = st.integers(0, 5)


@st.composite
def _spend_trees(draw):
    n = draw(st.integers(1, 23))
    parents = [draw(st.integers(0, i)) for i in range(n)]  # 0 is the genesis
    spends = [draw(st.lists(_SPEND_POOL, max_size=2)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    return draw(_SPEND_POOL), parents, spends, order


@settings(max_examples=60, deadline=None)
@given(_spend_trees())
def test_spend_index_matches_naive_ancestor_walk(tree):
    genesis_spend, parents, spends, order = tree
    transfers = (Transfer(0, 1, 1, genesis_spend),)
    genesis = Block(BlockHeader(1, bytes(32), transfers_commitment(transfers),
                                0, EASY_BITS, 0), transfers)
    target = target_from_compact(EASY_BITS)
    ids, depth, blocks = [block_id(genesis)], [0], []
    for i, (p, ids_spent) in enumerate(zip(parents, spends)):
        txs = tuple(Transfer(i, p, 1, s) for s in ids_spent)
        depth.append(depth[p] + 1)
        # Unique timestamps, increasing along every branch.
        template = BlockHeader(1, ids[p], transfers_commitment(txs),
                               600 * depth[-1] + i, EASY_BITS, 0)
        nonce = mine(template, generate_matrix(ids[p]), target, 0, 1 << 16,
                     batch=64)
        blocks.append(Block(template.with_nonce(nonce), txs))
        ids.append(block_id(blocks[-1]))

    index, model = ChainIndex(genesis), _NaiveSpendChain(genesis)
    for i in order:
        report = index.add_block(blocks[i])
        verdict, accepted = model.add(blocks[i])
        assert report.verdict is verdict
        assert set(report.accepted_orphans) == set(accepted)
    assert index.tip == model.tip


# -- retarget boundary in chain context --------------------------------------------


def test_chain_retarget_boundary():
    params = RetargetParams(window=4, expected_interval=600)
    index = ChainIndex(make_genesis(EASY_BITS, timestamp=0), params=params)
    tip = index.genesis_hash
    for i in range(4):  # heights 1..4 at 2x expected pace
        tip = extend(index, tip, (i + 1) * 1200).block_hash
    template = index.header_template(tip, (), timestamp=6000)
    want = target_from_compact(compact_from_target(
        2 * target_from_compact(EASY_BITS)))
    assert target_from_compact(template.compact_target) == want
    assert extend(index, tip, 6000).verdict is Verdict.VALID


def test_off_boundary_child_keeps_noncanonical_parent_bits():
    bits = 0x21002000  # 2**253 with one exponent byte more than EASY_BITS
    assert target_from_compact(bits) == target_from_compact(EASY_BITS)
    index = ChainIndex(make_genesis(bits, timestamp=0))
    template = index.header_template(index.genesis_hash, (), 600)
    assert template.compact_target == bits
    canonical = type(template)(template.version, template.parent_hash,
                               template.payload_commitment, template.timestamp,
                               EASY_BITS, 0)
    assert index.add_block(Block(canonical, ())).verdict is Verdict.BAD_TARGET
    assert extend(index, index.genesis_hash, 600).verdict is Verdict.VALID


# -- serialization ------------------------------------------------------------------


def test_block_bytes_roundtrip(index):
    build_chain(index, 3)
    for h in index.best_chain():
        block = index.entry(h).block
        assert block_from_bytes(block_to_bytes(block)) == block


def _uint(bits):
    return st.integers(0, (1 << bits) - 1)


_DIGESTS = st.binary(min_size=32, max_size=32)
_BLOCKS = st.builds(
    Block,
    header=st.builds(BlockHeader, version=_uint(32), parent_hash=_DIGESTS,
                     payload_commitment=_DIGESTS, timestamp=_uint(64),
                     compact_target=_uint(32), nonce=_uint(64)),
    transfers=st.lists(st.builds(Transfer, _uint(64), _uint(64), _uint(64),
                                 _uint(64)), max_size=5).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_BLOCKS)
def test_header_and_block_bytes_roundtrip_any_fields(block):
    assert deserialize_header(serialize_header(block.header)) == block.header
    assert block_from_bytes(block_to_bytes(block)) == block


def test_transfers_commitment_is_sha256_of_records():
    import hashlib
    transfers = (Transfer(1, 2, 3, 4), Transfer(5, 6, 7, 8))
    raw = b"".join(
        v.to_bytes(8, "little")
        for t in transfers for v in (t.sender, t.recipient, t.amount, t.spend_id))
    assert transfers_commitment(transfers) == hashlib.sha256(raw).digest()
    assert transfers_commitment(()) == hashlib.sha256(b"").digest()


def test_export_import_roundtrip(index):
    tip = build_chain(index, 5)
    side = index.mine_block(index.best_chain()[3], (), timestamp=90_000)
    index.add_block(side)
    buf = io.BytesIO()
    count = index.export_stream(buf)
    assert count == 7  # genesis + 5 + side block
    buf.seek(0)
    rebuilt = import_chain(buf)
    assert rebuilt.tip == index.tip == tip
    assert set(rebuilt.best_chain()) == set(index.best_chain())


def test_import_rejects_tampered_stream(index):
    build_chain(index, 2)
    buf = io.BytesIO()
    index.export_stream(buf)
    raw = bytearray(buf.getvalue())
    raw[-1] ^= 0xFF  # corrupt the last transfer byte
    with pytest.raises(ValueError):
        import_chain(io.BytesIO(bytes(raw)))
