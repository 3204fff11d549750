import functools
import hashlib
import itertools
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opow.heavyhash import (
    _BLOCK,
    DERIVE_CHUNK,
    _HASH_BLOCK,
    HeavyHashParams,
    ParameterError,
    WeightMatrix,
    _certified_full_rank,
    _cholesky_certifies,
    _pack_nibbles,
    _split_nibbles,
    _weight_digests,
    _xoshiro_blocks,
    accumulator_max,
    generate_matrices,
    generate_matrix,
    heavyhash,
    heavyhash_many,
    identity_matrix,
    matrix_is_full_rank,
    weighting,
    weighting_sums,
)
from reference_oracles import (
    ref_heavyhash,
    ref_matrix,
    ref_nibbles,
    ref_rank_is_full,
    ref_splitmix64,
    ref_weighting,
    ref_xoshiro_words,
)

PARAMS = HeavyHashParams()


# -- package ------------------------------------------------------------------


def test_submodules_are_not_shadowed_by_package_names():
    # `import opow.x as m` binds the package attribute `x`, so a package-level
    # name equal to a submodule's (a re-exported function `heavyhash`, say)
    # would hand out that name instead of the module.
    import pkgutil
    import types

    import opow

    for info in pkgutil.iter_modules(opow.__path__):
        namespace = {}
        exec(f"import opow.{info.name} as m", namespace)
        assert isinstance(namespace["m"], types.ModuleType), info.name


# -- nibble codec ------------------------------------------------------------


def digest_to_nibbles(digest: bytes) -> np.ndarray:
    """The 64 nibbles of a digest through the program's split, high nibble
    of each byte first."""
    if len(digest) != 32:
        raise ValueError("digest must be exactly 32 bytes")
    return _split_nibbles(digest)[0].astype(np.int64)


def nibbles_to_digest(nibbles) -> bytes:
    """Inverse of digest_to_nibbles, through the program's packing."""
    arr = np.asarray(nibbles, dtype=np.int64)
    if arr.shape != (64,) or arr.min() < 0 or arr.max() > 15:
        raise ValueError("expected 64 nibbles in [0, 15]")
    return _pack_nibbles(arr)


def test_nibble_split_examples():
    digest = bytes([0xAB, 0xCD]) + bytes(30)
    nibbles = digest_to_nibbles(digest)
    assert nibbles[:4].tolist() == [10, 11, 12, 13]
    assert digest_to_nibbles(bytes(32)).tolist() == [0] * 64


def test_nibble_roundtrip():
    rng = random.Random(1)
    for _ in range(1000):
        digest = rng.randbytes(32)
        assert nibbles_to_digest(digest_to_nibbles(digest)) == digest


def test_nibble_validation():
    with pytest.raises(ValueError):
        digest_to_nibbles(b"short")
    with pytest.raises(ValueError):
        nibbles_to_digest(np.zeros(63, dtype=np.int64))
    with pytest.raises(ValueError):
        nibbles_to_digest(np.full(64, 16, dtype=np.int64))


# -- matrix generation -------------------------------------------------------


def _xoshiro_words(seed: bytes, blocks: int) -> list[int]:
    # The first `blocks` blocks of the stream, concatenated across their edges.
    drawn = list(itertools.islice(_xoshiro_blocks([seed]), blocks))
    assert all(b.dtype == np.uint64 and b.shape == (1, _BLOCK) for b in drawn)
    return [v for b in drawn for v in b[0].tolist()]


def test_xoshiro_matches_reference():
    rng = random.Random(7)
    for seed in [bytes(32)] + [rng.randbytes(32) for _ in range(20)]:
        assert _xoshiro_words(seed, 3) == ref_xoshiro_words(seed, 3 * _BLOCK)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.integers(1, 3))
def test_xoshiro_draws_across_refills_match_reference(seed, blocks):
    assert _xoshiro_words(seed, blocks) == ref_xoshiro_words(seed, blocks * _BLOCK)


def test_matrix_determinism():
    seed = b"\x05" * 32
    a = generate_matrix(seed)
    b = generate_matrix(seed)
    assert np.array_equal(a.entries, b.entries)


def test_matrix_row0_golden(m0, golden):
    row0 = "".join(f"{v:x}" for v in m0.entries[0])
    assert row0 == golden["matrix_row0"]


def test_matrix_matches_reference_oracle():
    rng = random.Random(3)
    for dim, count in ((64, 2), (16, 5)):
        for _ in range(count):
            seed = rng.randbytes(32)
            lib = generate_matrix(seed, dim=dim)
            assert lib.entries.tolist() == ref_matrix(seed, dim=dim)


@pytest.mark.parametrize("dim", [64, 16])
def test_refused_candidate_continues_the_stream(dim, monkeypatch):
    # Refuse only the first candidate in the stacked pass and in both rank
    # tests: the matrix must be the second candidate, filled from the words
    # that follow the first.
    import opow.heavyhash as hh

    def refuse_first(test):
        calls = itertools.count()
        return lambda entries: next(calls) > 0 and test(entries)

    monkeypatch.setattr(hh, "_cholesky_certifies", refuse_first(_cholesky_certifies))
    monkeypatch.setattr(hh, "_certified_full_rank", refuse_first(_certified_full_rank))
    monkeypatch.setattr(hh, "matrix_is_full_rank", refuse_first(matrix_is_full_rank))
    seed = bytes(range(32))
    words = dim * dim // 16
    # Row-major fill, 16 nibbles per word, least-significant nibble first.
    nibbles = [(w >> 4 * k) & 0xF
               for w in ref_xoshiro_words(seed, 2 * words)[words:] for k in range(16)]
    expected = [nibbles[r * dim:(r + 1) * dim] for r in range(dim)]
    assert generate_matrix(seed, dim=dim).entries.tolist() == expected


def test_matrix_entry_range(m0):
    assert m0.entries.min() >= 0 and m0.entries.max() <= 15
    assert m0.dim == 64


def test_full_rank_examples():
    assert matrix_is_full_rank(np.eye(16, dtype=np.int64))
    dup = np.eye(16, dtype=np.int64)
    dup[1] = dup[0]
    assert not matrix_is_full_rank(dup)
    assert not matrix_is_full_rank(np.ones((16, 16), dtype=np.int64))


def test_full_rank_vs_fraction_oracle():
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = rng.integers(0, 16, size=(16, 16))
        assert matrix_is_full_rank(m) == ref_rank_is_full(m.tolist())
        # engineered dependency: last row = sum of first two
        m2 = m.copy()
        m2[-1] = m2[0] + m2[1]
        assert matrix_is_full_rank(m2) == ref_rank_is_full(m2.tolist())


def test_certificate_refuses_singular_and_certifies_only_full_rank():
    rng = np.random.default_rng(23)
    for dim in (16, 64, 16, 64, 16, 64):
        m = rng.integers(0, 16, size=(dim, dim))
        assert _certified_full_rank(m)  # all but always, for random nibbles
        assert matrix_is_full_rank(m)
        half = m // 2  # keeps row 0 + row 1 inside [0, 15]
        row_sum = half.copy()
        row_sum[-1] = half[0] + half[1]
        repeated_row, repeated_col, zero_row = m.copy(), m.copy(), m.copy()
        repeated_row[-1] = m[0]
        repeated_col[:, -1] = m[:, 0]
        zero_row[dim // 2] = 0
        for singular in (repeated_row, repeated_col, row_sum, zero_row,
                         np.ones_like(m)):
            assert not _certified_full_rank(singular)
    # Full rank, but its inverse holds entries up to 15**63: the certificate
    # refuses it, which leaves the verdict to the exact test.
    ill = np.eye(64, dtype=np.int64) + 15 * np.eye(64, k=1, dtype=np.int64)
    assert not _certified_full_rank(ill)
    assert matrix_is_full_rank(ill)


def _count_calls(monkeypatch, owner, name) -> list:
    # Replace owner.name by a wrapper that records each call's arguments.
    calls, real = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_first_candidate_full_rank_rate(monkeypatch):
    # Fraction of first candidates that are already full rank, over 10**4
    # seeds; expected essentially 1 (singular nibble matrices are rare).  At
    # dim 64 the first block is the first candidate, filled row-major, 16
    # nibbles per word, least-significant nibble first.  Work budget: the
    # shifted Gram Cholesky certifies all but 3 of them, the inverse
    # certificate those 3, and no candidate reaches Bareiss.
    inverses = _count_calls(monkeypatch, np.linalg, "inv")
    rng = random.Random(99)
    shifts = 4 * np.arange(16, dtype=np.uint64)
    full = bareiss = 0
    n = 10_000
    for _ in range(n):
        block = next(_xoshiro_blocks([rng.randbytes(32)]))[0]
        entries = ((block[:, np.newaxis] >> shifts) & np.uint64(0xF)).astype(
            np.int64).reshape(64, 64)
        if _certified_full_rank(entries):
            full += 1
        else:
            bareiss += 1
            full += matrix_is_full_rank(entries)
    assert full / n > 0.99
    assert (len(inverses), bareiss) == (3, 0)


def test_candidate_the_cholesky_step_refuses_goes_to_the_inverse(monkeypatch):
    # Seed 1167 of test_first_candidate_full_rank_rate's: the shifted Gram
    # Cholesky refuses its first candidate, the inverse certificate takes it,
    # and the matrix is that first candidate, as the reference derives it.
    import opow.heavyhash as hh

    seed = bytes.fromhex(
        "33dc1276e60c683e1dcfcbe2c1ac4fafd10cb0f88021096eb88d5c122b7b8338")
    inverses = _count_calls(monkeypatch, np.linalg, "inv")
    bareiss = _count_calls(monkeypatch, hh, "matrix_is_full_rank")
    entries = generate_matrix(seed).entries
    assert (len(inverses), len(bareiss)) == (1, 0)
    assert entries.tolist() == ref_matrix(seed)


@st.composite
def rank_deficient(draw, dim):
    """A nibble matrix of rank below `dim`: one row a copy of another, zero,
    or the sum of 2 to 5 others (reduced so the sum stays in [0, 15]), over
    random nibbles; transposed half the time, so columns too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, 16, size=(dim, dim))
    target = draw(st.integers(0, dim - 1))
    others = st.integers(0, dim - 1).filter(lambda i: i != target)
    kind = draw(st.sampled_from(["copy", "zero", "sum"]))
    if kind == "copy":
        m[target] = m[draw(others)]
    elif kind == "zero":
        m[target] = 0
    else:
        rows = draw(st.lists(others, min_size=2, max_size=5, unique=True))
        m[rows] %= 15 // len(rows) + 1
        m[target] = m[rows].sum(axis=0)
    return m.T if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([16, 64]).flatmap(rank_deficient))
def test_certificate_never_certifies_a_rank_deficient_matrix(m):
    assert not _certified_full_rank(m)
    if len(m) == 16:
        assert not ref_rank_is_full(m.tolist())


@settings(max_examples=150, deadline=None)
@given(rank_deficient(16), st.integers(0, 255), st.sampled_from([-1, 1]))
def test_certificate_agrees_with_exact_rank_at_dim_16(m, at, step):
    # One entry of a rank-deficient matrix moved by one: often full rank but
    # ill-conditioned, sometimes still singular.  Certified means full rank.
    m = m.copy()
    m.flat[at] = min(max(m.flat[at] + step, 0), 15)
    if _certified_full_rank(m):
        assert ref_rank_is_full(m.tolist())


def test_generated_matrix_is_full_rank():
    rng = random.Random(4)
    for _ in range(5):
        m = generate_matrix(rng.randbytes(32))
        assert matrix_is_full_rank(m.entries)


# -- batch derivation ----------------------------------------------------------

# The first candidate of this seed is the one of 10**4 that the shifted Gram
# Cholesky refuses (test_candidate_the_cholesky_step_refuses_goes_to_the_inverse).
_CHOLESKY_REFUSED = bytes.fromhex(
    "33dc1276e60c683e1dcfcbe2c1ac4fafd10cb0f88021096eb88d5c122b7b8338")
_M64 = (1 << 64) - 1


def _unxorshift(y: int, k: int) -> int:
    # Inverse of x -> x ^ (x >> k) on 64-bit words.
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def inverse_splitmix64(y: int) -> int:
    """The word that ref_splitmix64 maps to y: each of its steps undone."""
    x = _unxorshift(y, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _M64
    x = _unxorshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _M64
    x = _unxorshift(x, 30)
    return (x - 0x9E3779B97F4A7C15) & _M64


def test_inverse_splitmix64_inverts_the_reference():
    rng = random.Random(21)
    for y in [0, 1, _M64] + [rng.getrandbits(64) for _ in range(200)]:
        assert ref_splitmix64(inverse_splitmix64(y)) == y


# The one seed whose four SplitMix64 words are all zero: the forbidden
# all-zero xoshiro state, which the seeding replaces by s0 = 1.
_ZERO_STATE_SEED = struct.pack("<4Q", *[inverse_splitmix64(0)] * 4)


def test_seed_with_an_all_zero_splitmix_state_follows_the_reference():
    assert _xoshiro_words(_ZERO_STATE_SEED, 2) == ref_xoshiro_words(
        _ZERO_STATE_SEED, 2 * _BLOCK)
    for dim in (16, 64):
        expected = _ref_entries(_ZERO_STATE_SEED, dim)
        assert generate_matrix(_ZERO_STATE_SEED, dim).entries.tolist() == expected
        batch = generate_matrices([bytes(32), _ZERO_STATE_SEED], dim)
        assert batch[1].entries.tolist() == expected


@functools.cache
def _ref_entries(seed: bytes, dim: int) -> list:
    return ref_matrix(seed, dim=dim)


# Seeds the batches draw from, repeats allowed; ref_matrix takes about 0.5 s
# a seed at dim 64, so that pool is small.
_BATCH_POOL = {
    16: [bytes(32), _ZERO_STATE_SEED, _CHOLESKY_REFUSED]
        + [random.Random(i).randbytes(32) for i in range(5)],
    64: [bytes(32), _ZERO_STATE_SEED, _CHOLESKY_REFUSED,
         random.Random(0).randbytes(32)],
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 64]).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.sampled_from(_BATCH_POOL[dim]), max_size=2 * DERIVE_CHUNK + 3))))
def test_generate_matrices_is_generate_matrix_of_each_seed(case):
    dim, seeds = case
    batch = generate_matrices(seeds, dim)
    assert len(batch) == len(seeds)
    for matrix, seed in zip(batch, seeds):
        assert matrix.dim == dim
        assert (matrix.entries.tolist() == generate_matrix(seed, dim).entries.tolist()
                == _ref_entries(seed, dim))


def test_refused_chunk_runs_again_one_candidate_at_a_time(monkeypatch):
    # The stacked Cholesky passes a chunk without the per-candidate steps; a
    # chunk holding the refused candidate runs them once a seed, and so
    # costs the one inverse (and no Bareiss) that the seed costs alone.  The
    # next chunk is stacked again.
    import opow.heavyhash as hh

    seeds = [random.Random(i).randbytes(32) for i in range(DERIVE_CHUNK)]
    per_candidate = _count_calls(monkeypatch, hh, "_certified_full_rank")
    inverses = _count_calls(monkeypatch, np.linalg, "inv")
    bareiss = _count_calls(monkeypatch, hh, "matrix_is_full_rank")
    clean = generate_matrices(seeds)
    assert (len(per_candidate), len(inverses), len(bareiss)) == (0, 0, 0)
    seeds[5] = _CHOLESKY_REFUSED
    refused = generate_matrices(seeds + seeds[:2])
    assert (len(per_candidate), len(inverses), len(bareiss)) == (DERIVE_CHUNK, 1, 0)
    assert refused[5].entries.tolist() == _ref_entries(_CHOLESKY_REFUSED, 64)
    for i in (0, 1, 2, DERIVE_CHUNK - 1):
        assert refused[i].entries.tolist() == clean[i].entries.tolist()


@pytest.mark.parametrize("dim", [16, 64])
def test_a_single_seed_derives_through_the_stacked_pass(dim, monkeypatch):
    # generate_matrix is a stack of one: one Cholesky over a (1, dim, dim)
    # stack settles a clean seed, and no per-candidate step runs.
    import opow.heavyhash as hh

    stacked = _count_calls(monkeypatch, hh, "_cholesky_certifies")
    per_candidate = _count_calls(monkeypatch, hh, "_certified_full_rank")
    seed = random.Random(dim).randbytes(32)
    assert generate_matrix(seed, dim).entries.tolist() == _ref_entries(seed, dim)
    assert [entries.shape for entries, in stacked] == [(1, dim, dim)]
    assert per_candidate == []

def test_derived_matrix_is_the_checked_constructor_s():
    # generate_matrices skips the constructor's checks, not its freezing.
    for matrix in generate_matrices([bytes(32), b"\x01" * 32]) + [
            generate_matrix(bytes(32), 16)]:
        checked = WeightMatrix(entries=matrix.entries.copy())
        for name in ("entries", "weights_t"):
            derived, built = getattr(matrix, name), getattr(checked, name)
            assert derived.dtype == built.dtype and (derived == built).all()
            assert not derived.flags.writeable
        assert matrix.dim == checked.dim


# -- weighting ---------------------------------------------------------------


def test_weighting_identity_is_zero():
    ident = identity_matrix()
    rng = np.random.default_rng(0)
    x = rng.integers(0, 16, size=64)
    assert (weighting(ident, x) == 0).all()


def test_weighting_all_ones_arithmetic():
    # Rank-1, so generate_matrix would never emit it, but the arithmetic is
    # fixed: 64 * 15 * 15 = 14400 -> (14400 >> 10) & 0xF == 14.
    m = WeightMatrix(entries=np.full((64, 64), 15, dtype=np.int64))
    assert (weighting(m, np.full(64, 15)) == 14).all()


def test_weighting_golden(m0, golden):
    x = digest_to_nibbles(bytes.fromhex(golden["weighting_input"]))
    out = "".join(f"{v:x}" for v in weighting(m0, x))
    assert out == golden["weighting_output"]
    assert golden["weighting_input"] == hashlib.sha256(b"").hexdigest()


def test_weighting_bounds_and_oracle(m0):
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.integers(0, 16, size=64)
        sums = weighting_sums(m0, x)
        assert sums.min() >= 0 and sums.max() <= 14400
        t = weighting(m0, x)
        assert t.min() >= 0 and t.max() <= 15
        assert t.tolist() == ref_weighting(m0.entries.tolist(), x.tolist())
    xs = rng.integers(0, 16, size=(50, 64))
    assert weighting(m0, xs).tolist() == [
        ref_weighting(m0.entries.tolist(), x.tolist()) for x in xs]
    assert (weighting_sums(m0, xs) == np.vstack([weighting_sums(m0, x)
                                                 for x in xs])).all()


def test_weighting_dimension_mismatch(m0):
    with pytest.raises(ParameterError):
        weighting(m0, np.zeros(16, dtype=np.int64))


# -- heavyhash ---------------------------------------------------------------


def test_identity_matrix_gives_double_sha():
    ident = identity_matrix()
    rng = random.Random(8)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 200))
        expected = hashlib.sha256(hashlib.sha256(data).digest()).digest()
        assert heavyhash(PARAMS, ident, data) == expected


def test_heavyhash_golden(m0, golden):
    assert heavyhash(PARAMS, m0, b"").hex() == golden["heavyhash_empty"]


def test_heavyhash_matches_reference(m0):
    rng = random.Random(10)
    for _ in range(20):
        data = rng.randbytes(rng.randrange(0, 100))
        assert heavyhash(PARAMS, m0, data) == ref_heavyhash(m0.entries.tolist(), data)


def test_rounds_compose(m0):
    two = HeavyHashParams(rounds=2)
    once = heavyhash(PARAMS, m0, b"seed data")
    assert heavyhash(two, m0, b"seed data") == heavyhash(PARAMS, m0, once)


def test_heavyhash_many_matches_scalar(m0):
    rng = random.Random(12)
    entries = m0.entries.tolist()
    inputs = [rng.randbytes(rng.randrange(0, 120)) for _ in range(200)]
    for rounds in (1, 2):
        params = HeavyHashParams(rounds=rounds)
        batched = heavyhash_many(params, m0, inputs)
        for data, digest in zip(inputs, batched):
            assert digest == ref_heavyhash(entries, data, rounds)
        assert heavyhash_many(params, m0, inputs[:1]) == batched[:1]
    assert heavyhash_many(PARAMS, m0, []) == []


# heavyhash_many runs its rounds a block of _HASH_BLOCK inputs at a time:
# batches at and around one and two blocks.
_B = _HASH_BLOCK
_EDGE_SIZES = [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3]
_EDGE_INPUTS = [random.Random(i).randbytes(i % 120) for i in range(max(_EDGE_SIZES))]


@pytest.fixture(scope="module")
def per_input_digests(m0):
    return {rounds: [heavyhash(HeavyHashParams(rounds=rounds), m0, data)
                     for data in _EDGE_INPUTS]
            for rounds in (1, 2, 3)}


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("n", _EDGE_SIZES)
def test_heavyhash_many_across_block_edges(m0, per_input_digests, n, rounds):
    digests = heavyhash_many(HeavyHashParams(rounds=rounds), m0, _EDGE_INPUTS[:n])
    assert digests == per_input_digests[rounds][:n]
    # The first and last inputs of each block, against the reference.
    entries = m0.entries.tolist()
    for i in sorted({0, _B - 1, _B, 2 * _B - 1, 2 * _B, n - 1} & set(range(n))):
        assert digests[i] == ref_heavyhash(entries, _EDGE_INPUTS[i], rounds)


def test_heavyhash_many_working_memory_is_bounded(m0):
    # One matrix product over a whole batch took about 616 B of numpy
    # temporaries per input, 40 MB here; a block's take 2.5 MB, and the
    # 65,536 returned digests about 4.7 MB.
    headers = [i.to_bytes(88, "little") for i in range(65_536)]
    tracemalloc.start()
    try:
        digests = heavyhash_many(PARAMS, m0, headers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(digests) == len(headers)
    assert peak < 12e6


def test_float32_kernel_exact_at_the_accumulator_bound(m0):
    # float32 holds every integer only up to 2**24; the all-15 matrix on an
    # all-0xFF digest drives every accumulator to its bound, 14400.
    full = WeightMatrix(entries=np.full((64, 64), 15))
    assert (weighting_sums(full, np.full(64, 15)) == accumulator_max(64)).all()
    rng = random.Random(15)
    digests = [b"\xff" * 32] + [rng.randbytes(32) for _ in range(299)]
    packed = _weight_digests(full, b"".join(digests))
    assert packed[:32] == b"\x11" * 32  # t = (14400 >> 10) & 0xF = 14; 14 ^ 15 = 1
    for i, d in enumerate(digests):
        x = ref_nibbles(d)
        z = [t ^ v for t, v in zip(ref_weighting(full.entries.tolist(), x), x)]
        assert packed[32 * i:32 * i + 32] == bytes(
            (z[2 * j] << 4) | z[2 * j + 1] for j in range(32))
    # Batches long enough for BLAS's blocked path, through heavyhash_many.
    inputs = [rng.randbytes(88) for _ in range(300)]
    for matrix in (full, m0):
        entries = matrix.entries.tolist()
        assert heavyhash_many(PARAMS, matrix, inputs) == [
            ref_heavyhash(entries, data) for data in inputs]


def test_params_validation(m0):
    with pytest.raises(ParameterError):
        HeavyHashParams(rounds=0)
    demo = generate_matrix(bytes(32), dim=16)
    with pytest.raises(ParameterError):
        heavyhash(PARAMS, demo, b"")


def test_xor_recombination_injective(m0):
    # Distinct inner digests must produce distinct pre-outer-hash strings.
    rng = random.Random(14)
    seen = set()
    for _ in range(2000):
        digest = rng.randbytes(32)
        x = digest_to_nibbles(digest)
        z = weighting(m0, x) ^ x
        seen.add(nibbles_to_digest(z))
    assert len(seen) == 2000


def test_avalanche_quick(m0):
    rng = random.Random(15)
    inputs = [rng.randbytes(32) for _ in range(1000)]
    flipped = []
    for data in inputs:
        bit = rng.randrange(256)
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        flipped.append(bytes(mutated))
    base = heavyhash_many(PARAMS, m0, inputs)
    mut = heavyhash_many(PARAMS, m0, flipped)
    fractions = [
        bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1") / 256
        for a, b in zip(base, mut)
    ]
    mean = sum(fractions) / len(fractions)
    assert 0.45 < mean < 0.55
