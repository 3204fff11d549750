"""HeavyHash: SHA-256 sandwiched around a nibble matrix-vector weighting stage.

One round over an input byte string:

    d = SHA256(input)                      32 bytes
    x = nibbles(d)                         64 values in [0, 15]
    t = ((M @ x) >> 10) & 0xF              weighting, truncated to 4 bits
    out = SHA256(bytes(t ^ x))

The 64x64 weighting matrix M has 4-bit entries, is derived deterministically
from a 32-byte seed with xoshiro256++, and must be full rank over the
rationals so the weighting stage does not collapse distinct inputs.  Full
rank is shown by a float64 Cholesky of the exact Gram matrix A.T @ A, shifted
down by Rump's constant; where that refuses, by an exact integer residual
certificate on a float64 inverse; and where that refuses too, by exact
Bareiss elimination.  Each float step is a theorem about IEEE-754 binary64
arithmetic in any evaluation order and only ever certifies: a refusal passes
the candidate on to the next step.  So the verdict is the exact one on every
conforming platform, and the whole consensus path is exact.  The weighting
matmul runs in float32 and stays exact under any BLAS summation order: every
product is at most 225 and every partial sum an integer of at most
64 * 225 = 14400, below 2**24.  `heavyhash_many` holds the one round loop,
over a batch of inputs; `heavyhash` is a batch of one.

The xoshiro256 state update is linear over GF(2), so s0 of the next 256
states and the state after them are the XOR of one row per nibble of the
current state, from a (1024 x 260)-word jump table built on first use.  The
++ output also reads s3, and the update gives it from s0 alone: s3' =
rotl(s0' ^ s0, 45).  The stream is the published one.  Every derivation is
one stacked pass of `generate_matrices`: a single seed is a stack of one,
and chain import hands over 16 parents at a time.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

DIGEST_SIZE = 32
MATRIX_DIM = 64
DEMO_DIM = 16
NIBBLE_MAX = 15
TRUNCATE_SHIFT = 10

# Largest weighting accumulator for an n-wide matrix of 4-bit entries.
def accumulator_max(dim: int) -> int:
    return dim * NIBBLE_MAX * NIBBLE_MAX


_MASK64 = 0xFFFFFFFFFFFFFFFF

class ParameterError(ValueError):
    """Raised for dimension or parameter mismatches in the hash pipeline."""


def splitmix64(x: int) -> int:
    """One SplitMix64 step; used to condition the xoshiro seed words."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_BLOCK = 256  # outputs per jump-table step: one 64x64 candidate
_NIBBLE_SHIFTS = 4 * np.arange(16, dtype=np.uint64)


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


@functools.cache
def _jump_table() -> np.ndarray:
    # (1024, 260) uint64, 2.1 MB.  Row 16 p + v holds s0 of the next _BLOCK
    # states, then the state after them, for the state whose only nonzero
    # nibble is nibble p (bits 4p..4p+3 of s0|s1|s2|s3) = v.  Built by
    # running the state update on the 256 one-bit states at once.
    bits = np.arange(256)
    s = np.zeros((4, 256), dtype=np.uint64)
    s[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
    s0, s1, s2, s3 = s  # views: the update runs in place
    basis = np.empty((_BLOCK + 4, 256), dtype=np.uint64)
    for i in range(_BLOCK):
        basis[i] = s0
        t = s1 << np.uint64(17)  # the one xoshiro256 state update
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = _rotl(s3, 45)
    basis[_BLOCK:] = s
    basis = basis.T.reshape(64, 4, -1)  # nibble, bit of the nibble, word
    table = np.zeros((64, 16, _BLOCK + 4), dtype=np.uint64)
    for v in range(1, 16):
        low = (v & -v).bit_length() - 1
        table[:, v] = table[:, v & (v - 1)] ^ basis[:, low]
    table = table.reshape(64 * 16, -1)
    table.setflags(write=False)
    return table


_NIBBLE_ROWS = 16 * np.arange(64)  # the jump-table row of each nibble at 0


def _seed_state(seed: bytes) -> list[int]:
    # Four little-endian 64-bit words, each conditioned through one
    # SplitMix64 step so a zero digest (or any zero word) cannot produce the
    # forbidden all-zero state.
    s = [splitmix64(w) for w in struct.unpack("<4Q", seed)]
    if not any(s):  # only reachable for one adversarial 256-bit seed
        s[0] = 1
    return s


def _xoshiro_blocks(seeds: list[bytes]) -> Iterator[np.ndarray]:
    """xoshiro256++ outputs of each seed's stream, in order: (len(seeds),
    _BLOCK) uint64 arrays, row i from seeds[i].

    Per block, the XOR of one jump-table row per state nibble gives s0 of
    the next _BLOCK states and the state after them; s3 follows from s0,
    and the ++ output reads the two.
    """
    state = np.array([_seed_state(seed) for seed in seeds], dtype=np.uint64)
    table = _jump_table()
    while True:
        nibbles = (state[:, :, np.newaxis] >> _NIBBLE_SHIFTS) & np.uint64(0xF)
        rows = nibbles.reshape(len(state), 64).astype(np.intp) + _NIBBLE_ROWS
        words = np.bitwise_xor.reduce(table[rows], axis=1)
        s0 = words[:, :_BLOCK]
        s3 = np.empty_like(s0)
        s3[:, 0] = state[:, 3]
        s3[:, 1:] = _rotl(s0[:, 1:] ^ s0[:, :-1], 45)
        state = words[:, _BLOCK:]
        yield _rotl(s0 + s3, 23) + s0


def _candidates(block: np.ndarray, dim: int) -> np.ndarray:
    # (n, _BLOCK) words -> (n, _BLOCK * 16 // dim**2, dim, dim) uint8
    # candidates: row-major, 16 nibbles per word, least-significant first,
    # so the low nibble of each little-endian byte comes first.
    b = block.astype("<u8", copy=False).view(np.uint8)
    out = np.empty((len(b), 2 * b.shape[1]), dtype=np.uint8)
    out[:, 0::2] = b & 0x0F
    out[:, 1::2] = b >> 4
    return out.reshape(len(b), -1, dim, dim)


def _check_seed(seed: bytes) -> None:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != DIGEST_SIZE:
        raise ValueError(f"seed must be exactly {DIGEST_SIZE} bytes")


@dataclass(frozen=True)
class HeavyHashParams:
    """Pipeline knobs; everything else about the pipeline is a consensus constant."""

    rounds: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ParameterError("rounds must be >= 1")


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Full-rank matrix of 4-bit entries."""

    entries: np.ndarray  # (dim, dim) int64, values in [0, 15]
    weights_t: np.ndarray = field(init=False, repr=False)  # entries.T, float32

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("matrix must be square")
        if entries.shape[0] not in (DEMO_DIM, MATRIX_DIM):
            raise ValueError(f"matrix dimension must be {DEMO_DIM} or {MATRIX_DIM}")
        if entries.min() < 0 or entries.max() > NIBBLE_MAX:
            raise ValueError("matrix entries must be in [0, 15]")
        self._freeze(entries)

    @classmethod
    def _derived(cls, entries: np.ndarray) -> WeightMatrix:
        # No re-check: the derivation hands over a (dim, dim) int64 array
        # of its own, whose entries the nibble mask holds in [0, 15].
        matrix = object.__new__(cls)
        matrix._freeze(entries)
        return matrix

    def _freeze(self, entries: np.ndarray) -> None:
        weights_t = entries.T.astype(np.float32)
        for arr in (entries, weights_t):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weights_t", weights_t)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def identity_matrix() -> WeightMatrix:
    """Identity weighting; heavyhash degenerates to double SHA-256."""
    return WeightMatrix(entries=np.eye(MATRIX_DIM, dtype=np.int64))


def _split_nibbles(raw: bytes) -> np.ndarray:
    # Concatenated digests -> (n, 64) uint8, high nibble of each byte first.
    b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, DIGEST_SIZE)
    out = np.empty((len(b), 2 * DIGEST_SIZE), dtype=np.uint8)
    out[:, 0::2] = b >> 4
    out[:, 1::2] = b & 0x0F
    return out


def _pack_nibbles(x: np.ndarray) -> bytes:
    # Inverse of _split_nibbles for values already in [0, 15].
    return ((x[..., 0::2] << 4) | x[..., 1::2]).astype(np.uint8).tobytes()


def matrix_is_full_rank(matrix) -> bool:
    """Exact rank test over the rationals.

    Fraction-free Bareiss elimination in plain integer arithmetic; no
    floating point anywhere, so the verdict is exact for any integer matrix.
    """
    rows = [[int(v) for v in row] for row in np.asarray(matrix)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return False
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        pivot = rows[k][k]
        base = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * base[j]) // prev
            row[k] = 0
        prev = pivot
    return True


def _rump_factor(dim: int) -> float:
    # 2 g / (1 - g) for g = gamma_(n+2) = (n+2) u / (1 - (n+2) u), u = 2**-53:
    # exactly m / (2**52 - m) with m = n + 2, rounded up to a float.
    m, d = dim + 2, 2**52 - dim - 2
    f = m / d
    num, den = f.as_integer_ratio()
    return f if num * d >= m * den else math.nextafter(f, math.inf)


_RUMP_FACTOR = {dim: _rump_factor(dim) for dim in (DEMO_DIM, MATRIX_DIM)}


def _cholesky_certifies(entries: np.ndarray) -> bool:
    # True if every candidate of a (..., n, n) stack is certified full rank:
    # A is full rank iff G = A.T @ A is positive definite, and G is
    # exact (its partial sums are integers of at most 64 * 225 = 14400).
    # Rump (BIT Numer. Math. 46 (2006) 433-452): if floating-point Cholesky
    # of G - s*I runs to completion, with s >= 2 g / (1 - g) * tr(G) plus an
    # underflow term, then G is positive definite.  g = gamma_(n+2), not
    # Rump's gamma_(n+1), also covers a trsm that multiplies by reciprocals.
    # s is the power of two above fl(factor * tr(G)): it clears the exact
    # product by over 2**-154 (tr(G) >= 1) or is 1 (tr(G) = 0), far beyond
    # the underflow term, and s >= 2**-48 * tr(G) keeps G - s*I exact.
    # G is computed in float32, exact as 14400 < 2**24, then widened.
    # numpy's Cholesky raises for the whole stack if one candidate fails.
    a = entries.astype(np.float32)
    gram = (np.swapaxes(a, -1, -2) @ a).astype(np.float64)
    n = gram.shape[-1]
    trace = np.trace(gram, axis1=-2, axis2=-1)
    shift = np.ldexp(1.0, np.frexp(_RUMP_FACTOR[n] * trace)[1])
    gram.reshape(*gram.shape[:-2], n * n)[..., ::n + 1] -= shift[..., np.newaxis]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified_full_rank(entries: np.ndarray) -> bool:
    # Two one-sided certificates, each a theorem about binary64 arithmetic in
    # any evaluation order; False is inconclusive and falls back to the exact
    # test.  A refusal of the first (the shifted Gram Cholesky) goes on to
    # the second, so a seed whose candidate the first refuses costs an
    # inverse, not a Bareiss.
    if _cholesky_certifies(entries):
        return True
    # Second: X = rint(inv(A) * 2**e) with |X| <= 2**42, so every partial sum
    # of X @ A is an integer below 2**42 * 960 < 2**52 and float64 computes
    # it exactly in any summation order.  If every row of |2**e * I - X @ A|
    # sums below 2**e, then X @ A / 2**e is within 1 of I in the infinity
    # norm, hence invertible, and so is A.
    a = entries.astype(np.float64)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return False
    peak = float(np.abs(inv).max())
    if not math.isfinite(peak):
        return False
    e = 42 - math.frexp(peak)[1]  # peak < 2**(42 - e), so |X| <= 2**42
    if not 0 <= e <= 52:  # 2**e must be an integer inside the exact range
        return False
    residual = (np.rint(np.ldexp(inv, e)) @ a).astype(np.int64)
    residual.flat[::len(residual) + 1] -= 1 << e  # the diagonal
    return bool(np.abs(residual).sum(axis=1).max() < (1 << e))


# Seeds per stacked pass of generate_matrices, and blocks per batch of
# import_chain.  The temporaries grow with it, the (chunk, 64, 260)-word
# jump-table gather the largest: 2.1 MB at 16, 8.5 MB at 64.  Imports of a
# 1,060-block chain took a median 141, 130 and 124 us of CPU per block at 4,
# 8 and 16 (21 interleaved imports each, 2-vCPU Xeon).  At 64 the memory an
# import allocated and freed rose from 2.86 to 11.18 MiB (tracemalloc), and
# a 10 s sync benchmark run's peak RSS from 74.7 to 87.3 MB, past its bound.
DERIVE_CHUNK = 16


def generate_matrices(seeds: list[bytes], dim: int = MATRIX_DIM) -> list[WeightMatrix]:
    """Derive the weighting matrix of each seed, in order, deterministically.

    Candidates are drawn from each seed's xoshiro256++ stream, row-major, 16
    nibbles per 64-bit word, least-significant nibble first: one candidate
    per block at dim 64, sixteen at dim 16.  A candidate that is not full
    rank is discarded and the stream continues into the next one.

    Every derivation is one stacked pass over a chunk of up to `DERIVE_CHUNK`
    seeds: a single seed is a stack of one, and chain import hands over 16
    parents at a time.  The pass draws each seed's first block and certifies
    the first candidates in one Cholesky, which all but always settles the
    chunk; if it refuses, the chunk runs again one candidate at a time,
    through every certificate, Bareiss and the stream's next candidates.
    """
    for seed in seeds:
        _check_seed(seed)
    if dim not in (DEMO_DIM, MATRIX_DIM):
        raise ValueError(f"dim must be {DEMO_DIM} or {MATRIX_DIM}")
    out: list[WeightMatrix] = []
    for start in range(0, len(seeds), DERIVE_CHUNK):
        chunk = seeds[start:start + DERIVE_CHUNK]
        first = _candidates(next(_xoshiro_blocks(chunk)), dim)[:, 0]
        if _cholesky_certifies(first):
            out += [WeightMatrix._derived(e.astype(np.int64)) for e in first]
        else:
            out += [WeightMatrix._derived(_first_full_rank(s, dim)) for s in chunk]
    return out


def _first_full_rank(seed: bytes, dim: int) -> np.ndarray:
    # The seed's first full-rank candidate, one candidate at a time.
    for block in _xoshiro_blocks([seed]):
        for candidate in _candidates(block, dim)[0]:
            entries = candidate.astype(np.int64)
            if _certified_full_rank(entries) or matrix_is_full_rank(entries):
                return entries


def generate_matrix(seed: bytes, dim: int = MATRIX_DIM) -> WeightMatrix:
    """The weighting matrix for `seed`: `generate_matrices` of one seed."""
    return generate_matrices([seed], dim)[0]


def _weighting_sums(matrix: WeightMatrix, x: np.ndarray) -> np.ndarray:
    # The one weighting matmul, unchecked.  float32 is exact: every partial
    # sum is an integer of at most accumulator_max(64) = 14400 < 2**24, so
    # the sums also fit uint16.
    return (x.astype(np.float32) @ matrix.weights_t).astype(np.uint16)


def _weight_digests(matrix: WeightMatrix, digests: bytes) -> bytes:
    # One round's middle stage over concatenated digests: t ^ x, packed.
    x = _split_nibbles(digests)
    t = (_weighting_sums(matrix, x) >> TRUNCATE_SHIFT).astype(np.uint8) & 0xF
    return _pack_nibbles(t ^ x)


def _check_nibbles(matrix: WeightMatrix, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != matrix.dim:
        raise ParameterError(
            f"vector length {arr.shape} does not match matrix dim {matrix.dim}"
        )
    if arr.size and (arr.min() < 0 or arr.max() > NIBBLE_MAX):
        raise ValueError("nibble values must be in [0, 15]")
    return arr


def weighting_sums(matrix: WeightMatrix, x: np.ndarray) -> np.ndarray:
    """Raw accumulators y = M @ x before truncation, exact; vector or batch."""
    return _weighting_sums(matrix, _check_nibbles(matrix, x)).astype(np.int64)


def weighting(matrix: WeightMatrix, x: np.ndarray) -> np.ndarray:
    """Truncated weighting t_i = ((M @ x)_i >> 10) & 0xF; vector or batch."""
    return (weighting_sums(matrix, x) >> TRUNCATE_SHIFT) & 0xF


def heavyhash(params: HeavyHashParams, matrix: WeightMatrix, data: bytes) -> bytes:
    """Full HeavyHash of a byte string; 32-byte digest."""
    return heavyhash_many(params, matrix, [data])[0]


# Inputs per pass of heavyhash_many's round loop: the numpy temporaries
# take about 616 B per input, 2.5 MB for a block.
_HASH_BLOCK = 4096


def heavyhash_many(params: HeavyHashParams, matrix: WeightMatrix,
                   inputs: list[bytes]) -> list[bytes]:
    """HeavyHash of every input, in order.

    The inputs run in blocks of `_HASH_BLOCK`: each round weights the
    nibbles of one block in one matrix product, and a block runs all its
    rounds before the next starts.  Beside the inputs and the returned
    digests, the working set is one block's, about 2.5 MB, for any batch.
    """
    if matrix.dim != MATRIX_DIM:
        raise ParameterError(f"heavyhash needs a {MATRIX_DIM}-wide matrix")
    out: list[bytes] = []
    for start in range(0, len(inputs), _HASH_BLOCK):
        data = inputs[start:start + _HASH_BLOCK]
        for _ in range(params.rounds):
            packed = _weight_digests(
                matrix, b"".join(hashlib.sha256(d).digest() for d in data))
            data = [
                hashlib.sha256(packed[i:i + DIGEST_SIZE]).digest()
                for i in range(0, len(packed), DIGEST_SIZE)
            ]
        out += data
    return out
