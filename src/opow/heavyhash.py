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

The xoshiro256 state update is linear over GF(2), so s0 and s3 of the next
256 states (all the ++ output reads) and the state after them are the XOR
of one row per nibble of the current state, from a (64 x 16 x 516)-word
jump table built on first use; the stream is the published one.
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


@functools.cache
def _jump_table() -> np.ndarray:
    # (64, 16, 516) uint64, 4.2 MB.  Row [p, v] holds s0 of the next _BLOCK
    # states, then their s3, then the state after them, for the state whose
    # only nonzero nibble is nibble p (bits 4p..4p+3 of s0|s1|s2|s3) = v.
    # Built by running the state update on the 256 one-bit states at once.
    bits = np.arange(256)
    s = np.zeros((4, 256), dtype=np.uint64)
    s[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
    s0, s1, s2, s3 = s  # views: the update runs in place
    basis = np.empty((2 * _BLOCK + 4, 256), dtype=np.uint64)
    for i in range(_BLOCK):
        basis[i], basis[_BLOCK + i] = s0, s3
        t = s1 << np.uint64(17)  # the one xoshiro256 state update
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
    basis[2 * _BLOCK:] = s
    basis = basis.T.reshape(64, 4, -1)  # nibble, bit of the nibble, word
    table = np.zeros((64, 16, 2 * _BLOCK + 4), dtype=np.uint64)
    for v in range(1, 16):
        low = (v & -v).bit_length() - 1
        table[:, v] = table[:, v & (v - 1)] ^ basis[:, low]
    table.setflags(write=False)
    return table


def _xoshiro_blocks(seed: bytes) -> Iterator[np.ndarray]:
    """xoshiro256++ outputs as uint64 arrays of _BLOCK words, in order.

    Seeded from a 32-byte digest read as four little-endian 64-bit words,
    each conditioned through one SplitMix64 step so a zero digest (or any
    zero word) cannot produce the forbidden all-zero state.  Per block, the
    XOR of one jump-table row per state nibble gives s0 and s3 of the next
    _BLOCK states and the state after them; the ++ output reads s0 and s3.
    """
    s = [splitmix64(w) for w in struct.unpack("<4Q", seed)]
    if not any(s):  # only reachable for one adversarial 256-bit seed
        s[0] = 1
    state = np.array(s, dtype=np.uint64)
    table = _jump_table()
    while True:
        nibbles = (state[:, np.newaxis] >> _NIBBLE_SHIFTS) & np.uint64(0xF)
        rows = table[np.arange(64), nibbles.ravel().astype(np.intp)]
        words = np.bitwise_xor.reduce(rows, axis=0)
        s0, s3 = words[:_BLOCK], words[_BLOCK:2 * _BLOCK]
        state = words[2 * _BLOCK:]
        r = s0 + s3
        yield ((r << np.uint64(23)) | (r >> np.uint64(41))) + s0


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
    """Full-rank matrix of 4-bit entries plus the seed it was derived from."""

    entries: np.ndarray  # (dim, dim) int64, values in [0, 15]
    seed: bytes
    weights_t: np.ndarray = field(init=False, repr=False)  # entries.T, float32

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("matrix must be square")
        if entries.shape[0] not in (DEMO_DIM, MATRIX_DIM):
            raise ValueError(f"matrix dimension must be {DEMO_DIM} or {MATRIX_DIM}")
        if entries.min() < 0 or entries.max() > NIBBLE_MAX:
            raise ValueError("matrix entries must be in [0, 15]")
        _check_seed(self.seed)
        weights_t = entries.T.astype(np.float32)
        for arr in (entries, weights_t):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weights_t", weights_t)
        object.__setattr__(self, "seed", bytes(self.seed))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def identity_matrix() -> WeightMatrix:
    """Identity weighting; heavyhash degenerates to double SHA-256."""
    return WeightMatrix(entries=np.eye(MATRIX_DIM, dtype=np.int64),
                        seed=bytes(DIGEST_SIZE))


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


def _certified_full_rank(entries: np.ndarray) -> bool:
    # Two one-sided certificates, each a theorem about binary64 arithmetic in
    # any evaluation order; False is inconclusive and falls back to the exact
    # test.  A refusal of the first goes on to the second, so a seed whose
    # candidate the first refuses costs an inverse, not a Bareiss.
    #
    # First: A is full rank iff G = A.T @ A is positive definite, and G is
    # exact (its partial sums are integers of at most 64 * 225 = 14400).
    # Rump (BIT Numer. Math. 46 (2006) 433-452): if floating-point Cholesky
    # of G - s*I runs to completion, with s >= 2 g / (1 - g) * tr(G) plus an
    # underflow term, then G is positive definite.  g = gamma_(n+2), not
    # Rump's gamma_(n+1), also covers a trsm that multiplies by reciprocals.
    # s is the power of two above fl(factor * tr(G)): it clears the exact
    # product by over 2**-154 (tr(G) >= 1) or is 1 (tr(G) = 0), far beyond
    # the underflow term, and s >= 2**-48 * tr(G) keeps G - s*I exact.
    a = entries.astype(np.float64)
    gram = a.T @ a
    n = len(gram)
    shift = 2.0 ** math.frexp(_RUMP_FACTOR[n] * float(np.trace(gram)))[1]
    gram.flat[::n + 1] -= shift
    try:
        np.linalg.cholesky(gram)
        return True
    except np.linalg.LinAlgError:
        pass
    # Second: X = rint(inv(A) * 2**e) with |X| <= 2**42, so every partial sum
    # of X @ A is an integer below 2**42 * 960 < 2**52 and float64 computes
    # it exactly in any summation order.  If every row of |2**e * I - X @ A|
    # sums below 2**e, then X @ A / 2**e is within 1 of I in the infinity
    # norm, hence invertible, and so is A.
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


def generate_matrix(seed: bytes, dim: int = MATRIX_DIM) -> WeightMatrix:
    """Derive the weighting matrix for `seed`, deterministically.

    Candidates are drawn from a single xoshiro256++ stream, row-major, 16
    nibbles per 64-bit word, least-significant nibble first: one candidate
    per block at dim 64, sixteen at dim 16.  A candidate that is not full
    rank is discarded and the stream continues into the next one.
    Rank-deficient candidates are vanishingly rare, so the loop all but
    always exits on the first candidate.
    """
    _check_seed(seed)
    if dim not in (DEMO_DIM, MATRIX_DIM):
        raise ValueError(f"dim must be {DEMO_DIM} or {MATRIX_DIM}")
    for block in _xoshiro_blocks(seed):
        nibbles = (block[:, np.newaxis] >> _NIBBLE_SHIFTS) & np.uint64(0xF)
        for entries in nibbles.astype(np.int64).reshape(-1, dim, dim):
            if _certified_full_rank(entries) or matrix_is_full_rank(entries):
                return WeightMatrix(entries=entries, seed=bytes(seed))


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
