"""HeavyHash: SHA-256 sandwiched around a nibble matrix-vector weighting stage.

One round over an input byte string:

    d = SHA256(input)                      32 bytes
    x = nibbles(d)                         64 values in [0, 15]
    t = ((M @ x) >> 10) & 0xF              weighting, truncated to 4 bits
    out = SHA256(bytes(t ^ x))

The 64x64 weighting matrix M has 4-bit entries, is derived deterministically
from a 32-byte seed with xoshiro256++, and must be full rank over the
rationals so the weighting stage does not collapse distinct inputs.  Full
rank is shown by an exact integer residual certificate on a float64 inverse
(Rump's verified inverse, done in integers) or, where that certificate is
refused, by exact Bareiss elimination; no verdict rests on rounding.  The
whole consensus path is exact integer arithmetic.  The weighting matmul runs
in float32 and stays exact under any BLAS summation order: every product is
at most 225 and every partial sum an integer of at most 64 * 225 = 14400,
below 2**24.  `heavyhash_many` holds the one round loop, over a batch of
inputs; `heavyhash` is a batch of one.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

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


class Xoshiro256PlusPlus:
    """xoshiro256++ with the published state update.

    Seeded from a 32-byte digest read as four little-endian 64-bit words,
    each conditioned through one SplitMix64 step so a zero digest (or any
    zero word) cannot produce the forbidden all-zero state.
    """

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: bytes):
        _check_digest(seed, "seed")
        words = struct.unpack("<4Q", seed)
        s = [splitmix64(w) for w in words]
        if not any(s):  # only reachable for one adversarial 256-bit seed
            s[0] = 1
        self.s0, self.s1, self.s2, self.s3 = s

    def next_words(self, n: int) -> list[int]:
        """The next `n` outputs; the one state update, rotates inlined."""
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        mask = _MASK64
        out = []
        for _ in range(n):
            r = (s0 + s3) & mask
            out.append((s0 + (((r << 23) & mask) | (r >> 41))) & mask)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & mask) | (s3 >> 19)
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        return out


def _check_digest(value: bytes, name: str = "digest") -> None:
    if not isinstance(value, (bytes, bytearray)) or len(value) != DIGEST_SIZE:
        raise ValueError(f"{name} must be exactly {DIGEST_SIZE} bytes")


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

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("matrix must be square")
        if entries.shape[0] not in (DEMO_DIM, MATRIX_DIM):
            raise ValueError(f"matrix dimension must be {DEMO_DIM} or {MATRIX_DIM}")
        if entries.min() < 0 or entries.max() > NIBBLE_MAX:
            raise ValueError("matrix entries must be in [0, 15]")
        _check_digest(self.seed, "seed")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
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


def digest_to_nibbles(digest: bytes) -> np.ndarray:
    """Split a 32-byte digest into 64 nibbles, high nibble of each byte first."""
    _check_digest(digest)
    return _split_nibbles(bytes(digest))[0].astype(np.int64)


def nibbles_to_digest(nibbles: np.ndarray) -> bytes:
    """Inverse of digest_to_nibbles; exact round trip."""
    arr = np.asarray(nibbles, dtype=np.int64)
    if arr.shape != (2 * DIGEST_SIZE,):
        raise ValueError(f"expected {2 * DIGEST_SIZE} nibbles")
    if arr.min() < 0 or arr.max() > NIBBLE_MAX:
        raise ValueError("nibble values must be in [0, 15]")
    return _pack_nibbles(arr)


def _draw_entries(rng: Xoshiro256PlusPlus, dim: int) -> np.ndarray:
    # Row-major fill, 16 nibbles per 64-bit draw, least-significant nibble first.
    n_words = dim * dim // 16
    words = np.array(rng.next_words(n_words), dtype=np.uint64)
    shifts = (4 * np.arange(16, dtype=np.uint64))[np.newaxis, :]
    nibbles = (words[:, np.newaxis] >> shifts) & np.uint64(0xF)
    return nibbles.astype(np.int64).reshape(dim, dim)


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


def _certified_full_rank(entries: np.ndarray) -> bool:
    # One-sided certificate, exact: X = rint(inv(A) * 2**e) with |X| <= 2**42,
    # so every partial sum of X @ A is an integer below 2**42 * 960 < 2**52
    # and float64 computes it exactly in any summation order.  If every row
    # of |2**e * I - X @ A| sums below 2**e, then X @ A / 2**e is within 1 of
    # I in the infinity norm, hence invertible, and so is A.  False is
    # inconclusive and falls back to the exact test.
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


def generate_matrix(seed: bytes, dim: int = MATRIX_DIM) -> WeightMatrix:
    """Derive the weighting matrix for `seed`, deterministically.

    Candidates are drawn from a single xoshiro256++ stream; a candidate that
    is not full rank is discarded and the stream continues into the next one.
    Rank-deficient candidates are vanishingly rare, so the loop all but
    always exits on the first pass.
    """
    _check_digest(seed, "seed")
    if dim not in (DEMO_DIM, MATRIX_DIM):
        raise ValueError(f"dim must be {DEMO_DIM} or {MATRIX_DIM}")
    rng = Xoshiro256PlusPlus(seed)
    while True:
        entries = _draw_entries(rng, dim)
        if _certified_full_rank(entries) or matrix_is_full_rank(entries):
            return WeightMatrix(entries=entries, seed=bytes(seed))


def _weighting_sums(matrix: WeightMatrix, x: np.ndarray) -> np.ndarray:
    # The one weighting matmul, unchecked.  float32 is exact: every partial
    # sum is an integer of at most accumulator_max(64) = 14400 < 2**24, so
    # the sums also fit uint16.
    return (x.astype(np.float32) @ matrix.entries.T.astype(np.float32)
            ).astype(np.uint16)


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


def heavyhash_many(params: HeavyHashParams, matrix: WeightMatrix,
                   inputs: list[bytes]) -> list[bytes]:
    """HeavyHash of every input, in order.

    Each round weights the nibbles of the whole batch in one matrix product.
    """
    if matrix.dim != MATRIX_DIM:
        raise ParameterError(f"heavyhash needs a {MATRIX_DIM}-wide matrix")
    data = list(inputs)
    for _ in range(params.rounds):
        packed = _weight_digests(
            matrix, b"".join(hashlib.sha256(d).digest() for d in data))
        data = [
            hashlib.sha256(packed[i:i + DIGEST_SIZE]).digest()
            for i in range(0, len(packed), DIGEST_SIZE)
        ]
    return data
