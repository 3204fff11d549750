"""Hashcash mechanics over HeavyHash.

Compact target codec (Bitcoin-style 4-byte exponent/mantissa), the 88-byte
little-endian block header, strict below-target comparison, batched nonce
search, window retargeting with a clamp, and expected-work accounting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .heavyhash import (
    DIGEST_SIZE,
    HeavyHashParams,
    WeightMatrix,
    heavyhash,
    heavyhash_many,
)

TARGET_SPACE = 1 << 256

HEADER_FORMAT = "<I32s32sQIQ"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 88

_U32 = 1 << 32
_U64 = 1 << 64


class MalformedHeaderError(ValueError):
    """Header bytes of the wrong length or fields out of range."""


class CompactTargetError(ValueError):
    """Compact bits that do not decode to a target in (0, 2**256)."""


@dataclass(frozen=True)
class BlockHeader:
    version: int
    parent_hash: bytes
    payload_commitment: bytes
    timestamp: int
    compact_target: int
    nonce: int

    def __post_init__(self):
        if not 0 <= self.version < _U32:
            raise MalformedHeaderError("version out of u32 range")
        if len(self.parent_hash) != DIGEST_SIZE:
            raise MalformedHeaderError("parent_hash must be 32 bytes")
        if len(self.payload_commitment) != DIGEST_SIZE:
            raise MalformedHeaderError("payload_commitment must be 32 bytes")
        if not 0 <= self.timestamp < _U64:
            raise MalformedHeaderError("timestamp out of u64 range")
        if not 0 <= self.compact_target < _U32:
            raise MalformedHeaderError("compact_target out of u32 range")
        if not 0 <= self.nonce < _U64:
            raise MalformedHeaderError("nonce out of u64 range")

    def with_nonce(self, nonce: int) -> "BlockHeader":
        return BlockHeader(self.version, self.parent_hash, self.payload_commitment,
                           self.timestamp, self.compact_target, nonce)


def serialize_header(header: BlockHeader) -> bytes:
    return struct.pack(HEADER_FORMAT, header.version, header.parent_hash,
                       header.payload_commitment, header.timestamp,
                       header.compact_target, header.nonce)


def deserialize_header(data: bytes) -> BlockHeader:
    if len(data) != HEADER_SIZE:
        raise MalformedHeaderError(f"header must be exactly {HEADER_SIZE} bytes")
    fields = struct.unpack(HEADER_FORMAT, data)
    return BlockHeader(*fields)


def _check_target(target: int) -> None:
    if not 0 < target < TARGET_SPACE:
        raise ValueError("target must be in (0, 2**256)")


def target_from_compact(bits: int) -> int:
    """Decode 4-byte compact bits to a full target; strict validation."""
    if not 0 <= bits < _U32:
        raise CompactTargetError("compact bits out of u32 range")
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise CompactTargetError("compact sign bit set")
    if mantissa == 0:
        raise CompactTargetError("compact mantissa is zero")
    if exponent <= 3:
        target = mantissa >> (8 * (3 - exponent))
    else:
        target = mantissa << (8 * (exponent - 3))
    if target == 0:
        raise CompactTargetError("compact bits decode to zero")
    if target >= TARGET_SPACE:
        raise CompactTargetError("compact bits decode above 2**256")
    return target


def compact_from_target(target: int) -> int:
    """Encode a target as compact bits, rounding the mantissa down."""
    _check_target(target)
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    if mantissa & 0x00800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def meets_target(digest: bytes, target: int) -> bool:
    """Strictly below-target test on the big-endian value of the digest."""
    if len(digest) != DIGEST_SIZE:
        raise ValueError("digest must be 32 bytes")
    _check_target(target)
    return int.from_bytes(digest, "big") < target


def work_from_target(target: int) -> int:
    """Expected trials to clear the target: floor(2**256 / (target + 1))."""
    _check_target(target)
    return TARGET_SPACE // (target + 1)


@dataclass(frozen=True)
class RetargetParams:
    window: int = 64
    expected_interval: int = 600  # seconds
    clamp_factor: Fraction = Fraction(4)

    def __post_init__(self):
        object.__setattr__(self, "clamp_factor", Fraction(self.clamp_factor))
        if self.window <= 0 or self.expected_interval <= 0:
            raise ValueError("window and expected_interval must be positive")
        if self.clamp_factor <= 1:
            raise ValueError("clamp_factor must exceed 1")


def retarget(span: int, current: int, params: RetargetParams) -> int:
    """New target after one window.

    `span` is the last window timestamp minus the first, window blocks
    apart.  Timestamps need only exceed the median time past, so it may be
    short, zero or negative: like Bitcoin's, the ratio to window *
    expected_interval is clamped to [1/clamp_factor, clamp_factor], and the
    target rescaled with exact rational arithmetic and a final floor.
    """
    _check_target(current)
    expected = params.window * params.expected_interval
    lo = Fraction(expected) / params.clamp_factor
    hi = Fraction(expected) * params.clamp_factor
    actual = min(max(Fraction(span), lo), hi)
    scaled = Fraction(current) * actual / expected
    new_target = scaled.numerator // scaled.denominator
    return max(1, min(new_target, TARGET_SPACE - 1))


def is_retarget_boundary(parent_height: int, params: RetargetParams) -> bool:
    """Whether a child of a block at this height gets a new target: the
    parent sits on a positive window boundary."""
    return parent_height != 0 and parent_height % params.window == 0


def scheduled_target(parent_target: int, span: int,
                     params: RetargetParams) -> int:
    """Target a child of a window-boundary parent must use: `retarget` over
    the window's span, squeezed through the compact encoding so consensus
    always compares encodable targets."""
    raw = retarget(span, parent_target, params)
    return target_from_compact(compact_from_target(raw))


def mine(template: BlockHeader, matrix: WeightMatrix, target: int,
         nonce_start: int, nonce_count: int,
         params: HeavyHashParams = HeavyHashParams(),
         batch: int = 1024) -> Optional[int]:
    """Smallest nonce in [nonce_start, nonce_start + nonce_count) whose
    header HeavyHash meets the target, or None if the range is exhausted.

    One ascending search in batches of `batch` nonces.  Digests compare as
    bytes with the target's 32-byte big-endian form, which orders as the
    integers do."""
    if target_from_compact(template.compact_target) != target:
        raise ValueError("template compact_target does not encode the target")
    if nonce_count < 0 or nonce_start < 0 or nonce_start + nonce_count > _U64:
        raise ValueError("nonce range out of u64 space")
    prefix = serialize_header(template)[:-8]  # all but the u64 nonce
    target_bytes = target.to_bytes(DIGEST_SIZE, "big")
    end = nonce_start + nonce_count
    nonce = nonce_start
    while nonce < end:
        chunk = min(batch, end - nonce)
        headers = [prefix + struct.pack("<Q", nonce + i) for i in range(chunk)]
        for i, digest in enumerate(heavyhash_many(params, matrix, headers)):
            if digest < target_bytes:
                return nonce + i
        nonce += chunk
    return None


def verify_header(header: BlockHeader, matrix: WeightMatrix) -> bool:
    """Re-run the PoW check a block claims: one HeavyHash round below its
    own target."""
    target = target_from_compact(header.compact_target)
    digest = heavyhash(HeavyHashParams(), matrix, serialize_header(header))
    return meets_target(digest, target)


# Blocks a retarget simulation may run, about 1.4 s for 10**6.  It keeps one
# timestamp per block: 10**5 blocks take about 4 MB.
MAX_SIM_BLOCKS = 10**6


def simulate_retarget_chain(initial_target: int, hashrate: float,
                            n_blocks: int, params: RetargetParams,
                            stochastic: bool = False,
                            seed: int = 0) -> list[int]:
    """Drive the retarget rule with a constant-hashrate virtual miner.

    No hashing happens: each block lands after its expected solve time
    2**256 / (target * hashrate) seconds (or an exponential draw of that
    mean in stochastic mode), and the target follows the same schedule real
    chain validation enforces.  Returns the timestamp of every block after
    genesis, which sits at 0.
    """
    import random

    _check_target(initial_target)
    if hashrate <= 0 or n_blocks <= 0:
        raise ValueError("hashrate and n_blocks must be positive")
    if n_blocks > MAX_SIM_BLOCKS:
        raise ValueError(f"n_blocks must be at most {MAX_SIM_BLOCKS}, got {n_blocks}")
    rng = random.Random(seed)
    target = initial_target
    stamps = []
    first = last = 0  # timestamps of the window's first ancestor and the parent
    clock = 0.0
    for parent_height in range(n_blocks):
        if is_retarget_boundary(parent_height, params):
            target = scheduled_target(target, last - first, params)
            first = last
        mean_interval = TARGET_SPACE / (target * hashrate)
        clock += rng.expovariate(1.0 / mean_interval) if stochastic else mean_interval
        last = max(last + 1, round(clock))  # integer, strictly increasing
        stamps.append(last)
    return stamps


def window_mean_intervals(stamps: list[int], window: int) -> list[float]:
    """Mean observed block interval per full retarget window."""
    ends = [0] + stamps[window - 1::window]  # genesis, then each window's last
    return [(b - a) / window for a, b in zip(ends, ends[1:])]
