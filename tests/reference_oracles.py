"""Independent reference implementations backing the golden test vectors.

Everything here is deliberately written against the same published
definitions as the library but with different machinery: functional PRNG
state, Fraction-based rank, pure-Python big-int weighting, naive matrix
embedding for meshes, and a Hestenes one-sided Jacobi SVD.  The frozen
values in tests/fixtures were produced by these oracles (see gen_fixtures).
"""

from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np

_M64 = (1 << 64) - 1


def ref_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


def _rot(v: int, k: int) -> int:
    return ((v << k) & _M64) | (v >> (64 - k))


def ref_xoshiro_words(seed: bytes, count: int) -> list[int]:
    """First `count` outputs of xoshiro256++ under the per-word SplitMix seeding."""
    state = tuple(ref_splitmix64(w) for w in struct.unpack("<4Q", seed))
    if not any(state):
        state = (1,) + state[1:]
    out = []
    s0, s1, s2, s3 = state
    for _ in range(count):
        out.append((_rot((s0 + s3) & _M64, 23) + s0) & _M64)
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rot(s3, 45)
    return out


def ref_rank_is_full(rows: list[list[int]]) -> bool:
    """Exact rank check by Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return True


def ref_matrix(seed: bytes, dim: int = 64) -> list[list[int]]:
    """Weight matrix via the documented fill rule, full-rank retry included."""
    words_per_candidate = dim * dim // 16
    offset = 0
    # Draw from one continuous stream, candidate by candidate.
    while True:
        words = ref_xoshiro_words(seed, offset + words_per_candidate)
        chunk = words[offset:offset + words_per_candidate]
        offset += words_per_candidate
        rows = []
        it = iter(chunk)
        for _ in range(dim):
            row = []
            for _ in range(dim // 16):
                w = next(it)
                for k in range(16):
                    row.append((w >> (4 * k)) & 0xF)
            rows.append(row)
        if ref_rank_is_full(rows):
            return rows


def ref_weighting(entries: list[list[int]], x: list[int]) -> list[int]:
    out = []
    for row in entries:
        acc = 0
        for a, b in zip(row, x):
            acc += a * b
        out.append((acc >> 10) & 0xF)
    return out


def ref_nibbles(digest: bytes) -> list[int]:
    out = []
    for byte in digest:
        out.append(byte >> 4)
        out.append(byte & 0xF)
    return out


def ref_heavyhash(entries: list[list[int]], data: bytes, rounds: int = 1) -> bytes:
    for _ in range(rounds):
        inner = hashlib.sha256(data).digest()
        x = ref_nibbles(inner)
        t = ref_weighting(entries, x)
        z = [a ^ b for a, b in zip(t, x)]
        packed = bytes((z[2 * i] << 4) | z[2 * i + 1] for i in range(len(z) // 2))
        data = hashlib.sha256(packed).digest()
    return data


def ref_mesh_unitary(config) -> np.ndarray:
    """Mesh transfer matrix by naive per-node embedding and matmul."""
    from opow.photonic import coupler_unitary, layer_pair_starts

    n = config.n
    total = np.eye(n, dtype=complex)
    for idx, layer in enumerate(config.layers):
        block = np.eye(n, dtype=complex)
        for start, node in zip(layer_pair_starts(n, idx), layer):
            s = int(start)
            block[s:s + 2, s:s + 2] = coupler_unitary(node)
        total = block @ total
    return np.diag(np.exp(1j * config.output_phases)) @ total


def ref_singular_values(matrix) -> np.ndarray:
    """Singular values by Hestenes one-sided Jacobi, descending."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[1]
    for _ in range(60):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ai = a[:, i].copy()
                aj = a[:, j].copy()
                alpha = float(ai @ ai)
                beta = float(aj @ aj)
                gamma = float(ai @ aj)
                if abs(gamma) <= 1e-14 * np.sqrt(alpha * beta):
                    continue
                off = max(off, abs(gamma))
                zeta = (beta - alpha) / (2.0 * gamma)
                # sign(0) must act as +1 or equal-norm columns never rotate
                t = math.copysign(1.0, zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                a[:, i] = c * ai - s * aj
                a[:, j] = s * ai + c * aj
        if off == 0.0:
            break
    values = np.sqrt(np.sum(a * a, axis=0))
    return np.sort(values)[::-1]


# Uniform draws per replica per generator call in the race Monte Carlo:
# the documented stream layout, not a tuning knob.
_RACE_CHUNK = 256


def ref_attack_successes(q: float, z: int, runs: int, seed: int,
                         horizon_blocks: int, abandon_margin: int) -> int:
    """Replicas of the double-spend race that pull level, walked one by one.

    The draws follow the library's layout: PCG64(seed) hands out
    (runs, k) blocks of uniforms, k = min(256, blocks left), and replica i
    reads row i.  Each replica then walks its deficit in plain Python: an
    attacker block (u < q) shrinks it, an honest one grows it; level is a
    success, and below an even split a deficit of z + abandon_margin gives
    the race up."""
    rng = np.random.Generator(np.random.PCG64(seed))
    budget = horizon_blocks - z
    deficit = [z] * runs
    racing = [z > 0] * runs
    successes = racing.count(False)
    steps = 0
    while any(racing) and steps < budget:
        k = min(_RACE_CHUNK, budget - steps)
        block = rng.random((runs, k)).tolist()
        for i in range(runs):
            for u in block[i]:
                if not racing[i]:
                    break
                deficit[i] += -1 if u < q else 1
                if deficit[i] == 0:
                    successes += 1
                    racing[i] = False
                elif q < 0.5 and deficit[i] >= z + abandon_margin:
                    racing[i] = False
        steps += k
    return successes
