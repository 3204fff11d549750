"""Independent reference implementations backing the golden test vectors.

Everything here is deliberately written against the same published
definitions as the library but with different machinery: functional PRNG
state, Fraction-based rank, pure-Python big-int weighting, a coupler node as
the product of its two published factors, naive matrix embedding and the
brick pattern spelled out for meshes, and a Hestenes one-sided Jacobi SVD.
Nothing here imports the library's mesh layout or node matrix.  The frozen
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


def ref_coupler(theta: float, phi: float) -> np.ndarray:
    """2x2 transfer matrix of one coupler node: C(theta) @ P(phi)."""
    c, s = math.cos(theta), math.sin(theta)
    mix = np.array([[c, 1j * s], [1j * s, c]])
    shift = np.diag([np.exp(1j * phi), 1.0])
    return mix @ shift


def _brick_starts(n: int, layer: int) -> np.ndarray:
    # Layer l couples the mode pairs (s, s + 1) for s = l mod 2, l mod 2 + 2, ...
    return np.array([s for s in range(n - 1) if s % 2 == layer % 2], dtype=np.intp)


def ref_mesh_unitary(config) -> np.ndarray:
    """Mesh transfer matrix by naive per-node embedding and matmul."""
    n = config.n
    total = np.eye(n, dtype=complex)
    for idx in range(n):
        block = np.eye(n, dtype=complex)
        for s in _brick_starts(n, idx):
            # The node on pair (s, s + 1) sits in column s // 2.
            theta, phi = config.theta[idx, s // 2], config.phi[idx, s // 2]
            block[s:s + 2, s:s + 2] = ref_coupler(theta, phi)
        total = block @ total
    return np.diag(np.exp(1j * config.output_phases)) @ total


def ref_propagate(config, fields: np.ndarray,
                  rng: np.random.Generator | None = None,
                  phase_sigma: float = 0.0) -> np.ndarray:
    """Mesh propagation as plain per-layer expressions: fancy-index gather
    and scatter of the coupled rows, fresh temporaries, `rng.normal` draws.

    The library's propagate must match it bit for bit: the same draws in
    the same order through the same ufuncs.
    """
    out = np.asarray(fields, dtype=np.complex128).copy()
    if out.ndim != 2 or out.shape[0] != config.n:
        raise ValueError(f"fields have shape {out.shape}, mesh has {config.n} modes")
    batch = out.shape[1]
    noisy = phase_sigma > 0.0
    if noisy and rng is None:
        raise ValueError("phase noise requires an rng")
    for idx in range(config.n):
        starts = _brick_starts(config.n, idx)
        if starts.size == 0:
            continue
        theta = np.array([config.theta[idx, s // 2] for s in starts])[:, np.newaxis]
        phi = np.array([config.phi[idx, s // 2] for s in starts])[:, np.newaxis]
        if noisy:
            theta = theta + rng.normal(0.0, phase_sigma, (starts.size, batch))
            phi = phi + rng.normal(0.0, phase_sigma, (starts.size, batch))
        c, s = np.cos(theta), np.sin(theta)
        eip = np.exp(1j * phi)
        a = out[starts]
        b = out[starts + 1]
        out[starts] = c * eip * a + 1j * s * b
        out[starts + 1] = 1j * s * eip * a + c * b
    alpha = config.output_phases[:, np.newaxis]
    if noisy:
        alpha = alpha + rng.normal(0.0, phase_sigma, (config.n, batch))
    return out * np.exp(1j * alpha)


def ref_analog_intensities(synth, xs, noise, seed: int = 0) -> np.ndarray:
    """Quantized detector intensities of the analog path, rows per input,
    by the library's analog_weighting_batch steps through ref_propagate."""
    from opow.heavyhash import NIBBLE_MAX, accumulator_max
    from opow.photonic import encode_nibbles

    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = noise.phase_sigma
    out = ref_propagate(synth.right, encode_nibbles(xs).T, rng, sigma)
    atten = np.clip(synth.attenuations, 0.0, 1.0)
    if sigma > 0.0:
        drive = 2.0 * np.arccos(atten)[:, np.newaxis]
        drive = drive + rng.normal(0.0, sigma, out.shape)
        out = out * np.cos(drive / 2.0)
    else:
        out = out * atten[:, np.newaxis]
    out = ref_propagate(synth.left, out, rng, sigma)
    intensity = np.abs(out) ** 2
    if noise.detector_sigma > 0.0:
        intensity = intensity * (1.0 + rng.normal(0.0, noise.detector_sigma,
                                                  intensity.shape))
    acc_max = accumulator_max(synth.dim)
    full_scale = (acc_max / (NIBBLE_MAX * synth.scale)) ** 2
    intensity = np.clip(intensity, 0.0, full_scale)
    step = full_scale / (2 ** noise.adc_bits - 1)
    return (np.round(intensity / step) * step).T


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


def exact_race_probability(q: float, z: int, horizon_blocks: int,
                           abandon_margin: int) -> float:
    """Probability that one replica of the library's double-spend race pulls
    level, by dynamic programming over its deficit.

    The rules are `attack_success_rate`'s: the deficit starts at z and each
    of at most horizon_blocks - z blocks moves it down one with probability
    q (an attacker block) or up one; reaching 0 is a success, and below an
    even split a deficit of z + abandon_margin gives the race up.  `live[d]`
    holds the probability of racing on at deficit d; each block is one shift
    and scale, then the absorbed entries are taken out."""
    if z == 0:
        return 1.0
    budget = horizon_blocks - z
    give_up = q < 0.5
    # Deficits a replica can race on at: below the give-up line, whose mass
    # steps off the top of the array, or at most z + budget without one.
    live = np.zeros(z + abandon_margin if give_up else z + budget + 1)
    live[z] = 1.0
    success = 0.0
    for _ in range(budget):
        step = np.zeros_like(live)
        step[1:] = (1.0 - q) * live[:-1]
        step[:-1] += q * live[1:]
        success += step[0]
        step[0] = 0.0
        live = step
    return success


def ref_retarget_moment(w: int, interval: float, k: int) -> float:
    """E[M**k] for the mean block interval M of one window of a stochastic,
    unclamped retarget chain at a constant hashrate, for k < w.

    A window's span is G * mu, with mu its mean block interval and G ~
    Gamma(w, 1).  The retarget scales the target by G * mu / (w * I), so the
    next window's mean interval is w * I / G whatever mu was, and from the
    second window on M = I * G_k / G_(k-1) with the G iid (Kraft, Peer-to-Peer
    Netw. Appl. 9, 2016).  E[G**k] = w (w+1) ... (w+k-1) and
    E[G**-k] = 1 / ((w-1) (w-2) ... (w-k)).
    """
    if not 0 < k < w:
        raise ValueError("moment k must be in (0, w)")
    return interval ** k * math.prod(range(w, w + k)) / math.prod(range(w - k, w))


def ref_retarget_moments(w: int, interval: float) -> tuple[float, float, float]:
    """Mean, second moment and lag-1 covariance of the window mean interval
    M of a stochastic retarget chain (see `ref_retarget_moment`).

    The mean I * w / (w-1) is the estimator's bias.  Neighbouring windows
    share one draw: M_k * M_(k+1) = I**2 * G_(k+1) / G_(k-1), whose mean is
    I**2 * w / (w-1), so the covariance is -I**2 * w / (w-1)**2."""
    mean = interval * w / (w - 1)
    second = interval ** 2 * w * (w + 1) / ((w - 1) * (w - 2))
    return mean, second, -interval ** 2 * w / (w - 1) ** 2
