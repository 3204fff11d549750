"""Numerical emulator of a silicon-photonic matrix-vector multiplier.

Field amplitudes enter through Mach-Zehnder modulators (amplitude =
cos(drive/2), so a full pi drive extinguishes the channel), traverse a
rectangular mesh of directional couplers whose composed transfer matrix is
an N x N unitary, and are read out by square-law detectors that see only
intensity.  A rectangular (Clements-style) nulling decomposition programs
the mesh to any target unitary, and an SVD split -- unitary mesh, diagonal
attenuators, unitary mesh -- realizes the non-unitary HeavyHash weighting
matrix up to one global scale.

Every coupler node applies C(theta) . P(phi) on its two modes:

    P(phi) = [[e^{i phi}, 0], [0, 1]]
    C(theta) = [[cos t, i sin t], [i sin t, cos t]]

and the mesh has exactly N layers in the brick pattern: layer l couples
pairs starting at mode (l mod 2).

Every node here is driven independently, so the emulated mesh is fully
universal over U(N); a physical chip with shared tuning lines typically
reaches only a subset of unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heavyhash import (
    NIBBLE_MAX,
    TRUNCATE_SHIFT,
    WeightMatrix,
    accumulator_max,
    weighting,
)

TWO_PI = 2.0 * math.pi

# Elements at or below this magnitude count as already nulled; the leftover
# off-diagonal mass after a full sweep stays orders below the 1e-8 contract.
_NULL_EPS = 1e-13
# The 1e-8 contract: the largest unitarity residual clements_decompose
# accepts, and the largest off-diagonal mass its nulling sweep may leave.
_UNITARY_TOL = 1e-8


def _wrap_phase(phi: float) -> float:
    # Into [0, 2*pi); the modulo can round up to exactly 2*pi for tiny
    # negative inputs.
    phi = phi % TWO_PI
    return 0.0 if phi >= TWO_PI else phi


class DecompositionError(ValueError):
    """Mesh decomposition rejected its input (reports the unitarity residual)."""


class NumericError(RuntimeError):
    """Numerical synthesis failure (non-convergence, degenerate scale)."""


@dataclass(frozen=True, eq=False)
class MeshConfiguration:
    """Node angles, two (n, n // 2) arrays, and the n output phases of a mesh.

    Row l of `theta` and `phi` is brick layer l; column j is the node on the
    pair starting at mode l mod 2 + 2j.  An odd layer of an even mesh has
    one pair fewer, so its last column must hold zeros.
    """

    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray

    def __post_init__(self):
        phases = np.ascontiguousarray(self.output_phases, dtype=np.float64)
        n = phases.size
        if phases.ndim != 1 or n < 1:
            raise ValueError("output_phases must have one entry per mode, n >= 1")
        angles = np.array((self.theta, self.phi), dtype=np.float64)
        if angles.shape != (2, n, n // 2):
            raise ValueError(f"theta and phi must have shape {(n, n // 2)}")
        angles.setflags(write=False)
        phases.setflags(write=False)
        theta, phi = angles
        if not ((0.0 <= theta) & (theta <= math.pi / 2)).all():
            raise ValueError("theta must be in [0, pi/2]")
        if not ((0.0 <= phi) & (phi < TWO_PI)).all():
            raise ValueError("phi must be in [0, 2*pi)")
        if n % 2 == 0 and angles[:, 1::2, -1].any():
            raise ValueError("an odd layer of an even mesh has no last node")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "output_phases", phases)

    @property
    def n(self) -> int:
        return self.output_phases.size


# ---------------------------------------------------------------------------
# input encoding


def encode_nibbles(values) -> np.ndarray:
    """Optical field for a nibble vector, or a batch of them as rows:
    amplitude x/15 (an MZM driven at 2 arccos(x/15)), zero phase."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a nibble vector or a batch of them")
    if arr.min() < 0 or arr.max() > NIBBLE_MAX:
        raise ValueError("nibble values must be in [0, 15]")
    return (arr / NIBBLE_MAX).astype(np.complex128)


# ---------------------------------------------------------------------------
# propagation


def _perturb(base: np.ndarray, rng: np.random.Generator, sigma: float,
             buf: np.ndarray) -> np.ndarray:
    """base + N(0, sigma) errors, drawn into `buf`: the same draws and bits
    as base + rng.normal(0.0, sigma, buf.shape)."""
    rng.standard_normal(out=buf)
    buf *= sigma
    buf += base
    return buf


def propagate(config: MeshConfiguration, fields: np.ndarray,
              rng: np.random.Generator | None = None,
              phase_sigma: float = 0.0) -> np.ndarray:
    """Push the field vectors in the columns of `fields` (n, B) through the mesh.

    With phase_sigma > 0 every shifter (each node's theta and phi, plus the
    output phases) picks up an independent Gaussian error per column.

    Each layer rewrites its coupled rows in place, through strided row views
    and scratch buffers allocated once per call.  The draws, their order and
    the ufuncs are those of the plain per-layer expressions
    c e^{i phi} a + i s b and i s e^{i phi} a + c b, so the result is the
    same bit for bit.
    """
    out = np.asarray(fields, dtype=np.complex128).copy()
    if out.ndim != 2 or out.shape[0] != config.n:
        raise ValueError(f"fields have shape {out.shape}, mesh has {config.n} modes")
    n, batch = out.shape
    noisy = phase_sigma > 0.0
    if noisy and rng is None:
        raise ValueError("phase noise requires an rng")
    # Rows enough for any layer's pairs; flattened, the angles also hold the
    # n output phases.
    rows = (n + 1) // 2
    products = np.empty((4, rows, batch), dtype=np.complex128)
    if noisy:
        angles = np.empty((4, rows, batch))  # theta, phi, cos, sin
    for idx in range(n):
        first = idx % 2
        k = (n - first) // 2  # pairs; none at n = 1 and in n = 2's odd layer
        top = out[first:first + 2 * k:2]
        bot = out[first + 1:first + 2 * k:2]
        t, u, v, w = products[:, :k]  # c e^{i phi} a, i s b, i s e^{i phi} a, c b
        theta = config.theta[idx, :k, np.newaxis]
        phi = config.phi[idx, :k, np.newaxis]
        if noisy:
            theta_k, phi_k, c, s = angles[:, :k]
            theta = _perturb(theta, rng, phase_sigma, theta_k)
            phi = _perturb(phi, rng, phase_sigma, phi_k)
            np.cos(theta, out=c)
            np.sin(theta, out=s)
            eip = np.exp(np.multiply(1j, phi, out=v), out=v)
            js = np.multiply(1j, s, out=w)
            ce = np.multiply(c, eip, out=t)
            jse = np.multiply(js, eip, out=v)
        else:
            c, s = np.cos(theta), np.sin(theta)
            eip = np.exp(1j * phi)
            js = 1j * s
            ce, jse = c * eip, js * eip
        np.multiply(ce, top, out=t)
        np.multiply(js, bot, out=u)
        np.multiply(jse, top, out=v)
        np.multiply(c, bot, out=w)
        np.add(t, u, out=top)
        np.add(v, w, out=bot)
    alpha = config.output_phases[:, np.newaxis]
    if noisy:
        alpha = _perturb(alpha, rng, phase_sigma, angles.reshape(-1, batch)[:n])
    # One expression on purpose: on a large batch numpy may reuse the exp
    # temporary and compute exp(...) * out, and a fused complex multiply is
    # not commutative bit for bit.  Any other spelling pins one order.
    return out * np.exp(1j * alpha)


def mesh_unitary(config: MeshConfiguration) -> np.ndarray:
    """Composed N x N transfer matrix of the mesh."""
    return propagate(config, np.eye(config.n, dtype=np.complex128))


def unitarity_residual(u: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.complex128)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


# ---------------------------------------------------------------------------
# rectangular decomposition


def _null_from_right(work: np.ndarray, row: int, col: int) -> tuple[float, float]:
    # Choose (theta, phi) so right-multiplying by T(theta, phi)^dagger on
    # columns (col, col+1) zeroes work[row, col].
    a = work[row, col]
    b = work[row, col + 1]
    if abs(a) <= _NULL_EPS:
        return 0.0, 0.0
    theta = math.atan2(abs(a), abs(b))
    phi = float(np.angle(a) - np.angle(b) - math.pi / 2)
    return theta, _wrap_phase(phi)


def _apply_tdag_cols(work: np.ndarray, col: int, theta: float, phi: float) -> None:
    c, s = math.cos(theta), math.sin(theta)
    emip = complex(math.cos(phi), -math.sin(phi))
    ca = work[:, col].copy()
    cb = work[:, col + 1].copy()
    work[:, col] = c * emip * ca - 1j * s * cb
    work[:, col + 1] = -1j * s * emip * ca + c * cb


def _null_from_left(work: np.ndarray, row: int, col: int) -> tuple[float, float]:
    # Choose (theta, phi) so left-multiplying by T(theta, phi) on rows
    # (row-1, row) zeroes work[row, col].
    a = work[row - 1, col]
    b = work[row, col]
    if abs(b) <= _NULL_EPS:
        return 0.0, 0.0
    theta = math.atan2(abs(b), abs(a))
    phi = float(math.pi / 2 + np.angle(b) - np.angle(a))
    return theta, _wrap_phase(phi)


def _apply_t_rows(work: np.ndarray, top: int, theta: float, phi: float) -> None:
    c, s = math.cos(theta), math.sin(theta)
    eip = complex(math.cos(phi), math.sin(phi))
    ra = work[top, :].copy()
    rb = work[top + 1, :].copy()
    work[top, :] = c * eip * ra + 1j * s * rb
    work[top + 1, :] = 1j * s * eip * ra + c * rb


def _pack_layers(n: int, ops: list[tuple[int, float, float]]) -> np.ndarray:
    """Place ops (in application order) onto the stacked (theta, phi) arrays.

    Earliest legal layer per op: after any earlier op sharing a mode, with
    the layer parity matching the pair parity.  The Clements op schedule
    always fits in the N-layer rectangle; the guard catches regressions.
    """
    angles = np.zeros((2, n, n // 2))
    last_touch = [-1] * n
    for mode, theta, phi in ops:
        ready = max(last_touch[mode], last_touch[mode + 1]) + 1
        if ready % 2 != mode % 2:
            ready += 1
        if ready >= n:
            raise NumericError("mesh packing exceeded the N-layer rectangle")
        angles[:, ready, mode // 2] = theta, phi
        last_touch[mode] = ready
        last_touch[mode + 1] = ready
    return angles


def clements_decompose(u: np.ndarray) -> MeshConfiguration:
    """Program the rectangular mesh to realize the unitary `u`.

    Alternating right/left Givens-style nulling sweeps reduce `u` to a
    diagonal; the left factors are then commuted through the diagonal
    (theta is preserved, only phases shuffle) so the result is a pure
    product of coupler nodes followed by output phases.
    """
    work = np.array(u, dtype=np.complex128)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise DecompositionError("input must be a square matrix")
    n = work.shape[0]
    residual = unitarity_residual(work)
    if residual >= _UNITARY_TOL:
        raise DecompositionError(
            f"input is not unitary: residual {residual:.3e} >= {_UNITARY_TOL:.1e}")
    left_ops: list[tuple[int, float, float]] = []
    right_ops: list[tuple[int, float, float]] = []
    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                row, col = n - 1 - j, i - 1 - j
                theta, phi = _null_from_right(work, row, col)
                _apply_tdag_cols(work, col, theta, phi)
                right_ops.append((col, theta, phi))
        else:
            for j in range(1, i + 1):
                row, col = n + j - i - 1, j - 1
                theta, phi = _null_from_left(work, row, col)
                _apply_t_rows(work, row - 1, theta, phi)
                left_ops.append((row - 1, theta, phi))

    d = np.diagonal(work).copy()
    off = float(np.max(np.abs(work - np.diag(d))))
    if off > _UNITARY_TOL:
        raise NumericError(f"nulling sweep left off-diagonal mass {off:.3e}")

    # U = T_L1^+ ... T_Lp^+ . D . T_Rq ... T_R1; push each T^+ through D:
    #   T(theta, phi)^+ . diag(da, db) = diag(-e^{-i phi} db, db) . T(theta, phi~)
    # with phi~ = arg(-da/db).  theta = 0 nodes absorb into D directly.
    converted: list[tuple[int, float, float]] = []
    for mode, theta, phi in reversed(left_ops):
        da, db = d[mode], d[mode + 1]
        if theta == 0.0:
            d[mode] = complex(math.cos(phi), -math.sin(phi)) * da
            converted.append((mode, 0.0, 0.0))
            continue
        phi_new = _wrap_phase(float(np.angle(-da / db)))
        d[mode] = -complex(math.cos(phi), -math.sin(phi)) * db
        converted.append((mode, theta, phi_new))

    ops = right_ops + converted  # application order, input side first
    return MeshConfiguration(*_pack_layers(n, ops), output_phases=np.angle(d))


# ---------------------------------------------------------------------------
# SVD synthesis of the (non-unitary) weighting matrix


@dataclass(frozen=True, eq=False)
class MeshSynthesis:
    """Left mesh x diagonal attenuators x right mesh realizing M / scale."""

    left: MeshConfiguration
    attenuations: np.ndarray
    right: MeshConfiguration
    scale: float

    def __post_init__(self):
        n, shape = self.left.n, np.shape(self.attenuations)
        if self.right.n != n or shape != (n,):
            raise ValueError(f"meshes and attenuations differ in size: left {n}, "
                             f"attenuations {shape}, right {self.right.n}")

    @property
    def dim(self) -> int:
        return self.left.n


def _float_matrix(matrix) -> np.ndarray:
    if isinstance(matrix, WeightMatrix):
        return matrix.entries.astype(np.float64)
    return np.asarray(matrix, dtype=np.float64)


def svd_synthesize(matrix) -> MeshSynthesis:
    """Split M = U S V^T into two programmable meshes and attenuators.

    The attenuators carry S / max(S) in [0, 1] (one MZM per channel) and the
    overall scale max(S) is reapplied digitally after detection.
    """
    m = _float_matrix(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    try:
        u, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    scale = float(s[0])
    if scale <= 0.0:
        raise NumericError("zero matrix cannot be synthesized")
    return MeshSynthesis(left=clements_decompose(u),
                         attenuations=s / scale,
                         right=clements_decompose(vt),
                         scale=scale)


def synthesis_residual(synth: MeshSynthesis, matrix) -> float:
    """Max elementwise error of scale * (left . diag . right) against M."""
    m = _float_matrix(matrix)
    rebuilt = (mesh_unitary(synth.left)
               @ np.diag(synth.attenuations)
               @ mesh_unitary(synth.right)) * synth.scale
    return float(np.max(np.abs(rebuilt - m)))


_SYNTH_CACHE: dict[bytes, MeshSynthesis] = {}


def synthesis_for(matrix: WeightMatrix) -> MeshSynthesis:
    """Cached SVD synthesis keyed by the matrix contents."""
    import hashlib

    key = hashlib.sha256(matrix.entries.tobytes()).digest()
    synth = _SYNTH_CACHE.get(key)
    if synth is None:
        synth = svd_synthesize(matrix)
        _SYNTH_CACHE[key] = synth
    return synth


# ---------------------------------------------------------------------------
# analog evaluation with noise and quantization

# Samples per fidelity_sweep, and in flight across its grid points.  A
# point holds about 8 KB per sample at dim 64: on 2 threads 10^4 samples
# peaked at 230 MB RSS.
MAX_SAMPLES = 10**5


@dataclass(frozen=True)
class NoiseModel:
    """Phase and detector noise, and the ADC depth of the detector.

    `adc_bits` is at most 53: the quantizer works in float64, whose 53-bit
    mantissa resolves no more levels past that depth."""

    phase_sigma: float = 0.0      # rad, per shifter per evaluation
    detector_sigma: float = 0.0   # relative intensity noise
    adc_bits: int = 24

    def __post_init__(self):
        if self.phase_sigma < 0 or self.detector_sigma < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        if not 1 <= self.adc_bits <= 53:
            raise ValueError("adc_bits must be in [1, 53]")


def analog_weighting_batch(synth: MeshSynthesis, xs: np.ndarray,
                           noise: NoiseModel = NoiseModel(),
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Analog weighting of a batch of nibble vectors, rows of `xs`, on the
    meshes of `synth`.

    Returns (estimates, intensities): truncated nibble estimates shaped like
    `xs` and the quantized detector intensities.  Detection is square-law;
    because every exact accumulator is nonnegative, taking the magnitude
    loses nothing, and at zero noise with a deep ADC the estimate equals the
    digital weighting exactly.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape[1] != synth.dim:
        raise ValueError(f"inputs must be (batch, {synth.dim}) nibbles")
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = noise.phase_sigma
    # A huge sigma overflows a phase to inf, whose cos is NaN; that is
    # reported below as one NumericError, not as a warning per ufunc.
    with np.errstate(over="ignore", invalid="ignore"):
        out = propagate(synth.right, encode_nibbles(xs).T, rng, sigma)
        atten = np.clip(synth.attenuations, 0.0, 1.0)
        if sigma > 0.0:
            drive = 2.0 * np.arccos(atten)[:, np.newaxis]
            drive = drive + rng.normal(0.0, sigma, out.shape)
            out = out * np.cos(drive / 2.0)
        else:
            out = out * atten[:, np.newaxis]
        out = propagate(synth.left, out, rng, sigma)
        intensity = np.abs(out) ** 2
        if noise.detector_sigma > 0.0:
            intensity = intensity * (1.0 + rng.normal(0.0, noise.detector_sigma,
                                                      intensity.shape))
    if np.isnan(intensity).any():
        raise NumericError(
            f"analog intensities are not finite at phase_sigma {sigma:g}, "
            f"detector_sigma {noise.detector_sigma:g}: a noise draw overflowed")
    # ADC full scale sits at the largest representable accumulator.
    acc_max = accumulator_max(synth.dim)
    full_scale = (acc_max / (NIBBLE_MAX * synth.scale)) ** 2
    intensity = np.clip(intensity, 0.0, full_scale)
    step = full_scale / (2 ** noise.adc_bits - 1)
    quantized = np.round(intensity / step) * step
    y = np.rint(NIBBLE_MAX * synth.scale * np.sqrt(quantized)).astype(np.int64)
    estimates = (y >> TRUNCATE_SHIFT) & 0xF
    return estimates.T, quantized.T


def fidelity_sweep(matrix: WeightMatrix, synth: MeshSynthesis,
                   grid: list[NoiseModel], samples: int = 1000, seed: int = 0,
                   threads: int = 1) -> list[dict]:
    """Nibble and end-to-end error rates of the analog path over a noise grid.

    `synth` is the mesh synthesis of `matrix`, built once by the caller.
    The same `samples` random nibble vectors are scored at every grid point
    (noise draws differ per point, deterministically from the seed).  A
    sample counts as an end-to-end HeavyHash mismatch when any estimated
    nibble differs: the digests agree exactly when the pre-hash bytes do.
    The digital reference needs the integer matrix, so `matrix` must be a
    WeightMatrix.

    Grid points run on up to `threads` worker threads (numpy releases the
    GIL in the draws and ufuncs), and on no more points at once than hold
    `MAX_SAMPLES` samples together: a sweep holds at most about 0.8 GB of
    samples at dim 64, whatever `threads` is.  Each point has its own
    seeded generator, so the rows are identical for any thread count.
    """
    if not isinstance(matrix, WeightMatrix):
        raise ValueError("fidelity_sweep needs a WeightMatrix, got "
                         f"{type(matrix).__name__}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [1, {MAX_SAMPLES}], got {samples}")
    base = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    xs = base.integers(0, NIBBLE_MAX + 1, size=(samples, synth.dim))
    digital = weighting(matrix, xs)

    def score(idx: int, noise: NoiseModel) -> dict:
        point_seed = np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        rng_seed = int(point_seed.generate_state(1)[0])
        estimates, _ = analog_weighting_batch(synth, xs, noise, rng_seed)
        errors = estimates != digital
        n_nibbles = errors.size
        nibble_rate = float(errors.mean())
        mismatch = errors.any(axis=1)
        mismatch_rate = float(mismatch.mean())
        return {
            "phase_sigma": noise.phase_sigma,
            "detector_sigma": noise.detector_sigma,
            "adc_bits": noise.adc_bits,
            "samples": samples,
            "nibble_error_rate": nibble_rate,
            "nibble_error_se": math.sqrt(nibble_rate * (1 - nibble_rate) / n_nibbles),
            "hash_mismatch_rate": mismatch_rate,
            "hash_mismatch_se": math.sqrt(mismatch_rate * (1 - mismatch_rate) / samples),
        }

    from concurrent.futures import ThreadPoolExecutor  # ~20 ms of cold start

    workers = max(1, min(threads, len(grid), MAX_SAMPLES // samples))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(score, range(len(grid)), grid))
