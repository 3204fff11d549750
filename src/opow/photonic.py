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


@dataclass(frozen=True)
class CouplerNode:
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must be in [0, pi/2]")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValueError("phi must be in [0, 2*pi)")


def layer_pair_starts(n: int, layer: int) -> np.ndarray:
    """First mode of each coupled pair in the given brick layer."""
    return np.arange(layer % 2, n - 1, 2)


@dataclass(frozen=True, eq=False)
class MeshConfiguration:
    n: int
    layers: tuple  # tuple of per-layer tuples of CouplerNode
    output_phases: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mode count must be >= 1")
        layers = tuple(tuple(layer) for layer in self.layers)
        if len(layers) != self.n:
            raise ValueError(f"mesh must have exactly {self.n} layers")
        for idx, layer in enumerate(layers):
            if len(layer) != len(layer_pair_starts(self.n, idx)):
                raise ValueError(f"layer {idx} has the wrong node count")
        phases = np.ascontiguousarray(self.output_phases, dtype=np.float64)
        if phases.shape != (self.n,):
            raise ValueError("output_phases must have one entry per mode")
        phases.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "output_phases", phases)

    def node_count(self) -> int:
        return sum(len(layer) for layer in self.layers)


def identity_configuration(n: int) -> MeshConfiguration:
    layers = tuple(
        tuple(CouplerNode(0.0, 0.0) for _ in layer_pair_starts(n, idx))
        for idx in range(n)
    )
    return MeshConfiguration(n=n, layers=layers, output_phases=np.zeros(n))


# ---------------------------------------------------------------------------
# input encoding


def mzm_amplitude(phase: float) -> float:
    """Transmission amplitude of a balanced MZM at the given drive phase."""
    if not 0.0 <= phase <= math.pi:
        raise ValueError("drive phase must be in [0, pi]")
    return math.cos(phase / 2.0)


def nibble_drive_phase(value: int) -> float:
    """Drive phase that encodes a nibble: 0 -> pi (dark), 15 -> 0 (full)."""
    if not 0 <= value <= NIBBLE_MAX:
        raise ValueError("nibble must be in [0, 15]")
    return 2.0 * math.acos(value / NIBBLE_MAX)


def encode_nibbles(values) -> np.ndarray:
    """Optical field for a nibble vector, or a batch of them as rows:
    amplitude x/15, zero phase."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a nibble vector or a batch of them")
    if arr.min() < 0 or arr.max() > NIBBLE_MAX:
        raise ValueError("nibble values must be in [0, 15]")
    return (arr / NIBBLE_MAX).astype(np.complex128)


# ---------------------------------------------------------------------------
# propagation


def coupler_unitary(node: CouplerNode) -> np.ndarray:
    """2x2 transfer matrix C(theta) . P(phi) of one directional coupler."""
    c, s = math.cos(node.theta), math.sin(node.theta)
    eip = complex(math.cos(node.phi), math.sin(node.phi))
    return np.array([[c * eip, 1j * s], [1j * s * eip, c]], dtype=np.complex128)


def propagate(config: MeshConfiguration, fields: np.ndarray,
              rng: np.random.Generator | None = None,
              phase_sigma: float = 0.0) -> np.ndarray:
    """Push the field vectors in the columns of `fields` (n, B) through the mesh.

    With phase_sigma > 0 every shifter (each node's theta and phi, plus the
    output phases) picks up an independent Gaussian error per column.
    """
    out = np.asarray(fields, dtype=np.complex128).copy()
    if out.ndim != 2 or out.shape[0] != config.n:
        raise ValueError(f"fields have shape {out.shape}, mesh has {config.n} modes")
    batch = out.shape[1]
    noisy = phase_sigma > 0.0
    if noisy and rng is None:
        raise ValueError("phase noise requires an rng")
    for idx, layer in enumerate(config.layers):
        starts = layer_pair_starts(config.n, idx)
        if starts.size == 0:
            continue
        theta = np.array([node.theta for node in layer])[:, np.newaxis]
        phi = np.array([node.phi for node in layer])[:, np.newaxis]
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


def _pack_layers(n: int, ops: list[tuple[int, float, float]]) -> tuple:
    """Place ops (in application order) onto the brick pattern.

    Earliest legal layer per op: after any earlier op sharing a mode, with
    the layer parity matching the pair parity.  The Clements op schedule
    always fits in the N-layer rectangle; the guard catches regressions.
    """
    assignments: list[dict[int, tuple[float, float]]] = [dict() for _ in range(n)]
    last_touch = [-1] * n
    for mode, theta, phi in ops:
        ready = max(last_touch[mode], last_touch[mode + 1]) + 1
        if ready % 2 != mode % 2:
            ready += 1
        if ready >= n:
            raise NumericError("mesh packing exceeded the N-layer rectangle")
        assignments[ready][mode] = (theta, phi)
        last_touch[mode] = ready
        last_touch[mode + 1] = ready
    layers = []
    for idx in range(n):
        layer = tuple(
            CouplerNode(*assignments[idx].get(int(start), (0.0, 0.0)))
            for start in layer_pair_starts(n, idx)
        )
        layers.append(layer)
    return tuple(layers)


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

    diag = np.diagonal(work).copy()
    off = float(np.max(np.abs(work - np.diag(diag))))
    if off > _UNITARY_TOL:
        raise NumericError(f"nulling sweep left off-diagonal mass {off:.3e}")

    # U = T_L1^+ ... T_Lp^+ . D . T_Rq ... T_R1; push each T^+ through D:
    #   T(theta, phi)^+ . diag(da, db) = diag(-e^{-i phi} db, db) . T(theta, phi~)
    # with phi~ = arg(-da/db).  theta = 0 nodes absorb into D directly.
    d = diag.astype(np.complex128)
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
    layers = _pack_layers(n, ops)
    return MeshConfiguration(n=n, layers=layers, output_phases=np.angle(d))


# ---------------------------------------------------------------------------
# SVD synthesis of the (non-unitary) weighting matrix


@dataclass(frozen=True, eq=False)
class MeshSynthesis:
    """Left mesh x diagonal attenuators x right mesh realizing M / scale."""

    left: MeshConfiguration
    attenuations: np.ndarray
    right: MeshConfiguration
    scale: float
    dim: int


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
                         scale=scale,
                         dim=m.shape[0])


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


def analog_weighting_batch(matrix, xs: np.ndarray,
                           noise: NoiseModel = NoiseModel(),
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Analog weighting of a batch of nibble vectors, rows of `xs`.

    `matrix` may be a WeightMatrix (synthesis cached) or a prebuilt
    MeshSynthesis.  Returns (estimates, intensities): truncated nibble
    estimates shaped like `xs` and the quantized detector intensities.
    Detection is square-law; because every exact accumulator is nonnegative,
    taking the magnitude loses nothing, and at zero noise with a deep ADC
    the estimate equals the digital weighting exactly.
    """
    synth = matrix if isinstance(matrix, MeshSynthesis) else synthesis_for(matrix)
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape[1] != synth.dim:
        raise ValueError(f"inputs must be (batch, {synth.dim}) nibbles")
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = noise.phase_sigma
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
    # ADC full scale sits at the largest representable accumulator.
    acc_max = accumulator_max(synth.dim)
    full_scale = (acc_max / (NIBBLE_MAX * synth.scale)) ** 2
    intensity = np.clip(intensity, 0.0, full_scale)
    step = full_scale / (2 ** noise.adc_bits - 1)
    quantized = np.round(intensity / step) * step
    y = np.rint(NIBBLE_MAX * synth.scale * np.sqrt(quantized)).astype(np.int64)
    estimates = (y >> TRUNCATE_SHIFT) & 0xF
    return estimates.T, quantized.T


def fidelity_sweep(matrix: WeightMatrix, grid: list[NoiseModel],
                   samples: int = 1000, seed: int = 0) -> list[dict]:
    """Nibble and end-to-end error rates of the analog path over a noise grid.

    The same `samples` random nibble vectors are scored at every grid point
    (noise draws differ per point, deterministically from the seed).  A
    sample counts as an end-to-end HeavyHash mismatch when any estimated
    nibble differs: the digests agree exactly when the pre-hash bytes do.
    The digital reference needs the integer matrix, so `matrix` must be a
    WeightMatrix.
    """
    if not isinstance(matrix, WeightMatrix):
        raise ValueError("fidelity_sweep needs a WeightMatrix, got "
                         f"{type(matrix).__name__}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    synth = synthesis_for(matrix)
    base = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    xs = base.integers(0, NIBBLE_MAX + 1, size=(samples, synth.dim))
    digital = weighting(matrix, xs)
    rows = []
    for idx, noise in enumerate(grid):
        point_seed = np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        rng_seed = int(point_seed.generate_state(1)[0])
        estimates, _ = analog_weighting_batch(synth, xs, noise, rng_seed)
        errors = estimates != digital
        n_nibbles = errors.size
        nibble_rate = float(errors.mean())
        mismatch = errors.any(axis=1)
        mismatch_rate = float(mismatch.mean())
        rows.append({
            "phase_sigma": noise.phase_sigma,
            "detector_sigma": noise.detector_sigma,
            "adc_bits": noise.adc_bits,
            "samples": samples,
            "nibble_error_rate": nibble_rate,
            "nibble_error_se": math.sqrt(nibble_rate * (1 - nibble_rate) / n_nibbles),
            "hash_mismatch_rate": mismatch_rate,
            "hash_mismatch_se": math.sqrt(mismatch_rate * (1 - mismatch_rate) / samples),
        })
    return rows
