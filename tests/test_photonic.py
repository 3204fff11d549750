import math
import warnings

import numpy as np
import pytest

from opow.heavyhash import generate_matrix, identity_matrix, weighting
from opow.photonic import (
    MAX_SAMPLES,
    DecompositionError,
    MeshConfiguration,
    MeshSynthesis,
    NoiseModel,
    NumericError,
    analog_weighting_batch,
    clements_decompose,
    encode_nibbles,
    fidelity_sweep,
    mesh_unitary,
    propagate,
    svd_synthesize,
    synthesis_residual,
    unitarity_residual,
)
from reference_oracles import (
    ref_analog_intensities,
    ref_coupler,
    ref_mesh_unitary,
    ref_propagate,
    ref_singular_values,
)


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- modulators and encoding -----------------------------------------------------


def mzm_amplitude(phase: float) -> float:
    """Transmission amplitude of a balanced MZM at the given drive phase."""
    if not 0.0 <= phase <= math.pi:
        raise ValueError("drive phase must be in [0, pi]")
    return math.cos(phase / 2.0)


def nibble_drive_phase(value: int) -> float:
    """Drive phase that encodes a nibble: 0 -> pi (dark), 15 -> 0 (full)."""
    if not 0 <= value <= 15:
        raise ValueError("nibble must be in [0, 15]")
    return 2.0 * math.acos(value / 15)


def test_mzm_amplitude_examples():
    assert mzm_amplitude(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert mzm_amplitude(0.0) == 1.0
    assert mzm_amplitude(math.pi / 2) == pytest.approx(math.cos(math.pi / 4))
    with pytest.raises(ValueError):
        mzm_amplitude(-0.1)
    with pytest.raises(ValueError):
        mzm_amplitude(3.2)


def test_encode_nibbles_examples():
    field = encode_nibbles([0, 15, 8])
    assert field[0] == 0.0
    assert field[1] == 1.0
    assert field[2] == pytest.approx(8 / 15)
    assert (field.imag == 0).all()
    assert nibble_drive_phase(0) == pytest.approx(math.pi)
    assert nibble_drive_phase(15) == 0.0
    # the drive phase reproduces the encoded amplitude through the MZM law
    for v in range(16):
        amplitude = mzm_amplitude(nibble_drive_phase(v))
        assert amplitude == pytest.approx(v / 15)
        assert encode_nibbles([v])[0] == pytest.approx(amplitude)


# -- couplers and meshes -----------------------------------------------------------


def coupler_unitary(theta: float, phi: float) -> np.ndarray:
    """The library's 2x2 transfer matrix of one node: a two-mode mesh with
    the node in layer 0 and an empty layer 1."""
    return mesh_unitary(MeshConfiguration(theta=[[theta], [0.0]], phi=[[phi], [0.0]],
                                          output_phases=np.zeros(2)))


def identity_configuration(n: int) -> MeshConfiguration:
    return MeshConfiguration(theta=np.zeros((n, n // 2)), phi=np.zeros((n, n // 2)),
                             output_phases=np.zeros(n))


def random_configuration(n: int, rng) -> MeshConfiguration:
    """Uniform node angles, drawn node by node (theta, then phi) through the
    brick layers, then uniform output phases."""
    theta, phi = np.zeros((2, n, n // 2))
    for idx in range(n):
        for j in range((n - idx % 2) // 2):
            theta[idx, j] = rng.uniform(0, math.pi / 2)
            phi[idx, j] = rng.uniform(0, 2 * math.pi)
    return MeshConfiguration(theta=theta, phi=phi,
                             output_phases=rng.uniform(0, 2 * math.pi, n))


def test_coupler_examples():
    assert np.allclose(coupler_unitary(0.0, 0.0), np.eye(2))
    half = coupler_unitary(math.pi / 4, 0.0)
    expect = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    assert np.allclose(half, expect)


def test_coupler_always_unitary():
    rng = np.random.default_rng(1)
    for _ in range(200):
        theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        u = coupler_unitary(theta, phi)
        assert unitarity_residual(u) < 1e-12
        assert np.max(np.abs(u - ref_coupler(theta, phi))) < 1e-12


def test_coupler_node_validation():
    # One bad node anywhere in the mesh refuses the configuration.
    for theta, phi in ((-0.1, 0.0), (math.pi / 2 + 1e-12, 0.0), (0.0, 2 * math.pi),
                       (0.0, -1e-300), (math.nan, 0.0), (0.0, math.nan)):
        angles = np.zeros((2, 5, 2))
        angles[:, 3, 1] = theta, phi
        with pytest.raises(ValueError, match="theta must be|phi must be"):
            MeshConfiguration(*angles, output_phases=np.zeros(5))


def test_even_mesh_slot_without_a_pair_must_be_zero():
    # For even n an odd layer has n/2 - 1 pairs; propagate never reads its
    # last column, so a value there is refused rather than ignored.
    for which in (0, 1):
        angles = np.zeros((2, 4, 2))
        angles[which, 1, 1] = 0.5
        with pytest.raises(ValueError, match="no last node"):
            MeshConfiguration(*angles, output_phases=np.zeros(4))
    angles = np.zeros((2, 4, 2))
    angles[:, 0, 1] = angles[:, 2, 1] = 0.5  # even layers use that column
    MeshConfiguration(*angles, output_phases=np.zeros(4))


def test_mesh_configuration_arrays_are_read_only():
    theta = np.zeros((4, 2))
    cfg = MeshConfiguration(theta=theta, phi=np.zeros((4, 2)), output_phases=np.zeros(4))
    theta[0, 0] = 1.0  # the configuration holds its own copy
    assert cfg.n == 4 and cfg.theta[0, 0] == 0.0
    for arr in (cfg.theta, cfg.phi, cfg.output_phases):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_identity_configuration_is_identity():
    cfg = identity_configuration(16)
    assert cfg.n == 16 and cfg.theta.shape == cfg.phi.shape == (16, 8)
    assert np.allclose(mesh_unitary(cfg), np.eye(16))


def test_mesh_unitarity_and_power_conservation():
    rng = np.random.default_rng(2)
    for n in (2, 5, 16):
        cfg = random_configuration(n, rng)
        u = mesh_unitary(cfg)
        assert unitarity_residual(u) < 1e-10
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(u @ x) == pytest.approx(np.linalg.norm(x), rel=1e-10)
        # independent composition oracle
        assert np.max(np.abs(u - ref_mesh_unitary(cfg))) < 1e-12


def test_mesh_configuration_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        MeshConfiguration(theta=np.zeros((1, 2)), phi=np.zeros((1, 2)),
                          output_phases=np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        MeshConfiguration(theta=np.zeros((4, 2)), phi=np.zeros((4, 1)),
                          output_phases=np.zeros(4))
    for phases in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="one entry per mode"):
            MeshConfiguration(theta=np.zeros((4, 2)), phi=np.zeros((4, 2)),
                              output_phases=phases)


# -- decomposition ------------------------------------------------------------------


def test_decompose_identity_convention():
    cfg = clements_decompose(np.eye(8))
    assert not cfg.theta.any() and not cfg.phi.any()
    assert np.allclose(cfg.output_phases, 0.0)


def test_decompose_roundtrip_sizes():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 16, 17, 1):
        u = haar_unitary(n, rng)
        cfg = clements_decompose(u)
        assert cfg.n == n and cfg.theta.shape == (n, n // 2)
        assert np.max(np.abs(mesh_unitary(cfg) - u)) < 1e-8


def test_decompose_real_orthogonal():
    rng = np.random.default_rng(4)
    for n in (4, 16, 64):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        cfg = clements_decompose(q)
        assert np.max(np.abs(mesh_unitary(cfg) - q)) < 1e-8


def test_decompose_recovers_embedded_splitter():
    n = 6
    u = np.eye(n, dtype=complex)
    u[2:4, 2:4] = ref_coupler(math.pi / 4, 0.0)
    cfg = clements_decompose(u)
    hot = np.argwhere(np.abs(cfg.theta) > 1e-9)
    assert len(hot) == 1
    layer, column = hot[0]
    assert layer % 2 + 2 * column == 2  # the node on modes (2, 3)
    assert cfg.theta[layer, column] == pytest.approx(math.pi / 4)
    assert np.max(np.abs(mesh_unitary(cfg) - u)) < 1e-10


def test_decompose_rejects_non_unitary():
    with pytest.raises(DecompositionError) as info:
        clements_decompose(np.ones((4, 4)))
    assert "residual" in str(info.value)


def test_decompose_roundtrips_mesh_configurations():
    # decompose(mesh_unitary(config)) reproduces the same transfer matrix,
    # i.e. the configuration round-trips up to phase convention.
    rng = np.random.default_rng(12)
    for n in (3, 8, 16):
        u = mesh_unitary(random_configuration(n, rng))
        again = mesh_unitary(clements_decompose(u))
        assert np.max(np.abs(again - u)) < 1e-8


# -- SVD synthesis ------------------------------------------------------------------


def test_synthesize_identity():
    synth = svd_synthesize(np.eye(16))
    assert synth.scale == pytest.approx(1.0)
    assert np.allclose(synth.attenuations, 1.0)
    assert synthesis_residual(synth, np.eye(16)) < 1e-12


def test_synthesize_all_ones_singular_values():
    synth = svd_synthesize(np.ones((4, 4)))
    values = synth.attenuations * synth.scale
    assert np.allclose(np.sort(values)[::-1], [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ref_singular_values(np.ones((4, 4))),
                       [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_synthesize_consensus_matrix(m0, m0_synthesis, golden):
    assert synthesis_residual(m0_synthesis, m0) < 1e-6
    assert m0_synthesis.scale == pytest.approx(float(golden["svd_scale"]), rel=1e-9)
    assert m0_synthesis.scale == pytest.approx(
        float(ref_singular_values(m0.entries)[0]), rel=1e-9)
    assert np.all(m0_synthesis.attenuations >= 0)
    assert np.all(m0_synthesis.attenuations <= 1 + 1e-12)


def test_synthesize_demo_dimension():
    demo = generate_matrix(b"\x01" * 32, dim=16)
    synth = svd_synthesize(demo)
    assert synth.dim == 16
    assert synthesis_residual(synth, demo) < 1e-8


def test_synthesis_refuses_meshes_of_two_sizes():
    # The dim is the meshes', so they and the attenuators must agree: a
    # dim-16 left mesh with a dim-64 right one fails here, not in propagate.
    small = svd_synthesize(generate_matrix(b"\x01" * 32, dim=16))
    large = svd_synthesize(generate_matrix(b"\x01" * 32, dim=64))
    with pytest.raises(ValueError, match="differ in size"):
        MeshSynthesis(left=small.left, attenuations=small.attenuations,
                      right=large.right, scale=small.scale)
    with pytest.raises(ValueError, match="differ in size"):
        MeshSynthesis(left=small.left, attenuations=large.attenuations,
                      right=small.right, scale=small.scale)
    same = MeshSynthesis(left=small.left, attenuations=small.attenuations,
                         right=small.right, scale=small.scale)
    assert same.dim == small.dim == 16


# -- analog weighting ----------------------------------------------------------------


def test_analog_matches_digital_at_zero_noise(m0, m0_synthesis):
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 16, size=(30, 64))
    est, _ = analog_weighting_batch(m0_synthesis, xs)
    digital = np.vstack([weighting(m0, x) for x in xs])
    assert (est == digital).all()


def test_analog_identity_matches_digital_zero_vector():
    ident = identity_matrix()
    rng = np.random.default_rng(6)
    x = rng.integers(0, 16, size=64)
    est, _ = analog_weighting_batch(svd_synthesize(ident), x[np.newaxis])
    assert (est == 0).all()


def test_analog_noise_monotone(m0, m0_synthesis):
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 16, size=(300, 64))
    digital = np.vstack([weighting(m0, x) for x in xs])
    rates = []
    for sigma in (0.05, 0.1):
        est, _ = analog_weighting_batch(
            m0_synthesis, xs, NoiseModel(phase_sigma=sigma), seed=8)
        rates.append(float((est != digital).mean()))
    assert 0.0 < rates[0] <= rates[1]


def test_shallow_adc_is_worse_than_deep(m0, m0_synthesis):
    rng = np.random.default_rng(9)
    xs = rng.integers(0, 16, size=(100, 64))
    digital = np.vstack([weighting(m0, x) for x in xs])
    est1, _ = analog_weighting_batch(m0_synthesis, xs, NoiseModel(adc_bits=1), seed=1)
    est24, _ = analog_weighting_batch(m0_synthesis, xs, NoiseModel(adc_bits=24), seed=1)
    assert (est1 != digital).mean() > (est24 != digital).mean()
    assert (est24 == digital).all()


def test_fidelity_sweep_zero_noise_row_and_determinism(m0, m0_synthesis):
    grid = [NoiseModel(), NoiseModel(phase_sigma=0.05)]
    rows = fidelity_sweep(m0, m0_synthesis, grid, samples=120, seed=3)
    assert rows[0]["nibble_error_rate"] == 0.0
    assert rows[0]["hash_mismatch_rate"] == 0.0
    assert rows[1]["nibble_error_rate"] > 0.0
    again = fidelity_sweep(m0, m0_synthesis, grid, samples=120, seed=3)
    assert rows == again


def test_fidelity_sweep_needs_the_integer_matrix(m0_synthesis):
    with pytest.raises(ValueError, match="WeightMatrix"):
        fidelity_sweep(m0_synthesis, m0_synthesis, [NoiseModel()], samples=10)


def test_fidelity_sweep_sample_count_is_bounded(m0, m0_synthesis):
    for samples in (0, MAX_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples must be in"):
            fidelity_sweep(m0, m0_synthesis, [NoiseModel()], samples=samples)


# -- bit equality with the plain per-layer expressions ------------------------
# Same draws, same order, same ufuncs: checked on the CPU the tests run on.
# A batch of 300 at dim 64 puts the output rotation past numpy's 256 KiB
# temporary-elision threshold, where the multiply order can change.

_BIT_CASES = [(dim, batch, sigma, seed) for dim in (16, 64) for batch in (1, 37)
              for sigma in (0.0, 0.01, 0.1) for seed in (0, 1, 2)]
_BIT_CASES += [(64, 300, sigma, 0) for sigma in (0.0, 0.01, 0.1)]


@pytest.fixture(scope="module")
def syntheses():
    return {dim: svd_synthesize(generate_matrix(b"\x07" * 32, dim=dim))
            for dim in (16, 64)}


@pytest.mark.parametrize("dim, batch, sigma, seed", _BIT_CASES)
def test_propagate_bits_match_reference(syntheses, dim, batch, sigma, seed):
    synth = syntheses[dim]
    xs = np.random.default_rng(seed).integers(0, 16, size=(batch, dim))
    fields = encode_nibbles(xs).T
    for config in (synth.right, synth.left):
        expected = ref_propagate(config, fields, np.random.default_rng(seed), sigma)
        got = propagate(config, fields, np.random.default_rng(seed), sigma)
        assert np.array_equal(got, expected)


def test_propagate_bits_match_reference_on_small_meshes():
    # At n = 1 and in n = 2's odd layer a layer has no pair, and draws nothing.
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        cfg = random_configuration(n, rng)
        fields = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        for sigma in (0.0, 0.1):
            got = propagate(cfg, fields, np.random.default_rng(n), sigma)
            assert np.array_equal(got, ref_propagate(cfg, fields,
                                                     np.random.default_rng(n), sigma))


@pytest.mark.parametrize("dim, batch, sigma, seed", _BIT_CASES)
def test_analog_intensities_bits_match_reference(syntheses, dim, batch, sigma, seed):
    synth = syntheses[dim]
    xs = np.random.default_rng(seed).integers(0, 16, size=(batch, dim))
    for noise in (NoiseModel(phase_sigma=sigma),
                  NoiseModel(phase_sigma=sigma, detector_sigma=0.01)):
        _, got = analog_weighting_batch(synth, xs, noise, seed)
        assert np.array_equal(got, ref_analog_intensities(synth, xs, noise, seed))


def test_phase_overflow_is_a_numeric_error():
    synth = svd_synthesize(generate_matrix(bytes(32), dim=16))
    xs = np.random.default_rng(0).integers(0, 16, size=(20, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite"):
            analog_weighting_batch(synth, xs, NoiseModel(phase_sigma=1e308))
        # Huge but finite phases are only noise.
        est, quantized = analog_weighting_batch(synth, xs, NoiseModel(phase_sigma=1e300))
    assert est.shape == xs.shape and np.isfinite(quantized).all()


def test_fidelity_sweep_threads_invariant():
    matrix = generate_matrix(b"\x03" * 32, dim=16)
    grid = [NoiseModel(phase_sigma=s, detector_sigma=0.01) for s in (0.0, 0.02, 0.05, 0.1)]
    synth = svd_synthesize(matrix)
    rows = fidelity_sweep(matrix, synth, grid, samples=60, seed=11, threads=1)
    assert rows[-1]["nibble_error_rate"] > 0.0
    for threads in (2, 5):
        assert fidelity_sweep(matrix, synth, grid, samples=60, seed=11,
                              threads=threads) == rows


def test_fidelity_sweep_bounds_the_samples_in_flight(monkeypatch):
    # With room for one 60-sample point under the cap, the sweep runs one
    # point at a time, whatever `threads` asks for, and keeps its rows.
    import concurrent.futures

    import opow.photonic

    matrix = generate_matrix(b"\x03" * 32, dim=16)
    grid = [NoiseModel(phase_sigma=s, detector_sigma=0.01) for s in (0.0, 0.02, 0.05, 0.1)]
    synth = svd_synthesize(matrix)
    rows = fidelity_sweep(matrix, synth, grid, samples=60, seed=11, threads=1)
    workers = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(opow.photonic, "MAX_SAMPLES", 100)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    assert fidelity_sweep(matrix, synth, grid, samples=60, seed=11, threads=4) == rows
    assert workers == [1]
