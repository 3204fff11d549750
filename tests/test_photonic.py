import math

import numpy as np
import pytest

from opow.heavyhash import generate_matrix, identity_matrix, weighting
from opow.photonic import (
    CouplerNode,
    DecompositionError,
    MeshConfiguration,
    NoiseModel,
    analog_weighting_batch,
    clements_decompose,
    coupler_unitary,
    encode_nibbles,
    fidelity_sweep,
    identity_configuration,
    layer_pair_starts,
    mesh_unitary,
    mzm_amplitude,
    nibble_drive_phase,
    svd_synthesize,
    synthesis_residual,
    unitarity_residual,
)
from reference_oracles import ref_mesh_unitary, ref_singular_values


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- modulators and encoding -----------------------------------------------------


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
    # the drive phase reproduces the amplitude through the MZM law
    for v in range(16):
        assert mzm_amplitude(nibble_drive_phase(v)) == pytest.approx(v / 15)


# -- couplers and meshes -----------------------------------------------------------


def test_coupler_examples():
    assert np.allclose(coupler_unitary(CouplerNode(0.0, 0.0)), np.eye(2))
    half = coupler_unitary(CouplerNode(math.pi / 4, 0.0))
    expect = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    assert np.allclose(half, expect)


def test_coupler_always_unitary():
    rng = np.random.default_rng(1)
    for _ in range(200):
        node = CouplerNode(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        assert unitarity_residual(coupler_unitary(node)) < 1e-12


def test_coupler_node_validation():
    with pytest.raises(ValueError):
        CouplerNode(-0.1, 0.0)
    with pytest.raises(ValueError):
        CouplerNode(0.0, 2 * math.pi)


def test_identity_configuration_is_identity():
    cfg = identity_configuration(16)
    assert len(cfg.layers) == 16
    assert cfg.node_count() == 16 * 15 // 2
    assert np.allclose(mesh_unitary(cfg), np.eye(16))


def test_mesh_unitarity_and_power_conservation():
    rng = np.random.default_rng(2)
    for n in (2, 5, 16):
        layers = tuple(
            tuple(CouplerNode(rng.uniform(0, math.pi / 2),
                              rng.uniform(0, 2 * math.pi))
                  for _ in layer_pair_starts(n, idx))
            for idx in range(n))
        cfg = MeshConfiguration(n=n, layers=layers,
                                output_phases=rng.uniform(0, 2 * math.pi, n))
        u = mesh_unitary(cfg)
        assert unitarity_residual(u) < 1e-10
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(u @ x) == pytest.approx(np.linalg.norm(x), rel=1e-10)
        # independent composition oracle
        assert np.max(np.abs(u - ref_mesh_unitary(cfg))) < 1e-12


def test_mesh_configuration_shape_validation():
    with pytest.raises(ValueError):
        MeshConfiguration(n=4, layers=((),), output_phases=np.zeros(4))


# -- decomposition ------------------------------------------------------------------


def test_decompose_identity_convention():
    cfg = clements_decompose(np.eye(8))
    assert all(node.theta == 0.0 and node.phi == 0.0
               for layer in cfg.layers for node in layer)
    assert np.allclose(cfg.output_phases, 0.0)


def test_decompose_roundtrip_sizes():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 16, 17, 1):
        u = haar_unitary(n, rng)
        cfg = clements_decompose(u)
        assert len(cfg.layers) == n
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
    u[2:4, 2:4] = coupler_unitary(CouplerNode(math.pi / 4, 0.0))
    cfg = clements_decompose(u)
    hot = [(idx, int(start), node.theta)
           for idx, layer in enumerate(cfg.layers)
           for start, node in zip(layer_pair_starts(n, idx), layer)
           if abs(node.theta) > 1e-9]
    assert len(hot) == 1
    _, start, theta = hot[0]
    assert start == 2 and theta == pytest.approx(math.pi / 4)
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
        layers = tuple(
            tuple(CouplerNode(rng.uniform(0, math.pi / 2),
                              rng.uniform(0, 2 * math.pi))
                  for _ in layer_pair_starts(n, idx))
            for idx in range(n))
        cfg = MeshConfiguration(n=n, layers=layers,
                                output_phases=rng.uniform(0, 2 * math.pi, n))
        u = mesh_unitary(cfg)
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
    est, _ = analog_weighting_batch(ident, x[np.newaxis])
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
    rows = fidelity_sweep(m0, grid, samples=120, seed=3)
    assert rows[0]["nibble_error_rate"] == 0.0
    assert rows[0]["hash_mismatch_rate"] == 0.0
    assert rows[1]["nibble_error_rate"] > 0.0
    again = fidelity_sweep(m0, grid, samples=120, seed=3)
    assert rows == again


def test_fidelity_sweep_needs_the_integer_matrix(m0_synthesis):
    with pytest.raises(ValueError, match="WeightMatrix"):
        fidelity_sweep(m0_synthesis, [NoiseModel()], samples=10)
