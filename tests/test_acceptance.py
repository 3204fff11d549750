"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All statistical checks run under fixed seeds, so the suite is
deterministic.
"""

import math
import random
import time

import numpy as np

from opow.econ import (
    MarketState,
    SECONDS_PER_DAY,
    active_fraction,
    attack_cost,
    bitcoin_like_fleet,
    resilience_curve,
    synthetic_fleet,
)
from opow.econ import Cohort, MinerFleet
from opow.heavyhash import (
    HeavyHashParams,
    _pack_nibbles,
    _split_nibbles,
    heavyhash,
    heavyhash_many,
    identity_matrix,
    weighting,
)
from opow.netsim import attack_success_rate, catchup_probability
from opow.photonic import (
    NoiseModel,
    analog_weighting_batch,
    clements_decompose,
    fidelity_sweep,
    mesh_unitary,
    synthesis_residual,
    unitarity_residual,
)
from opow.pow import (
    BlockHeader,
    RetargetParams,
    TARGET_SPACE,
    compact_from_target,
    mine,
    simulate_retarget_chain,
    window_mean_intervals,
)

PARAMS = HeavyHashParams()


def report(number: int, description: str, ok: bool, detail: str, started: float,
           budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {status} ({elapsed:6.2f}s) "
          f"{description}: {detail}")
    assert ok, f"criterion {number}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_01_golden_vectors(m0, golden):
    t0 = time.monotonic()
    digest_ok = heavyhash(PARAMS, m0, b"").hex() == golden["heavyhash_empty"]
    ident = identity_matrix()
    rng = random.Random(101)
    import hashlib
    double_ok = all(
        heavyhash(PARAMS, ident, data)
        == hashlib.sha256(hashlib.sha256(data).digest()).digest()
        for data in (rng.randbytes(rng.randrange(0, 150)) for _ in range(100)))
    report(1, "HeavyHash golden vectors", digest_ok and double_ok,
           f"zero-seed digest match={digest_ok}, identity==double-SHA256 "
           f"on 100 inputs={double_ok}", t0, budget=1.0)


def test_02_avalanche(m0):
    t0 = time.monotonic()
    n = 10_000
    rng = random.Random(202)
    base_inputs = [rng.randbytes(32) for _ in range(n)]
    flipped_inputs = []
    for data in base_inputs:
        bit = rng.randrange(256)
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        flipped_inputs.append(bytes(mutated))
    base = heavyhash_many(PARAMS, m0, base_inputs)
    mut = heavyhash_many(PARAMS, m0, flipped_inputs)
    diff = np.array([
        np.unpackbits(np.frombuffer(bytes(a ^ b for a, b in zip(x, y)),
                                    dtype=np.uint8))
        for x, y in zip(base, mut)])
    mean_fraction = float(diff.mean())
    per_bit = diff.mean(axis=0)
    per_bit_ok = bool((per_bit > 0.45).all() and (per_bit < 0.55).all())
    ok = 0.47 <= mean_fraction <= 0.53 and per_bit_ok
    report(2, "Avalanche over 10^4 bit flips", ok,
           f"mean flip fraction {mean_fraction:.4f} in [0.47,0.53], per-bit in "
           f"[{per_bit.min():.3f},{per_bit.max():.3f}] within [0.45,0.55]",
           t0, budget=30.0)


def test_03_entropy_preservation(m0):
    t0 = time.monotonic()
    n = 10_000
    rng = random.Random(303)
    digests = {rng.randbytes(32) for _ in range(n)}
    while len(digests) < n:
        digests.add(rng.randbytes(32))
    pre_outer = set()
    for d in digests:
        x = _split_nibbles(d)[0]
        pre_outer.add(_pack_nibbles(weighting(m0, x) ^ x))
    collisions = n - len(pre_outer)
    report(3, "Entropy preservation (pre-outer-hash collisions)",
           collisions == 0, f"{collisions} collisions over {n} distinct "
           f"inner digests", t0)


def test_04_threshold_statistics(m0):
    t0 = time.monotonic()
    k = 12
    target = 1 << (256 - k)
    compact = compact_from_target(target)
    rng = random.Random(404)
    runs = 500
    trials = []
    for _ in range(runs):
        template = BlockHeader(1, rng.randbytes(32), rng.randbytes(32),
                               rng.randrange(1 << 48), compact, 0)
        nonce = mine(template, m0, target, 0, 1 << 20, batch=2048)
        trials.append(nonce + 1)
    mean = sum(trials) / runs
    expected = float(1 << k)
    se = expected / math.sqrt(runs)  # geometric sd ~ mean for small p
    ok = abs(mean - expected) < 3 * se
    report(4, "Expected trials at target 2^(256-12)", ok,
           f"mean {mean:.1f} vs {expected:.0f} +/- {3 * se:.1f} (3 SE, "
           f"{runs} runs)", t0, budget=120.0)


def test_05_retarget_convergence():
    t0 = time.monotonic()
    params = RetargetParams()  # window 64, 600 s, clamp 4
    hashrate = 1.0e6
    initial = int(TARGET_SPACE / (hashrate * 9600))  # 16x too hard
    points = simulate_retarget_chain(initial, hashrate, 5 * params.window, params)
    means = window_mean_intervals(points, params.window)
    # converged within 4 retarget windows: every window from the 4th on holds
    errors = [abs(m / params.expected_interval - 1.0) for m in means]
    ok = all(e <= 0.05 for e in errors[3:])
    report(5, "Retarget convergence to 600 s +/- 5%", ok,
           f"window means {[round(m, 1) for m in means]} "
           f"(start 16x off, clamp 4)", t0)


def test_06_double_spend_oracle():
    t0 = time.monotonic()
    runs = 100_000
    failures = []
    details = []
    for q in (0.1, 0.2, 0.3):
        for z in (1, 3, 6):
            stats = attack_success_rate(q, z, runs, seed=606)
            oracle = catchup_probability(q, z)
            if oracle * runs >= 100:
                ok = abs(stats.rate / oracle - 1.0) <= 0.20
                crit = f"rel {stats.rate / oracle - 1.0:+.3f}"
            else:
                se = math.sqrt(oracle * (1 - oracle) / runs)
                ok = abs(stats.rate - oracle) <= 3 * se
                crit = f"|d| {abs(stats.rate - oracle):.2e} <= 3SE {3 * se:.2e}"
            details.append(f"q={q} z={z} rate={stats.rate:.2e} "
                           f"oracle={oracle:.2e} {crit} {'ok' if ok else 'BAD'}")
            if not ok:
                failures.append((q, z))
    majority = attack_success_rate(0.6, 6, 20_000, seed=607)
    if majority.rate < 0.99:
        failures.append((0.6, 6))
    ok = not failures
    report(6, "Double-spend Monte Carlo vs (q/(1-q))^z", ok,
           "; ".join(details) + f"; q=0.6 rate={majority.rate:.4f}",
           t0, budget=300.0)


def test_07_mesh_numerics():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    worst_round = 0.0
    worst_unit = 0.0
    worst_power = 0.0
    for _ in range(100):
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        cfg = clements_decompose(u)
        rebuilt = mesh_unitary(cfg)
        worst_round = max(worst_round, float(np.max(np.abs(rebuilt - u))))
        worst_unit = max(worst_unit, unitarity_residual(rebuilt))
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        power_err = abs(np.linalg.norm(rebuilt @ x) - np.linalg.norm(x))
        worst_power = max(worst_power, float(power_err / np.linalg.norm(x)))
    ok = worst_round < 1e-8 and worst_unit < 1e-10 and worst_power < 1e-10
    report(7, "Mesh round-trip/unitarity/power (100 x 16x16)", ok,
           f"max roundtrip {worst_round:.2e} < 1e-8, unitarity "
           f"{worst_unit:.2e} < 1e-10, power {worst_power:.2e} < 1e-10", t0)


def test_08_analog_digital_equivalence(m0, m0_synthesis):
    t0 = time.monotonic()
    residual = synthesis_residual(m0_synthesis, m0)
    rng = np.random.default_rng(808)
    xs = rng.integers(0, 16, size=(100, 64))
    estimates, _ = analog_weighting_batch(
        m0_synthesis, xs, NoiseModel(adc_bits=24), seed=808)
    digital = np.vstack([weighting(m0, x) for x in xs])
    agree = float((estimates == digital).mean())
    ok = agree == 1.0 and residual < 1e-6
    report(8, "Zero-noise analog == digital weighting", ok,
           f"agreement {agree:.4%} on 100x64 outputs, SVD residual "
           f"{residual:.2e} < 1e-6", t0)


def test_09_noise_monotonicity(m0, m0_synthesis):
    t0 = time.monotonic()
    grid = [NoiseModel(phase_sigma=s) for s in (0.0, 0.01, 0.05, 0.1)]
    rows = fidelity_sweep(m0, m0_synthesis, grid, samples=1000, seed=909)
    rates = [row["nibble_error_rate"] for row in rows]
    ok = rates[0] == 0.0 and all(b >= a for a, b in zip(rates, rates[1:]))
    report(9, "Nibble error rate monotone in phase noise", ok,
           f"rates {['%.4f' % r for r in rates]} over sigma "
           f"{[n.phase_sigma for n in grid]}", t0)


def test_10_economics_anchors():
    t0 = time.monotonic()
    market = MarketState(reward_value=100_000.0, block_interval=600.0)

    fleet = bitcoin_like_fleet(market)
    drop = 1.0 - active_fraction(
        fleet, MarketState(market.reward_value * 0.55, market.block_interval))
    drop_ok = abs(drop - 0.42) <= 0.03

    multipliers = [round(0.05 * i, 2) for i in range(1, 20)]
    hi = dict(resilience_curve(synthetic_fleet(0.1, market), market, multipliers))
    lo = dict(resilience_curve(synthetic_fleet(0.9, market), market, multipliers))
    resilience_ok = all(hi[m] > lo[m] for m in multipliers)

    day = SECONDS_PER_DAY
    shares = [0.1 * i for i in range(1, 10)]
    costs = []
    for share in shares:
        rate = market.reward_rate
        one = MinerFleet((Cohort(1.0, share * rate, (1 - share) * rate),))
        costs.append(attack_cost(one, market, day).total)
    cost_ok = all(b > a for a, b in zip(costs, costs[1:]))

    ok = drop_ok and resilience_ok and cost_ok
    report(10, "Economics anchors", ok,
           f"drop at 0.55x = {drop:.3f} (target 0.42 +/- 0.03); 10%-OPEX fleet "
           f"strictly above 90%-OPEX at all {len(multipliers)} multipliers < 1: "
           f"{resilience_ok}; attack cost strictly increasing over CAPEX grid: "
           f"{cost_ok}", t0)
