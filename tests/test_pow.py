import math
import random
import statistics
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opow.heavyhash import HeavyHashParams, heavyhash
from opow.pow import (
    BlockHeader,
    CompactTargetError,
    HEADER_SIZE,
    MalformedHeaderError,
    RetargetParams,
    TARGET_SPACE,
    compact_from_target,
    deserialize_header,
    is_retarget_boundary,
    meets_target,
    mine,
    retarget,
    scheduled_target,
    serialize_header,
    simulate_retarget_chain,
    target_from_compact,
    verify_header,
    window_mean_intervals,
    work_from_target,
)
from reference_oracles import ref_retarget_moment, ref_retarget_moments

PARAMS = HeavyHashParams()


def _random_header(rng: random.Random) -> BlockHeader:
    return BlockHeader(
        version=rng.randrange(1 << 32),
        parent_hash=rng.randbytes(32),
        payload_commitment=rng.randbytes(32),
        timestamp=rng.randrange(1 << 64),
        compact_target=compact_from_target(rng.randrange(1, TARGET_SPACE)),
        nonce=rng.randrange(1 << 64),
    )


# -- header codec ------------------------------------------------------------


def test_zero_header_serializes_to_zero_bytes():
    header = BlockHeader(0, bytes(32), bytes(32), 0, 0, 0)
    assert serialize_header(header) == bytes(HEADER_SIZE)


def test_version_is_little_endian():
    header = BlockHeader(1, bytes(32), bytes(32), 0, 0, 0)
    assert serialize_header(header)[:4] == b"\x01\x00\x00\x00"


def test_header_roundtrip():
    rng = random.Random(2)
    for _ in range(1000):
        header = _random_header(rng)
        assert deserialize_header(serialize_header(header)) == header


def test_header_wrong_length_rejected():
    with pytest.raises(MalformedHeaderError):
        deserialize_header(bytes(HEADER_SIZE - 1))
    with pytest.raises(MalformedHeaderError):
        deserialize_header(bytes(HEADER_SIZE + 1))


def test_header_field_ranges():
    with pytest.raises(MalformedHeaderError):
        BlockHeader(1 << 32, bytes(32), bytes(32), 0, 0, 0)
    with pytest.raises(MalformedHeaderError):
        BlockHeader(0, bytes(31), bytes(32), 0, 0, 0)


# -- compact targets ---------------------------------------------------------


def test_compact_bitcoin_genesis_bits():
    target = target_from_compact(0x1D00FFFF)
    assert target == 0xFFFF << 208
    assert compact_from_target(target) == 0x1D00FFFF


def test_compact_powers_of_two_roundtrip_exactly():
    for exponent in (1, 7, 23, 100, 216, 255):
        target = 1 << exponent
        assert target_from_compact(compact_from_target(target)) == target


def test_compact_rounds_down():
    rng = random.Random(3)
    for _ in range(500):
        target = rng.randrange(1, TARGET_SPACE)
        decoded = target_from_compact(compact_from_target(target))
        assert 0 < decoded <= target
        # at least the top 15 bits survive (sign-bit normalization can cost a byte)
        assert Fraction(target - decoded, target) < Fraction(1, 1 << 14)


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, TARGET_SPACE - 1))
def test_compact_encoding_rounds_down_to_a_fixed_point(target):
    bits = compact_from_target(target)
    decoded = target_from_compact(bits)
    assert 0 < decoded <= target
    assert compact_from_target(decoded) == bits


# Any u32, plus exponents near the valid range with any sign bit and mantissa.
_COMPACT_BITS = st.integers(0, (1 << 32) - 1) | st.builds(
    lambda exponent, low: (exponent << 24) | low,
    st.integers(0, 34), st.integers(0, (1 << 24) - 1))


@settings(max_examples=1000, deadline=None)
@given(_COMPACT_BITS)
def test_compact_bits_decode_in_range_or_raise(bits):
    try:
        target = target_from_compact(bits)
    except CompactTargetError:
        return
    assert 0 < target < TARGET_SPACE
    assert target_from_compact(compact_from_target(target)) == target


def test_compact_rejects_invalid():
    with pytest.raises(CompactTargetError):
        target_from_compact(0x01800000)  # sign bit
    with pytest.raises(CompactTargetError):
        target_from_compact(0x05000000)  # zero mantissa
    with pytest.raises(CompactTargetError):
        target_from_compact(0xFF123456)  # above 2**256
    with pytest.raises(CompactTargetError):
        target_from_compact(0x01000001)  # shifts down to zero
    with pytest.raises(ValueError):
        compact_from_target(0)
    with pytest.raises(ValueError):
        compact_from_target(TARGET_SPACE)


# -- target comparison and work ------------------------------------------------


def test_meets_target_examples():
    assert meets_target(bytes(32), 1)
    boundary = (123456).to_bytes(32, "big")
    assert not meets_target(boundary, 123456)  # strict inequality
    assert meets_target(boundary, 123457)


def test_threshold_probability_is_2_to_minus_40():
    # Exactly 2**216 of the 2**256 digests clear target 2**216.
    assert Fraction(1 << 216, TARGET_SPACE) == Fraction(1, 1 << 40)


def test_work_examples():
    assert work_from_target(TARGET_SPACE - 1) == 1
    assert work_from_target((1 << 255) - 1) == 2
    assert work_from_target(1 << 216) == (1 << 40) - 1


def test_work_monotone_decreasing():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(1, TARGET_SPACE - 1)
        b = rng.randrange(a + 1, TARGET_SPACE)
        assert work_from_target(a) >= work_from_target(b)


# -- retargeting ---------------------------------------------------------------


def test_retarget_unchanged_at_expected_pace():
    params = RetargetParams()
    current = 10**60
    assert retarget(600 * params.window, current, params) == current


def test_retarget_doubles_when_twice_as_slow():
    params = RetargetParams()
    current = 10**60
    assert retarget(1200 * params.window, current, params) == 2 * current


def test_retarget_clamped_at_factor():
    params = RetargetParams()
    current = 10**60
    assert retarget(60000 * params.window, current, params) == 4 * current
    assert retarget(1 * params.window, current, params) == current // 4


def test_retarget_scale_free():
    params = RetargetParams()
    current = 123456789 << 80
    slow = retarget(700 * params.window, current, params)
    slower = retarget(1400 * params.window, current, params)
    assert slower == 2 * slow


def test_retarget_zero_or_negative_span_clamps():
    # Timestamps need only exceed the median time past, so a window's last
    # block may be no later than its first: the span clamps like any short one.
    params = RetargetParams()
    current = 10**60
    for span in (0, -1, -600 * params.window):
        assert retarget(span, current, params) == current // 4
    assert retarget(0, current, RetargetParams(clamp_factor=2)) == current // 2


def test_retarget_params_validation():
    with pytest.raises(ValueError):
        RetargetParams(window=0)
    with pytest.raises(ValueError):
        RetargetParams(clamp_factor=1)


# -- mining ---------------------------------------------------------------------


def test_mine_golden_nonce(m0, golden):
    target = 1 << int(golden["mine_target_exponent"])
    template = BlockHeader(0, bytes(32), bytes(32), 0,
                           compact_from_target(target), 0)
    nonce = mine(template, m0, target, 0, 64)
    assert nonce == int(golden["mine_nonce"])


def test_mine_empty_range_and_determinism(m0):
    target = 1 << 255
    template = BlockHeader(0, bytes(32), bytes(32), 0,
                           compact_from_target(target), 0)
    assert mine(template, m0, target, 0, 0) is None
    assert mine(template, m0, target, 0, 64) == mine(template, m0, target, 0, 64)


def test_mine_result_reverifies(m0):
    rng = random.Random(6)
    target = target_from_compact(compact_from_target(1 << 253))
    for _ in range(10):
        template = BlockHeader(1, rng.randbytes(32), rng.randbytes(32),
                               rng.randrange(1 << 40),
                               compact_from_target(target), 0)
        nonce = mine(template, m0, target, 0, 1 << 16)
        assert nonce is not None
        header = template.with_nonce(nonce)
        digest = heavyhash(PARAMS, m0, serialize_header(header))
        assert meets_target(digest, target)
        assert verify_header(header, m0)
        # every nonce below the winner loses
        if nonce:
            assert mine(template, m0, target, 0, nonce) is None


def test_mine_shards_agree_with_full_scan(m0):
    rng = random.Random(7)
    target = target_from_compact(compact_from_target(1 << 252))
    template = BlockHeader(1, rng.randbytes(32), rng.randbytes(32), 7,
                           compact_from_target(target), 0)
    full = mine(template, m0, target, 0, 4096)
    shard_hits = [mine(template, m0, target, start, 1024)
                  for start in range(0, 4096, 1024)]
    assert min(n for n in shard_hits if n is not None) == full


def test_mine_rejects_mismatched_compact(m0):
    template = BlockHeader(0, bytes(32), bytes(32), 0,
                           compact_from_target(1 << 254), 0)
    with pytest.raises(ValueError):
        mine(template, m0, 1 << 255, 0, 10)


def test_expected_trials_geometric(m0):
    # k = 4: expected 16 trials; 200 runs, 3 standard errors.
    rng = random.Random(8)
    target = target_from_compact(compact_from_target(1 << 252))
    trials = []
    for _ in range(200):
        template = BlockHeader(1, rng.randbytes(32), rng.randbytes(32), 0,
                               compact_from_target(target), 0)
        nonce = mine(template, m0, target, 0, 1 << 16)
        trials.append(nonce + 1)
    mean = sum(trials) / len(trials)
    se = 16.0 / (200 ** 0.5)  # geometric std ~ mean
    assert abs(mean - 16.0) < 3 * se


# -- virtual retarget chain -------------------------------------------------------


def test_retarget_chain_converges_from_16x_off():
    params = RetargetParams()
    hashrate = 1.0e6
    initial = int(TARGET_SPACE / (hashrate * 9600))
    points = simulate_retarget_chain(initial, hashrate, 5 * params.window, params)
    means = window_mean_intervals(points, params.window)
    assert len(means) == 5
    assert abs(means[3] / params.expected_interval - 1) <= 0.05
    assert abs(means[4] / params.expected_interval - 1) <= 0.05


def test_retarget_chain_stochastic_mode_runs():
    params = RetargetParams(window=32)
    initial = int(TARGET_SPACE / (1.0e6 * 600))
    stamps = simulate_retarget_chain(initial, 1.0e6, 3 * params.window, params,
                                     stochastic=True, seed=5)
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


@pytest.mark.parametrize("window, n_windows", [(8, 6000), (16, 4000)])
def test_stochastic_retarget_matches_exact_moments(window, n_windows):
    # Started at the right target, every window after the first has the
    # stationary law of ref_retarget_moments.  The mean window interval is
    # biased high by w / (w-1); the bound uses the iid SE, which the negative
    # lag-1 covariance makes conservative.  The variance of the squared
    # deviations' mean is at most 3 * (mu4 - var**2) / n: they are
    # 1-dependent (M_k shares a draw only with its neighbours), and by
    # Cauchy-Schwarz the lag-1 term is at most the lag-0 one.  The clamp
    # (factor 4) binds on about 1e-3 of the windows at w = 8 and moves the
    # mean by well under a second; at w <= 4 it binds often, and no law is
    # checked there.
    interval, hashrate = 600, 1.0e6
    params = RetargetParams(window=window, expected_interval=interval)
    stamps = simulate_retarget_chain(int(TARGET_SPACE / (interval * hashrate)),
                                     hashrate, window * n_windows, params,
                                     stochastic=True, seed=0)
    means = window_mean_intervals(stamps, window)[1:]
    n = len(means)
    mean, second, lag1 = ref_retarget_moments(window, interval)
    assert lag1 < 0
    var = second - mean ** 2
    assert abs(statistics.fmean(means) - mean) <= 4 * math.sqrt(var / n)
    m1, m2, m3, m4 = (ref_retarget_moment(window, interval, k) for k in (1, 2, 3, 4))
    mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
    bound = 4 * math.sqrt(3 * (mu4 - var ** 2) / n)
    sd = statistics.stdev(means)
    assert math.sqrt(var - bound) <= sd <= math.sqrt(var + bound)


def test_retarget_chain_memory_is_bounded():
    # The chain keeps one timestamp per block, about 40 B (a small int and
    # its list slot); a point, a timestamp and a target per block took about
    # 220 B, 11 MB here.
    params = RetargetParams()
    tracemalloc.start()
    try:
        stamps = simulate_retarget_chain(int(TARGET_SPACE / (1.0e6 * 9600)), 1.0e6,
                                         50_000, params, stochastic=True, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stamps) == 50_000
    assert peak < 5e6


def test_scheduled_target_boundary_rule():
    params = RetargetParams(window=4, expected_interval=600)
    stamps = {h: h * 1200 for h in range(9)}  # running 2x slow
    base = 1 << 200
    # non-boundary parents inherit
    assert not is_retarget_boundary(3, params)
    doubled = scheduled_target(base, stamps[4] - stamps[0], params)
    assert doubled == target_from_compact(compact_from_target(2 * base))
