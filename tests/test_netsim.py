import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opow.netsim import (
    _SLAB_ROWS,
    ConfigurationError,
    MinerSpec,
    PartitionWindow,
    SimScenario,
    _live_hits,
    attack_monte_carlo,
    attack_success_rate,
    catchup_probability,
    integrated_run,
    nakamoto_probability,
    run_scenario,
)
from reference_oracles import exact_race_probability, ref_attack_successes


def two_miner_attack(seed, q, z, horizon=4000, margin=24):
    return SimScenario(
        seed=seed,
        miners=(MinerSpec("honest", 1 - q), MinerSpec("att", q, "attacker")),
        mean_block_interval=1.0,
        horizon_blocks=horizon,
        confirmations=z,
        abandon_margin=margin,
    )


# -- oracles -------------------------------------------------------------------


def test_catchup_examples():
    assert catchup_probability(0.0, 1) == 0.0
    assert catchup_probability(0.0, 6) == 0.0
    assert catchup_probability(0.4, 0) == 1.0
    assert catchup_probability(0.5, 6) == 1.0
    assert math.isclose(catchup_probability(0.1, 6), (1 / 9) ** 6)
    assert math.isclose(catchup_probability(0.3, 6), (3 / 7) ** 6)


def test_catchup_domain_errors():
    with pytest.raises(ValueError):
        catchup_probability(1.0, 3)
    with pytest.raises(ValueError):
        catchup_probability(-0.1, 3)
    with pytest.raises(ValueError):
        catchup_probability(0.3, -1)


def test_nakamoto_credits_premining():
    # The Poisson-corrected value dominates the pure catch-up race.
    for q in (0.1, 0.25, 0.4):
        for z in (1, 3, 6):
            assert nakamoto_probability(q, z) >= catchup_probability(q, z)
    assert nakamoto_probability(0.5, 4) == 1.0


# -- scenario validation ---------------------------------------------------------


def test_fractions_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        SimScenario(seed=0, miners=(MinerSpec("a", 0.5), MinerSpec("b", 0.4)),
                    horizon_blocks=10)


def test_partition_windows_must_not_overlap():
    miners = (MinerSpec("a", 0.5), MinerSpec("b", 0.5))
    with pytest.raises(ConfigurationError):
        SimScenario(seed=0, miners=miners, horizon_seconds=100.0,
                    partitions=(PartitionWindow(0, 50, frozenset({"a"})),
                                PartitionWindow(40, 80, frozenset({"a"}))))
    with pytest.raises(ConfigurationError):
        SimScenario(seed=0, miners=miners, horizon_seconds=100.0,
                    partitions=(PartitionWindow(0, 200, frozenset({"a"})),))
    with pytest.raises(ConfigurationError):  # side must be a proper subset
        SimScenario(seed=0, miners=miners, horizon_seconds=100.0,
                    partitions=(PartitionWindow(0, 50, frozenset({"a", "b"})),))


def test_partition_bounds_must_be_finite():
    for start, end in ((math.nan, 100.0), (0.0, math.nan), (50.0, math.inf),
                       (-1.0, 10.0), (10.0, 10.0)):
        with pytest.raises(ConfigurationError, match="partition window"):
            PartitionWindow(start, end, frozenset({"a"}))


def test_latency_range_must_be_ordered_and_nonnegative():
    for latency in ((-1.0, -1.0), (-1.0, 5.0), (5.0, 1.0)):
        with pytest.raises(ConfigurationError, match="latency"):
            SimScenario(seed=0, miners=(MinerSpec("a", 1.0),), horizon_blocks=5,
                        latency=latency)


def test_horizon_required():
    with pytest.raises(ConfigurationError):
        SimScenario(seed=0, miners=(MinerSpec("a", 1.0),))


# -- engine behavior ---------------------------------------------------------------


def test_single_miner_interval_statistics():
    sc = SimScenario(seed=1, miners=(MinerSpec("m", 1.0),),
                     mean_block_interval=600.0, horizon_blocks=400)
    result = run_scenario(sc)
    mean = result.stats["mean_interval"]
    se = 600.0 / math.sqrt(400)
    assert abs(mean - 600.0) < 3 * se
    assert result.stats["blocks_created"] == 400


def test_run_is_deterministic_and_serializable():
    sc = SimScenario(seed=42, miners=(MinerSpec("a", 0.6), MinerSpec("b", 0.4)),
                     mean_block_interval=10.0, horizon_blocks=150,
                     latency=(0.5, 2.0))
    a = json.dumps(run_scenario(sc).to_dict(), sort_keys=True)
    b = json.dumps(run_scenario(sc).to_dict(), sort_keys=True)
    assert a == b


# Seeded records pinned byte for byte: an attacker that catches up, partitions
# with a latency range, and a run bounded by horizon_seconds.
_PINNED_RUNS = [
    (SimScenario(seed=42, miners=(MinerSpec("h1", 0.3), MinerSpec("h2", 0.25),
                                  MinerSpec("att", 0.45, "attacker")),
                 mean_block_interval=60.0, latency=(0.5, 20.0), horizon_blocks=400,
                 confirmations=4, abandon_margin=12),
     "e47f57c89a85c0a430e20dabe1450a8dfd93e8d83fc1b569da06d90b6aff6833"),
    (SimScenario(seed=22, miners=(MinerSpec("a", 0.5), MinerSpec("b", 0.3),
                                  MinerSpec("c", 0.2)),
                 latency=(1.0, 40.0), horizon_blocks=120,
                 partitions=(PartitionWindow(1000.0, 9000.0, {"a"}),
                             PartitionWindow(20000.0, 26000.0, {"b", "c"}))),
     "6eb9bd7fd6e2fa214b182abf16e40b269005c75a413c08fe17acf5b0376beb27"),
    (SimScenario(seed=23, miners=(MinerSpec("a", 0.6), MinerSpec("b", 0.4)),
                 mean_block_interval=30.0, latency=(0.5, 5.0), horizon_seconds=7200.0),
     "bf59fdd3324adc2b1b83a70ff5913414c6821f3cde872adffb0cfa07d9eef6b6"),
]


@pytest.mark.parametrize("scenario, sha256", _PINNED_RUNS,
                         ids=["attacker", "partitions", "horizon-seconds"])
def test_pinned_scenario_records(scenario, sha256):
    text = json.dumps(run_scenario(scenario).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_even_split_attacker_succeeds():
    # q = 0.5 catches up almost surely; check a seeded run and the bulk rate.
    result = run_scenario(two_miner_attack(seed=3, q=0.5, z=4, horizon=200_000))
    assert result.attacker_success
    stats = attack_success_rate(0.5, 4, runs=400, seed=3, horizon_blocks=200_000)
    assert stats.rate > 0.9


def test_attacker_level_at_start_succeeds_before_any_block():
    # confirmations = 0: the private fork is level with the public chain at
    # t = 0, so the race is won before a single block is mined.
    result = run_scenario(two_miner_attack(seed=1, q=0.3, z=0))
    assert result.attacker_success is True
    assert result.stats == {"blocks_created": 0, "best_height": 0,
                            "mean_interval": 0.0, "blocks_by_miner": {}}
    assert result.node_tips == {"honest": 0, "att": 0}
    assert result.timeline == ()


def test_majority_attacker_succeeds_quickly():
    stats = attack_success_rate(0.6, 6, runs=5000, seed=2, horizon_blocks=10_000)
    assert stats.rate >= 0.99


def test_engine_agrees_with_vectorized_race():
    q, z = 0.3, 3
    runs = 2500
    hits = sum(
        bool(run_scenario(two_miner_attack(seed=50_000 + i, q=q, z=z)).attacker_success)
        for i in range(runs))
    engine_rate = hits / runs
    oracle = catchup_probability(q, z)
    se = math.sqrt(oracle * (1 - oracle) / runs)
    assert abs(engine_rate - oracle) < 4 * se
    stats = attack_success_rate(q, z, runs=100_000, seed=9)
    assert abs(stats.rate - oracle) < 4 * math.sqrt(oracle * (1 - oracle) / stats.runs)


def test_success_grid_monotone_exactly():
    qs = [0.1, 0.2, 0.3, 0.4]
    zs = [1, 3, 6]
    grid = {(q, z): attack_success_rate(q, z, runs=20_000, seed=7)
            for q in qs for z in zs}
    for z in zs:
        rates = [grid[(q, z)].rate for q in qs]
        assert rates == sorted(rates)
    for q in qs:
        rates = [grid[(q, z)].rate for z in zs]
        assert rates == sorted(rates, reverse=True)


def test_monte_carlo_sharding_is_thread_invariant():
    a = attack_monte_carlo(0.3, 3, runs=60_000, seed=5, threads=1)
    b = attack_monte_carlo(0.3, 3, runs=60_000, seed=5, threads=4)
    assert a.successes == b.successes


@settings(max_examples=200, deadline=None)
@given(q=st.one_of(st.floats(0.0, 0.49), st.just(0.5), st.floats(0.51, 0.95)),
       z=st.integers(0, 10),
       runs=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1),
       # Blocks raced past the confirmations: within the first chunk, at its
       # edge, and ending inside the second or third (z + 300, ...).
       race=st.one_of(st.integers(1, 600), st.sampled_from([255, 256, 257, 300, 512])),
       margin=st.integers(1, 64))
# The give-up boundary, which random draws can miss: small margins, many runs.
@example(q=0.3, z=1, runs=200, seed=1, race=300, margin=1)
@example(q=0.45, z=3, runs=200, seed=2, race=300, margin=2)
def test_vectorized_race_matches_per_replica_walk(q, z, runs, seed, race, margin):
    stats = attack_success_rate(q, z, runs, seed, horizon_blocks=z + race,
                                abandon_margin=margin)
    assert stats.successes == ref_attack_successes(q, z, runs, seed, z + race, margin)


def test_race_counts_are_pinned():
    # Counts of the stream as first published; any change to the draw layout
    # or the race rules moves them.
    assert attack_monte_carlo(0.3, 6, 100_000, seed=0, threads=2).successes == 622
    assert attack_success_rate(0.5, 3, 25_000, seed=7).successes == 24399
    assert attack_success_rate(0.3, 3, 5000, seed=3, horizon_blocks=100,
                               abandon_margin=2).successes == 310


@pytest.mark.parametrize("q, z, horizon, margin, runs, seed, exact", [
    # The parameters of test_race_counts_are_pinned's races, and their exact
    # rates.
    (0.3, 3, 100, 2, 5000, 3, 0.065202),
    (0.5, 3, 10_000, 64, 25_000, 7, 0.976065),
    (0.3, 6, 10_000, 64, 100_000, 0, 0.006196),
    # Short horizons and small margins, below, at and above an even split.
    (0.45, 2, 40, 1, 20_000, 11, None),
    (0.4, 5, 30, 3, 20_000, 12, None),
    (0.5, 4, 25, 1, 20_000, 13, None),
    (0.6, 6, 20, 1, 20_000, 14, None),
    (0.75, 9, 30, 2, 20_000, 15, None),
])
def test_race_rate_matches_exact_oracle(q, z, horizon, margin, runs, seed, exact):
    p = exact_race_probability(q, z, horizon, margin)
    if exact is not None:
        assert round(p, 6) == exact
    stats = attack_success_rate(q, z, runs, seed, horizon_blocks=horizon,
                                abandon_margin=margin)
    assert abs(stats.rate - p) < 4 * math.sqrt(p * (1 - p) / runs)


@settings(max_examples=100, deadline=None)
@given(q=st.floats(0.01, 0.45), z=st.integers(1, 8),
       race=st.integers(1, 300), more_race=st.integers(1, 300),
       margin=st.integers(1, 40), more_margin=st.integers(1, 40))
def test_exact_race_tends_to_the_catchup_limit(q, z, race, more_race, margin,
                                               more_margin):
    # Below an even split a longer horizon or a wider give-up margin only
    # lets more replicas pull level, and no finite race beats the
    # gambler's-ruin limit.  At the 64-block default margin the relative gap
    # to it is about (q / (1 - q)) ** 64, at most 2.7e-6 at q = 0.45; 2,000
    # blocks leave no measurable horizon term on top.
    limit = catchup_probability(q, z)
    p = exact_race_probability(q, z, z + race, margin)
    longer = exact_race_probability(q, z, z + race + more_race, margin)
    wider = exact_race_probability(q, z, z + race, margin + more_margin)
    assert p <= longer <= limit * (1 + 1e-12)
    assert p <= wider * (1 + 1e-12) and wider <= limit * (1 + 1e-12)
    assert exact_race_probability(q, z, 2_000, 64) == pytest.approx(limit, rel=1e-5)


def _assert_live_hits_match_full_draw(runs, k, live, seed=0, q=0.3):
    live = np.asarray(live, dtype=np.int64)
    full = np.random.Generator(np.random.PCG64(seed))
    want = np.ascontiguousarray((full.random((runs, k)) < q)[live].T)
    slabs = np.random.Generator(np.random.PCG64(seed))
    packed = _live_hits(slabs, q, runs, k, live)
    assert packed.dtype == np.uint8 and packed.flags.c_contiguous
    assert packed.shape == ((k + 7) // 8, live.size)
    got = np.unpackbits(packed, axis=0, count=k, bitorder="little").astype(bool)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert slabs.bit_generator.state == full.bit_generator.state
    assert slabs.random() == full.random()


_S = _SLAB_ROWS


@pytest.mark.parametrize("runs, k, live", [
    (3 * _S, 256, []),
    (3 * _S, 256, range(3 * _S)),
    (3 * _S + 5, 256, [0]),
    (3 * _S + 5, 256, [3 * _S + 4]),
    (3 * _S, 256, [_S - 1, _S]),
    (2 * _S + 7, 40, [1, _S - 1, _S, 2 * _S + 6]),
    (25_000, 256, range(0, 25_000, 97)),
    (2 * _S + 1, 1, [2 * _S]),
], ids=["no-live-row", "all-live", "first-row", "last-row", "slab-boundary",
        "partial-tail-chunk", "sparse-shard", "one-step"])
def test_live_hits_is_the_full_draw_of_live_rows(runs, k, live):
    _assert_live_hits_match_full_draw(runs, k, live)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), runs=st.integers(1, 2000), k=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_live_hits_property(data, runs, k, seed):
    live = sorted(data.draw(st.sets(st.integers(0, runs - 1), max_size=runs)))
    _assert_live_hits_match_full_draw(runs, k, live, seed)


def test_race_shard_memory_is_bounded():
    # A full (runs, 256) float64 draw would take 51 MB here, and a
    # (256, live) bool array of wins 6.4 MB; the slabbed draw keeps the wins
    # bit-packed, 0.8 MB, and one 256 KiB slab.
    tracemalloc.start()
    try:
        attack_success_rate(0.3, 6, 25_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


# -- partitions -----------------------------------------------------------------


def partition_scenario(seed, frac_a=0.5, cut_seconds=6000.0, horizon=30_000.0):
    return SimScenario(
        seed=seed,
        miners=(MinerSpec("a", frac_a), MinerSpec("b", 1 - frac_a)),
        mean_block_interval=600.0,
        horizon_seconds=horizon,
        partitions=(PartitionWindow(0.0, cut_seconds, frozenset({"a"})),),
    )


def test_no_partition_means_no_divergence():
    sc = SimScenario(seed=4, miners=(MinerSpec("a", 0.5), MinerSpec("b", 0.5)),
                     mean_block_interval=600.0, horizon_blocks=60)
    result = run_scenario(sc)
    assert result.divergences == ()


def test_even_split_divergence_depth():
    # 10 expected block times at 50/50: each side mines Poisson(5) blocks.
    depths = []
    for i in range(200):
        result = run_scenario(partition_scenario(seed=900 + i))
        assert len(result.divergences) == 1
        report = result.divergences[0]
        depths.extend([report.depth_a, report.depth_b])
    mean = sum(depths) / len(depths)
    se = math.sqrt(5.0 / len(depths))
    assert abs(mean - 5.0) < 4 * se


def test_zero_hashrate_side_adopts_other_chain():
    result = run_scenario(partition_scenario(seed=11, frac_a=0.0))
    report = result.divergences[0]
    assert report.depth_a == 0 and report.depth_b > 0
    assert result.node_tips["a"] == result.node_tips["b"]
    assert result.reorg_counts["a"] == 0  # pure extension adoption


def test_eventual_consistency_after_heal():
    for seed in range(20, 30):
        result = run_scenario(partition_scenario(seed=seed))
        assert result.node_tips["a"] == result.node_tips["b"]
        assert result.node_heights["a"] == result.node_heights["b"]


# -- integrated mode -----------------------------------------------------------


def test_scenario_from_config():
    from opow.configio import parse_config_text
    from opow.netsim import SCENARIO_SCHEMA, scenario_from_config

    text = (
        "miners = h1:0.35, h2:0.35, att:0.3:attacker\n"
        "mean_block_interval = 300\n"
        "latency = 1,5\n"
        "horizon_blocks = 500\n"
        "confirmations = 4\n"
    )
    cfg = parse_config_text(text, SCENARIO_SCHEMA)
    sc = scenario_from_config(cfg, seed=7)
    assert sc.seed == 7
    assert [m.miner_id for m in sc.miners] == ["h1", "h2", "att"]
    assert sc.miners[2].role == "attacker"
    assert sc.latency == (1.0, 5.0)
    assert sc.confirmations == 4
    result = run_scenario(sc)
    assert result.attacker_success is not None

    with pytest.raises(ConfigurationError):
        scenario_from_config({"miners": ["nofraction"]}, seed=0)
    with pytest.raises(ConfigurationError):
        scenario_from_config(
            {"miners": ["a:0.5", "b:0.5"], "horizon_blocks": 10,
             "partitions": ["oops"]}, seed=0)


def test_partition_via_config_roundtrip():
    from opow.configio import parse_config_text
    from opow.netsim import scenario_from_config
    from opow.cli import _ATTACK_SCHEMA

    text = (
        "miners = a:0.5, b:0.5\n"
        "horizon_seconds = 30000\n"
        "partitions = 0:6000:a\n"
    )
    sc = scenario_from_config(parse_config_text(text, _ATTACK_SCHEMA), seed=11)
    result = run_scenario(sc)
    assert len(result.divergences) == 1


def test_integrated_mode_builds_a_real_valid_chain():
    sc = SimScenario(seed=6, miners=(MinerSpec("a", 0.7), MinerSpec("b", 0.3)),
                     mean_block_interval=60.0, horizon_blocks=25, integrated=True)
    result, index = integrated_run(sc)
    assert index.tip_entry().height == 25
    assert result.stats["blocks_created"] == 25
    counts = result.stats["blocks_by_miner"]
    assert counts.get("a", 0) > counts.get("b", 0)
    assert run_scenario(sc).stats == result.stats
    # Same summary as the engine: genesis sits at t = 0, tips are block ids.
    last = result.timeline[-1]
    assert result.stats["mean_interval"] == pytest.approx(last.time / 25)
    assert result.node_tips == {"a": last.block_id, "b": last.block_id}


@pytest.mark.parametrize("extra", [{"latency": (5.0, 30.0)},
                                   {"horizon_seconds": 1.0},
                                   {"latency": (0.0, 1.0), "horizon_seconds": 1e9}])
def test_integrated_mode_refuses_latency_and_horizon_seconds(extra):
    # Integrated blocks reach every node at once and stop at horizon_blocks,
    # so either key would be accepted and silently ignored.
    with pytest.raises(ConfigurationError, match="neither latency nor horizon_seconds"):
        SimScenario(seed=0, miners=(MinerSpec("a", 0.5), MinerSpec("b", 0.5)),
                    horizon_blocks=5, integrated=True, **extra)
