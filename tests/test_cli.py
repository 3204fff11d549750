import argparse
import dataclasses
import hashlib
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from opow import econ, netsim, photonic
from opow.cli import _COMMANDS, _build_parser, main
from opow.configio import ConfigError, parse_config_text
from opow.heavyhash import HeavyHashParams, generate_matrix, heavyhash
from opow.pow import (
    BlockHeader,
    RetargetParams,
    TARGET_SPACE,
    compact_from_target,
    mine,
    serialize_header,
    simulate_retarget_chain,
    target_from_compact,
    window_mean_intervals,
)


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run(tmp_path, subcommand, config_text=None, extra=None, seed=0, threads=1):
    """Run one subcommand; threads=None leaves --threads at its default."""
    out = tmp_path / f"{subcommand}.jsonl"
    argv = ["--seed", str(seed), "--output", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    if config_text is not None:
        cfg = tmp_path / f"{subcommand}.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    argv.append(subcommand)
    if extra:
        argv += extra
    code = main(argv)
    return code, out


# -- heavyhash ---------------------------------------------------------------


def test_heavyhash_identity_is_double_sha(tmp_path, capsys):
    out = tmp_path / "digest.txt"
    code = main(["--output", str(out), "heavyhash", "ab12", "--identity"])
    assert code == 0
    expected = hashlib.sha256(
        hashlib.sha256(bytes.fromhex("ab12")).digest()).hexdigest()
    assert out.read_text().strip() == expected


def test_heavyhash_zero_seed_golden(tmp_path, golden):
    out = tmp_path / "digest.txt"
    code = main(["--output", str(out), "heavyhash", ""])
    assert code == 0
    assert out.read_text().strip() == golden["heavyhash_empty"]


def test_heavyhash_bad_hex_exits_2(tmp_path):
    assert main(["heavyhash", "zz"]) == 2


def test_heavyhash_rounds_flag(tmp_path, m0):
    from opow.heavyhash import HeavyHashParams, heavyhash

    out = tmp_path / "digest.txt"
    assert main(["--output", str(out), "heavyhash", "00ff", "--rounds", "3"]) == 0
    expected = heavyhash(HeavyHashParams(rounds=3), m0, bytes.fromhex("00ff"))
    assert out.read_text().strip() == expected.hex()


# -- mine / verify -----------------------------------------------------------


def test_mine_then_verify_roundtrip(tmp_path):
    code, out = run(tmp_path, "mine",
                    "target_exponent = 252\nnonce_count = 65536\n")
    assert code == 0
    header, record = read_records(out)
    assert header["record"] == "header"
    assert record["found"] is True

    code, vout = run(tmp_path, "verify",
                     f"header_hex = {record['header_hex']}\n")
    assert code == 0
    verdict = read_records(vout)[1]
    assert verdict["valid"] is True and verdict["digest"] == record["digest"]


def test_mine_hashes_whole_batches_and_the_winner_once(tmp_path, monkeypatch):
    # Work budget: mine hashes 1,024-nonce batches up to the winner's, and
    # the record re-hashes the winner.  At target 2**248 the winner is trial
    # 205: 1,025 hashes.
    import opow.heavyhash
    import opow.pow

    hashed = []
    for owner in (opow.pow, opow.heavyhash):
        def counted(params, matrix, inputs, real=owner.heavyhash_many):
            hashed.append(len(inputs))
            return real(params, matrix, inputs)
        monkeypatch.setattr(owner, "heavyhash_many", counted)
    code, out = run(tmp_path, "mine", "target_exponent = 248\n")
    assert code == 0
    trials = read_records(out)[1]["trials"]
    assert sum(hashed) == math.ceil(trials / 1024) * 1024 + 1

def test_verify_tampered_header_exits_1(tmp_path, m0):
    from opow.heavyhash import HeavyHashParams, heavyhash
    from opow.pow import meets_target

    code, out = run(tmp_path, "mine",
                    "target_exponent = 252\nnonce_count = 65536\n")
    record = read_records(out)[1]
    good = bytes.fromhex(record["header_hex"])
    bad = None
    for flip in range(1, 256):  # first nonce tamper that actually loses
        candidate = bytearray(good)
        candidate[80] ^= flip
        digest = heavyhash(HeavyHashParams(), m0, bytes(candidate))
        if not meets_target(digest, 1 << 252):
            bad = bytes(candidate)
            break
    code, vout = run(tmp_path, "verify", f"header_hex = {bad.hex()}\n")
    assert code == 1
    assert read_records(vout)[1]["verdict"] == "bad-pow"


def test_mine_target_bits_matches_target_exponent(tmp_path):
    bits = compact_from_target(1 << 252)
    code, out = run(tmp_path, "mine", f"target_bits = {bits}\nnonce_count = 65536\n")
    assert code == 0
    by_bits = read_records(out)[1]
    _, out = run(tmp_path, "mine", "target_exponent = 252\nnonce_count = 65536\n")
    assert by_bits == read_records(out)[1]
    assert by_bits["found"] is True and by_bits["target_bits"] == bits


def test_verify_undecodable_bits_is_bad_target(tmp_path, capsys):
    header = BlockHeader(1, bytes(32), bytes(32), 0, 0x1d800000, 0)  # sign bit
    code, out = run(tmp_path, "verify",
                    f"header_hex = {serialize_header(header).hex()}\n")
    assert code == 1
    assert read_records(out)[1] == {"record": "verify", "valid": False,
                                    "verdict": "bad-target"}
    assert capsys.readouterr().err == "bad-target\n"


def test_mine_golden_nonce_via_cli(tmp_path, golden):
    code, out = run(tmp_path, "mine",
                    "target_exponent = 255\nnonce_count = 64\nversion = 0\n")
    assert code == 0
    assert read_records(out)[1]["nonce"] == int(golden["mine_nonce"])


def test_mine_threads_match_single(tmp_path):
    cfg = "target_exponent = 250\nnonce_count = 262144\n"
    _, out1 = run(tmp_path, "mine", cfg, threads=1)
    rec1 = read_records(out1)[1]
    _, out4 = run(tmp_path, "mine", cfg, threads=4)
    rec4 = read_records(out4)[1]
    assert rec1["nonce"] == rec4["nonce"]
    assert rec1 == rec4


# -- repeated calls in one process --------------------------------------------


def _seeded_records(tmp_path):
    """Records of mine, of verify on the mined header, and a heavyhash digest,
    with the header's wall-clock field removed."""
    _, out = run(tmp_path, "mine", "target_exponent = 252\nnonce_count = 65536\n",
                 seed=5)
    mined = read_records(out)
    code, vout = run(tmp_path, "verify",
                     f"header_hex = {mined[1]['header_hex']}\n", seed=5)
    assert code == 0
    verified = read_records(vout)
    digest = tmp_path / "digest.txt"
    assert main(["--output", str(digest), "heavyhash", "00ff", "--rounds", "2"]) == 0
    for header in (mined[0], verified[0]):
        header.pop("generated_at")
    return mined, verified, digest.read_text()


def test_warm_main_builds_no_parser(tmp_path, monkeypatch):
    _seeded_records(tmp_path)  # builds the parser if no earlier call did
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _seeded_records(tmp_path)
    assert run(tmp_path, "econ", "mode = bogus\n")[0] == 2
    assert main(["--threads", "0", "heavyhash", ""]) == 2
    assert built == []


def test_usage_error_leaves_the_parser_working(tmp_path, capsys):
    before = _seeded_records(tmp_path)
    assert run(tmp_path, "verify", "header_hex = 00\n", threads=0)[0] == 2
    assert "--threads must be >= 1, got 0" in capsys.readouterr().err
    assert _seeded_records(tmp_path) == before


def test_help_text_is_the_same_on_every_call(capsys):
    _build_parser.cache_clear()  # the first call below builds the parser
    texts = []
    for _ in range(2):
        assert main(["--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: opow") and texts[0] == texts[1]


def test_seeded_records_repeat_in_one_process(tmp_path):
    first = _seeded_records(tmp_path)
    assert first[0][1]["found"] is True and first[1][1]["valid"] is True
    assert _seeded_records(tmp_path) == first


# -- chainsim ------------------------------------------------------------------


def test_chainsim_converges(tmp_path):
    code, out = run(tmp_path, "chainsim",
                    "hashrate = 1e6\ninitial_interval = 9600\nn_windows = 5\n")
    assert code == 0
    records = read_records(out)
    assert records[-1]["converged_within_5pct"] is True


# -- attack ---------------------------------------------------------------------


def test_attack_matches_oracle(tmp_path):
    code, out = run(tmp_path, "attack", "q = 0.3\nz = 3\nruns = 40000\n")
    assert code == 0
    record = read_records(out)[1]
    assert record["successes"] > 0
    assert abs(record["success_rate"] / record["oracle_catchup"] - 1) < 0.2
    assert "oracle_nakamoto" in record and "model_note" in record


def test_attack_threads_invariant(tmp_path):
    cfg = "q = 0.25\nz = 2\nruns = 60000\n"
    _, out1 = run(tmp_path, "attack", cfg, threads=1)
    _, out2 = run(tmp_path, "attack", cfg, threads=3)
    assert read_records(out1)[1] == read_records(out2)[1]


def test_photonic_threads_invariant(tmp_path):
    cfg = ("dim = 16\nsamples = 50\nphase_sigmas = 0, 0.02, 0.05, 0.1\n"
           "detector_sigma = 0.01\n")
    records = []
    for threads in (1, 3, None):
        code, out = run(tmp_path, "photonic", cfg, seed=4, threads=threads)
        assert code == 0
        records.append(read_records(out)[1:])
    assert len(records[0]) == 5
    assert records[0] == records[1] == records[2]


# -- photonic --------------------------------------------------------------------


def test_photonic_zero_noise_sweep(tmp_path):
    code, out = run(tmp_path, "photonic",
                    "dim = 16\nsamples = 60\nphase_sigmas = 0,0.05\n")
    assert code == 0
    records = read_records(out)
    synth = records[1]
    assert synth["record"] == "synthesis"
    assert synth["reconstruction_residual"] < 1e-6
    zero_row = records[2]
    assert zero_row["phase_sigma"] == 0.0
    assert zero_row["nibble_error_rate"] == 0.0
    assert zero_row["hash_mismatch_rate"] == 0.0


def test_photonic_empty_grid_gives_the_synthesis_only(tmp_path):
    code, out = run(tmp_path, "photonic", "dim = 16\nsamples = 10\nphase_sigmas =\n")
    assert code == 0
    assert [r["record"] for r in read_records(out)] == ["header", "synthesis"]


def test_photonic_op_synthesizes_once(tmp_path, monkeypatch):
    # Work budget: one synthesis per op on a matrix not seen before, and
    # none inside the sweep.
    made = []
    svd_synthesize = photonic.svd_synthesize

    def counted(matrix):
        made.append(matrix)
        return svd_synthesize(matrix)

    monkeypatch.setattr(photonic, "svd_synthesize", counted)
    monkeypatch.setattr(photonic, "_SYNTH_CACHE", {})
    for n, seed in enumerate(("5a" * 32, "a5" * 32), 1):
        code, _ = run(tmp_path, "photonic", "dim = 16\nsamples = 10\n"
                      f"phase_sigmas = 0, 0.05\nmatrix_seed = {seed}\n", threads=2)
        assert code == 0
        assert len(made) == n
    matrix = generate_matrix(b"\x5b" * 32, dim=16)
    synth = svd_synthesize(matrix)
    photonic.fidelity_sweep(matrix, synth, [photonic.NoiseModel()] * 3,
                            samples=10, threads=2)
    assert len(made) == 2


# -- econ -------------------------------------------------------------------------


def test_econ_modes(tmp_path):
    code, out = run(tmp_path, "econ",
                    "mode = calibrated-drop\nmultipliers = 1.0,0.55\n")
    assert code == 0
    records = read_records(out)
    drop = {r["multiplier"]: r["drop"] for r in records[1:]}
    assert drop[1.0] == 0.0
    assert abs(drop[0.55] - 0.42) <= 0.03

    code, out = run(tmp_path, "econ", "mode = resilience\nopex_shares = 0.1,0.9\n")
    assert code == 0
    rows = read_records(out)[1:]
    by_share = {}
    for r in rows:
        by_share.setdefault(r["opex_share"], {})[r["multiplier"]] = r["active_fraction"]
    for mult in by_share[0.1]:
        if mult < 1.0:
            assert by_share[0.1][mult] > by_share[0.9][mult]

    code, out = run(tmp_path, "econ", "mode = attack-cost\n")
    assert code == 0
    totals = [r["total"] for r in read_records(out)[1:]]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_attack_engine_mode_scenario_records(tmp_path):
    cfg = ("miners = h:0.7, a:0.3:attacker\n"
           "mean_block_interval = 1\n"
           "horizon_blocks = 2000\n"
           "confirmations = 2\n"
           "runs = 50\n")
    code, out = run(tmp_path, "attack", cfg, seed=77)
    assert code == 0
    records = read_records(out)
    runs = [r for r in records if r["record"] == "scenario_run"]
    summary = records[-1]
    assert len(runs) == 50
    assert summary["record"] == "summary"
    assert summary["successes"] == sum(bool(r["attacker_success"]) for r in runs)


def test_attack_engine_mode_runs_drop_only_the_timeline(tmp_path):
    cfg = ("miners = h:0.7, a:0.3:attacker\n"
           "mean_block_interval = 1\n"
           "horizon_blocks = 200\n"
           "confirmations = 2\n"
           "runs = 3\n")
    code, out = run(tmp_path, "attack", cfg, seed=11)
    assert code == 0
    runs = [r for r in read_records(out) if r["record"] == "scenario_run"]
    base = netsim.scenario_from_config(
        {"miners": ["h:0.7", "a:0.3:attacker"], "mean_block_interval": 1.0,
         "horizon_blocks": 200, "confirmations": 2}, seed=11)
    assert len(runs) == 3
    for i, record in enumerate(runs):
        expected = netsim.run_scenario(dataclasses.replace(base, seed=11 + i)).to_dict()
        assert expected.pop("timeline")
        expected.update(record="scenario_run", run=i)
        assert record == json.loads(json.dumps(expected))


def test_attack_rejects_nonpositive_runs(tmp_path):
    for runs in (0, -5):
        for mode in ("q = 0.3\nz = 3\n", "miners = h:0.7, a:0.3:attacker\n"
                                          "horizon_blocks = 50\n"):
            code, out = run(tmp_path, "attack", f"{mode}runs = {runs}\n")
            assert code == 2
            assert not out.exists()


def test_degenerate_double_spend_race_exits_2(tmp_path, capsys):
    # Races that measure nothing: no block left after the z confirmations,
    # or a give-up margin under one block.  They are config errors.
    cases = [("q = 0.3\nz = 3\nhorizon_blocks = 0\n", "horizon_blocks"),
             ("q = 0.3\nz = 3\nabandon_margin = -5\n", "abandon_margin"),
             ("miners = h1:0.35, h2:0.35, att:0.3:attacker\n"
              "mean_block_interval = 1\nhorizon_blocks = 2000\n"
              "confirmations = 3\nruns = 200\nabandon_margin = -5\n",
              "abandon_margin")]
    for cfg, key in cases:
        code, out = run(tmp_path, "attack", cfg)
        assert code == 2
        assert not out.exists()
        assert key in capsys.readouterr().err


def test_threads_below_one_exit_2(tmp_path):
    for threads in (0, -1):
        code, out = run(tmp_path, "attack", "q = 0.3\nz = 3\nruns = 100\n",
                        threads=threads)
        assert code == 2
        assert not out.exists()


def test_attack_rejects_mixed_modes(tmp_path, capsys):
    code, _ = run(tmp_path, "attack", "miners = a:1.0\nq = 0.3\nz = 2\n")
    assert code == 2
    # Scenario-only keys without a miners list: the q/z race would ignore them.
    race = "q = 0.3\nz = 3\nruns = 100\n"
    for extra, keys in (
            ("latency = 5\nconfirmations = 2\nintegrated = true\n",
             ("latency", "confirmations", "integrated")),
            ("mean_block_interval = 60\n", ("mean_block_interval",)),
            ("horizon_seconds = 600\n", ("horizon_seconds",)),
            ("partitions = 0:10:a\n", ("partitions",))):
        code, out = run(tmp_path, "attack", race + extra)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(key in err for key in keys)


def test_econ_custom_fleet(tmp_path):
    cfg = ("mode = attack-cost\n"
           "hashrates = 1,1\n"
           "capex_rates = 100,50\n"
           "opex_rates = 0,10\n"
           "duration_days = 2\n")
    code, out = run(tmp_path, "econ", cfg)
    assert code == 0
    record = read_records(out)[1]
    assert record["capex_share"] == "custom"
    assert record["capex"] > 0 and record["opex"] > 0

    bad = "mode = attack-cost\nhashrates = 1,1\ncapex_rates = 1\nopex_rates = 0,0\n"
    code, _ = run(tmp_path, "econ", bad)
    assert code == 2


# -- config handling ----------------------------------------------------------------

CONFIG_COMMANDS = ("mine", "verify", "chainsim", "attack", "photonic", "econ")
_CUSTOM_FLEET = "hashrates = 1\ncapex_rates = 1\nopex_rates = 1\n"


@pytest.mark.parametrize("command, cfg, message", [
    ("mine", f"target_bits = {compact_from_target(1 << 252)}\ntarget_exponent = 252\n",
     "set exactly one of target_bits / target_exponent"),
    ("mine", "target_exponent = 256\n", "target_exponent must be in (0, 256)"),
    ("verify", "rounds = 2\n", "verify needs header_hex"),
    ("econ", "mode = bogus\n", "unknown econ mode 'bogus'"),
    ("econ", "mode = attack-cost\nhashrates = 1,1\n",
     "custom fleets need hashrates, capex_rates and opex_rates"),
    # Keys the mode does not read, which it used to ignore.
    ("econ", "mode = calibrated-drop\nopex_shares = 0.5\n" + _CUSTOM_FLEET,
     "econ mode 'calibrated-drop' does not read opex_shares, hashrates, "
     "capex_rates, opex_rates"),
    ("econ", "mode = resilience\ncapex_shares = 0.5\nduration_days = 2\n",
     "econ mode 'resilience' does not read capex_shares, duration_days"),
    ("econ", "opex_shares = 0.5\nn_cohorts = 3\n" + _CUSTOM_FLEET,
     "econ mode 'resilience' does not read opex_shares, n_cohorts"),
    ("econ", "mode = attack-cost\ncapex_shares = 0.5\n" + _CUSTOM_FLEET,
     "econ mode 'attack-cost' does not read capex_shares"),
    ("econ", "mode = attack-cost\nn_cohorts = 4\n",
     "econ mode 'attack-cost' does not read n_cohorts"),
    ("econ", "mode = attack-cost\nhardware_price_multiple = 0\n",
     "hardware_price_multiple must be positive"),
    # Integrated blocks reach every node at once and stop at horizon_blocks.
    ("attack", "miners = a:0.5, b:0.5\nhorizon_blocks = 5\nintegrated = true\n"
     "latency = 5, 30\nhorizon_seconds = 1\n",
     "integrated mode takes neither latency nor horizon_seconds"),
], ids=["mine-both-targets", "mine-exponent-256", "verify-no-header",
        "econ-bogus-mode", "econ-hashrates-only", "econ-calibrated-drop-fleet",
        "econ-resilience-attack-keys", "econ-resilience-shares-and-fleet",
        "econ-attack-cost-shares-and-fleet", "econ-attack-cost-n_cohorts",
        "econ-attack-cost-price-multiple", "attack-integrated-latency"])
def test_bad_config_values_exit_2(tmp_path, capsys, command, cfg, message):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


_SCENARIO_BLOCKS_ERROR = ("a run may create at most 100000 blocks: lower "
                          "horizon_blocks, or horizon_seconds / mean_block_interval")


def _race_steps_error(steps: int) -> str:
    return (f"runs * (horizon_blocks - z) may be at most 10000000000 replica "
            f"steps, got {steps}: lower runs or horizon_blocks")


@pytest.mark.parametrize("command, cfg, message", [
    ("econ", "n_cohorts = 100000000\n", "n_cohorts must be at most 1000000"),
    ("econ", "mode = calibrated-drop\nn_cohorts = 1000001\n",
     "n_cohorts must be at most 1000000"),
    ("chainsim", "window = 1000000000\nn_windows = 1\n",
     "n_blocks must be at most 1000000, got 1000000000"),
    ("chainsim", "window = 1000\nn_windows = 1001\n",
     "n_blocks must be at most 1000000, got 1001000"),
    ("photonic", "dim = 16\nsamples = 100000000\n",
     "samples must be in [1, 100000], got 100000000"),
    ("attack", "miners = a:0.5, b:0.5\nmean_block_interval = 1\nhorizon_seconds = 1e9\n",
     _SCENARIO_BLOCKS_ERROR),
    ("attack", "miners = a:0.5, b:0.5\nhorizon_blocks = 100001\n", _SCENARIO_BLOCKS_ERROR),
    ("attack", "miners = a:0.5, b:0.5\nhorizon_blocks = 10\nruns = 10001\n",
     "runs must be in [1, 10000], got 10001"),
    ("attack", "q = 0.3\nz = 6\nruns = 100000000000\n",
     "runs must be in [1, 10000000], got 100000000000"),
    ("attack", "q = 0.3\nz = 6\nruns = 10000000\n", _race_steps_error(99940000000)),
    ("attack", "q = 0.5\nz = 6\nruns = 100000\nhorizon_blocks = 1000000\n",
     _race_steps_error(99999400000)),
], ids=["econ-resilience", "econ-calibrated-drop", "chainsim-window",
        "chainsim-n_windows", "photonic-samples", "attack-horizon_seconds",
        "attack-horizon_blocks", "attack-runs", "race-runs",
        "race-default-horizon", "race-horizon_blocks"])
def test_oversized_runs_exit_2(tmp_path, capsys, command, cfg, message):
    # Refused up front, before the run allocates a point, a cohort, a block
    # or a record per unit.
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cfg, blocks", [
    ("runs = 10000\nhorizon_blocks = 100000\n", "1000000000"),
    ("runs = 101\nhorizon_blocks = 100000\n", "10100000"),
    ("runs = 10000\nmean_block_interval = 1\nhorizon_seconds = 2000\n", "20000000"),
], ids=["both-bounds", "just-over", "horizon_seconds"])
def test_engine_work_is_bounded_over_all_runs(tmp_path, capsys, cfg, blocks):
    # Each bound alone holds (10**4 runs, 10**5 blocks a run); together they
    # would ask for 10**9 engine blocks, hours of work before any output.
    code, out = run(tmp_path, "attack", "miners = a:0.5, b:0.5\n" + cfg)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: all runs may create at most 10000000 blocks, got {blocks}: "
        "lower runs or the horizon\n")


def test_race_step_bound_admits_its_limit(tmp_path):
    # 10**6 runs of the default 10,000-block horizon at z = 0 are exactly
    # 10**10 replica steps, and every replica starts level: no step is drawn.
    code, out = run(tmp_path, "attack", "q = 0.3\nz = 0\nruns = 1000000\n")
    assert code == 0
    assert read_records(out)[1]["successes"] == 1_000_000


def test_engine_block_bound_takes_the_smaller_horizon(tmp_path):
    # Each horizon may pass the bound when the other one binds first.
    for horizons in ("horizon_blocks = 100001\nhorizon_seconds = 10\n",
                     "horizon_blocks = 10\nhorizon_seconds = 1e9\n"):
        code, _ = run(tmp_path, "attack", "miners = a:0.5, b:0.5\n"
                      "mean_block_interval = 1\n" + horizons)
        assert code == 0


def test_unknown_config_key_exits_2(tmp_path):
    for subcommand in CONFIG_COMMANDS:
        code, out = run(tmp_path, subcommand, "bogus = 1\n")
        assert code == 2
        assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    assert set(CONFIG_COMMANDS) == set(_COMMANDS)
    for subcommand in CONFIG_COMMANDS:
        code, out = run(tmp_path, subcommand)
        assert code == 2
        assert not out.exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.jsonl")
    cfg = tmp_path / "attack.cfg"
    cfg.write_text("q = 0.3\nz = 3\nruns = 100\n")
    for argv in (["heavyhash", ""], ["--config", str(cfg), "attack"]):
        assert main(["--output", target] + argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write output {target!r}")


def test_non_finite_config_floats_exit_2(tmp_path):
    # inf used to run forever, nan to run no blocks or to write a bare NaN.
    for subcommand, cfg in (
            ("attack", "miners = a:0.5, b:0.5\nhorizon_seconds = inf\n"),
            ("attack", "miners = a:0.5, b:0.5\nhorizon_blocks = 10\n"
                       "mean_block_interval = nan\n"),
            ("photonic", "dim = 16\nsamples = 10\nphase_sigmas = nan\n")):
        code, out = run(tmp_path, subcommand, cfg)
        assert code == 2
        assert not out.exists()


def test_non_finite_partition_times_exit_2(tmp_path, capsys):
    # Refused before any run: a nan start would never open its window yet
    # report a divergence at the end time.
    for times in ("nan:100", "0:nan", "50:inf"):
        code, out = run(tmp_path, "attack", "miners = a:0.5, b:0.5\n"
                        f"horizon_blocks = 50\npartitions = {times}:a\n")
        assert code == 2
        assert not out.exists()
        assert "partition" in capsys.readouterr().err


def test_scalar_latency_is_a_point_range(tmp_path):
    rows = []
    for latency in ("5", "5, 5"):
        code, out = run(tmp_path, "attack", "miners = a:0.5, b:0.5\n"
                        f"horizon_blocks = 100\nruns = 3\nlatency = {latency}\n")
        assert code == 0
        rows.append(read_records(out)[1:])
    assert rows[0] == rows[1]


def test_photonic_phase_overflow_exits_3(tmp_path, capsys):
    # sigma * z overflows to inf and cos(inf) is NaN: a numeric failure,
    # reported once, not garbage rates under a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "photonic",
                        "dim = 16\nsamples = 50\nphase_sigmas = 0, 1e308\n")
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_numeric_overflow_inputs_exit_2(tmp_path, capsys):
    # int(inf) for the initial target; 2**2000 - 1 does not fit a float.
    for subcommand, cfg in (("chainsim", "hashrate = 1e-300\n"),
                            ("photonic", "dim = 16\nsamples = 10\nadc_bits = 2000\n")):
        code, out = run(tmp_path, subcommand, cfg)
        assert code == 2
        assert not out.exists()
    capsys.readouterr()
    # Results that overflow to inf or nan, which JSON cannot hold.
    for subcommand, cfg, message in (
            ("econ", "mode = attack-cost\nreward_value = 1e308\n",
             "record 1 (attack_cost) has non-finite capex, opex, total"),
            ("econ", "mode = attack-cost\nduration_days = 1e308\n",
             "record 1 (attack_cost) has non-finite opex, total"),
            ("econ", "mode = attack-cost\nhardware_price_multiple = 1e308\n",
             "record 1 (attack_cost) has non-finite capex, total"),
            ("attack", "miners = a:0.5, b:0.5\nmean_block_interval = 1e308\n"
                       "horizon_blocks = 10\n",
             "record 1 (scenario_run) has non-finite stats, timeline")):
        code, out = run(tmp_path, subcommand, cfg)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


_ODD_VALUES = st.sampled_from(["nan", "-inf", "inf", "1e400", "0x1f", "1,nan",
                               "true", "ab", "00" * 32, "", "1, 2", "-0"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONFIG_COMMANDS), st.data())
def test_config_text_parses_to_finite_values_or_config_error(subcommand, data):
    schema = _COMMANDS[subcommand][1]
    key = st.sampled_from(sorted(schema)) | st.text(max_size=6)
    line = st.tuples(key, _ODD_VALUES | st.text(max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}") | st.text(max_size=20)
    text = data.draw(st.lists(line, max_size=6).map("\n".join))
    try:
        cfg = parse_config_text(text, schema)
    except ConfigError:
        return
    for value in cfg.values():
        for item in value if isinstance(value, list) else [value]:
            assert not isinstance(item, float) or math.isfinite(item)


def test_reproducible_records_modulo_header_timestamp(tmp_path):
    cfg = "q = 0.2\nz = 2\nruns = 20000\n"
    _, out1 = run(tmp_path, "attack", cfg, seed=9)
    first = read_records(out1)
    out1.unlink()
    _, out2 = run(tmp_path, "attack", cfg, seed=9)
    second = read_records(out2)
    assert first[1:] == second[1:]
    h1, h2 = first[0], second[0]
    h1.pop("generated_at"), h2.pop("generated_at")
    assert h1 == h2


# -- config keys whose default lives in the callee -----------------------------
# The CLI passes these keys on only when the config sets them.  Setting one
# must give exactly the records of the API called with that value, and
# records that differ from leaving it out (the callee's default).

_ZERO = bytes(32)
_MARKET = econ.MarketState(reward_value=100_000.0, block_interval=600.0)
_HEADER = BlockHeader(1, _ZERO, _ZERO, 0, compact_from_target(1 << 255), 7)
_PAIR = (netsim.MinerSpec("a", 0.5), netsim.MinerSpec("b", 0.5))
_RACE = (netsim.MinerSpec("a", 0.7), netsim.MinerSpec("x", 0.3, "attacker"))


def _rows(recs):
    """Records without the keys the CLI adds to the API's values."""
    return [{k: v for k, v in r.items() if k not in ("record", "run")}
            for r in recs]


def _mined(rounds):
    target = target_from_compact(compact_from_target(1 << 252))
    template = BlockHeader(1, _ZERO, _ZERO, 0, compact_from_target(target), 0)
    params = HeavyHashParams(rounds=rounds)
    nonce = mine(template, generate_matrix(_ZERO), target, 0, 1 << 20, params)
    header = serialize_header(template.with_nonce(nonce))
    return nonce, heavyhash(params, generate_matrix(_ZERO), header).hex()


def _window_means(recs):
    return [r["mean_interval"] for r in recs if r["record"] == "window"]


def _retarget(stochastic=False, **params):
    params = RetargetParams(**params)
    points = simulate_retarget_chain(int(TARGET_SPACE / (1e6 * 9600.0)), 1e6,
                                     4 * params.window, params,
                                     stochastic=stochastic, seed=0)
    return window_mean_intervals(points, params.window)


def _attack_successes(**race):
    return netsim.attack_monte_carlo(0.3, 3, 2000, seed=0, **race).successes


def _photonic(recs):
    return recs[0]["dim"], _rows(recs[1:])


def _sweep(dim=16, samples=20, **noise):
    grid = [photonic.NoiseModel(phase_sigma=0.05, **noise)]
    matrix = generate_matrix(_ZERO, dim=dim)
    return dim, photonic.fidelity_sweep(matrix, photonic.svd_synthesize(matrix),
                                        grid, samples=samples, seed=0)


def _active(recs):
    return [r["active_fraction"] for r in recs]


def _curve(fleet, multiplier):
    return [f for _, f in econ.resilience_curve(fleet, _MARKET, [multiplier])]


def _scenario(miners, **fields):
    sc = netsim.SimScenario(seed=0, miners=miners, **fields)
    return [netsim.run_scenario(sc).to_dict()]


_PHOT = "phase_sigmas = 0.05\n"
_TWO = "miners = a:0.5, b:0.5\n"
_RACE_CFG = "miners = a:0.7, x:0.3:attacker\nhorizon_blocks = 60\n"
_HALF = 0.5 * _MARKET.reward_rate

# command, config without the key, the key's line, records -> compared value,
# the API's value for that setting
_CALLEE_DEFAULTS = [
    pytest.param("mine", "target_exponent = 252\n", "rounds = 2",
                 lambda recs: (recs[0]["nonce"], recs[0]["digest"]),
                 lambda: _mined(2), id="mine-rounds"),
    pytest.param("verify", f"header_hex = {serialize_header(_HEADER).hex()}\n",
                 "rounds = 2", lambda recs: recs[0]["digest"],
                 lambda: heavyhash(HeavyHashParams(rounds=2), generate_matrix(_ZERO),
                                   serialize_header(_HEADER)).hex(),
                 id="verify-rounds"),
    # Deterministic window means do not depend on the window size.
    pytest.param("chainsim", "n_windows = 4\nstochastic = true\n", "window = 16",
                 _window_means, lambda: _retarget(True, window=16),
                 id="chainsim-window"),
    pytest.param("chainsim", "n_windows = 4\n", "expected_interval = 300",
                 _window_means, lambda: _retarget(expected_interval=300),
                 id="chainsim-expected_interval"),
    pytest.param("chainsim", "n_windows = 4\n", "clamp_factor = 2",
                 _window_means, lambda: _retarget(clamp_factor=2),
                 id="chainsim-clamp_factor"),
    pytest.param("chainsim", "n_windows = 4\n", "stochastic = true",
                 _window_means, lambda: _retarget(True), id="chainsim-stochastic"),
    pytest.param("attack", "q = 0.3\nz = 3\nruns = 2000\n", "horizon_blocks = 8",
                 lambda recs: recs[0]["successes"],
                 lambda: _attack_successes(horizon_blocks=8), id="attack-horizon_blocks"),
    pytest.param("attack", "q = 0.3\nz = 3\nruns = 2000\n", "abandon_margin = 2",
                 lambda recs: recs[0]["successes"],
                 lambda: _attack_successes(abandon_margin=2), id="attack-abandon_margin"),
    pytest.param("photonic", "samples = 20\n" + _PHOT, "dim = 16",
                 _photonic, lambda: _sweep(), id="photonic-dim"),
    pytest.param("photonic", "dim = 16\nsamples = 20\n" + _PHOT, "detector_sigma = 0.05",
                 _photonic, lambda: _sweep(detector_sigma=0.05),
                 id="photonic-detector_sigma"),
    pytest.param("photonic", "dim = 16\nsamples = 20\n" + _PHOT, "adc_bits = 4",
                 _photonic, lambda: _sweep(adc_bits=4), id="photonic-adc_bits"),
    pytest.param("photonic", "dim = 16\n" + _PHOT, "samples = 20",
                 _photonic, lambda: _sweep(), id="photonic-samples"),
    pytest.param("econ", "mode = resilience\nopex_shares = 0.5\nmultipliers = 0.5\n",
                 "n_cohorts = 7", _active,
                 lambda: _curve(econ.synthetic_fleet(0.5, _MARKET, n_cohorts=7), 0.5),
                 id="econ-resilience-n_cohorts"),
    pytest.param("econ", "mode = calibrated-drop\nmultipliers = 0.55\n",
                 "n_cohorts = 9", _active,
                 lambda: _curve(econ.bitcoin_like_fleet(_MARKET, n_cohorts=9), 0.55),
                 id="econ-calibrated-drop-n_cohorts"),
    pytest.param("econ", "mode = attack-cost\ncapex_shares = 0.5\n",
                 "hardware_price_multiple = 2.5", lambda recs: [r["total"] for r in recs],
                 lambda: [econ.attack_cost(
                     econ.MinerFleet((econ.Cohort(1.0, _HALF, _HALF),)),
                     _MARKET, econ.SECONDS_PER_DAY, 2.5).total],
                 id="econ-hardware_price_multiple"),
    pytest.param("attack", _TWO + "horizon_blocks = 20\n", "mean_block_interval = 60",
                 _rows,
                 lambda: _scenario(_PAIR, horizon_blocks=20, mean_block_interval=60.0),
                 id="scenario-mean_block_interval"),
    pytest.param("attack", _TWO + "horizon_blocks = 20\n", "latency = 30",
                 _rows, lambda: _scenario(_PAIR, horizon_blocks=20, latency=(30.0, 30.0)),
                 id="scenario-latency"),
    pytest.param("attack", _TWO + "horizon_blocks = 20\n", "latency = 5,900",
                 _rows, lambda: _scenario(_PAIR, horizon_blocks=20, latency=(5.0, 900.0)),
                 id="scenario-latency-range"),
    pytest.param("attack", _TWO + "horizon_seconds = 20000\n", "horizon_blocks = 10",
                 _rows,
                 lambda: _scenario(_PAIR, horizon_blocks=10, horizon_seconds=20000.0),
                 id="scenario-horizon_blocks"),
    pytest.param("attack", _TWO + "horizon_blocks = 30\n", "horizon_seconds = 6000",
                 _rows,
                 lambda: _scenario(_PAIR, horizon_blocks=30, horizon_seconds=6000.0),
                 id="scenario-horizon_seconds"),
    pytest.param("attack", _RACE_CFG, "confirmations = 2",
                 _rows, lambda: _scenario(_RACE, horizon_blocks=60, confirmations=2),
                 id="scenario-confirmations"),
    pytest.param("attack", _RACE_CFG, "abandon_margin = 1",
                 _rows, lambda: _scenario(_RACE, horizon_blocks=60, abandon_margin=1),
                 id="scenario-abandon_margin"),
    pytest.param("attack", _TWO + "horizon_blocks = 5\n", "integrated = true",
                 _rows, lambda: _scenario(_PAIR, horizon_blocks=5, integrated=True),
                 id="scenario-integrated"),
]


@pytest.mark.parametrize("command, base, line, project, api", _CALLEE_DEFAULTS)
def test_config_key_reaches_the_callee(tmp_path, command, base, line, project, api):
    _, out = run(tmp_path, command, base + line + "\n")
    setting = project(read_records(out)[1:])
    _, out = run(tmp_path, command, base)
    assert setting == api()
    assert setting != project(read_records(out)[1:])
