"""Command-line entry point.

`heavyhash` hashes a hex argument and writes the raw digest hex.  Every
other subcommand is a row of `_COMMANDS`: a key=value config file read
through the row's schema, and a handler that turns it into result records.
Results go to --output (default stdout) as one JSON header record followed
by one record per result line.

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error,
3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable, Optional

import numpy as np

from . import configio, econ, netsim, photonic
from .configio import (
    ConfigError,
    as_bool,
    as_float,
    as_float_list,
    as_hex,
    as_int,
    as_str,
    given,
)
from .heavyhash import (
    DIGEST_SIZE,
    HeavyHashParams,
    generate_matrix,
    heavyhash,
    identity_matrix,
)
from .pow import (
    BlockHeader,
    RetargetParams,
    TARGET_SPACE,
    compact_from_target,
    deserialize_header,
    meets_target,
    mine,
    serialize_header,
    simulate_retarget_chain,
    target_from_compact,
    window_mean_intervals,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_ZERO_SEED = bytes(DIGEST_SIZE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opow",
        description="Optical proof-of-work toolbox: hashing, mining, chain "
                    "and attack simulation, photonic emulation, economics.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for every randomized run")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--output", default="-",
                        help="result file, '-' for stdout")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the attack Monte Carlo "
                             "(mine searches on one thread)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("heavyhash", help="hash a hex string")
    p.add_argument("input_hex", help="input bytes as hex ('' for empty)")
    p.add_argument("--matrix-seed", default=_ZERO_SEED.hex(),
                   help="32-byte matrix seed as hex")
    p.add_argument("--identity", action="store_true",
                   help="use the identity matrix (double SHA-256)")
    p.add_argument("--rounds", type=int, default=1)

    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _write_output(path: str, write: Callable) -> None:
    """Hand --output ('-' is stdout) to `write`; a failed write is a usage error."""
    try:
        if path == "-":
            write(sys.stdout)
        else:
            with open(path, "w", encoding="utf-8") as fp:
                write(fp)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _heavyhash(args) -> int:
    try:
        data = bytes.fromhex(args.input_hex)
        seed = bytes.fromhex(args.matrix_seed)
    except ValueError as exc:
        raise ConfigError(f"invalid hex: {exc}") from exc
    if len(seed) != DIGEST_SIZE:
        raise ConfigError("matrix seed must be 32 bytes of hex")
    matrix = identity_matrix() if args.identity else generate_matrix(seed)
    params = HeavyHashParams(rounds=args.rounds)
    digest = heavyhash(params, matrix, data)
    _write_output(args.output, lambda fp: fp.write(digest.hex() + "\n"))
    return EXIT_OK


def _run_command(args) -> int:
    """Load the config, run the handler, write header and records.

    The exit code is 0 unless a record says `"valid": false` (only `verify`
    makes one): its verdict then goes to stderr and the exit code is 1."""
    if not args.config:
        raise ConfigError(f"subcommand {args.command!r} needs --config")
    _, schema, handler = _COMMANDS[args.command]
    cfg = configio.load_config(args.config, schema)
    records = handler(args, cfg)
    records.insert(0, configio.header_record(args.command, args.seed, cfg))
    _write_output(args.output, lambda fp: configio.write_records(fp, records))
    rejected = [r["verdict"] for r in records if r.get("valid") is False]
    for verdict in rejected:
        print(verdict, file=sys.stderr)
    return EXIT_VERIFY_FAILED if rejected else EXIT_OK


# ---------------------------------------------------------------------------
# config-driven subcommands: each handler takes (args, cfg), returns records


_MINE_SCHEMA = {
    "version": as_int,
    "parent_hash": as_hex(32),
    "payload_commitment": as_hex(32),
    "timestamp": as_int,
    "target_bits": as_int,
    "target_exponent": as_int,
    "matrix_seed": as_hex(32),
    "nonce_start": as_int,
    "nonce_count": as_int,
    "rounds": as_int,
}


def _resolve_target(cfg: dict) -> int:
    has_bits = "target_bits" in cfg
    has_exp = "target_exponent" in cfg
    if has_bits == has_exp:
        raise ConfigError("set exactly one of target_bits / target_exponent")
    if has_exp:
        exponent = cfg["target_exponent"]
        if not 0 < exponent < 256:
            raise ConfigError("target_exponent must be in (0, 256)")
        return target_from_compact(compact_from_target(1 << exponent))
    return target_from_compact(cfg["target_bits"])


def _mine(args, cfg: dict) -> list[dict]:
    target = _resolve_target(cfg)
    parent = cfg.get("parent_hash", _ZERO_SEED)
    template = BlockHeader(
        version=cfg.get("version", 1),
        parent_hash=parent,
        payload_commitment=cfg.get("payload_commitment", _ZERO_SEED),
        timestamp=cfg.get("timestamp", 0),
        compact_target=compact_from_target(target),
        nonce=0,
    )
    matrix_seed = cfg.get("matrix_seed", parent)
    matrix = generate_matrix(matrix_seed)
    params = HeavyHashParams(**given(cfg, "rounds"))
    start = cfg.get("nonce_start", 0)
    count = cfg.get("nonce_count", 1 << 20)
    nonce = mine(template, matrix, target, start, count, params)
    record: dict = {
        "record": "mine",
        "found": nonce is not None,
        "matrix_seed": matrix_seed.hex(),
        "target_bits": compact_from_target(target),
    }
    if nonce is not None:
        header = template.with_nonce(nonce)
        digest = heavyhash(params, matrix, serialize_header(header))
        record.update({
            "nonce": nonce,
            "digest": digest.hex(),
            "header_hex": serialize_header(header).hex(),
            "trials": nonce - start + 1,
        })
    return [record]


_VERIFY_SCHEMA = {
    "header_hex": as_hex(None),
    "matrix_seed": as_hex(32),
    "rounds": as_int,
}


def _verify(args, cfg: dict) -> list[dict]:
    if "header_hex" not in cfg:
        raise ConfigError("verify needs header_hex")
    header = deserialize_header(cfg["header_hex"])
    matrix_seed = cfg.get("matrix_seed", header.parent_hash)
    matrix = generate_matrix(matrix_seed)
    params = HeavyHashParams(**given(cfg, "rounds"))
    try:
        target = target_from_compact(header.compact_target)
    except ValueError:
        return [{"record": "verify", "valid": False, "verdict": "bad-target"}]
    digest = heavyhash(params, matrix, serialize_header(header))
    ok = meets_target(digest, target)
    return [{
        "record": "verify",
        "valid": ok,
        "verdict": "valid" if ok else "bad-pow",
        "digest": digest.hex(),
    }]


_CHAINSIM_SCHEMA = {
    "hashrate": as_float,
    "initial_interval": as_float,
    "expected_interval": as_int,
    "window": as_int,
    "clamp_factor": as_int,
    "n_windows": as_int,
    "stochastic": as_bool,
}


def _chainsim(args, cfg: dict) -> list[dict]:
    hashrate = cfg.get("hashrate", 1.0e6)
    initial_interval = cfg.get("initial_interval", 9600.0)
    params = RetargetParams(**given(cfg, "window", "expected_interval",
                                    "clamp_factor"))
    n_windows = cfg.get("n_windows", 6)
    if hashrate <= 0 or initial_interval <= 0 or n_windows <= 0:
        raise ConfigError("hashrate, initial_interval, n_windows must be positive")
    # A tiny hashrate * interval overflows the quotient to inf, and int(inf)
    # raises; such a target is unusable anyway.
    quotient = TARGET_SPACE / (hashrate * initial_interval)
    if not (math.isfinite(quotient) and 0 < int(quotient) < TARGET_SPACE):
        raise ConfigError("initial interval/hashrate give an unusable target")
    points = simulate_retarget_chain(int(quotient), hashrate,
                                     n_windows * params.window, params,
                                     seed=args.seed, **given(cfg, "stochastic"))
    means = window_mean_intervals(points, params.window)
    records = [{
        "record": "window",
        "window": i,
        "mean_interval": mean,
        "relative_error": mean / params.expected_interval - 1.0,
    } for i, mean in enumerate(means)]
    records.append({
        "record": "summary",
        "final_mean_interval": means[-1],
        "converged_within_5pct": abs(means[-1] / params.expected_interval - 1.0) <= 0.05,
    })
    return records


# The race Monte Carlo's q, z and runs, plus the scenario format (engine mode;
# its horizon_blocks and abandon_margin also bound the Monte Carlo).
_ATTACK_SCHEMA = {"q": as_float, "z": as_int, "runs": as_int,
                  **netsim.SCENARIO_SCHEMA}
_RACE_KEYS = ("q", "z", "runs", "horizon_blocks", "abandon_margin")


def _attack(args, cfg: dict) -> list[dict]:
    if "miners" in cfg:
        return _attack_engine_mode(args, cfg)
    if "q" not in cfg or "z" not in cfg:
        raise ConfigError("attack needs q and z (or a miners scenario)")
    unused = [k for k in cfg if k not in _RACE_KEYS]
    if unused:
        raise ConfigError(f"scenario keys {', '.join(unused)} need a miners list")
    stats = netsim.attack_monte_carlo(
        cfg["q"], cfg["z"], cfg.get("runs", 100_000), seed=args.seed,
        threads=args.threads, **given(cfg, "horizon_blocks", "abandon_margin"))
    return [{
        "record": "attack",
        "q": stats.q,
        "z": stats.z,
        "runs": stats.runs,
        "successes": stats.successes,
        "success_rate": stats.rate,
        "oracle_catchup": stats.oracle,
        "oracle_nakamoto": stats.oracle_nakamoto,
        "relative_error": (stats.rate / stats.oracle - 1.0) if stats.oracle else None,
        "model_note": stats.note,
    }]


def _attack_engine_mode(args, cfg: dict) -> list[dict]:
    """Replicated event-engine runs of a full scenario, one record per run."""
    if "q" in cfg or "z" in cfg:
        raise ConfigError("give either q/z or a miners scenario, not both")
    base = netsim.scenario_from_config(cfg, seed=args.seed)
    runs = cfg.get("runs", 1)
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    records = []
    successes = 0
    with_attacker = base.attacker() is not None
    for i in range(runs):
        scenario = dataclasses.replace(base, seed=args.seed + i)
        result = netsim.run_scenario(scenario)
        row = result.to_dict()
        if runs > 1:
            row.pop("timeline")  # per-run timelines dwarf the summary output
        row["record"] = "scenario_run"
        row["run"] = i
        records.append(row)
        successes += bool(result.attacker_success)
    if with_attacker and runs > 1:
        records.append({"record": "summary", "runs": runs,
                        "successes": successes,
                        "success_rate": successes / runs})
    return records


_PHOTONIC_SCHEMA = {
    "matrix_seed": as_hex(32),
    "dim": as_int,
    "samples": as_int,
    "phase_sigmas": as_float_list,
    "detector_sigma": as_float,
    "adc_bits": as_int,
}


def _photonic(args, cfg: dict) -> list[dict]:
    seed_bytes = cfg.get("matrix_seed", _ZERO_SEED)
    matrix = generate_matrix(seed_bytes, **given(cfg, "dim"))
    synth = photonic.synthesis_for(matrix)
    noise = given(cfg, "detector_sigma", "adc_bits")
    grid = [photonic.NoiseModel(phase_sigma=s, **noise)
            for s in cfg.get("phase_sigmas", [0.0, 0.01, 0.05, 0.1])]
    rows = photonic.fidelity_sweep(matrix, grid, seed=args.seed,
                                   **given(cfg, "samples"))
    records: list[dict] = [{
        "record": "synthesis",
        "dim": matrix.dim,
        "scale": synth.scale,
        "reconstruction_residual": photonic.synthesis_residual(synth, matrix),
    }]
    for row in rows:
        row = dict(row)
        row["record"] = "sweep"
        records.append(row)
    return records


_ECON_SCHEMA = {
    "mode": as_str,
    "reward_value": as_float,
    "block_interval": as_float,
    "n_cohorts": as_int,
    "multipliers": as_float_list,
    "opex_shares": as_float_list,
    "capex_shares": as_float_list,
    "duration_days": as_float,
    "hardware_price_multiple": as_float,
    # explicit fleet input: parallel per-cohort rate lists
    "hashrates": as_float_list,
    "capex_rates": as_float_list,
    "opex_rates": as_float_list,
}


def _custom_fleet(cfg: dict):
    keys = ("hashrates", "capex_rates", "opex_rates")
    present = [k for k in keys if k in cfg]
    if not present:
        return None
    if len(present) != 3:
        raise ConfigError("custom fleets need hashrates, capex_rates and opex_rates")
    return econ.fleet_from_rates(cfg["hashrates"], cfg["capex_rates"],
                                 cfg["opex_rates"])


def _econ(args, cfg: dict) -> list[dict]:
    mode = cfg.get("mode", "resilience")
    market = econ.MarketState(reward_value=cfg.get("reward_value", 100_000.0),
                              block_interval=cfg.get("block_interval", 600.0))
    n_cohorts = given(cfg, "n_cohorts")
    custom = _custom_fleet(cfg)
    # (label, fleet) rows: a custom fleet alone, labelled "custom", or one
    # synthetic fleet per share, labelled with its share.
    if mode == "resilience":
        multipliers = cfg.get("multipliers",
                              [round(0.05 * i, 2) for i in range(1, 21)])
        fleets = [("custom", custom)] if custom is not None else [
            (share, econ.synthetic_fleet(share, market, **n_cohorts))
            for share in cfg.get("opex_shares", [0.1, 0.9])]
        return [{"record": "resilience", "opex_share": label,
                 "multiplier": mult, "active_fraction": frac}
                for label, fleet in fleets
                for mult, frac in econ.resilience_curve(fleet, market, multipliers)]
    if mode == "attack-cost":
        duration = cfg.get("duration_days", 1.0) * econ.SECONDS_PER_DAY
        multiple = given(cfg, "hardware_price_multiple")
        cost_rate = market.reward_rate  # competitive: cost per block = reward
        fleets = [("custom", custom)] if custom is not None else [
            (share, econ.MinerFleet((econ.Cohort(
                hashrate=1.0, capex_rate=share * cost_rate,
                opex_rate=(1.0 - share) * cost_rate),)))
            for share in cfg.get("capex_shares",
                                 [round(0.1 * i, 1) for i in range(1, 10)])]
        records = []
        for label, fleet in fleets:
            cost = econ.attack_cost(fleet, market, duration, **multiple)
            records.append({"record": "attack_cost", "capex_share": label,
                            "capex": cost.capex, "opex": cost.opex,
                            "total": cost.total})
        return records
    if mode == "calibrated-drop":
        fleet = econ.bitcoin_like_fleet(market, **n_cohorts)
        return [{"record": "calibrated_drop", "multiplier": mult,
                 "active_fraction": frac, "drop": 1.0 - frac}
                for mult, frac in econ.resilience_curve(
                    fleet, market, cfg.get("multipliers", [1.0, 0.55]))]
    raise ConfigError(f"unknown econ mode {mode!r}")


# name -> (help text, config schema, handler)
_COMMANDS = {
    "mine": ("search a nonce range for a winning header", _MINE_SCHEMA, _mine),
    "verify": ("re-check the proof of work of a header", _VERIFY_SCHEMA, _verify),
    "chainsim": ("constant-hashrate retarget convergence run",
                 _CHAINSIM_SCHEMA, _chainsim),
    "attack": ("double-spend race Monte Carlo", _ATTACK_SCHEMA, _attack),
    "photonic": ("analog weighting noise sweep", _PHOTONIC_SCHEMA, _photonic),
    "econ": ("CAPEX/OPEX economics tables", _ECON_SCHEMA, _econ),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "heavyhash":
            return _heavyhash(args)
        return _run_command(args)
    except (photonic.DecompositionError, photonic.NumericError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError, netsim.ConfigurationError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
