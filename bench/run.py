"""opow benchmark: the mine, sync and study op families from one process.

    python3 bench/run.py --workload mine --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and the reference oracles from `tests/`.  Every run interleaves all
three op families (so every end-to-end metric is measured in every run)
until `--seconds` have passed and each family has its minimum sample; the
family the workload names gets a larger share of the time.  `--trace 1`
wraps each layer's public functions and reports the per-layer metrics
instead; end-to-end numbers come only from untraced runs.  The last line of
standard output is the JSON result; bench/WORKLOADS.md describes it all.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # every run compiles the same way

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mine", "sync", "study")
SETUP_REPEATS = 3     # sync fixtures built per run; setup_s takes the median build
# Share of the measured time each family gets: the seconds its minimum
# sample takes on a 2-core Xeon, with the named workload's family given half
# as much again, so the others reach their minimum when the run ends.
WEIGHTS = {"mine": 9.5, "sync": 10.4, "study": 10.4}
PRIMARY_BOOST = 1.5


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _import_program():
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "opow" / "__init__.py").is_file() or \
            not (tests / "reference_oracles.py").is_file():
        sys.exit(f"bench: no opow source tree under {ROOT}; "
                 "run from the root of a checkout")
    sys.path[:0] = [str(src), str(tests)]
    import opow
    if Path(opow.__file__).resolve().parent != (src / "opow").resolve():
        sys.exit(f"bench: imported opow from {opow.__file__}, not from {src}")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _context(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "opow").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": next((f"{k}={os.environ[k]}" for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                              if k in os.environ), "library default (nproc)"),
        "commit": commit, "src_opow_lines": lines,
    }


def main() -> int:
    args = _parse_args()
    _import_program()
    import families
    import inputs
    import tracing

    import_s = time.perf_counter() - _T_START
    builds, fixtures = [], []
    for variant in range(SETUP_REPEATS):
        start = time.perf_counter()
        fixtures.append(inputs.build_sync_fixture(args.seed, variant))
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as work:
        mine = families.MineFamily(args.seed, work)
        sync = families.SyncFamily(fixtures, args.seed, work)
        study = families.StudyFamily(args.seed, work)
        fams = {"mine": mine, "sync": sync, "study": study}
        primary = fams[args.workload]

        mine.op(-1, record=False)  # untimed warm-up op per family
        sync.warm_up()
        study.warm_up()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            overhead = _tracing_overhead(primary, tracer)
            tracer.install()
            for fam in fams.values():
                fam.tracer = tracer

        measured_s = _measure(fams, primary, args.seconds)
        mine.final_checks()

    if tracer is not None:
        tracer.uninstall()
        metrics = _per_layer(tracer, mine, args.seed, overhead)
        out_dir = ROOT / ".bench-out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        # Sums and means, not medians, for ops that repeat the same work: the
        # host's speed flips between two modes (~1.7x apart) every few
        # seconds, and a median of such samples jumps from one mode to the
        # other while a mean moves with the share of time spent in each.
        mean = statistics.fmean
        metrics = {
            "setup_s": (setup_s, "s"),
            "mine.trials_per_s": (mine.trials / mine.mine_seconds, "1/s"),
            "mine.verify_ms_p50": (statistics.median(mine.verify_ms), "ms"),
            "sync.import_blocks_per_s": (sync.imported_blocks / sync.import_seconds,
                                         "1/s"),
            "sync.relay_ms_p50": (statistics.median(sync.relay_ms), "ms"),
            "sync.relay_ms_p99": (_percentile(sync.relay_ms, 0.99), "ms"),
            "study.attack_s": (mean(study.seconds["attack"]), "s"),
            "study.scenario_s": (mean(study.seconds["scenario"]), "s"),
            "study.network_s": (mean(study.seconds["network"]), "s"),
            "study.photonic_s": (mean(study.seconds["photonic"]), "s"),
            "study.total_s": (mean(study.totals), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }

    context = _context(args)
    context.update(measured_s=measured_s, setup_builds_s=builds, import_s=import_s)
    print(json.dumps({"context": context}))
    for name, fam in fams.items():
        ratio = fam.failed / fam.attempted if fam.attempted else 1.0
        print(json.dumps({"family": name, "passes": fam.passes,
                          "attempted": fam.attempted, "failed": fam.failed,
                          "failed_ratio": ratio,
                          "records_sha256": fam.digest.hexdigest(),
                          "failures": fam.failures}))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    attempted = sum(f.attempted for f in fams.values())
    failed = sum(f.failed for f in fams.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _measure(fams: dict, primary, seconds: float) -> float:
    """Interleave the families' slices, each family kept near its share of
    the elapsed time, until `seconds` have passed and every family has its
    minimum sample and no half-done pass."""
    weights = {name: w * (PRIMARY_BOOST if fams[name] is primary else 1)
               for name, w in WEIGHTS.items()}
    used = dict.fromkeys(fams, 0.0)
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        ready = [n for n, f in fams.items() if not (over and f.done)]
        if not ready:
            return time.perf_counter() - start
        name = min(ready, key=lambda n: used[n] / weights[n])
        t = time.perf_counter()
        fams[name].step()
        used[name] += time.perf_counter() - t


def _tracing_overhead(fam, tracer, rounds: int = 4) -> float:
    """Traced over untraced wall time of the family's fixed probe, - 1.

    The two kinds alternate so that both see the same swings in host speed.
    """
    seconds = {False: 0.0, True: 0.0}
    for _ in range(rounds):
        for traced in (False, True):
            if traced:
                tracer.install()
                fam.tracer = tracer
            start = time.perf_counter()
            fam.probe()
            seconds[traced] += time.perf_counter() - start
            if traced:
                tracer.uninstall()
                fam.tracer = None
    tracer.spans.clear()
    tracer.counters.clear()
    return seconds[True] / seconds[False] - 1.0


def _per_layer(tracer, mine, seed: int, overhead: float) -> dict:
    from tracing import self_times

    import families

    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.sid: s.name for s in spans}

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key="n", where=lambda s: True):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()) if where(s))

    def per_call(value, name):
        return value / calls(name) if calls(name) else 0.0

    c = tracer.counters
    hashes = attr_sum("heavyhash.many")
    mine_hashes = attr_sum("heavyhash.many",
                           where=lambda s: names.get(s.parent) == "pow.mine")
    many_us = total("heavyhash.many") / hashes * 1e6 if hashes else 0.0
    floor_us = families.sha256_floor_us(seed)
    batches = by_name.get("photonic.analog_batch", ())
    m = {
        "heavyhash.many.us_per_hash": (many_us, "us"),
        "heavyhash.many.hashes": (hashes, "count"),
        "heavyhash.sha256_floor_us_per_hash": (floor_us, "us"),
        "heavyhash.weighting_share": (1 - floor_us / many_us if many_us else 0.0,
                                      "ratio"),
        "heavyhash.generate_matrix.calls": (calls("heavyhash.generate_matrix"), "count"),
        "heavyhash.generate_matrix.ms_per_call": (
            per_call(total("heavyhash.generate_matrix"), "heavyhash.generate_matrix")
            * 1e3, "ms"),
        "heavyhash.heavyhash.calls": (calls("heavyhash.heavyhash"), "count"),
        "heavyhash.heavyhash.us_per_call": (
            per_call(total("heavyhash.heavyhash"), "heavyhash.heavyhash") * 1e6, "us"),
        "pow.mine.self_s": (self_s("pow.mine"), "s"),
        "pow.mine.useful_ratio": (mine.trials / mine_hashes if mine_hashes else 0.0,
                                  "ratio"),
        "pow.scheduled_target.self_s": (self_s("pow.scheduled_target"), "s"),
    }
    for verdict in ("valid", "orphan", "bad-pow", "bad-timestamp", "double-spend"):
        m[f"chain.add_block.calls.{verdict}"] = (
            sum(1 for s in by_name.get("chain.add_block", ())
                if s.attrs.get("verdict") == verdict), "count")
    m.update({
        "chain.add_block.self_ms": (
            per_call(self_s("chain.add_block"), "chain.add_block") * 1e3, "ms"),
        "chain.ancestors.entries": (c.get("chain.ancestors.entries", 0), "count"),
        "chain.block_from_bytes.self_s": (self_s("chain.block_from_bytes"), "s"),
        "chain.orphans_pooled": (c.get("chain.orphans_pooled", 0), "count"),
        "chain.orphans_accepted": (c.get("chain.orphans_accepted", 0), "count"),
        "chain.reorgs": (c.get("chain.reorgs", 0), "count"),
        "chain.reorg_depth_max": (c.get("chain.reorg_depth_max", 0), "count"),
        "netsim.attack_success_rate.self_s": (self_s("netsim.attack_success_rate"), "s"),
        "netsim.attack_success_rate.replicas": (
            attr_sum("netsim.attack_success_rate"), "count"),
        "netsim.run_scenario.self_s": (self_s("netsim.run_scenario"), "s"),
        "netsim.run_scenario.blocks_created": (attr_sum("netsim.run_scenario"), "count"),
        "photonic.svd_synthesize.self_s": (self_s("photonic.svd_synthesize"), "s"),
        "photonic.clements_decompose.self_s": (self_s("photonic.clements_decompose"), "s"),
        "photonic.synthesis_residual.self_s": (self_s("photonic.synthesis_residual"), "s"),
        "photonic.analog_batch.zero_noise_s": (
            sum(s.end - s.start for s in batches if not s.attrs["noisy"]), "s"),
        "photonic.analog_batch.noisy_s": (
            sum(s.end - s.start for s in batches if s.attrs["noisy"]), "s"),
        "photonic.analog_batch.samples": (attr_sum("photonic.analog_batch"), "count"),
        "photonic.propagate.calls": (calls("photonic.propagate"), "count"),
        "photonic.synthesis_cache_hits": (c.get("photonic.synthesis_cache_hits", 0),
                                          "count"),
        "econ.resilience_curve.self_s": (self_s("econ.resilience_curve"), "s"),
        "configio.load_config.self_s": (self_s("configio.load_config"), "s"),
        "configio.write_records.self_s": (self_s("configio.write_records"), "s"),
        "configio.write_records.bytes": (attr_sum("configio.write_records"), "bytes"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (len(spans), "count"),
    })
    return m


if __name__ == "__main__":
    sys.exit(main())
