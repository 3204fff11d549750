"""The records of every README command, pinned.

Each command runs through `opow.cli.main` at `--threads 2` and seed 0, with
the README's configs.  The sha256 of its records after the header (the
header carries a wall-clock timestamp) must match the manifest in
`tests/fixtures/readme_records.json`.  A change that moves these bytes on
purpose regenerates the manifest with
`PYTHONPATH=src python3 tests/test_readme_records.py`
and says which command's bytes moved, and why.

The `photonic` synthesis record's `scale` and `reconstruction_residual` come
from LAPACK's SVD, whose last bits may differ between builds: `scale` is
checked to a relative 1e-12 and the residual below 1e-8, and every other
field of every record exactly.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from opow.cli import main

MANIFEST = Path(__file__).resolve().parent / "fixtures" / "readme_records.json"

MINE_CFG = "target_exponent = 252     # target = 2^252\nnonce_count = 65536\n"

# name -> (argv after the global flags, config text or None)
COMMANDS = {
    "heavyhash": (["heavyhash", ""], None),
    "heavyhash-identity": (["heavyhash", "00ff", "--identity"], None),
    "mine": (["mine"], MINE_CFG),
    "verify": (["verify"], None),  # the header that `mine` finds
    "chainsim": (["chainsim"], "hashrate = 1e6\ninitial_interval = 9600\nn_windows = 5\n"),
    "attack": (["attack"], "q = 0.3\nz = 6\nruns = 100000\n"),
    "attack-scenario": (["attack"], (
        "miners = h1:0.35, h2:0.35, att:0.3:attacker\n"
        "mean_block_interval = 1\nhorizon_blocks = 2000\nconfirmations = 6\n"
        "runs = 200\n")),
    "photonic": (["photonic"], "dim = 64\nsamples = 1000\nphase_sigmas = 0,0.01,0.05,0.1\n"),
    "econ": (["econ"], "mode = resilience\nopex_shares = 0.1,0.9\n"),
}

# Fields of the photonic synthesis record that LAPACK computes.
_LAPACK_FIELDS = ("scale", "reconstruction_residual")


def _run(tmp_path: Path, name: str, argv: list[str], config: str | None) -> list[str]:
    out = tmp_path / f"{name}.out"
    flags = ["--seed", "0", "--threads", "2", "--output", str(out)]
    if config is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        flags += ["--config", str(cfg)]
    assert main(flags + argv) == 0
    return out.read_text().splitlines()


def records_after_header(tmp_path: Path, name: str) -> list[str]:
    """The output lines of one README command that carry no wall-clock time."""
    argv, config = COMMANDS[name]
    if name == "verify":
        mined = json.loads(_run(tmp_path, "mine", ["mine"], MINE_CFG)[1])
        config = f"header_hex = {mined['header_hex']}\n"
    lines = _run(tmp_path, name, argv, config)
    return lines if name.startswith("heavyhash") else lines[1:]


def pin(name: str, lines: list[str]) -> dict:
    """The manifest entry for one command's lines."""
    entry = {}
    if name == "photonic":
        synthesis = json.loads(lines[0])
        entry = {field: synthesis.pop(field) for field in _LAPACK_FIELDS}
        lines = [json.dumps(synthesis, sort_keys=True)] + lines[1:]
    entry["sha256"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return entry


@pytest.mark.parametrize("name", list(COMMANDS))
def test_readme_command_records_are_pinned(tmp_path, name):
    expected = json.loads(MANIFEST.read_text())[name]
    got = pin(name, records_after_header(tmp_path, name))
    assert got["sha256"] == expected["sha256"]
    if name == "photonic":
        assert got["scale"] == pytest.approx(expected["scale"], rel=1e-12)
        assert got["reconstruction_residual"] < 1e-8


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: pin(name, records_after_header(Path(tmp), name))
                    for name in COMMANDS}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
