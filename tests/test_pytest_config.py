"""The suite's own pytest configuration, run on a tiny suite of its own."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_PAIR = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_neighbour_passes():
    pass
'''


def test_failing_property_does_not_end_the_run(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while Hypothesis
    # reports a failure used to end the run with an INTERNALERROR, so every
    # test after a red property went unrun.
    (tmp_path / "test_pair.py").write_text(_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
