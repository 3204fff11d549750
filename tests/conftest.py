import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from opow.heavyhash import generate_matrix  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def golden() -> dict:
    values = {}
    for line in (FIXTURES / "golden.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@pytest.fixture(scope="session")
def m0():
    """Consensus matrix derived from the all-zero seed."""
    return generate_matrix(bytes(32))


@pytest.fixture(scope="session")
def m0_synthesis(m0):
    from opow.photonic import svd_synthesize

    return svd_synthesize(m0)
