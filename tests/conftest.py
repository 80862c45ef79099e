import pytest

from gfi.index import build_index
from gfi.oracle import gen_artificial


@pytest.fixture(scope="session")
def running_example_index():
    return build_index(b"bacabacaacbcbc", 4, with_baseline=True)


@pytest.fixture(scope="session")
def artificial_text():
    return gen_artificial(1.0, 42)


@pytest.fixture(scope="session")
def artificial_index(artificial_text):
    return build_index(artificial_text, 4, with_baseline=True)


def to_codes(s: bytes) -> bytes:
    """Letters a.. to code bytes 1.. for hand-written test inputs."""
    return bytes(c - 96 for c in s)
