import numpy as np
import pytest

from gfi.index import build_index, load_index, section_sizes
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


def corrupt_trie_rows(blob: bytes, damage: str) -> bytes:
    """The index file with its first two trie rows (the level-1 nodes for
    codes 1 and 2) given swapped edge codes, or the second row the first
    row's edge code."""
    sizes = section_sizes(load_index(blob))
    rows = 4 + sum(sizes[name] for name in ("header", "alphabet", "grammar", "level1_bwt"))
    fields = np.frombuffer(blob, dtype="<u4", count=6, offset=rows).copy()
    assert fields[[0, 1, 3, 4]].tolist() == [0, 1, 0, 2]  # (parent, edge) of both rows
    if damage == "swapped":
        fields[1], fields[4] = fields[4], fields[1]
    else:
        fields[4] = fields[1]
    return blob[:rows] + fields.tobytes() + blob[rows + fields.nbytes :]
