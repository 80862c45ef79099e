import random
import struct
import zlib

import numpy as np
import pytest

from gfi.index import build_index, load_index, save_index, section_sizes
from gfi.oracle import gen_artificial
from gfi.rlfm import RLFMIndex
from gfi.shorttrie import ShortPatternTrie


@pytest.fixture(scope="session")
def running_example_index():
    return build_index(b"bacabacaacbcbc", 4, with_baseline=True)


@pytest.fixture(scope="session")
def artificial_text():
    return gen_artificial(1.0, 42)


@pytest.fixture(scope="session")
def artificial_index(artificial_text):
    return build_index(artificial_text, 4, with_baseline=True)


@pytest.fixture
def rlfm_inits(monkeypatch):
    """Every RLFMIndex constructed during the test, in order."""
    inits = []
    init = RLFMIndex.__init__

    def counted_init(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RLFMIndex, "__init__", counted_init)
    return inits


# Chunk sizes past the 1..8 of the acceptance suite, up to the format's 255.
LARGE_LAMBDAS = (9, 16, 31, 64, 255)


def full_byte_text():
    """All 255 codes once, shuffled so that no factor grows long, then 200 random ones."""
    rng = random.Random(255)
    return bytes(rng.sample(range(1, 256), 255)) + bytes(rng.randint(1, 255) for _ in range(200))


# Code strings at the edges of the dictionary's shapes, checked at large chunk sizes.
EDGE_TEXTS = {
    "unary": bytes([1]) * 300,  # one factor, chunked into rules of lam codes
    "full-byte": full_byte_text(),
    "empty": b"",  # one rule, the empty string
}


def to_codes(s: bytes) -> bytes:
    """Letters a.. to code bytes 1.. for hand-written test inputs."""
    return bytes(c - 96 for c in s)


def reseal(blob: bytes) -> bytes:
    """The index file with its CRC-32 trailer recomputed over the rest, so
    that only the structural checks can reject a patched file."""
    body = blob[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def corrupt_trie_rows(blob: bytes, damage: str) -> bytes:
    """The index file with its first two trie nodes (the level-1 nodes for
    codes 1 and 2) given swapped edge codes, or the second node the first
    node's edge code, or the second node one child too many; resealed."""
    sizes = section_sizes(load_index(blob))
    trie = sum(sizes[name] for name in ("header", "alphabet", "grammar", "level1_bwt"))
    (rows,) = struct.unpack_from("<I", blob, trie + 1)  # level 1's, after the level count
    edges = trie + 6  # after the row count and the column's width byte
    child_counts = edges + rows + 1
    assert blob[edges - 1] == blob[child_counts - 1] == 1  # both columns one byte wide
    assert blob[edges : edges + 3] == b"\x01\x02\x03"
    out = bytearray(blob)
    if damage == "swapped":
        out[edges : edges + 2] = b"\x02\x01"
    elif damage == "duplicated":
        out[edges + 1] = 1
    else:
        out[child_counts + 1] += 1  # b has children a and c; a already has all three
    return reseal(bytes(out))


def relabelled_trie_index(text: bytes, lam: int, damage: str) -> bytes:
    """The index file of ``text`` at ``lam`` with a well-formed but wrong
    trie, sealed by ``save_index``: the root's last edge, or node 1's last
    child edge (depth 2), relabelled to sigma + 1, which keeps every sibling
    list increasing; or the window counts of the first and the last deepest
    node swapped, which keeps every level's shape."""
    idx = build_index(text, lam, with_baseline=True)
    levels = [[np.array(column) for column in level] for level in idx.trie.levels]
    (edges, child_counts), (deep_edges, _) = levels[:2]
    if damage == "root_edge":
        edges[-1] = idx.alphabet.size + 1
    elif damage == "deep_edge":
        deep_edges[child_counts[0] - 1] = idx.alphabet.size + 1
    else:
        windows = levels[-1][1]
        windows[[0, -1]] = windows[[-1, 0]]
    idx.trie = ShortPatternTrie(levels)
    return save_index(idx)
