import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from conftest import to_codes
from gfi.bwt import suffix_array
from gfi.index import build_index, load_index, save_index, section_sizes
from gfi.shorttrie import ShortPatternTrie


def test_counts_running_example():
    trie = ShortPatternTrie.build(list(to_codes(b"bacabacaacbcbc")), 4)
    assert trie.count(bytes([1])) == 5  # a
    assert trie.count(bytes([2, 3])) == 2  # bc
    assert trie.count(bytes([3, 3])) == 0
    assert trie.count(bytes([26, 26])) == 0
    assert trie.count(bytes([1, 3, 1])) == 2  # aca
    assert trie.count(bytes([1, 3, 1, 2])) == 0  # acab occurs, but is longer than the depth
    assert trie.count(b"") == 0
    assert trie.count(bytes([0])) == 0
    assert trie.count(bytes([255])) == 0
    assert trie.count(bytes([1, 255])) == 0


def test_depth_zero_trie_is_empty():
    trie = ShortPatternTrie.build(list(to_codes(b"abc")), 1)
    assert trie.node_count == 0


def test_rejects_malformed_node_arrays():
    # Node 2 would be its own child: level 1's child counts sum to 0, not 1.
    with pytest.raises(ValueError, match="level 1's child counts must lie in 1..1 and sum to 1"):
        ShortPatternTrie([([1], [0]), ([1], [1])])
    # A level-2 node would be its own child: its level-1 parents have none.
    with pytest.raises(ValueError, match="level 1's child counts must lie in 1..1 and sum to 1"):
        ShortPatternTrie([([1, 2], [0, 0]), ([1], [1])])
    # Counts past the next level's rows whose int64 sum wraps to them: their
    # child slices crashed the interpreter.
    with pytest.raises(ValueError, match="lie in 1..3"):
        ShortPatternTrie([([1, 2, 3], [2**63 - 1, 2**63 - 1, 5]), ([1, 2, 3], [1] * 3)])
    with pytest.raises(ValueError, match="differ in length"):
        ShortPatternTrie([([1, 1], [2])])
    # Node 2 listed before its parent, here a level-2 node with children
    # of its own but no parent: level 1's child counts sum to 0, not 1.
    with pytest.raises(ValueError, match="level 1's child counts must lie in 1..1 and sum to 1"):
        ShortPatternTrie([([1], [0]), ([1], [1]), ([2], [1])])
    with pytest.raises(ValueError, match="level 2 holds no nodes"):
        ShortPatternTrie([([1], [0]), ([], [])])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie([([2, 1], [1, 1])])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie([([1], [2]), ([1, 1], [1, 1])])
    # A deepest node spells no window, or the windows' int64 sum wraps.
    with pytest.raises(ValueError, match="level 2's windows must be 1 or more"):
        ShortPatternTrie([([1], [1]), ([1], [0])])
    with pytest.raises(ValueError, match="summing in int64"):
        ShortPatternTrie([([1, 2], [2**62, 2**62])])


def test_counts_match_naive_and_suffix_array():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 300)
        sigma = rng.choice([2, 3, 4, 255])
        text = np.array([rng.randint(1, sigma) for _ in range(n)])
        lam = rng.randint(2, 16)
        trie = ShortPatternTrie.build(text, lam)
        s = text.tolist()
        sa = suffix_array(text)
        t = s + [0]
        for _ in range(40):
            m = rng.randint(1, lam - 1)
            if m <= n and rng.random() < 0.5:
                i = rng.randint(0, n - m)
                p = s[i : i + m]
            else:
                p = [rng.randint(1, sigma) for _ in range(m)]
            naive = sum(1 for i in range(len(s) - m + 1) if s[i : i + m] == p)
            via_sa = sum(1 for pos in sa.tolist() if t[pos - 1 : pos - 1 + m] == p)
            assert naive == via_sa
            assert trie.count(bytes(p)) == naive


def test_node_counts_are_consistent():
    """A node's count, the windows below it, is its children's counts summed
    and the number of text positions whose next codes, 0 past the text's
    end, spell the node's label; ``count`` reads it for every label."""
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(5, 200)
        text = np.array([rng.randint(1, 3) for _ in range(n)])
        lam = rng.randint(3, 6)
        trie = ShortPatternTrie.build(text, lam)
        padded = text.astype(np.uint8).tobytes() + bytes(lam)
        nodes, below = trie.node_count, np.diff(trie.kids)  # the deepest nodes' are windows
        parents = np.repeat(np.arange(nodes + 1), below)[:nodes]
        label = [b""]
        for node in range(1, nodes + 1):
            label.append(label[parents[node - 1]] + bytes([int(trie.edges[node - 1])]))
        windows = [0] * (nodes + 1)
        for node in range(nodes, -1, -1):  # each node's children come after it
            if len(label[node]) == len(trie.levels):
                windows[node] = int(below[node])
            if node:
                windows[parents[node - 1]] += windows[node]
        assert windows[0] == n
        for node in range(1, nodes + 1):
            k = len(label[node])
            assert windows[node] == sum(padded[i : i + k] == label[node] for i in range(n))
            if 0 not in label[node]:
                assert trie.count(label[node]) == windows[node]


def _brute_force_levels(s: list, lam: int) -> list[list[list]]:
    """Per level, from the text's windows counted in a dict: the sorted
    nodes' edges and child counts, the children of a deepest node being
    the windows that spell it."""
    depth = min(lam - 1, len(s))
    padded = s + [0] * depth
    windows = [tuple(padded[i : i + depth]) for i in range(len(s))]
    levels = []
    for k in range(1, depth + 1):
        if k == depth:
            below = Counter(windows)
        else:
            below = Counter(w[:k] for w in {w[: k + 1] for w in windows})
        nodes = sorted(below)
        levels.append([[node[-1] for node in nodes], [below[node] for node in nodes]])
    return levels


def _texts(rng: random.Random, sigma: int, n: int):
    yield [rng.randint(1, sigma) for _ in range(n)]
    period = [rng.randint(1, sigma) for _ in range(rng.randint(1, 5))]
    yield (period * n)[:n]
    runs = []
    while len(runs) < n:
        runs += [rng.randint(1, sigma)] * rng.randint(1, 40)
    yield runs[:n]


def test_columns_equal_brute_force_trie():
    """Every level's columns equal a trie built in plain Python, from one level to
    several blocks of levels, on random, periodic and unary-run texts and
    on texts shorter than the trie's depth."""
    rng = random.Random(20)
    cases = [
        (sigma, lam, n)
        for sigma in (1, 2, 4, 16, 255)
        for lam in (1, 2, 3, 8, 9, 12, 20, 64, 255)
        for n in (1, 6, 90)
    ]
    # Three blocks: 7 levels of 8-bit codes fit one int64 key, and then 6
    # more behind each depth rank of about 1,000 nodes.
    cases.append((255, 20, 1000))
    for sigma, lam, n in cases:
        for s in _texts(rng, sigma, n):
            trie = ShortPatternTrie.build(np.array(s, dtype=np.uint8), lam)
            got = [[np.asarray(column).tolist() for column in level] for level in trie.levels]
            assert got == _brute_force_levels(s, lam), (sigma, lam, n, s[:20])


@pytest.mark.parametrize(
    "sigma, lam, n, sorts",
    [(255, 8, 1000, 1), (4, 27, 1000, 1), (4, 28, 1000, 2), (255, 20, 1000, 3)],
)
def test_one_sort_per_block_of_levels(monkeypatch, sigma, lam, n, sorts):
    """A block packs as many levels as keep its keys below 2^62: all seven
    levels of a byte alphabet at lambda 8 and 26 of a 4-letter one take one
    sort."""
    rng = random.Random(lam)
    text = np.array([rng.randint(1, sigma) for _ in range(n - 1)] + [sigma], dtype=np.uint8)
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    trie = ShortPatternTrie.build(text, lam)
    assert len(calls) == sorts
    assert len(trie.levels) == lam - 1


def test_rejects_code_zero():
    with pytest.raises(ValueError, match="at least 1"):
        ShortPatternTrie.build(np.array([1, 0, 2]), 3)


# Node count, sha256 of the format-4 trie section (two columns per level),
# and sha256 of the built child-count and edge columns as int64, each joined
# across the levels, the child counts of nodes 0..n with the root's first
# and the deepest nodes' windows last.  The built columns were checked
# against ``_brute_force_levels`` when these were recorded.
PINNED_TRIE_SECTIONS = {
    4: (
        87,
        "606c058ddf9f42223e02b81e019cfd8e2c36246d96fe70b3f1fc6d1e89e72c1f",
        "f91b1a91090096d25ee07a019b684d751d49de4deb4217c069073fd28b6b557b",
    ),
    8: (
        12995,
        "7697f9ae6808aefeae4db04b4949c69439dfb2b9c5b30d79abccddb53b301b1b",
        "f51defca867f696ca03bd2f35f2a849358df30b1ffadb34ad7ce111494e43383",
    ),
    16: (
        129420,
        "f49c5022bc92a9fc4576accabb4bc10b634d7f7cc5e241de83882daacbd7c88a",
        "4dbddb0a715e5d33acfadaa95bacb1c7c3c77fbb1c25957ebb4d696c554e014c",
    ),
}


@pytest.mark.parametrize("lam", sorted(PINNED_TRIE_SECTIONS))
def test_trie_section_pinned_on_generated_corpus(artificial_text, lam):
    """The trie of the first 100,000 bytes of the generated corpus: a faster
    build must build the same columns and write the same file, and a file
    layout must load back the columns the build made."""
    nodes, section_digest, columns_digest = PINNED_TRIE_SECTIONS[lam]
    index = build_index(artificial_text[:100_000], lam)
    blob = save_index(index)
    sizes = section_sizes(index)
    names = list(sizes)
    at = sum(sizes[name] for name in names[: names.index("short_trie")])
    section = blob[at : at + sizes["short_trie"]]
    assert index.trie.node_count == nodes
    assert hashlib.sha256(section).hexdigest() == section_digest
    for trie in (index.trie, load_index(blob).trie):
        columns = hashlib.sha256()
        for column in (np.diff(trie.kids), trie.edges):
            columns.update(np.asarray(column).astype("<i8").tobytes())
        assert columns.hexdigest() == columns_digest
