import hashlib
import random

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
    with pytest.raises(ValueError, match="level 1's child counts must lie in 0..1 and sum to 1"):
        ShortPatternTrie([([1], [2], [0]), ([1], [1])])
    # A level-2 node would be its own child: its level-1 parents have none.
    with pytest.raises(ValueError, match="level 1's child counts must lie in 0..1 and sum to 1"):
        ShortPatternTrie([([1, 2], [1, 1], [0, 0]), ([1], [1])])
    # Counts past the next level's rows whose int64 sum wraps to them: their
    # child slices crashed the interpreter.
    with pytest.raises(ValueError, match="lie in 0..3"):
        ShortPatternTrie([([1, 2, 3], [1] * 3, [2**63 - 1, 2**63 - 1, 5]), ([1, 2, 3], [1] * 3)])
    with pytest.raises(ValueError, match="differ in length"):
        ShortPatternTrie([([1, 1], [2])])
    # Node 2 listed before its parent, here a level-2 node with children
    # of its own but no parent: level 1's child counts sum to 0, not 1.
    with pytest.raises(ValueError, match="level 1's child counts must lie in 0..1 and sum to 1"):
        ShortPatternTrie([([1], [2], [0]), ([1], [1], [1]), ([2], [1])])
    with pytest.raises(ValueError, match="level 2 holds no nodes"):
        ShortPatternTrie([([1], [1], [0]), ([], [])])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie([([2, 1], [1, 1])])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie([([1, 2], [2, 1], [2, 0]), ([1, 1], [1, 1])])


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
    """A node's count equals its children's counts plus one when the node's
    label is the text suffix of that length (the occurrence nothing extends)."""
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(5, 200)
        text = np.array([rng.randint(1, 3) for _ in range(n)])
        lam = rng.randint(3, 6)
        trie = ShortPatternTrie.build(text, lam)
        raw = text.astype(np.uint8).tobytes()
        label = {0: b""}
        children_sum = {node: 0 for node in range(trie.node_count + 1)}
        parents = np.repeat(np.arange(trie.node_count + 1), np.diff(trie.kids))
        for node in range(1, trie.node_count + 1):
            parent = int(parents[node - 1])
            label[node] = label[parent] + bytes([int(trie.edges[node - 1])])
            children_sum[parent] += int(trie.counts[node - 1])
        for node in range(1, trie.node_count + 1):
            if len(label[node]) == lam - 1:
                continue  # no children stored below the trie depth
            tail = 1 if raw.endswith(label[node]) else 0
            assert int(trie.counts[node - 1]) == children_sum[node] + tail


def _brute_force_levels(s: list, lam: int) -> list[list[list]]:
    """Per level, from a dict of k-mer counts sorted level by level: the
    edges and counts and, above the deepest level, child counts."""
    depth = min(lam - 1, len(s))
    kmers = {}
    for k in range(1, depth + 1):
        for i in range(len(s) - k + 1):
            kmer = tuple(s[i : i + k])
            kmers[kmer] = kmers.get(kmer, 0) + 1
    children = {kmer: 0 for kmer in kmers}
    for kmer in kmers:
        if len(kmer) > 1:
            children[kmer[:-1]] += 1
    levels = []
    for k in range(1, depth + 1):
        nodes = sorted(kmer for kmer in kmers if len(kmer) == k)
        levels.append([[kmer[-1] for kmer in nodes], [kmers[kmer] for kmer in nodes]])
        if k < depth:
            levels[-1].append([children[kmer] for kmer in nodes])
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


# Node count, sha256 of the format-3 trie section (one column set per
# level), and sha256 of the built child-count, edge and count columns as
# int64, each joined across the levels, the child counts of nodes 0..n-1
# with the root's first; the column digests were recorded before the file
# stored the trie level by level, so they pin the build across that change.
PINNED_TRIE_SECTIONS = {
    4: (
        84,
        "822dc8890b545e29f744a37706af18f17235e67dca3ed406f2e9f86f2361c836",
        "45893fdc3c15695b0ed311e67c9f2db0f87d8cbb404abb4b000c6b37b649efc1",
    ),
    8: (
        12974,
        "7bf65cdbd68f48656021115b353f72e02e06baa625b1bc21f13652a3c6a71c8b",
        "eeed1a68e209102c858d3be4ad77a347354db096de74dd9d4494ac4053202c22",
    ),
    16: (
        129315,
        "dd71d5a84fcd03061732deb38c448556c9cc75fc29c040421267c9e2ac90f038",
        "7724ad329d7ac0c02c4b3523db4d528fc99f7a220ee6449e2b0e505601a97dcf",
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
        for column in (np.diff(trie.kids)[:-1], trie.edges, trie.counts):
            columns.update(np.asarray(column).astype("<i8").tobytes())
        assert columns.hexdigest() == columns_digest
