import random

import numpy as np
import pytest

from conftest import to_codes
from gfi.bwt import suffix_array
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
    # Node 2 would be its own child: the child counts of nodes 0..1 sum to 1, not 2.
    with pytest.raises(ValueError, match="sum to the node count"):
        ShortPatternTrie(child_counts=[1, 0], edges=[1, 1], counts=[2, 1])
    # Node 1 would be its own child: the root has none.
    with pytest.raises(ValueError, match="sum to the node count"):
        ShortPatternTrie(child_counts=[0], edges=[1], counts=[1])
    with pytest.raises(ValueError, match="differ in length"):
        ShortPatternTrie(child_counts=[1, 1], edges=[1, 1], counts=[2])
    # Node 2's children would be nodes 2 and 3: a node listed before its parent.
    with pytest.raises(ValueError, match="earlier node"):
        ShortPatternTrie(child_counts=[1, 0, 2], edges=[1, 1, 2], counts=[2, 1, 1])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie(child_counts=[2, 0], edges=[2, 1], counts=[1, 1])
    with pytest.raises(ValueError, match="strictly increase"):
        ShortPatternTrie(child_counts=[2, 2, 0, 0], edges=[1, 2, 1, 1], counts=[2, 1, 1, 1])


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
        parents = np.repeat(np.arange(trie.node_count), trie.child_counts)
        for node in range(1, trie.node_count + 1):
            parent = int(parents[node - 1])
            label[node] = label[parent] + bytes([int(trie.edges[node - 1])])
            children_sum[parent] += int(trie.counts[node - 1])
        for node in range(1, trie.node_count + 1):
            if len(label[node]) == lam - 1:
                continue  # no children stored below the trie depth
            tail = 1 if raw.endswith(label[node]) else 0
            assert int(trie.counts[node - 1]) == children_sum[node] + tail
