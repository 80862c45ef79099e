import itertools
import random

import numpy as np
import pytest

from conftest import to_codes
from gfi import grammar as gm
from gfi.xbwt import build_xbwt


def running_grammar(lam=4):
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), lam)
    return g


def test_arrays_running_example():
    trie = build_xbwt(running_grammar())
    # edge labels down the row table; 0 is the leaf terminator
    assert trie.L.tolist() == [2, 3, 0, 0, 0, 1, 0, 1, 0, 1, 2]
    assert trie.last.tolist() == [0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1]


def test_single_rule_grammar():
    g = gm.Grammar(lam=2, rhs=[bytes([1])])
    trie = build_xbwt(g)
    assert trie.L.tolist() == [1, 0]
    assert trie.last.tolist() == [1, 1]
    assert trie.leaf_order().tolist() == [1]


def test_empty_grammar():
    trie = build_xbwt(gm.Grammar(lam=2, rhs=[]))
    assert trie.L.tolist() == [] and trie.last.tolist() == []
    assert trie.leaf_order().tolist() == []
    lo, hi = trie.prefix_range(bytes([1]))
    assert lo > hi


def test_prefix_range_examples():
    trie = build_xbwt(running_grammar())
    assert trie.prefix_range(bytes([1])) == (1, 3)  # a -> A, B, C
    assert trie.prefix_range(bytes([1, 1])) == (1, 1)  # aa -> A only
    lo, hi = trie.prefix_range(bytes([4]))
    assert lo > hi


def test_leaf_order_matches_colex_permutation():
    g = running_grammar()
    trie = build_xbwt(g)
    assert trie.leaf_order().tolist() == [4, 2, 3, 1, 5]
    assert trie.leaf_order().tolist() == g.colex_to_lex.tolist()


def test_row_shape_invariants():
    g = running_grammar()
    trie = build_xbwt(g)
    assert len(trie.L) == len(trie.last)
    assert int(np.count_nonzero(trie.L == 0)) == len(g.rhs)
    # every node contributes one row per child
    edges = sum(1 for _ in trie.L)
    internal = int(trie.last.sum())
    assert edges >= internal


def assert_prefix_ranges_agree(g, trie, queries):
    for q in queries:
        want = g.prefix_range(q)
        got = trie.prefix_range(q)
        if want[0] > want[1]:
            assert got[0] > got[1], (g.lam, q)
        else:
            assert got == want, (g.lam, q)


def test_agrees_with_sparse_dictionary_exhaustively():
    rng = random.Random(16)
    for _ in range(120):
        sigma = rng.choice([2, 3])
        lam = rng.choice([1, 2, 3])
        n = rng.randint(2, 60)
        text = bytes(rng.randint(1, sigma) for _ in range(n))
        g, _ = gm.build(text, lam)
        trie = build_xbwt(g)
        assert trie.leaf_order().tolist() == g.colex_to_lex.tolist()
        for k in range(1, lam + 1):
            queries = map(bytes, itertools.product(range(1, sigma + 1), repeat=k))
            assert_prefix_ranges_agree(g, trie, queries)


def full_byte_text():
    """All 255 codes once, shuffled so that no factor grows long, then 200 random ones."""
    rng = random.Random(255)
    return bytes(rng.sample(range(1, 256), 255)) + bytes(rng.randint(1, 255) for _ in range(200))


EDGE_TEXTS = {
    "unary": bytes([1]) * 300,  # one factor, chunked into rules of lam codes
    "full-byte": full_byte_text(),
    "empty": b"",  # one rule, the empty string
}


@pytest.mark.parametrize("lam", [9, 64, 255])
@pytest.mark.parametrize("name", EDGE_TEXTS)
def test_agrees_with_sparse_dictionary_at_edge_shapes(name, lam):
    g, _ = gm.build(EDGE_TEXTS[name], lam)
    trie = build_xbwt(g)
    assert trie.leaf_order().tolist() == g.colex_to_lex.tolist()
    # every substring of every rule, the empty one included, and some non-rules
    queries = {s[i:j] for s in g.rhs for i in range(len(s) + 1) for j in range(i, len(s) + 1)}
    queries |= {bytes([0]), bytes([1, 0, 1]), bytes([2]), bytes([1]) * (lam + 1), bytes([255]) * 4}
    assert_prefix_ranges_agree(g, trie, sorted(queries))


def test_deep_rules_beyond_chunk_bound_still_searchable():
    # hand-built grammar with rules longer than one another
    g = gm.Grammar(lam=4, rhs=[bytes([1, 1, 2]), bytes([1, 2]), bytes([2, 1, 1, 2])])
    trie = build_xbwt(g)
    assert trie.prefix_range(bytes([1, 1])) == (1, 1)
    assert trie.prefix_range(bytes([1])) == (1, 2)
    assert trie.prefix_range(bytes([2, 1, 1, 2])) == (3, 3)
