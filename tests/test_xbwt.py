import itertools
import random

import numpy as np

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
    assert trie.leaf_count == 5


def test_single_rule_grammar():
    g = gm.Grammar(lam=2, rhs=[bytes([1])])
    trie = build_xbwt(g)
    assert trie.L.tolist() == [1, 0]
    assert trie.last.tolist() == [1, 1]
    assert trie.leaf_order().tolist() == [1]


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
            for q in itertools.product(range(1, sigma + 1), repeat=k):
                qb = bytes(q)
                want = g.prefix_range(qb)
                got = trie.prefix_range(qb)
                if want[0] > want[1]:
                    assert got[0] > got[1], (text, lam, qb)
                else:
                    assert got == want, (text, lam, qb)


def test_deep_rules_beyond_chunk_bound_still_searchable():
    # hand-built grammar with rules longer than one another
    g = gm.Grammar(lam=4, rhs=[bytes([1, 1, 2]), bytes([1, 2]), bytes([2, 1, 1, 2])])
    trie = build_xbwt(g)
    assert trie.prefix_range(bytes([1, 1])) == (1, 1)
    assert trie.prefix_range(bytes([1])) == (1, 2)
    assert trie.prefix_range(bytes([2, 1, 1, 2])) == (3, 3)
