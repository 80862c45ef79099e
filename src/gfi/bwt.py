"""Suffix array and BWT construction over integer-alphabet strings.

The terminator is code 0, strictly smaller than every symbol.  Suffix
arrays are built by prefix doubling on numpy lexsorts, which keeps the
benchmark-scale builds (hundreds of thousands of symbols) in the second
range without native code.
"""

from __future__ import annotations

import numpy as np


def suffix_array(s) -> np.ndarray:
    """1-based suffix array of s with the terminator 0 appended.

    Returns a permutation of 1..len(s)+1; entry i is the start position of
    the i-th lexicographically smallest suffix of s·0.
    """
    t = np.concatenate([np.asarray(s, dtype=np.int64), [0]])
    n = len(t)
    if n == 1:
        return np.array([1], dtype=np.int64)
    rank = t.copy()
    k = 1
    order = np.argsort(rank, kind="stable")
    while True:
        key2 = np.zeros(n, dtype=np.int64)
        key2[:-k] = rank[k:] + 1
        order = np.lexsort((key2, rank))
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (rank[order[1:]] != rank[order[:-1]]) | (
            key2[order[1:]] != key2[order[:-1]]
        )
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(changed)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            break
        k *= 2
    return order + 1


def bwt_of(s) -> np.ndarray:
    """BWT of s·0: entry i is the symbol preceding the i-th smallest suffix.

    The suffix equal to the whole string wraps around to the terminator.
    """
    t = np.concatenate([np.asarray(s, dtype=np.int64), [0]])
    sa = suffix_array(s)
    return t[sa - 2]


def run_count(seq) -> int:
    """Number of maximal equal-symbol runs."""
    seq = np.asarray(seq)
    if len(seq) == 0:
        return 0
    return int(np.count_nonzero(seq[1:] != seq[:-1])) + 1
