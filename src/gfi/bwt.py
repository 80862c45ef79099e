"""Suffix array and BWT construction over integer-alphabet strings.

The terminator is code 0, strictly smaller than every symbol.  Suffix
arrays are built by prefix doubling (Manber and Myers, "Suffix arrays",
SICOMP 1993) that re-sorts only the groups still unsettled, after
Larsson and Sadakane ("Faster suffix sorting", TCS 2007).  The first k
codes of every suffix are packed into one int64 key in base sigma + 1,
with the terminator as padding, for the largest k whose keys stay below
2^62; one argsort of those keys starts the doubling at h = k instead of
h = 1.  A suffix's rank is the sorted position where its group of equal
h-prefixes starts.  Each round sorts only the suffixes in groups of two
or more, by ``rank[u] * n + rank[u + h]``, writes them back in place and
recomputes their group starts with one running maximum; it ends when
every group has one member.  On repetitive texts nearly every suffix
settles within a few hundred characters, so late rounds sort few
suffixes.
"""

from __future__ import annotations

import numpy as np


def suffix_array(s) -> np.ndarray:
    """1-based suffix array of s with the terminator 0 appended.

    Returns a permutation of 1..len(s)+1; entry i is the start position of
    the i-th lexicographically smallest suffix of s·0.  Every code of s
    must be at least 1.
    """
    s = np.asarray(s)
    if len(s) and s.min() < 1:
        raise ValueError("suffix_array needs codes of at least 1; 0 is the terminator")
    n = len(s) + 1
    base = int(s.max()) + 1 if len(s) else 1
    # Pack the first k codes of each suffix (of s·0·0...) into an int64 key
    # read in base, for the largest k whose keys stay below 2^62 but at least
    # one.  Past len(s) codes every suffix differs from every other.
    k = min(1, len(s))
    while k < len(s) and base ** (k + 1) <= 2**62:
        k += 1
    key = np.zeros(n, dtype=np.int64)
    for j in range(k):
        key *= base
        key[: n - 1 - j] += s[j:]
    pos = np.int32 if n < 2**31 else np.int64
    order = np.argsort(key).astype(pos)
    key = key[order]
    rank = np.empty(n, dtype=pos)
    idx = np.arange(n, dtype=pos)  # the sorted positions just re-sorted by key
    u = order  # the suffixes at idx
    h = k
    while True:
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        del key
        group = np.where(head, idx, 0)
        rank[u] = np.maximum.accumulate(group, out=group)
        del u, group
        head[:-1] &= head[1:]  # now marks the groups of one member
        idx = idx[~head]
        del head
        if not len(idx):
            return order + np.int64(1)
        # A suffix in a group of two or more has no terminator in its first
        # h codes, so u + h < n.  The key leads with the group's rank, and
        # each group is a run of idx, so sorting all of idx at once sorts
        # every group inside its own run.  The key is below n^2, so it fits
        # in int64 for n up to 3 * 10^9.
        u = order[idx]
        key = rank[u].astype(np.int64)
        key *= n
        key += rank[u + h]
        del u
        perm = np.argsort(key).astype(pos)
        key = key[perm]
        u = order[idx][perm]
        del perm
        order[idx] = u
        h *= 2


def bwt_of(s) -> np.ndarray:
    """BWT of s·0: entry i is the symbol preceding the i-th smallest suffix.

    The suffix equal to the whole string wraps around to the terminator.
    The result keeps the dtype of ``np.asarray(s)``.
    """
    s = np.asarray(s)
    return np.append(s, s.dtype.type(0))[suffix_array(s) - 2]
