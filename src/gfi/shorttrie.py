"""Exact occurrence counts for every text substring shorter than the chunk size.

Patterns shorter than the chunk size can straddle chunk boundaries in the
text, so they bypass the dictionary search entirely and are answered from
this trie.  It is the trie of the text's windows: each text position i
opens one window, its next D = min(lam-1, n) codes with 0 past the text's
end, and the trie holds the D-code labels of those windows.  Its levels,
depth 1 first, are each two parallel columns over the level's nodes in
lexicographic order: edge code and child count.  The children of a
deepest node are the windows it spells, so every node has at least one
child, and a pattern's count is the number of windows below its node; no
count is stored.  The build makes that form, at the stored widths, and the
index file stores it, which makes the serialized form deterministic.  In
that order, the level-order layout of Jacobson's succinct trees, the
children of a node are one contiguous run of ids with their edge codes
ascending, so one array of child-slice bounds, the running sum of the
child counts, is all a lookup needs: each pattern code is one binary
search over the current node's child edges, and each level below the
pattern's node is two reads.  The build settles that order with one sort
per block of levels: each text position's node rank and next codes packed
into one int64 key, as ``bwt.suffix_array`` packs its first round.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from gfi.bwt import MAX_TEXT_LENGTH
from gfi.rlfm import narrowest


class ShortPatternTrie:
    """Trie of the text's windows of lam-1 codes over the dense alphabet."""

    def __init__(self, levels):
        """The trie from its levels, depth 1 first, each an (edges, child
        counts) pair, kept as they come.  ``count`` reads the int64 child
        slices and a read-only join of the levels' edges."""
        self.levels = levels = [tuple(map(np.asarray, level)) for level in levels]
        rows = [len(edges) for edges, _ in levels]
        self.node_count = n = sum(rows)  # the root and the windows excluded
        if 0 in rows:
            raise ValueError("trie level %d holds no nodes" % (rows.index(0) + 1))
        for d, (edges, below) in enumerate(levels, 1):
            if len(below) != rows[d - 1]:
                raise ValueError("trie level %d's columns differ in length" % d)
            # No count above the next level's row count, so their int64 sum
            # cannot wrap back to it.
            if d < len(levels):
                if not 1 <= below.min() <= below.max() <= rows[d] or below.sum() != rows[d]:
                    message = "trie level %d's child counts must lie in 1..%d and sum to %d"
                    raise ValueError(message % (d, rows[d], rows[d]))
            # No count exceeds the text length, so fewer than 2**32 sum within int64.
            elif below.min() < 1 or below.itemsize > 2 and below.max() > MAX_TEXT_LENGTH:
                message = "trie level %d's window counts must lie in 1..%d"
                raise ValueError(message % (d, MAX_TEXT_LENGTH))
        # Node p's children are the ids kids[p]+1 .. kids[p+1], with edges
        # edges[kids[p]:kids[p+1]]: kids sums the child counts of the root,
        # node 0, and then of every level's nodes, the windows below the
        # deepest numbered after the nodes.
        kids = np.empty(n + 2, dtype=np.int64)
        np.concatenate([[0], rows[:1] or [0], *(below for _, below in levels)], out=kids)
        np.cumsum(kids, out=kids)
        edges = np.concatenate([edges for edges, _ in levels] or [np.zeros(0, dtype=np.uint8)])
        edges.flags.writeable = False
        # Each edge must exceed the one before it unless it starts a sibling run.
        rising = np.ones(n + 1, dtype=bool)
        rising[1:n] = edges[1:] > edges[:-1]
        rising[kids[kids <= n]] = True
        if not rising.all():
            raise ValueError("a trie node's child edges must strictly increase")
        self.kids, self.edges = memoryview(kids), memoryview(edges)

    @classmethod
    def build(cls, text: np.ndarray, lam: int) -> "ShortPatternTrie":
        """The windows' trie, with one sort per block of levels.

        A block starting at depth d keys each text position by its depth-d
        node rank followed by its next j codes in base sigma+1, 0 past the
        text's end, for the largest j whose keys stay below 2^62.  Key
        order is lexicographic order, so one ``np.unique`` settles j levels:
        the depth-(d+i) nodes are the distinct keys without their last j-i
        digits, and a node's child count is the size of its group among the
        nodes below.  The inverse of that sort ranks the positions for the
        next block, and in the last block its counts are the windows below
        each deepest node.  Codes must be at least 1.
        """
        text = np.asarray(text)
        n = len(text)
        if n and text.min() < 1:
            raise ValueError("the trie needs codes of at least 1; 0 pads past the text's end")
        depth, base = min(lam - 1, n), (int(text.max()) + 1 if n else 1)
        edges, below = [], []  # per level, top down: edge codes; child counts from the root's
        rank, d = None, 0  # depth-d node ranks of all n positions; None at the root
        while d < depth:
            top, j = len(edges[-1]) if edges else 1, 1
            while d + j < depth and top * base ** (j + 1) <= 2**62:
                j += 1
            key, first = (text.astype(np.int64), 1) if rank is None else (rank, 0)
            for i in range(first, j):
                key *= base
                key[: n - d - i] += text[d + i :]
            keys, rank = np.unique(key, return_inverse=d + j < depth, return_counts=d + j == depth)
            del key
            for _ in range(j):  # keys: the level d+i nodes, i from j down to 1
                edges.insert(d, keys % base)
                keys //= base
                start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
                below.insert(d, np.diff(start, append=len(keys)))  # level d+i-1's
                keys = keys[start]
            d += j
        below.append(rank)  # the last sort's counts: the windows below each deepest node
        return cls([(narrowest(e), narrowest(b)) for e, b in zip(edges, below[1:])])

    def count(self, codes: bytes) -> int:
        """Occurrences of the code bytes, 0 when no text substring spells
        them or they are empty or longer than the trie's depth."""
        kids, edges, below = self.kids, self.edges, len(self.levels) - len(codes)
        if not codes or below < 0:
            return 0
        node = 0
        for code in codes:
            hi = kids[node + 1]
            j = bisect_left(edges, code, kids[node], hi)
            if j == hi or edges[j] != code:
                return 0
            node = j + 1
        lo = hi = node
        for _ in range(below):
            lo, hi = kids[lo] + 1, kids[hi + 1]
        return kids[hi + 1] - kids[lo]
