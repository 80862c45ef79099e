"""Exact occurrence counts for every text substring shorter than the chunk size.

Patterns shorter than the chunk size can straddle chunk boundaries in the
text, so they bypass the dictionary search entirely and are answered from
this trie.  The trie is its levels, depth 1 first, each a set of
parallel columns over the level's nodes in lexicographic order: edge
code, count and, above the deepest level, child count.  The build makes
that form, at the stored widths, and the index file stores it, which
makes the serialized form deterministic.  In that order, the level-order
layout of Jacobson's succinct trees, the children of a node are one
contiguous run of ids with their edge codes ascending, so one array of
child-slice bounds, the running sum of the child counts, is all a lookup
needs: each pattern code is one binary search over the current node's
child edges.  The build settles that order with one sort per block of
levels: each text position's node rank and next codes packed into one
int64 key, as ``bwt.suffix_array`` packs its first round.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from gfi.rlfm import narrowest


class ShortPatternTrie:
    """Trie of depth lam-1 over the dense alphabet; node counts are exact."""

    def __init__(self, levels):
        """The trie from its levels, depth 1 first, each a tuple of columns,
        kept as they come: its nodes' edges and counts in level order and,
        above the deepest level, their child counts.  ``count`` reads the
        int64 child slices and read-only joins of the levels' edges and counts."""
        self.levels = levels = [tuple(map(np.asarray, level)) for level in levels]
        rows = [len(level[0]) for level in levels]
        self.node_count = n = sum(rows)  # the root excluded
        for d, level in enumerate(levels, 1):
            if any(len(column) != rows[d - 1] for column in level):
                raise ValueError("trie level %d's columns differ in length" % d)
            if not rows[d - 1]:
                raise ValueError("trie level %d holds no nodes" % d)
            if d < len(levels):
                # No count above the next level's row count, so their int64
                # sum cannot wrap back to it.
                below, bound = level[2], rows[d]
                if not 0 <= below.min() <= below.max() <= bound or below.sum() != bound:
                    message = "trie level %d's child counts must lie in 0..%d and sum to %d"
                    raise ValueError(message % (d, bound, bound))
        # Node p's children are the ids kids[p]+1 .. kids[p+1], with edges
        # edges[kids[p]:kids[p+1]]: kids sums the child counts of the root,
        # node 0, and then of the upper levels' nodes; the deepest have none.
        kids = np.full(n + 2, n, dtype=np.int64)
        upper = kids[: 2 + sum(rows[:-1])]
        np.concatenate([[0], rows[:1] or [0], *(level[2] for level in levels[:-1])], out=upper)
        np.cumsum(upper, out=upper)
        empty = [np.zeros(0, dtype=np.uint8)]
        edges, counts = (np.concatenate([level[i] for level in levels] or empty) for i in (0, 1))
        edges.flags.writeable = counts.flags.writeable = False
        # Each edge must exceed the one before it unless it starts a sibling run.
        rising = np.ones(n + 1, dtype=bool)
        rising[1:n] = edges[1:] > edges[:-1]
        rising[kids] = True
        if not rising.all():
            raise ValueError("a trie node's child edges must strictly increase")
        self.kids, self.edges, self.counts = memoryview(kids), memoryview(edges), memoryview(counts)

    @classmethod
    def build(cls, text: np.ndarray, lam: int) -> "ShortPatternTrie":
        """Count all k-mers for k < lam with one sort per block of levels.

        A block starting at depth d keys each text position by its depth-d
        node rank followed by its next j codes in base sigma+1, 0 past the
        text's end, for the largest j whose keys stay below 2^62.  Key
        order is lexicographic order, so one ``np.unique`` settles j levels:
        the depth-(d+i) nodes are the distinct keys without their last j-i
        digits, less those ending in padding.  The levels are read deepest
        first, each one's counts summed from the level below.  Depth 0 keys
        on the codes alone, and positions get new ranks only when another
        block follows.  Codes must be at least 1.
        """
        text = np.asarray(text)
        n = len(text)
        if n and text.min() < 1:
            raise ValueError("the trie needs codes of at least 1; 0 pads past the text's end")
        depth, base = min(lam - 1, n), (int(text.max()) + 1 if n else 1)
        levels = []  # per level, top down: its edges, its counts and, once known, its child counts
        rank, d, size = None, 0, 1  # depth-d ranks of positions 0..n-d-1; level size
        while d < depth:
            top, j = size, 1
            while d + j < depth and top * base ** (j + 1) <= 2**62:
                j += 1
            key = text[d:].astype(np.int64) if rank is None else rank * base + text[d:]
            for i in range(1, j):
                key *= base
                key[: n - d - i] += text[d + i :]
            keys, *inverse, cnt = np.unique(key, return_inverse=d + j < depth, return_counts=True)
            del key
            code = keys % base
            real = code != 0
            size = int(np.count_nonzero(real))
            if inverse:
                rank = (np.cumsum(real) - 1)[inverse.pop()[: n - d - j]]
            block, below = [], ()
            for i in range(j, 0, -1):  # keys, cnt, code, real: level d+i; below: its child counts
                block.append((code[real], cnt[real], *below))
                keys //= base
                if i == 1:
                    break
                start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
                below = np.add.reduceat(real, start, dtype=np.int64)
                keys, cnt = keys[start], np.add.reduceat(cnt, start)
                code = keys % base
                real = code != 0
                below = (below[real],)
            if levels:  # level d's child counts; the root's is level d+1's row count
                levels[-1] += (np.bincount(keys[real], minlength=top),)
            levels += block[::-1]
            d += j
        return cls([tuple(map(narrowest, level)) for level in levels])

    def count(self, codes: bytes) -> int:
        """Occurrences of the code bytes, 0 when no text substring spells them."""
        kids, edges = self.kids, self.edges
        node = 0
        for code in codes:
            hi = kids[node + 1]
            j = bisect_left(edges, code, kids[node], hi)
            if j == hi or edges[j] != code:
                return 0
            node = j + 1
        return self.counts[node - 1] if node else 0
