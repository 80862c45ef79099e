"""Exact occurrence counts for every text substring shorter than the chunk size.

Patterns shorter than the chunk size can straddle chunk boundaries in the
text, so they bypass the dictionary search entirely and are answered from
this trie.  Nodes are stored as flat parallel arrays (child count, edge
code, count) with ids assigned level by level in lexicographic order,
which makes the serialized form deterministic.  In that order, the
level-order layout of Jacobson's succinct trees, the children of a node
are one contiguous run of ids with their edge codes ascending, so one
array of child-slice bounds, the running sum of the child counts, is all
a lookup needs: each pattern code is one binary search over the current
node's child edges.  The build settles that order with one sort per block
of levels: each text position's node rank and next codes packed into one
int64 key, as ``bwt.suffix_array`` packs its first round.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


class ShortPatternTrie:
    """Trie of depth lam-1 over the dense alphabet; node counts are exact."""

    def __init__(self, child_counts, edges, counts):
        """Nodes 1..n by their edges and counts; ``child_counts[p]`` is node
        p's number of children for p in 0..n-1 (0 is the root).  The last
        node comes last in level order, so it has none.  The columns keep
        the integer width they come in; only the child slices are int64."""
        child_counts = np.asarray(child_counts)
        edges = np.asarray(edges)
        counts = np.asarray(counts)
        n = len(edges)
        if not n == len(child_counts) == len(counts):
            raise ValueError("trie child-count, edge and count arrays differ in length")
        # No count above n, so their int64 sum cannot wrap back to n.
        in_range = not n or 0 <= child_counts.min() <= child_counts.max() <= n
        if not in_range or child_counts.sum() != n:
            raise ValueError("trie child counts must lie in 0..n and sum to the node count n")
        # Node p's children are the ids kids[p]+1 .. kids[p+1], and their
        # edges are edges[kids[p]:kids[p+1]]; node ids start at 1.
        kids = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(child_counts, dtype=np.int64, out=kids[1 : n + 1])
        kids[n + 1] = n
        parents = np.repeat(np.arange(n), child_counts)
        if np.any(parents >= np.arange(1, n + 1)):
            raise ValueError("every trie node's parent must be an earlier node")
        if np.any((parents[1:] == parents[:-1]) & (edges[1:] <= edges[:-1])):
            raise ValueError("a trie node's child edges must strictly increase")
        self.kids = memoryview(kids)
        self.child_counts = memoryview(child_counts)
        self.edges = memoryview(edges)
        self.counts = memoryview(counts)
        # Ids come level by level: level d is nodes level_ends[d-1]+1 ..
        # level_ends[d], and level d+1 ends with the last child of level d's
        # last node.  Every node's parent comes before it, so each step grows.
        self.level_ends = [0]
        while self.level_ends[-1] < n:
            self.level_ends.append(int(kids[self.level_ends[-1] + 1]))
        self.height = len(self.level_ends) - 1

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
        levels = []  # per level, top down: its parents' child counts, its edges, its counts
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
            block = []
            for i in range(j, 0, -1):  # keys, cnt, code and real describe level d+i
                level = code[real], cnt[real]
                keys //= base
                if i == 1:
                    block.append((np.bincount(keys[real], minlength=top), *level))
                    break
                start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
                below = np.add.reduceat(real, start, dtype=np.int64)
                keys, cnt = keys[start], np.add.reduceat(cnt, start)
                code = keys % base
                real = code != 0
                block.append((below[real], *level))
            levels += block[::-1]
            d += j
        empty = np.zeros(0, dtype=np.int64)
        # The deepest level has no children; the column stops before its last node.
        levels.append((np.zeros(size - 1, dtype=np.int64), empty, empty))
        child_counts, edges, counts = map(np.concatenate, zip(*levels))
        return cls(child_counts=child_counts, edges=edges, counts=counts)

    @property
    def node_count(self) -> int:
        """Number of stored nodes, the root excluded."""
        return len(self.edges)

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
