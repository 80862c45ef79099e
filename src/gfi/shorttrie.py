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
node's child edges.
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
        if np.any(child_counts < 0) or child_counts.sum() != n:
            raise ValueError("trie child counts must be nonnegative and sum to the node count")
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
        # Ids come level by level, so the last node is a deepest one.
        self.height, node = 0, n
        while node:
            node = int(parents[node - 1])
            self.height += 1

    @classmethod
    def build(cls, text: np.ndarray, lam: int) -> "ShortPatternTrie":
        """Count all k-mers for k < lam with one vectorized pass per length.

        A k-mer's key is the rank of its (k-1)-prefix among the distinct
        (k-1)-mers, times (sigma+1), plus its last code.  So key order is
        lexicographic order, a node's key divided by (sigma+1) is its
        parent's rank within the previous level, and keys stay below
        len(text) * (sigma+1) at every depth.
        """
        text = np.asarray(text, dtype=np.int64)
        depth = lam - 1
        base = (int(text.max()) if len(text) else 0) + 1
        empty = np.zeros(0, dtype=np.int64)
        parents, edges, counts = [empty], [empty], [empty]
        keys = text  # 1-mers: the empty prefix has rank 0
        first_id, level_size = 0, 1  # previous level's first node id and size: the root
        for k in range(1, min(depth, len(text)) + 1):
            if k > 1:
                keys = np.searchsorted(level_keys, keys[:-1]) * base + text[k - 1 :]
            level_keys, cnt = np.unique(keys, return_counts=True)
            parents.append(level_keys // base + first_id)
            edges.append(level_keys % base)
            counts.append(cnt)
            first_id += level_size
            level_size = len(level_keys)
        edges = np.concatenate(edges)
        return cls(
            child_counts=np.bincount(np.concatenate(parents), minlength=len(edges)),
            edges=edges,
            counts=np.concatenate(counts),
        )

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
