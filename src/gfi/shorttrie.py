"""Exact occurrence counts for every text substring shorter than the chunk size.

Patterns shorter than the chunk size can straddle chunk boundaries in the
text, so they bypass the dictionary search entirely and are answered from
this trie.  Nodes are stored as flat parallel arrays (parent, edge code,
count) with ids assigned level by level in lexicographic order, which
makes the serialized form deterministic.  Lookups go through a table from
each node's label to its count, rebuilt from those arrays.
"""

from __future__ import annotations

import numpy as np


class ShortPatternTrie:
    """Trie of depth lam-1 over the dense alphabet; node counts are exact."""

    def __init__(self, depth: int, parents, edges, counts):
        self.depth = depth
        self.parents = np.asarray(parents, dtype=np.int64)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if not len(self.parents) == len(self.edges) == len(self.counts):
            raise ValueError("trie parent, edge and count arrays differ in length")
        if np.any((self.parents < 0) | (self.parents >= np.arange(1, len(self.parents) + 1))):
            raise ValueError("every trie node's parent must be an earlier node")
        labels = [b""]
        for parent, edge in zip(self.parents.tolist(), self.edges.tolist()):
            labels.append(labels[parent] + bytes((edge,)))
        self.height = len(labels[-1])  # labels come level by level: the last is deepest
        self.label_counts = dict(zip(labels[1:], self.counts.tolist()))

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
        return cls(
            depth=depth,
            parents=np.concatenate(parents),
            edges=np.concatenate(edges),
            counts=np.concatenate(counts),
        )

    @property
    def node_count(self) -> int:
        """Number of stored nodes, the root excluded."""
        return len(self.parents)

    def count(self, codes: bytes) -> int:
        """Occurrences of the code bytes, 0 when no text substring spells them."""
        return self.label_counts.get(codes, 0)
