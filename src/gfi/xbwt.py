"""XBWT representation of the trie of reversed right-hand sides.

Each rule's reversed right-hand side, closed by a terminator edge, spells
a path of a trie.  A trie node's labels read upward to the root spell a
suffix of a rule, so the nodes are the rules' distinct suffixes: node s
has a terminator edge when s is a rule, and an edge c for each suffix
c + s.  Rows of the representation are the trie edges, sorted by their
source node's suffix (the root's empty suffix first) and then by label,
with the terminator below every character; L holds the edge labels, Last
marks the final row of every node's group, and C[c] counts the rows whose
source suffix starts with a symbol below c, the root's rows included.
Rank over L is ``RLFMIndex.rank`` on L's runs.

Reading a node's labels upward spells the rule unreversed, so the
terminator rows appear in lexicographic rule order and backward search for
a query string lands on the lex-id interval of rules having the query as a
prefix.  No query path reads it: ``gfi.grammar`` answers the same query
by binary search over the sorted rules, and the tests check that both agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfi.grammar import Grammar
from gfi.rlfm import RLFMIndex

TERM = 0  # label of leaf edges, below every character


@dataclass
class XbwtTrie:
    L: np.ndarray  # edge labels, TERM for leaf edges
    last: np.ndarray  # 1 on the final row of each node group
    C: np.ndarray  # C[c] = rows whose upward path starts with a symbol < c

    def __post_init__(self):
        self.rank_l = RLFMIndex.from_bwt(self.L).rank  # occurrences of c in L[1..i]
        # groups ending by row i, and the last row of group g (0 for g = 0)
        self._groups_by = np.concatenate([[0], np.cumsum(self.last)])
        self._group_end = np.concatenate([[0], np.flatnonzero(self.last) + 1])

    def prefix_range(self, q: bytes) -> tuple[int, int]:
        """Lex-id interval of rules whose rhs has q as a prefix (lo > hi if none)."""
        lo, hi = 1, len(self.L)
        for c in reversed(q):
            if not TERM < c < len(self.C) - 1:
                return (1, 0)
            f1, f2 = self.rank_l(c, lo - 1), self.rank_l(c, hi)
            if f1 >= f2:
                return (1, 0)
            # step to the nodes the c-edges in [lo..hi] reach: the f-th c-edge
            # leads to the f-th group of the c section, so the rows run from
            # the start of the first reached group to the end of the last
            g = int(self._groups_by[self.C[c]])
            lo, hi = int(self._group_end[g + f1]) + 1, int(self._group_end[g + f2])
        # descend to the leaf edges: their terminator ranks are the lex ids
        return (self.rank_l(TERM, lo - 1) + 1, self.rank_l(TERM, hi))


def build_xbwt(grammar: Grammar) -> XbwtTrie:
    """Lay out the row table over the rules' distinct suffixes in sorted order."""
    suffixes = {s[i:] for s in grammar.rhs for i in range(len(s) + 1)}
    # one (source suffix, label) pair per edge; sorting them sorts the rows
    rows = sorted([(s, TERM) for s in grammar.rhs] + [(t[1:], t[0]) for t in suffixes if t])
    sources = [s for s, _ in rows]
    L = np.array([c for _, c in rows], dtype=np.int64)
    last = np.ones(len(rows), dtype=np.int64)
    last[:-1] = [a != b for a, b in zip(sources, sources[1:])]
    sigma = max(b"".join(grammar.rhs), default=0)
    # a row's upward path starts with its source's first symbol; the root's
    # rows, whose path is empty, count as TERM since no rule holds it
    first_syms = np.array([s[0] if s else TERM for s in sources], dtype=np.int64)
    C = np.zeros(sigma + 2, dtype=np.int64)
    np.cumsum(np.bincount(first_syms, minlength=sigma + 1), out=C[1:])
    return XbwtTrie(L=L, last=last, C=C)
