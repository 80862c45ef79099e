"""XBWT representation of the trie of reversed right-hand sides.

Each rule's reversed right-hand side, closed by a terminator edge, is
inserted into a trie.  Rows of the representation are the trie edges,
sorted by the label sequence read from the edge's source node up to the
root (a virtual epsilon sorts below the terminator); L holds the edge
labels, Last marks the final row of every node's group, and a cumulative
array over the first symbols of those upward paths drives backward search.

Reading a node's labels upward spells the rule unreversed, so the
terminator rows appear in lexicographic rule order and backward search for
a query string lands on the lex-id interval of rules having the query as a
prefix.  This structure is a verified alternative to the binary-search
dictionary in ``gfi.grammar``; the default query path does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfi.grammar import Grammar

TERM = 0  # label of leaf edges, below every character


@dataclass
class XbwtTrie:
    L: np.ndarray  # edge labels, TERM for leaf edges
    last: np.ndarray  # 1 on the final row of each node group
    C: np.ndarray  # C[c] = rows whose upward path starts with a symbol < c
    alphabet_size: int
    leaf_count: int

    def __post_init__(self):
        sym_positions: dict[int, np.ndarray] = {}
        for c in set(self.L.tolist()):
            sym_positions[c] = np.flatnonzero(self.L == c) + 1
        self._sym_positions = sym_positions
        self._group_ends = np.flatnonzero(self.last) + 1

    def rank_l(self, c: int, i: int) -> int:
        """Occurrences of c in L[1..i]."""
        pos = self._sym_positions.get(c)
        if pos is None or i <= 0:
            return 0
        return int(np.searchsorted(pos, i, side="right"))

    def _rank_last(self, i: int) -> int:
        return int(np.searchsorted(self._group_ends, i, side="right"))

    def _group_rows(self, group: int) -> tuple[int, int]:
        """Row interval of the 1-based group index."""
        hi = int(self._group_ends[group - 1])
        lo = int(self._group_ends[group - 2]) + 1 if group > 1 else 1
        return lo, hi

    def _step(self, lo: int, hi: int, c: int) -> tuple[int, int]:
        """One backward step: rows of the nodes reached by c-edges in [lo..hi]."""
        f1 = self.rank_l(c, lo - 1) + 1
        f2 = self.rank_l(c, hi)
        if f1 > f2:
            return (1, 0)
        # the f-th c-edge leads to the f-th node group of the c section
        base_groups = self._rank_last(int(self.C[c]))
        lo_new, _ = self._group_rows(base_groups + f1)
        _, hi_new = self._group_rows(base_groups + f2)
        return (lo_new, hi_new)

    def prefix_range(self, q: bytes) -> tuple[int, int]:
        """Lex-id interval of rules whose rhs has q as a prefix (lo > hi if none)."""
        if not q:
            return (1, 0)
        c = q[-1]
        if c >= self.alphabet_size:
            return (1, 0)
        lo, hi = int(self.C[c]) + 1, int(self.C[c + 1])
        for i in range(len(q) - 2, -1, -1):
            if lo > hi:
                return (1, 0)
            if q[i] >= self.alphabet_size:
                return (1, 0)
            lo, hi = self._step(lo, hi, q[i])
        if lo > hi:
            return (1, 0)
        # descend to the leaf edges: their terminator ranks are the lex ids
        f1 = self.rank_l(TERM, lo - 1) + 1
        f2 = self.rank_l(TERM, hi)
        return (f1, f2)

    def leaf_order(self) -> np.ndarray:
        """Lex ids of the rules in trie traversal order, i.e. colex order.

        Children of a node sit in label order within its row group, so a
        depth-first walk emits the leaf edges by reversed-rhs rank; each
        leaf edge's terminator rank is the rule's lex id.
        """
        out: list[int] = []
        stack: list[int] = [1]  # group indices, root group is 1
        while stack:
            group = stack.pop()
            lo, hi = self._group_rows(group)
            pending: list[int] = []
            for row in range(lo, hi + 1):
                c = int(self.L[row - 1])
                if c == TERM:
                    out.append(self.rank_l(TERM, row))
                else:
                    f = self.rank_l(c, row)
                    pending.append(self._rank_last(int(self.C[c])) + f)
            stack.extend(reversed(pending))
        return np.array(out, dtype=np.int64)


def build_xbwt(grammar: Grammar) -> XbwtTrie:
    """Insert every reversed rhs plus terminator and lay out the row table."""
    children: dict[int, dict[int, int]] = {0: {}}
    upward: dict[int, tuple] = {0: ()}
    has_leaf: dict[int, bool] = {}
    for s in grammar.rhs:
        node = 0
        for c in s[::-1]:
            nxt = children[node].get(c)
            if nxt is None:
                nxt = len(children)
                children[node][c] = nxt
                children[nxt] = {}
                upward[nxt] = (c,) + upward[node]
            node = nxt
        has_leaf[node] = True

    nodes = sorted(children, key=lambda u: upward[u])
    L: list[int] = []
    last: list[int] = []
    first_syms: list[int] = []
    for u in nodes:
        labels = []
        if has_leaf.get(u):
            labels.append(TERM)
        labels.extend(sorted(children[u]))
        if not labels:
            continue
        fs = upward[u][0] if upward[u] else -1  # -1 stands for epsilon
        for c in labels:
            L.append(c)
            last.append(0)
            first_syms.append(fs)
        last[-1] = 1

    sigma = max(b"".join(grammar.rhs), default=0)
    fs_arr = np.array(first_syms, dtype=np.int64)
    C = np.zeros(sigma + 2, dtype=np.int64)
    for c in range(sigma + 1):
        C[c + 1] = int(np.count_nonzero(fs_arr <= c))
    return XbwtTrie(
        L=np.array(L, dtype=np.int64),
        last=np.array(last, dtype=np.int64),
        C=C,
        alphabet_size=sigma + 1,
        leaf_count=len(grammar.rhs),
    )
