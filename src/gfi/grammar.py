"""The chunked height-1 grammar dictionary and its prefix/suffix lookups.

The text's code bytes are cut at their S* positions and the factors are
chopped into chunks of at most lam codes, in one pass over the cuts that
keeps no list of factors or chunks.  Every distinct chunk becomes a
rule; symbol ids are the 1-based lexicographic ranks of the right-hand
sides (id 0 is reserved for the terminator of the rewritten text).  The
rules that start with a string q form one interval of lex ids, found by
binary search over the sorted right-hand sides; the rules that end with
q form one interval of colex ranks, found the same way over the sorted
reversed right-hand sides.  Suffix sets stay colex-rank intervals: the
suffix count tests each BWT run head's colex rank against the interval,
or walks the interval's slots of the colex permutation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from gfi import lms
from gfi.errors import InvalidParameterError


def _starting_with(strings: list[bytes], q: bytes, lam: int) -> tuple[int, int]:
    """Half-open index interval of the sorted strings (at most lam codes) that start with q."""
    lo = bisect_left(strings, q)
    # each string starting with q sorts at or before q padded to lam with code 255
    return lo, bisect_right(strings, q + b"\xff" * (lam - len(q)), lo)


@dataclass
class Grammar:
    """Dictionary of distinct chunks with lex ids and colex order."""

    lam: int
    rhs: list[bytes]  # lex sorted; index i holds the rule for id i+1
    rhs_id: dict[bytes, int] = field(init=False, repr=False)
    reversed_rhs: list[bytes] = field(init=False, repr=False)  # sorted, i.e. colex order
    colex_to_lex: memoryview = field(init=False, repr=False)  # lex ids in colex order
    colex_rank: memoryview = field(init=False, repr=False)  # 1-based colex rank per lex id

    def __post_init__(self):
        self.rhs_id = {s: i + 1 for i, s in enumerate(self.rhs)}
        rev = [s[::-1] for s in self.rhs]
        order = sorted(range(len(rev)), key=rev.__getitem__)
        self.reversed_rhs = [rev[i] for i in order]
        colex_to_lex = np.array(order, dtype=np.int64) + 1
        colex_rank = np.zeros(len(order) + 1, dtype=np.int64)  # the terminator's is 0
        colex_rank[colex_to_lex] = np.arange(1, len(order) + 1)
        self.colex_to_lex = memoryview(colex_to_lex)
        self.colex_rank = memoryview(colex_rank)

    @property
    def size(self) -> int:
        """Number of rules (the rewritten text's alphabet size, sans terminator)."""
        return len(self.rhs)

    def prefix_range(self, q: bytes) -> tuple[int, int]:
        """Inclusive lex-id interval of rules whose rhs starts with q.

        Empty results come back with lo > hi.
        """
        lo, hi = _starting_with(self.rhs, q, self.lam)
        return (lo + 1, hi)

    def suffix_symbols(self, q: bytes) -> range:
        """Colex ranks of all rules whose rhs ends with q, as one interval."""
        lo, hi = _starting_with(self.reversed_rhs, q[::-1], self.lam)
        return range(lo + 1, hi + 1)


def build(codes: bytes, lam: int) -> tuple[Grammar, np.ndarray]:
    """Build the dictionary over the code string's chunks and rewrite it.

    One pass walks the S* cuts: each factor [a, b) between two cuts is cut
    into chunks of lam codes, all full but the last, and each chunk gets a
    provisional id, its first-seen rank, kept 4 bytes per chunk.  Once the
    rules are sorted, one table lookup turns those ids into lex ids.

    Returns the grammar and the rewritten text (one lex id per chunk, in
    the narrowest unsigned dtype that holds every id); expanding the ids
    through the rules reproduces the codes.
    """
    if lam < 1:
        raise InvalidParameterError("chunk size must be at least 1")
    ids: dict[bytes, int] = {}  # chunk -> provisional id
    add = ids.setdefault
    provisional = array("I")
    append = provisional.append
    a = 0
    for b in chain(lms.classify(codes), [len(codes)]):
        while b - a > lam:
            append(add(codes[a : a + lam], len(ids)))
            a += lam
        append(add(codes[a:b], len(ids)))  # the factor's last chunk, empty for an empty text
        a = b
    grammar = Grammar(lam=lam, rhs=sorted(ids))
    dtype = np.min_scalar_type(grammar.size)
    lex = np.fromiter(map(grammar.rhs_id.__getitem__, ids), dtype=dtype, count=len(ids))
    return grammar, lex[np.frombuffer(provisional, dtype=np.uint32)]
