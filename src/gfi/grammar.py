"""The chunked height-1 grammar dictionary and its prefix/suffix lookups.

The text's code bytes are cut at their S* positions and the factors are
chopped into chunks of at most lam codes.  Every distinct chunk becomes a
rule; symbol ids are the 1-based lexicographic ranks of the right-hand
sides (id 0 is reserved for the terminator of the rewritten text).  The
rules that start with a string q form one interval of lex ids, found by
binary search over the sorted right-hand sides; the rules that end with
q form one interval of colex ranks, found the same way over the sorted
reversed right-hand sides and mapped back to lex ids through the colex
permutation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from gfi.errors import InvalidParameterError
from gfi import lms


def _starting_with(strings: list[bytes], q: bytes) -> tuple[int, int]:
    """Half-open index interval of the sorted strings that start with q."""
    lo = bisect_left(strings, q)
    return lo, bisect_right(strings, q, lo, key=lambda s: s[: len(q)])


@dataclass
class Grammar:
    """Dictionary of distinct chunks with lex ids and colex order."""

    lam: int
    sigma: int
    rhs: list[bytes]  # lex sorted; index i holds the rule for id i+1
    rhs_id: dict[bytes, int] = field(init=False, repr=False)
    reversed_rhs: list[bytes] = field(init=False, repr=False)  # sorted, i.e. colex order
    colex_to_lex: memoryview = field(init=False, repr=False)  # lex ids in colex order

    def __post_init__(self):
        self.rhs_id = {s: i + 1 for i, s in enumerate(self.rhs)}
        rev = [s[::-1] for s in self.rhs]
        order = sorted(range(len(rev)), key=rev.__getitem__)
        self.reversed_rhs = [rev[i] for i in order]
        self.colex_to_lex = memoryview(np.array(order, dtype=np.int64) + 1)

    @property
    def size(self) -> int:
        """Number of rules (the rewritten text's alphabet size, sans terminator)."""
        return len(self.rhs)

    def prefix_range(self, q: bytes) -> tuple[int, int]:
        """Inclusive lex-id interval of rules whose rhs starts with q.

        Empty results come back with lo > hi.
        """
        lo, hi = _starting_with(self.rhs, q)
        return (lo + 1, hi)

    def suffix_symbols(self, q: bytes) -> list[int]:
        """Lex ids of all rules whose rhs ends with q, in colex order."""
        lo, hi = _starting_with(self.reversed_rhs, q[::-1])
        return self.colex_to_lex[lo:hi].tolist()

    def colex_ranks(self) -> np.ndarray:
        """Colex rank per lex id; entry 0 is the terminator's rank 0."""
        ranks = np.zeros(len(self.rhs) + 1, dtype=np.int64)
        ranks[np.asarray(self.colex_to_lex)] = np.arange(1, len(self.rhs) + 1)
        return ranks

    def expansion_lengths(self) -> np.ndarray:
        """Rule lengths indexed by lex id (entry 0 is the terminator, length 0)."""
        out = np.zeros(len(self.rhs) + 1, dtype=np.int64)
        out[1:] = [len(s) for s in self.rhs]
        return out


def build(codes: bytes, lam: int) -> tuple[Grammar, np.ndarray]:
    """Build the dictionary over the code string's chunks and rewrite it.

    Returns the grammar and the rewritten text (one lex id per chunk);
    expanding the ids through the rules reproduces the codes.
    """
    if lam < 1:
        raise InvalidParameterError("chunk size must be at least 1")
    chunks = lms.chunk(lms.factorize(codes, lms.classify(codes)), lam)
    grammar = Grammar(lam=lam, sigma=max(codes, default=0), rhs=sorted(set(chunks)))
    ids = grammar.rhs_id
    level1 = np.fromiter((ids[c] for c in chunks), dtype=np.int64, count=len(chunks))
    return grammar, level1
