"""Run-length FM machinery over an integer alphabet.

The BWT is kept as its runs in one flat layout: the runs' start positions
in BWT order, the same starts grouped by head symbol (BWT order, so
ascending, within each group) with each symbol's first slot in that
grouping, and the prefix sums of the run lengths taken in the grouped
order, whose value at a symbol's first slot is its C entry.  Rank follows
Maekinen and Navarro's run-length FM index and reads only the queried
symbol's runs: one binary search over the symbol's run starts finds its
last run starting at or before the position; the total length of the
symbol's runs before that one is one prefix-sum lookup, and the run adds
its part up to the position, capped at its length (the next prefix sum).
A backward step, and the per-symbol path of a suffix count, need the
symbol's rank at both ends of a row range.  They search once, for the
upper end, and read the lower end from the run found there whenever that
run starts by the lower end, since every earlier run of the symbol ends
before it; only otherwise do they search the earlier runs.  On repetitive
text the run found for the upper end usually starts by the lower end, so
most steps take one binary search; the counter still charges two rank
calls per step.  ``backward_step`` walks a whole symbol sequence in one
call, with the arrays in locals and the counter charged once at the end,
so a search pays one method call per walk, not one per symbol.  Once the
range is one row p, the walk finishes in a leaner loop whose step is p's
LF mapping: one bisect finds c's last run starting by p, and p moves to
that run's place in the grouped order; the range empties, to the pair the
general step gives, when no run of c starts by p or p lies past that run.
On repetitive text most steps of a long pattern are one-row steps.
Queries read the run arrays through memoryviews and the σ + 1 group
bounds from a Python list, so they index to plain ints and call
``bisect`` without any numpy dispatch.  The same structure serves the
raw-text baseline index and the rewritten-text index.

A range of BWT rows is a 1-based inclusive ``(lo, hi)`` pair of ints,
empty when ``lo > hi``.  Every rank, counted or inlined, bumps a
resettable counter so query cost can be measured in index operations
rather than wall-clock time.

Counting a set of symbols within a row range (the suffix count of a
grammar query) takes the set as one interval of ranks under a
permutation of the symbols (for the grammar, colex ranks) and picks, per
call, the cheaper of two exact ways.  Two ranks per symbol cost
``2 * len(ranks)``; scanning the runs the range spans, from the run
covering row lo-1 to the run covering row hi, and summing the overlap of
each run whose head's rank lies in the interval costs ``span`` run
visits.  The counter charges whichever way ran by that cost, one rank
call per scanned run, so it stays comparable with the ranks of backward
steps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


# The dtype of an index file column of each width, built or loaded:
# unsigned at widths 1, 2 and 4, and int64 at width 8, where numpy would not
# take uint64 as repeat counts or mix it with int64.
COLUMN_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<i8")}


def narrowest(values: np.ndarray) -> np.ndarray:
    """Nonnegative ``values`` at the dtype of the narrowest width that holds them."""
    width = np.min_scalar_type(int(values.max(initial=0))).itemsize
    return values.astype(COLUMN_DTYPES[width], copy=False)


@dataclass
class RankStats:
    rank_calls: int = 0
    step_calls: int = 0

    def reset(self):
        self.rank_calls = 0
        self.step_calls = 0


class RLFMIndex:
    """FM index over a run-length compressed BWT.

    No two adjacent runs may share a head: ``from_bwt`` makes none, and
    ``load_index`` rejects a file that has any.  Queries are read-only
    after construction; the instrumentation counters are plain integers
    and only meaningful for single-threaded runs.
    """

    def __init__(self, run_heads, run_lengths):
        # The runs keep the width they come in, the stored one from the
        # build and the file alike.  Narrow heads keep the checks cheap and
        # let the stable sort take numpy's radix path instead of timsort on
        # int64; only the run starts and prefix sums derived here are int64.
        self.run_heads = np.asarray(run_heads)
        self.run_lengths = np.asarray(run_lengths)
        self.alphabet_size = int(self.run_heads.max()) + 1 if len(self.run_heads) else 1
        # 1-based start position of each run
        starts = np.ones(len(self.run_heads), dtype=np.int64)
        np.cumsum(self.run_lengths[:-1], dtype=np.int64, out=starts[1:])
        starts[1:] += 1
        # Slots first[c]:first[c+1] hold the runs of c in BWT order:
        # cstarts[j] is the start of the run in slot j, ascending within the
        # group, and mass[j] is the total length of the runs in slots :j.
        order = np.argsort(self.run_heads, kind="stable")
        first = np.searchsorted(self.run_heads[order], np.arange(self.alphabet_size + 1))
        mass = np.zeros(len(self.run_heads) + 1, dtype=np.int64)
        np.cumsum(self.run_lengths[order], dtype=np.int64, out=mass[1:])
        self.total_length = int(mass[-1])
        self.heads = memoryview(self.run_heads)
        self.run_starts = memoryview(starts)
        self.cstarts = memoryview(starts[order])
        self.first = first.tolist()
        self.mass = memoryview(mass)
        self.C = memoryview(mass[first])
        self.stats = RankStats()

    @classmethod
    def from_bwt(cls, bwt) -> "RLFMIndex":
        bwt = np.asarray(bwt)
        is_start = np.ones(len(bwt), dtype=bool)  # an empty BWT has no runs
        is_start[1:] = bwt[1:] != bwt[:-1]
        starts = np.flatnonzero(is_start)
        return cls(run_heads=bwt[starts], run_lengths=narrowest(np.diff(starts, append=len(bwt))))

    @property
    def run_count(self) -> int:
        return len(self.run_heads)

    def rank(self, c: int, i: int) -> int:
        """Occurrences of c in BWT[1..i]; rank(c, 0) = 0."""
        self.stats.rank_calls += 1
        if i <= 0 or c < 0 or c >= self.alphabet_size:
            return 0
        if i > self.total_length:
            i = self.total_length
        a = self.first[c]
        j = bisect_right(self.cstarts, i, a, self.first[c + 1])  # runs of c starting by i
        if j == a:
            return 0
        mass = self.mass
        return min(mass[j - 1] + i - self.cstarts[j - 1] + 1, mass[j]) - mass[a]

    def id_interval_range(self, lo_id: int, hi_id: int) -> tuple[int, int]:
        """Rows whose suffix starts with any symbol in the id interval."""
        lo_id = max(lo_id, 0)
        hi_id = min(hi_id, self.alphabet_size - 1)
        if lo_id > hi_id:
            return 1, 0
        return self.C[lo_id] + 1, self.C[hi_id + 1]

    def backward_step(self, lo: int, hi: int, symbols) -> tuple[int, int]:
        """Extend the matched string leftward by ``symbols``, given in text order.

        Steps through the symbols right to left in this one frame and stops
        at the first empty range; the counter is charged once at the end,
        one step and two rank calls per step taken, the step that empties
        the range included.  An empty input range, or a symbol outside the
        alphabet, gives ``(1, 0)`` and charges that step nothing.

        Each step's new range is C[c] + rank(c, i) at i = lo - 1 and i = hi,
        inlined because this is the inner loop of every search.  One bisect
        over c's run starts finds c's last run starting by hi.  When that run
        also starts by lo, the same run gives rank(c, lo - 1), as every
        earlier run of c ends before it starts; only otherwise does a second
        bisect search the earlier runs.  A step that leaves one row p hands
        the rest of the symbols to a second loop over the same iterator,
        whose step is p's LF mapping, ``mass[j] + p - cstarts[j] + 1`` for
        c's last run j starting by p.  It needs one bisect and no second
        end, and charges the same two rank calls.  It empties the range as
        the general step does: to ``(C[c] + 1, C[c])`` when no run of c
        starts by p, and to ``(end + 1, end)`` at run j's end when p lies
        past run j, in another symbol's run.
        """
        if lo > hi:
            return 1, 0
        if hi > self.total_length:
            hi = self.total_length  # a lo past it then steps to an empty range
        cstarts, mass, first = self.cstarts, self.mass, self.first
        sigma = self.alphabet_size
        steps = 0
        rest = reversed(symbols)  # the one-row loop below takes what this one leaves
        for c in rest:
            if c < 0 or c >= sigma:
                lo, hi = 1, 0
                break
            steps += 1
            a = first[c]
            j = bisect_right(cstarts, hi, a, first[c + 1]) - 1  # c's last run starting by hi
            if j < a:
                lo, hi = mass[a] + 1, mass[a]
                break
            start, end = cstarts[j], mass[j + 1]
            # rank as in rank(), with its min() spelt out as a comparison,
            # which is cheaper than a builtin call in this loop
            hi = mass[j] + hi - start + 1
            if hi > end:
                hi = end
            if start > lo:  # row lo - 1 lies before run j: search c's earlier runs
                j = bisect_right(cstarts, lo - 1, a, j) - 1
                if j < a:  # rank(c, lo - 1) is 0, and hi lies past C[c]
                    lo = mass[a] + 1
                    if lo == hi:
                        break
                    continue
                start, end = cstarts[j], mass[j + 1]
            lo = mass[j] + lo - start + 1  # rank(c, lo - 1) + 1
            if lo > end:
                lo = end + 1
            if lo >= hi:
                break
        if lo == hi:
            # One row p: the step is its LF, C[c] + rank(c, p), when row p
            # holds c, and the range empties as above otherwise.
            p = lo
            for c in rest:
                if c < 0 or c >= sigma:
                    lo, hi = 1, 0
                    break
                steps += 1
                a = first[c]
                j = bisect_right(cstarts, p, a, first[c + 1]) - 1
                if j < a:  # no run of c starts by p
                    lo, hi = mass[a] + 1, mass[a]
                    break
                p += mass[j] - cstarts[j] + 1
                if p > mass[j + 1]:  # the row lay past run j, in another symbol's run
                    hi = mass[j + 1]
                    lo = hi + 1
                    break
            else:
                lo = hi = p
        stats = self.stats
        stats.step_calls += steps
        stats.rank_calls += 2 * steps
        return lo, hi

    def count_symbols_in_range(self, lo: int, hi: int, ranks: range, rank_of, by_rank) -> int:
        """Total occurrences within the row range of the symbols ranked in ``ranks``.

        ``rank_of[c]`` is symbol c's 1-based rank and ``by_rank[r - 1]`` the
        symbol of rank r, each below ``alphabet_size``.  Scans the spanned
        runs or does two ranks per symbol (inlined as in backward_step),
        whichever the module docstring's rule finds cheaper.
        """
        if lo > hi:
            return 0
        n = self.total_length
        lo = lo - 1 if lo <= n else n  # rows before the range
        if hi > n:
            hi = n
        starts = self.run_starts
        k_lo = bisect_right(starts, lo) - 1  # -1 when lo is 0: no run matches it
        k_hi = bisect_right(starts, hi) - 1
        span = k_hi - k_lo + 1
        first_rank, end_rank = ranks.start, ranks.stop
        if span <= 2 * len(ranks):
            self.stats.rank_calls += span
            heads = self.heads
            total = 0
            begin = max(lo, 0)
            for k in range(max(k_lo, 0), k_hi + 1):
                end = starts[k + 1] - 1 if k < k_hi else hi
                if first_rank <= rank_of[heads[k]] < end_rank:
                    total += end - begin
                begin = end
            return total
        self.stats.rank_calls += 2 * len(ranks)
        cstarts, mass, first = self.cstarts, self.mass, self.first
        total = 0
        for c in by_rank[first_rank - 1 : end_rank - 1]:
            # rank(c, hi) - rank(c, lo) with backward_step's shared search
            a = first[c]
            j = bisect_right(cstarts, hi, a, first[c + 1]) - 1
            if j < a:
                continue  # no run of c starts by hi
            start = cstarts[j]
            total += min(mass[j] + hi - start + 1, mass[j + 1])
            if start > lo + 1:  # row lo lies before run j: search c's earlier runs
                j = bisect_right(cstarts, lo, a, j) - 1
                if j < a:
                    total -= mass[a]
                    continue
                start = cstarts[j]
            total -= min(mass[j] + lo - start + 1, mass[j + 1])
        return total

    def count_plain(self, codes) -> int:
        """Baseline count: one backward_step call walks the whole pattern.

        ``codes`` is any sequence of ints, such as the code bytes from
        ``DenseAlphabet.encode``.  Starting from the full row range makes
        the cost exactly two rank calls per symbol when the pattern occurs.
        """
        lo, hi = self.backward_step(1, self.total_length, codes)
        return hi - lo + 1 if lo <= hi else 0
