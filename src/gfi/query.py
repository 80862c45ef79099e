"""Pattern counting on the rewritten-text index.

A pattern is code bytes, cut into factors by the same S* scan as the
text.  Interior factors are guaranteed to appear as complete factors
around every occurrence, so their chunks translate to exact dictionary
symbols (the core).  The first and last pattern factors are not: the
text-side factor containing the pattern's head can extend further left,
and the pattern's trailing character run can belong to the following
text factor.  The planner therefore enumerates disjoint branches
covering every alignment of the head within its covering chunk and both
typings of the trailing run; the executor runs one backward search per
branch and sums the results.

The planner reads rule ids straight off the code bytes: it takes the S*
cut positions and looks up each chunk as a slice between them, with one
helper (``_chunk_ids``) that stops at the first chunk that is no rule.
The core, every right-end cut on the chunk grid and every head
enumeration go through it, so no factor or chunk list is built, and a
missing core chunk ends the plan at once.  The executor walks a last
branch's exact ids and the core in one call, and each first branch's
exact ids in another, with ``RLFMIndex.backward_step`` or, under a
trace, ``QueryTrace.walk``; it skips the walk for an empty id tuple and
resolves a suffix query to its colex interval where it counts: repeats
inside one plan are too rare to keep a memo.

Patterns shorter than the chunk size are answered by the short-pattern
trie instead, and a trace logs nothing for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import NamedTuple

from gfi import lms
from gfi.grammar import Grammar
from gfi.rlfm import RLFMIndex


class LastBranch(NamedTuple):
    """Right end of a search: a prefix-range anchor, then exact symbols.

    ``exact_ids`` are in left-to-right text order; the executor steps
    through them right to left after seeding the range from the anchor.
    """

    anchor: bytes
    exact_ids: tuple


class FirstBranch(NamedTuple):
    """Left end of a search: exact symbols, then an optional suffix query.

    A branch with ``suffix_query`` set resolves the pattern's leftmost
    piece by counting, inside the final range, the symbols whose rules end
    with that piece.  Without one the final range length is the answer.
    """

    exact_ids: tuple
    suffix_query: bytes | None


@dataclass
class BranchPlan:
    """Disjoint search branches for one pattern.

    ``paired`` distinguishes single-factor patterns, where each last
    branch carries its own left constraint, from the general shape where
    every (last x first) combination is a valid search.
    A missing core chunk leaves ``dead`` set; nothing can match.
    """

    core_ids: tuple = ()
    last_branches: list = field(default_factory=list)
    first_branches: list = field(default_factory=list)
    paired: bool = False
    dead: bool = False


@dataclass
class QueryTrace:
    """Optional instrumentation handed through count().

    ``core_traversals`` records (steps taken, completed) per branch that
    reached the core; ``events`` records every range transition as
    (kind, payload, (lo, hi)); ``steps`` counts the last walk's steps.
    """

    core_traversals: list = field(default_factory=list)
    events: list = field(default_factory=list)
    steps: int = field(default=0, init=False)

    def log(self, kind, payload, rng: tuple[int, int]):
        self.events.append((kind, payload, rng))

    def walk(self, fm: RLFMIndex, lo: int, hi: int, ids) -> tuple[int, int]:
        """``fm.backward_step(lo, hi, ids)`` one symbol per call, logging
        each range as a "step" event; stops at an empty range."""
        self.steps = 0
        for sym in reversed(ids):
            if lo > hi:
                break
            lo, hi = fm.backward_step(lo, hi, (sym,))
            self.steps += 1
            self.log("step", sym, (lo, hi))
        return lo, hi


def trailing_run(s: bytes) -> int:
    """Length of the maximal equal-character suffix of s."""
    return len(s) - len(s.rstrip(s[-1:]))


def _chunk_ids(get, s: bytes, bounds, lam: int) -> tuple | None:
    """Rule ids of ``s`` between consecutive ``bounds``, each span cut into
    lam-chunks from its start; None at the first chunk that is no rule."""
    ids = []
    for a, b in zip(bounds, bounds[1:]):
        while a < b:
            e = a + lam
            rule = get(s[a : e if e < b else b])
            if rule is None:
                return None
            ids.append(rule)
            a = e
    return tuple(ids)


def _cut(get, s: bytes, a: int, lam: int) -> LastBranch | None:
    """``s[a:]`` cut into lam-chunks from a: the full chunks must be rules,
    the final piece seeds the search as a prefix query.  None on a miss."""
    p = a + (len(s) - a - 1) // lam * lam
    exact = _chunk_ids(get, s, (a, p), lam) if p > a else ()
    return None if exact is None else LastBranch(s[p:], exact)


def _first_branches(get, s: bytes, end: int, longest: int, lam: int) -> list[FirstBranch]:
    """Branches over final-chunk lengths 1..longest of the factor covering ``s[:end]``.

    ``end`` is a factor boundary.  A final chunk of length f pins the f
    characters before ``end`` exactly, full chunks continue leftward, and
    whatever is left resolves through a suffix query.  The final chunk is
    looked up first: it is the piece that usually misses.
    """
    out = []
    for start in range(end - 1, end - longest - 1, -1):
        final = get(s[start:end])
        if final is None:
            continue
        g = start % lam
        exact = _chunk_ids(get, s, (g, start), lam) if start > g else ()
        if exact is not None:
            out.append(FirstBranch(exact + (final,), s[:g] or None))
    return out


def _plan_single(codes: bytes, get, lam: int, stem_end: int) -> BranchPlan:
    """Plan for single-factor patterns of at least chunk length.

    Without interior factors there is no core; instead the pattern's
    start offset inside its covering chunk is enumerated directly: the
    pattern minus its first h characters is cut on the chunk grid and
    those h characters become the suffix query.  The transferred-run
    variants come from the head enumeration over the run-free stem
    ``codes[:stem_end]``, for the final-chunk lengths that the offsets
    cannot express: a full final chunk would put the run on an offset's
    grid and repeat its search.
    """
    last_branches, first_branches = [], []
    for h in range(lam):
        lb = _cut(get, codes, h, lam)
        if lb is not None:
            last_branches.append(lb)
            first_branches.append(FirstBranch((), codes[:h] or None))

    run = _cut(get, codes, stem_end, lam)
    if run is not None:
        for fb in _first_branches(get, codes, stem_end, min(lam - 1, stem_end - 1), lam):
            last_branches.append(LastBranch(run.anchor, fb.exact_ids + run.exact_ids))
            first_branches.append(FirstBranch((), fb.suffix_query))
    return BranchPlan((), last_branches, first_branches, paired=True)


def plan_branches(codes: bytes, grammar: Grammar) -> BranchPlan:
    """Build the branch plan for a pattern of at least chunk length."""
    lam = grammar.lam
    get = grammar.rhs_id.get
    cuts = lms.classify(codes)
    stem_end = len(codes) - trailing_run(codes)  # the trailing run starts after the last cut
    if not cuts:
        return _plan_single(codes, get, lam, stem_end)

    core = _chunk_ids(get, codes, cuts, lam)
    if core is None:
        return BranchPlan(dead=True)

    last = cuts[-1]
    plain = _cut(get, codes, last, lam)
    last_branches = [] if plain is None else [plain]
    if (stem_end - last) % lam:
        # A stem ending off the chunk grid makes the transferred-run search
        # distinguishable from the plain one; on the grid the two collapse
        # and the plain branch already counts both typings.
        run = _cut(get, codes, stem_end, lam)
        stem_ids = None if run is None else _chunk_ids(get, codes, (last, stem_end), lam)
        if stem_ids is not None:
            last_branches.append(LastBranch(run.anchor, stem_ids + run.exact_ids))

    head = cuts[0]
    first_branches = _first_branches(get, codes, head, min(lam, head - 1), lam)
    if head <= lam:
        # The head fits inside one chunk: one suffix query on the whole head
        # covers every remaining final-chunk length.
        first_branches.append(FirstBranch((), codes[:head]))
    return BranchPlan(core, last_branches, first_branches)


def execute_plan(
    fm: RLFMIndex, grammar: Grammar, plan: BranchPlan, trace: QueryTrace | None = None
) -> int:
    """Run every branch and sum the per-branch counts.

    Branches are pairwise disjoint, so the sum counts each occurrence
    exactly once.  The core is walked once per last branch and the
    resulting range is shared across the first branches; each suffix
    count resolves its query to a colex interval.  Each branch has one
    walk, a ``backward_step`` call or, traced, ``trace.walk`` over the
    same ids; a traced core traversal is the walk's steps past the last
    branch's exact ids.
    """
    if plan.dead:
        return 0
    walk = fm.backward_step if trace is None else partial(trace.walk, fm)
    total = 0
    core = plan.core_ids
    pairs = zip(
        plan.last_branches,
        zip(plan.first_branches) if plan.paired else repeat(plan.first_branches),
    )
    for lb, first_branches in pairs:
        lo, hi = fm.id_interval_range(*grammar.prefix_range(lb.anchor))
        if trace:
            trace.log("anchor", lb.anchor, (lo, hi))
        ids = core + lb.exact_ids
        if ids:
            lo, hi = walk(lo, hi, ids)
            if trace and trace.steps > len(lb.exact_ids):
                steps = trace.steps - len(lb.exact_ids)
                trace.core_traversals.append((steps, steps == len(core)))
        if lo > hi:
            continue
        for fb in first_branches:
            a, b = lo, hi
            if fb.exact_ids:
                a, b = walk(lo, hi, fb.exact_ids)
                if a > b:
                    continue
            q = fb.suffix_query
            if q is None:
                total += b - a + 1
                continue
            total += fm.count_symbols_in_range(
                a, b, grammar.suffix_symbols(q), grammar.colex_rank, grammar.colex_to_lex
            )
            if trace:
                trace.log("suffix_count", q, (a, b))
    return total


def count(index, pattern: bytes, trace: QueryTrace | None = None) -> int:
    """Occurrences of a byte pattern; bytes outside the alphabet give 0."""
    codes = index.alphabet.encode(pattern)
    if codes is None:
        return 0
    if len(codes) < index.grammar.lam:
        return index.trie.count(codes)
    plan = plan_branches(codes, index.grammar)
    return execute_plan(index.rlfm1, index.grammar, plan, trace)
