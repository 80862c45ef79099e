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
branch and sums the results.  Both plan shapes, the general one and the
single-factor one, cut every right end on the chunk grid with one helper
(``_cut``) and enumerate the final-chunk lengths of a head with another
(``_first_branches``).

Patterns shorter than the chunk size are answered by the short-pattern
trie instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from gfi import lms
from gfi.grammar import Grammar
from gfi.lms import chunk_string
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
    (kind, payload, (lo, hi)).
    """

    core_traversals: list = field(default_factory=list)
    events: list = field(default_factory=list)

    def log(self, kind, payload, rng: tuple[int, int]):
        self.events.append((kind, payload, rng))


def trailing_run(s: bytes) -> int:
    """Length of the maximal equal-character suffix of s."""
    k = len(s) - 1
    while k > 0 and s[k - 1] == s[-1]:
        k -= 1
    return len(s) - k


def pattern_factors(codes: bytes) -> list[bytes]:
    """The pattern's LMS factors, cut by the same scan as the text's."""
    return lms.factorize(codes, lms.classify(codes))


def _ids_of(grammar: Grammar, pieces) -> tuple | None:
    """The rule ids of the pieces, or None when one of them is not a rule."""
    ids = tuple(map(grammar.rhs_id.get, pieces))
    return None if None in ids else ids


def _cut(grammar: Grammar, s: bytes) -> LastBranch | None:
    """Cut ``s`` into lam-chunks from its first character.

    Every piece but the last must be a rule; the last seeds the search as
    a prefix query.  None when a piece is not a rule.
    """
    pieces = chunk_string(s, grammar.lam)
    exact = _ids_of(grammar, pieces[:-1])
    return None if exact is None else LastBranch(pieces[-1], exact)


def _first_branches(grammar: Grammar, head: bytes, longest: int) -> list[FirstBranch]:
    """Branches over final-chunk lengths 1..longest of the factor covering ``head``.

    ``head`` ends at a factor boundary.  A final chunk of length f shorter
    than the head pins its last f characters exactly, full chunks continue
    leftward, and whatever is left of the head resolves through a suffix
    query.
    """
    lam = grammar.lam
    out: list[FirstBranch] = []
    for f in range(1, longest + 1):
        rest = head[:-f]
        g = len(rest) % lam
        exact = _ids_of(grammar, chunk_string(rest[g:], lam) + [head[-f:]])
        if exact is not None:
            out.append(FirstBranch(exact, rest[:g] or None))
    return out


def _plan_composite(factors: list[bytes], grammar: Grammar) -> BranchPlan:
    """Plan for patterns with at least two factors."""
    lam = grammar.lam
    plan = BranchPlan()

    core = _ids_of(grammar, lms.chunk(factors[1:-1], lam))
    if core is None:
        plan.dead = True
        return plan
    plan.core_ids = core

    last = factors[-1]
    plain = _cut(grammar, last)
    if plain is not None:
        plan.last_branches.append(plain)

    stem = last[: -trailing_run(last)]
    if len(stem) % lam != 0:
        # A stem ending off the chunk grid makes the transferred-run search
        # distinguishable from the plain one; on the grid the two collapse
        # and the plain branch already counts both typings.
        run = _cut(grammar, last[len(stem) :])
        stem_exact = _ids_of(grammar, chunk_string(stem, lam))
        if run is not None and stem_exact is not None:
            plan.last_branches.append(LastBranch(run.anchor, stem_exact + run.exact_ids))

    head = factors[0]
    plan.first_branches = _first_branches(grammar, head, min(lam, len(head) - 1))
    if len(head) <= lam:
        # The head fits inside one chunk: one suffix query on the whole head
        # covers every remaining final-chunk length.
        plan.first_branches.append(FirstBranch((), head))
    return plan


def _plan_single(pattern: bytes, grammar: Grammar) -> BranchPlan:
    """Plan for single-factor patterns of at least chunk length.

    Without interior factors there is no core; instead the pattern's
    start offset inside its covering chunk is enumerated directly: the
    pattern minus its first h characters is cut on the chunk grid and
    those h characters become the suffix query.  The transferred-run
    variants come from the head enumeration over the run-free stem, for
    the final-chunk lengths that the offsets cannot express: a full final
    chunk would put the run on an offset's grid and repeat its search.
    """
    lam = grammar.lam
    plan = BranchPlan(paired=True)

    for h in range(lam):
        lb = _cut(grammar, pattern[h:])
        if lb is not None:
            plan.last_branches.append(lb)
            plan.first_branches.append(FirstBranch((), pattern[:h] or None))

    stem = pattern[: -trailing_run(pattern)]
    run = _cut(grammar, pattern[len(stem) :])
    if run is not None:
        for fb in _first_branches(grammar, stem, min(lam - 1, len(stem) - 1)):
            plan.last_branches.append(LastBranch(run.anchor, fb.exact_ids + run.exact_ids))
            plan.first_branches.append(FirstBranch((), fb.suffix_query))
    return plan


def plan_branches(codes: bytes, grammar: Grammar) -> BranchPlan:
    """Build the branch plan for a pattern of at least chunk length."""
    factors = pattern_factors(codes)
    if len(factors) >= 2:
        return _plan_composite(factors, grammar)
    return _plan_single(factors[0], grammar)


def _walk(fm: RLFMIndex, lo: int, hi: int, ids, trace) -> tuple[int, int, int]:
    """Backward steps through ``ids`` right to left, stopping at an empty range.

    Returns the final range and the number of steps taken.
    """
    steps = 0
    for sym in reversed(ids):
        if lo > hi:
            break
        lo, hi = fm.backward_step(lo, hi, sym)
        steps += 1
        if trace:
            trace.log("step", sym, (lo, hi))
    return lo, hi, steps


def _finish(fm: RLFMIndex, grammar: Grammar, lo: int, hi: int, fb: FirstBranch, trace) -> int:
    lo, hi, _ = _walk(fm, lo, hi, fb.exact_ids, trace)
    if lo > hi:
        return 0
    if fb.suffix_query is None:
        return hi - lo + 1
    ranks = grammar.suffix_symbols(fb.suffix_query)
    hits = fm.count_symbols_in_range(lo, hi, ranks, grammar.colex_rank, grammar.colex_to_lex)
    if trace:
        trace.log("suffix_count", fb.suffix_query, (lo, hi))
    return hits


def execute_plan(
    fm: RLFMIndex, grammar: Grammar, plan: BranchPlan, trace: QueryTrace | None = None
) -> int:
    """Run every branch and sum the per-branch counts.

    Branches are pairwise disjoint, so the sum counts each occurrence
    exactly once.  The core is walked once per last branch and the
    resulting range is shared across the first branches.
    """
    if plan.dead:
        return 0
    total = 0
    pairs = (
        zip(plan.last_branches, ([fb] for fb in plan.first_branches))
        if plan.paired
        else ((lb, plan.first_branches) for lb in plan.last_branches)
    )
    for lb, first_branches in pairs:
        lo, hi = fm.id_interval_range(*grammar.prefix_range(lb.anchor))
        if trace:
            trace.log("anchor", lb.anchor, (lo, hi))
        lo, hi, _ = _walk(fm, lo, hi, lb.exact_ids, trace)
        lo, hi, steps = _walk(fm, lo, hi, plan.core_ids, trace)
        if trace and steps:
            trace.core_traversals.append((steps, steps == len(plan.core_ids)))
        if lo > hi:
            continue
        for fb in first_branches:
            total += _finish(fm, grammar, lo, hi, fb, trace)
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
