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

Patterns shorter than the chunk size are answered by the short-pattern
trie instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gfi import lms
from gfi.errors import InvalidPatternError
from gfi.grammar import Grammar
from gfi.lms import chunk_string
from gfi.rlfm import RLFMIndex


@dataclass(frozen=True)
class LastBranch:
    """Right end of a search: a prefix-range anchor, then exact symbols.

    ``exact_ids`` are in left-to-right text order; the executor steps
    through them right to left after seeding the range from the anchor.
    """

    anchor: bytes
    exact_ids: tuple


@dataclass(frozen=True)
class FirstBranch:
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


def _run_pieces(grammar: Grammar, run_char: int, run_len: int):
    """Anchor string and exact full chunks covering a transferred run.

    The run is a prefix of the following text factor, so its full chunks
    are exact symbols and its remainder seeds the search as a prefix
    query.  A remainder-free run anchors on its own last full chunk.
    """
    lam = grammar.lam
    rem = run_len % lam
    full = run_len // lam
    if rem == 0:
        rem = lam
        full -= 1
    anchor = bytes([run_char]) * rem
    exact = _ids_of(grammar, [bytes([run_char]) * lam] * full)
    return anchor, exact


def _first_branches(grammar: Grammar, head: bytes) -> list[FirstBranch]:
    """Branches over the final-chunk length of the factor covering ``head``.

    ``head`` ends at a factor boundary.  A final chunk of length f shorter
    than the head pins its last f characters exactly, full chunks continue
    leftward, and whatever is left of the head resolves through a suffix
    query.  When the head fits inside one chunk, a single suffix query on
    the whole head covers all remaining final-chunk lengths.
    """
    lam = grammar.lam
    out: list[FirstBranch] = []
    for f in range(1, min(lam, len(head) - 1) + 1):
        rest = head[:-f]
        g = len(rest) % lam
        exact = _ids_of(grammar, chunk_string(rest[g:], lam) + [head[-f:]])
        if exact is None:
            continue
        out.append(FirstBranch(exact_ids=exact, suffix_query=rest[:g] if g else None))
    if len(head) <= lam:
        out.append(FirstBranch(exact_ids=(), suffix_query=head))
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
    pieces = chunk_string(last, lam)
    exact = _ids_of(grammar, pieces[:-1])
    if exact is not None:
        plan.last_branches.append(LastBranch(anchor=pieces[-1], exact_ids=exact))

    run_len = trailing_run(last)
    stem = last[:-run_len]
    if len(stem) % lam != 0:
        # A stem ending off the chunk grid makes the transferred-run search
        # distinguishable from the plain one; on the grid the two collapse
        # and the plain branch already counts both typings.
        anchor, run_exact = _run_pieces(grammar, last[-1], run_len)
        stem_exact = _ids_of(grammar, chunk_string(stem, lam))
        if run_exact is not None and stem_exact is not None:
            plan.last_branches.append(
                LastBranch(anchor=anchor, exact_ids=stem_exact + run_exact)
            )

    plan.first_branches = _first_branches(grammar, factors[0])
    return plan


def _plan_single(pattern: bytes, grammar: Grammar) -> BranchPlan:
    """Plan for single-factor patterns of at least chunk length.

    Without interior factors there is no core; instead the pattern's
    start offset inside its covering chunk is enumerated directly (head
    length h), and the transferred-run variants are added for final-chunk
    lengths of the run-free stem that the offset enumeration cannot
    express.  Offsets whose grid coincides with a run-transfer split are
    emitted only once.
    """
    lam = grammar.lam
    plan = BranchPlan(paired=True)

    for h in range(1, lam + 1):
        rest = pattern[h:]
        suffix_q: bytes | None = pattern[:h] if h < lam else None
        lead = [pattern[:lam]] if h == lam else []
        if rest:
            s = len(rest) % lam or lam
            anchor = rest[len(rest) - s :]
            exact = _ids_of(grammar, lead + chunk_string(rest[: len(rest) - s], lam))
        else:
            anchor = pattern
            exact = ()
        if exact is None:
            continue
        plan.last_branches.append(LastBranch(anchor=anchor, exact_ids=exact))
        plan.first_branches.append(FirstBranch(exact_ids=(), suffix_query=suffix_q))

    run_len = trailing_run(pattern)
    stem = pattern[:-run_len]
    run_anchor, run_exact = _run_pieces(grammar, pattern[-1], run_len)
    if run_exact is not None:
        for f in range(1, min(lam - 1, len(stem) - 1) + 1):
            rest = stem[:-f]
            g = len(rest) % lam
            exact = _ids_of(grammar, chunk_string(rest[g:], lam) + [stem[-f:]])
            if exact is None:
                continue
            plan.last_branches.append(
                LastBranch(anchor=run_anchor, exact_ids=exact + run_exact)
            )
            plan.first_branches.append(
                FirstBranch(exact_ids=(), suffix_query=rest[:g] if g else None)
            )
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
    hits = fm.count_symbols_in_range(lo, hi, grammar.suffix_symbols(fb.suffix_query))
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
    if len(pattern) == 0:
        raise InvalidPatternError("empty pattern")
    codes = index.alphabet.encode(pattern)
    if codes is None:
        return 0
    if len(codes) < index.lam:
        return index.trie.count(codes)
    plan = plan_branches(codes, index.grammar)
    return execute_plan(index.rlfm1, index.grammar, plan, trace)
