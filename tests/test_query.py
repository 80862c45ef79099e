import random
import time

import numpy as np
import pytest

from conftest import LARGE_LAMBDAS, to_codes
from gfi import grammar as gm
from gfi import lms
from gfi.errors import InvalidPatternError
from gfi.index import build_index, load_index, save_index
from gfi.oracle import naive_count
from gfi.query import (
    QueryTrace,
    count,
    execute_plan,
    plan_branches,
    trailing_run,
)
from gfi.rlfm import RLFMIndex


def test_count_examples(running_example_index):
    idx = running_example_index
    assert count(idx, b"cabaca") == 1
    assert count(idx, b"ca") == 2
    assert count(idx, b"zz") == 0
    assert count(idx, b"a") == 5


def test_count_rejects_empty(running_example_index):
    with pytest.raises(InvalidPatternError):
        count(running_example_index, b"")


def test_count_and_baseline_count_reject_empty():
    # the baseline's full row range would otherwise answer n + 1
    idx = build_index(b"abracadabra", 3, with_baseline=True)
    with pytest.raises(InvalidPatternError):
        idx.count(b"")
    with pytest.raises(InvalidPatternError):
        idx.count_baseline(b"")


def test_bytes_like_patterns_count_as_bytes():
    """A bytearray or memoryview pattern counts as its bytes do, on the trie
    route, the planner route and the baseline."""
    idx = build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True)
    for pat in (b"ab", b"cabaca", b"acbcbcba", b"zz"):
        want = (idx.count(pat), idx.count_baseline(pat))
        for like in (bytearray(pat), memoryview(pat)):
            assert (idx.count(like), idx.count_baseline(like)) == want, like
    assert idx.count(bytearray(b"cabaca")) == idx.count(memoryview(b"ab")) == 5


def test_short_patterns_use_trie(running_example_index):
    idx = running_example_index
    assert count(idx, b"bc") == 2
    assert count(idx, b"aac") == 1
    assert count(idx, b"cc") == 0


def test_trailing_run():
    assert trailing_run(b"acc") == 2
    assert trailing_run(b"aaaa") == 4
    assert trailing_run(b"ab") == 1


def test_plan_structure_cabaca(running_example_index):
    g = running_example_index.grammar
    plan = plan_branches(to_codes(b"cabaca"), g)
    assert not plan.paired and not plan.dead
    assert plan.core_ids == (2,)  # the ab rule
    anchors = sorted(lb.anchor for lb in plan.last_branches)
    assert anchors == [bytes([1]), bytes([1, 3, 1])]  # run remainder a; whole factor aca
    by_anchor = {lb.anchor: lb.exact_ids for lb in plan.last_branches}
    assert by_anchor[bytes([1, 3, 1])] == ()
    assert by_anchor[bytes([1])] == (3,)  # the ac rule carries the stem
    assert len(plan.first_branches) == 1
    fb = plan.first_branches[0]
    assert fb.exact_ids == () and fb.suffix_query == bytes([3])


def test_plan_structure_trailing_run_transfer():
    g = gm.Grammar(lam=2, rhs=[bytes([1]), bytes([1, 3]), bytes([3]), bytes([3, 3])])
    plan = plan_branches(to_codes(b"bacc"), g)  # factors b | acc
    assert plan.core_ids == ()  # two factors leave no interior
    by_anchor = {lb.anchor: lb.exact_ids for lb in plan.last_branches}
    assert by_anchor[bytes([3])] == (2,)  # plain: exact ac, anchor on final chunk c
    assert by_anchor[bytes([3, 3])] == (1,)  # transfer: exact a, anchor on the run cc


def test_plan_suppresses_indistinguishable_transfer_branch():
    # stem length on the chunk grid: the transferred-run search would be
    # identical to the plain one, so only the plain branch is emitted
    g = gm.Grammar(lam=2, rhs=[bytes([1, 2]), bytes([2]), bytes([3, 3])])
    plan = plan_branches(to_codes(b"babcc"), g)  # factors b | abcc
    assert len(plan.last_branches) == 1
    assert plan.last_branches[0].anchor == bytes([3, 3])
    assert plan.last_branches[0].exact_ids == (1,)


def test_plan_structure_single_factor_transfer():
    # abcc is one factor: offsets h=0 and h=1, plus one transferred-run
    # search; the whole-stem search would repeat offset h=0 and is not emitted
    a, b, c = (bytes([k]) for k in (1, 2, 3))
    g = gm.Grammar(lam=2, rhs=[a, a + b, b, b + c, c, c + c])
    plan = plan_branches(a + b + c + c, g)
    assert plan.paired and not plan.dead
    assert len(plan.last_branches) == len(plan.first_branches) == 3
    assert all(fb.exact_ids == () for fb in plan.first_branches)
    # (anchor, backward-step rules in execution order, suffix query)
    searches = {
        (lb.anchor, tuple(g.rhs[i - 1] for i in reversed(lb.exact_ids)), fb.suffix_query)
        for lb, fb in zip(plan.last_branches, plan.first_branches)
    }
    assert searches == {(c + c, (a + b,), None), (c, (b + c,), a), (c + c, (b,), a)}


def test_plan_dead_when_core_chunk_missing():
    idx = build_index(b"bacabacaacbcbc", 4)
    # the pattern's interior factor abc never occurs as a rule
    plan = plan_branches(to_codes(b"cabcaca"), idx.grammar)
    assert plan.dead
    assert count(idx, b"cabcaca") == 0
    # bacabacaacbc is b | ac | ab | ac | aac | bc; at lam=2 its core is
    # ac ab ac aa c.  Without the rule c the last core chunk misses, and
    # the plan is dead before any end branch is looked up.
    rules = [to_codes(r) for r in (b"aa", b"ab", b"ac", b"b", b"bc", b"c")]
    codes = to_codes(b"bacabacaacbc")
    assert plan_branches(codes, gm.Grammar(lam=2, rhs=rules)).core_ids == (3, 2, 3, 1, 6)
    plan = plan_branches(codes, gm.Grammar(lam=2, rhs=rules[:-1]))
    assert plan.dead
    assert plan.core_ids == () and plan.last_branches == [] and plan.first_branches == []


def test_trace_logs_the_criterion_5_walk():
    # cabaca at lam=4: the whole-factor anchor aca is empty and takes no
    # step; the run anchor a walks [2..5] -> [4..5] -> [3..3]
    idx = build_index(b"bacabacaacbcbc", 4)
    trace = QueryTrace()
    assert count(idx, b"cabaca", trace) == 1
    a, b, c = (bytes([k]) for k in (1, 2, 3))
    assert trace.events == [
        ("anchor", a + c + a, (1, 0)),
        ("anchor", a, (2, 5)),
        ("step", 3, (4, 5)),
        ("step", 2, (3, 3)),
        ("suffix_count", c, (3, 3)),
    ]
    assert trace.core_traversals == [(1, True)]


def test_trace_records_a_core_traversal_only_past_the_exact_ids():
    """On the running example at lam=2, cabaab's last-branch exact id (a)
    empties the range before the core, so no traversal is recorded;
    baccab's two-id core empties at its first step, recorded as (1, False)."""
    idx = build_index(b"bacabacaacbcbc", 2)
    for pat, exact, core, steps, traversals in (
        (b"cabaab", (1,), (2,), [("step", 1, (2, 1))], []),
        (b"baccab", (), (3, 6), [("step", 6, (9, 8))], [(1, False)]),
    ):
        plan = plan_branches(to_codes(pat), idx.grammar)
        assert [lb.exact_ids for lb in plan.last_branches] == [exact] and plan.core_ids == core
        trace = QueryTrace()
        assert count(idx, pat, trace) == 0
        assert [e for e in trace.events if e[0] == "step"] == steps
        assert trace.core_traversals == traversals, pat


def test_execute_resolves_each_suffix_query_once(monkeypatch, artificial_text, artificial_index):
    """Each suffix count resolves its query to a colex interval with exactly
    one Grammar.suffix_symbols call, and nothing else calls it."""
    calls = []
    suffix_symbols = gm.Grammar.suffix_symbols

    def counted(self, q):
        calls.append(q)
        return suffix_symbols(self, q)

    monkeypatch.setattr(gm.Grammar, "suffix_symbols", counted)
    idx = artificial_index
    rng = random.Random(29)
    resolved = 0
    for _ in range(300):
        m = rng.randint(4, 64)
        i = rng.randrange(len(artificial_text) - m + 1)
        pat = artificial_text[i : i + m]
        plan = plan_branches(idx.alphabet.encode(pat), idx.grammar)
        calls.clear()
        trace = QueryTrace()
        assert execute_plan(idx.rlfm1, idx.grammar, plan, trace) == idx.count_baseline(pat)
        counted_queries = [payload for kind, payload, _ in trace.events if kind == "suffix_count"]
        assert calls == counted_queries, pat
        resolved += len(calls)
    assert resolved >= 300, resolved


def test_rank_counters_match_recorded_values(artificial_text):
    """Rank and step calls on a seeded pattern set are fixed numbers: a
    constant-factor change to the query path must leave them identical."""
    text = artificial_text[:100_000]
    recorded = {4: (13464, 5978, 6511), 8: (10502, 4946, 2703)}
    for lam, expected in recorded.items():
        rng = random.Random(lam)
        idx = build_index(text, lam)
        idx.rlfm1.stats.reset()
        total = 0
        for _ in range(400):
            m = rng.randint(lam, 96)
            if rng.random() < 0.8:
                i = rng.randrange(len(text) - m + 1)
                pat = text[i : i + m]
            else:
                pat = bytes(rng.choices(b"ACGT", k=m))
            total += count(idx, pat)
        assert (idx.rlfm1.stats.rank_calls, idx.rlfm1.stats.step_calls, total) == expected


def test_step_spans_charge_two_rank_calls_per_step(artificial_text, monkeypatch):
    """A wrapper around ``RLFMIndex.backward_step``, as the benchmark's tracer
    installs, sees the counter move by exactly two rank calls per step over
    all its calls, on gfi and on the baseline; and a QueryTrace, which steps
    one symbol per call, charges what one call per walk does."""
    deltas = []
    step = RLFMIndex.backward_step

    def spanned(self, lo, hi, symbols):
        before = self.stats.rank_calls
        out = step(self, lo, hi, symbols)
        deltas.append(self.stats.rank_calls - before)
        return out

    monkeypatch.setattr(RLFMIndex, "backward_step", spanned)
    text = artificial_text[:100_000]
    rng = random.Random(31)
    for lam in (4, 8):
        idx = build_index(text, lam, with_baseline=True)
        patterns = []
        for _ in range(150):
            m = rng.randint(lam, 200)
            i = rng.randrange(len(text) - m + 1)
            random_pattern = bytes(rng.choices(b"ACGT", k=m))
            patterns.append(text[i : i + m] if rng.random() < 0.8 else random_pattern)
        for fm, counter in ((idx.rlfm1, idx.count), (idx.rlfm0, idx.count_baseline)):
            deltas.clear()
            fm.stats.reset()
            assert sum(map(counter, patterns)) > 0
            assert sum(deltas) == 2 * fm.stats.step_calls > 0
        assert len(deltas) == len(patterns)  # the baseline walks each pattern in one call
        for pattern in patterns:
            seen = []
            for trace in (None, QueryTrace()):
                idx.rlfm1.stats.reset()
                got = count(idx, pattern, trace)
                seen.append((got, idx.rlfm1.stats.rank_calls, idx.rlfm1.stats.step_calls))
            assert seen[0] == seen[1], pattern


def test_count_single_factor_patterns():
    idx = build_index(b"cccccccccc", 2)
    assert count(idx, b"cccc") == 7
    assert count(idx, b"cc") == 9
    idx2 = build_index(b"abababab", 3)
    assert count(idx2, b"ababa") == 2


def chain_constraints(plan, grammar):
    """Expand a plan into explicit slot-constraint chains.

    Each chain is (suffix_query, slots) where slots are sets of allowed
    symbols left to right; the final slot comes from the anchor, and the
    suffix query's colex ranks are mapped back to lex ids.
    """
    chains = []
    if plan.dead:
        return chains

    def anchor_set(anchor):
        lo, hi = grammar.prefix_range(anchor)
        return set(range(lo, hi + 1))

    if plan.paired:
        combos = zip(plan.last_branches, plan.first_branches)
    else:
        combos = (
            (lb, fb) for lb in plan.last_branches for fb in plan.first_branches
        )
    for lb, fb in combos:
        slots = [
            {sym}
            for sym in list(fb.exact_ids) + list(plan.core_ids) + list(lb.exact_ids)
        ]
        slots.append(anchor_set(lb.anchor))
        if fb.suffix_query is not None:
            ranks = grammar.suffix_symbols(fb.suffix_query)
            slots.insert(0, {grammar.colex_to_lex[r - 1] for r in ranks})
        chains.append((fb.suffix_query, slots))
    return chains


def simulate_positions(chain, grammar, level1):
    """Text positions (0-based) where the chain matches the symbol string."""
    suffix_query, slots = chain
    lengths = np.array([0] + [len(s) for s in grammar.rhs])  # by lex id; 0 is the terminator
    exp_start = np.zeros(len(level1) + 1, dtype=np.int64)
    np.cumsum(lengths[level1], out=exp_start[1:])
    out = []
    k = len(slots)
    seq = level1.tolist()
    for j in range(len(seq) - k + 1):
        if all(seq[j + d] in slots[d] for d in range(k)):
            start = int(exp_start[j])
            if suffix_query is not None:
                start += int(lengths[seq[j]]) - len(suffix_query)
            out.append(start)
    return out


def test_branches_partition_the_occurrences():
    """Each text occurrence is matched by exactly one branch chain."""
    rng = random.Random(18)
    checked = 0
    for _ in range(300):
        sigma = rng.choice([2, 3])
        n = rng.randint(4, 120)
        raw = bytes(rng.randint(97, 96 + sigma) for _ in range(n))
        lam = rng.randint(1, 4)
        g, level1 = gm.build(to_codes(raw), lam)
        m = rng.randint(lam, min(n, 24))
        if rng.random() < 0.7:
            i = rng.randint(0, n - m)
            pat = raw[i : i + m]
        else:
            pat = bytes(rng.randint(97, 96 + sigma) for _ in range(m))
        plan = plan_branches(to_codes(pat), g)
        positions = []
        for chain in chain_constraints(plan, g):
            positions.extend(simulate_positions(chain, g, level1))
        expect = [
            i for i in range(n - m + 1) if raw[i : i + m] == pat
        ]
        assert len(positions) == len(set(positions)), (raw, lam, pat)
        assert sorted(positions) == expect, (raw, lam, pat)
        checked += 1
    assert checked == 300


def test_core_step_count_formula():
    """A branch that walks the whole core does so in exactly one backward
    step per interior chunk."""
    rng = random.Random(19)
    seen = 0
    for _ in range(200):
        sigma = rng.choice([2, 3, 4])
        n = rng.randint(30, 400)
        raw = bytes(rng.randint(97, 96 + sigma) for _ in range(n))
        lam = rng.randint(1, 4)
        idx = build_index(raw, lam)
        m = rng.randint(max(lam, 12), min(n, 48))
        i = rng.randint(0, n - m)
        pat = raw[i : i + m]
        codes = to_codes(pat)
        factors = lms.factorize(codes, lms.classify(codes))
        if len(factors) < 3:
            continue
        expect = sum(-(-len(f) // lam) for f in factors[1:-1])
        trace = QueryTrace()
        got = count(idx, pat, trace)
        assert got >= 1
        completed = [s for s, done in trace.core_traversals if done]
        assert completed, (raw, lam, pat)
        assert all(s == expect for s in completed)
        seen += 1
    assert seen > 50


def _count_traced_and_untraced(idx, pat) -> int:
    """The count of ``pat``, checking that a fresh QueryTrace gives the same
    count and charges the same rank and step calls as an untraced count,
    and logs one "step" event per step it charges."""
    stats = idx.rlfm1.stats
    seen = []
    for trace in (None, QueryTrace()):
        stats.reset()
        seen.append((count(idx, pat, trace), stats.rank_calls, stats.step_calls))
    assert seen[0] == seen[1], pat
    assert sum(kind == "step" for kind, _, _ in trace.events) == stats.step_calls, pat
    return seen[0][0]


def test_oracle_equivalence_randomized():
    rng = random.Random(20)
    for _ in range(120):
        sigma = rng.choice([2, 3, 4, 16])
        n = rng.randint(2, 2000)
        raw = bytes(rng.randint(97, 96 + sigma) for _ in range(n))
        lam = rng.randint(1, 8)
        idx = build_index(raw, lam, with_baseline=True)
        text = list(raw)
        for _ in range(20):
            m = rng.randint(1, 64)
            if rng.random() < 0.5 and n >= m:
                i = rng.randint(0, n - m)
                pat = raw[i : i + m]
            else:
                pat = bytes(rng.randint(97, 96 + sigma) for _ in range(m))
            want = naive_count(text, list(pat))
            assert _count_traced_and_untraced(idx, pat) == want, (raw, lam, pat)
            assert idx.count_baseline(pat) == want


def _large_lambda_text(rng) -> tuple[int, bytes]:
    """An alphabet size and a random, periodic or run-structured text of
    at most 400 codes over it.

    Periodic and run-structured texts have long S* factors, so their
    patterns of at least chunk length are often single-factor ones."""
    sigma = rng.choice([1, 2, 3, 4, 16, 200])
    n = rng.randint(sigma, 400)
    kind = rng.random()
    if kind < 0.2:
        unit = bytes(rng.choices(range(1, sigma + 1), k=rng.randint(1, 6)))
        return sigma, (unit * n)[:n]
    if kind < 0.4:
        runs = [bytes([rng.randint(1, sigma)]) * rng.randint(1, 40) for _ in range(n // 20 + 1)]
        return sigma, b"".join(runs)[:n]
    return sigma, bytes(rng.choices(range(1, sigma + 1), k=n))


def test_oracle_equivalence_at_large_lambda():
    """Chunk sizes from 9 up to the format's 255, each index saved and
    loaded, with patterns of up to 300 codes on both sides of lam."""
    rng = random.Random(23)
    start = time.perf_counter()
    cases = 0
    for _ in range(30):
        sigma, raw = _large_lambda_text(rng)
        n = len(raw)
        for lam in LARGE_LAMBDAS:
            idx = load_index(save_index(build_index(raw, lam, with_baseline=True)))
            for _ in range(30):
                m = rng.choice([rng.randint(1, 300), rng.randint(max(1, lam - 2), lam + 2)])
                if rng.random() < 0.7 and n >= m:
                    i = rng.randint(0, n - m)
                    pat = raw[i : i + m]
                else:
                    pat = bytes(rng.choices(range(1, sigma + 1), k=m))
                want = naive_count(raw, pat)
                assert _count_traced_and_untraced(idx, pat) == want, (raw, lam, pat)
                assert idx.count_baseline(pat) == want, (raw, lam, pat)
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 4000
    assert elapsed < 60, elapsed
    print("large-lambda suite: %d cases, 0 mismatches, %.1f s" % (cases, elapsed))


def test_count_rejects_out_of_alphabet(running_example_index):
    for pat in (b"az", b"cabacz", b"\x00ca", b"cabac\xff"):
        assert count(running_example_index, pat) == 0
