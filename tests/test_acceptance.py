"""Ship criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria 8 and 9 build on the half-mebibyte generated corpus
and take a minute or so combined; everything else is fast.
"""

import random
import time

import numpy as np

from conftest import to_codes
from gfi import grammar as gm
from gfi import lms
from gfi.bwt import bwt_of
from gfi.index import build_index, load_index, save_index
from gfi.oracle import extract_patterns, naive_count
from gfi.query import QueryTrace, count
from gfi.rlfm import RLFMIndex
from gfi.xbwt import build_xbwt

RUNNING = b"bacabacaacbcbc"


def best_time(fn, repeats=5):
    fn()  # warm caches and numpy dispatch
    best = min(_timed(fn) for _ in range(repeats))
    return best


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def letters(rules):
    return ["".join(chr(96 + c) for c in s) for s in rules]


def test_criterion_01_running_example_grammar():
    for lam in (3, 4, 8):
        g, level1 = gm.build(to_codes(RUNNING), lam)
        assert letters(g.rhs) == ["aac", "ab", "ac", "b", "bc"]
        assert level1.tolist() == [4, 3, 2, 3, 1, 5, 5]  # DCBCAEE
    elapsed = best_time(lambda: gm.build(to_codes(RUNNING), 4))
    assert elapsed < 1e-3, elapsed
    print("criterion 1 PASS: 5 rules and DCBCAEE, build %.3f ms" % (elapsed * 1e3))


def test_criterion_02_level0_bwt():
    b = bwt_of(list(to_codes(RUNNING)))
    assert "".join("$" if c == 0 else chr(96 + c) for c in b.tolist()) == "cccbbaa$ccbaaba"
    elapsed = best_time(lambda: bwt_of(list(to_codes(RUNNING))))
    assert elapsed < 1e-3, elapsed
    print("criterion 2 PASS: level-0 BWT cccbbaa$ccbaaba, %.3f ms" % (elapsed * 1e3))


def test_criterion_03_level1_bwt():
    _, level1 = gm.build(to_codes(RUNNING), 4)
    assert bwt_of(level1).tolist() == [5, 3, 3, 2, 4, 0, 5, 1]  # ECCBD$EA
    print("criterion 3 PASS: level-1 BWT ECCBD$EA")


def test_criterion_04_colex_ranking():
    g, _ = gm.build(to_codes(RUNNING), 4)
    # terminator 0, A=4, B=2, C=3, D=1, E=5
    assert g.colex_rank.tolist() == [0, 4, 2, 3, 1, 5]
    print("criterion 4 PASS: colex ranks $0 D1 B2 C3 A4 E5")


def test_criterion_05_backward_search_trace():
    idx = build_index(RUNNING, 4)
    trace = QueryTrace()
    assert count(idx, b"cabaca", trace) == 1
    start = trace.events.index(("anchor", bytes([1]), (2, 5)))
    walk = trace.events[start : start + 4]
    assert walk[1] == ("step", 3, (4, 5))  # C
    assert walk[2] == ("step", 2, (3, 3))  # B
    assert walk[3][0] == "suffix_count" and walk[3][2] == (3, 3)
    print("criterion 5 PASS: cabaca walk [2..5] -> [4..5] -> [3..3] -> 1")


def test_criterion_06_xbwt_arrays():
    g, _ = gm.build(to_codes(RUNNING), 4)
    trie = build_xbwt(g)
    assert trie.L.tolist() == [2, 3, 0, 0, 0, 1, 0, 1, 0, 1, 2]  # b c $ $ $ a $ a $ a b
    assert trie.last.tolist() == [0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1]
    assert trie.prefix_range(bytes([1])) == (1, 3)  # a -> {A, B, C}
    print("criterion 6 PASS: XBWT arrays and prefix query match")


def _suite_cases(seed):
    """The oracle-equivalence suite: (text bytes, lam, patterns)."""
    rng = random.Random(seed)
    for sigma in (2, 3, 4, 16):
        per_sigma = 0
        for _ in range(16):
            n = rng.randint(64, 2000)
            raw = bytes(rng.randint(97, 96 + sigma) for _ in range(n))
            for lam in range(1, 9):
                patterns = []
                for _ in range(8):
                    m = rng.randint(1, 64)
                    if rng.random() < 0.5 and n >= m:
                        i = rng.randint(0, n - m)
                        patterns.append(raw[i : i + m])
                    else:
                        patterns.append(
                            bytes(rng.randint(97, 96 + sigma) for _ in range(m))
                        )
                per_sigma += len(patterns)
                yield sigma, raw, lam, patterns
        assert per_sigma >= 1000


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    cases = mismatches = 0
    for sigma, raw, lam, patterns in _suite_cases(1007):
        idx = build_index(raw, lam, with_baseline=True)
        for pat in patterns:
            want = naive_count(raw, pat)
            if count(idx, pat) != want or idx.count_baseline(pat) != want:
                mismatches += 1
            cases += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert cases >= 4000
    assert elapsed < 300, elapsed
    print(
        "criterion 7 PASS: %d cases across sigma 2,3,4,16, 0 mismatches, %.1f s"
        % (cases, elapsed)
    )


def test_criterion_08_compression_trend(artificial_text):
    from gfi.alphabet import densify

    start = time.perf_counter()
    text = densify(artificial_text)[0]
    r0 = RLFMIndex.from_bwt(bwt_of(np.frombuffer(text, dtype=np.uint8))).run_count
    r1 = {}
    for lam in range(1, 9):
        _, level1 = gm.build(text, lam)
        r1[lam] = RLFMIndex.from_bwt(bwt_of(level1)).run_count
    elapsed = time.perf_counter() - start
    assert all(r1[lam + 1] <= r1[lam] for lam in range(1, 8)), r1
    assert r1[1] == r0
    ratio = r1[4] / r0
    assert 0.40 <= ratio <= 0.70, ratio
    assert elapsed < 120, elapsed
    print(
        "criterion 8 PASS: r1 non-increasing, r1(1)=r0=%d, r1(4)/r0=%.3f, %.1f s"
        % (r0, ratio, elapsed)
    )


def test_criterion_09_step_counts(artificial_text, artificial_index):
    idx = artificial_index
    patterns = extract_patterns(
        np.frombuffer(artificial_text, dtype="u1"), 2**12, 100, 2025
    )
    total_ranks = 0
    for pat in patterns:
        pb = pat.tobytes()
        codes = idx.alphabet.encode(pb)
        factors = lms.factorize(codes, lms.classify(codes))
        expected = sum(-(-len(f) // idx.grammar.lam) for f in factors[1:-1])
        trace = QueryTrace()
        idx.rlfm1.stats.reset()
        assert count(idx, pb, trace) >= 1
        total_ranks += idx.rlfm1.stats.rank_calls
        completed = [s for s, done in trace.core_traversals if done]
        assert completed, "no branch completed the core"
        assert all(s == expected for s in completed)
    chars = 100 * 2**12
    per_char = total_ranks / chars
    assert per_char <= 0.9, per_char

    idx.rlfm0.stats.reset()
    for pat in patterns[:10]:
        idx.count_baseline(pat.tobytes())
    baseline_per_char = idx.rlfm0.stats.rank_calls / (10 * 2**12)
    assert baseline_per_char == 2.0
    print(
        "criterion 9 PASS: core steps exact on 100 patterns, %.3f rank calls/char"
        " (baseline %.1f)" % (per_char, baseline_per_char)
    )


def test_criterion_10_serialization_round_trip():
    start = time.perf_counter()
    checked = 0
    for sigma, raw, lam, patterns in _suite_cases(1010):
        idx = build_index(raw, lam, with_baseline=True)
        blob = save_index(idx)
        loaded = load_index(blob)
        assert save_index(loaded) == blob
        for pat in patterns:
            want = naive_count(raw, pat)
            assert count(loaded, pat) == want
            assert loaded.count_baseline(pat) == want
            checked += 1
    elapsed = time.perf_counter() - start
    print(
        "criterion 10 PASS: %d byte-identical round trips, loaded counts agree, %.1f s"
        % (checked, elapsed)
    )
