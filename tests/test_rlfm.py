import itertools
import random

import numpy as np

from conftest import to_codes
from gfi.bwt import bwt_of
from gfi.oracle import naive_count
from gfi.rlfm import RLFMIndex

LEVEL1_BWT = [5, 3, 3, 2, 4, 0, 5, 1]  # ECCBD$EA


def sorted_suffixes(s):
    t = list(s) + [0]
    return sorted(range(len(t)), key=lambda i: t[i:])


def test_run_counts():
    assert RLFMIndex.from_bwt(LEVEL1_BWT).run_count == 7  # ECCBD$EA
    table1 = list(to_codes(b"cccbbaa")) + [0] + list(to_codes(b"ccbaaba"))
    assert RLFMIndex.from_bwt(table1).run_count == 9
    assert RLFMIndex.from_bwt([1, 1, 1, 0]).run_count == 2


def test_empty_bwt_has_no_runs():
    fm = RLFMIndex.from_bwt(np.array([], dtype=np.int64))
    assert fm.run_count == 0
    assert fm.total_length == 0
    assert fm.backward_step(1, 0, (0,)) == (1, 0)
    assert fm.count_plain([1]) == 0


def test_rank_examples():
    fm = RLFMIndex.from_bwt(LEVEL1_BWT)
    assert fm.rank(3, 5) == 2
    assert fm.rank(3, 0) == 0
    assert fm.rank(99, 4) == 0
    table1 = list(to_codes(b"cccbbaa")) + [0] + list(to_codes(b"ccbaaba"))
    fm0 = RLFMIndex.from_bwt(table1)
    assert fm0.rank(3, 6) == 3


def test_backward_step_examples():
    fm = RLFMIndex.from_bwt(LEVEL1_BWT)
    step1 = fm.backward_step(2, 5, (3,))
    assert step1 == (4, 5)
    step2 = fm.backward_step(*step1, (2,))
    assert step2 == (3, 3)
    lo, hi = fm.backward_step(1, 0, (3,))
    assert lo > hi


def random_ranking(rng, size):
    """A random 1-based ranking of the symbols 0..size-1, as (rank_of, by_rank)."""
    by_rank = list(range(size))
    rng.shuffle(by_rank)
    rank_of = [0] * size
    for r, c in enumerate(by_rank, 1):
        rank_of[c] = r
    return rank_of, by_rank


def test_count_symbols_in_range():
    fm = RLFMIndex.from_bwt(LEVEL1_BWT)
    ranking = random_ranking(random.Random(17), fm.alphabet_size)
    r = ranking[0][3]
    assert fm.count_symbols_in_range(3, 3, range(r, r + 1), *ranking) == 1  # row 3 holds a 3
    full = (1, fm.total_length)
    assert fm.count_symbols_in_range(*full, range(r, r + 1), *ranking) == 2
    every = range(1, fm.alphabet_size + 1)
    assert fm.count_symbols_in_range(*full, every, *ranking) == fm.total_length
    assert fm.count_symbols_in_range(*full, range(1, 1), *ranking) == 0


def test_initial_range_level0():
    fm = RLFMIndex.from_bwt(bwt_of(list(to_codes(b"bacabacaacbcbc"))))
    rng_a = fm.id_interval_range(1, 1)
    assert rng_a == (2, 6)
    rng_ca = fm.backward_step(*rng_a, (3,))
    assert rng_ca == (12, 13)
    lo, hi = fm.id_interval_range(9, 9)
    assert lo > hi


def test_invariants():
    fm = RLFMIndex.from_bwt(LEVEL1_BWT)
    assert int(fm.run_lengths.sum()) == fm.total_length == len(LEVEL1_BWT)
    assert np.all(np.diff(fm.C) >= 0)
    assert fm.C[-1] == fm.total_length
    for c in range(fm.alphabet_size):
        assert fm.rank(c, fm.total_length) == LEVEL1_BWT.count(c)


def test_rank_monotone_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 300)
        s = [rng.randint(1, 4) for _ in range(n)]
        fm = RLFMIndex.from_bwt(bwt_of(np.array(s)))
        for c in range(fm.alphabet_size):
            last = 0
            total = fm.rank(c, fm.total_length)
            for i in range(fm.total_length + 1):
                r = fm.rank(c, i)
                assert last <= r <= total
                last = r


def random_runs(rng):
    """Run heads over a random alphabet with gaps, and their lengths."""
    alphabet = sorted(rng.sample(range(12), rng.randint(1, 6)))
    heads = [rng.choice(alphabet)]
    for _ in range(rng.randint(0, 40)):
        choices = [c for c in alphabet if c != heads[-1]]
        if not choices:
            break
        heads.append(rng.choice(choices))
    return heads, [rng.randint(1, 7) for _ in heads]


def test_rank_exact_on_gapped_alphabets():
    rng = random.Random(14)
    for _ in range(200):
        heads, lengths = random_runs(rng)
        fm = RLFMIndex(heads, lengths)
        bwt = [h for h, length in zip(heads, lengths) for _ in range(length)]
        n = len(bwt)
        assert list(fm.C) == list(np.asarray(fm.mass)[np.asarray(fm.first)])
        absent = [c for c in range(fm.alphabet_size) if c not in heads]
        for c in [-1, fm.alphabet_size, fm.alphabet_size + 3] + absent + sorted(set(heads)):
            for i in [-1, 0, n, n + 2] + list(range(1, n)):
                calls = fm.stats.rank_calls
                assert fm.rank(c, i) == bwt[: max(i, 0)].count(c), (heads, lengths, c, i)
                assert fm.stats.rank_calls == calls + 1


def spanned_runs(lengths, lo, hi):
    """Runs from the one covering row lo-1 to the one covering row hi.

    Rows past the end are clamped to the last row; row 0 and before lie
    in run -1.
    """
    ends = list(itertools.accumulate(lengths))

    def run_of(i):
        return sum(1 for e in ends if e < min(i, ends[-1])) if i >= 1 else -1

    return run_of(hi) - run_of(lo - 1) + 1


def test_count_symbols_in_range_matches_naive():
    rng = random.Random(15)
    for _ in range(200):
        heads, lengths = random_runs(rng)
        fm = RLFMIndex(heads, lengths)
        ranking = random_ranking(rng, fm.alphabet_size)
        bwt = [h for h, length in zip(heads, lengths) for _ in range(length)]
        n = len(bwt)
        for _ in range(30):
            lo = rng.randint(-1, n + 2)
            hi = rng.randint(lo - 2, n + 2)  # lo > hi is an empty range
            a = rng.randint(1, fm.alphabet_size + 1)
            ranks = range(a, rng.randint(a, fm.alphabet_size + 1))  # may be empty
            symbols = ranking[1][a - 1 : ranks.stop - 1]
            rows = bwt[max(lo, 1) - 1 : max(hi, 0)]
            calls = fm.stats.rank_calls
            got = fm.count_symbols_in_range(lo, hi, ranks, *ranking)
            assert got == sum(rows.count(c) for c in symbols), (heads, lengths, lo, hi, symbols)
            expect_calls = 0 if lo > hi else min(spanned_runs(lengths, lo, hi), 2 * len(ranks))
            assert fm.stats.rank_calls == calls + expect_calls


def interval_around(rng, rank_of, c, width):
    """A random interval of ``width`` ranks that holds symbol c's rank."""
    r = rank_of[c]
    a = rng.randint(max(1, r - width + 1), min(r, len(rank_of) - width + 1))
    return range(a, a + width)


def test_count_symbols_in_range_scans_or_bisects():
    """A narrow range with many symbols scans its runs; a wide one with few bisects."""
    rng = random.Random(16)
    scans = bisects = 0
    for _ in range(300):
        heads, lengths = random_runs(rng)
        fm = RLFMIndex(heads, lengths)
        rank_of, by_rank = random_ranking(rng, fm.alphabet_size)
        bwt = [h for h, length in zip(heads, lengths) for _ in range(length)]
        n = len(bwt)
        for _ in range(20):
            if rng.random() < 0.5 and fm.alphabet_size >= 3:
                lo = rng.randint(1, n)  # lo = 1 starts before the first run
                hi = min(n, lo + rng.randint(0, 4))
                width = rng.randint(3, fm.alphabet_size)
                scan = True
            elif len(heads) >= 7:
                lo = rng.randint(1, lengths[0] + 1)
                hi = n - rng.randint(0, lengths[-1])
                width = rng.randint(1, 2)
                scan = False
            else:
                continue
            ranks = interval_around(rng, rank_of, rng.choice(heads), width)
            symbols = by_rank[ranks.start - 1 : ranks.stop - 1]
            span = spanned_runs(lengths, lo, hi)
            assert (span <= 2 * len(ranks)) == scan
            calls = fm.stats.rank_calls
            got = fm.count_symbols_in_range(lo, hi, ranks, rank_of, by_rank)
            rows = bwt[lo - 1 : hi]
            assert got == sum(rows.count(c) for c in symbols), (heads, lengths, lo, hi, symbols)
            assert fm.stats.rank_calls == calls + (span if scan else 2 * len(ranks))
            scans += scan
            bisects += not scan
    assert scans > 2000 and bisects > 1500


def test_backward_step_matches_suffix_filter():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 500)
        sigma = rng.choice([2, 3, 4])
        s = [rng.randint(1, sigma) for _ in range(n)]
        fm = RLFMIndex.from_bwt(bwt_of(np.array(s)))
        t = s + [0]
        suffixes = sorted_suffixes(s)

        def range_of(w):
            rows = [k for k, i in enumerate(suffixes) if t[i : i + len(w)] == w]
            if not rows:
                return None
            return rows[0] + 1, rows[-1] + 1

        for _ in range(20):
            m = rng.randint(0, 6)
            w = [rng.randint(1, sigma) for _ in range(m)]
            base = (range_of(w) or (1, 0)) if m else (1, fm.total_length)
            for c in range(1, sigma + 1):
                lo, hi = fm.backward_step(*base, (c,))
                expect = range_of([c] + w)
                if expect is None:
                    assert lo > hi
                else:
                    assert (lo, hi) == expect


def test_baseline_count_matches_naive():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 400)
        sigma = rng.choice([2, 3, 4])
        s = [rng.randint(1, sigma) for _ in range(n)]
        fm = RLFMIndex.from_bwt(bwt_of(np.array(s)))
        for _ in range(15):
            m = rng.randint(1, 10)
            if rng.random() < 0.5 and n >= m:
                i = rng.randint(0, n - m)
                p = s[i : i + m]
            else:
                p = [rng.randint(1, sigma) for _ in range(m)]
            naive = sum(
                1 for i in range(n - m + 1) if s[i : i + m] == p
            )
            assert fm.count_plain(p) == naive


def test_rank_instrumentation_counts_calls():
    fm = RLFMIndex.from_bwt(LEVEL1_BWT)
    fm.stats.reset()
    fm.count_plain([3, 1])  # CA as ids
    assert fm.stats.rank_calls == 4
    assert fm.stats.step_calls == 2
    fm.stats.reset()
    assert fm.stats.rank_calls == 0


def boundary_texts(rng):
    """Texts over gapped ids where some symbols occur once (one BWT run) and many runs have length 1."""
    for _ in range(40):
        alphabet = sorted(rng.sample(range(1, 30), rng.randint(2, 7)))
        common, once = alphabet[: max(1, len(alphabet) - 2)], alphabet[len(alphabet) - 2 :]
        s = [rng.choice(common) for _ in range(rng.randint(1, 60))]
        for c in once:
            if c not in s:
                s.insert(rng.randint(0, len(s)), c)
        yield s


def test_grouped_rank_at_run_boundaries():
    """rank, backward_step and per-symbol suffix counts at every run's edges.

    Both ranks of a range come from c's last run starting by hi when that
    run starts by lo, and from a second search otherwise; the probes must
    reach both cases on both paths.
    """
    rng = random.Random(19)
    single_run_symbols = unit_runs = 0
    same_run = {"step": 0, "count": 0}
    earlier_run = {"step": 0, "count": 0}
    for s in boundary_texts(rng):
        bwt = bwt_of(np.array(s)).tolist()
        fm = RLFMIndex.from_bwt(bwt)
        ranking = random_ranking(rng, fm.alphabet_size)
        n = len(bwt)
        symbols = range(-1, fm.alphabet_size + 1)
        prefix = {c: list(itertools.accumulate((x == c for x in bwt), initial=0)) for c in symbols}
        below = {c: sum(x < c for x in bwt) for c in symbols}
        ends = list(itertools.accumulate(fm.run_lengths.tolist()))
        probes = sorted({p for e, length in zip(ends, fm.run_lengths.tolist())
                         for p in (e - length, e - length + 1, e, e + 1)})  # start-1, start, end, end+1
        single_run_symbols += sum(fm.run_heads.tolist().count(c) == 1 for c in set(s))
        unit_runs += int(np.sum(fm.run_lengths == 1))

        def rank(c, i):
            return prefix[c][min(max(i, 0), n)] if 0 <= c < fm.alphabet_size else 0

        def holds(c, i):
            return i >= 1 and prefix[c][i] > prefix[c][i - 1]

        # last_start[c][i]: the start of c's last run starting by row i, 0 if none
        last_start = {
            c: list(itertools.accumulate(
                (i if holds(c, i) and not holds(c, i - 1) else 0 for i in range(n + 1)), max))
            for c in range(fm.alphabet_size)
        }

        def tally(path, c, lo, hi):
            start = last_start[c][min(hi, n)]
            if start:
                (same_run if start <= lo else earlier_run)[path] += 1

        for c in symbols:
            for i in probes:
                assert fm.rank(c, i) == rank(c, i), (s, c, i)
        for p in probes:  # p = lo - 1
            for hi in probes:
                if hi <= p:  # lo = p + 1 must not pass hi
                    continue
                for c in range(fm.alphabet_size):
                    want = (below[c] + rank(c, p) + 1, below[c] + rank(c, hi))
                    assert fm.backward_step(p + 1, hi, (c,)) == want, (s, c, p + 1, hi)
                    tally("step", c, p + 1, hi)
                span = spanned_runs(fm.run_lengths.tolist(), p + 1, hi)
                for width in (1, 2):
                    if span <= 2 * width:
                        continue  # the scan path; only the per-symbol path is probed here
                    a = rng.randint(1, fm.alphabet_size - width + 1)
                    chosen = ranking[1][a - 1 : a - 1 + width]
                    calls = fm.stats.rank_calls
                    got = fm.count_symbols_in_range(p + 1, hi, range(a, a + width), *ranking)
                    assert fm.stats.rank_calls == calls + 2 * width
                    assert got == sum(rank(c, hi) - rank(c, p) for c in chosen), (s, p + 1, hi, chosen)
                    for c in chosen:
                        tally("count", c, p + 1, hi)
        for _ in range(10):
            i = rng.randint(0, len(s) - 1)
            pattern = s[i : i + rng.randint(1, 8)]
            fm.stats.reset()
            got = fm.count_plain(pattern)
            assert got == sum(s[k : k + len(pattern)] == pattern for k in range(len(s)))
            assert fm.stats.rank_calls == 2 * len(pattern)
            assert fm.stats.step_calls == len(pattern)
    assert single_run_symbols >= 40 and unit_runs >= 500
    assert same_run["step"] >= 20000 and earlier_run["step"] >= 50000
    assert same_run["count"] >= 1500 and earlier_run["count"] >= 5000


def test_walk_equals_fold_of_single_steps():
    """One backward_step call over a symbol sequence returns what one-symbol
    calls, stopping at the first empty range, return, and charges the same:
    two rank calls per step taken, the step that empties the range included,
    and nothing for an empty start range, a symbol outside the alphabet, or
    any symbol after the range is empty."""
    rng = random.Random(23)
    seen = dict.fromkeys(("empty_start", "hi_past_end", "bad_symbol", "emptied", "survived"), 0)
    for s in boundary_texts(rng):
        fm = RLFMIndex.from_bwt(bwt_of(np.array(s)))
        n, sigma = fm.total_length, fm.alphabet_size
        for _ in range(60):
            i = rng.randint(0, len(s) - 1)
            symbols = s[i : i + rng.randint(0, 8)]
            if rng.random() < 0.4:
                symbols = [rng.randint(1, sigma - 1) for _ in symbols]  # may not occur
            if symbols and rng.random() < 0.2:
                symbols[rng.randrange(len(symbols))] = rng.choice([-1, sigma, sigma + 5])
            lo = rng.randint(0, n + 1)
            hi = rng.randint(lo - 2, n + 3)
            a, b, charged = lo, hi, 0
            for c in reversed(symbols):
                calls = fm.stats.rank_calls
                steps = fm.stats.step_calls
                took = a <= b and 0 <= c < sigma
                a, b = fm.backward_step(a, b, (c,))
                assert fm.stats.rank_calls - calls == 2 * took
                assert fm.stats.step_calls - steps == took
                charged += took
                if a > b:
                    seen["bad_symbol" if not 0 <= c < sigma else
                         "empty_start" if not charged else "emptied"] += 1
                    break
            else:
                seen["survived"] += bool(symbols)
            calls, steps = fm.stats.rank_calls, fm.stats.step_calls
            got = fm.backward_step(lo, hi, symbols)
            if symbols:
                assert got == (a, b), (s, lo, hi, symbols)
            else:
                assert got == ((1, 0) if lo > hi else (lo, min(hi, n)))
            assert fm.stats.rank_calls - calls == 2 * charged
            assert fm.stats.step_calls - steps == charged
            seen["hi_past_end"] += hi > n and charged > 0
    assert min(seen.values()) >= 100, seen


def repetitive_texts(rng):
    """Copies of a random string over 1..sigma, each code mutated with
    probability 1/100, for sigma in {2, 4, 30}."""
    for sigma in (2, 4, 30):
        for _ in range(2):
            base = [rng.randint(1, sigma) for _ in range(rng.randint(150, 300))]
            s = []
            for _ in range(rng.randint(6, 10)):
                s += [rng.randint(1, sigma) if rng.random() < 0.01 else c for c in base]
            yield sigma, s


def test_one_row_walks_equal_fold_of_single_steps():
    """Long walks on repetitive text reach one row and stay there; each
    such walk returns, and charges, what one-symbol backward_step calls
    return and charge, and a walk from the full range counts what a scan
    of the text counts.  The walks die on one row in each way it can: no
    run of the symbol starts by the row, the row lies in another symbol's
    run, or the symbol is outside the alphabet."""
    rng = random.Random(29)
    long_one_row = 0
    deaths = dict.fromkeys(("no_run", "other_run", "bad_symbol"), 0)
    for sigma, s in repetitive_texts(rng):
        bwt = bwt_of(np.array(s)).tolist()
        fm = RLFMIndex.from_bwt(bwt)
        n = fm.total_length
        late = max(range(1, sigma + 1), key=bwt.index)  # the code whose first run starts last
        for walk in range(150):
            i = rng.randint(0, len(s) - 50)
            symbols = s[i : i + rng.randint(50, 400)]
            if rng.random() < 0.5:  # a symbol that may end the walk, mostly late in it
                symbols[rng.randrange(len(symbols) // 4)] = rng.choice(
                    [rng.randint(1, sigma)] * 3 + [late, -1, sigma + 1])
            if walk % 2:
                lo = rng.randint(1, n)
                hi = rng.randint(lo, n)
            else:
                lo, hi = 1, n
            a, b, charged, one_row = lo, hi, 0, 0
            for c in reversed(symbols):
                row = a if a == b and charged else None  # the walk's one-row loop
                steps = fm.stats.step_calls
                a, b = fm.backward_step(a, b, (c,))
                charged += fm.stats.step_calls - steps
                one_row += row is not None
                if a > b:
                    if row is not None:
                        deaths["bad_symbol" if not 0 <= c < fm.alphabet_size else
                               "no_run" if c not in bwt[:row] else "other_run"] += 1
                    break
            long_one_row += one_row >= 20
            calls, steps = fm.stats.rank_calls, fm.stats.step_calls
            assert fm.backward_step(lo, hi, symbols) == (a, b), (sigma, lo, hi, symbols)
            assert fm.stats.rank_calls - calls == 2 * charged
            assert fm.stats.step_calls - steps == charged
            if lo == 1 and hi == n and all(0 < c <= sigma for c in symbols):
                assert fm.count_plain(symbols) == naive_count(s, symbols)
    assert long_one_row >= 100, long_one_row
    assert min(deaths.values()) >= 10, deaths
