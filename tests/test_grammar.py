import itertools
import random

import numpy as np
import pytest

from conftest import to_codes
from gfi import grammar as gm
from gfi.errors import InvalidParameterError
from gfi.index import build_index
from gfi.oracle import naive_count


def letters(rules):
    return ["".join(chr(96 + c) for c in s) for s in rules]


@pytest.mark.parametrize("lam", [3, 4, 8])
def test_build_running_example(lam):
    g, level1 = gm.build(to_codes(b"bacabacaacbcbc"), lam)
    assert letters(g.rhs) == ["aac", "ab", "ac", "b", "bc"]
    assert level1.tolist() == [4, 3, 2, 3, 1, 5, 5]  # DCBCAEE


def test_build_lam2():
    g, level1 = gm.build(to_codes(b"bacabacaacbcbc"), 2)
    assert letters(g.rhs) == ["aa", "ab", "ac", "b", "bc", "c"]
    assert level1.tolist() == [4, 3, 2, 3, 1, 6, 5, 5]


def test_build_lam1_is_identity():
    text = to_codes(b"bacabacaacbcbc")
    g, level1 = gm.build(text, 1)
    assert letters(g.rhs) == ["a", "b", "c"]
    assert level1.tolist() == list(text)


def test_build_rejects_chunk_size_0():
    """The check is ``lms.chunk``'s; the grammar builder has none of its own."""
    with pytest.raises(InvalidParameterError, match="at least 1"):
        gm.build(to_codes(b"bacabacaacbcbc"), 0)


def test_expansion_reproduces_text():
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(1, 400)
        sigma = rng.choice([2, 3, 4, 16])
        text = bytes(rng.randint(1, sigma) for _ in range(n))
        lam = rng.randint(1, 8)
        g, level1 = gm.build(text, lam)
        out = b"".join(g.rhs[i - 1] for i in level1.tolist())
        assert out == text
        assert sum(len(s) for s in g.rhs) >= len(g.rhs)  # nonempty rules
        assert len(level1) <= n


def _full_byte_text(rng) -> bytes:
    """A few KB over 200+ byte values: a random base and noisy copies of it."""
    base = bytes(rng.randint(1, 255) for _ in range(1200))
    parts = [base]
    for _ in range(3):
        copy = bytearray(base)
        for _ in range(30):
            copy[rng.randrange(len(copy))] = rng.randint(1, 255)
        parts.append(bytes(copy))
    return b"".join(parts)


@pytest.mark.parametrize("lam", [7, 12, 16])
def test_full_byte_alphabet_matches_oracle(lam):
    rng = random.Random(lam)
    raw = _full_byte_text(rng)
    idx = build_index(raw, lam, with_baseline=True)
    assert idx.alphabet.size >= 200
    t = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    for _ in range(120):
        m = rng.randint(1, 300)
        if rng.random() < 0.8:
            i = rng.randint(0, len(raw) - m)
            pat = raw[i : i + m]
        else:
            pat = bytes(rng.randint(1, 255) for _ in range(m))
        want = naive_count(t, np.frombuffer(pat, dtype=np.uint8).astype(np.int64))
        assert idx.count(pat) == want, (lam, pat)
        assert idx.count_baseline(pat) == want, (lam, pat)


def test_prefix_range_running_example():
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), 4)
    assert g.prefix_range(bytes([1])) == (1, 3)  # a* -> {aac, ab, ac}
    assert g.prefix_range(bytes([2])) == (4, 5)  # b* -> {b, bc}
    lo, hi = g.prefix_range(bytes([3, 3]))  # cc
    assert lo > hi


def suffix_ids(g, q):
    """Lex ids of the rules ending with q, mapped from suffix_symbols' colex ranks."""
    return sorted(g.colex_to_lex[r - 1] for r in g.suffix_symbols(q))


def test_suffix_symbols_running_example():
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), 4)
    assert g.suffix_symbols(bytes([3])) == range(3, 6)  # colex: b ab ac | aac bc
    assert suffix_ids(g, bytes([3])) == [1, 3, 5]  # rules ending in c
    assert suffix_ids(g, bytes([2])) == [2, 4]  # ab, b
    assert len(g.suffix_symbols(bytes([1] * 4))) == 0


def test_colex_ranks_running_example():
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), 4)
    # terminator 0, then aac=4, ab=2, ac=3, b=1, bc=5
    assert g.colex_rank.tolist() == [0, 4, 2, 3, 1, 5]


def test_colex_identity_for_unit_chunks():
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), 1)
    assert g.colex_rank.tolist() == [0, 1, 2, 3]


def test_colex_matches_reversal_sort():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(2, 200)
        sigma = rng.choice([2, 3, 4])
        text = bytes(rng.randint(1, sigma) for _ in range(n))
        lam = rng.randint(1, 4)
        g, _ = gm.build(text, lam)
        by_reversal = sorted(range(len(g.rhs)), key=lambda i: g.rhs[i][::-1])
        assert g.colex_to_lex.tolist() == [i + 1 for i in by_reversal]


def _dictionaries(rng):
    """(grammar, codes) pairs: random small texts, then rules over the byte extremes."""
    for _ in range(60):
        sigma = rng.choice([2, 3])
        n = rng.randint(2, 80)
        text = bytes(rng.randint(1, sigma) for _ in range(n))
        yield gm.build(text, rng.choice([1, 2, 3]))[0], range(1, sigma + 1)
    # Rules equal to a query padded with 255s sit exactly on the prefix
    # search's upper key; 1 and 254 sort below them.
    rules = [b"\x01", b"\x01\xfe", b"\x01\xff", b"\x01\xff\xff", b"\xfe", b"\xfe\xff\x01",
             b"\xfe\xff\xff", b"\xff", b"\xff\x01", b"\xff\xfe\xff", b"\xff\xff",
             b"\xff\xff\x01", b"\xff\xff\xff"]
    yield gm.Grammar(lam=3, rhs=sorted(rules)), (1, 254, 255)


def test_dictionary_queries_match_brute_force_exhaustively():
    for g, codes in _dictionaries(random.Random(10)):
        queries = [b""]
        for k in range(1, g.lam + 1):
            queries.extend(bytes(p) for p in itertools.product(codes, repeat=k))
        for q in queries:
            lo, hi = g.prefix_range(q)
            expect = [i + 1 for i, s in enumerate(g.rhs) if s.startswith(q)]
            got = list(range(lo, hi + 1))
            assert got == expect, (g.rhs, q)
            expect_sfx = sorted(i + 1 for i, s in enumerate(g.rhs) if s.endswith(q))
            assert suffix_ids(g, q) == expect_sfx, (g.rhs, q)


def test_popcount_invariants():
    g, _ = gm.build(to_codes(b"bacabacaacbcbc"), 4)
    perm = sorted(g.colex_to_lex.tolist())
    assert perm == list(range(1, g.size + 1))
