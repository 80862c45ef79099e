import itertools
import random

import numpy as np
import pytest

from conftest import to_codes
from gfi.bwt import MAX_TEXT_LENGTH, bwt_of, suffix_array
from gfi.rlfm import RLFMIndex


def naive_suffix_array(s):
    t = list(s) + [0]
    order = sorted(range(len(t)), key=lambda i: t[i:])
    return [i + 1 for i in order]


def test_suffix_array_level1_example():
    assert suffix_array(np.array([4, 3, 2, 3, 1, 5, 5])).tolist() == [8, 5, 3, 4, 2, 1, 7, 6]


def test_suffix_array_unary():
    assert suffix_array(np.array([1, 1, 1])).tolist() == [4, 3, 2, 1]


def test_suffix_array_single_symbol():
    assert suffix_array(np.array([7])).tolist() == [2, 1]


def test_bwt_level0_running_example():
    b = bwt_of(list(to_codes(b"bacabacaacbcbc")))
    letters = "".join("$" if c == 0 else chr(96 + c) for c in b.tolist())
    assert letters == "cccbbaa$ccbaaba"


def test_bwt_level1_running_example():
    b = bwt_of(np.array([4, 3, 2, 3, 1, 5, 5]))
    assert b.tolist() == [5, 3, 3, 2, 4, 0, 5, 1]  # ECCBD$EA


def test_bwt_unary():
    assert bwt_of(np.array([1, 1, 1])).tolist() == [1, 1, 1, 0]


def test_suffix_array_matches_naive_sort():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 2000)
        sigma = rng.choice([1, 2, 4, 16])
        s = [rng.randint(1, sigma) for _ in range(n)]
        assert suffix_array(np.array(s)).tolist() == naive_suffix_array(s)


def assert_suffix_array(s, sa):
    """sa is the suffix array of s·0: a permutation of 1..n+1 in which each
    suffix is smaller than the next.  A pair is in order when its first
    codes are, or when they are equal and the suffixes one code later are;
    by induction on suffix length that proves the whole order, in O(n)."""
    t = np.append(np.asarray(s, dtype=np.int64), 0)
    n = len(t)
    assert sorted(sa.tolist()) == list(range(1, n + 1))
    pos = sa - 1
    inverse = np.empty(n + 1, dtype=np.int64)
    inverse[pos] = np.arange(n)
    inverse[n] = -1  # masked out: equal first codes exclude the terminator
    a, b = pos[:-1], pos[1:]
    ordered = (t[a] < t[b]) | ((t[a] == t[b]) & (inverse[a + 1] < inverse[b + 1]))
    assert ordered.all()


def noisy_copies(rng, base_length, copies, sigma, rate):
    """A random base string and noisy copies of it, like gen_artificial."""
    base = [rng.randint(1, sigma) for _ in range(base_length)]
    out = list(base)
    for _ in range(copies):
        for c in base:
            if rng.random() >= rate:
                out.append(c)
            elif rng.random() < 0.5:
                out.append(rng.randint(1, sigma))  # substitution; else a deletion
    return out


def test_suffix_array_uint8_frombuffer():
    # The level-0 text reaches the sort as a uint8 view of code bytes.
    rng = random.Random(21)
    for sigma in (1, 4, 255):
        for n in (1, 7, 300, 2000):
            data = bytes(rng.randint(1, sigma) for _ in range(n))
            s = np.frombuffer(data, dtype=np.uint8)
            assert suffix_array(s).tolist() == naive_suffix_array(list(data))
    data = bytes(noisy_copies(rng, 500, 40, 4, 0.01))
    s = np.frombuffer(data, dtype=np.uint8)
    assert_suffix_array(s, suffix_array(s))
    assert bwt_of(s).tolist() == bwt_of(list(data)).tolist()


def test_suffix_array_large_ids():
    # One code per packed key at 2^40, two at 2^30 and three at 10^6.
    rng = random.Random(22)
    for top in (10**6, 2**30, 2**40):
        for _ in range(10):
            n = rng.randint(1, 2000)
            pool = [rng.randint(1, top) for _ in range(rng.choice([2, 5, 50]))]
            s = [rng.choice(pool) for _ in range(n)]
            assert suffix_array(np.array(s, dtype=np.int64)).tolist() == naive_suffix_array(s)
        s = np.array(noisy_copies(rng, 400, 50, top, 0.02), dtype=np.int64)
        assert_suffix_array(s, suffix_array(s))


def test_suffix_array_tiny_strings():
    # Every suffix fits in one packed key.
    assert suffix_array([]).tolist() == [1]
    for sigma in (1, 2, 4):
        for n in range(1, 31):
            for s in itertools.islice(itertools.product(range(1, sigma + 1), repeat=n), 50):
                assert suffix_array(np.array(s)).tolist() == naive_suffix_array(s)


@pytest.mark.parametrize("period", [1, 2, 3, 7, 64, 1000])
def test_suffix_array_long_periodic(period):
    # Groups of equal prefixes stay large for many doubling rounds.
    rng = random.Random(period)
    unit = [rng.randint(1, 4) for _ in range(period)]
    n = rng.randint(20000, 50000)
    s = np.array((unit * (n // period + 1))[:n])
    sa = suffix_array(s)
    assert_suffix_array(s, sa)
    if period == 1:
        assert sa.tolist() == list(range(n + 1, 0, -1))


def test_suffix_array_noisy_copies():
    rng = random.Random(23)
    for sigma, rate in ((4, 0.01), (4, 0.001), (2, 0.0), (200, 0.05)):
        s = noisy_copies(rng, 1000, 30, sigma, rate)
        assert_suffix_array(s, suffix_array(np.array(s)))
    for _ in range(20):
        s = noisy_copies(rng, rng.randint(1, 100), rng.randint(1, 15), rng.choice([2, 4]), 0.02)
        assert suffix_array(np.array(s)).tolist() == naive_suffix_array(s)


def test_suffix_array_rejects_terminator_code():
    with pytest.raises(ValueError):
        suffix_array(np.array([2, 0, 1]))


def test_suffix_array_refuses_a_text_past_the_bound_before_reading_it():
    """2**31 codes, two past ``MAX_TEXT_LENGTH``, as one zero-stride array.
    Every code is the terminator 0, so any pass over them would end in the
    terminator refusal; the length refusal comes first."""
    s = np.broadcast_to(np.uint8(0), (2**31,))
    assert MAX_TEXT_LENGTH == 2**31 - 2 and s.strides == (0,)
    with pytest.raises(ValueError, match="at most 2147483646 codes, not 2147483648"):
        suffix_array(s)


def test_bwt_inversion_round_trip():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 2000)
        sigma = rng.choice([2, 3, 26])
        s = [rng.randint(1, sigma) for _ in range(n)]
        bwt = bwt_of(np.array(s)).tolist()
        fm = RLFMIndex.from_bwt(bwt)
        # LF from row 1 (the suffix "$") walks the text right to left.
        row, out = 1, []
        for _ in range(n):
            c = bwt[row - 1]
            out.append(c)
            row = fm.C[c] + fm.rank(c, row)
        assert out[::-1] == s


def test_bwt_contains_exactly_one_terminator():
    rng = random.Random(7)
    for _ in range(40):
        s = np.array([rng.randint(1, 3) for _ in range(rng.randint(1, 100))])
        b = bwt_of(s)
        assert int(np.count_nonzero(b == 0)) == 1
        assert len(b) == len(s) + 1


def test_run_count():
    level1 = np.array([4, 3, 2, 3, 1, 5, 5])  # DCBCAEE
    assert RLFMIndex.from_bwt(bwt_of(level1)).run_count == 7  # ECCBD$EA, one doubled C
    assert RLFMIndex.from_bwt(bwt_of([1, 1, 1])).run_count == 2  # aaa$


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_bwt_keeps_the_dtype_it_is_given(dtype):
    b = bwt_of(np.array([4, 3, 2, 3, 1, 5, 5], dtype=dtype))
    assert b.dtype == dtype
    assert b.tolist() == [5, 3, 3, 2, 4, 0, 5, 1]  # ECCBD$EA
