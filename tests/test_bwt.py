import random

import numpy as np

from conftest import to_codes
from gfi.bwt import bwt_of, run_count, suffix_array
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
    assert run_count([5, 3, 3, 2, 4, 0, 5, 1]) == 7  # ECCBD$EA, one doubled C
    assert run_count([1, 1, 1, 0]) == 2
    assert run_count([]) == 0
