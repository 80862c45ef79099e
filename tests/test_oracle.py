import random
import time

import numpy as np
import pytest

from gfi.bwt import suffix_array
from gfi.errors import InvalidParameterError, InvalidPatternError
from gfi.oracle import (
    ARTIFICIAL_BASE_LENGTH,
    ARTIFICIAL_COPIES,
    gen_artificial,
    gen_random_text,
    naive_count,
    pattern_offsets,
)


def test_naive_count_examples():
    text = b"bacabacaacbcbc"
    assert naive_count(text, b"ca") == 2
    assert naive_count(text, b"a") == 5
    assert naive_count(text, b"bacabacaacbcbcx") == 0


def test_naive_count_takes_code_bytes():
    text = b"bacabacaacbcbc"
    assert naive_count(text, b"ca") == 2
    assert naive_count(bytearray(text), b"a") == 5
    assert naive_count(text, list(b"cb")) == 2
    assert naive_count(list(text), b"bacabacaacbcbcx") == 0
    rng = random.Random(18)
    for _ in range(200):
        t = bytes(rng.choice(b"\x01\x02\xff") for _ in range(rng.randint(1, 60)))
        p = bytes(rng.choice(b"\x01\x02\xff") for _ in range(rng.randint(1, 4)))
        want = sum(t[i : i + len(p)] == p for i in range(len(t) - len(p) + 1))
        assert naive_count(t, p) == naive_count(list(t), list(p)) == want


def test_naive_count_rejects_empty_pattern():
    with pytest.raises(InvalidPatternError):
        naive_count(b"ab", [])
    with pytest.raises(InvalidPatternError):
        naive_count(b"ab", b"")


def test_naive_count_agrees_with_suffix_array_filter():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 300)
        sigma = rng.choice([2, 3, 4])
        text = [rng.randint(1, sigma) for _ in range(n)]
        sa = suffix_array(np.array(text))
        t = text + [0]
        for _ in range(15):
            m = rng.randint(1, 8)
            p = [rng.randint(1, sigma) for _ in range(m)]
            via_sa = sum(1 for pos in sa.tolist() if t[pos - 1 : pos - 1 + m] == p)
            assert naive_count(np.array(text), np.array(p)) == via_sa


def test_gen_random_unary():
    assert gen_random_text(1, 5, 123) == bytes([1, 1, 1, 1, 1])


@pytest.mark.parametrize("sigma, n", [(5, 3), (2, 1), (0, 4), (-1, 4), (256, 300)])
def test_gen_random_rejects_impossible_coverage(sigma, n):
    with pytest.raises(InvalidParameterError):
        gen_random_text(sigma, n, 0)


@pytest.mark.parametrize("sigma, n", [(255, 300), (255, 255), (100, 300), (100, 150), (100, 255)])
def test_gen_random_full_coverage_is_prompt(sigma, n):
    # Every code must occur; drawing the whole text until it does took
    # practically forever when sigma is close to n.
    start = time.perf_counter()
    codes = gen_random_text(sigma, n, 0)
    assert time.perf_counter() - start < 2.0
    assert len(codes) == n
    assert sorted(set(codes)) == list(range(1, sigma + 1))
    assert codes == gen_random_text(sigma, n, 0)
    with pytest.raises(InvalidParameterError):
        gen_random_text(sigma, sigma - 1, 0)


def test_gen_random_deterministic_and_covering():
    a = gen_random_text(4, 2000, 7)
    b = gen_random_text(4, 2000, 7)
    assert a == b
    assert sorted(set(a)) == [1, 2, 3, 4]
    assert a != gen_random_text(4, 2000, 8)


def test_gen_artificial_no_mutation_is_pure_copies():
    data = gen_artificial(0.0, 5)
    base = data[:ARTIFICIAL_BASE_LENGTH]
    assert data == base * (ARTIFICIAL_COPIES + 1)
    assert set(data) <= set(b"ACGT")


@pytest.mark.parametrize("mutation", [-5.0, -0.5, 100.5, 150.0, float("nan"), float("inf")])
def test_gen_artificial_rejects_mutation_outside_0_to_100(mutation):
    with pytest.raises(InvalidParameterError, match="0..100"):
        gen_artificial(mutation, 1)


def test_gen_artificial_deterministic():
    assert gen_artificial(1.0, 5) == gen_artificial(1.0, 5)
    assert gen_artificial(1.0, 5) != gen_artificial(1.0, 6)


def test_gen_artificial_length_within_three_sigma():
    data = gen_artificial(1.0, 42)
    copies_chars = ARTIFICIAL_BASE_LENGTH * ARTIFICIAL_COPIES
    expected = ARTIFICIAL_BASE_LENGTH + copies_chars * (1 - 0.01 / 2)
    var = copies_chars * 0.005 * 0.995
    assert abs(len(data) - expected) <= 3 * var**0.5


def test_gen_artificial_full_mutation_boundary():
    data = gen_artificial(100.0, 3)
    assert len(data) >= ARTIFICIAL_BASE_LENGTH  # copies may shrink to nothing
    base = data[:ARTIFICIAL_BASE_LENGTH]
    assert set(base) <= set(b"ACGT")


def test_pattern_offsets_all_occur():
    text = gen_artificial(2.0, 9)[:5000]
    offsets = pattern_offsets(len(text), 32, 20, 1)
    assert len(offsets) == 20 and all(0 <= i <= len(text) - 32 for i in offsets)
    assert offsets == pattern_offsets(len(text), 32, 20, 1)


def test_pattern_offsets_rejects_length_beyond_the_text():
    n = len(b"bacabacaacbcbc")
    assert pattern_offsets(n, 14, 3, 1) == [0, 0, 0]
    with pytest.raises(ValueError, match="exceeds the text length"):
        pattern_offsets(n, 15, 3, 1)
