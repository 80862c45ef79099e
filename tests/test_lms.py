import random

import pytest

from conftest import to_codes
from gfi import lms
from gfi.errors import InvalidParameterError


def factor_letters(factors):
    return ["".join(chr(96 + c) for c in piece) for piece in factors]


def factors_of(codes):
    return lms.factorize(codes, lms.classify(codes))


def sstar_by_definition(codes):
    """S* positions straight from the suffix order; bytes order ranks $ lowest."""
    return [
        i
        for i in range(1, len(codes))
        if codes[i:] < codes[i + 1 :] and codes[i - 1 :] > codes[i:]
    ]


def test_classify_running_example():
    assert lms.classify(to_codes(b"bacabacaacbcbc")) == [1, 3, 5, 7, 10, 12]


def test_classify_cabaca():
    assert lms.classify(to_codes(b"cabaca")) == [1, 3]


def test_classify_unary():
    assert lms.classify(to_codes(b"aaaa")) == []


def test_classify_single_char():
    assert lms.classify(to_codes(b"z")) == []


def test_classify_is_deterministic():
    text = to_codes(b"bacabacaacbcbc")
    assert lms.classify(text) == lms.classify(text)


def test_classify_matches_definition_random():
    rng = random.Random(1)
    checked = 0
    for sigma in (1, 2, 3, 4, 255):
        for _ in range(600):
            n = rng.randint(1, 60)
            codes = bytes(rng.randint(1, sigma) for _ in range(n))
            assert lms.classify(codes) == sstar_by_definition(codes), codes
            checked += 1
    assert checked >= 3000


def test_factorize_running_example():
    assert factor_letters(factors_of(to_codes(b"bacabacaacbcbc"))) == [
        "b", "ac", "ab", "ac", "aac", "bc", "bc"
    ]


def test_factorize_cabaca():
    # one factor per consecutive S* pair; the trailing run analysis happens
    # at query time, not here
    assert factor_letters(factors_of(to_codes(b"cabaca"))) == ["c", "ab", "aca"]


def test_factorize_unary():
    assert factor_letters(factors_of(to_codes(b"aaaa"))) == ["aaaa"]


def test_factorize_properties_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 300)
        text = bytes(rng.randint(1, 3) for _ in range(n))
        sstar = lms.classify(text)
        factors = lms.factorize(text, sstar)
        assert b"".join(factors) == text
        assert len(factors) == len(sstar) + 1
        for piece in factors[1:]:
            assert len(piece) >= 2


def test_equal_windows_share_internal_factor_starts():
    """Equal substrings get identical S* placements outside the window's
    trailing character run, which is what makes dictionary matching of
    interior pattern factors possible at all."""
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(20, 120)
        text = bytes(rng.randint(1, 3) for _ in range(n))
        sstar = set(lms.classify(text))
        k = rng.randint(4, 10)
        seen = {}
        for i in range(n - k + 1):
            window = text[i : i + k]
            run = 1
            while run < k and window[k - run - 1] == window[-1]:
                run += 1
            # positions whose type resolves inside the window
            local = tuple(d for d in range(1, k - run) if i + d in sstar)
            if window in seen:
                assert seen[window] == local
            else:
                seen[window] = local


def test_chunk_running_example_lam2():
    chunks = lms.chunk(factors_of(to_codes(b"bacabacaacbcbc")), 2)
    assert factor_letters(chunks) == ["b", "ac", "ab", "ac", "aa", "c", "bc", "bc"]


def test_chunk_unit():
    factors = factors_of(to_codes(b"bacabacaacbcbc"))
    chunks = lms.chunk(factors, 1)
    assert all(len(piece) == 1 for piece in chunks)
    assert b"".join(chunks) == b"".join(factors)


def test_chunk_wide_enough_is_identity():
    factors = factors_of(to_codes(b"bacabacaacbcbc"))
    assert lms.chunk(factors, 4) == factors


def test_chunk_rejects_zero():
    with pytest.raises(InvalidParameterError):
        lms.chunk(factors_of(to_codes(b"ab")), 0)


def test_chunk_shape_random():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 200)
        lam = rng.randint(1, 8)
        factors = factors_of(bytes(rng.randint(1, 4) for _ in range(n)))
        chunks = iter(lms.chunk(factors, lam))
        for factor in factors:
            pieces = [next(chunks)]
            while sum(map(len, pieces)) < len(factor):
                pieces.append(next(chunks))
            assert all(len(p) == lam for p in pieces[:-1])
            assert 1 <= len(pieces[-1]) <= lam
            assert b"".join(pieces) == factor
        assert next(chunks, None) is None
