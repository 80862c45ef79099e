import random

import numpy as np
import pytest

from conftest import corrupt_trie_rows
from gfi.errors import InvalidParameterError
from gfi.grammar import Grammar
from gfi.index import (
    build_index,
    load_index,
    save_index,
    section_sizes,
)
from gfi.oracle import naive_count
from gfi.query import count
from gfi.rlfm import RLFMIndex
from gfi.shorttrie import ShortPatternTrie


def test_round_trip_running_example():
    idx = build_index(b"bacabacaacbcbc", 4, with_baseline=True)
    blob = save_index(idx)
    assert blob[:4] == b"GFI1"
    loaded = load_index(blob)
    assert save_index(loaded) == blob
    assert loaded.lam == 4
    assert loaded.grammar.rhs == idx.grammar.rhs
    assert loaded.rlfm0 is not None
    assert count(loaded, b"cabaca") == 1


def test_round_trip_without_baseline():
    idx = build_index(b"abracadabra", 3)
    blob = save_index(idx)
    loaded = load_index(blob)
    assert loaded.rlfm0 is None
    assert save_index(loaded) == blob


def test_round_trip_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        sigma = rng.choice([2, 3, 4, 16])
        n = rng.randint(1, 500)
        raw = bytes(rng.randint(97, 96 + sigma) for _ in range(n))
        lam = rng.randint(1, 8)
        idx = build_index(raw, lam, with_baseline=rng.random() < 0.5)
        blob = save_index(idx)
        loaded = load_index(blob)
        assert save_index(loaded) == blob
        t = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) - 96
        for _ in range(10):
            m = rng.randint(1, 16)
            if n >= m and rng.random() < 0.6:
                i = rng.randint(0, n - m)
                pat = raw[i : i + m]
            else:
                pat = bytes(rng.randint(97, 96 + sigma) for _ in range(m))
            p = np.frombuffer(pat, dtype=np.uint8).astype(np.int64) - 96
            assert count(loaded, pat) == naive_count(t, p)


def test_recovered_text_length():
    idx = build_index(b"bacabacaacbcbc", 4)
    assert idx.n == 14
    idx2 = build_index(b"x" * 257, 5)
    assert idx2.n == 257


def test_section_sizes_sum_to_blob_length():
    idx = build_index(b"bacabacaacbcbc", 4, with_baseline=True)
    sizes = section_sizes(idx)
    assert sizes["total"] == len(save_index(idx))
    idx2 = build_index(b"bacabacaacbcbc", 4)
    assert section_sizes(idx2)["total"] == len(save_index(idx2))


def test_rejects_bad_magic_and_version():
    idx = build_index(b"abc", 2)
    blob = save_index(idx)
    with pytest.raises(ValueError):
        load_index(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        load_index(blob[:4] + b"\x09" + blob[5:])


def test_rejects_bad_lambda():
    with pytest.raises(InvalidParameterError):
        build_index(b"abc", 0)


def test_lambda_limited_to_one_header_byte():
    idx = build_index(b"abracadabra", 255)
    assert load_index(save_index(idx)).lam == 255
    with pytest.raises(InvalidParameterError):
        build_index(b"abracadabra", 256)


@pytest.mark.parametrize(
    "lam, reason", [(0, "at least 1"), (2, "exceeds the chunk size"), (8, "trie depth")]
)
def test_rejects_patched_lambda(lam, reason):
    blob = bytearray(save_index(build_index(b"bacabacaacbcbc" * 3, 4)))
    assert blob[5] == 4
    blob[5] = lam
    with pytest.raises(ValueError, match=reason):
        load_index(bytes(blob))


def test_rejects_truncated_or_padded_file():
    blob = save_index(build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True))
    for cut in range(len(blob)):
        with pytest.raises(ValueError, match="truncated"):
            load_index(blob[:cut])
    with pytest.raises(ValueError, match="1 trailing byte"):
        load_index(blob + b"\x00")


@pytest.mark.parametrize("damage", ["swapped", "duplicated"])
def test_rejects_corrupt_trie_section(damage):
    text = b"bacabacaacbcbc" * 5
    blob = save_index(build_index(text, 4, with_baseline=True))
    assert load_index(blob).count(b"a") == text.count(b"a") == 25
    with pytest.raises(ValueError, match="child edges must strictly increase"):
        load_index(corrupt_trie_rows(blob, damage))


def test_baseline_requires_flag():
    idx = build_index(b"abc", 2)
    with pytest.raises(ValueError):
        idx.count_baseline(b"a")


@pytest.mark.parametrize("alphabet", [b"bac", b"\x00bc"], ids=["unsorted", "nul"])
def test_rejects_corrupt_alphabet(alphabet):
    blob = bytearray(save_index(build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True)))
    assert blob[10:13] == b"abc"  # after the 6-byte header and the u32 size
    blob[10:13] = alphabet
    with pytest.raises(ValueError, match="alphabet"):
        load_index(bytes(blob))


@pytest.mark.parametrize("unused", [True, False], ids=["unused_rule", "missing_rule"])
def test_rejects_rules_not_matching_level1_symbols(unused):
    """Suffix counts index per-symbol arrays by rule id, so both must agree."""
    idx = build_index(b"bacabacaacbcbc", 4)
    rhs = idx.grammar.rhs + [bytes([3] * 4)] if unused else idx.grammar.rhs[:-1]
    idx.grammar = Grammar(lam=4, sigma=3, rhs=rhs)
    with pytest.raises(ValueError, match="rules"):
        load_index(save_index(idx))


def test_save_refuses_fields_beyond_32_bits():
    idx = build_index(b"bacabacaacbcbc", 4)
    idx.rlfm1 = RLFMIndex(run_heads=[1, 0], run_lengths=[2**32 + 3, 1])
    with pytest.raises(ValueError, match="32 bits"):
        save_index(idx)
    idx = build_index(b"bacabacaacbcbc", 4)
    idx.trie = ShortPatternTrie(parents=[0], edges=[1], counts=[2**32])
    with pytest.raises(ValueError, match="32 bits"):
        save_index(idx)
