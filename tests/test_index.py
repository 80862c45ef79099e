import dataclasses
import random
import struct

import numpy as np
import pytest

from conftest import corrupt_trie_rows, relabelled_trie_index, reseal
from gfi import bwt
from gfi import index as index_mod
from gfi.alphabet import DenseAlphabet
from gfi.errors import CorruptIndexError, InvalidParameterError
from gfi.grammar import Grammar
from gfi.index import (
    TextIndex,
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
    assert loaded.grammar.lam == 4
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
        assert idx.n == loaded.n == n  # build takes n from the text, load from the runs
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
    for text, lam in ((b"bacabacaacbcbc", 4), (b"x" * 257, 5)):
        idx = build_index(text, lam)
        assert idx.n == load_index(save_index(idx)).n == len(text)


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


def test_rejects_version_1_with_rebuild_hint():
    blob = save_index(build_index(b"abc", 2))
    with pytest.raises(CorruptIndexError, match="version 1; rebuild the index"):
        load_index(blob[:4] + b"\x01" + blob[5:])


def test_rejects_version_2_with_rebuild_hint():
    """Version 2 stored the trie as one column set; version 4 stores two
    columns per level."""
    blob = save_index(build_index(b"abc", 2))
    assert blob[4] == 4
    with pytest.raises(CorruptIndexError, match="version 2; rebuild the index"):
        load_index(blob[:4] + b"\x02" + blob[5:])


def test_rejects_version_3_with_rebuild_hint():
    """Version 3 stored each trie node's count; version 4 derives it from
    the windows below the node."""
    blob = save_index(build_index(b"bacabacaacbcbc", 4))
    with pytest.raises(CorruptIndexError, match="version 3; rebuild the index"):
        load_index(blob[:4] + b"\x03" + blob[5:])


def test_rejects_bad_lambda():
    with pytest.raises(InvalidParameterError):
        build_index(b"abc", 0)


@pytest.mark.parametrize("lam", [4.0, 2.5, "4", None])
def test_rejects_a_chunk_size_that_is_not_an_integer(lam):
    """A float or string chunk size would build an index that cannot count
    or save; it is a parameter error, as a chunk size outside 1..255 is."""
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        build_index(b"bacabacaacbcbc", lam)


def test_numpy_integer_chunk_size_builds_as_a_plain_int():
    idx = build_index(b"bacabacaacbcbc", np.int64(4))
    assert type(idx.grammar.lam) is int
    assert idx.count(b"cabaca") == 1
    assert save_index(idx) == save_index(build_index(b"bacabacaacbcbc", 4))


def test_lambda_limited_to_one_header_byte():
    idx = build_index(b"abracadabra", 255)
    assert load_index(save_index(idx)).grammar.lam == 255
    with pytest.raises(InvalidParameterError):
        build_index(b"abracadabra", 256)


@pytest.mark.parametrize(
    "lam, reason", [(0, "at least 1"), (2, "exceeds the chunk size"), (8, "trie depth")]
)
def test_rejects_patched_lambda(lam, reason):
    blob = bytearray(save_index(build_index(b"bacabacaacbcbc" * 3, 4)))
    assert blob[5] == 4
    blob[5] = lam
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(reseal(bytes(blob)))


def test_rejects_truncated_or_padded_file():
    blob = save_index(build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True))
    for cut in range(len(blob)):
        with pytest.raises(CorruptIndexError, match="truncated"):
            load_index(blob[:cut])
    with pytest.raises(CorruptIndexError, match="1 trailing byte"):
        load_index(blob + b"\x00")


@pytest.mark.parametrize("damage", ["swapped", "duplicated", "miscounted"])
def test_rejects_corrupt_trie_section(damage):
    text = b"bacabacaacbcbc" * 5
    blob = save_index(build_index(text, 4, with_baseline=True))
    assert load_index(blob).count(b"a") == text.count(b"a") == 25
    reason = "child edges must strictly increase"
    if damage == "miscounted":
        reason = "child counts must lie in 1..8 and sum to 8"
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(corrupt_trie_rows(blob, damage))


@pytest.mark.parametrize(
    "damage, reason",
    [
        ("root_edge", "trie edge lies outside the alphabet codes 1..3"),
        ("deep_edge", "trie edge lies outside the alphabet codes 1..3"),
        ("swapped_counts", "depth-1 counts disagree"),
    ],
)
def test_rejects_wrong_trie_edges_and_counts(damage, reason):
    """Each damage keeps the trie well formed, and without the edge and
    depth-1 count checks the file loads and miscounts: count(b"c") gives 0
    instead of 25, count(b"ac") 0 instead of 15, and, with the windows of
    ``aac`` and ``cbc`` swapped, count(b"a") 30 instead of 25."""
    text = b"bacabacaacbcbc" * 5
    assert (text.count(b"a"), text.count(b"b"), text.count(b"c")) == (25, 20, 25)
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(relabelled_trie_index(text, 4, damage))


def _trie_levels_of(blob: bytes) -> list[list[list[int]]]:
    """The loaded trie's levels: per level its edges and its nodes' child
    counts, the windows below them on the deepest."""
    levels = load_index(blob).trie.levels
    return [[np.asarray(column).tolist() for column in level] for level in levels]


def _with_trie_levels(blob: bytes, levels) -> bytes:
    """The index file with its trie section written by hand from ``levels``,
    every column at width 4; resealed."""
    sections = _sections_of(blob)
    out = [bytes([len(levels)])]
    for columns in levels:
        out.append(struct.pack("<I", len(columns[0])))
        out += [b"\x04" + np.asarray(column, dtype="<u4").tobytes() for column in columns]
    sections["short_trie"] = b"".join(out)
    return reseal(b"".join(sections.values()))


def _empty_levels(levels):
    """Level 1 without children and levels 2 and 3 empty, which agree on
    every row count; as a trie of depth 1 it would count every pattern of
    two or three codes 0."""
    levels[0][1] = [0, 0, 0]
    levels[1:] = [[[], []], [[], []]]


def _moved_child(levels):
    """Node c's second child moved to node aa, which keeps the total and
    every sibling list increasing; read through its child slices it would
    count ``cb`` 0 instead of 14 and ``aab`` 2 instead of 0."""
    levels[0][1][2] -= 1
    levels[1][1][0] += 1


def _wrapping_children(levels):
    """Level 1's child counts 2**31 - 1, 2**31 - 1 and 10, each within the
    bound on stored values, which sum to 8, level 2's row count, modulo
    2**32, the range of their 4-byte width.  Child counts whose int64 sum
    wrapped so gave child slices that crashed the interpreter."""
    levels[0][1] = [2**31 - 1, 2**31 - 1, len(levels[1][0]) + 2]
    assert np.sum(levels[0][1], dtype=np.uint32) == len(levels[1][0])


@pytest.mark.parametrize(
    "damage, reason",
    [
        (_empty_levels, "trie level 2 holds no nodes"),
        (_moved_child, "level 1's child counts must lie in 1..8 and sum to 8"),
        (_wrapping_children, "level 1's child counts must lie in 1..8"),
    ],
    ids=["empty_level", "moved_child", "wrapping_children"],
)
def test_rejects_inconsistent_trie_levels(fuzz_blob, damage, reason):
    _, blob = fuzz_blob
    levels = _trie_levels_of(blob)
    assert [len(level[0]) for level in levels] == [3, 8, 12]
    assert save_index(load_index(_with_trie_levels(blob, levels))) == blob
    damage(levels)
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(_with_trie_levels(blob, levels))


def test_baseline_requires_flag():
    idx = build_index(b"abc", 2)
    with pytest.raises(ValueError):
        idx.count_baseline(b"a")


@pytest.mark.parametrize("alphabet", [b"bac", b"\x00bc"], ids=["unsorted", "nul"])
def test_rejects_corrupt_alphabet(alphabet):
    blob = bytearray(save_index(build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True)))
    assert blob[10:13] == b"abc"  # after the 6-byte header and the u32 size
    blob[10:13] = alphabet
    with pytest.raises(CorruptIndexError, match="alphabet"):
        load_index(reseal(bytes(blob)))


@pytest.mark.parametrize("unused", [True, False], ids=["unused_rule", "missing_rule"])
def test_rejects_rules_not_matching_level1_symbols(unused):
    """Suffix counts index per-symbol arrays by rule id, so both must agree."""
    idx = build_index(b"bacabacaacbcbc", 4)
    rhs = idx.grammar.rhs + [bytes([3] * 4)] if unused else idx.grammar.rhs[:-1]
    idx.grammar = Grammar(lam=4, rhs=rhs)
    with pytest.raises(CorruptIndexError, match="rules"):
        load_index(save_index(idx))


@pytest.mark.parametrize("lam", [3, 4])
def test_unused_rule_below_the_largest_id_loads_and_counts(lam):
    """The load checks only that the largest level-1 head is the largest
    rule id, which the per-symbol suffix count needs.  A rule that the
    rewritten text never uses, below that id, loads and counts right."""
    text = b"bacabacaacbcbc" * 5
    idx = build_index(text, lam)
    aaa = bytes([1] * 3)
    rhs = idx.grammar.rhs
    assert aaa < rhs[0]  # so it takes lex id 1, and every used rule moves up one
    heads = np.asarray(idx.rlfm1.run_heads, dtype=np.int64)
    idx.grammar = Grammar(lam=lam, rhs=[aaa] + rhs)
    idx.rlfm1 = RLFMIndex(heads + (heads >= 1), idx.rlfm1.run_lengths)
    loaded = load_index(save_index(idx))
    assert loaded.grammar.rhs_id[aaa] == 1 and loaded.rlfm1.C[2] == loaded.rlfm1.C[1]
    for pattern in sorted(_substrings(text, 11)) + [b"aaa", b"aaaab", b"cbcbcbcb"]:
        assert loaded.count(pattern) == naive_count(text, pattern), pattern


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda r: [r[0], r[2], r[1]] + r[3:], "sorted and distinct"),
        (lambda r: r[:2] + [r[1]] + r[3:], "sorted and distinct"),
        (lambda r: [b""] + r[1:], "empty"),
        (lambda r: r[:-1] + [bytes([4])], "above the alphabet size"),
        (lambda r: r[:-1] + [bytes([3] * 5)], "exceeds the chunk size"),
    ],
    ids=["swapped", "duplicated", "empty", "code_above_sigma", "too_long"],
)
def test_rejects_malformed_rules(damage, reason):
    """Lex ids are ranks of the sorted rules: swapping ``ab`` and ``ac``
    used to load and then miscount."""
    idx = build_index(b"bacabacaacbcbc" * 5, 4, with_baseline=True)
    assert idx.grammar.rhs[1:3] == [bytes([1, 2]), bytes([1, 3])]  # ab, ac
    idx.grammar = Grammar(lam=4, rhs=damage(idx.grammar.rhs))
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(save_index(idx))


def _unary_index(n: int) -> TextIndex:
    """A consistent lambda=2 index of ``a`` repeated n times, written by hand."""
    return TextIndex(
        alphabet=DenseAlphabet(b"a"),
        grammar=Grammar(lam=2, rhs=[bytes([1])]),
        rlfm1=RLFMIndex(run_heads=[1, 0], run_lengths=[n, 1]),
        trie=ShortPatternTrie([([1], [n])]),
        n=n,
    )


def _with_level1_runs(blob: bytes, lengths, width: int) -> bytes:
    """The index file with its level-1 runs written by hand: heads 1 and 0
    (the terminator) at width 1, and ``lengths`` at ``width``; resealed."""
    sections = _sections_of(blob)
    sections["level1_bwt"] = b"".join([
        struct.pack("<I", 2), b"\x01\x01\x00",
        bytes([width]), np.asarray(lengths, dtype="<u%d" % width).tobytes(),
    ])
    return reseal(b"".join(sections.values()))


def test_fields_at_the_text_bound_round_trip():
    """A text of 2**31 - 2 characters, the bound: its level-1 run length and
    its trie window count take 4-byte columns, and its level-1 BWT has
    2**31 - 1 rows, the most a stored value may be."""
    n = bwt.MAX_TEXT_LENGTH
    assert n == 2**31 - 2 == index_mod.MAX_FIELD - 1
    index = _unary_index(n)
    blob = save_index(index)
    loaded = load_index(blob)
    assert save_index(loaded) == blob
    assert loaded.n == index.n == n and loaded.count(b"a") == n
    assert loaded.rlfm1.run_lengths.dtype == loaded.trie.levels[0][1].dtype == np.uint32
    assert loaded.rlfm1.total_length == index_mod.MAX_FIELD


@pytest.mark.parametrize(
    "n, width, reason",
    [
        (2**31 - 1, 4, "level-1 runs give a text length past 2147483646"),
        (2**32 + 3, 8, "column width 8 is not 1, 2 or 4"),
    ],
    ids=["2147483647", "4294967299"],
)
def test_fields_past_the_text_bound_are_refused(n, width, reason):
    """A text one character past the bound, and one past 32 bits.  The trie
    refuses its window count, and load_index a file written by hand with its
    level-1 run length: the runs give a text past the bound or, past 32
    bits, take an 8-byte column, which no index needs and the writer never
    makes."""
    with pytest.raises(ValueError, match="window counts must lie in 1..2147483646"):
        _unary_index(n)
    blob = save_index(_unary_index(bwt.MAX_TEXT_LENGTH))
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(_with_level1_runs(blob, [n, 1], width))


def test_save_refuses_a_text_past_the_bound():
    """A hand-made index of one character more than the bound is refused by
    the writer, as its file would be by the loader."""
    n = bwt.MAX_TEXT_LENGTH + 1
    index = dataclasses.replace(
        _unary_index(bwt.MAX_TEXT_LENGTH), rlfm1=RLFMIndex([1, 0], [n, 1]), n=n
    )
    with pytest.raises(ValueError, match="at most 2147483646 characters, not 2147483647"):
        save_index(index)


def test_rejects_level1_text_length_past_int64():
    """One rule ``aaaa`` occurring 2**62 + 1 times: the text length,
    4 * (2**62 + 1), wraps to 4 in an int64 dot product and would match a
    trie of ``aaaa``.  That run length is past 2**31 - 1, so the writer
    refuses it, and a file holding it at width 8 is refused as it is read.
    Within the bound no dot product wraps: 2**29 occurrences give a text
    length of 2**31, which the file's checks refuse by itself."""
    aaaa = TextIndex(
        alphabet=DenseAlphabet(b"a"),
        grammar=Grammar(lam=4, rhs=[bytes([1]) * 4]),
        rlfm1=RLFMIndex(run_heads=[1, 0], run_lengths=[1, 1]),
        trie=ShortPatternTrie.build(np.ones(4, dtype=np.uint8), 4),
        n=4,
    )
    wrapped = dataclasses.replace(aaaa, rlfm1=RLFMIndex([1, 0], [2**62 + 1, 1]))  # n stays 4
    with pytest.raises(ValueError, match="index fields must lie in 0..2147483647"):
        save_index(wrapped)
    blob = save_index(aaaa)
    with pytest.raises(CorruptIndexError, match="column width 8 is not 1, 2 or 4"):
        load_index(_with_level1_runs(blob, [2**62 + 1, 1], 8))
    with pytest.raises(CorruptIndexError, match="text length past 2147483646"):
        load_index(_with_level1_runs(blob, [2**29, 1], 4))


@pytest.fixture(scope="module")
def wide_rules_index():
    """A lambda=4 index, with its baseline, of a random text that has more
    than 255 rules, so its level-1 heads need two bytes."""
    rng = random.Random(13)
    idx = build_index(bytes(rng.randint(97, 112) for _ in range(4000)), 4, with_baseline=True)
    assert idx.grammar.size > 255
    return idx


def test_build_hands_rlfm_narrow_heads(running_example_index, wide_rules_index):
    for idx in (running_example_index, wide_rules_index):
        assert idx.rlfm1.run_heads.dtype == np.min_scalar_type(idx.grammar.size)
        assert idx.rlfm0.run_heads.dtype == np.min_scalar_type(idx.alphabet.size)


def _stored_columns(idx: TextIndex) -> list[np.ndarray]:
    """The columns the file stores: the level-1 runs, the baseline runs and
    every trie level's edges and child counts."""
    runs = [idx.rlfm1.run_heads, idx.rlfm1.run_lengths, *idx.baseline_runs]
    return runs + [column for level in idx.trie.levels for column in level]


def test_loaded_columns_keep_their_stored_widths(wide_rules_index):
    blob = save_index(wide_rules_index)
    loaded = load_index(blob)
    assert loaded.rlfm1.run_heads.dtype == np.uint16
    assert len(loaded.trie.levels) == 3
    for column in _stored_columns(loaded):
        assert column.dtype == np.min_scalar_type(int(column.max()))
        assert not column.flags.writeable
        # a view of the bytes read from the file, not a copy made in memory
        read = column
        while isinstance(read, np.ndarray):
            read = read.base
        assert isinstance(read, bytes) and read in blob
        assert np.shares_memory(column, np.frombuffer(read, dtype=np.uint8))
    # The joined copy that count walks is read-only too.
    assert not np.asarray(loaded.trie.edges).flags.writeable


@pytest.mark.parametrize(
    "case",
    ["running_example", "wide_rules", "art_2", "art_4", "art_8", "art_16", "lambda_1", "one_byte"],
)
def test_built_and_loaded_index_hold_equal_columns(request, case):
    """A built index and its saved and loaded copy hold the same stored
    columns at the same dtypes, the build's at the width the file takes."""
    get = request.getfixturevalue
    if case in ("running_example", "wide_rules"):
        built = get(case + "_index")
    elif case.startswith("art_"):
        built = build_index(get("artificial_text"), int(case[4:]), with_baseline=True)
    elif case == "lambda_1":
        built = build_index(b"bacabacaacbcbc", 1, with_baseline=True)
    else:
        built = build_index(b"x", 4, with_baseline=True)
    loaded = load_index(save_index(built))
    assert len(built.trie.levels) == min(built.grammar.lam - 1, built.n)
    assert [len(level) for level in built.trie.levels] == [len(level) for level in loaded.trie.levels]
    for made, read in zip(_stored_columns(built), _stored_columns(loaded), strict=True):
        assert made.dtype == read.dtype
        assert np.array_equal(made, read)
    for made, read in zip((built.trie.edges, built.trie.kids), (loaded.trie.edges, loaded.trie.kids)):
        assert np.asarray(made).dtype == np.asarray(read).dtype
        assert np.array_equal(made, read)


def test_save_rejects_a_negative_field(running_example_index):
    """The trie does not check the signs of its edges; the writer does, so
    an edge of -1 is refused rather than written at a wrapped width."""
    levels = [[np.array(column, dtype=np.int64) for column in level]
              for level in running_example_index.trie.levels]
    levels[-1][0][0] = -1
    negative = dataclasses.replace(running_example_index, trie=ShortPatternTrie(levels))
    with pytest.raises(ValueError, match="index fields must lie in 0..2147483647"):
        save_index(negative)


def _sections_of(blob: bytes) -> dict[str, bytes]:
    sizes = section_sizes(load_index(blob))
    del sizes["total"]
    out, at = {}, 0
    for name, size in sizes.items():
        out[name] = blob[at : at + size]
        at += size
    return out


def _at_width(width: int, section: bytes, widen: set[int], trie: bool = False) -> bytes:
    """A run section, or a trie section of one column set per level behind
    its level count, with the columns numbered in ``widen`` re-encoded at
    ``width`` bytes per value in every column set; the values stay the
    same.  A trie level's columns are edge and child count."""
    height = section[0] if trie else 1
    out, at = [section[:1]] if trie else [], 1 if trie else 0
    for level in range(1, height + 1):
        (rows,) = struct.unpack_from("<I", section, at)
        out.append(section[at : at + 4])
        at += 4
        for number in range(2):
            end = at + 1 + rows * section[at]  # the width byte, then the values
            column = section[at:end]
            if number in widen:
                values = np.frombuffer(column, dtype="<u%d" % column[0], offset=1)
                column = bytes([width]) + values.astype("<u%d" % width).tobytes()
            out.append(column)
            at = end
    assert at == len(section)
    return b"".join(out)


def _re_encoded(blob: bytes, width: int) -> bytes:
    """The index file with its level-1 heads and every trie level's edges
    and child counts re-encoded at ``width``; resealed."""
    sections = _sections_of(blob)
    sections["level1_bwt"] = _at_width(width, sections["level1_bwt"], {0})
    sections["short_trie"] = _at_width(width, sections["short_trie"], {0, 1}, trie=True)
    return reseal(b"".join(sections.values()))


def test_columns_re_encoded_at_width_4_load_and_count_alike(fuzz_blob):
    """Trie edges and child counts on every level and level-1 heads at width
    4, which ``save_index`` never writes for such small values, load as
    uint32, count exactly like the canonical file and save as it.  Width 8,
    which no value within the text bound needs, is refused."""
    text, blob = fuzz_blob
    wide = _re_encoded(blob, 4)
    assert len(wide) > len(blob)
    canonical, loaded = load_index(blob), load_index(wide)
    assert loaded.rlfm1.run_heads.dtype == np.uint32
    assert np.asarray(loaded.trie.edges).dtype == np.uint32
    assert all(level[0].dtype == np.uint32 for level in loaded.trie.levels)
    assert all(level[1].dtype == np.uint32 for level in loaded.trie.levels)
    assert save_index(loaded) == blob
    with pytest.raises(CorruptIndexError, match="column width 8 is not 1, 2 or 4"):
        load_index(_re_encoded(blob, 8))
    patterns = sorted(_substrings(text, 12)) + [b"abcabc", b"ccc", b"d", b"aaaaaaaa"]
    for pattern in patterns:
        assert loaded.count(pattern) == canonical.count(pattern)
        assert loaded.count_baseline(pattern) == canonical.count_baseline(pattern)


def _substrings(text: bytes, longest: int) -> set[bytes]:
    return {text[i : i + m] for m in range(1, longest + 1) for i in range(len(text) - m + 1)}


@pytest.fixture(scope="module")
def fuzz_blob():
    """A small lambda=4 index with its baseline, and its text."""
    text = b"bacabacaacbcbc" * 5
    return text, save_index(build_index(text, 4, with_baseline=True))


def test_fuzz_every_truncation_is_rejected(fuzz_blob):
    _, blob = fuzz_blob
    for cut in range(len(blob)):
        with pytest.raises(CorruptIndexError):
            load_index(blob[:cut])


def _flips(blob: bytes, count: int, seed: int):
    """``count`` seeded copies of the blob, each with one byte XORed by 1..255."""
    rng = random.Random(seed)
    for _ in range(count):
        out = bytearray(blob)
        out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
        yield bytes(out)


def test_fuzz_byte_flips_with_stale_checksum_are_rejected(fuzz_blob):
    """CRC-32 detects every burst of at most 32 bits, so each flip is caught."""
    _, blob = fuzz_blob
    for damaged in _flips(blob, 300, 1):
        with pytest.raises(CorruptIndexError):
            load_index(damaged)


def test_fuzz_byte_flips_with_resealed_checksum_never_crash(fuzz_blob):
    """With the checksum recomputed, only the structural checks stand between
    a flip and the query code.  Each flip must be rejected, at load or at
    the first baseline count, which checks the baseline's code masses, or
    give an index whose counts run to an int on every substring up to
    length 12.  They need not be right.  No stored count is left in the
    trie, but a changed edge code below depth 1 or alphabet byte, or a
    level-1 head moved to a rule with the same letters in another order, can
    load and miscount silently; it is the checksum that catches those."""
    text, blob = fuzz_blob
    substrings = sorted(_substrings(text, 12))
    loaded = 0
    for damaged in _flips(blob[:-4], 300, 2):
        try:
            idx = load_index(reseal(damaged + bytes(4)))
            idx.count_baseline(substrings[0])
        except CorruptIndexError:
            continue
        loaded += 1
        for pattern in substrings:
            assert isinstance(idx.count(pattern), int)
            assert isinstance(idx.count_baseline(pattern), int)
    assert 0 < loaded < 300  # some flips reach the query code, some are rejected


def _deep_edge_bytes(blob: bytes) -> tuple[range, set[int]]:
    """The file offsets of the trie section, and of the edge codes below
    depth 1 within it, read from the section's layout: the level count, then
    per level the row count and each column's width byte and values."""
    index = load_index(blob)
    sizes = section_sizes(index)
    names = list(sizes)
    start = sum(sizes[name] for name in names[: names.index("short_trie")])
    at, deep = start + 1, set()
    for depth, level in enumerate(index.trie.levels, 1):
        at += 4
        for number, column in enumerate(level):
            values = range(at + 1, at + 1 + column.nbytes)
            if number == 0 and depth >= 2:
                deep.update(values)
            at = values.stop
    return range(start, start + sizes["short_trie"]), deep


@pytest.mark.parametrize("lam", [4, 8])
def test_resealed_byte_sweep_over_the_trie_section(fuzz_blob, lam):
    """Every byte of the trie section XORed with 1, 2, 0x80 and 0xff, the
    checksum recomputed.  Each file must be rejected, or count every
    substring of up to 12 characters right.  Only a changed edge code below
    depth 1 may load and miscount: it relabels a node within its sibling
    order, and the windows below it stay where they were."""
    text, blob = fuzz_blob
    if lam != 4:
        blob = save_index(build_index(text, lam, with_baseline=True))
    want = {pattern: naive_count(text, pattern) for pattern in _substrings(text, 12)}
    section, deep_edges = _deep_edge_bytes(blob)
    rejected = 0
    for at in section:
        for mask in (1, 2, 0x80, 0xFF):
            damaged = bytearray(blob)
            damaged[at] ^= mask
            try:
                idx = load_index(reseal(bytes(damaged)))
            except CorruptIndexError:
                rejected += 1
                continue
            if at not in deep_edges:
                assert all(idx.count(p) == n for p, n in want.items()), (at, mask)
    assert rejected > len(section)


def _patch_baseline(blob: bytes, edit) -> bytes:
    """The index file with its baseline runs changed by ``edit(heads,
    lengths)``, which edits both in place, at their one-byte widths; resealed."""
    sections = _sections_of(blob)
    section = sections["baseline"]
    (rows,) = struct.unpack_from("<I", section, 1)  # after the baseline flag
    heads_at, lengths_at = 6, 7 + rows  # each after its column's width byte
    assert section[heads_at - 1] == section[lengths_at - 1] == 1
    heads = np.frombuffer(section, dtype=np.uint8, count=rows, offset=heads_at).copy()
    lengths = np.frombuffer(section, dtype=np.uint8, count=rows, offset=lengths_at).copy()
    edit(heads, lengths)
    sections["baseline"] = b"".join(
        [section[:heads_at], heads.tobytes(), b"\x01", lengths.tobytes()]
    )
    return reseal(b"".join(sections.values()))


def _set(column: str, *changes):
    """An edit for ``_patch_baseline`` that sets entries of one column."""

    def edit(heads, lengths):
        target = heads if column == "heads" else lengths
        for at, value in changes:
            target[at] = value

    return edit


@pytest.mark.parametrize(
    "edit, reason",
    [
        (_set("heads", (2, 2)), "adjacent runs of one symbol"),
        (_set("heads", (8, 0)), "exactly one terminator"),
        (_set("lengths", (4, 2), (0, 10)), "exactly one terminator"),
        (_set("lengths", (6, 0), (5, 11)), "run of length 0"),
        (_set("lengths", (0, 12)), "disagree on the text length"),
    ],
    ids=["adjacent_equal", "two_terminators", "long_terminator", "zero_length", "length_mismatch"],
)
def test_rejects_corrupt_baseline_runs(fuzz_blob, edit, reason):
    """The baseline's rank layout is built on its first query, so its runs
    are checked at load: each damage is rejected by ``load_index`` itself.
    All but the last keep the runs' total length."""
    _, blob = fuzz_blob
    heads, lengths = load_index(blob).baseline_runs
    assert heads.tolist() == [3, 2, 1, 3, 0, 3, 2, 1, 2, 1]
    assert lengths.tolist() == [11, 10, 10, 4, 1, 10, 1, 10, 9, 5]
    with pytest.raises(CorruptIndexError, match=reason):
        load_index(_patch_baseline(blob, edit))


def test_rejects_baseline_run_lengths_whose_sum_wraps(fuzz_blob):
    """2**62 added to four baseline run lengths, stored at width 8, adds 2**64
    to their sum: the int64 sum wraps back to the text length, and a file
    that loaded them gave ``count_baseline(b"a")`` 15, not 25.  No value
    within the text bound needs width 8, so the file is refused for it."""
    _, blob = fuzz_blob
    heads, lengths = load_index(blob).baseline_runs
    wrapped = lengths.astype(np.int64)
    wrapped[[0, 1, 2, 5]] += 2**62  # none of them the terminator's run
    assert wrapped.sum() == lengths.sum()
    sections = _sections_of(blob)
    sections["baseline"] = b"".join([
        b"\x01", struct.pack("<I", len(heads)),
        b"\x01", heads.astype(np.uint8).tobytes(),
        b"\x08", wrapped.astype("<i8").tobytes(),
    ])
    with pytest.raises(CorruptIndexError, match="column width 8 is not 1, 2 or 4"):
        load_index(reseal(b"".join(sections.values())))


def test_rejects_width_4_run_lengths_whose_sum_passes_int64():
    """Fewer than 2**32 values of at most 2**31 - 1 sum below 2**63, so
    width-4 run lengths whose int64 sum wraps, such as 2**31 + 1 lengths of
    2**32 - 1, hold a value past 2**31 - 1.  One such value is refused as
    its column is read."""
    blob = save_index(_unary_index(5))
    assert load_index(_with_level1_runs(blob, [5, 1], 4)).count(b"a") == 5
    with pytest.raises(CorruptIndexError, match="a column value exceeds 2147483647"):
        load_index(_with_level1_runs(blob, [2**32 - 1, 1], 4))


def test_moved_baseline_mass_is_refused_on_first_baseline_count(fuzz_blob):
    """One unit of run length moved from a run of b to a run of a keeps the
    baseline's total length, so the file loads.  Its code masses no longer
    match the level-1 runs: a's is 26 where the text has 25, and
    ``count_baseline(b"a")`` gave 26 before this check."""
    text, blob = fuzz_blob
    moved = _patch_baseline(blob, _set("lengths", (1, 9), (2, 11)))
    heads, lengths = load_index(moved).baseline_runs
    assert heads[1:3].tolist() == [2, 1] and lengths[1:3].tolist() == [9, 11]
    idx = load_index(moved)
    assert idx.count(b"a") == text.count(b"a") == 25
    with pytest.raises(CorruptIndexError, match="baseline's code masses"):
        idx.count_baseline(b"a")


def test_build_refuses_a_text_past_the_bound(monkeypatch):
    """A text past ``bwt.MAX_TEXT_LENGTH`` is a parameter error, raised
    before the grammar is built; one trailing NUL, which the build strips,
    does not count.  The bound is patched to 10 here."""
    monkeypatch.setattr(bwt, "MAX_TEXT_LENGTH", 10)
    with pytest.raises(InvalidParameterError, match="at most 10 bytes"):
        build_index(b"bacabacaac" + b"b", 4)
    idx = build_index(b"bacabacaac\x00", 4, with_baseline=True)
    assert idx.n == 10 and idx.count_baseline(b"aca") == 2


def test_baseline_rlfm_is_built_on_first_baseline_query(fuzz_blob, rlfm_inits):
    """Loading builds only the level-1 RLFMIndex; the first baseline count
    builds the baseline's, and later counts and saves reuse it."""
    text, blob = fuzz_blob
    idx = load_index(blob)
    assert rlfm_inits == [idx.rlfm1]
    patterns = sorted(_substrings(text, 12))
    assert idx.count_baseline(patterns[0]) == naive_count(text, patterns[0])
    assert len(rlfm_inits) == 2 and rlfm_inits[1] is idx.rlfm0
    for pattern in patterns:
        assert idx.count_baseline(pattern) == naive_count(text, pattern)
    assert save_index(idx) == blob
    assert len(rlfm_inits) == 2
