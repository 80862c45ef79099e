"""Index assembly and the on-disk format (version 4).

The serialized file stores only primary data: the alphabet map, the rule
strings in lexicographic order, the run-length compressed BWT of the
rewritten text, the short-pattern trie nodes level by level, and
optionally the baseline BWT runs.  The level-1 rank structures, the
reversed rules with their colex order and ranks, and the trie's child
slices are rebuilt on load, so serialize -> load -> serialize is
byte-identical.  Counting never reads the baseline, so its runs are only
checked at load and its rank layout is built on its first query.

All multi-byte integers are little-endian.  The rules are one byte string
in which each rule ends with a 0 byte, a code no text uses, so one
``bytes.split`` recovers them.  Each run and trie column is stored behind
one width byte at the narrowest of 1, 2, 4 or 8 bytes per value that
holds its largest value (``rlfm.narrowest``), so its values are limited
only by int64; built or loaded, it keeps that width in memory.  The trie
is one edge and one child-count column per level, the
``ShortPatternTrie.levels`` the build makes; no node count is stored.
A CRC-32 of everything before it ends the file.  Loading checks the
structure first and the checksum last, and every file it rejects raises
``CorruptIndexError``.
"""

from __future__ import annotations

import io
import numbers
import operator
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gfi import bwt as bwt_mod
from gfi import grammar as grammar_mod
from gfi import query
from gfi.alphabet import DenseAlphabet, densify
from gfi.errors import CorruptIndexError, InvalidParameterError
from gfi.rlfm import COLUMN_DTYPES, RLFMIndex, exact_sum, narrowest
from gfi.shorttrie import ShortPatternTrie

MAGIC = b"GFI1"
VERSION = 4
MAX_LAMBDA = 255  # the header stores the chunk size in one byte


@dataclass
class TextIndex:
    """Everything needed to answer count queries, plus build statistics.

    ``n`` is the text length.  ``baseline_runs`` are the (heads, lengths)
    of the raw text's BWT runs, or None for an index built without the
    baseline.
    """

    alphabet: DenseAlphabet
    grammar: grammar_mod.Grammar
    rlfm1: RLFMIndex
    trie: ShortPatternTrie
    n: int
    baseline_runs: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def rlfm0(self) -> RLFMIndex | None:
        """The baseline FM index over ``baseline_runs``, built on first use."""
        if self.baseline_runs is None:
            return None
        return RLFMIndex(*self.baseline_runs)

    def count(self, pattern: bytes) -> int:
        return query.count(self, pattern)

    def count_baseline(self, pattern: bytes) -> int:
        """Count on the raw-text baseline index (requires --baseline at build)."""
        if self.rlfm0 is None:
            raise ValueError("index was built without the baseline section")
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return 0
        return self.rlfm0.count_plain(codes)


def build_index(data: bytes, lam: int, with_baseline: bool = False) -> TextIndex:
    """Build the full index for a raw byte string."""
    if not isinstance(lam, numbers.Integral) or not 1 <= lam <= MAX_LAMBDA:
        raise InvalidParameterError("chunk size must be an integer from 1 to %d" % MAX_LAMBDA)
    lam = operator.index(lam)  # np.int64(4) becomes 4, which counts and saves as 4 does
    codes, alphabet = densify(bytes(data))
    gram, level1 = grammar_mod.build(codes, lam)
    rlfm1 = RLFMIndex.from_bwt(bwt_mod.bwt_of(level1))
    text = np.frombuffer(codes, dtype=np.uint8)  # sorted as is; the trie widens it
    trie = ShortPatternTrie.build(text, lam)
    index = TextIndex(alphabet=alphabet, grammar=gram, rlfm1=rlfm1, trie=trie, n=len(codes))
    if with_baseline:
        rlfm0 = RLFMIndex.from_bwt(bwt_mod.bwt_of(text))
        index.baseline_runs = rlfm0.run_heads, rlfm0.run_lengths
        index.rlfm0 = rlfm0  # fills the cached property
    return index


def _columns(*columns) -> bytes:
    """The row count (u32), then each column as its width byte and its values."""
    out = [struct.pack("<I", len(columns[0]))]
    for column in map(np.asarray, columns):
        if len(column) and column.min() < 0:
            raise ValueError("index fields must be nonnegative")
        column = narrowest(column)  # little-endian; a nonnegative int64 has its uint64's bytes
        out.append(bytes([column.itemsize]) + column.tobytes())
    return b"".join(out)


def _take(buf: io.BytesIO, size: int) -> bytes:
    """The next ``size`` bytes of the file; ValueError when fewer remain."""
    data = buf.read(size)
    if len(data) != size:
        raise ValueError("truncated")
    return data


def _unpack(buf: io.BytesIO, fmt: str) -> tuple:
    return struct.unpack(fmt, _take(buf, struct.calcsize(fmt)))


def _read_columns(buf: io.BytesIO, count: int) -> list[np.ndarray]:
    """``count`` columns written by ``_columns``, each at its width's dtype."""
    (rows,) = _unpack(buf, "<I")
    columns = []
    for _ in range(count):
        width = _take(buf, 1)[0]
        if width not in COLUMN_DTYPES:
            raise ValueError("column width %d is not 1, 2, 4 or 8" % width)
        column = np.frombuffer(_take(buf, rows * width), dtype=COLUMN_DTYPES[width])
        if width == 8 and rows and column.min() < 0:  # a value past int64 reads negative
            raise ValueError("a column value exceeds int64")
        columns.append(column)
    return columns


def _trie_levels(trie: ShortPatternTrie) -> bytes:
    """The trie's level count (u8), then each level's columns: its nodes'
    edges and child counts.  The root's child count is level 1's row
    count, so it is not stored."""
    return bytes([len(trie.levels)]) + b"".join(_columns(*level) for level in trie.levels)


def _read_trie(buf: io.BytesIO, height: int, sigma: int) -> ShortPatternTrie:
    """The ``height`` levels written by ``_trie_levels``; the trie checks
    their shape.  Every edge must be an alphabet code or, on d-1 of level
    d's nodes, the 0 that pads the windows of the text's last d-1 positions."""
    trie = ShortPatternTrie([_read_columns(buf, 2) for _ in range(height)])
    for d, (edges, _) in enumerate(trie.levels, 1):
        if edges.max() > sigma:
            raise ValueError("a trie edge lies outside the alphabet codes 1..%d" % sigma)
        if np.count_nonzero(edges == 0) != d - 1:
            raise ValueError("trie level %d must hold %d padding edges" % (d, d - 1))
    return trie


def _read_runs(buf: io.BytesIO, top: int, what: str, symbols: str) -> tuple[np.ndarray, ...]:
    """The (heads, lengths) of a run-length BWT whose largest symbol is
    ``top``, checked so that ``RLFMIndex`` takes them as they are: no run is
    empty, the lengths sum within int64, no two adjacent runs share a head,
    and symbol 0 (the terminator) is one run of length 1.  Symbols below
    ``top`` may be absent; ``top`` must occur, as a suffix count reads
    ``first[c + 1]`` for every rule id c."""
    heads, lengths = _read_columns(buf, 2)
    if (heads.max() if len(heads) else -1) != top:
        raise ValueError("%s BWT symbols do not match the %d %s" % (what, top, symbols))
    if lengths.min() == 0:
        raise ValueError("%s BWT has a run of length 0" % what)
    # Fewer than 2**32 rows of at most 2 bytes sum below 2**48; wider ones could wrap.
    if lengths.itemsize > 2 and exact_sum(lengths) >> 63:
        raise ValueError("%s BWT run lengths sum past int64" % what)
    if np.any(heads[1:] == heads[:-1]):
        raise ValueError("%s BWT has two adjacent runs of one symbol" % what)
    if lengths[heads == 0].tolist() != [1]:
        raise ValueError("%s BWT must hold exactly one terminator" % what)
    return heads, lengths


def _sections(index: TextIndex) -> list[tuple[str, bytes]]:
    """The file's sections in file order, each as (name, serialized bytes)."""
    rules = b"".join(s + b"\0" for s in index.grammar.rhs)
    baseline = b"\x00"
    if index.baseline_runs is not None:
        baseline = b"\x01" + _columns(*index.baseline_runs)
    sections = [
        ("header", MAGIC + struct.pack("<BB", VERSION, index.grammar.lam)),
        ("alphabet", struct.pack("<I", index.alphabet.size) + index.alphabet.code_to_byte),
        ("grammar", struct.pack("<I", len(rules)) + rules),
        ("level1_bwt", _columns(index.rlfm1.run_heads, index.rlfm1.run_lengths)),
        ("short_trie", _trie_levels(index.trie)),
        ("baseline", baseline),
    ]
    crc = 0
    for _, data in sections:
        crc = zlib.crc32(data, crc)
    return sections + [("checksum", struct.pack("<I", crc))]


def save_index(index: TextIndex) -> bytes:
    return b"".join(data for _, data in _sections(index))


def _read_index(data: bytes) -> TextIndex:
    buf = io.BytesIO(data)
    if _take(buf, 4) != MAGIC:
        raise CorruptIndexError("not a gfi index file")
    version, lam = _unpack(buf, "<BB")
    if version in (1, 2, 3):
        raise CorruptIndexError("index file is format version %d; rebuild the index" % version)
    if version != VERSION:
        raise CorruptIndexError("unsupported index format version %d" % version)
    if lam < 1:
        raise ValueError("chunk size must be at least 1, not %d" % lam)

    (sigma,) = _unpack(buf, "<I")
    alphabet = DenseAlphabet(code_to_byte=_take(buf, sigma))

    (size,) = _unpack(buf, "<I")
    rules = _take(buf, size)
    rhs = rules.split(b"\0")  # each rule ends with a 0 byte
    if rhs.pop():
        raise ValueError("the last rule has no terminating 0 byte")
    lengths = np.fromiter(map(len, rhs), dtype=np.int64, count=len(rhs))
    if rhs and lengths.max() > lam:
        raise ValueError("a rule of length %d exceeds the chunk size %d" % (lengths.max(), lam))
    if rhs and lengths.min() == 0:
        raise ValueError("a rule is empty")
    if size and np.frombuffer(rules, dtype=np.uint8).max() > sigma:
        raise ValueError("a rule holds a code above the alphabet size %d" % sigma)
    if not all(map(operator.lt, rhs, rhs[1:])):
        raise ValueError("rules must be sorted and distinct")
    gram = grammar_mod.Grammar(lam=lam, rhs=rhs)

    rlfm1 = RLFMIndex(*_read_runs(buf, len(rhs), "level-1", "rules"))
    freqs = np.diff(rlfm1.C)[1:]  # per rule id; the terminator dropped
    n = int(freqs @ lengths)
    if rlfm1.total_length * lam >> 63:  # only then can that int64 sum wrap
        n = sum(map(operator.mul, freqs.tolist(), lengths.tolist()))
        if n >> 63:
            raise ValueError("the level-1 runs give a text length past int64")

    # The trie holds every substring shorter than lam, so its depth pins lam
    # for any text of at least lam - 1 characters.
    (height,) = _unpack(buf, "<B")
    if height != min(lam - 1, n):
        raise ValueError("short-pattern trie depth %d does not match chunk size %d" % (height, lam))
    trie = _read_trie(buf, height, sigma)
    (has_baseline,) = _unpack(buf, "<B")
    if has_baseline > 1:
        raise ValueError("baseline flag %d is not 0 or 1" % has_baseline)
    baseline = _read_runs(buf, sigma, "baseline", "alphabet codes") if has_baseline else None
    (checksum,) = _unpack(buf, "<I")
    if buf.tell() != len(data):
        raise ValueError("%d trailing bytes after the checksum" % (len(data) - buf.tell()))

    # Each code's text frequency is the sum, over the rules, of the rule's
    # level-1 frequency times the code's count in it; the trie's depth-1
    # counts (no level at lam 1 or n 0) must give the same.  np.add.at keeps
    # the sums exact in int64, where bincount's float64 weights round past 2**53.
    if trie.levels:
        freq_of_code = np.zeros(sigma + 1, dtype=np.int64)
        np.add.at(freq_of_code, np.frombuffer(rules, dtype=np.uint8), np.repeat(freqs, lengths + 1))
        if [trie.count(bytes([c])) for c in range(1, sigma + 1)] != freq_of_code[1:].tolist():
            raise ValueError("the level-1 runs and the trie's depth-1 counts disagree")
    if baseline is not None and baseline[1].sum(dtype=np.int64) != n + 1:
        raise ValueError("the level-1 runs and the baseline disagree on the text length")
    if zlib.crc32(memoryview(data)[:-4]) != checksum:
        raise ValueError("checksum mismatch")
    return TextIndex(
        alphabet=alphabet, grammar=gram, rlfm1=rlfm1, trie=trie, n=n, baseline_runs=baseline
    )


def load_index(data: bytes) -> TextIndex:
    """The index stored in ``data``; CorruptIndexError names what is wrong."""
    try:
        return _read_index(data)
    except CorruptIndexError:
        raise
    except ValueError as exc:  # the structural checks and the constructors' own
        raise CorruptIndexError("corrupt index file: %s" % exc) from exc


def save_index_file(index: TextIndex, path: str):
    with open(path, "wb") as fh:
        fh.write(save_index(index))


def load_index_file(path: str) -> TextIndex:
    with open(path, "rb") as fh:
        return load_index(fh.read())


def section_sizes(index: TextIndex) -> dict[str, int]:
    """Serialized byte size per file section."""
    sizes = {name: len(data) for name, data in _sections(index)}
    sizes["total"] = sum(sizes.values())
    return sizes
