"""Index assembly and the on-disk format.

The serialized file stores only primary data: the alphabet map, the rule
strings in lexicographic order, the run-length compressed BWT of the
rewritten text, the short-pattern trie nodes, and optionally the baseline
BWT runs.  Rank structures, the reversed rules with their colex order and
ranks, and the trie's child slices are rebuilt on load, so serialize ->
load -> serialize is byte-identical.

All multi-byte integers are little-endian; counts are unsigned 32-bit,
and saving refuses any value that does not fit.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from gfi import bwt as bwt_mod
from gfi import grammar as grammar_mod
from gfi.alphabet import DenseAlphabet, densify
from gfi.errors import InvalidParameterError
from gfi.rlfm import RLFMIndex
from gfi.shorttrie import ShortPatternTrie

MAGIC = b"GFI1"
VERSION = 1
MAX_LAMBDA = 255  # the header stores the chunk size in one byte


@dataclass
class TextIndex:
    """Everything needed to answer count queries, plus build statistics."""

    alphabet: DenseAlphabet
    lam: int
    grammar: grammar_mod.Grammar
    rlfm1: RLFMIndex
    trie: ShortPatternTrie
    rlfm0: RLFMIndex | None = None

    @property
    def n(self) -> int:
        """Text length, recovered from symbol frequencies and rule lengths."""
        counts = np.diff(self.rlfm1.C)[1:]  # per rule id; the terminator dropped
        return int(counts @ self.grammar.expansion_lengths()[1 : len(counts) + 1])

    def count(self, pattern: bytes, trace=None) -> int:
        from gfi import query

        return query.count(self, pattern, trace)

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
    if not 1 <= lam <= MAX_LAMBDA:
        raise InvalidParameterError("chunk size must be between 1 and %d" % MAX_LAMBDA)
    codes, alphabet = densify(bytes(data))
    gram, level1 = grammar_mod.build(codes, lam)
    rlfm1 = RLFMIndex.from_bwt(bwt_mod.bwt_of(level1))
    text = np.frombuffer(codes, dtype=np.uint8)  # sorted as is; the trie widens it
    trie = ShortPatternTrie.build(text, lam)
    rlfm0 = None
    if with_baseline:
        rlfm0 = RLFMIndex.from_bwt(bwt_mod.bwt_of(text))
    return TextIndex(
        alphabet=alphabet, lam=lam, grammar=gram, rlfm1=rlfm1, trie=trie, rlfm0=rlfm0
    )


def _rows(*columns) -> bytes:
    """The row count, then the columns interleaved row by row, as u32 fields."""
    rows = np.column_stack(columns)
    if rows.size and (rows.min() < 0 or rows.max() >= 2**32):
        raise ValueError("an index field does not fit in 32 bits")
    return struct.pack("<I", len(rows)) + rows.astype("<u4").tobytes()


def _take(buf: io.BytesIO, size: int) -> bytes:
    """The next ``size`` bytes of the file; ValueError when fewer remain."""
    data = buf.read(size)
    if len(data) != size:
        raise ValueError("index file is truncated")
    return data


def _unpack(buf: io.BytesIO, fmt: str) -> tuple:
    return struct.unpack(fmt, _take(buf, struct.calcsize(fmt)))


def _read_runs(buf: io.BytesIO) -> RLFMIndex:
    (count,) = _unpack(buf, "<I")
    pairs = np.frombuffer(_take(buf, count * 8), dtype="<u4").astype(np.int64)
    return RLFMIndex(run_heads=pairs[0::2], run_lengths=pairs[1::2])


def _sections(index: TextIndex) -> list[tuple[str, bytes]]:
    """The file's sections in file order, each as (name, serialized bytes)."""
    rules = b"".join(struct.pack("<I", len(s)) + s for s in index.grammar.rhs)
    baseline = b"\x00"
    if index.rlfm0 is not None:
        baseline = b"\x01" + _rows(index.rlfm0.run_heads, index.rlfm0.run_lengths)
    return [
        ("header", MAGIC + struct.pack("<BB", VERSION, index.lam)),
        ("alphabet", struct.pack("<I", index.alphabet.size) + index.alphabet.code_to_byte),
        ("grammar", struct.pack("<I", index.grammar.size) + rules),
        ("level1_bwt", _rows(index.rlfm1.run_heads, index.rlfm1.run_lengths)),
        ("short_trie", _rows(index.trie.parents, index.trie.edges, index.trie.counts)),
        ("baseline", baseline),
    ]


def save_index(index: TextIndex) -> bytes:
    return b"".join(data for _, data in _sections(index))


def load_index(data: bytes) -> TextIndex:
    buf = io.BytesIO(data)
    if _take(buf, 4) != MAGIC:
        raise ValueError("not an index file")
    version, lam = _unpack(buf, "<BB")
    if version != VERSION:
        raise ValueError("unsupported index version %d" % version)
    if lam < 1:
        raise ValueError("chunk size must be at least 1, not %d" % lam)

    (sigma,) = _unpack(buf, "<I")
    alphabet = DenseAlphabet(code_to_byte=_take(buf, sigma))

    (rule_count,) = _unpack(buf, "<I")
    rhs = []
    for _ in range(rule_count):
        (length,) = _unpack(buf, "<I")
        if length > lam:
            raise ValueError("rule of length %d exceeds the chunk size %d" % (length, lam))
        rhs.append(_take(buf, length))
    gram = grammar_mod.Grammar(lam=lam, sigma=sigma, rhs=rhs)

    rlfm1 = _read_runs(buf)
    if rlfm1.alphabet_size != rule_count + 1:  # every rule occurs in the rewritten text
        raise ValueError("level-1 BWT symbols do not match the %d rules" % rule_count)

    (node_count,) = _unpack(buf, "<I")
    rows = np.frombuffer(_take(buf, node_count * 12), dtype="<u4").astype(np.int64)
    trie = ShortPatternTrie(parents=rows[0::3], edges=rows[1::3], counts=rows[2::3])

    (has_baseline,) = _unpack(buf, "<B")
    rlfm0 = _read_runs(buf) if has_baseline else None
    if buf.tell() != len(data):
        raise ValueError("index file has %d trailing bytes" % (len(data) - buf.tell()))
    index = TextIndex(
        alphabet=alphabet, lam=lam, grammar=gram, rlfm1=rlfm1, trie=trie, rlfm0=rlfm0
    )
    # The trie holds every substring shorter than lam, so its depth pins lam
    # for any text of at least lam - 1 characters.
    if trie.height != min(lam - 1, index.n):
        raise ValueError(
            "short-pattern trie depth %d does not match chunk size %d" % (trie.height, lam)
        )
    return index


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
