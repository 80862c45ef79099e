"""Suffix type classification and LMS factorization.

Positions 0 and n+1 are the virtual sentinels # and $, with # < $ < c for
every code c.  They are never stored; the classifier handles them as the
two extra entries of the type array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfi.errors import InvalidParameterError

L = 0
S = 1
SSTAR = 2


@dataclass(frozen=True)
class TypeArray:
    """Suffix types for virtual positions 0..n+1 (0 is #, n+1 is $)."""

    types: np.ndarray


def classify(text: np.ndarray) -> TypeArray:
    """Assign L/S types by the right-to-left scan; ties inherit the successor.

    A position is S* when it is S and its predecessor is L.  Position 0 (#)
    is stipulated S*, and position n+1 ($) always follows an L position, so
    both sentinels come out S*.
    """
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    if n == 0:
        raise InvalidParameterError("cannot classify an empty text")
    types = np.empty(n + 2, dtype=np.uint8)
    types[0] = SSTAR
    types[n + 1] = SSTAR
    if n == 1:
        types[1] = L  # single char compares above $
        return TypeArray(types=types)

    # For position i in 1..n-1, the type is decided at the nearest j >= i
    # with text[j] != text[j+1]; a run reaching the end resolves against $.
    diff = text[:-1] != text[1:]
    idx = np.where(diff, np.arange(n - 1), n - 1)
    nxt = np.minimum.accumulate(idx[::-1])[::-1]
    safe = np.minimum(nxt + 1, n - 1)
    inner = np.where((nxt == n - 1) | (text[nxt] > text[safe]), L, S).astype(np.uint8)
    types[1:n] = inner
    types[n] = L

    is_s = types[1 : n + 1] == S
    is_prev_l = types[0:n] == L
    types[1 : n + 1] = np.where(is_s & is_prev_l, SSTAR, types[1 : n + 1])
    return TypeArray(types=types)


@dataclass(frozen=True)
class Factorization:
    """The text split at S* positions, sentinels dropped.

    ``starts`` holds the 1-based text position of each factor's first
    character; factor x covers starts[x] .. starts[x+1]-1 (the last factor
    runs to n).  Concatenating the factors gives back the text.
    """

    starts: np.ndarray
    factors: list[bytes]


def factorize(text: np.ndarray, types: TypeArray) -> Factorization:
    """One factor per consecutive S* pair, closing character dropped.

    The substring between S* positions i and j contributes text[i..j-1];
    the leading # makes the first factor start at position 1 instead.  An
    empty first factor (S* at position 1) would be dropped, though the type
    rules never produce one.
    """
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    sstar = np.flatnonzero(types.types[: n + 1] == SSTAR)
    bounds = np.empty(len(sstar) + 1, dtype=np.int64)
    bounds[:-1] = sstar
    bounds[0] = 1  # drop the virtual #
    bounds[-1] = n + 1
    if bounds[0] >= bounds[1] and len(bounds) > 2:
        bounds = bounds[1:]
    raw = text.astype(np.uint8).tobytes()
    factors = [raw[bounds[k] - 1 : bounds[k + 1] - 1] for k in range(len(bounds) - 1)]
    return Factorization(starts=bounds[:-1].copy(), factors=factors)


@dataclass(frozen=True)
class ChunkedFactorization:
    """Factors chopped left to right into pieces of at most lam characters."""

    lam: int
    chunks: list[bytes]
    is_factor_end: list[bool]


def chunk(factorization: Factorization, lam: int) -> ChunkedFactorization:
    """Split every factor into ceil(len/lam) chunks, all full but the last."""
    if lam < 1:
        raise InvalidParameterError("chunk size must be at least 1")
    chunks: list[bytes] = []
    ends: list[bool] = []
    for factor in factorization.factors:
        pieces = [factor[i : i + lam] for i in range(0, len(factor), lam)]
        chunks.extend(pieces)
        ends.extend([False] * (len(pieces) - 1))
        ends.append(True)
    return ChunkedFactorization(lam=lam, chunks=chunks, is_factor_end=ends)


def chunk_string(s: bytes, lam: int) -> list[bytes]:
    """Left-to-right lam-chunks of one string (helper shared with queries)."""
    return [s[i : i + lam] for i in range(0, len(s), lam)]
