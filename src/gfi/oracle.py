"""Ground-truth counting and reproducible dataset generators.

The generators use ``random.Random`` (Mersenne Twister), which produces
identical sequences for a given seed on every platform, so generated
corpora and benchmark CSVs are reproducible.
"""

from __future__ import annotations

import random

import numpy as np

from gfi.errors import InvalidParameterError, InvalidPatternError

ARTIFICIAL_ALPHABET = b"ACGT"
ARTIFICIAL_BASE_LENGTH = 5 * 2**10
ARTIFICIAL_COPIES = 100


def _codes(seq) -> np.ndarray:
    if isinstance(seq, (bytes, bytearray)):
        return np.frombuffer(seq, dtype=np.uint8)
    return np.asarray(seq, dtype=np.int64)


def naive_count(text, pattern) -> int:
    """Occurrences of pattern in text by direct scan (overlaps included).

    Text and pattern are each code bytes or a sequence of ints.
    """
    if len(pattern) == 0:
        raise InvalidPatternError("empty pattern")
    t = _codes(text)
    p = _codes(pattern)
    m, n = len(p), len(t)
    if m > n:
        return 0
    hits = np.ones(n - m + 1, dtype=bool)
    for j in range(m):
        hits &= t[j : n - m + 1 + j] == p[j]
        if not hits.any():
            return 0
    return int(hits.sum())


def gen_random_text(sigma: int, n: int, seed: int) -> np.ndarray:
    """Random codes 1..sigma of length n in which every code occurs.

    Each code 1..sigma is put once at its own position, the positions
    drawn uniformly without replacement; every other position holds a
    code drawn uniformly from 1..sigma, independently.  The time is
    linear in n for any 1 <= sigma <= n; other values are rejected.
    """
    if not 1 <= sigma <= n:
        raise InvalidParameterError("a random text needs 1 <= sigma <= length")
    rng = random.Random(seed)
    codes = [rng.randint(1, sigma) for _ in range(n)]
    for code, pos in enumerate(rng.sample(range(n), sigma), start=1):
        codes[pos] = code
    return np.array(codes, dtype=np.int64)


def gen_artificial(mutation_percent: float, seed: int) -> bytes:
    """A random DNA base string followed by 100 noisy copies.

    Each character of each copy is independently mutated with probability
    mutation_percent/100; a mutation is a coin flip between substitution
    (uniform over the three other characters) and deletion.
    """
    if not 0 <= mutation_percent <= 100:  # nan too
        raise InvalidParameterError("--mutation %s is not a percent in 0..100" % mutation_percent)
    rng = random.Random(seed)
    base = bytes(rng.choice(ARTIFICIAL_ALPHABET) for _ in range(ARTIFICIAL_BASE_LENGTH))
    p = mutation_percent / 100.0
    parts = [base]
    for _ in range(ARTIFICIAL_COPIES):
        copy = bytearray()
        for ch in base:
            if rng.random() < p:
                if rng.random() < 0.5:
                    continue  # deletion
                others = [c for c in ARTIFICIAL_ALPHABET if c != ch]
                copy.append(rng.choice(others))
            else:
                copy.append(ch)
        parts.append(bytes(copy))
    return b"".join(parts)


def pattern_offsets(n: int, length: int, samples: int, seed: int) -> list[int]:
    """Start offsets of ``samples`` substrings of a length-n text, drawn
    uniformly at random; ``extract_patterns`` copies out the same draws."""
    if length > n:
        raise ValueError("pattern length exceeds the text length")
    rng = random.Random(seed)
    return [rng.randint(0, n - length) for _ in range(samples)]


def extract_patterns(text, length: int, samples: int, seed: int) -> list:
    """Substrings of the text drawn uniformly at random; all of them occur."""
    t = np.asarray(text)
    return [t[i : i + length].copy() for i in pattern_offsets(len(t), length, samples, seed)]
