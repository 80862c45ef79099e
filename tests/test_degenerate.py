"""Oracle equivalence on degenerate texts.

Runs of one character, periodic texts, one-character texts and the full
byte alphabet stress the S* scan's edge cases: no S* position at all,
factors that repeat exactly, and a dictionary over every byte value.
Every count and baseline count must equal the brute-force scan.
"""

import random

from conftest import LARGE_LAMBDAS
from gfi.index import build_index
from gfi.oracle import naive_count

FULL = bytes(range(1, 256))


def degenerate_texts(rng):
    for n in (1, 2, 3, 5, 8, 13, 64, 300):
        yield b"a" * n
    for unit in (b"ab", b"ba", b"abc", b"aab", b"abb", b"abac", b"aaab", b"abcb"):
        for copies in (1, 2, 5, 40):
            yield unit * copies
    yield b"ab" * 30 + b"a"
    for c in (1, 97, 255):
        yield bytes([c])
    shuffled = bytes(rng.sample(FULL, len(FULL)))
    yield from (FULL, FULL[::-1], shuffled, FULL * 3, shuffled * 2)


def patterns(text, rng, count, longest=16):
    """Substrings of the text, some extended or with a changed last byte."""
    out = []
    for _ in range(count):
        m = rng.randint(1, min(len(text), longest))
        i = rng.randint(0, len(text) - m)
        pat = text[i : i + m]
        r = rng.random()
        if r < 0.2:
            pat += pat[:1]
        elif r < 0.3:
            pat = pat[:-1] + bytes([rng.randint(1, 255)])
        out.append(pat)
    return out


def test_degenerate_texts_match_oracle():
    """Chunk sizes 1..6 and past 8; from lam = 9 on, patterns run up to
    twice the chunk size, so texts longer than lam get patterns on both
    sides of it."""
    rng = random.Random(31)
    checks, longer, mismatches = 0, 0, []
    for text in degenerate_texts(rng):
        for lam in (*range(1, 7), *LARGE_LAMBDAS):
            idx = build_index(text, lam, with_baseline=True)
            for pat in patterns(text, rng, 25, longest=max(16, 2 * lam)):
                want = naive_count(text, pat)
                got = (idx.count(pat), idx.count_baseline(pat))
                if got != (want, want):
                    mismatches.append((text, lam, pat, got, want))
                checks += 1
                longer += lam in LARGE_LAMBDAS and len(pat) >= lam
    assert mismatches == []
    assert checks >= 13000
    assert longer >= 900
