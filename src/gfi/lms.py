"""S* positions and the LMS factorization of a code string.

Texts and patterns are both code bytes (codes 1..sigma), cut by the same
scan.  With the virtual terminator $ below every code, position i is S*
when its suffix is smaller than the next one and the previous suffix is
larger, i.e. when i starts a run of equal codes that is entered from a
larger code and left to a larger code.  A run reaching the end of the
string is left to $, so it never starts at an S* position, and position
0 is never S* because nothing enters it.

``grammar.build`` cuts the text's factors and chunks in one pass over
``classify``'s positions.  ``factorize`` and ``chunk`` are the reference
forms of those two cuts, as whole lists: the tests compare the one-pass
build with them, and the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from gfi.errors import InvalidParameterError


def classify(codes: bytes) -> list[int]:
    """The 0-based S* positions of the code string, in increasing order."""
    out = []
    prev, start, down = -1, 0, False  # down: the current run was entered from above
    for i, c in enumerate(codes):
        if c != prev:
            if down and c > prev:
                out.append(start)
            down = c < prev
            prev, start = c, i
    return out


def factorize(codes: bytes, sstar: list[int]) -> list[bytes]:
    """The code string cut before every S* position; the pieces join back to it."""
    return [codes[a:b] for a, b in zip([0, *sstar], [*sstar, len(codes)])]


def chunk(factors: list[bytes], lam: int) -> list[bytes]:
    """Every factor cut into ceil(len/lam) chunks, all full but its last."""
    if lam < 1:
        raise InvalidParameterError("chunk size must be at least 1")
    chunks = []
    for factor in factors:
        if len(factor) <= lam:
            chunks.append(factor)  # most factors fit one chunk; skip the comprehension
        else:
            chunks.extend([factor[i : i + lam] for i in range(0, len(factor), lam)])
    return chunks
