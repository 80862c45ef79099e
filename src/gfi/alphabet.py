"""Input ingestion: remap raw bytes onto a dense integer alphabet.

Codes are assigned in byte order starting at 1.  Code 0 is reserved
throughout the package for the virtual terminators, so it never appears
in a text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfi.errors import EmptyTextError, InvalidByteError


@dataclass(frozen=True)
class DenseAlphabet:
    """Order-preserving bijection between the distinct input bytes and 1..size."""

    code_to_byte: bytes  # index c-1 holds the byte mapped to code c

    @property
    def size(self) -> int:
        return len(self.code_to_byte)

    def encode(self, data: bytes) -> np.ndarray | None:
        """Map a byte string to codes; None if any byte is outside the alphabet."""
        table = np.frombuffer(self.code_to_byte, dtype=np.uint8)
        arr = np.frombuffer(data, dtype=np.uint8)
        pos = np.searchsorted(table, arr)
        pos = np.minimum(pos, self.size - 1)
        if not np.all(table[pos] == arr):
            return None
        return (pos + 1).astype(np.int64)

    def decode(self, codes) -> bytes:
        table = np.frombuffer(self.code_to_byte, dtype=np.uint8)
        return table[np.asarray(codes, dtype=np.int64) - 1].tobytes()


@dataclass(frozen=True)
class Text:
    """A text over the dense alphabet; codes in 1..sigma, never 0."""

    symbols: np.ndarray

    @property
    def n(self) -> int:
        return len(self.symbols)


def densify(raw: bytes) -> tuple[Text, DenseAlphabet]:
    """Remap raw bytes to codes 1..sigma preserving byte order.

    A single trailing NUL terminator is stripped; any other NUL is rejected.
    Round-tripping through the alphabet's decode reproduces the input.
    """
    if raw.endswith(b"\x00"):
        raw = raw[:-1]
    if not raw:
        raise EmptyTextError("text is empty")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if np.any(arr == 0):
        raise InvalidByteError("embedded NUL byte in text")
    table = np.unique(arr)
    alphabet = DenseAlphabet(code_to_byte=table.tobytes())
    codes = (np.searchsorted(table, arr) + 1).astype(np.int64)
    return Text(symbols=codes), alphabet
