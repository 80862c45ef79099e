"""Input ingestion: remap raw bytes onto a dense integer alphabet.

Codes are assigned in byte order starting at 1.  Code 0 is reserved
throughout the package for the virtual terminators, so it never appears
in a text.  Codes fit in one byte, so both texts and patterns are mapped
by one 256-byte translate table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfi.errors import EmptyTextError, InvalidByteError


class DenseAlphabet:
    """Order-preserving bijection between the distinct input bytes and 1..size."""

    def __init__(self, code_to_byte: bytes):
        self.code_to_byte = code_to_byte  # index c-1 holds the byte mapped to code c
        table = bytearray(256)  # bytes outside the alphabet map to 0
        for code, byte in enumerate(code_to_byte, start=1):
            table[byte] = code
        self.byte_to_code = bytes(table)

    @property
    def size(self) -> int:
        return len(self.code_to_byte)

    def encode(self, data: bytes) -> bytes | None:
        """Map a byte string to code bytes; None if any byte is outside the alphabet."""
        codes = data.translate(self.byte_to_code)
        return None if 0 in codes else codes

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
    present = np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256)
    if present[0]:
        raise InvalidByteError("embedded NUL byte in text")
    alphabet = DenseAlphabet(np.flatnonzero(present).astype(np.uint8).tobytes())
    codes = np.frombuffer(raw.translate(alphabet.byte_to_code), dtype=np.uint8)
    return Text(symbols=codes.astype(np.int64)), alphabet
