"""Input ingestion: remap raw bytes onto a dense code alphabet.

Codes are assigned in byte order starting at 1.  Code 0 is reserved
throughout the package for the virtual terminators, so it never appears
in a text.  Codes fit in one byte, so a text and its patterns are code
bytes, mapped from the raw bytes by one 256-byte translate table.
"""

from __future__ import annotations

from gfi.errors import EmptyTextError, InvalidByteError, InvalidPatternError


class DenseAlphabet:
    """Order-preserving bijection between the distinct input bytes and 1..size."""

    def __init__(self, code_to_byte: bytes):
        if b"\0" in code_to_byte or code_to_byte != bytes(sorted(set(code_to_byte))):
            raise ValueError("alphabet bytes must be nonzero and strictly increasing")
        self.code_to_byte = code_to_byte  # index c-1 holds the byte mapped to code c
        table = bytearray(256)  # bytes outside the alphabet map to 0
        for code, byte in enumerate(code_to_byte, start=1):
            table[byte] = code
        self.byte_to_code = bytes(table)

    @property
    def size(self) -> int:
        return len(self.code_to_byte)

    def encode(self, data: bytes) -> bytes | None:
        """Map a byte string to code bytes; None if any byte is outside the alphabet.

        Both count paths encode their pattern here, so this is where an
        empty pattern is rejected and a bytearray or memoryview becomes
        bytes (a bytes pattern is not copied).
        """
        if type(data) is not bytes:
            data = bytes(data)
        if not data:
            raise InvalidPatternError("empty pattern")
        codes = data.translate(self.byte_to_code)
        return None if 0 in codes else codes


def densify(raw: bytes) -> tuple[bytes, DenseAlphabet]:
    """Remap raw bytes to code bytes 1..sigma preserving byte order.

    A single trailing NUL terminator is stripped; any other NUL is rejected.
    Code c stands for the byte ``alphabet.code_to_byte[c - 1]``.
    """
    if raw.endswith(b"\x00"):
        raw = raw[:-1]
    if not raw:
        raise EmptyTextError("text is empty")
    if b"\x00" in raw:
        raise InvalidByteError("embedded NUL byte in text")
    alphabet = DenseAlphabet(bytes(sorted(set(raw))))
    return raw.translate(alphabet.byte_to_code), alphabet
