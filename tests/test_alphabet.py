import random

import pytest

from gfi.alphabet import densify
from gfi.errors import EmptyTextError, InvalidByteError


def test_densify_running_example():
    codes, alphabet = densify(b"bacabacaacbcbc")
    assert alphabet.size == 3
    assert alphabet.encode(b"abc") == bytes([1, 2, 3])
    assert codes == bytes([2, 1, 3, 1, 2, 1, 3, 1, 1, 3, 2, 3, 2, 3])


def test_densify_single_letter():
    codes, alphabet = densify(b"aaaa")
    assert alphabet.size == 1
    assert codes == bytes([1, 1, 1, 1])


def test_densify_rejects_empty():
    with pytest.raises(EmptyTextError):
        densify(b"")


def test_densify_strips_single_trailing_nul():
    codes, alphabet = densify(b"ab\x00")
    assert codes == bytes([1, 2])
    with pytest.raises(EmptyTextError):
        densify(b"\x00")


def test_densify_rejects_embedded_nul():
    with pytest.raises(InvalidByteError):
        densify(b"a\x00b")
    with pytest.raises(InvalidByteError):
        densify(b"ab\x00\x00")


def test_order_preserving():
    _, alphabet = densify(bytes([7, 200, 3, 120]))
    assert alphabet.encode(bytes([3, 7, 120, 200])) == bytes([1, 2, 3, 4])


def test_round_trip_identity():
    rng = random.Random(0)
    for _ in range(50):
        raw = bytes(rng.randint(1, 255) for _ in range(rng.randint(1, 300)))
        codes, alphabet = densify(raw)
        assert bytes(alphabet.code_to_byte[c - 1] for c in codes) == raw
        assert alphabet.size == len(set(raw))
        assert min(codes) >= 1


def test_encode_foreign_byte_is_none():
    _, alphabet = densify(b"abc")
    for foreign in (b"abz", b"ab\x00", b"\xffab"):
        assert alphabet.encode(foreign) is None
    assert alphabet.encode(b"cab") == bytes([3, 1, 2])
