"""Unit tests for canonical byte encoding."""

from dataclasses import dataclass

import pytest

from repro.crypto.canon import encode_canonical, memoized_fragment
from repro.errors import CryptoError
from tests.crypto.oracle import reference_canonical_bytes


@dataclass(frozen=True)
class Point:
    x: int
    y: int


def test_dict_keys_sorted():
    assert encode_canonical({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_dataclass_tagged_with_class_name():
    encoded = encode_canonical(Point(1, 2)).decode()
    assert '"__dc__":"Point"' in encoded
    assert '"x":1' in encoded


def test_bytes_hex_tagged():
    encoded = encode_canonical(b"\x00\xff").decode()
    assert '"__bytes__":"00ff"' in encoded


def test_bytes_and_string_distinct():
    assert encode_canonical(b"ab") != encode_canonical("ab")


def test_nested_containers():
    value = {"list": [1, (2, 3)], "none": None, "flag": True}
    encoded = encode_canonical(value)
    assert encoded == encode_canonical(value)  # stable


def test_different_dataclasses_with_same_fields_differ():
    @dataclass(frozen=True)
    class Other:
        x: int
        y: int

    assert encode_canonical(Point(1, 2)) != encode_canonical(Other(1, 2))


def test_unencodable_value_rejected():
    with pytest.raises(CryptoError):
        encode_canonical(object())


def test_unencodable_dict_key_rejected():
    with pytest.raises(CryptoError):
        encode_canonical({(1, 2): "tuple key"})


def test_int_keys_stringified():
    assert encode_canonical({1: "a"}) == b'{"1":"a"}'


@dataclass(frozen=True)
class Holder:
    points: tuple[Point, ...]
    first: Point


def test_generated_encoder_checks_each_value_not_the_annotation():
    """A class's compiled encoder inlines ``int``/``str``/``bytes``
    fields by their runtime type only: values that do not match the
    annotations take the general path, and a mutable value keeps the
    holder out of the memo."""
    typed = Holder(points=(Point(1, 2), Point(3, 4)), first=Point(5, 6))
    odd = Holder(points=(Point(1, 2), "x", (3, b"\x01")), first=[1, None])
    for value in (typed, odd):
        assert encode_canonical(value) == reference_canonical_bytes(value)
    assert memoized_fragment(typed) is not None
    assert memoized_fragment(odd) is None
