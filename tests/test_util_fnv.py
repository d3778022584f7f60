"""Tests for the FNV-1a hash used in epoch boundary identification."""

import pytest
from hypothesis import given, strategies as st

from repro.util.fnv import hash_fields

_OFFSET = {32: 0x811C9DC5, 64: 0xCBF29CE484222325}
_PRIME = {32: 0x01000193, 64: 0x00000100000001B3}


def fnv1a(data: bytes, bits: int) -> int:
    """Byte-at-a-time FNV-1a straight from the specification: the oracle
    :func:`hash_fields` (unrolled over 4-byte fields) is held to."""
    h = _OFFSET[bits]
    for byte in data:
        h = ((h ^ byte) * _PRIME[bits]) % 2**bits
    return h


def _field_bytes(fields) -> bytes:
    return b"".join(int(f).to_bytes(4, "big") for f in fields)


def test_known_fnv32_vectors():
    # Reference values from the FNV specification pin the oracle ...
    assert fnv1a(b"", 32) == 0x811C9DC5
    assert fnv1a(b"a", 32) == 0xE40C292C
    assert fnv1a(b"foobar", 32) == 0xBF9CF968
    # ... and the oracle pins hash_fields (every field list, below).
    assert hash_fields(()) == 0x811C9DC5


def test_known_fnv64_vectors():
    assert fnv1a(b"", 64) == 0xCBF29CE484222325
    assert fnv1a(b"a", 64) == 0xAF63DC4C8601EC8C
    assert hash_fields((), bits=64) == 0xCBF29CE484222325
    fields = (0x1234, 0x0A000001, 443)
    assert hash_fields(fields, bits=64) == fnv1a(_field_bytes(fields), 64)


def test_hash_fields_is_order_sensitive():
    assert hash_fields((1, 2, 3)) != hash_fields((3, 2, 1))


def test_hash_fields_disambiguates_field_boundaries():
    # (1, 23) and (12, 3) must not collide just because the digits concatenate.
    assert hash_fields((1, 23)) != hash_fields((12, 3))


def test_hash_fields_width_selection():
    h32 = hash_fields((5, 6), bits=32)
    h64 = hash_fields((5, 6), bits=64)
    assert h32 < 2**32
    assert h64 < 2**64
    assert h32 != h64


def test_hash_fields_rejects_bad_width():
    with pytest.raises(ValueError):
        hash_fields((1,), bits=16)


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=6))
def test_fnv32_is_deterministic_and_bounded(fields):
    assert hash_fields(fields) == fnv1a(_field_bytes(fields), 32)
    assert 0 <= hash_fields(fields) < 2**32


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6))
def test_hash_fields_deterministic(fields):
    assert hash_fields(fields) == hash_fields(fields)


@given(
    st.lists(st.integers(min_value=0, max_value=65535), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=65535),
)
def test_hash_fields_sensitive_to_single_field_change(fields, delta):
    changed = list(fields)
    changed[0] = (changed[0] + delta + 1) % 65536
    if changed == fields:
        return
    # Not a strict guarantee for a non-cryptographic hash, but collisions on
    # a single small-field change would break epoch sampling badly enough
    # that we want to notice.
    assert hash_fields(fields) != hash_fields(changed)
