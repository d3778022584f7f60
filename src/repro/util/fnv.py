"""FNV-1a hashing.

The Bundler prototype uses the FNV hash (a fast, non-cryptographic hash with
a low collision rate) to decide whether a packet is an epoch boundary
(§4.5, §6.1).  The hash is computed over a subset of the packet header that
is identical at the sendbox and the receivebox and differs between packets
(the paper's prototype uses the IPv4 IP ID, destination IP and destination
port).

Both the 32-bit and 64-bit variants are provided.  The epoch machinery uses
the 32-bit variant, matching the prototype's choice of a cheap four-multiply
hash.
"""

from __future__ import annotations

from typing import Iterable

_FNV32_OFFSET = 0x811C9DC5
_FNV32_PRIME = 0x01000193
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x00000100000001B3

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def hash_fields(fields: Iterable[int], bits: int = 32) -> int:
    """Hash a sequence of integer header fields.

    Each field is serialized as a 4-byte big-endian integer before hashing so
    that the byte stream is unambiguous (``(1, 23)`` and ``(12, 3)`` hash
    differently).

    Parameters
    ----------
    fields:
        Integer header field values (for example ``(ip_id, dst_ip, dst_port)``).
    bits:
        Either 32 or 64; selects the FNV variant.
    """
    # Equivalent to hashing the concatenated 4-byte big-endian encodings, but
    # unrolled over each field's bytes — this sits on the per-packet epoch
    # check, so avoiding the intermediate buffers matters.
    if bits == 32:
        h = _FNV32_OFFSET
        for field in fields:
            v = int(field)
            if v < 0 or v > _MASK32:
                raise OverflowError("field does not fit in 4 bytes")
            h = ((h ^ (v >> 24)) * _FNV32_PRIME) & _MASK32
            h = ((h ^ ((v >> 16) & 0xFF)) * _FNV32_PRIME) & _MASK32
            h = ((h ^ ((v >> 8) & 0xFF)) * _FNV32_PRIME) & _MASK32
            h = ((h ^ (v & 0xFF)) * _FNV32_PRIME) & _MASK32
        return h
    if bits == 64:
        h = _FNV64_OFFSET
        for field in fields:
            v = int(field)
            if v < 0 or v > _MASK32:
                raise OverflowError("field does not fit in 4 bytes")
            h = ((h ^ (v >> 24)) * _FNV64_PRIME) & _MASK64
            h = ((h ^ ((v >> 16) & 0xFF)) * _FNV64_PRIME) & _MASK64
            h = ((h ^ ((v >> 8) & 0xFF)) * _FNV64_PRIME) & _MASK64
            h = ((h ^ (v & 0xFF)) * _FNV64_PRIME) & _MASK64
        return h
    raise ValueError(f"unsupported hash width: {bits} (expected 32 or 64)")
