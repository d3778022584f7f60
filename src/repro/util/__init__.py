"""Utility primitives shared across the Bundler reproduction.

This subpackage holds small, dependency-free building blocks:

* :mod:`repro.util.fnv` — the FNV-1a non-cryptographic hash used for epoch
  boundary identification (§6.1 of the paper).
* :mod:`repro.util.units` — explicit unit conversions (Mbit/s, bytes,
  milliseconds) so that simulation code never mixes units silently.
* :mod:`repro.util.windowed` — sliding-window and exponentially-weighted
  statistics used by the measurement module and congestion controllers.
* :mod:`repro.util.rng` — seeded random-number helpers for reproducible
  experiments.
* :mod:`repro.util.canonical` — canonical JSON and stable content digests
  used by the sweep runner's result cache.
* :mod:`repro.util.env` — the one parser behind the ``REPRO_*`` on/off
  switches.
"""

from repro.util.units import (
    BYTES_PER_PACKET,
    bits_to_bytes,
    bytes_to_bits,
    mbps_to_bps,
    bps_to_mbps,
    ms_to_s,
    s_to_ms,
)
from repro.util.windowed import (
    EWMA,
    MaxFilter,
    MinFilter,
    SlidingWindow,
)
from repro.util.rng import derive_seed, make_rng
from repro.util.canonical import canonical_json, canonicalize, stable_digest

__all__ = [
    "BYTES_PER_PACKET",
    "bits_to_bytes",
    "bytes_to_bits",
    "mbps_to_bps",
    "bps_to_mbps",
    "ms_to_s",
    "s_to_ms",
    "EWMA",
    "MaxFilter",
    "MinFilter",
    "SlidingWindow",
    "derive_seed",
    "make_rng",
    "canonical_json",
    "canonicalize",
    "stable_digest",
]
