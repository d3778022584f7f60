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

This package re-exports nothing: code imports the submodule it needs, so
reading a cache record (:mod:`repro.util.canonical`) never loads the
windowed filters.
"""
