"""Deterministic random-number helpers.

Every stochastic component of an experiment (workload arrivals, request
sizes, per-flow start jitter) takes an explicit :class:`random.Random`
instance.  Experiments derive per-component generators from a single root
seed so that a run is fully reproducible from ``(scenario, seed)`` — the
paper runs each experiment across 10 seeds and reports the aggregate.
"""

from __future__ import annotations

import random


def make_rng(seed: int) -> random.Random:
    """Create a :class:`random.Random` seeded with ``seed``."""
    return random.Random(seed)


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable sub-seed from ``seed`` and a component ``label``."""
    h = 0xCBF29CE484222325
    for byte in f"{seed}:{label}".encode():
        h ^= byte
        h = (h * 0x00000100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
