"""Tests for deterministic RNG helpers."""

from repro.util.rng import derive_seed, make_rng


def test_make_rng_is_deterministic():
    assert make_rng(42).random() == make_rng(42).random()


def test_derive_seed_depends_on_label_and_seed():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(3, "workload") == derive_seed(3, "workload")
