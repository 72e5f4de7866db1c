"""Unit tests for validation helpers and RNG utilities."""

import numpy as np
import pytest

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    ConfigurationError,
    check_in,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestValidation:
    def test_check_type_accepts_and_rejects(self):
        check_type(3, int, "x")
        with pytest.raises(ConfigurationError):
            check_type("3", int, "x")

    def test_check_positive(self):
        check_positive(1, "x")
        with pytest.raises(ConfigurationError):
            check_positive(0, "x")
        with pytest.raises(ConfigurationError):
            check_positive(-1, "x")

    def test_check_non_negative(self):
        check_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            check_non_negative(-0.5, "x")

    def test_check_probability(self):
        check_probability(0.0, "p")
        check_probability(1.0, "p")
        with pytest.raises(ConfigurationError):
            check_probability(1.5, "p")

    def test_check_in(self):
        check_in("a", {"a", "b"}, "mode")
        with pytest.raises(ConfigurationError):
            check_in("c", {"a", "b"}, "mode")


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).integers(1_000_000)
        b = make_rng(42).integers(1_000_000)
        assert a == b

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 4)
        assert len(rngs) == 4
        draws = {int(r.integers(1_000_000_000)) for r in rngs}
        assert len(draws) > 1  # streams differ

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
