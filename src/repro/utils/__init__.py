"""Shared low-level utilities used across the Mnemonic reproduction.

The helpers in this package are deliberately small and dependency-free
(beyond :mod:`numpy`).  They provide the growable bitsets backing DEBI,
deterministic RNG construction for the synthetic datasets, and
argument-validation helpers.
"""

from repro.utils.bitset import BitMatrix, BitVector
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    ConfigurationError,
    GraphError,
    QueryError,
    ReproError,
    check_non_negative,
    check_positive,
    check_type,
)

__all__ = [
    "BitMatrix",
    "BitVector",
    "make_rng",
    "spawn_rngs",
    "ReproError",
    "ConfigurationError",
    "GraphError",
    "QueryError",
    "check_non_negative",
    "check_positive",
    "check_type",
]
