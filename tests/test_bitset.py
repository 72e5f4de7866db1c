"""Unit tests for the numpy-backed bitsets underlying DEBI."""

import numpy as np
import pytest

from repro.utils import bitset
from repro.utils.bitset import BitMatrix, BitVector, popcount


class TestPopcount:
    @pytest.fixture(params=["bitwise_count", "byte_table"])
    def branch(self, request, monkeypatch):
        """Run a test through one branch of ``popcount``, whatever numpy is installed."""
        if request.param == "byte_table":
            monkeypatch.setattr(bitset, "_bitwise_count", None)
        elif not hasattr(np, "bitwise_count"):
            pytest.skip("this numpy has no bitwise_count")
        else:
            monkeypatch.setattr(bitset, "_bitwise_count", np.bitwise_count)

    def test_matches_python_bit_counting(self, branch, rng):
        words = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
        words[:3] = (0, 2**64 - 1, 1 << 63)
        assert popcount(words) == sum(bin(int(w)).count("1") for w in words)
        assert popcount(words[::3]) == sum(bin(int(w)).count("1") for w in words[::3])
        assert popcount(words[:0]) == 0

    def test_counts_behind_vector_and_matrix(self, branch):
        vector = BitVector()
        for index in (0, 63, 64, 5000):
            vector.set(index)
        assert vector.count() == 4
        matrix = BitMatrix(width=64)
        matrix.set_row(2, 2**64 - 1)
        matrix.set(700, 9)
        assert matrix.count() == 65


class TestBitVector:
    def test_default_bits_are_zero(self):
        vector = BitVector()
        assert not vector.get(0)
        assert not vector.get(10_000)
        assert vector.count() == 0

    def test_set_and_get(self):
        vector = BitVector()
        vector.set(3)
        vector.set(64)
        vector.set(65)
        assert vector.get(3)
        assert vector.get(64)
        assert vector.get(65)
        assert not vector.get(4)
        assert vector.count() == 3

    def test_clear(self):
        vector = BitVector()
        vector.set(5)
        vector.clear(5)
        assert not vector.get(5)
        # Clearing a never-written index is a no-op.
        vector.clear(1_000_000)
        assert vector.count() == 0

    def test_assign(self):
        vector = BitVector()
        vector.assign(7, True)
        assert vector.get(7)
        vector.assign(7, False)
        assert not vector.get(7)

    def test_growth_preserves_bits(self):
        vector = BitVector(initial_capacity=8)
        vector.set(2)
        vector.set(3_000)
        assert vector.get(2)
        assert vector.get(3_000)

    def test_iter_set_and_to_set(self):
        vector = BitVector()
        expected = {1, 63, 64, 100, 1025}
        for index in expected:
            vector.set(index)
        assert list(vector.iter_set()) == sorted(expected)
        assert vector.to_set() == expected

    def test_contains_and_len(self):
        vector = BitVector()
        vector.set(9)
        assert 9 in vector
        assert 8 not in vector
        assert len(vector) == 10

    def test_clear_all(self):
        vector = BitVector()
        for i in range(50):
            vector.set(i * 7)
        vector.clear_all()
        assert vector.count() == 0

    def test_negative_index_rejected(self):
        vector = BitVector()
        with pytest.raises(Exception):
            vector.set(-1)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(Exception):
            BitVector(initial_capacity=0)


class TestBitMatrix:
    def test_basic_set_get_clear(self):
        matrix = BitMatrix(width=6)
        matrix.set(0, 0)
        matrix.set(3, 5)
        assert matrix.get(0, 0)
        assert matrix.get(3, 5)
        assert not matrix.get(3, 4)
        matrix.clear(3, 5)
        assert not matrix.get(3, 5)

    def test_row_mask_roundtrip(self):
        matrix = BitMatrix(width=8)
        matrix.set_row(4, 0b1010_1010)
        assert matrix.get_row(4) == 0b1010_1010
        assert matrix.get(4, 1)
        assert not matrix.get(4, 0)

    def test_row_mask_out_of_range_rejected(self):
        matrix = BitMatrix(width=4)
        with pytest.raises(ValueError):
            matrix.set_row(0, 1 << 4)

    def test_clear_row(self):
        matrix = BitMatrix(width=4)
        matrix.set(2, 1)
        matrix.set(2, 3)
        matrix.clear_row(2)
        assert matrix.get_row(2) == 0
        assert not matrix.row_any(2)

    def test_column_count_and_rows_with_column(self):
        matrix = BitMatrix(width=3)
        matrix.set(0, 1)
        matrix.set(5, 1)
        matrix.set(5, 2)
        assert matrix.column_count(1) == 2
        assert matrix.column_count(2) == 1
        assert set(matrix.rows_with_column(1).tolist()) == {0, 5}

    def test_total_count(self):
        matrix = BitMatrix(width=3)
        matrix.set(0, 0)
        matrix.set(1, 1)
        matrix.set(2, 2)
        assert matrix.count() == 3

    def test_growth_preserves_rows(self):
        matrix = BitMatrix(width=2, initial_rows=2)
        matrix.set(0, 0)
        matrix.set(4_000, 1)
        assert matrix.get(0, 0)
        assert matrix.get(4_000, 1)

    def test_unwritten_rows_read_as_zero(self):
        matrix = BitMatrix(width=2)
        assert matrix.get_row(12345) == 0
        assert not matrix.get(12345, 0)

    def test_column_out_of_range(self):
        matrix = BitMatrix(width=2)
        with pytest.raises(IndexError):
            matrix.get(0, 2)
        with pytest.raises(IndexError):
            matrix.set(0, 5)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            BitMatrix(width=65)
        BitMatrix(width=64)  # exactly 64 is allowed

    def test_clear_all_and_nbytes(self):
        matrix = BitMatrix(width=4)
        matrix.set(10, 3)
        assert matrix.nbytes() > 0
        matrix.clear_all()
        assert matrix.count() == 0
