"""Tests for the Rabin–Karp rolling hash."""

import numpy as np
import pytest

from repro.hashing.rabin_karp import rabin_karp, rabin_karp_rolling, rabin_karp_rows


class TestRabinKarp:
    def test_equal_inputs_equal_hashes(self):
        assert rabin_karp([0, 1, 1, 0]) == rabin_karp([0, 1, 1, 0])

    def test_order_sensitive(self):
        assert rabin_karp([0, 1]) != rabin_karp([1, 0])

    def test_leading_zero_significant(self):
        assert rabin_karp([0, 1]) != rabin_karp([1])

    def test_empty_sequence(self):
        assert rabin_karp([]) == 0

    def test_accepts_numpy_arrays(self):
        arr = np.array([1, 0, 1], dtype=np.uint8)
        assert rabin_karp(arr) == rabin_karp([1, 0, 1])

    def test_within_modulus(self):
        h = rabin_karp([1] * 200)
        assert 0 <= h < 2_147_483_647

    def test_explicit_polynomial(self):
        base, mod = 10, 10**9
        # symbols shifted by one: [2, 3] -> (2+1)*10 + (3+1) = 34
        assert rabin_karp([2, 3], base=base, modulus=mod) == 34


class TestRows:
    def test_each_row_matches_scalar_hash(self):
        symbols = np.random.default_rng(0).integers(0, 2, size=(5, 3, 40))
        rows = rabin_karp_rows(symbols)
        assert rows.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            assert rows[idx] == rabin_karp(symbols[idx])


class TestRolling:
    def test_matches_direct_hash_per_window(self):
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 2, size=50)
        window = 7
        rolled = list(rabin_karp_rolling(seq, window))
        direct = [rabin_karp(seq[i : i + window]) for i in range(len(seq) - window + 1)]
        assert rolled == direct

    def test_short_sequence_yields_nothing(self):
        assert list(rabin_karp_rolling([1, 0], 5)) == []

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(rabin_karp_rolling([1, 0], 0))
