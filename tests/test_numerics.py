from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modxl.numerics import compensated_sum, db_to_linear, linear_to_db


class TestCompensatedSum:
    def test_cancellation_heavy_sequence(self):
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0

    def test_many_small_terms(self):
        # 0.1 is inexact; naive accumulation drifts, compensation does not.
        total = compensated_sum([0.1] * 10**6)
        assert total == pytest.approx(1e5, rel=1e-15)

    def test_empty(self):
        assert compensated_sum([]) == 0.0

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=50))
    def test_correctly_rounded(self, values):
        # The compensated sum is the rational sum rounded once to a double.
        exact = sum(Fraction(v) for v in values)
        assert compensated_sum(values) == float(exact)

    @given(
        st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_order_independent(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert compensated_sum(shuffled) == compensated_sum(values)


class TestDecibels:
    def test_known_values(self):
        assert linear_to_db(1e5) == 50.0
        assert linear_to_db(1.0) == 0.0
        assert linear_to_db(100.0) == 20.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(-1.0)

    @given(st.floats(1e-30, 1e30))
    def test_round_trip(self, value):
        assert db_to_linear(linear_to_db(value)) == pytest.approx(value, rel=1e-12)
