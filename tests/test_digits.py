import pytest
from hypothesis import given
from hypothesis import strategies as st

from genpascal.digits import digits, valuation


def test_digits_basic():
    assert digits(0, 2) == []
    assert digits(10, 2) == [0, 1, 0, 1]
    assert digits(8, 3) == [2, 2]


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(5, 2) == 0
    assert valuation(27, 3) == 3
    with pytest.raises(ValueError):
        valuation(0, 2)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=16))
def test_round_trip(n, base):
    ds = digits(n, base)
    assert sum(d * base**i for i, d in enumerate(ds)) == n
    assert all(0 <= d < base for d in ds) and (not ds or ds[-1] != 0)
