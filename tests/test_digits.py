import random
from math import comb
from operator import ge

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from genpascal.digits import carry_count_rows, digit_product_rows, digits, valuation


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


# a block with the values 0, 1 and above 1, from a drawn table of values
def int_block(values):
    return lambda i, j: values[(3 * i + j) % len(values)]


@given(
    st.one_of(st.integers(min_value=2, max_value=40), st.just(10**6)),
    st.integers(min_value=0, max_value=300),
    st.sampled_from(["ge", "comb", "int"]),
    st.lists(st.sampled_from([0, 1, 2, 5]), min_size=1, max_size=7),
    st.sampled_from([None, (0, 1), (0, 1, 3, 10**20)]),
    st.randoms(use_true_random=True),  # seeded once; a draw per top entry overran the data budget
)
@settings(max_examples=40, deadline=None)
@example(2, 300, "ge", [0], None, random.Random(0))
@example(37, 300, "comb", [0], None, random.Random(0))
@example(10**6, 300, "int", [0, 1, 2], (0, 1, 3), random.Random(0))
def test_kernels_match_the_per_entry_loops(q, size, name, values, top_values, rng):
    # the strided-slice rows equal the old per-entry rows: q below, around and past sqrt(size) and size,
    # blocks of 0/1 values and of larger ones, self-similar and over a given top triangle
    block = {"ge": ge, "comb": comb, "int": int_block(values)}[name]
    top = None if top_values is None else [[rng.choice(top_values) for _ in range(n + 1)] for n in range(size)]
    rows = digit_product_rows(q, size, block, top)
    assert rows == oracle.digit_product_rows(q, size, block, top)
    assert {type(x) for row in rows for x in row} <= {int}  # a bool of ge equals its int but prints as True
    assert carry_count_rows(q, size) == oracle.carry_count_rows(q, size)
