from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_oracles import FractionSubclass, b_from_c, c_from_b, c_fractal
from genpascal.errors import ZeroFactor
from genpascal.matrices import gbinom
from genpascal.sequences import BSequence, CSequence, fractal_b


def test_ordinary_factorial():
    b = BSequence.naturals()
    assert b.factorial(5) == 120
    assert b.factorial(0) == 1


def test_fractal_factorial():
    assert BSequence.fractal(2, 2).factorial(8) == 128  # 2**7


def test_c_from_b():
    assert c_from_b(BSequence.fractal(2, 2))[20] == Fraction(1, 2**18)
    assert c_from_b(BSequence.naturals())[4] == Fraction(1, 24)
    assert c_from_b(BSequence.fractal(3, 3))[0] == 1


def test_fractal_b_values():
    assert fractal_b(2, 2, 12) == 4
    assert fractal_b(3, 3, 18) == 9
    assert fractal_b(2, 0, 4) == 0
    assert fractal_b(2, 0, 5) == 1
    assert fractal_b(2, Fraction(1, 2), 8) == Fraction(1, 8)


def test_zero_kind_raises():
    b = BSequence.fractal(2, 0)
    assert b[3] == 1  # individual values still fine
    with pytest.raises(ZeroFactor):
        b.factorial(2)


@pytest.mark.parametrize("n", [-1, -7])
def test_factorial_refuses_a_negative_n(n):
    # it used to walk down from n looking for a cached factorial, forever
    b = BSequence.naturals()
    for factorial in (b.factorial, b.factorial_pair):
        with pytest.raises(ValueError, match=f"^b_n! needs n >= 0, got n = {n}$"):
            factorial(n)
    assert b.factorial(4) == 24
    assert gbinom(b, 3, -1) == gbinom(b, -1, -1) == 0  # gbinom answers 0 before asking for b_n!


def test_explicit_validation():
    b = BSequence.explicit([0, 1, 5, 3])
    assert b.factorial(3) == 15
    with pytest.raises(ValueError):
        BSequence.explicit([1, 2])
    with pytest.raises(IndexError):
        b[9]


def test_from_c_round_trip():
    c = CSequence.exponential()
    b = b_from_c(c)
    assert [b[n] for n in range(1, 6)] == [1, 2, 3, 4, 5]


def test_c_explicit_validation():
    with pytest.raises(ValueError):
        CSequence.explicit([1, 2])
    with pytest.raises(ValueError):
        CSequence.explicit([2, 1])
    with pytest.raises(ValueError):
        CSequence.explicit([1, 1, 0])


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=3))
def test_factorial_recurrence(n, which):
    b = [
        BSequence.naturals(),
        BSequence.fractal(2, 2),
        BSequence.fractal(3, Fraction(-1, 2)),
        b_from_c(CSequence.exponential()),
    ][which]
    assert b.factorial(n) == b.factorial(n - 1) * b[n]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_factorial_scaling(q):
    # b_{q^k n}! = q^{((q^k - 1)/(q - 1)) n} b_n!
    b = BSequence.fractal(q, q)
    for k in range(4):
        for n in range(33):
            scale = Fraction(q) ** (((q**k - 1) // (q - 1)) * n)
            assert b.factorial(q**k * n) == scale * b.factorial(n)


@pytest.mark.parametrize("q", [2, 3])
def test_periodicity(q):
    # b_{q^k n + i} = b_i for 0 < i < q^k
    b = BSequence.fractal(q, q)
    for k in range(1, 6):
        block = q**k
        for n in range(17):
            for i in range(1, block):
                assert b[block * n + i] == b[i]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_c_block_recurrence(q):
    # c_{qn+i} = c_n / q^n for 0 <= i < q
    c = c_fractal(q)
    for n in range(20):
        for i in range(q):
            assert c[q * n + i] == c[n] / Fraction(q) ** n


def test_cache_is_stable():
    b = BSequence.fractal(2, 2)
    first = b.factorial(40)
    assert b.factorial(40) == first
    assert b[40] == 8


def test_concurrent_fills_are_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    b = BSequence.fractal(2, 2)
    expected = BSequence.fractal(2, 2).factorial(300)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: b.factorial(300), range(32)))
    assert all(r == expected for r in results)


# (input, value) pairs: an int, a bool, a text and a Fraction subclass, each read through Fraction()
COERCED = [(3, Fraction(3)), (True, Fraction(1)), ("3/2", Fraction(3, 2)), (FractionSubclass(-5, 4), Fraction(-5, 4))]


@pytest.mark.parametrize("given_value, value", COERCED, ids=["int", "bool", "text", "subclass"])
def test_explicit_and_getitem_return_exact_fractions(given_value, value):
    c = CSequence.explicit([1, True, given_value])
    b = BSequence.explicit([0, given_value])
    for got in (c[2], b[1], CSequence("rule", lambda n: given_value)[7], BSequence("rule", lambda n: given_value)[7]):
        assert type(got) is Fraction and got == value
    assert type(c[1]) is Fraction and c[1] == 1


def test_explicit_and_getitem_keep_a_given_fraction():
    given_value = Fraction(7, 3)
    assert CSequence.explicit([1, 1, given_value])[2] is given_value
    assert BSequence.explicit([0, given_value])[1] is given_value
    assert CSequence("rule", lambda n: given_value)[4] is given_value
    assert BSequence("rule", lambda n: given_value)[4] is given_value


@pytest.mark.parametrize(
    "values, message",
    [
        ([], "c_0 must be 1"),
        ([Fraction(2), 1], "c_0 must be 1"),
        ([1, "2"], "c_1 must be 1"),
        ([1, 1, Fraction(0)], "c_n must be nonzero"),
        ([1, 1, False], "c_n must be nonzero"),
    ],
)
def test_c_explicit_errors_keep_their_messages(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CSequence.explicit(values)


def test_b_explicit_error_keeps_its_message():
    with pytest.raises(ValueError, match="^b_0 must be 0$"):
        BSequence.explicit([Fraction(1), 2])


@pytest.mark.parametrize("cls, letter", [(BSequence, "b"), (CSequence, "c")])
def test_explicit_index_errors_keep_their_messages(cls, letter):
    seq = cls.explicit([0 if letter == "b" else 1, 1, 2])
    assert seq[2] == 2 and seq._values[2] == 2  # the memo the benchmark's tracer reads
    with pytest.raises(IndexError, match=f"^explicit {letter}-sequence has no index 3$"):
        seq[3]
    with pytest.raises(IndexError, match="^negative index$"):
        seq[-1]


def test_both_sequences_share_one_memoized_getitem():
    # the tracer wraps both targets of sequences.getitem, and they are one function
    assert BSequence.__getitem__ is CSequence.__getitem__
