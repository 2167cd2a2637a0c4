"""The immutable values on ``rationals.Value``.

``Report`` and ``GPSpec`` compare, hash, print, construct and refuse
assignment as the frozen dataclasses they were (``fraction_oracles``), on
drawn fields. Every value type refuses assignment and deletion with the
message ``<Type> is immutable``, and copies and pickles to an equal value.
"""

import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_oracles import GPSpecDataclass, ReportDataclass
from genpascal.fractal import fractal_matrix
from genpascal.matrices import TriangularMatrix, build_from_c
from genpascal.polynomials import Polynomial
from genpascal.report import Report
from genpascal.sequences import CSequence
from genpascal.special import PhiCoordinates, phi_coordinates
from genpascal.specs import FAMILIES, GPSpec

# the fields of each class with a default, and the default
GPSPEC_DEFAULTS = {"c": None, "phi": None, "q": None, "factors": ()}
REPORT_DEFAULTS = {"counterexample": None, "checked": 0}

C_SEQUENCES = [CSequence.exponential(), CSequence.explicit([1, 1, Fraction(1, 2)])]
# ints below and above the least bases, rationals, and text that Fraction() reads or refuses
scalars = st.none() | st.integers(-2, 9) | st.fractions(-9, 9, max_denominator=6) | st.sampled_from(["3/2", "x", "1/0"])
leaf_specs = st.tuples(
    st.sampled_from([*FAMILIES, "nope"]), st.none() | st.sampled_from(C_SEQUENCES), scalars, scalars, st.just(())
)
# a recipe is the five fields, with the factors as recipes
spec_recipes = st.recursive(
    leaf_specs, lambda inner: st.tuples(st.just("hadamard"), st.none(), scalars, scalars, st.lists(inner, max_size=3))
)
report_fields = st.tuples(
    st.text(max_size=8),
    st.booleans(),
    st.none() | st.dictionaries(st.text(max_size=4), st.none() | st.integers() | st.text(max_size=4), max_size=3),
    st.integers(0, 10**6),
)


def outcome(call, *args, **kwargs):
    """("value", result) or ("raises", exception type, message)."""
    try:
        return "value", call(*args, **kwargs)
    except Exception as error:  # the two forms must fail alike
        return "raises", type(error), str(error)


def constructions(cls, fields: tuple, defaults: dict) -> list:
    """cls built from fields positionally, by keyword, and by keyword without
    the fields that equal their defaults."""
    named = dict(zip(cls.__slots__, fields))
    is_default = {name: type(v) is type(defaults.get(name, ...)) and v == defaults[name] for name, v in named.items()}
    trimmed = {name: value for name, value in named.items() if not is_default[name]}
    return [cls(*fields), cls(**named), cls(**trimmed)]


def build_spec(cls, recipe):
    kind, c, phi, q, factors = recipe
    return cls(kind, c, phi, q, tuple(build_spec(cls, factor) for factor in factors))


def assert_same_forms(new, old) -> None:
    """new (a library value) and old (its dataclass form) print alike, hash alike
    or fail to alike, and refuse assignment and deletion of every field."""
    assert repr(new) == repr(old).replace("Dataclass(", "(")
    assert outcome(hash, new) == outcome(hash, old)
    for name in (*type(new).__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^{type(new).__name__} is immutable$"):
            setattr(new, name, None)
        with pytest.raises(AttributeError):
            setattr(old, name, None)
        with pytest.raises(AttributeError, match=f"^{type(new).__name__} is immutable$"):
            delattr(new, name)


@settings(max_examples=300, deadline=None)
@given(spec_recipes, spec_recipes)
@example(("fractal", None, None, 3, ()), ("pascal", None, None, None, ()))
@example(("qumbral", None, None, 3, ()), ("qumbral", None, None, Fraction(3), ()))
@example(("hadamard", None, None, None, [("fractal", None, 2, 2, ())]), ("hadamard", None, None, None, []))
def test_specs_match_the_dataclass_form(recipe, other):
    got, want = outcome(build_spec, GPSpec, recipe), outcome(build_spec, GPSpecDataclass, recipe)
    assert got[0] == want[0] and got[2:] == want[2:], (got, want)  # the same validation error, or none
    if got[0] == "raises":
        return
    new, old = got[1], want[1]
    kind, c, phi, q, factors = recipe
    fields = (kind, c, phi, q, new.factors)
    assert all(spec == new for spec in constructions(GPSpec, fields, GPSPEC_DEFAULTS))
    assert_same_forms(new, old)
    other_new, other_old = outcome(build_spec, GPSpec, other), outcome(build_spec, GPSpecDataclass, other)
    if other_new[0] == "value":
        assert (new == other_new[1]) == (old == other_old[1])
        assert (new != other_new[1]) == (old != other_old[1])


@settings(max_examples=300, deadline=None)
@given(report_fields, report_fields)
@example(("kron", False, {"n": 3}, 7), ("kron", False, {"n": 3}, 7))
@example(("kron", True, None, 7), ("kron", True, None, 7))
def test_reports_match_the_dataclass_form(fields, other):
    new, old = Report(*fields), ReportDataclass(*fields)
    assert all(report == new for report in constructions(Report, fields, REPORT_DEFAULTS))
    assert_same_forms(new, old)
    assert (new == Report(*other)) == (old == ReportDataclass(*other))
    assert (new != Report(*other)) == (old != ReportDataclass(*other))
    assert new.to_dict() == {"suite": fields[0], "pass": fields[1], "counterexample": fields[2], "checked": fields[3]}


def values() -> list:
    """One value of each type; the spec has no c sequence, whose local functions do not pickle."""
    pascal = build_from_c(CSequence.exponential(), 8)
    return [
        fractal_matrix(Fraction(-3, 2), 2, 6),
        TriangularMatrix([[1], [Fraction(1, 2), 3]]),
        Polynomial([1, Fraction(-2, 3), 0, 5]),
        phi_coordinates(pascal, 6),
        GPSpec.hadamard([GPSpec.fractal(Fraction(3, 2), 2), GPSpec.qumbral(Fraction(1, 3)), GPSpec("pascal")]),
        Report("kron", False, {"n": 3, "got": "1/2", "want": None}, 7),
    ]


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


CACHES = {TriangularMatrix: "rows", Polynomial: "coeffs", PhiCoordinates: "betas", GPSpec: "_hadamard_parts"}


@pytest.mark.parametrize("how", COPIES)
def test_every_value_copies_and_pickles_to_an_equal_value(how):
    for value in values():
        got = COPIES[how](value)
        assert type(got) is type(value) and got == value and repr(got) == repr(value)
        if type(value) in CACHES:  # a cache filled before the copy is not carried into it, and is built alike
            name = CACHES[type(value)]
            cached = getattr(value, name)
            got = COPIES[how](value)
            assert got == value and vars(got) == {} and getattr(got, name) == cached


def test_every_value_refuses_assignment():
    for value in values():
        for name in (*type(value).__slots__, *CACHES.values(), "other"):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                delattr(value, name)


def test_a_lazy_cache_is_built_once_and_read_as_a_plain_attribute():
    matrix = fractal_matrix(2, 3, 5)
    assert "rows" not in vars(matrix)
    rows = matrix.rows
    assert vars(matrix) == {"rows": rows} and matrix.rows is rows
    spec = GPSpec.hadamard([GPSpec.fractal(2, 3), GPSpec("pascal")])
    spec.entry(4, 1)
    assert vars(spec)["_hadamard_parts"] == ([(3, 2, 1)], [GPSpec("pascal")])


def test_caches_fill_alike_from_several_threads():
    # from Python 3.12 on, cached_property takes no lock, so two racing first reads may each build
    # an equal value and either may be kept: the reads are compared by equality, not identity
    cached = [(value, CACHES[type(value)]) for value in values() if type(value) in CACHES]
    twins = [value for value in values() if type(value) in CACHES]  # equal values, read one at a time
    want = [getattr(twin, name) for twin, (_, name) in zip(twins, cached)]
    assert len(cached) == 5 and all(vars(value) == {} for value, _ in cached)
    start = threading.Barrier(8, timeout=30)  # the eight first reads begin together

    def read(_):
        start.wait()
        return [getattr(value, name) for value, name in cached]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first reads too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for got in results)
    assert [vars(value)[name] for value, name in cached] == want
