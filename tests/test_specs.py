import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_oracles import c_fractal, c_geometric, materialize_hadamard, phi_q_series, qumbral_entry
from genpascal.matrices import identity_check
from genpascal.rationals import format_rational
from genpascal.sequences import CSequence
from genpascal.serialize import matrix_from_json, matrix_to_csv, matrix_to_json, matrix_to_pbm
from genpascal.special import phi_coordinates
from genpascal.specs import FAMILIES, GPSpec

# fixed values drawn half the time: a zero weight, a fraction and its negative, and small bases
PHIS = [Fraction(0), Fraction(3, 2), Fraction(-3, 2)]
BASES = [2, 3, 5]
phis = st.sampled_from(PHIS) | st.fractions(min_value=-9, max_value=9, max_denominator=12)
bases = st.sampled_from(BASES) | st.integers(min_value=2, max_value=7)
umbral_qs = st.sampled_from([*PHIS, *map(Fraction, BASES), Fraction(1), Fraction(-1)]) | phis

# kind -> a strategy of its specs; the explicit c-sequences and the sizes below stop at 40
SPECS = {
    "pascal": st.just(GPSpec("pascal")),
    "ones": st.just(GPSpec("ones")),
    "from-c": st.one_of(
        st.sampled_from([CSequence.exponential(), c_geometric()]),
        st.builds(c_fractal, bases),
        st.builds(phi_q_series, phis.filter(bool), bases),
        st.lists(phis.filter(bool), min_size=39, max_size=39).map(lambda c: CSequence.explicit([1, 1, *c])),
    ).map(GPSpec.from_c),
    "phiq": st.builds(GPSpec.phiq, phis, bases),
    "fractal": st.builds(GPSpec.fractal, phis, bases),
    "qumbral": st.builds(GPSpec.qumbral, umbral_qs),
    "qumbral-inverse": umbral_qs.map(lambda q: GPSpec("qumbral-inverse", q=q)),
    "zero-overlay": bases.map(lambda q: GPSpec("zero-overlay", q=q)),
    "tmatrix": st.builds(GPSpec.tmatrix, bases),
}
SPECS["hadamard"] = st.lists(st.one_of(*SPECS.values()), max_size=5).map(GPSpec.hadamard)


def test_strategies_cover_every_family():
    assert SPECS.keys() == set(FAMILIES)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_family_differential(kind, data):
    spec = data.draw(SPECS[kind], label="spec")
    q = spec.q if FAMILIES[kind][2].get("q") == 2 else None  # a digit base
    # 0, 1, 40 and the base q and q*q + 1 (for other kinds those of q = 2, 3, 5), or any size up to 24
    fixed = {0, 1, 40} | ({q, q * q + 1} if q else {2, 3, 5, 10, 26})
    size = data.draw(st.sampled_from(sorted(fixed)) | st.integers(min_value=0, max_value=24), label="size")
    matrix = spec.materialize(size)

    # the truncation is the per-entry form, exactly, and 0 off the triangle
    rows = [[spec.entry(n, m) for m in range(n + 1)] for n in range(size)]
    assert matrix.rows == tuple(map(tuple, rows))
    assert all(type(e) is Fraction for row in (*rows, *matrix.rows) for e in row)
    for n in range(size):
        assert spec.entry(n, -1) == spec.entry(n, n + 1) == matrix.entry(n, -1) == matrix.entry(n, n + 1) == 0

    # the writers read the integer view; the text formatted entry by entry is the oracle
    texts = [[format_rational(e) for e in row] for row in rows]
    phi = None if spec.phi is None else format_rational(spec.phi)
    json_text = matrix_to_json(matrix, kind, q, spec.phi)
    assert json_text == json.dumps({"kind": kind, "q": q, "phi": phi, "size": size, "rows": texts}, indent=1)
    csv_text = matrix_to_csv(matrix)
    assert csv_text == "\n".join(map(",".join, texts)) + "\n"
    bits = ["".join("1" if spec.entry(n, m) != 0 else "0" for m in range(size)) for n in range(size)]
    assert matrix_to_pbm(matrix) == "\n".join(["P1", f"{size} {size}", *bits]) + "\n"
    assert matrix_from_json(json_text) == matrix

    # a nonzero generalized Pascal matrix is the Hadamard product of the masks its coordinates weigh
    if identity_check(matrix).passed and all(row[1] for row in rows[1:]):
        coordinates = phi_coordinates(matrix, size - 1)
        assert coordinates.recompose(size) == matrix
        if kind in ("fractal", "phiq"):  # the paper's coordinates: phi at q (phiq) or at every q**k (fractal)
            marked = {spec.q**k for k in range(1, size)} if kind == "fractal" else {spec.q}
            assert coordinates.betas == {j: spec.phi if j in marked else 1 for j in range(2, size)}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_negative_size_is_the_empty_matrix(kind, data):
    spec = data.draw(SPECS[kind], label="spec")
    empty = spec.materialize(0)
    assert empty.size == 0 and spec.materialize(-1) == empty


def test_hadamard_spec_streams():
    factors = [GPSpec.fractal(Fraction(p), p) for p in (2, 3, 5, 7)]
    spec = GPSpec.hadamard(factors)
    assert spec.materialize(11) == materialize_hadamard(spec, 11)


def test_unknown_kind():
    with pytest.raises(ValueError):
        GPSpec("bogus").entry(1, 0)
    with pytest.raises(ValueError):
        GPSpec("bogus").materialize(2)


@pytest.mark.parametrize("kind", ["phiq", "fractal"])
@pytest.mark.parametrize("n, m", [(3, 1), (3, 5)])
def test_spec_without_phi_raises(kind, n, m):
    # refused when made, so an entry on either side of the triangle never runs
    with pytest.raises(ValueError, match=f"spec kind '{kind}' requires phi"):
        GPSpec(kind, q=3).entry(n, m)


@pytest.mark.parametrize("n, m", [(3, 1), (3, 5)])
def test_spec_without_c_raises(n, m):
    # the from-c row requires c, so neither entry nor materialize subscripts a missing sequence
    with pytest.raises(ValueError, match="spec kind 'from-c' requires c"):
        GPSpec("from-c").entry(n, m)
    with pytest.raises(ValueError, match="spec kind 'from-c' requires c"):
        GPSpec("from-c").materialize(4)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([-1, 0, 1]), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    st.integers(0, 16),
)
@example(Fraction(-3, 2), 16)
@example(2, 16)
def test_qumbral_entry_forms_match_the_builders(q, size):
    # the closed forms (Gaussian binomial, q-binomial theorem) against the series builders,
    # and the qumbral form against the series division it replaced
    for kind in ("qumbral", "qumbral-inverse"):
        spec = GPSpec(kind, q=q)
        built = spec.materialize(size)
        for n in range(size):
            for m in range(n + 1):
                value = spec.entry(n, m)
                assert type(value) is Fraction
                assert value == built.entry(n, m)
                if kind == "qumbral":
                    assert value == qumbral_entry(spec, n, m)


def test_weights_and_umbral_qs_are_stored_as_fractions():
    # before, the spec kept phi as passed: entry gave the int 2 or the str '2', and a
    # Hadamard factor's str weight raised AttributeError on .numerator
    for phi in (2, "2", Fraction(2), True + 1):
        spec = GPSpec("phiq", phi=phi, q=3)
        assert type(spec.phi) is Fraction and type(spec.entry(4, 2)) is Fraction
        assert spec.entry(4, 2) == 2
    assert GPSpec("phiq", phi="-3/2", q=2).entry(1, 0) == 1
    assert GPSpec("phiq", phi="-3/2", q=2).entry(2, 1) == Fraction(-3, 2)
    fractal = GPSpec("fractal", phi="2", q=2)
    assert GPSpec.hadamard([fractal]).entry(3, 1) == fractal.entry(3, 1) == 1
    assert GPSpec.hadamard([fractal]).entry(4, 1) == fractal.entry(4, 1) == 4
    assert GPSpec.hadamard([fractal]).materialize(6) == GPSpec.fractal(2, 2).materialize(6)
    for kind in ("qumbral", "qumbral-inverse"):
        spec = GPSpec(kind, q="1/2")
        assert type(spec.q) is Fraction and spec.materialize(5) == GPSpec(kind, q=Fraction(1, 2)).materialize(5)
    assert type(GPSpec.qumbral(2).q) is Fraction
    # a digit base stays an int, and a spec with no weight has none
    assert type(GPSpec.fractal(2, 3).q) is int and type(GPSpec.tmatrix(3).q) is int
    assert GPSpec("pascal").phi is None and GPSpec("pascal").q is None
