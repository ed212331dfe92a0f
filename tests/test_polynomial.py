from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperylef import PolyParseError, SparsePoly, monomials_of_degree, parse_polynomial
from inverse_system_oracle import partial
import printer_oracle

VARS = ("y", "z", "w")


def poly(text):
    return parse_polynomial(text, VARS)


def test_canonical_text_examples():
    assert str(poly("y^4*w + y^2*z^3")) == "y^4*w + y^2*z^3"
    f = parse_polynomial("a^2*x + a*b*y + 1/2*b^2*z")
    assert f.vars == ("a", "b", "x", "y", "z")
    assert str(f) == "a^2*x + a*b*y + 1/2*b^2*z"


def test_parse_collects_signs_and_coefficients():
    p = poly("2*y - 3/2*z + z - y")
    assert p == poly("y - 1/2*z")
    assert poly("0") == SparsePoly.zero(VARS)
    assert str(SparsePoly.zero(VARS)) == "0"


def test_parse_rejects_garbage():
    for text in ("", "y +", "y ** z", "y^", "y^1/2", "(y+z)", "3..4", "1/0*y"):
        with pytest.raises(PolyParseError):
            parse_polynomial(text)
    with pytest.raises(PolyParseError):
        parse_polynomial("q^2", VARS)


def test_arithmetic_basics():
    a, b = poly("y + z"), poly("y - z")
    assert a * b == poly("y^2 - z^2")
    assert a * a == poly("y^2 + 2*y*z + z^2")
    assert (a - a) == SparsePoly.zero(VARS)
    assert 2 * a == poly("2*y + 2*z")
    assert a.evaluate({"y": 2, "z": Fraction(1, 2), "w": 0}) == Fraction(5, 2)


def test_degree_and_homogeneity():
    assert poly("y^4*w + y^2*z^3").degree() == 5
    assert poly("y^4*w + y^2*z^3").is_homogeneous()
    assert not poly("y^2 + z").is_homogeneous()
    assert SparsePoly.zero(VARS).degree() == -1


def test_inferred_variables_are_those_of_the_nonzero_terms():
    assert parse_polynomial("x^2*y + 1/2*y^3 + 0*z^3").vars == ("x", "y")
    assert parse_polynomial("a*b - b*a + c").vars == ("c",)
    assert parse_polynomial("x - x") == SparsePoly.zero(())
    # an explicit variable tuple is kept as given
    assert parse_polynomial("0*z^3 + y", VARS).vars == VARS


def test_partial_derivative():
    p = poly("y^2*z")
    assert partial(p, 0) == poly("2*y*z")
    assert partial(p, 1) == poly("y^2")
    assert partial(p, 2) == SparsePoly.zero(VARS)


def test_monomials_of_degree_graded_lex_descending():
    monos = monomials_of_degree(VARS, 2)
    assert monos == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert monomials_of_degree(VARS, 0) == [(0, 0, 0)]
    assert monomials_of_degree((), 0) == [()]


@st.composite
def polys(draw, variables=("u", "v")):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in variables)
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return SparsePoly(variables, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_identities(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a


@given(polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(p):
    text = str(p)
    assert parse_polynomial(text, p.vars) == p


@given(polys(variables=("a", "b", "c")))
@settings(max_examples=60, deadline=None)
def test_inferred_parse_round_trip_is_textual_identity(p):
    # alphabetical variables make parse -> print -> parse the identity on text
    text = str(p)
    again = parse_polynomial(text)
    assert str(again) == text


@given(polys(), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(p, i, j):
    assert partial(partial(p, i), j) == partial(partial(p, j), i)


def assert_clean(r):
    """r holds what the validating constructor would make of its terms."""
    assert r == SparsePoly(r.vars, r.terms)
    for exps, coeff in r.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert len(exps) == len(r.vars)
        assert all(type(x) is int and x >= 0 for x in exps)


@given(polys(), polys(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=80, deadline=None)
def test_arithmetic_builds_clean_terms_and_leaves_its_operands_alone(a, b, c):
    before = (dict(a.terms), dict(b.terms))
    results = [a + b, a - b, -a, a * b, a * c, c * a, a * 0, a + 0, a - c]
    for r in results:
        assert_clean(r)
    assert a * 0 == SparsePoly.zero(a.vars)
    # sharing one zero per map is safe because no operation changes its operands
    assert (dict(a.terms), dict(b.terms)) == before


@pytest.mark.parametrize("value", [0, 1, Fraction(-3, 2)])
def test_builders_make_clean_terms(value):
    for r in (SparsePoly.zero(VARS), SparsePoly.constant(VARS, value), SparsePoly.variable(VARS, "z")):
        assert_clean(r)
    assert bool(SparsePoly.constant(VARS, value)) == bool(value)


def test_the_public_constructor_still_validates():
    with pytest.raises(ValueError, match="arity"):
        SparsePoly(("u", "v"), {(1,): 1})
    with pytest.raises(ValueError, match="negative"):
        SparsePoly(("u", "v"), {(1, -1): 1})
    p = SparsePoly(("u", "v"), {(1, 0): 2, (0, 1): 0, (0, 2): 0.5})
    assert p.terms == {(1, 0): Fraction(2), (0, 2): Fraction(1, 2)}
    assert_clean(p)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_printer_reads_each_coefficient_from_its_two_ints(data):
    # the printer spells a coefficient from its numerator and denominator;
    # it prints what abs, comparison and str of the Fraction printed, and an
    # int coefficient (a _from_clean caller may hand one) as its Fraction
    variables = data.draw(st.sampled_from([(), ("u",), ("u", "v"), VARS]))
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in variables)
        num = data.draw(st.integers(-12, 12).filter(bool))
        den = data.draw(st.sampled_from([1, 1, 2, 3, 7, 10]))
        terms[exps] = num if data.draw(st.booleans()) and den == 1 else Fraction(num, den)
    p = SparsePoly._from_clean(variables, terms)
    assert str(p) == printer_oracle.text(p)
    assert str(p) == str(SparsePoly(variables, terms))
