"""Polynomial ring, Groebner, and Sturm tests.

Groebner results are cross-checked against sympy's implementation, which
is independent of ours; Sturm counts against sympy's exact root counting.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liesplit.polynomials import (
    GREVLEX,
    LEX,
    MultiPoly,
    buchberger_basis,
    is_groebner_basis,
    normal_form,
    s_polynomial,
    sturm_real_roots,
)

V3 = ("x", "y", "z")


def mk(name):
    return MultiPoly.variable(name, V3)


x, y, z = mk("x"), mk("y"), mk("z")


def to_sympy(p: MultiPoly, symbols):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            term *= s ** k
        expr += term
    return expr


def from_sympy(expr, symbols, variables) -> MultiPoly:
    poly = sympy.Poly(expr, *symbols)
    terms = {}
    for monom, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(monom)] = Fraction(int(q.p), int(q.q))
    return MultiPoly(variables, terms)


# ----------------------------------------------------------- ring basics


def test_constructor_drops_zeros_and_validates_arity():
    p = MultiPoly(V3, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert p.terms == {(0, 1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        MultiPoly(V3, {(1, 0): Fraction(1)})
    with pytest.raises(TypeError):
        MultiPoly(V3, {(1, 0, 0): 0.5})


def test_constructor_rejects_non_integer_exponents():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(2.5,): 1})


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})


def test_constructor_rejects_repeated_variable_names():
    with pytest.raises(ValueError):
        MultiPoly(("x", "x"), {(1, 0): 1})


def test_equal_polynomials_share_one_stored_form():
    half = MultiPoly(V3, {(1, 0, 0): Fraction(2, 4), (0, 0, 0): Fraction(3, 6)})
    built = (x + 1) * Fraction(3, 2) * Fraction(1, 3)
    assert half == built and hash(half) == hash(built)
    assert built.numerators() == ({(1, 0, 0): 1, (0, 0, 0): 1}, 2)


def test_arithmetic_small_identities():
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (x - x) == MultiPoly(V3)
    assert not (x - x)
    assert Fraction(1, 2) * (x + x) == x
    assert 2 - x == -(x - 2)


def test_pow_zero_is_unit():
    p = x * y - z
    assert p ** 0 == MultiPoly.constant(1, V3)
    assert MultiPoly(V3) ** 0 == MultiPoly.constant(1, V3)


def test_mixed_variable_tuples_rejected():
    other = MultiPoly.variable("x", ("x", "y"))
    with pytest.raises(ValueError):
        _ = x + other


def test_degrees_and_used_variables():
    p = x ** 2 * y + z
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.used_variables() == ("x", "y", "z")
    assert (y * y).used_variables() == ("y",)


def test_evaluate_and_substitute():
    p = x ** 2 + 2 * y
    assert p.evaluate({"x": Fraction(3), "y": Fraction(1, 2)}) == Fraction(10)
    assert p.evaluate({"x": 0.5, "y": 0.25}) == pytest.approx(0.75)
    q = p.substitute({"x": y + 1})
    assert q == y ** 2 + 4 * y + 1
    with pytest.raises(KeyError):
        p.evaluate({"x": Fraction(1)})


def test_restrict_changes_variable_tuple():
    p = y ** 2 + 2 * y
    q = p.restrict(("y", "w"))
    assert q.variables == ("y", "w")
    assert q.terms == {(2, 0): Fraction(1), (1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        (x + y).restrict(("y",))


def test_univariate_coefficients():
    p = y ** 3 - 2 * y + 5
    name, coeffs = p.univariate_coefficients()
    assert name == "y"
    assert coeffs == [Fraction(5), Fraction(-2), Fraction(0), Fraction(1)]
    assert MultiPoly.constant(7, V3).univariate_coefficients() == ("", [Fraction(7)])
    with pytest.raises(ValueError):
        (x + y).univariate_coefficients()


def test_coefficient_magnitudes():
    p = 3 * x - Fraction(1, 2) * y
    assert sorted(p.coefficient_magnitudes()) == [Fraction(1, 2), Fraction(3)]


# ------------------------------------------------------- monomial orders


def test_grevlex_textbook_sequence():
    # x^2 > xy > y^2 > xz > yz > z^2 for x > y > z
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=GREVLEX.key, reverse=True) == monos


def test_lex_vs_grevlex_leading_terms():
    p = x + y ** 2
    assert p.leading(LEX)[0] == (1, 0, 0)
    assert p.leading(GREVLEX)[0] == (0, 2, 0)


# -------------------------------------------------- division and Groebner


def test_normal_form_examples():
    basis = [x * x + y, x * y + z]
    r = normal_form(x ** 3, basis)
    # x^3 = x*(x^2+y) - (xy+z) + ... remainder should be z - xy reduced fully
    assert not any(e[0] >= 2 or (e[0] >= 1 and e[1] >= 1) for e in r.terms)
    # division identity spot check at a point where subtraction is exact
    pt = {"x": Fraction(2), "y": Fraction(-3), "z": Fraction(5)}
    lhs = MultiPoly.constant(8, V3).evaluate(pt)
    assert (x ** 3).evaluate(pt) == lhs


def test_normal_form_is_zero_iff_in_ideal():
    gb = buchberger_basis([x * x + y, x * y + z])
    member = (x * x + y) * (y - 3) + (x * y + z) * x ** 2
    assert not normal_form(member, gb)
    assert normal_form(member + 1, gb) == MultiPoly.constant(1, V3)


def test_s_polynomial_cancels_leads():
    f, g = x * x + y, x * y + z
    s = s_polynomial(f, g)
    # leading terms x^2*y cancel; what is left has smaller grevlex lead
    assert GREVLEX.key(s.leading()[0]) < GREVLEX.key((2, 1, 0))


def test_buchberger_textbook_example():
    gb = buchberger_basis([x * x + y, x * y + z])
    rendered = sorted(str(g) for g in gb)
    assert rendered == ["x*y + z", "x^2 + y", "y^2 - x*z"]
    assert is_groebner_basis(gb)


def test_buchberger_matches_sympy_grevlex():
    sx, sy, sz = sympy.symbols("x y z")
    cases = [
        [x * x + y, x * y + z],
        [x ** 2 + y ** 2 + z ** 2 - 1, x * y - z, y * z - x],
        [x ** 3 - 2 * x * y, x ** 2 * y - 2 * y ** 2 + x],
        [x + y + z - 1, x * y + y * z + z * x, x * y * z - 2],
    ]
    for polys in cases:
        ours = buchberger_basis(polys, GREVLEX)
        theirs = sympy.groebner([to_sympy(p, (sx, sy, sz)) for p in polys],
                                sx, sy, sz, order="grevlex")
        converted = sorted(
            (from_sympy(e, (sx, sy, sz), V3).monic() for e in theirs.exprs),
            key=lambda g: GREVLEX.key(g.leading()[0]), reverse=True)
        assert ours == converted


def test_buchberger_matches_sympy_lex_elimination():
    sx, sy, sz = sympy.symbols("x y z")
    polys = [x ** 2 + y ** 2 + z ** 2 - 4, x ** 2 + 2 * y ** 2 - 5, x * z - 1]
    ours = buchberger_basis(polys, LEX)
    theirs = sympy.groebner([to_sympy(p, (sx, sy, sz)) for p in polys],
                            sx, sy, sz, order="lex")
    converted = sorted(
        (from_sympy(e, (sx, sy, sz), V3).monic(LEX) for e in theirs.exprs),
        key=lambda g: LEX.key(g.leading(LEX)[0]), reverse=True)
    assert ours == converted
    # the last element eliminates x and y
    assert ours[-1].used_variables() == ("z",)


def test_groebner_of_unit_ideal():
    gb = buchberger_basis([x, x + 1])
    assert gb == [MultiPoly.constant(1, V3)]


# ------------------------------------------------------------ hypothesis

# numerators up to 1e9 over denominators up to 1e6 exercise the
# common-denominator bookkeeping
coeff_st = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
expo_st = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
poly_st = st.dictionaries(expo_st, coeff_st, max_size=4).map(
    lambda d: MultiPoly(V3, d))
point_st = st.fixed_dictionaries({
    "x": coeff_st, "y": coeff_st, "z": coeff_st})


@given(poly_st, poly_st, point_st)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_ring_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert hash(p * q) == hash(q * p)


@given(poly_st, poly_st)
@settings(max_examples=40, deadline=None)
def test_results_are_stored_normalised(p, q):
    for r in (p + q, p - q, p * q, -p, p * Fraction(-3, 7), p.monic()):
        num, den = r.numerators()
        assert den > 0 and math.gcd(den, *num.values()) == 1
        again = MultiPoly(V3, r.terms)
        assert r == again and hash(r) == hash(again)


@given(poly_st, st.lists(poly_st, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_normal_form_remainder_irreducible(p, basis):
    basis = [g for g in basis if g]
    if not basis:
        return
    r = normal_form(p, basis)
    leads = [g.leading()[0] for g in basis]
    for e in r.terms:
        assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)


@given(st.lists(poly_st, min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_buchberger_output_is_groebner_and_contains_ideal(polys):
    polys = [p for p in polys if p]
    if not polys:
        return
    gb = buchberger_basis(polys)
    assert is_groebner_basis(gb)
    for p in polys:
        assert not normal_form(p, gb)


# ------------------------------------------------------------------ Sturm


def test_sturm_known_counts():
    assert sturm_real_roots([1, 0, 1]) == 0          # x^2 + 1
    assert sturm_real_roots([-2, 0, 1]) == 2         # x^2 - 2
    assert sturm_real_roots([2, -3, 0, 1]) == 2      # (x-1)^2 (x+2), distinct
    assert sturm_real_roots([0, 0, 1]) == 1          # x^2, root 0 once
    assert sturm_real_roots([Fraction(1), Fraction(-6), Fraction(12)]) == 0
    assert sturm_real_roots([5]) == 0
    assert sturm_real_roots([0, 1]) == 1


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
@settings(max_examples=80, deadline=None)
def test_sturm_matches_sympy(coeffs):
    if not any(coeffs):
        return
    t = sympy.symbols("t")
    expr = sum(c * t ** k for k, c in enumerate(coeffs))
    expected = sympy.Poly(expr, t).count_roots() if sympy.Poly(expr, t).degree() > 0 else 0
    assert sturm_real_roots([Fraction(c) for c in coeffs]) == expected


root_st = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@given(st.lists(st.tuples(root_st, st.integers(1, 2)), max_size=4),
       st.lists(st.tuples(root_st, root_st.filter(lambda b: b > 0)), max_size=2),
       st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
@settings(max_examples=80, deadline=None)
def test_sturm_counts_distinct_roots_of_factored_polynomials(linear, quadratic, lead):
    """Rational roots, some repeated, times irreducible quadratics
    (t - a)^2 + b, under any leading coefficient: degree at most 12."""
    t = sympy.symbols("t")
    expr = sympy.Rational(lead.numerator, lead.denominator)
    for r, k in linear:
        expr *= (t - sympy.Rational(r.numerator, r.denominator)) ** k
    for a, b in quadratic:
        expr *= ((t - sympy.Rational(a.numerator, a.denominator)) ** 2
                 + sympy.Rational(b.numerator, b.denominator))
    poly = sympy.Poly(expr, t)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    expected = poly.count_roots() if poly.degree() > 0 else 0
    assert expected == len({r for r, _ in linear})
    assert sturm_real_roots(coeffs) == expected
