"""Polynomial ring, Groebner, and Sturm tests.

Groebner results are cross-checked against sympy's implementation, which
is independent of ours; Sturm counts against sympy's exact root counting.
"""

import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from _naive import is_groebner_basis, n_add, n_scale, p_mul
from liesplit.polynomials import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    MultiPoly,
    buchberger_basis,
    dot,
    is_square_free,
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


def test_operators_refuse_floats_and_multiply_by_zero():
    """A float is no rational operand: ``+``, ``-`` and ``*`` return
    ``NotImplemented``, so Python raises ``TypeError``.  A product with
    zero is the zero polynomial, over denominator 1."""
    p = x * y - z
    for op in (p.__add__, p.__sub__, p.__rsub__, p.__mul__):
        assert op(1.5) is NotImplemented
    for op in (lambda: p + 1.5, lambda: 1.5 - p, lambda: p - 1.5, lambda: p * 0.5,
               lambda: 2.0 * p):
        with pytest.raises(TypeError):
            op()
    for zero in (p * 0, 0 * p, p * Fraction(0), p * MultiPoly(V3), MultiPoly(V3) * p):
        assert isinstance(zero, MultiPoly) and not zero and zero == 0
        assert zero.numerators() == ({}, 1)


def test_mixed_variable_tuples_rejected():
    other = MultiPoly.variable("x", ("x", "y"))
    for op in (lambda: x + other, lambda: x - other, lambda: other - x, lambda: x * other):
        with pytest.raises(ValueError, match="different variable tuples"):
            op()
    # x^2 mod (x + 1) would be 1 over one tuple
    for bad in (lambda: normal_form(x * x, [other + 1]), lambda: normal_form(other, [x]),
                lambda: buchberger_basis([x * x, other + 1])):
        with pytest.raises(ValueError, match="different variable tuples"):
            bad()


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


def test_division_record_is_not_pickled():
    g = x * x + y
    normal_form(x ** 3, [g])
    assert pickle.loads(pickle.dumps(g)) == g


def test_coefficient_magnitudes():
    p = 3 * x - Fraction(1, 2) * y
    assert sorted(p.coefficient_magnitudes()) == [Fraction(1, 2), Fraction(3)]


# ------------------------------------------------------- monomial orders


def test_grevlex_textbook_sequence():
    # x^2 > xy > y^2 > xz > yz > z^2 for x > y > z
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(monos, key=GREVLEX.key, reverse=True) == monos


# ------------------------------------------------------ packed monomials
# B = 16 bits per variable, the top one a guard bit: 2**(B-1) - 1 is the
# largest exponent


def test_field_limit_is_fifteen_bits():
    assert MAX_EXPONENT == 2 ** 15 - 1


def test_constructor_rejects_exponent_past_the_field():
    assert MultiPoly(V3, {(MAX_EXPONENT, 0, 1): 1}).degree_in("x") == MAX_EXPONENT
    for e in [(MAX_EXPONENT + 1, 0, 0), (0, 0, MAX_EXPONENT + 1), (0, 2 ** 40, 0)]:
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            MultiPoly(V3, {e: 1})


def test_product_at_the_top_of_the_field_raises_and_never_carries():
    top = x ** MAX_EXPONENT
    assert (x ** (MAX_EXPONENT - 1) * x) == top
    assert (top * y).terms == {(MAX_EXPONENT, 1, 0): Fraction(1)}
    # a carry out of y's field would read as x * y^0
    for bad in (lambda: top * x, lambda: x * top, lambda: (y ** MAX_EXPONENT) * (y + z),
                lambda: x ** (MAX_EXPONENT + 1), lambda: (top + 1) ** 2,
                lambda: (z ** MAX_EXPONENT + x) * (z * y + 1)):
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            bad()


def test_s_polynomial_and_reduction_shift_raise_past_the_field():
    top = y ** MAX_EXPONENT
    # lcm(x, x*y) / x = y multiplies x + y^MAX
    with pytest.raises(ValueError, match="MAX_EXPONENT"):
        s_polynomial(x + top, x * y - 1, LEX)
    # x * y^MAX reduces by x + y (grevlex lead x): the shift y^MAX lifts
    # the tail y to y^(MAX+1)
    with pytest.raises(ValueError, match="MAX_EXPONENT"):
        normal_form(x * top, [x + y])
    with pytest.raises(ValueError, match="MAX_EXPONENT"):
        buchberger_basis([x + top, x * y - 1], LEX)
    # one below the limit reduces
    assert normal_form(x * y ** (MAX_EXPONENT - 1), [x + y]) == -top


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


# exponents anywhere in the field, its top included
field_st = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT),
                     st.integers(0, MAX_EXPONENT))
term_map_st = st.dictionaries(st.tuples(field_st, field_st, field_st), coeff_st, max_size=4)


@given(term_map_st, term_map_st)
@settings(max_examples=80, deadline=None)
def test_packed_arithmetic_matches_tuple_oracle(a, b):
    p, q = MultiPoly(V3, a), MultiPoly(V3, b)
    a, b = dict(p.terms), dict(q.terms)
    assert p.terms == a and q.terms == b
    assert (p + q).terms == n_add(a, b)
    assert (p - q).terms == n_add(a, n_scale(b, Fraction(-1)))
    product = p_mul(a, b)
    if any(k > MAX_EXPONENT for e in product for k in e):
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            p * q
    else:
        assert (p * q).terms == product


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(*[field_st] * n), min_size=2, max_size=8)))
@settings(max_examples=60, deadline=None)
def test_packed_keys_order_like_tuple_keys(exps):
    names = tuple("abcdef"[:len(exps[0])])
    packed = [next(iter(MultiPoly(names, {e: 1})._num)) for e in exps]
    for order in (GREVLEX, LEX):
        key = order.packed(len(names))
        for (e, m), (f, k) in combinations(zip(exps, packed), 2):
            assert (order.key(e) < order.key(f)) == (key(m) < key(k))
            assert (e == f) == (key(m) == key(k))


@given(poly_st, st.lists(poly_st, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_normal_form_matches_sympy_reduced(p, basis):
    # small exponents: division takes a step per unit of exponent it removes
    basis = [g for g in basis if g]
    if not basis:
        return
    syms = sympy.symbols("x y z")
    _, rem = sympy.reduced(to_sympy(p, syms), [to_sympy(g, syms) for g in basis],
                           *syms, order="grevlex")
    assert normal_form(p, basis) == from_sympy(rem, syms, V3)


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
    assert is_square_free(coeffs) == (sympy.degree(sympy.gcd(poly, poly.diff(t)), t) <= 0)


# ------------------------------------------------------------ dot


def _terms(v) -> dict:
    """A ``dot`` operand as an ``{exponent-tuple: Fraction}`` dict, a
    rational as its constant term."""
    if isinstance(v, MultiPoly):
        return dict(v.terms)
    return {(0,) * len(V3): Fraction(v)} if v else {}


def _summed(start, lefts, rights) -> dict:
    """``start`` plus each product in turn on term dicts (``n_add``, with
    ``n_scale`` by a rational and ``p_mul`` of two polynomials), apart
    from the library's arithmetic: what ``dot`` fuses, its terms in the
    order the sum inserts them."""
    total = _terms(start)
    for a, b in zip(lefts, rights):
        if not isinstance(a, MultiPoly):
            product = n_scale(_terms(b), Fraction(a))
        elif not isinstance(b, MultiPoly):
            product = n_scale(_terms(a), Fraction(b))
        else:
            product = p_mul(_terms(a), _terms(b))
        total = n_add(total, product)
    return total


def _random_operand(rng, rational=0.3):
    """A rational with probability ``rational``, else a polynomial of up to
    four terms with small coefficients, so that products cancel often."""
    if rng.random() < rational:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return MultiPoly(V3, {tuple(rng.randint(0, 2) for _ in V3): Fraction(rng.randint(-2, 2),
                                                                          rng.randint(1, 3))
                          for _ in range(rng.randint(0, 4))})


@pytest.mark.parametrize("rational", [0.0, 0.3], ids=["polys", "mixed"])
def test_dot_matches_the_sum_of_products(rational):
    """``dot`` equals the sum of its products, stored normalised, its
    terms in the order the sum inserts them."""
    rng = random.Random(int(rational * 10))
    for _ in range(300):
        k = rng.randint(0, 6)
        start = _random_operand(rng, rational)
        lefts = [_random_operand(rng, rational) for _ in range(k)]
        rights = [_random_operand(rng, rational) for _ in range(k)]
        got, want = dot(start, lefts, rights), _summed(start, lefts, rights)
        if isinstance(got, MultiPoly):
            num, den = got.numerators()
            assert den > 0 and math.gcd(den, *num.values()) == 1
            assert list(got.terms.items()) == list(want.items())
        else:
            assert _terms(got) == want


def test_dot_of_no_pairs_is_its_start():
    assert dot(0, [], []) == 0
    assert dot(Fraction(3, 2), [], []) == Fraction(3, 2)
    assert dot(x + 1, [], []) == x + 1


def test_dot_adds_to_its_start():
    assert dot(x, [y, Fraction(2)], [z, x]) == 3 * x + y * z
    assert dot(Fraction(1, 2), [x], [x]) == x * x + Fraction(1, 2)


def test_dot_cancelling_to_zero_is_the_zero_polynomial():
    got = dot(x * y, [x, y, -x], [-y, x, y])
    assert isinstance(got, MultiPoly) and not got and got == 0
    assert dot(-x, [x], [1]) == 0


def test_dot_mixes_rationals_and_polynomials():
    assert dot(0, [Fraction(1, 3), x, Fraction(2)], [y, Fraction(3, 4), Fraction(5)]) == \
        Fraction(1, 3) * y + Fraction(3, 4) * x + 10


def test_dot_without_polynomials_uses_the_operands_arithmetic():
    got = dot(0, [Fraction(1, 2), Fraction(2, 3)], [Fraction(3), Fraction(3, 4)])
    assert type(got) is Fraction and got == 2
    assert dot(0.5, [1.5], [2.0]) == 3.5


def test_dot_raises_past_max_exponent():
    top = x ** MAX_EXPONENT
    for lefts, rights in (([top], [x]), ([y, top + 1], [1, x * y])):
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            sum(a * b for a, b in zip(lefts, rights))
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            dot(0, lefts, rights)
    assert dot(0, [x ** (MAX_EXPONENT - 1)], [x]) == top


def test_dot_rejects_mismatched_variable_tuples():
    other = MultiPoly.variable("x", ("x", "y"))
    for args in ((0, [x], [other]), (other, [x], [y]), (0, [Fraction(1), x], [other, y])):
        with pytest.raises(ValueError, match="different variable tuples"):
            dot(*args)
