"""Exact arithmetic in the truncated free algebra, checked against the
naive oracle in _naive.py and a handful of pinned expansions."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liesplit import NCSeries, exp, log, make_alphabet, mul, series_from_generator
from liesplit._dense import dense_product_log
from liesplit.free_algebra import degree_words, rmul_exp
from liesplit.polynomials import MultiPoly

from _naive import n_exp, n_log, n_mul

AB = make_alphabet("AB")
A, B = AB


def from_words(words, D=4, alphabet=AB):
    return NCSeries.from_words(alphabet, D, words)


def as_dict(s):
    return {w: c for w, c in s.items()}


# ---------------------------------------------------------------- basics


def test_series_from_generator_single_term():
    s = series_from_generator(A, Fraction(1), 4, AB)
    assert as_dict(s) == {(0,): Fraction(1)}
    s = series_from_generator(B, Fraction(1, 2), 4, AB)
    assert as_dict(s) == {(1,): Fraction(1, 2)}


def test_series_from_generator_degree_guard():
    (z3,) = make_alphabet(["Z3"], [3])
    with pytest.raises(ValueError):
        series_from_generator(z3, Fraction(1), 2)
    # degree exactly D is fine
    s = series_from_generator(z3, Fraction(1), 3)
    assert as_dict(s) == {(0,): Fraction(1)}


def test_mul_single_words():
    a = from_words({(0,): Fraction(1)})
    b = from_words({(1,): Fraction(1)})
    assert as_dict(mul(a, b)) == {(0, 1): Fraction(1)}


def test_mul_binomial_noncommuting():
    s = from_words({(0,): Fraction(1), (1,): Fraction(1)})
    sq = mul(s, s)
    assert as_dict(sq) == {
        (0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1),
    }


def test_mul_truncates_overflow():
    a = NCSeries.from_words(AB, 1, {(0,): Fraction(1)})
    b = NCSeries.from_words(AB, 1, {(1,): Fraction(1)})
    assert not mul(a, b)


def test_mul_alphabet_mismatch_rejected():
    other = make_alphabet("AB")  # equal alphabet is fine
    mul(from_words({(0,): Fraction(1)}), from_words({(1,): Fraction(1)}, alphabet=other))
    abc = make_alphabet("ABC")
    with pytest.raises(ValueError):
        mul(from_words({(0,): Fraction(1)}),
            NCSeries.from_words(abc, 4, {(1,): Fraction(1)}))
    with pytest.raises(ValueError):
        mul(from_words({(0,): Fraction(1)}), from_words({(1,): Fraction(1)}, D=5))


def test_graded_word_degrees():
    gl = make_alphabet(["Z1", "Z3"], [1, 3])
    s = NCSeries.from_words(gl, 4, {(0, 1): Fraction(2)})  # degree 1+3
    assert s.degrees() == (4,)
    with pytest.raises(ValueError):
        NCSeries.from_words(gl, 3, {(0, 1): Fraction(1)})


@pytest.mark.parametrize("word", [(-1,), (2,), (0, 5)])
def test_words_with_letters_outside_the_alphabet_are_rejected(word):
    with pytest.raises(ValueError, match=re.escape(str(word))):
        from_words({word: Fraction(1)})
    with pytest.raises(ValueError, match=re.escape(str(word))):
        from_words({(0,): Fraction(1), (0, 1): Fraction(2)}).coeff(word)


def test_exp_zero_and_log_one():
    zero = NCSeries.zero(AB, 3)
    assert as_dict(exp(zero)) == {(): Fraction(1)}
    assert not log(exp(zero))


def test_exp_single_generator_matches_scalar_series():
    s = exp(series_from_generator(A, Fraction(1), 3, AB))
    assert as_dict(s) == {
        (): Fraction(1), (0,): Fraction(1), (0, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 6),
    }


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp(NCSeries.one(AB, 3))


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        log(NCSeries.zero(AB, 3))


# ------------------------------------------------- pinned BCH expansions


def bch_series(D):
    ea = exp(series_from_generator(A, Fraction(1), D, AB))
    eb = exp(series_from_generator(B, Fraction(1), D, AB))
    return log(mul(ea, eb))


def test_bch_degree_two_word_coefficients():
    z = bch_series(2)
    assert as_dict(z) == {
        (0,): Fraction(1), (1,): Fraction(1),
        (0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2),
    }


def test_bch_degree_three_word_coefficients():
    # degree-3 part must equal 1/12 [A,[A,B]] - 1/12 [B,[A,B]] as words
    z = bch_series(3)
    assert z.coeff((0, 0, 1)) == Fraction(1, 12)
    assert z.coeff((0, 1, 0)) == Fraction(-1, 6)
    assert z.coeff((1, 0, 0)) == Fraction(1, 12)
    assert z.coeff((1, 1, 0)) == Fraction(1, 12)
    assert z.coeff((1, 0, 1)) == Fraction(-1, 6)
    assert z.coeff((0, 1, 1)) == Fraction(1, 12)


# ------------------------------------------------ oracle-based checks


def sparse_cases():
    # a few fixed sparse rational series over two letters, degree <= 6
    yield {(0,): Fraction(1), (1,): Fraction(-2, 3)}
    yield {(0,): Fraction(1, 2), (0, 1): Fraction(3), (1, 1, 0): Fraction(-1, 5)}
    yield {(1,): Fraction(7, 4), (0, 0): Fraction(-1), (0, 1, 0, 1): Fraction(2, 9)}


@pytest.mark.parametrize("words", list(sparse_cases()))
def test_exp_matches_naive_oracle(words):
    D = 6
    s = NCSeries.from_words(AB, D, words)
    got = as_dict(exp(s))
    want = n_exp(words, (1, 1), D)
    assert got == want


@pytest.mark.parametrize("words", list(sparse_cases()))
def test_log_exp_roundtrip_exact(words):
    D = 6
    s = NCSeries.from_words(AB, D, words)
    assert log(exp(s)) == s
    e = exp(s)
    assert exp(log(e)) == e


def test_mul_matches_naive_oracle():
    D = 5
    a = {(0,): Fraction(2, 3), (1, 0): Fraction(-1), (0, 1, 1): Fraction(5)}
    b = {(1,): Fraction(1, 7), (0, 0): Fraction(4), (1, 1): Fraction(-2, 5)}
    sa, sb = NCSeries.from_words(AB, D, a), NCSeries.from_words(AB, D, b)
    assert as_dict(mul(sa, sb)) == n_mul(a, b, (1, 1), D)


def test_log_matches_naive_oracle():
    D = 5
    ea = exp(series_from_generator(A, Fraction(1, 3), D, AB))
    eb = exp(series_from_generator(B, Fraction(-2), D, AB))
    prod = mul(ea, eb)
    assert as_dict(log(prod)) == n_log(as_dict(prod), (1, 1), D)


_XY = ("x", "y")
_x, _y = (MultiPoly.variable(v, _XY) for v in _XY)
# Graded alphabets as the SL and SE condition pipelines use them, with
# fixed sparse series a and b: rational, and one case with polynomials.
GRADED_CASES = [
    pytest.param(make_alphabet(["Z1", "Z3"], [1, 3]), 7,
                 {(0,): Fraction(1, 2), (1,): Fraction(-2, 3)},
                 {(0,): Fraction(3), (0, 1): Fraction(1, 5), (1, 0, 0): Fraction(-1)},
                 id="Z1Z3-D7"),
    pytest.param(make_alphabet("XYZ", [1, 2, 3]), 6,
                 {(0,): Fraction(1), (1,): Fraction(-1, 4), (2,): Fraction(2, 7)},
                 {(0, 1): Fraction(2), (2,): Fraction(-1, 3), (1, 0, 0): Fraction(5, 2)},
                 id="XYZ-D6"),
    pytest.param(make_alphabet("XYZ", [1, 2, 3]), 6,
                 {(0,): _x, (1,): _x * _y + Fraction(1, 2), (2,): -_y},
                 {(0, 0): _y, (1,): Fraction(1, 3) * _x, (2, 0): Fraction(-2)},
                 id="XYZ-D6-poly"),
]


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_graded_mul_matches_naive_oracle(alphabet, D, a, b):
    degrees = [g.degree for g in alphabet]
    sa, sb = (NCSeries.from_words(alphabet, D, w) for w in (a, b))
    assert as_dict(mul(sa, sb)) == n_mul(a, b, degrees, D)
    assert as_dict(mul(sb, sa)) == n_mul(b, a, degrees, D)


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_graded_exp_and_log_match_naive_oracle(alphabet, D, a, b):
    degrees = [g.degree for g in alphabet]
    sa, sb = (NCSeries.from_words(alphabet, D, w) for w in (a, b))
    assert as_dict(exp(sa)) == n_exp(a, degrees, D)
    assert as_dict(exp(sb)) == n_exp(b, degrees, D)
    prod = mul(exp(sa), exp(sb))
    assert as_dict(log(prod)) == n_log(as_dict(prod), degrees, D)


def _in_place_product(alphabet, D, exponents, unit):
    """prod exp(sum c_g * G_g) over ``exponents``, each a list of (g, c_g)
    pairs, built in place by ``rmul_exp``."""
    degrees = tuple(g.degree for g in alphabet)
    dtype = float if isinstance(unit, float) else object
    data = {d: np.zeros(len(degree_words(degrees, d)), dtype=dtype) for d in range(D + 1)}
    data[0][0] = unit
    for exponent in exponents:
        rmul_exp(data, degrees, exponent)
    return NCSeries(alphabet, D, data)


def _letters(words):
    """The one-letter words of a series as an exponent of (g, c_g) pairs."""
    return [(w[0], c) for w, c in words.items() if len(w) == 1]


def _exponents(a, b):
    """Three exponents from GRADED_CASES' a and b: a's letters, b's, and
    a's again times -2."""
    return [_letters(a), _letters(b), [(g, -2 * c) for g, c in _letters(a)]]


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_multi_generator_rmul_exp_matches_naive_oracle(alphabet, D, a, b):
    degrees = [g.degree for g in alphabet]
    exponents = _exponents(a, b)
    expected = {(): Fraction(1)}
    for exponent in exponents:
        expected = n_mul(expected, n_exp({(g,): c for g, c in exponent}, degrees, D),
                         degrees, D)
    unit = next((c ** 0 for c in a.values() if isinstance(c, MultiPoly)), Fraction(1))
    assert as_dict(_in_place_product(alphabet, D, exponents, unit)) == expected


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_graded_dense_product_log_matches_generic_ops(alphabet, D, a, b):
    # the reference: each factor's exponential and their product by the
    # generic series operations
    exponents = _exponents(a, b)
    factors = [exp(NCSeries.from_words(alphabet, D, {(g,): c for g, c in exponent}))
               for exponent in exponents]
    want = log(mul(mul(factors[0], factors[1]), factors[2]))
    assert dense_product_log(alphabet, D, exponents) == want


def _random_factors(n, count, coefficient, seed):
    """Every letter once and ``count`` random letters more, shuffled, with
    random coefficients; then a zero coefficient and a repeated letter."""
    rng = random.Random(seed)
    letters = list(range(n)) + [rng.randrange(n) for _ in range(count)]
    rng.shuffle(letters)
    factors = [(g, coefficient(rng)) for g in letters]
    g = rng.randrange(n)
    return factors + [(g, coefficient(rng) * 0), (g, coefficient(rng)), (g, coefficient(rng))]


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _poly(rng):
    return _fraction(rng) * _x + _fraction(rng) * _y + _fraction(rng)


@pytest.mark.parametrize("n,D", [(2, 6), (3, 4)])
@pytest.mark.parametrize("coefficient,unit", [(_fraction, Fraction(1)),
                                              (_poly, MultiPoly.constant(1, _XY))],
                         ids=["fraction", "poly"])
def test_object_rmul_exp_matches_naive_oracle(n, D, coefficient, unit):
    alphabet = make_alphabet("ABC"[:n])
    degrees = (1,) * n
    factors = _random_factors(n, 5, coefficient, seed=10 * n + D)
    expected = {(): Fraction(1)}
    for g, c in factors:
        expected = n_mul(expected, n_exp({(g,): c}, degrees, D), degrees, D)
    assert as_dict(_in_place_product(alphabet, D, [((g, c),) for g, c in factors], unit)) == expected


@pytest.mark.parametrize("n,D", [(2, 6), (3, 4)])
def test_float_rmul_exp_agrees_with_exact(n, D):
    alphabet = make_alphabet("ABC"[:n])
    factors = _random_factors(n, 5, _fraction, seed=n + D)
    exact = _in_place_product(alphabet, D, [((g, c),) for g, c in factors], Fraction(1))
    approx = _in_place_product(alphabet, D, [((g, float(c)),) for g, c in factors], 1.0)
    want = [exact.array(d).astype(float) for d in range(D + 1)]
    scale = max(np.abs(w).max() for w in want)
    for d, w in enumerate(want):
        assert approx.array(d).dtype == float
        assert np.abs(approx.array(d) - w).max() <= 1e-14 * scale


# ------------------------------------------------ property-based checks

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def word_strategy(n_letters=2, max_len=3):
    return st.lists(st.integers(0, n_letters - 1), min_size=1, max_size=max_len).map(tuple)


def series_strategy(D=4, n_letters=2, zero_constant=False):
    alph = make_alphabet("ABC"[:n_letters])
    words = st.dictionaries(word_strategy(n_letters, min(3, D)), rationals, max_size=4)
    return words.map(lambda w: NCSeries.from_words(alph, D, {k: v for k, v in w.items() if len(k) <= D}))


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_associative_and_distributive(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


@settings(max_examples=40, deadline=None)
@given(series_strategy(D=5))
def test_roundtrip_and_grading_properties(s):
    assert log(exp(s)) == s
    # grading: stored degrees never exceed D, match letter-degree sums
    for w, c in exp(s).items():
        assert isinstance(c, Fraction)
        assert len(w) <= 5
    # no zero coefficients stored
    assert all(c for _, c in s.items())


@settings(max_examples=30, deadline=None)
@given(series_strategy(D=4, n_letters=3))
def test_no_commutativity_assumed(s):
    a = series_from_generator(make_alphabet("ABC")[0], Fraction(1), 4, make_alphabet("ABC"))
    left, right = mul(a, s), mul(s, a)
    # equality only when s is "constant-like"; just confirm both are valid and graded
    for w, _ in left.items():
        assert len(w) <= 4
    for w, _ in right.items():
        assert len(w) <= 4


def test_float_backend_basic():
    s = NCSeries.from_words(AB, 4, {(0,): 0.5, (1,): -0.25})
    e = exp(s)
    assert e.constant_term() == 1.0
    assert abs(e.coeff((0, 1)) - (0.5 * -0.25) / 2) < 1e-15  # word AB enters via x^2/2!
    r = log(e)
    assert abs(r.coeff((0,)) - 0.5) < 1e-14
    assert abs(r.coeff((1,)) + 0.25) < 1e-14
    assert all(isinstance(c, float) for _, c in e.items())
