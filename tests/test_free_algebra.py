"""Exact arithmetic in the truncated free algebra, checked against the
naive oracle in _naive.py and a handful of pinned expansions."""

import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liesplit import NCSeries, exp, free_algebra, log, make_alphabet, mul, series_from_generator
from liesplit._dense import dense_product_log
from liesplit.catalog import catalog
from liesplit.constraints import symbolic_log
from liesplit.free_algebra import (_word_position, concat_index, degree_offsets, degree_words,
                                   rmul_exp, word_count)
from liesplit.polynomials import MultiPoly
from liesplit.schemes import build_scheme

from _naive import (n_concat_index, n_exp, n_flat_rmul_exp, n_float_exp, n_float_log, n_float_mul,
                    n_log, n_mul, n_rmul_exp, n_series_exp, n_series_log, word_index)

AB = make_alphabet("AB")
A, B = AB


def from_words(words, D=4, alphabet=AB):
    return NCSeries.from_words(alphabet, D, words)


def as_dict(s):
    return {w: c for w, c in s.items()}


# Unit alphabets of 2, 3 and 4 letters and two graded ones, each with its
# largest degree
TABLE_CASES = [((1, 1), 9), ((1, 1, 1), 7), ((1, 1, 1, 1), 5), ((1, 3, 5, 7), 9), ((1, 2, 3), 7)]


@pytest.mark.parametrize("degrees,D", TABLE_CASES)
def test_concat_index_matches_word_lookup(degrees, D):
    """The recurrence over word counts gives every concatenation table, word
    count and word position that looking words up in ``word_index`` does."""
    for d in range(D + 1):
        assert word_count(degrees, d) == len(degree_words(degrees, d))
        assert [_word_position(degrees, w) for w in degree_words(degrees, d)] == list(
            word_index(degrees, d).values())
        for d1 in range(d + 1):
            table, want = concat_index(degrees, d1, d - d1), n_concat_index(degrees, d1, d - d1)
            assert table.dtype == want.dtype and table.shape == want.shape, (d1, d - d1)
            assert np.array_equal(table, want), (d1, d - d1)


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
    pairs, built in place by ``rmul_exp`` on one flat array."""
    degrees = tuple(g.degree for g in alphabet)
    offsets = degree_offsets(degrees, D)
    flat = np.zeros(offsets[-1], dtype=float if isinstance(unit, float) else object)
    flat[0] = unit
    for exponent in exponents:
        rmul_exp(flat, degrees, D, exponent)
    return NCSeries(alphabet, D, {d: flat[offsets[d]:offsets[d + 1]] for d in range(D + 1)})


def _oracle_product(alphabet, D, exponents, unit):
    """The same product by ``_naive.n_rmul_exp``, one array per degree."""
    degrees = tuple(g.degree for g in alphabet)
    dtype = float if isinstance(unit, float) else object
    data = {d: np.zeros(len(degree_words(degrees, d)), dtype=dtype) for d in range(D + 1)}
    data[0][0] = unit
    for exponent in exponents:
        n_rmul_exp(data, degrees, exponent)
    return NCSeries(alphabet, D, data)


def _assert_same_product(alphabet, D, exponents, unit):
    """The flat kernel's product equals the per-degree oracle's, value for
    value: ``float.hex``-identical in float, equal when exact."""
    flat, oracle = (f(alphabet, D, exponents, unit) for f in (_in_place_product, _oracle_product))
    for d in range(D + 1):
        a, b = flat.array(d).tolist(), oracle.array(d).tolist()
        if isinstance(unit, float):
            a, b = [x.hex() for x in a], [x.hex() for x in b]
        assert a == b, d


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


@pytest.mark.parametrize("name", sorted(catalog()))
def test_flat_product_matches_per_degree_oracle_on_catalog(name):
    """Float entries ``float.hex``-identical, exact ones equal, at D = p+1,
    on the factors ``epsilon`` forms."""
    entry = catalog()[name]
    values = entry.scheme.resolve_slots(entry.params)
    factors = [((g, e.evaluate(values)),) for g, e in entry.scheme.factors]
    in_float = any(isinstance(c, float) for (_, c), in factors)
    _assert_same_product(make_alphabet(entry.scheme.letters), entry.order + 1, factors,
                         1.0 if in_float else Fraction(1))


@pytest.mark.parametrize("n,D", [(2, 6), (3, 4)])
@pytest.mark.parametrize("coefficient,unit", [(_fraction, Fraction(1)),
                                              (_poly, MultiPoly.constant(1, _XY))],
                         ids=["fraction", "poly"])
def test_flat_product_matches_per_degree_oracle_on_random_factors(n, D, coefficient, unit):
    factors = _random_factors(n, 5, coefficient, seed=10 * n + D)
    _assert_same_product(make_alphabet("ABC"[:n]), D, [((g, c),) for g, c in factors], unit)


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_flat_product_matches_per_degree_oracle_on_graded_stages(alphabet, D, a, b):
    unit = next((c ** 0 for c in a.values() if isinstance(c, MultiPoly)), Fraction(1))
    _assert_same_product(alphabet, D, _exponents(a, b), unit)


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


# ------------------------------------- Horner kernel against the power sum


def _same_series(got, want):
    """Equal words and coefficients, and the same type for each."""
    assert got == want
    assert [type(c) for _, c in got.items()] == [type(c) for _, c in want.items()]


@pytest.mark.parametrize("alphabet,D,a,b", GRADED_CASES)
def test_horner_matches_power_sum_on_graded_cases(alphabet, D, a, b):
    sa, sb = (NCSeries.from_words(alphabet, D, w) for w in (a, b))
    for s in (sa, sb):
        _same_series(exp(s), n_series_exp(s))
    prod = n_series_exp(sa) * n_series_exp(sb)
    _same_series(log(prod), n_series_log(prod))


@pytest.mark.parametrize("n,D", [(2, 6), (3, 4)])
@pytest.mark.parametrize("coefficient,unit", [(_fraction, Fraction(1)),
                                              (_poly, MultiPoly.constant(1, _XY))],
                         ids=["fraction", "poly"])
def test_horner_log_matches_power_sum_on_random_factors(n, D, coefficient, unit):
    factors = _random_factors(n, 5, coefficient, seed=10 * n + D)
    prod = _in_place_product(make_alphabet("ABC"[:n]), D, [((g, c),) for g, c in factors], unit)
    _same_series(log(prod), n_series_log(prod))


# the design benchmark's condition-count and freedom templates (n, family, m, p)
TEMPLATES = [(2, "N", 7, 5), (2, "S", 9, 5), (2, "SL", 15, 8), (3, "S", 9, 3),
             (3, "SL", 17, 6), (3, "SE", 21, 6), (2, "S", 9, 4), (3, "SL", 17, 4),
             (2, "SL", 15, 6)]


@pytest.mark.parametrize("n,family,m,p", TEMPLATES, ids=lambda v: str(v))
def test_horner_log_matches_power_sum_on_templates(n, family, m, p, monkeypatch):
    """The polynomial products ``symbolic_log`` forms, each taken through
    ``free_algebra.log`` as a module attribute (where a tracer wraps it)."""
    products, real = [], free_algebra.log

    def recorded(x):
        products.append(x)
        return real(x)

    monkeypatch.setattr(free_algebra, "log", recorded)
    symbolic_log(build_scheme(n, family, m), p)
    assert len(products) == 1
    _same_series(real(products[0]), n_series_log(products[0]))


_FLOAT_ENTRIES = sorted(name for name, e in catalog().items()
                        if any(isinstance(v, float) for v in e.params.values.values()))


@pytest.mark.parametrize("name", _FLOAT_ENTRIES)
def test_float_log_agrees_with_exact_log(name):
    """A float catalog product-log against the exact one of the same
    factor coefficients, each converted to a ``Fraction``: within 8 D
    machine epsilons of the largest exact coefficient."""
    entry = catalog()[name]
    values = entry.scheme.resolve_slots(entry.params)
    factors = [(g, e.evaluate(values)) for g, e in entry.scheme.factors]
    alphabet, D = make_alphabet(entry.scheme.letters), entry.order + 1
    approx = dense_product_log(alphabet, D, [((g, float(c)),) for g, c in factors])
    exact = dense_product_log(alphabet, D, [((g, Fraction(c)),) for g, c in factors])
    want = {d: exact.array(d).astype(float) for d in range(1, D + 1)}
    scale = max(np.abs(w).max() for w in want.values())
    for d, w in want.items():
        assert approx.array(d).dtype == float
        assert np.abs(approx.array(d) - w).max() <= 8 * D * np.finfo(float).eps * scale, d


@pytest.mark.parametrize("n,D,products", [(2, 5, 288), (2, 7, 2088), (3, 7, 24624)])
def test_horner_log_truncates_inner_terms(n, D, products, monkeypatch):
    """Coefficient products of a dense float log, counted over the targets
    of its plan: the power sum takes 444, 4,092 and 59,868."""
    count, real = [], free_algebra._horner_plan

    def counted(degrees, D, present):
        steps = real(degrees, D, present)
        count.append(sum(len(targets) for _, _, (targets, _, _) in steps))
        return steps

    rng = np.random.default_rng(n + D)
    arrays = {d: 0.1 * rng.standard_normal(n ** d) for d in range(1, D + 1)}
    x = NCSeries(make_alphabet("ABC"[:n]), D, {0: [1.0], **arrays})
    monkeypatch.setattr(free_algebra, "_horner_plan", counted)
    got = log(x)
    assert sum(count) == products
    monkeypatch.setattr(free_algebra, "_horner_plan", real)
    want = n_series_log(x)
    for d in range(1, D + 1):
        assert np.abs(got.array(d) - want.array(d)).max() <= 1e-14


def test_one_plan_serves_every_domain():
    """The float and the exact product-log of the same factors read the
    same cached plans: once the float log has filled them, the
    ``Fraction`` log adds no entry to any ``free_algebra`` cache."""
    scheme = build_scheme(2, "N", 9)
    exact = [((g, Fraction(k + 1, 10)),) for k, (g, _) in enumerate(scheme.factors)]
    floats = [((g, float(c)),) for ((g, c),) in exact]
    alphabet = make_alphabet(scheme.letters)
    for name, module in list(sys.modules.items()):
        if name == "liesplit" or name.startswith("liesplit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    caches = {name: value for name, value in vars(free_algebra).items()
              if callable(getattr(value, "cache_info", None))}

    def sizes():
        return {name: cache.cache_info().currsize for name, cache in caches.items()}

    dense_product_log(alphabet, 6, floats)
    filled = sizes()
    assert all(filled[name] for name in ("_exp_plan", "_pair_plan", "_horner_plan"))
    dense_product_log(alphabet, 6, exact)
    assert sizes() == filled


class _Counted:
    """A rational coefficient that counts the products it is part of:
    ``products`` those of two coefficients, ``scalings`` those by a
    rational."""

    products = scalings = 0
    __hash__ = None

    def __init__(self, value):
        self.value = Fraction(value)

    def __mul__(self, other):
        if isinstance(other, _Counted):
            _Counted.products += 1
            return _Counted(self.value * other.value)
        return self.__rmul__(other)

    def __rmul__(self, other):
        _Counted.scalings += 1
        return _Counted(other * self.value)

    def __add__(self, other):
        return _Counted(self.value + getattr(other, "value", other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Counted(self.value - getattr(other, "value", other))

    def __neg__(self):
        return _Counted(-self.value)

    def __pow__(self, k):
        return _Counted(self.value ** k)

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        return self.value == getattr(other, "value", other)


def _sparse_counted(alphabet, D, seed, constant):
    """A fixed series with about three in ten words nonzero at each degree
    1..D, ``constant`` at degree 0 (absent if None)."""
    degrees, rng = tuple(g.degree for g in alphabet), random.Random(seed)
    arrays = {} if constant is None else {0: [_Counted(constant)]}
    for d in range(1, D + 1):
        arrays[d] = [_Counted(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                     if rng.random() < 0.3 else 0 for _ in range(word_count(degrees, d))]
    return NCSeries(alphabet, D, arrays)


@pytest.mark.parametrize("alphabet,D,counts", [
    (make_alphabet("AB"), 6, {"mul": (63, 0), "exp": (14, 39), "log": (392, 75)}),
    (make_alphabet("XYZ", [1, 2, 3]), 7, {"mul": (40, 0), "exp": (11, 26), "log": (151, 66)}),
], ids=["AB-D6", "XYZ-123-D7"])
def test_exact_kernels_skip_zero_coefficients(alphabet, D, counts, monkeypatch):
    """Exact ``mul``, ``exp`` and ``log`` multiply only nonzero
    coefficients: (products, scalings) on fixed sparse series, pinned, and
    the values those of the same series in ``Fraction``s."""
    x, y = _sparse_counted(alphabet, D, 1, 1), _sparse_counted(alphabet, D, 2, None)
    degrees = [g.degree for g in alphabet]
    fx, fy = ({w: c.value for w, c in s.items()} for s in (x, y))
    want = {"mul": n_mul(fx, fy, degrees, D), "exp": n_exp(fy, degrees, D),
            "log": n_log(fx, degrees, D)}
    for name, call in (("mul", lambda: mul(x, y)), ("exp", lambda: exp(y)),
                       ("log", lambda: log(x))):
        monkeypatch.setattr(_Counted, "products", 0)
        monkeypatch.setattr(_Counted, "scalings", 0)
        got = call()
        assert (_Counted.products, _Counted.scalings) == counts[name], name
        assert {w: c.value for w, c in got.items()} == want[name], name


# -------------------- float kernels against the loops they replaced, in hex


def _hexes(s):
    """Every stored degree of ``s`` with its coefficients in ``float.hex``,
    so that signed zeros count."""
    return {d: [v.hex() for v in s.array(d).tolist()] for d in s.degrees()}


def _random_float_series(degrees, D, rng, constant=None, absent=()):
    """Normal coefficients at every degree 1..D but ``absent``, one in
    five of them replaced by 0.0 or -0.0."""
    arrays = {} if constant is None else {0: [constant]}
    for d in range(1, D + 1):
        n = word_count(degrees, d)
        if d in absent or not n:
            continue
        a = rng.standard_normal(n)
        zero = rng.random(n) < 0.2
        a[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        arrays[d] = a
    return NCSeries(make_alphabet("ABCD"[:len(degrees)], list(degrees)), D, arrays)


# TABLE_CASES' alphabets at lower degrees: an exponential of two letters
# at D = 9 has 1,023 words, and the word loop takes seconds on them
FLOAT_CASES = [((1, 1), 7), ((1, 1, 1), 5), ((1, 1, 1, 1), 4), ((1, 3, 5, 7), 9), ((1, 2, 3), 7)]
# every absent-degree pattern leaves some degree present; (1, 3) and
# (1, 4, 5) also put u's lowest degree above 1
ABSENT = [(), (2,), (1, 3), (2, 3), (1, 4, 5)]


@pytest.mark.parametrize("degrees,D", FLOAT_CASES)
@pytest.mark.parametrize("absent", ABSENT, ids=str)
def test_float_horner_matches_block_loop(degrees, D, absent):
    rng = np.random.default_rng([len(degrees), D, *absent])
    for _ in range(3):
        x = _random_float_series(degrees, D, rng, constant=1.0, absent=absent)
        assert _hexes(log(x)) == _hexes(n_float_log(x))
        u = _random_float_series(degrees, D, rng, absent=absent)
        if u:
            assert _hexes(exp(u)) == _hexes(n_float_exp(u))


@pytest.mark.parametrize("degrees,D", FLOAT_CASES)
@pytest.mark.parametrize("absent", ABSENT, ids=str)
def test_float_mul_matches_block_loop(degrees, D, absent):
    rng = np.random.default_rng([len(degrees), D, *absent, 1])
    x = _random_float_series(degrees, D, rng, constant=-0.5, absent=absent)
    y = _random_float_series(degrees, D, rng, absent=absent[:1])
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        assert _hexes(mul(a, b)) == _hexes(n_float_mul(a, b))


@pytest.mark.parametrize("degrees,D", FLOAT_CASES)
def test_float_rmul_exp_matches_word_loop(degrees, D):
    """Exponents of one generator and of several, repeats and zero or
    negative coefficients among them, on a flat array with signed zeros."""
    rng = np.random.default_rng([len(degrees), D, 2])
    n, total = len(degrees), degree_offsets(degrees, D)[-1]
    exponents = [[(g, float(rng.standard_normal()))] for g in range(n)]
    exponents += [[(g, float(rng.standard_normal())) for g in range(n)],
                  [(n - 1, 0.5), (0, -0.0), (n - 1, -1.25), (0, 2.0)]]
    for exponent in exponents:
        got = rng.standard_normal(total)
        got[rng.random(total) < 0.2] = -0.0
        want = got.copy()
        rmul_exp(got, degrees, D, exponent)
        n_flat_rmul_exp(want, degrees, D, exponent)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], exponent


@pytest.mark.parametrize("name", _FLOAT_ENTRIES)
def test_float_product_log_matches_loops_on_catalog(name):
    """``dense_product_log`` at D = p+1 against the product by the word
    loop and its log by the block loop, value for value."""
    entry = catalog()[name]
    values = entry.scheme.resolve_slots(entry.params)
    factors = [((g, e.evaluate(values)),) for g, e in entry.scheme.factors]
    alphabet, D = make_alphabet(entry.scheme.letters), entry.order + 1
    degrees = tuple(g.degree for g in alphabet)
    offsets = degree_offsets(degrees, D)
    flat = np.zeros(offsets[-1])
    flat[0] = 1.0
    for exponent in factors:
        n_flat_rmul_exp(flat, degrees, D, exponent)
    product = NCSeries(alphabet, D, {d: flat[offsets[d]:offsets[d + 1]] for d in range(D + 1)})
    assert _hexes(dense_product_log(alphabet, D, factors)) == _hexes(n_float_log(product))


# --------------------------------------------------------------- storage


def test_series_storage_semantics(monkeypatch):
    """What a series holds, read through its methods: an all-zero degree is
    absent and reads as float zeros, 0 as a coefficient or constant term;
    a sum keeps a degree that only one side holds to the bit, signed zeros
    included; an exact scaling multiplies the nonzero coefficients only."""
    x = NCSeries(AB, 3, {1: [-0.0, 1.5], 2: [0.0, -0.0, 0.0, 0.0], 3: [0.25] + [-0.0] * 7})
    assert x.degrees() == (1, 3)
    absent = x.array(2)
    assert absent.dtype == np.float64 and [v.hex() for v in absent.tolist()] == ["0x0.0p+0"] * 4
    exact = NCSeries(AB, 3, {0: [Fraction(0)], 1: [Fraction(1, 2), 0], 2: [Fraction(0)] * 4})
    assert exact.degrees() == (1,)
    for s in (x, exact):
        for value in (s.coeff((0, 1)), s.coeff(()), s.constant_term()):
            assert type(value) is int and value == 0
    y = NCSeries(AB, 3, {2: [-0.0, 1.0, 2.0, -0.0], 3: [1.0] * 8})
    for total in (x + y, y + x):
        assert total.degrees() == (1, 2, 3)
        assert _hexes(total)[1] == _hexes(x)[1] == ["-0x0.0p+0", "0x1.8000000000000p+0"]
        assert _hexes(total)[2] == _hexes(y)[2]
        assert total.array(3).tolist() == (x.array(3) + y.array(3)).tolist()
    counted = _sparse_counted(AB, 4, 3, None)
    monkeypatch.setattr(_Counted, "scalings", 0)
    scaled = counted.scale(Fraction(3))
    assert _Counted.scalings == len(list(counted.items())) > 0
    assert {w: c.value for w, c in scaled.items()} == {
        w: 3 * c.value for w, c in counted.items()}


def test_series_degrees_share_one_buffer():
    """Every present degree of a series is a view of one array, whether
    the constructor, ``from_words``, a sum or a scaling built it (disjoint
    views of one buffer do not overlap, so ``np.shares_memory`` cannot
    tell); arrays mixing float and exact coefficients make one object
    array."""
    x = NCSeries(AB, 3, {0: [1.0], 1: [0.5, -1.0], 3: np.arange(8.0)})
    y = NCSeries.from_words(AB, 3, {(0,): Fraction(1), (0, 1): Fraction(2),
                                    (1, 1, 0): Fraction(-3)})
    mixed = NCSeries(AB, 2, {1: [0.5, 0.0], 2: [Fraction(1), 0, 0, 0]})
    assert [mixed.array(d).dtype for d in mixed.degrees()] == [object, object]
    assert mixed.array(1).tolist() == [0.5, 0.0]
    z = NCSeries(AB, 3, {2: [1.0, 0.0, 0.0, 2.0]})
    for s in (x, y, mixed, x + z, y.scale(Fraction(1, 2)), x.scale(2.0)):
        bases = [s.array(d).base for d in s.degrees()]
        assert len(bases) >= 2 and bases[0] is not None
        assert all(b is bases[0] for b in bases)


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
