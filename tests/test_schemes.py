"""Scheme templates: shapes, closures, logs, order checks, error measure."""

import functools
import math
import re
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liesplit import schemes
from liesplit.catalog import catalog
from liesplit.free_algebra import NCSeries, exp, log, make_alphabet, series_from_generator
from liesplit.hall import HallBasis, build_hall_basis, lie_coordinates
from liesplit.polynomials import MultiPoly
from liesplit.schemes import (
    FAMILIES,
    LinExpr,
    ParamAssignment,
    build_scheme,
    epsilon,
    log_scheme,
    ordering_str,
    parse_ordering,
    scheme_from_text,
    scheme_to_text,
    se_chart_closure,
    se_chart_names,
    se_chart_to_slots,
    se_slots_to_chart,
    suzuki_recursive,
    verify_order,
    yoshida_recursive,
)

from _naive import n_epsilon, n_evaluate, n_norm1_at_degree, n_order_residuals, n_read_top

ALL_CASES = [
    (2, "N", 6), (2, "N", 7),
    (2, "S", 3), (2, "S", 5), (2, "S", 9), (2, "S", 13),
    (2, "SL", 3), (2, "SL", 11), (2, "SL", 13),
    (3, "N", 3), (3, "N", 7), (3, "N", 10),
    (3, "S", 5), (3, "S", 9), (3, "S", 11), (3, "S", 13),
    (3, "S-abc", 5), (3, "S-abc", 11), (3, "S-abc", 17),
    (3, "SE", 5), (3, "SE", 9), (3, "SE", 17), (3, "SE", 21), (3, "SE", 25),
    (3, "SL", 5), (3, "SL", 13), (3, "SL", 21), (3, "SL", 25),
]


def rational_params(scheme, seed=0):
    """Deterministic small-rational values for the free slots."""
    out = {}
    for i, s in enumerate(scheme.free_slots):
        out[s] = Fraction((seed + 2 * i + 1) % 7 - 3, 4 + (seed + i) % 3)
    return out


# ----------------------------------------------------------- shapes


def test_letter_patterns_pinned():
    pats = {
        (2, "N", 6): "ABABAB",
        (2, "S", 9): "ABABABABA",
        (2, "SL", 11): "ABABABABABA",
        (3, "N", 7): "ABCBABC",
        (3, "S", 9): "ABCBABCBA",
        (3, "S", 11): "ABCBABABCBA",
        (3, "S-abc", 11): "ABCABCBACBA",
        (3, "SE", 9): "ABCBABCBA",
        (3, "SE", 17): "ABCBABCBABCBABCBA",
        (3, "SL", 13): "ABCBABCBABCBA",
    }
    for (n, fam, m), expected in pats.items():
        s = build_scheme(n, fam, m)
        assert "".join(s.letters[g] for g, _ in s.factors) == expected, (n, fam, m)


def _is_template(n, fam, m) -> bool:
    """The (n, family, m) that define a template: N needs m >= n, S an
    odd m >= 2n - 1, S-abc m = 6k + 5, SE m = 4k + 1 >= 5, and SL
    m = 2k + 1 >= 3 at n = 2 or m = 4k + 1 >= 5 at n = 3."""
    return {"N": m >= n,
            "S": m % 2 == 1 and m >= 2 * n - 1,
            "S-abc": m % 6 == 5,
            "SE": m % 4 == 1 and m >= 5,
            "SL": (m - 1) % (2 if n == 2 else 4) == 0 and m >= (3 if n == 2 else 5)}[fam]


TEMPLATES = [(n, fam, m) for n, fams in FAMILIES.items() for fam in fams for m in range(1, 60)
             if _is_template(n, fam, m)]


def test_every_other_size_is_refused():
    assert len(TEMPLATES) == 239
    for n, fams in FAMILIES.items():
        for fam in fams:
            for m in range(1, 60):
                if not _is_template(n, fam, m):
                    with pytest.raises(ValueError):
                        build_scheme(n, fam, m)


@pytest.mark.parametrize("n,fam,m", TEMPLATES)
def test_factor_count_and_slot_count(n, fam, m):
    s = build_scheme(n, fam, m)
    assert s.m == m == len(s.factors)
    expected_nu = {
        "N": m,
        "S": (m + 1) // 2,
        "S-abc": (m + 1) // 2,
        "SE": (m - 1) // 4,
        "SL": math.ceil((m - 1) / (4 if n == 2 else 8)),
    }[fam]
    assert s.nu == expected_nu
    assert len(s.free_slots) == s.nu - len(s.closures)


@pytest.mark.parametrize("n,fam,m", ALL_CASES)
def test_consistency_sums_are_one(n, fam, m):
    """Every generator's coefficients sum to exactly 1 once closures hold.

    For SE/SL only one letter's sum is solved for; the others must come out
    right automatically, which pins the contraction bookkeeping.
    """
    s = build_scheme(n, fam, m)
    values = s.resolve_slots(rational_params(s, seed=m))
    for g, letter in enumerate(s.letters):
        total = sum(c for gi, c in s.resolve(values) if gi == g)
        assert total == 1, (letter, total)


@pytest.mark.parametrize("n,fam,m", [c for c in ALL_CASES if c[1] != "N"])
def test_symmetric_families_are_palindromic(n, fam, m):
    s = build_scheme(n, fam, m)
    resolved = s.resolve(rational_params(s, seed=1))
    assert resolved == resolved[::-1]


def test_invalid_shapes_rejected():
    for n, fam, m in [(2, "S", 4), (2, "SL", 4), (3, "S", 3), (3, "S", 8),
                      (3, "S-abc", 9), (3, "SE", 7), (3, "SL", 7),
                      (2, "SE", 9), (2, "S-abc", 11), (2, "N", 1), (3, "N", 2)]:
        with pytest.raises(ValueError):
            build_scheme(n, fam, m)
    with pytest.raises(ValueError):
        build_scheme(4, "N", 8)


def test_family_name_normalization():
    assert build_scheme(3, "s_abc", 11).family == "S-abc"
    assert build_scheme(3, "sl", 5).family == "SL"


def test_resolve_missing_and_override():
    s = build_scheme(2, "S", 5)
    with pytest.raises(KeyError):
        s.resolve({})
    # explicit values for dependent slots win over the closure formulas
    vals = s.resolve_slots({"a_1": Fraction(0), "b_1": Fraction(0), "a_2": Fraction(1)})
    assert vals == {"a_1": Fraction(0), "b_1": Fraction(0), "a_2": Fraction(1)}


def test_linexpr_algebra_and_str():
    a, b = LinExpr.slot("a"), LinExpr.slot("b")
    e = 1 - 2 * a - b * Fraction(1, 2)
    assert e.evaluate({"a": Fraction(1, 4), "b": 1}) == Fraction(0)
    assert str(e) == "1 - 2*a - 1/2*b"
    assert str(LinExpr()) == "0"
    assert (a - a).coeffs == ()


# ------------------------------------------------- pinned exact values


def test_leapfrog_third_order_term():
    s = build_scheme(2, "SL", 3)
    lie = log_scheme(s, {}, 3)
    assert n_norm1_at_degree(lie, 3) == Fraction(1, 8)
    assert sorted(abs(c) for c in lie.coords_at_degree(3).values()) == \
        [Fraction(1, 24), Fraction(1, 12)]
    assert lie.coords_at_degree(2) == {}
    rep = epsilon(s, {}, 2, tolerance=0)
    assert rep.epsilon == Fraction(9, 32)
    assert all(v == Fraction(1, 8) for v in rep.sums_per_ordering.values())


def test_euler_three_term_error():
    s = build_scheme(3, "N", 3)
    rep = epsilon(s, {}, 1, tolerance=0)
    assert rep.epsilon == Fraction(9, 2)
    assert set(rep.sums_per_ordering.values()) == {Fraction(3, 2)}


def test_three_term_leapfrog_error():
    s = build_scheme(3, "SL", 5)
    rep = epsilon(s, {}, 2, tolerance=0)
    assert rep.epsilon == Fraction(325, 96)
    # the 1-norm is smaller precisely when A comes first in the Hall order
    for ordering, total in rep.sums_per_ordering.items():
        assert total == (Fraction(13, 24) if ordering[0] == "A" else Fraction(5, 8))


def test_symbolic_log_order3_conditions():
    """Free-parameter log of the 5-factor palindrome, exact polynomials."""
    s = build_scheme(2, "S", 5)
    lie = log_scheme(s, None, 3)
    assert lie.coords_at_degree(2) == {}
    by_str = {str(e): c for e, c in lie.coords_at_degree(3).items()}
    a = MultiPoly.variable("a_1", ("a_1",))
    half = Fraction(1, 2)
    expected_aab = half * a * a - half * a + Fraction(1, 12)
    expected_bab = Fraction(-1, 4) * a + Fraction(1, 24)
    assert set(by_str.values()) == {expected_aab, expected_bab}


def test_known_fourth_order_coefficients_vanish():
    # at a_1 = (3 - sqrt 3)/6 the [A,[A,B]] weight is zero by construction
    s = build_scheme(2, "S", 5)
    a1 = (3 - math.sqrt(3)) / 6
    rep = epsilon(s, {"a_1": a1}, 2)
    coeffs = dict(rep.coeffs_per_ordering[("A", "B")])
    values = sorted(abs(c) for c in coeffs.values())
    assert values[0] < 1e-15
    assert abs(float(rep.epsilon) - 0.069778) < 1e-4


# --------------------------------------------------------- order checks


def test_verify_order_leapfrog():
    s = build_scheme(2, "SL", 3)
    ok2, res2 = verify_order(s, {}, 2, tolerance=0)
    assert ok2 and res2 == {1: 0, 2: 0}
    ok3, res3 = verify_order(s, {}, 3, tolerance=0)
    assert not ok3 and res3[3] == Fraction(1, 12)


def test_verify_order_euler_first_only():
    s = build_scheme(3, "N", 3)
    assert verify_order(s, {}, 1, tolerance=0)[0]
    assert not verify_order(s, {}, 2, tolerance=0)[0]


def test_epsilon_requires_claimed_order():
    s = build_scheme(2, "SL", 3)
    with pytest.raises(ValueError, match="order 3"):
        epsilon(s, {}, 3, tolerance=0)


def test_non_unit_sums_fail_order_one():
    s = build_scheme(2, "N", 2)
    ok, res = verify_order(s, {"a_1": Fraction(1, 2), "b_1": Fraction(1)}, 1,
                           tolerance=0)
    assert not ok and res[1] == Fraction(1, 2)


# ------------------------------------------- shared solvers, one product

CATALOG = catalog()


@pytest.mark.parametrize("ordering", list(permutations(range(3))), ids=str)
def test_orderings_share_one_float_solver(ordering):
    abc = make_alphabet("ABC")
    plain = build_hall_basis(abc, 5)
    basis = build_hall_basis(abc, 5, ordering)
    for d in range(1, 6):
        assert basis.float_solver(d) is plain.float_solver(d)


def test_float_epsilon_forms_one_product(monkeypatch):
    calls = []
    real = schemes.dense_product_log

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(schemes, "dense_product_log", counted)
    for name, e in sorted(CATALOG.items()):
        if e.params.is_exact():
            continue
        calls.clear()
        epsilon(e.scheme, e.params, e.order)
        assert len(calls) == 1, name


def _counted_products(monkeypatch):
    calls = []
    real = schemes.dense_product_log

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(schemes, "dense_product_log", counted)
    return calls


# exact copies of the float catalog values up to order 4, and the entries
# without parameters
EXACT_CASES = [(name, e.scheme, {s: Fraction(v) for s, v in e.params.values.items()}, e.order)
               for name, e in sorted(CATALOG.items())
               if not e.params.is_exact() and e.order <= 4 or not e.params.values]


def test_every_domain_forms_one_product(monkeypatch):
    names = {name for name, *_ in EXACT_CASES}
    assert {"n2-p2-sl-m3-leapfrog", "n3-p1-n-m3-euler", "n3-p2-sl-m5-leapfrog"} <= names
    calls = _counted_products(monkeypatch)
    for name, scheme, params, p in EXACT_CASES:
        calls.clear()
        rep = epsilon(scheme, params, p)
        assert len(calls) == 1, name
        assert isinstance(rep.epsilon, Fraction), name
        calls.clear()
        log_scheme(scheme, params, p)
        assert len(calls) == 1, name
    for n, family, m, D in [(2, "S", 9, 5), (3, "S", 9, 3)]:
        calls.clear()
        lie = log_scheme(build_scheme(n, family, m), None, D)
        assert len(calls) == 1
        assert all(isinstance(c, MultiPoly) for c in lie.coords.values())


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_epsilon_order_residuals_match_verify_order(name):
    e = CATALOG[name]
    rep = epsilon(e.scheme, e.params, e.order)
    assert rep.order_residuals == verify_order(e.scheme, e.params, e.order)[1]


def _typed(residuals):
    return {d: (type(v), v.hex() if isinstance(v, float) else v) for d, v in residuals.items()}


@pytest.mark.parametrize("words,p", [
    ({(0,): Fraction(1), (1,): Fraction(1)}, 3),                  # degrees 2, 3 absent
    ({(0, 1): Fraction(2), (1, 0): Fraction(-2)}, 3),             # degree 1 absent
    ({(0,): 0.5, (1,): 1.0, (0, 1): 1e-3, (1, 0): -1e-3}, 4),     # float, 3 and 4 absent
], ids=["exact-top-absent", "exact-first-absent", "float"])
def test_order_residuals_of_absent_degrees(words, p):
    """Degrees with no stored words count as zero coordinates, in the
    series' domain, as the route through a ``LieSeries`` counts them."""
    alphabet = make_alphabet("AB")
    series = NCSeries.from_words(alphabet, p, words)
    basis = build_hall_basis(alphabet, p)
    assert _typed(schemes._order_residuals(series, basis, p)) == \
        _typed(n_order_residuals(series, basis, p))


def test_order_residuals_reject_a_non_lie_series():
    alphabet = make_alphabet("AB")
    series = NCSeries.from_words(alphabet, 2, {(0,): Fraction(1), (0, 1): Fraction(1)})
    with pytest.raises(RuntimeError, match="non-Lie residual"):
        schemes._order_residuals(series, build_hall_basis(alphabet, 2), 2)


def test_linexpr_float_evaluation_matches_fraction_arithmetic():
    """Every catalog factor's coefficient, float or exact, is the value and
    type that ``Fraction`` arithmetic gives (floats ``float.hex``-equal)."""
    count = 0
    for e in CATALOG.values():
        values = e.scheme.resolve_slots(e.params)
        for _, expr in e.scheme.factors:
            got, want = expr.evaluate(values), n_evaluate(expr, values)
            assert type(got) is type(want)
            assert (got.hex() if isinstance(got, float) else got) == \
                (want.hex() if isinstance(want, float) else want)
            count += 1
    assert count == sum(e.scheme.m for e in CATALOG.values())


def test_linexpr_evaluation_keeps_exact_and_polynomial_types():
    a, b = LinExpr.slot("a"), LinExpr.slot("b")
    e = Fraction(1, 3) + 2 * a - b
    x = MultiPoly.variable("x", ("x",))
    assert e.evaluate({"a": Fraction(1, 2), "b": 2}) == Fraction(-2, 3)
    assert type(e.evaluate({"a": Fraction(1, 2), "b": 2})) is Fraction
    assert e.evaluate({"a": x, "b": Fraction(1)}) == 2 * x - Fraction(2, 3)
    assert e.evaluate({"a": 0.25, "b": 1.5}).hex() == n_evaluate(e, {"a": 0.25, "b": 1.5}).hex()
    assert type(LinExpr.constant(3).evaluate({})) is Fraction


# ------------------------------------------ one top-degree read, every ordering


def _hex(x):
    return x.hex() if isinstance(x, float) else repr(x)


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_batched_epsilon_matches_per_ordering_reads(name):
    """The one-solve top-degree read gives the report that reading each
    ordering in its own basis gives, bit for bit: every coefficient (and
    its type), every sum, epsilon, the best ordering, the residuals."""
    e = CATALOG[name]
    got, want = epsilon(e.scheme, e.params, e.order), n_epsilon(e.scheme, e.params, e.order)
    assert got.ordering_best == want.ordering_best
    assert _hex(got.epsilon) == _hex(want.epsilon)
    assert list(got.sums_per_ordering) == list(want.sums_per_ordering)
    assert [_hex(v) for v in got.sums_per_ordering.values()] == \
        [_hex(v) for v in want.sums_per_ordering.values()]
    assert list(got.coeffs_per_ordering) == list(want.coeffs_per_ordering)
    for ordering, pairs in want.coeffs_per_ordering.items():
        assert [(el, type(c), _hex(c)) for el, c in got.coeffs_per_ordering[ordering]] == \
            [(el, type(c), _hex(c)) for el, c in pairs], ordering
    assert {d: _hex(v) for d, v in got.order_residuals.items()} == \
        {d: _hex(v) for d, v in want.order_residuals.items()}


@pytest.mark.parametrize("name", ["n2-p4-s-m9-opt", "n3-p4-sl-m21-opt"])
def test_epsilon_reads_the_top_degree_once(name, monkeypatch):
    """p reads of degrees 1..p in the identity ordering and one of degree
    p+1 for every ordering at once, not one per ordering."""
    e = CATALOG[name]
    reads = []
    real = HallBasis.coords_from_dense

    def counted(self, d, vec):
        reads.append((d, vec.shape[1:]))
        return real(self, d, vec)

    monkeypatch.setattr(HallBasis, "coords_from_dense", counted)
    epsilon(e.scheme, e.params, e.order)
    orderings = math.factorial(e.scheme.n)
    assert reads == [(d, ()) for d in range(1, e.order + 1)] + [(e.order + 1, (orderings,))]


@pytest.mark.parametrize("name", ["n2-p4-s-m9-opt", "n3-p6-sl-m37-opt"])
def test_epsilon_builds_one_alphabet_and_one_basis(name, monkeypatch):
    """The product-log and both reads share one alphabet and one identity
    basis: a call makes each once."""
    e = CATALOG[name]
    calls = []
    for attr in ("make_alphabet", "build_hall_basis"):
        def counted(*args, _real=getattr(schemes, attr), _name=attr, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(schemes, attr, counted)
    epsilon(e.scheme, e.params, e.order)
    assert sorted(calls) == ["build_hall_basis", "make_alphabet"]


def _with_top_word(series, D, index, delta):
    """``series`` with ``delta`` added to its degree-D word at ``index``."""
    arrays = {d: series.array(d).copy() for d in series.degrees()}
    arrays[D][index] = arrays[D][index] + delta
    return NCSeries(series.alphabet, series.max_degree, arrays)


@pytest.mark.parametrize("name", ["n2-p4-s-m9-opt", "n3-p4-sl-m21-opt"])
def test_top_read_rejects_a_perturbed_float_log(name):
    e = CATALOG[name]
    D = e.order + 1
    series = schemes._product_log(e.scheme, e.params, D)
    basis = schemes._basis_for(e.scheme, series, None)
    schemes._read_top(e.scheme, series, basis)
    for index in (1, len(series.array(D)) // 2):
        with pytest.raises(RuntimeError, match="non-Lie residual"):
            schemes._read_top(e.scheme, _with_top_word(series, D, index, 1e-6), basis)


@pytest.mark.parametrize("n,family,m,p", [(2, "S", 9, 4), (3, "SE", 17, 4)])
def test_top_read_rejects_a_non_lie_polynomial_term(n, family, m, p):
    scheme = build_scheme(n, family, m)
    D = p + 1
    series = schemes._product_log(scheme, None, D)
    basis = schemes._basis_for(scheme, series, None)
    schemes._read_top(scheme, series, basis)
    x = MultiPoly.variable(scheme.free_slots[0], scheme.free_slots)
    for index in (1, len(series.array(D)) // 2):
        with pytest.raises(RuntimeError, match="non-Lie residual"):
            schemes._read_top(scheme, _with_top_word(series, D, index, x), basis)


@pytest.mark.parametrize("symbolic", [False, True], ids=["fraction", "poly"])
def test_top_read_of_an_absent_degree_gives_exact_zeros(symbolic):
    """A palindrome's log has no degree 4, so an exact or polynomial read
    there gives ``Fraction(0)`` in every ordering, as per-ordering reads do,
    not the float zeros the missing degree's array holds."""
    scheme = build_scheme(2, "S", 5)
    series = schemes._product_log(scheme, None if symbolic else rational_params(scheme), 4)
    assert 4 not in series.degrees()
    orderings, elements, columns = schemes._read_top(scheme, series,
                                                     schemes._basis_for(scheme, series, None))
    want = n_read_top(scheme, series, 4)
    assert orderings == tuple(want)
    for ordering, es, col in zip(orderings, elements, columns):
        assert list(zip(es, col)) == list(want[ordering])
        assert all(type(c) is Fraction and c == 0 for c in col)


# ----------------------------------------------- recursive constructions


def test_yoshida_base_case_is_leapfrog():
    for n in (2, 3):
        s, pa = yoshida_recursive(1, n=n)
        assert (s.family, s.m) == ("SL", 3 if n == 2 else 5)
        assert pa.values == {"w_1": Fraction(1)}
        assert pa.is_exact()


def test_yoshida_fourth_order():
    s, pa = yoshida_recursive(2)
    assert s.m == 7
    y = 1 / (2 - 2 ** (1 / 3))
    assert pa.values["w_1"] == pytest.approx(y)
    assert pa.values["w_2"] == pytest.approx(1 - 2 * y)
    ok, _ = verify_order(s, pa, 4, tolerance=1e-12)
    assert ok


def test_suzuki_fourth_order_both_n():
    z = 1 / (4 - 4 ** (1 / 3))
    for n, m in ((2, 11), (3, 21)):
        s, pa = suzuki_recursive(2, n=n)
        assert s.m == m
        assert pa.values["w_1"] == pa.values["w_2"] == pytest.approx(z)
        assert pa.values["w_3"] == pytest.approx(1 - 4 * z)
        assert verify_order(s, pa, 4, tolerance=1e-12)[0]


def test_recursion_sixth_order_sizes():
    s, pa = yoshida_recursive(3)
    assert s.m == 19 and s.nu == 5
    assert verify_order(s, pa, 6, tolerance=1e-10)[0]
    s, _ = suzuki_recursive(3)
    assert s.m == 51


# --------------------------------------------------- numeric consistency


def test_float_and_exact_paths_agree():
    s = build_scheme(2, "S", 7)
    exact_vals = rational_params(s, seed=3)
    lie_exact = log_scheme(s, exact_vals, 5)
    lie_float = log_scheme(s, {k: float(v) for k, v in exact_vals.items()}, 5)
    exact = {str(e): float(c) for e, c in lie_exact.coords.items()}
    approx = {str(e): c for e, c in lie_float.coords.items()}
    for key in set(exact) | set(approx):
        assert abs(exact.get(key, 0.0) - approx.get(key, 0.0)) < 1e-12, key


@pytest.mark.parametrize("name", sorted(n for n, e in CATALOG.items()
                                        if e.order <= 4 and e.params.values), ids=str)
def test_float_and_exact_paths_agree_on_catalog(name):
    """Each entry's parameters, read exactly as Fractions, give the float
    path's Hall coordinates through degree p+1 up to rounding: relative to
    the degree's coefficient 1-norm, or to the degree-1 norm (the scale of
    the parameters) where the degree nearly vanishes."""
    e = CATALOG[name]
    D = e.order + 1
    values = e.params.values
    exact = log_scheme(e.scheme, {k: Fraction(v) for k, v in values.items()}, D)
    approx = log_scheme(e.scheme, {k: float(v) for k, v in values.items()}, D)
    unit = float(sum(abs(c) for c in exact.coords_at_degree(1).values()))
    for d in range(1, D + 1):
        ex, fl = exact.coords_at_degree(d), approx.coords_at_degree(d)
        scale = max(float(sum(abs(c) for c in ex.values())), unit)
        for key in set(ex) | set(fl):
            assert abs(float(ex.get(key, 0)) - fl.get(key, 0.0)) <= 1e-14 * scale, (d, key)


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from([(2, "S", 7), (2, "SL", 7), (3, "S", 9),
                          (3, "S-abc", 11), (3, "SE", 9), (3, "SL", 9)]),
    data=st.data(),
)
def test_palindromic_products_have_odd_log(case, data):
    """Time-symmetric products only produce odd-degree log terms."""
    n, fam, m = case
    s = build_scheme(n, fam, m)
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    params = {name: data.draw(coeff, label=name) for name in s.free_slots}
    lie = log_scheme(s, params, 4)
    assert lie.coords_at_degree(2) == {}
    assert lie.coords_at_degree(4) == {}


@settings(max_examples=10, deadline=None)
@given(tau=st.fractions(min_value=-2, max_value=2, max_denominator=8).filter(bool))
def test_euler_term_reversal_parity(tau):
    """log E-(tau) mirrors log E+(tau) with even-degree signs flipped."""
    abc = make_alphabet("ABC")
    D = 4
    fwd = exp(series_from_generator(abc[0], tau, D, abc))
    for g in (1, 2):
        fwd = fwd * exp(series_from_generator(abc[g], tau, D, abc))
    rev = exp(series_from_generator(abc[2], tau, D, abc))
    for g in (1, 0):
        rev = rev * exp(series_from_generator(abc[g], tau, D, abc))
    basis = build_hall_basis(abc, D)
    plus, r1 = lie_coordinates(log(fwd), basis)
    minus, r2 = lie_coordinates(log(rev), basis)
    assert not r1 and not r2
    for d in range(1, D + 1):
        sign = 1 if d % 2 else -1
        assert plus.coords_at_degree(d) == {
            e: sign * c for e, c in minus.coords_at_degree(d).items()}


# ------------------------------------------------------ chart and text


def test_se_chart_closures_by_depth():
    pinned = {
        5: ("u", "1/2"),
        9: ("q_1", "1/2"),
        17: ("q_2", "1/2 - q_1"),
        21: ("r_2", "1/2 - r_1 - u"),
        25: ("q_3", "1/2 - q_1 - q_2"),
    }
    for m, (dep, text) in pinned.items():
        s = build_scheme(3, "SE", m)
        name, expr = se_chart_closure(s)
        assert (name, str(expr)) == (dep, text), m


def test_se_chart_roundtrip():
    s = build_scheme(3, "SE", 21)
    slots = {"u_1": Fraction(1, 3), "v_1": Fraction(-1, 5),
             "u_2": Fraction(1, 7), "v_2": Fraction(2, 9)}
    chart = se_slots_to_chart(s, slots)
    assert chart["u"] == Fraction(1, 3)
    assert chart["q_1"] == Fraction(1, 3) - Fraction(1, 5)
    back = se_chart_to_slots(s, chart)
    assert back == s.resolve_slots(slots)


def test_se_chart_requires_se():
    with pytest.raises(ValueError):
        se_chart_names(build_scheme(3, "SL", 5))


def test_ordering_parsing():
    assert parse_ordering("B<A", ("A", "B")) == ("B", "A")
    assert parse_ordering("C < A < B", ("A", "B", "C")) == ("C", "A", "B")
    assert parse_ordering(None, ("A", "B")) == ("A", "B")
    assert ordering_str(("B", "A")) == "B<A"
    with pytest.raises(ValueError):
        parse_ordering("A<A", ("A", "B"))


def test_text_roundtrip_exact_and_float():
    s = build_scheme(2, "SL", 11)
    params = {"w_1": 0.25686635900587695859, "w_2": 0.67762403230558747362}
    text = scheme_to_text(s, params, ordering="A<B")
    s2, p2, ordering = scheme_from_text(text)
    assert (s2.n, s2.family, s2.m) == (2, "SL", 11)
    assert ordering == ("A", "B")
    assert p2["w_1"] == params["w_1"] and isinstance(p2["w_1"], float)
    assert p2["w_3"] == pytest.approx(1 - 2 * (params["w_1"] + params["w_2"]))

    s = build_scheme(3, "N", 3)
    text = scheme_to_text(s, {})
    assert "a_1 = 1" in text and "ordering" not in text
    _, p3, ordering = scheme_from_text(text)
    assert ordering is None and p3["c_1"] == Fraction(1)


def test_text_parse_errors():
    with pytest.raises(ValueError, match="missing"):
        scheme_from_text("family = S\nm = 5\n")
    with pytest.raises(ValueError, match="unknown parameter"):
        scheme_from_text("n = 2\nfamily = S\nm = 5\nq_9 = 1\n")
    with pytest.raises(ValueError, match="malformed"):
        scheme_from_text("n = 2\nfamily = S\nm = 5\nnonsense\n")


@pytest.mark.parametrize("text,match", [
    ("n = 2\nfamily = S\nm = 5\nq_9 = 1\n", "line 4: unknown parameter"),
    ("n = 2\nfamily = S\nm = 5\nnonsense\n", "line 4: malformed"),
    ("n = 2\nfamily = SL\nm = 11\nw_1 = 1/0\n", "line 4: '1/0' is not a finite number"),
    ("n = 2\nfamily = SL\nm = 11\n\nw_1 = x\n", "line 5: 'x' is not a finite number"),
    ("n = 2\nfamily = SL\nm = 11\nw_1 = nan\n", "line 4: 'nan' is not a finite"),
    ("n = 2\nfamily = SL\nm = 11\nw_2 = -inf\n", "line 4: '-inf' is not a finite"),
    ("n = 2\nfamily = SL\nm = 11\nw_1 = 1e999\n", "line 4: '1e999' is not a finite"),
])
def test_text_parse_errors_name_the_line(text, match):
    with pytest.raises(ValueError, match=match):
        scheme_from_text(text)


@pytest.mark.parametrize("text,match", [
    ("n = 2\nfamily = S\nm = 5\na_1 = 0.1\na_1 = 0.3\n", "line 5: field 'a_1' repeats line 4"),
    ("n = 2\nfamily = S\nn = 3\nm = 5\n", "line 3: field 'n' repeats line 1"),
])
def test_text_repeated_field_names_both_lines(text, match):
    with pytest.raises(ValueError, match=match):
        scheme_from_text(text)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_epsilon_rejects_non_finite_parameters(value):
    with pytest.raises((RuntimeError, ValueError)):
        epsilon(build_scheme(2, "S", 5), {"a_1": value}, 2)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameter_is_named_before_any_product(value, monkeypatch):
    calls = _counted_products(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="'a_1'"):
            epsilon(build_scheme(2, "S", 5), {"a_1": value}, 2)
    assert caught == []
    assert calls == []


# b_1 is a free slot of S m9 and b_2 = 1/2 - b_1 its closure
@pytest.mark.parametrize("value,message", [
    (np.float32("nan"), "'b_1' is nan, not a finite number"),
    (np.float64("-inf"), "'b_1' is -inf, not a finite number"),
    ("-0.36", "'b_1' is '-0.36', not a real number"),
    (None, "'b_1' is None, not a real number"),
    (True, "'b_1' is True, not a real number"),
    (np.bool_(False), "'b_1' is np.False_, not a real number"),
    (-0.36 + 0j, "'b_1' is (-0.36+0j), not a real number"),
], ids=["float32-nan", "float64-inf", "str", "None", "bool", "numpy-bool", "complex"])
def test_bad_slot_value_is_named(value, message):
    e = CATALOG["n2-p4-s-m9-opt"]
    with pytest.raises(ValueError, match=re.escape(message)):
        epsilon(e.scheme, {**e.params.values, "b_1": value}, e.order)


def test_numpy_slot_values_are_python_numbers():
    e = CATALOG["n2-p4-s-m9-opt"]
    want = epsilon(e.scheme, e.params, e.order)
    got = epsilon(e.scheme, {k: np.float64(v) for k, v in e.params.values.items()}, e.order)
    assert got == want and got.epsilon.hex() == want.epsilon.hex()
    narrow = e.scheme.resolve_slots({k: np.float32(v) for k, v in e.params.values.items()})
    assert [type(v) for v in narrow.values()] == [float] * 5
    assert {k: narrow[k] for k in e.params.values} == {
        k: float(np.float32(v)) for k, v in e.params.values.items()}
    exact = e.scheme.resolve_slots({"a_1": np.int64(1), "b_1": Fraction(1, 3), "a_2": np.int8(-1)})
    assert [(type(v), v) for v in exact.values()] == [
        (int, 1), (Fraction, Fraction(1, 3)), (int, -1), (Fraction, Fraction(1, 6)),
        (Fraction, Fraction(1))]


@pytest.mark.parametrize("check", [epsilon, verify_order], ids=lambda f: f.__name__)
def test_symbolic_params_rejected_before_any_product(check, monkeypatch):
    calls = _counted_products(monkeypatch)
    with pytest.raises(ValueError, match=r"numeric parameters.*log_scheme\(scheme, None, D\)"):
        check(build_scheme(2, "S", 5), None, 2)
    assert calls == []


def test_param_assignment_flags():
    assert ParamAssignment({"w_1": Fraction(1)}).is_exact()
    assert not ParamAssignment({"w_1": 0.5}).is_exact()


def test_describe_mentions_all_factors():
    s = build_scheme(3, "SE", 9)
    text = s.describe()
    assert text.count("exp[") == 9
    assert "closures:" in text


# ------------------------------------- Hall coordinates against matrices
# The leading error term E of a scheme of order p, summed from its Hall
# coordinates with each Hall element as nested matrix commutators of
# random generators, against the matrix logarithm of the scheme's product
# S(t): (log S(t) - t H) / t^(p+1) = E + O(t), extrapolated from moderate
# steps.  The matrices are held in extended precision: in double, the
# rounding of log S(t), divided by t^7, is as large as E itself for the
# p = 6 entries at the smaller steps.

_LD = np.longdouble
_DIM = 6
_STEPS = (0.2, 0.1, 0.05, 0.025)


def _symmetric_generator(rng):
    """(Q, lam) of a random real symmetric generator Q diag(lam) Q^T of
    unit 2-norm: Q a product of Householder reflections, orthogonal to
    extended precision, and lam uniform in [-1, 1] with one entry +-1."""
    q = np.eye(_DIM, dtype=_LD)
    for _ in range(_DIM):
        v = rng.standard_normal(_DIM).astype(_LD)
        q = q - (2 / (v @ v)) * np.outer(q @ v, v)
    lam = rng.uniform(-1.0, 1.0, _DIM)
    lam[rng.integers(_DIM)] = rng.choice((-1.0, 1.0))
    return q, lam.astype(_LD)


def _log_one_plus(p):
    """log(I + p) = 2 atanh(z), z = p (2I + p)^-1, by its power series;
    the inverse is refined from double by two Newton-Schulz steps."""
    a, eye = 2 * np.eye(_DIM, dtype=_LD) + p, np.eye(_DIM, dtype=_LD)
    inv = np.linalg.inv(a.astype(float)).astype(_LD)
    for _ in range(2):
        inv = inv @ (2 * eye - a @ inv)
    z = inv @ p
    z2, term, out = z @ z, z, np.zeros_like(p)
    for j in range(40):
        out = out + term / (2 * j + 1)
        term = term @ z2
    return 2 * out


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_leading_error_term_matches_the_matrix_logarithm(name):
    """E from ``log_scheme``'s degree-(p+1) coordinates matches the
    measured quotient q(t) = (log S(t) - t H) / t^(p+1), Richardson-
    extrapolated from the step pairs (t, t/2) with q(t/2) weighted by
    k = 4 for a palindromic factor list (q is even in t) and 2 otherwise:
    R_i from steps i and i + 1.  R_1's error is bounded by the differences
    of the step pairs themselves: |R_0 - R_1| / (k^2 - 1), the Richardson
    estimate of its truncation, plus |R_1 - R_2|, which holds its rounding.
    The bound is below |E|, so E is told from 0 and from -E."""
    entry = CATALOG[name]
    scheme, p = entry.scheme, entry.order
    rng = np.random.default_rng(7)
    gens = [_symmetric_generator(rng) for _ in scheme.letters]
    mats = [(q * lam) @ q.T for q, lam in gens]
    values = scheme.resolve_slots(entry.params)
    factors = [(g, _LD(float(e.evaluate(values)))) for g, e in scheme.factors]
    # the product's own degree-1 part
    h = sum(c * mats[g] for g, c in factors)

    @functools.cache
    def bracket(e):
        if isinstance(e, int):
            return mats[e]
        x, y = bracket(e[0]), bracket(e[1])
        return x @ y - y @ x

    top = log_scheme(scheme, entry.params, p + 1).coords_at_degree(p + 1)
    e = sum((_LD(float(c)) * bracket(el) for el, c in top.items()), np.zeros((_DIM, _DIM), _LD))

    def quotient(t):
        t = _LD(t)
        s = np.zeros((_DIM, _DIM), _LD)  # S(t) - I
        for g, c in factors:
            q, lam = gens[g]
            f = (q * np.expm1(t * c * lam)) @ q.T
            s = s + f + s @ f
        return (_log_one_plus(s) - t * h) / t ** (p + 1)

    k = 4 if factors == factors[::-1] else 2
    qs = [quotient(t) for t in _STEPS]
    r = [(k * b - a) / (k - 1) for a, b in zip(qs, qs[1:])]

    def norm(m):
        return np.linalg.norm(m.astype(float), 2)

    bound = norm(r[0] - r[1]) / (k * k - 1) + norm(r[1] - r[2])
    assert norm(e - r[1]) <= bound < norm(e)
