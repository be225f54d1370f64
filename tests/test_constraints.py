"""Constraint extraction, Groebner analysis, and published freedom counts."""

import hashlib
from fractions import Fraction

import pytest
import sympy

from liesplit import _dense, constraints, schemes
from liesplit.catalog import catalog
from liesplit.constraints import (
    ConstraintSystem,
    GroebnerBasis,
    analyze_freedom,
    buchberger,
    symbolic_log,
)
from liesplit.free_algebra import NCSeries, make_alphabet
from liesplit.hall import build_hall_basis
from liesplit.polynomials import GREVLEX, MultiPoly
from liesplit.schemes import _basis_for, _order_conditions, _product_log, build_scheme, log_scheme

from _naive import n_order_conditions

CATALOG = catalog()


def _var(name, names):
    return MultiPoly.variable(name, names)


# ------------------------------------------------------------- counting
# Condition counts per degree for every (family, p) pair inside the size
# guards, against the published N^H_p accounting: cumulative Witt dimensions
# for type N, odd-degree Witt dimensions for the symmetric words, and the
# graded-algebra dimensions d_L / d_E for the leapfrog and Euler templates.

COUNT_CASES = [
    (2, "N", 7, 1, {1: 2}),
    (2, "N", 7, 2, {1: 2, 2: 1}),
    (2, "N", 7, 3, {1: 2, 2: 1, 3: 2}),
    (2, "N", 7, 4, {1: 2, 2: 1, 3: 2, 4: 3}),
    (2, "N", 7, 5, {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}),
    (2, "S", 9, 1, {1: 2}),
    (2, "S", 9, 3, {1: 2, 3: 2}),
    (2, "S", 9, 4, {1: 2, 3: 2}),
    (2, "S", 9, 5, {1: 2, 3: 2, 5: 6}),
    (2, "SL", 15, 2, {1: 1}),
    (2, "SL", 15, 4, {1: 1, 3: 1}),
    (2, "SL", 15, 6, {1: 1, 3: 1, 5: 2}),
    (2, "SL", 15, 8, {1: 1, 3: 1, 5: 2, 7: 4}),
    (3, "N", 7, 1, {1: 3}),
    (3, "N", 7, 2, {1: 3, 2: 3}),
    (3, "N", 7, 3, {1: 3, 2: 3, 3: 8}),
    (3, "S", 9, 1, {1: 3}),
    (3, "S", 9, 3, {1: 3, 3: 8}),
    (3, "S-abc", 11, 1, {1: 3}),
    (3, "S-abc", 11, 3, {1: 3, 3: 8}),
    (3, "SE", 21, 2, {1: 1}),
    (3, "SE", 21, 4, {1: 1, 3: 2}),
    (3, "SE", 21, 6, {1: 1, 3: 2, 5: 6}),
    (3, "SE", 21, 8, {1: 1, 3: 2, 5: 6, 7: 18}),
    (3, "SL", 17, 2, {1: 1}),
    (3, "SL", 17, 4, {1: 1, 3: 1}),
    (3, "SL", 17, 6, {1: 1, 3: 1, 5: 2}),
]


# sha256 of symbolic_log(build_scheme(n, family, m), p).to_text(), taken
# before the exact kernels summed their products with polynomials.dot
CONDITION_TEXT_SHA256 = {
    (2, "N", 7, 1): "4b376a0f6ce0d9b94b1bc3a24e07656660f60e9fea52846a539607f998889317",
    (2, "N", 7, 2): "b1cf6524e3f74a9b7186d73062df98b7c70f21eb75df5ff78a6e1bb22de51406",
    (2, "N", 7, 3): "751fd27e40f9b22cc9462f5021e73bf7a036756bc936ea5d1544686149563467",
    (2, "N", 7, 4): "d4ee52565a51f891b4a45d1fef6b00b5485beed14d03704b0c27b62b03e844cc",
    (2, "N", 7, 5): "03bb317717fc55c42bf53c2255e80e5aea9ee041761cd75a106cfe810b648d9a",
    (2, "S", 9, 1): "de6db84d02bb82100ba6c8a8e10c393f3e841e113aca39925009fd480ac1d215",
    (2, "S", 9, 3): "bca420ee6ae6d7e8af62b8561a024112a3284aaf94cf03c12013104eda855497",
    (2, "S", 9, 4): "bca420ee6ae6d7e8af62b8561a024112a3284aaf94cf03c12013104eda855497",
    (2, "S", 9, 5): "9223599a5df5d240772c0ec40367075ef0b18e749de0b75fdc853ee53b87bc5c",
    (2, "SL", 15, 2): "749468901b5553ca8463d3cea060332ee4ab3d97fa69b92c9799cc23a986f81d",
    (2, "SL", 15, 4): "249fbc510a604317bc98107f0839918b4579b7f7e2f39c38409af4cb9fdf9239",
    (2, "SL", 15, 6): "9e4a4d2e0aeea75a5f3e1075543110d4da3478e21452059cc9021e77f922a1b1",
    (2, "SL", 15, 8): "db9fa7647bbd8fc758ac536638c8525c313d28ef5792b8cf7278c6a5307d3339",
    (3, "N", 7, 1): "50655f48a51ded492ebbac98181f1fbfffc78f417599f2699e9f2283c95d7151",
    (3, "N", 7, 2): "a33b88f895545076acdc386c5410c00bc1360dd0c84465ec29b142b66a82ef4a",
    (3, "N", 7, 3): "d821de7304e4e248ef599cfc565b3f236e1e29bf7acc0c572600948e348e4fec",
    (3, "S", 9, 1): "7afb33bfa20b164c2e9ddcb6cf7fa3293f591c24d4c01c183c0f10e571ac8e4e",
    (3, "S", 9, 3): "3005ad181cf3201ab0aa6d1deba05c9863ec0e6377a62e527ebe6c94fd1a5f26",
    (3, "S-abc", 11, 1): "e3b5e1d7bb40a6c2139571a03eaa1a26fec1e0aca6c43fb001f10be999736211",
    (3, "S-abc", 11, 3): "edf4fa748bbf9bc69c2a837331e98c642e920e0e34194f19166a52251b61aa4a",
    (3, "SE", 21, 2): "f0b63ba827014e042672dbe69939914228e00000ac597668b2811179ef422236",
    (3, "SE", 21, 4): "cbb0d13a8f7185a93322bf821347b159ed224bb130bec2968245fd5dd2eade8d",
    (3, "SE", 21, 6): "a3493ac694fbbe9e039f9bf2357677a48bda09243fefea1990ce172676e69e1e",
    (3, "SE", 21, 8): "2dbc5878b08c72b0924dc5fc18ecc37d2964d72b1f7e95a553bb24de13de2a67",
    (3, "SL", 17, 2): "3d2751a4ae9abb27c1585c8abcbf28b4ff86b0c473dd7155b1acd2b442e8d389",
    (3, "SL", 17, 4): "c22786bde1c7276761dc3ee1f6f73d49d062b4cea85257412fc40d845cd00942",
    (3, "SL", 17, 6): "854f0e7e967b6b912bfe8620af9a08d5e60cb7f8746e3a333b638a5ac462f8ce",
}


@pytest.mark.parametrize(
    "n,family,m,p,expected", COUNT_CASES,
    ids=[f"n{n}-{fam}-m{m}-p{p}" for n, fam, m, p, _ in COUNT_CASES])
def test_condition_counts(n, family, m, p, expected):
    """Counts per degree, and the text of the system pinned byte for byte."""
    cs = symbolic_log(build_scheme(n, family, m), p)
    assert cs.counts_by_degree() == expected
    assert len(cs.polys) == sum(expected.values())
    assert len(cs.polys) == len(cs.hall_labels) == len(cs.degrees)
    text = cs.to_text().encode()
    assert hashlib.sha256(text).hexdigest() == CONDITION_TEXT_SHA256[n, family, m, p]


def test_first_order_conditions_type_n():
    cs = symbolic_log(build_scheme(2, "N", 7), 1)
    v = cs.variables
    sum_a = sum((_var(s, v) for s in v if s.startswith("a")),
                MultiPoly.constant(0, v))
    sum_b = sum((_var(s, v) for s in v if s.startswith("b")),
                MultiPoly.constant(0, v))
    assert set(cs.polys) == {sum_a - 1, sum_b - 1}


def test_first_order_condition_leapfrog_is_weighted_sum():
    # palindromic stage weights w1 w2 w3 w4 w3 w2 w1: outer weights count twice
    cs = symbolic_log(build_scheme(2, "SL", 15), 2)
    v = cs.variables
    expected = (2 * _var("w_1", v) + 2 * _var("w_2", v)
                + 2 * _var("w_3", v) + _var("w_4", v) - 1)
    assert cs.polys == (expected,)


@pytest.mark.parametrize("n,family,m,p", [
    (2, "S", 9, 5), (2, "SL", 15, 8), (3, "S", 9, 3), (3, "SE", 21, 6),
])
def test_symmetric_schemes_emit_no_even_degree_conditions(n, family, m, p):
    cs = symbolic_log(build_scheme(n, family, m), p)
    assert all(d % 2 == 1 for d in cs.degrees)


# ------------------------------------------------------------ size guards

@pytest.mark.parametrize("n,family,m,p,message", [
    (2, "N", 7, 6, "capped at degree 5"),
    (3, "N", 7, 4, "capped at degree 3"),
    (2, "SL", 15, 10, "graded expansion capped"),
    (2, "S", 17, 4, "exceed the symbolic cap"),
])
def test_size_guards(n, family, m, p, message):
    with pytest.raises(ValueError, match=message):
        symbolic_log(build_scheme(n, family, m), p)


# ------------------------------------------------------------- buchberger

def test_buchberger_single_generator():
    v = ("x",)
    x = _var("x", v)
    gb = buchberger([x], GREVLEX)
    assert list(gb.polys) == [x]
    assert not gb.is_trivial


def test_buchberger_linear_system():
    v = ("x", "y")
    x, y = _var("x", v), _var("y", v)
    gb = buchberger([x + y - 1, x - y], GREVLEX)
    assert set(gb.polys) == {x - Fraction(1, 2), y - Fraction(1, 2)}


def test_buchberger_zero_dimensional():
    v = ("x", "y")
    x, y = _var("x", v), _var("y", v)
    gb = buchberger([x ** 2 - 2, y - x], GREVLEX)
    assert set(gb.polys) == {x - y, y ** 2 - 2}


def test_power_eliminant_of_a_separating_form():
    # the solutions (1, 1) and (-1, 1) share y, whose eliminant y - 1 falls
    # short of the two solutions; x + 2y takes the values 3 and 1 there
    v = ("x", "y")
    x, y = _var("x", v), _var("y", v)
    gb = buchberger([x ** 2 - 1, y - 1], GREVLEX)
    assert constraints._power_eliminant(gb, y, "y", 2) == _var("y", ("y",)) - 1
    t = _var("t", ("t",))
    assert constraints._power_eliminant(gb, x + 2 * y, "t", 2) == t ** 2 - 4 * t + 3


def test_buchberger_inconsistent_system_is_trivial():
    v = ("x",)
    x = _var("x", v)
    gb = buchberger([x, x - 1], GREVLEX)
    assert gb.is_trivial


def test_ideal_membership():
    # every input condition must reduce to zero against its Groebner basis
    for scheme, p in [(build_scheme(2, "S", 9), 4),
                      (build_scheme(3, "SL", 17), 4)]:
        cs = symbolic_log(scheme, p)
        gb = buchberger(cs.polys, GREVLEX)
        assert all(not gb.reduce(poly) for poly in cs.polys)


def test_groebner_basis_is_deterministic():
    cs = symbolic_log(build_scheme(2, "S", 9), 4)
    a = buchberger(cs.polys, GREVLEX)
    b = buchberger(cs.polys, GREVLEX)
    assert list(a.polys) == list(b.polys)


# -------------------------------------------------------- freedom analysis

def test_freedom_one_parameter_family():
    # order 4 with five slots leaves a one-parameter family, and b_1 is a
    # valid choice of free parameter (as is any other single slot here)
    cs = symbolic_log(build_scheme(2, "S", 9), 4)
    report = analyze_freedom(cs)
    assert report.free_count == 1
    assert not report.zero_dimensional
    assert "b_1" in report.suggested_free_slots
    assert report.solution_count is None
    assert report.real_solution_count is None
    assert report.eliminant is None


def test_freedom_two_complex_solutions():
    # 12 w^2 - 6 w + 1 = 0 has no real roots: no real scheme of this shape
    cs = symbolic_log(build_scheme(3, "SL", 17), 4)
    report = analyze_freedom(cs)
    assert report.zero_dimensional
    assert report.free_count == 0
    assert report.solution_count == 2
    assert report.real_solution_count == 0
    expected = MultiPoly(("w_2",), {(2,): Fraction(1),
                                    (1,): Fraction(-1, 2),
                                    (0,): Fraction(1, 12)})
    assert report.eliminant == expected


def test_freedom_eliminate_to_other_slot():
    cs = symbolic_log(build_scheme(3, "SL", 17), 4)
    report = analyze_freedom(cs, eliminate_to="w_1")
    assert report.eliminant.used_variables() == ("w_1",)
    assert report.real_solution_count == 0
    with pytest.raises(ValueError, match="unknown slot"):
        analyze_freedom(cs, eliminate_to="w_9")


@pytest.mark.parametrize("family", ["S", "SL"])
def test_freedom_of_the_unit_ideal(family):
    """Three factors cannot reach order 4: the conditions generate the
    unit ideal, a zero-dimensional variety with no point."""
    report = analyze_freedom(symbolic_log(build_scheme(2, family, 3), 4))
    assert report.groebner.is_trivial
    assert (report.free_count, report.suggested_free_slots) == (0, ())
    assert report.zero_dimensional
    assert (report.solution_count, report.real_solution_count) == (0, 0)
    assert report.eliminant is None and report.standard_monomials == ()
    assert report.real_solutions == ()


def test_freedom_three_real_solutions():
    cs = symbolic_log(build_scheme(2, "SL", 15), 6)
    report = analyze_freedom(cs)
    assert report.zero_dimensional
    assert report.solution_count == 39
    assert report.real_solution_count == 3


def test_standard_monomials_span_the_quotient():
    cs = symbolic_log(build_scheme(2, "SL", 15), 6)
    report = analyze_freedom(cs)
    basis = report.standard_monomials
    assert len(basis) == len(set(basis)) == report.solution_count == 39
    assert (0, 0, 0, 0) in basis
    # a standard monomial is its own normal form
    for e in basis:
        mono = MultiPoly(cs.variables, {e: 1})
        assert report.groebner.reduce(mono) == mono
    assert analyze_freedom(symbolic_log(build_scheme(2, "S", 9), 4)).standard_monomials == ()


def _hand_system(polys, variables):
    return ConstraintSystem(None, 0, "by hand", variables, tuple(polys),
                            tuple(range(len(polys))), (0,) * len(polys))


def test_derogatory_last_slot_counts_on_a_linear_form():
    # the solutions (1, 1) and (-1, 1) share y, whose eliminant y - 1 has
    # one root: both solutions are counted and read on x + 2y instead
    v = ("x", "y")
    x, y = _var("x", v), _var("y", v)
    report = analyze_freedom(_hand_system([x ** 2 - 1, y - x ** 2], v))
    assert report.eliminant == _var("y", ("y",)) - 1
    assert (report.solution_count, report.real_solution_count) == (2, 2)
    got = sorted(report.real_solutions)
    assert len(got) == 2
    for point, want in zip(got, [(-1.0, 1.0), (1.0, 1.0)]):
        assert max(abs(a - b) for a, b in zip(point, want)) <= 1e-12


@pytest.mark.parametrize("polys, counts", [
    (lambda x, y: [x ** 2, y ** 2], (4, 1)),
    # (3, 9) is double: float eigenvalues of its defective block can split
    # off the real axis and drop a real solution from the readings
    (lambda x, y: [(x - 3) ** 2 * (x + 1), y - x ** 2], (3, 2)),
], ids=["fourfold-origin", "double-root"])
def test_multiple_solution_has_no_readings(polys, counts):
    v = ("x", "y")
    report = analyze_freedom(_hand_system(polys(_var("x", v), _var("y", v)), v))
    assert (report.solution_count, report.real_solution_count) == counts
    assert report.real_solutions is None


def test_real_solutions_of_the_sl15_p6_conditions():
    cs = symbolic_log(build_scheme(2, "SL", 15), 6)
    report = analyze_freedom(cs)
    assert len(report.real_solutions) == report.real_solution_count == 3
    for point in report.real_solutions:
        values = dict(zip(cs.variables, point))
        assert max(abs(r) for r in cs.evaluate(values)) <= 1e-9
    entry = CATALOG["n2-p6-sl-m15-yoshida"]
    yoshida = entry.scheme.resolve_slots(entry.params)
    assert any(max(abs(a - float(yoshida[v])) for v, a in zip(cs.variables, point)) <= 1e-9
               for point in report.real_solutions)
    assert analyze_freedom(symbolic_log(build_scheme(2, "S", 9), 4)).real_solutions is None
    assert analyze_freedom(symbolic_log(build_scheme(3, "SL", 17), 4)).real_solutions == ()


@pytest.mark.parametrize("template, p", [((2, "S", 9), 4), ((2, "SL", 15), 6)],
                         ids=["s9-p4-one-parameter", "sl15-p6-zero-dimensional"])
def test_unknown_elimination_slot_fails_before_buchberger(monkeypatch, template, p):
    cs = symbolic_log(build_scheme(*template), p)

    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger ran before the slot was checked")

    monkeypatch.setattr(constraints, "buchberger_basis", refuse)
    with pytest.raises(ValueError, match="unknown slot 'zz'"):
        analyze_freedom(cs, eliminate_to="zz")


def test_analysis_is_memoized_per_system(monkeypatch):
    constraints._analyze.cache_clear()
    calls = []
    real = constraints.buchberger_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constraints, "buchberger_basis", counting)
    scheme = build_scheme(3, "SL", 17)
    first = analyze_freedom(symbolic_log(scheme, 4))
    # an equal system from a second symbolic_log call, and the default
    # slot named explicitly, hit the same entry
    assert analyze_freedom(symbolic_log(scheme, 4), eliminate_to="w_2") is first
    assert len(calls) == 1
    assert analyze_freedom(symbolic_log(scheme, 4), eliminate_to="w_1") is not first



def test_second_slot_reuses_the_basis(monkeypatch):
    """Only the eliminant, the separating form and the readings depend on
    the slot: a second slot runs no second Buchberger, and each report
    equals an analysis of that slot alone."""
    cs = symbolic_log(build_scheme(2, "SL", 15), 6)
    constraints._analyze.cache_clear()
    calls = []
    real = constraints.buchberger_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constraints, "buchberger_basis", counting)
    reports = {slot: analyze_freedom(cs, eliminate_to=slot) for slot in ("w_4", "w_1")}
    assert len(calls) == 1
    assert reports["w_1"].eliminant.variables == ("w_1",)
    for slot, report in reports.items():
        constraints._analyze.cache_clear()
        alone = analyze_freedom(cs, eliminate_to=slot)
        assert alone is not report and alone == report
    assert len(calls) == 3

# symbolic_log(build_scheme(2, "SL", 15), 6).to_text(), pinned byte for byte
SL15_P6_CONDITIONS = (
    'variables: w_1 w_2 w_3 w_4\n'
    'degree 1  0: 2*w_1 + 2*w_2 + 2*w_3 + w_4 - 1\n'
    'degree 3  1: 2*w_1^3 + 2*w_2^3 + 2*w_3^3 + w_4^3\n'
    'degree 5  2: 2*w_1^5 + 2*w_2^5 + 2*w_3^5 + w_4^5\n'
    'degree 5  (0, (0, 1)): 1/3*w_1^4*w_2 + 2/3*w_1^3*w_2^2'
    ' - 1/3*w_1^2*w_2^3 - 2/3*w_1*w_2^4 + 1/3*w_1^4*w_3 + 4/3*w_1^3*w_2*w_3'
    ' - 2/3*w_1*w_2^3*w_3 + 1/3*w_2^4*w_3 + 2/3*w_1^3*w_3^2'
    ' + 2/3*w_2^3*w_3^2 - 1/3*w_1^2*w_3^3 - 2/3*w_1*w_2*w_3^3'
    ' - 1/3*w_2^2*w_3^3 - 2/3*w_1*w_3^4 - 2/3*w_2*w_3^4 + 1/6*w_1^4*w_4'
    ' + 2/3*w_1^3*w_2*w_4 - 1/3*w_1*w_2^3*w_4 + 1/6*w_2^4*w_4'
    ' + 2/3*w_1^3*w_3*w_4 + 2/3*w_2^3*w_3*w_4 - 1/3*w_1*w_3^3*w_4'
    ' - 1/3*w_2*w_3^3*w_4 + 1/6*w_3^4*w_4 + 1/6*w_1^3*w_4^2'
    ' + 1/6*w_2^3*w_4^2 + 1/6*w_3^3*w_4^2 - 1/6*w_1^2*w_4^3'
    ' - 1/3*w_1*w_2*w_4^3 - 1/6*w_2^2*w_4^3 - 1/3*w_1*w_3*w_4^3'
    ' - 1/3*w_2*w_3*w_4^3 - 1/6*w_3^2*w_4^3 - 1/6*w_1*w_4^4 - 1/6*w_2*w_4^4'
    ' - 1/6*w_3*w_4^4\n'
)


def test_sl15_p6_conditions_are_pinned():
    assert symbolic_log(build_scheme(2, "SL", 15), 6).to_text() == "".join(SL15_P6_CONDITIONS)


def test_sl15_p6_eliminant_is_pinned():
    """The eliminant in w_4 has degree 39 and three real roots, by our
    Sturm chain and by sympy's root count."""
    report = analyze_freedom(symbolic_log(build_scheme(2, "SL", 15), 6))
    name, coeffs = report.eliminant.univariate_coefficients()
    assert (name, len(coeffs) - 1, coeffs[-1]) == ("w_4", 39, 1)
    t = sympy.symbols("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t)
    assert poly.count_roots() == report.real_solution_count == 3


# ------------------------------------------------- numeric agreement

def test_conditions_vanish_at_catalog_parameters():
    cases = [("n2-p4-s-m9-mclachlan", 4), ("n3-p4-se-m17-opt", 4)]
    for name, p in cases:
        entry = CATALOG[name]
        cs = symbolic_log(entry.scheme, p)
        values = entry.scheme.resolve_slots(entry.params)
        residuals = cs.evaluate(values)
        assert max(abs(r) for r in residuals) < 5e-12, name


def test_conditions_vanish_exactly_for_exact_parameters():
    for name, p in [("n2-p2-sl-m3-leapfrog", 2), ("n3-p2-sl-m5-leapfrog", 2),
                    ("n3-p1-n-m3-euler", 1)]:
        entry = CATALOG[name]
        cs = symbolic_log(entry.scheme, p)
        values = entry.scheme.resolve_slots(entry.params)
        assert all(isinstance(v, (int, Fraction)) for v in values.values())
        residuals = cs.evaluate(values)
        assert residuals == [0] * len(cs.polys), name


def test_symbolic_matches_numeric_coordinates():
    # evaluating the condition polynomials reproduces the numerically
    # computed Hall coordinates of log U, element by element
    entry = CATALOG["n2-p4-s-m9-mclachlan"]
    cs = symbolic_log(entry.scheme, 4)
    values = entry.scheme.resolve_slots(entry.params)
    series = log_scheme(entry.scheme, entry.params, 4)
    for d, label, poly in zip(cs.degrees, cs.hall_labels, cs.polys):
        numeric = series.coords.get(label, 0.0) - (1 if d == 1 else 0)
        assert abs(poly.evaluate(values) - numeric) < 1e-12


# ------------------------------------------------------------------ export

def test_to_text_round_trippable_form():
    cs = symbolic_log(build_scheme(2, "S", 9), 4)
    text = cs.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "variables: " + " ".join(cs.variables)
    assert len(lines) == 1 + len(cs.polys)
    assert all(line.startswith("degree ") for line in lines[1:])


def test_groebner_basis_type():
    cs = symbolic_log(build_scheme(2, "S", 9), 4)
    report = analyze_freedom(cs)
    assert isinstance(report.groebner, GroebnerBasis)
    assert report.groebner.monomial_order is GREVLEX


# ------------------------------------------------------------ the reader
# ``schemes._order_conditions`` reads every pipeline's product-log; the
# oracle reads it through a ``LieSeries`` dict instead.

def _word_case(template, params, p):
    scheme = build_scheme(*template)
    series = _product_log(scheme, params, p)
    return series, _basis_for(scheme, series, None), p


def _graded_case(template, p):
    return (*constraints._graded_log(build_scheme(*template).without_closures(), p), p)


def _hand_case(words, p):
    alphabet = make_alphabet("AB")
    return NCSeries.from_words(alphabet, p, words), build_hall_basis(alphabet, p), p


_X = MultiPoly.variable("x", ("x",))
READER_CASES = {
    "word-polynomial": lambda: _word_case((2, "N", 5), None, 3),
    "leapfrog-polynomial": lambda: _graded_case((2, "SL", 11), 5),  # degree 2 has no element
    "euler-polynomial": lambda: _graded_case((3, "SE", 9), 4),
    "word-fraction": lambda: _word_case((2, "S", 7), {"a_1": Fraction(1, 3), "b_1": Fraction(2, 5)}, 4),
    "word-float": lambda: _word_case((2, "S", 9), CATALOG["n2-p4-s-m9-opt"].params, 5),
    "fraction-top-absent": lambda: _hand_case({(0,): Fraction(1), (1,): Fraction(1)}, 3),
    "float-first-absent": lambda: _hand_case({(0, 1): 0.5, (1, 0): -0.5}, 3),
    # x [A, [A, B]]: the words of [B, [A, B]] hold int zeros, which the
    # exact solve turns into Fraction(0), not the zero polynomial
    "polynomial-zero-coordinate": lambda: _hand_case(
        {(0,): _X, (0, 0, 1): _X, (0, 1, 0): -2 * _X, (1, 0, 0): _X}, 3),
}


def _typed(conditions):
    return {d: [(type(c), c.hex() if isinstance(c, float) else c) for c in column]
            for d, column in conditions.items()}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_order_conditions_match_the_lie_series_route(case):
    series, basis, p = READER_CASES[case]()
    got = _order_conditions(series, basis, p)
    assert list(got) == list(range(1, p + 1))
    assert _typed(got) == _typed(n_order_conditions(series, basis, p))


# A Lie element at a skipped even degree of each pipeline.  The leapfrog
# alphabet Z1, Z3, ... has none at degree 2 ([Z1, Z1] = 0): its first is
# [Z1, Z3] at degree 4.
@pytest.mark.parametrize("template, p, degree, words", [
    ((2, "S", 5), 3, 2, {(0, 1): 1, (1, 0): -1}),      # [A, B]
    ((3, "SE", 9), 3, 2, {(1,): 1}),                   # E2
    ((2, "SL", 11), 5, 4, {(0, 1): 1, (1, 0): -1}),    # [Z1, Z3]
], ids=["word", "euler", "leapfrog"])
def test_symbolic_log_rejects_an_even_degree_term(monkeypatch, template, p, degree, words):
    real = _dense.dense_product_log

    def perturbed(alphabet, D, factors):
        series = real(alphabet, D, factors)
        one = series.unit()
        return series + NCSeries.from_words(alphabet, D, {w: c * one for w, c in words.items()})

    monkeypatch.setattr(_dense, "dense_product_log", perturbed)
    monkeypatch.setattr(schemes, "dense_product_log", perturbed)
    with pytest.raises(RuntimeError, match=f"degree-{degree} terms should vanish identically"):
        symbolic_log(build_scheme(*template), p)


# the templates whose conditions the ``design`` benchmark forms
DESIGN_TEMPLATES = [(2, "N", 7, 5), (2, "S", 9, 5), (2, "SL", 15, 8), (3, "S", 9, 3),
                    (3, "SL", 17, 6), (3, "SE", 21, 6), (2, "S", 9, 4), (3, "SL", 17, 4),
                    (2, "SL", 15, 6)]


def test_symbolic_log_reads_no_lie_series(monkeypatch):
    calls = []
    for owner, name in [(schemes, "lie_coordinates"), (constraints, "lie_coordinates"),
                        (schemes, "log_scheme"), (constraints, "log_scheme")]:
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(owner, name, counting)
    for n, family, m, p in DESIGN_TEMPLATES:
        assert symbolic_log(build_scheme(n, family, m), p).polys
    assert calls == []
