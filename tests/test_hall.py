"""Hall bases: Witt counts, element structure, expansion, coordinates."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from sympy import divisors
from sympy.functions.combinatorial.numbers import mobius

import liesplit
from liesplit import (NCSeries, exp, free_algebra, hall, log, make_alphabet, mul,
                      series_from_generator)
from liesplit.catalog import catalog
from liesplit.free_algebra import degree_words
from liesplit.polynomials import MultiPoly
from liesplit.schemes import epsilon
from liesplit.hall import (
    HallBasis,
    build_hall_basis,
    expand_hall,
    hall_degree,
    hall_str,
    _exact_solver,
    _expansion_matrix,
    _float_solver,
    _gather,
    _invert_rational,
    _mobius,
    lie_coordinates,
    ordering_block,
    witt_dimension,
)

from _naive import (HallOrder, n_commutator, n_exact_solver, n_expand_words, n_expansion,
                    n_expansion_matrix, n_gather, n_hall_basis, n_ordering_block, n_to_series)

AB = make_alphabet("AB")
ABC = make_alphabet("ABC")


def graded_dims_oracle(gen_degrees, D):
    """Generalized Witt dimensions from the generating-function identity

        prod_k (1 - t^k)^(-D_k) = (1 - f(t))^(-1),   f(t) = sum_g t^deg(g),

    derived independently of the basis construction: taking log-derivatives
    gives sum_{k | m} k D_k = [t^m] t f'(t) / (1 - f(t)), then Moebius
    inversion recovers D_k.
    """
    f = [0] * (D + 1)
    tfp = [0] * (D + 1)
    for d in gen_degrees:
        f[d] += 1
        tfp[d] += d
    g = [0] * (D + 1)
    for m in range(D + 1):
        g[m] = tfp[m] + sum(f[j] * g[m - j] for j in range(1, m + 1))
    dims = {}
    for k in range(1, D + 1):
        s = sum(int(mobius(k // j)) * g[j] for j in divisors(k))
        assert s % k == 0
        dims[k] = s // k
    return dims


# ------------------------------------------------------------- counting


def test_witt_dimension_pinned_values():
    assert [witt_dimension(2, k) for k in range(1, 13)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    assert [witt_dimension(3, k) for k in range(1, 13)] == [
        3, 3, 8, 18, 48, 116, 312, 810, 2184, 5880, 16104, 44220]
    assert witt_dimension(1, 1) == 1
    assert all(witt_dimension(1, k) == 0 for k in range(2, 8))


def test_witt_matches_generating_function_oracle():
    for n in (1, 2, 3, 4):
        dims = graded_dims_oracle([1] * n, 9)
        for k in range(1, 10):
            assert witt_dimension(n, k) == dims[k]


def test_mobius_matches_sympy():
    assert [_mobius(j) for j in range(1, 3000)] == [
        int(mobius(j)) for j in range(1, 3000)]


def test_import_loads_no_sympy():
    # a fresh interpreter: this test module itself imports sympy
    src = str(Path(liesplit.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import liesplit; "
            "print(any(m.split('.')[0] == 'sympy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_library_loads_no_scipy_stats_or_optimize():
    # a fresh interpreter: the optimizer's sampler and polish are in-house
    src = str(Path(liesplit.__file__).parents[1])
    code = ("import importlib, pkgutil, sys; sys.path.insert(0, sys.argv[1]); import liesplit\n"
            "names = [m.name for m in pkgutil.iter_modules(liesplit.__path__) if m.name != 'cli']\n"
            "for name in names: importlib.import_module('liesplit.' + name)\n"
            "print('liesplit.optimizer' in sys.modules,\n"
            "      sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True []"


def test_basis_counts_match_witt_unit_degrees():
    for alphabet, D in ((AB, 7), (ABC, 5)):
        basis = build_hall_basis(alphabet, D)
        for k in range(1, D + 1):
            assert len(basis.elements(k)) == witt_dimension(len(alphabet), k)


def test_graded_basis_counts_match_oracle():
    # leapfrog-type graded alphabet: one generator per odd degree
    degs = [1, 3, 5, 7]
    alph = make_alphabet([f"Z{d}" for d in degs], degs)
    basis = build_hall_basis(alph, 7)
    oracle = graded_dims_oracle(degs, 7)
    assert basis.degree_counts() == {k: v for k, v in oracle.items() if v}
    assert [len(basis.elements(k)) for k in (1, 3, 5, 7)] == [1, 1, 2, 4]

    # Euler-type graded alphabet: one generator per degree
    degs = list(range(1, 8))
    alph = make_alphabet([f"Z{d}" for d in degs], degs)
    basis = build_hall_basis(alph, 7)
    oracle = graded_dims_oracle(degs, 7)
    assert basis.degree_counts() == {k: v for k, v in oracle.items() if v}
    assert [len(basis.elements(k)) for k in (1, 3, 5, 7)] == [1, 2, 6, 18]


# ------------------------------------------------------- element structure


def test_degree_two_and_three_elements_two_letters():
    basis = build_hall_basis(AB, 3)
    assert basis.elements(1) == (0, 1)
    assert basis.elements(2) == ((0, 1),)
    assert basis.elements(3) == ((0, (0, 1)), (1, (0, 1)))
    assert hall_str((0, (0, 1)), AB) == "[A,[A,B]]"


def test_degree_four_five_elements_two_letters():
    basis = build_hall_basis(AB, 5)
    A, B = 0, 1
    AB_ = (A, B)
    assert basis.elements(4) == ((A, (A, AB_)), (B, (A, AB_)), (B, (B, AB_)))
    assert basis.elements(5) == (
        (A, (A, (A, AB_))),
        (B, (A, (A, AB_))),
        (B, (B, (A, AB_))),
        (B, (B, (B, AB_))),
        (AB_, (A, AB_)),
        (AB_, (B, AB_)),
    )


def test_three_letter_low_degree_elements():
    basis = build_hall_basis(ABC, 3)
    A, B, C = 0, 1, 2
    assert basis.elements(2) == ((A, B), (A, C), (B, C))
    assert basis.elements(3) == (
        (A, (A, B)), (A, (A, C)),
        (B, (A, B)), (B, (A, C)), (B, (B, C)),
        (C, (A, B)), (C, (A, C)), (C, (B, C)),
    )


def test_rank_order_agrees_with_recursive_order():
    """The ranks of the canonical Hall set sort as the recursive order."""
    rng = random.Random(7)
    for degrees, D in (((1, 1, 1), 4), ((1, 2, 3), 6)):
        elements = [e for level in hall._hall_levels(degrees, D) for e in level]
        rank = hall._hall_set(degrees)[1]
        order = HallOrder(degrees, range(len(degrees)))
        for _ in range(200):
            a, b = rng.choice(elements), rng.choice(elements)
            assert (rank[a] < rank[b]) == order.less(a, b), degrees


@pytest.mark.parametrize("degrees,D", [((1, 1), 9), ((1, 1, 1), 7), ((1, 1, 1, 1), 5),
                                       ((1, 2, 3), 7), ((1, 3, 5, 7), 9), ((2, 1), 6)])
def test_every_ordering_relabels_the_canonical_set(degrees, D):
    """Each ordering's basis, a relabeling of the one canonical set, holds
    the elements that ranking and building them for that ordering alone
    gives, level for level and in order."""
    alphabet = make_alphabet([f"X{g}" for g in range(len(degrees))], degrees)
    for ordering in itertools.permutations(range(len(degrees))):
        assert build_hall_basis(alphabet, D, ordering).by_degree == \
            n_hall_basis(degrees, D, ordering), ordering


def test_deep_truncation_needs_no_recursion():
    """The canonical set is built level by level, not by one call per degree."""
    basis = build_hall_basis(make_alphabet("A"), 2000)
    assert basis.degree_counts() == {1: 1} and len(basis.by_degree) == 2000


def test_deep_truncation_skips_empty_levels():
    """Over one generator every level past the first is empty; a new level
    pairs only nonempty ones, so D = 10,000 takes milliseconds where a scan
    of every pair of lower levels takes seconds."""
    start = time.perf_counter()
    basis = build_hall_basis(make_alphabet("Z"), 10_000)
    assert time.perf_counter() - start < 0.5
    assert basis.degree_counts() == {1: 1} and len(basis.by_degree) == 10_000


def test_oversized_truncation_fails_before_building():
    """D = 31 over two letters needs 2**32 - 1 words, past
    ``free_algebra.MAX_WORDS``: ``build_hall_basis`` refuses it, naming D
    and the word count, before building a level.  The call runs in a
    child capped at 1 GB of address space, so that a basis built anyway
    fails there instead of filling the machine."""
    src = str(Path(liesplit.__file__).parents[1])
    code = ("import resource, sys, time; sys.path.insert(0, sys.argv[1])\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "from liesplit import build_hall_basis, make_alphabet\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    build_hall_basis(make_alphabet('AB'), 31)\n"
            "except ValueError as error:\n"
            "    print(time.perf_counter() - start, error)\n")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    seconds, message = out.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert message.strip() == ("truncation degree 31 needs 4294967295 words, "
                               f"over the limit of {free_algebra.MAX_WORDS}")


def test_ordering_permutation_changes_generator_order():
    basis = build_hall_basis(AB, 3, ordering=(1, 0))  # B < A
    assert basis.elements(1) == (1, 0)
    assert basis.elements(2) == ((1, 0),)  # [B,A]
    assert basis.elements(3) == ((1, (1, 0)), (0, (1, 0)))


def test_dump_format():
    text = build_hall_basis(AB, 3).dump().splitlines()
    assert text == ["A", "B", "[A,B]", "[A,[A,B]]", "[B,[A,B]]"]


def test_graded_ordering_prefers_generator_on_left():
    # with generators ordered before all brackets, Z5 pairs as [Z5,[Z1,Z3]]
    degs = [1, 3, 5]
    alph = make_alphabet(["Z1", "Z3", "Z5"], degs)
    basis = build_hall_basis(alph, 9)
    deg9 = basis.elements(9)
    assert (2, (0, 1)) in deg9  # [Z5,[Z1,Z3]]


# ------------------------------------------------------------- expansion


def test_expand_hall_pinned():
    assert dict(expand_hall((0, 1), 2).items()) == {
        (0, 1): Fraction(1), (1, 0): Fraction(-1)}
    assert dict(expand_hall((0, (0, 1)), 3).items()) == {
        (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2), (1, 0, 0): Fraction(1)}
    assert dict(expand_hall(0, 3).items()) == {(0,): Fraction(1)}


def test_expand_hall_matches_naive_commutators():
    a = {(0,): Fraction(1)}
    b = {(1,): Fraction(1)}
    ab = n_commutator(a, b, (1, 1), 5)
    bab = n_commutator(b, ab, (1, 1), 5)
    b_bab = n_commutator(b, bab, (1, 1), 5)
    assert dict(expand_hall((1, (1, (0, 1))), 5).items()) == b_bab


def test_expand_hall_degree_guard():
    with pytest.raises(ValueError):
        expand_hall((0, (0, 1)), 2)
    with pytest.raises(ValueError, match="D must be an integer"):
        expand_hall((0, 1), 2.5)


@pytest.mark.parametrize("degrees,D", [((1, 1), 7), ((1, 1, 1), 5), ((1, 2, 3), 6)])
def test_expand_hall_matches_word_dicts(degrees, D):
    """The series product's expansion of every Hall element is the one
    the word-dict recursion gives."""
    alphabet = make_alphabet("ABC"[:len(degrees)], degrees)
    for e in build_hall_basis(alphabet, D).elements():
        assert dict(expand_hall(e, D, alphabet).items()) == n_expand_words(e), e


@pytest.mark.parametrize("tree", [(1, 0), ((0, 1), (0, 1)), (1, (0, 0)), ((1, 0), (0, (0, 1)))])
def test_expand_hall_of_trees_outside_the_basis(tree):
    """Any tree expands, Hall element or not: [B,A], [[A,B],[A,B]] = 0."""
    got = expand_hall(tree, 5)
    assert dict(got.items()) == n_expand_words(tree)
    assert bool(got) == (tree not in (((0, 1), (0, 1)), (1, (0, 0))))


# ----------------------------------------------------------- coordinates


def test_lie_coordinates_simple_commutator():
    basis = build_hall_basis(AB, 4)
    s = NCSeries.from_words(AB, 4, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    lie, residual = lie_coordinates(s, basis)
    assert residual == 0
    assert lie.coords == {(0, 1): Fraction(1)}


def test_lie_coordinates_bch_degree_four():
    basis = build_hall_basis(AB, 4)
    ea = exp(series_from_generator(AB[0], Fraction(1), 4, AB))
    eb = exp(series_from_generator(AB[1], Fraction(1), 4, AB))
    lie, residual = lie_coordinates(log(mul(ea, eb)), basis)
    assert residual == 0
    assert lie.coords_at_degree(1) == {0: Fraction(1), 1: Fraction(1)}
    assert lie.coords_at_degree(2) == {(0, 1): Fraction(1, 2)}
    assert lie.coords_at_degree(3) == {
        (0, (0, 1)): Fraction(1, 12), (1, (0, 1)): Fraction(-1, 12)}
    assert lie.coords_at_degree(4) == {(1, (0, (0, 1))): Fraction(-1, 24)}


def test_lie_coordinates_non_lie_input():
    basis = build_hall_basis(AB, 2)
    s = NCSeries.from_words(AB, 2, {(0, 1): Fraction(1)})
    _, residual = lie_coordinates(s, basis)
    assert residual > 0


def test_float_coordinates():
    basis = build_hall_basis(AB, 3)
    words = expand_hall((0, (0, 1)), 3)
    s = words.map_coefficients(lambda c: 0.37 * float(c))
    lie, residual = lie_coordinates(s, basis)
    assert residual < 1e-14
    assert abs(lie.coords[(0, (0, 1))] - 0.37) < 1e-14


def hall_combo_strategy(basis, max_terms=4):
    elements = list(basis.elements())
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return st.dictionaries(st.sampled_from(elements), coeffs, min_size=1, max_size=max_terms)


@settings(max_examples=30, deadline=None)
@given(combo=hall_combo_strategy(build_hall_basis(AB, 5)))
def test_roundtrip_coordinates_of_hall_combinations(combo):
    basis = build_hall_basis(AB, 5)
    s = NCSeries.zero(AB, 5)
    for e, c in combo.items():
        s = s + n_expansion(basis, e).scale(c)
    lie, residual = lie_coordinates(s, basis)
    assert residual == 0
    expected = {e: c for e, c in combo.items() if c}
    assert lie.coords == expected
    assert n_to_series(lie) == s


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_jacobi_identity_nullity(data):
    basis = build_hall_basis(ABC, 6)
    pool = [e for e in basis.elements() if hall_degree(e, basis.generator_degrees) <= 2]
    v = data.draw(st.sampled_from(pool))
    w = data.draw(st.sampled_from(pool))
    x = data.draw(st.sampled_from(pool))
    total = NCSeries.zero(ABC, 6)
    for a, b, c in ((v, w, x), (w, x, v), (x, v, w)):
        nested = n_commutator(
            n_expand_words(a),
            n_commutator(n_expand_words(b), n_expand_words(c), (1, 1, 1), 6),
            (1, 1, 1), 6)
        piece = NCSeries.from_words(ABC, 6, nested)
        lie, residual = lie_coordinates(piece, basis)
        assert residual == 0  # each nested commutator is a Lie element
        total = total + piece
    lie, residual = lie_coordinates(total, basis)
    assert residual == 0
    assert lie.coords == {}


def test_order_permutation_covariance():
    # same Lie element, coordinates under A<B and B<A expand to the same words
    basis_ab = build_hall_basis(AB, 4)
    basis_ba = build_hall_basis(AB, 4, ordering=(1, 0))
    ea = exp(series_from_generator(AB[0], Fraction(1, 2), 4, AB))
    eb = exp(series_from_generator(AB[1], Fraction(-1, 3), 4, AB))
    z = log(mul(ea, eb))
    lie_ab, r1 = lie_coordinates(z, basis_ab)
    lie_ba, r2 = lie_coordinates(z, basis_ba)
    assert r1 == 0 and r2 == 0
    assert lie_ab.coords != lie_ba.coords  # genuinely different charts
    assert n_to_series(lie_ab) == z
    assert n_to_series(lie_ba) == z


# Every ordering of AB and ABC, and graded alphabets whose canonical
# (rank-order) degrees differ from their id-order degrees.
DIFFERENTIAL_CASES = (
    [(AB, 5, o) for o in itertools.permutations(range(2))]
    + [(ABC, 5, o) for o in itertools.permutations(range(3))]
    + [(make_alphabet(["Z1", "Z2"], [1, 2]), 6, (1, 0)),
       (make_alphabet(["Z1", "Z3", "Z5"], [1, 3, 5]), 9, (2, 1, 0))]
)


@pytest.mark.parametrize(
    "alphabet,D,ordering", DIFFERENTIAL_CASES,
    ids=["".join(g.label for g in a) + f"-D{D}-" + "".join(map(str, o))
         for a, D, o in DIFFERENTIAL_CASES])
def test_coordinates_recover_combinations_in_every_ordering(alphabet, D, ordering):
    """Exact and float coordinates of integer combinations of the basis's
    own elements, and (unit degrees) dense coordinates of the last
    combination and of a random vector against a least-squares solve on
    the basis's own expansion matrix."""
    basis = build_hall_basis(alphabet, D, ordering)
    elements = basis.elements()
    rng = random.Random(repr((basis.generator_degrees, ordering)))
    n = len(alphabet)
    for _ in range(4):
        combo = {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                 for e in rng.sample(elements, min(6, len(elements)))}
        s = NCSeries.zero(alphabet, D)
        for e, c in combo.items():
            s = s + n_expansion(basis, e).scale(c)

        lie, residual = lie_coordinates(s, basis)
        assert residual == 0
        assert lie.coords == combo

        lie_f, residual_f = lie_coordinates(s.map_coefficients(float), basis)
        assert residual_f < 1e-10
        for e in elements:
            assert abs(lie_f.coords.get(e, 0.0) - float(combo.get(e, 0))) < 1e-10, e

    if set(basis.generator_degrees) != {1}:
        return
    for d in range(1, D + 1):
        words = list(itertools.product(range(n), repeat=d))  # id-lex order
        row = {w: i for i, w in enumerate(words)}
        m = np.zeros((len(words), len(basis.elements(d))))
        for j, e in enumerate(basis.elements(d)):
            for w, c in n_expand_words(e).items():
                m[row[w], j] = float(c)
        lie_vec = np.zeros(len(words))
        for w, c in s.homogeneous(d).items():
            lie_vec[row[w]] = float(c)
        for vec in (lie_vec, np.array([rng.uniform(-1, 1) for _ in words])):
            expected = np.linalg.lstsq(m, vec, rcond=None)[0]
            coords, res = basis.coords_from_dense(d, vec)
            assert np.max(np.abs(coords - expected), initial=0.0) < 1e-12
            assert abs(res - np.max(np.abs(m @ expected - vec))) < 1e-12


def _id_lex_words(degrees, d):
    """Words of total degree d over generator ``degrees``, id-lex sorted."""
    return sorted(w for k in range(1, d + 1)
                  for w in itertools.product(range(len(degrees)), repeat=k)
                  if sum(degrees[l] for l in w) == d)


_XY = ("x", "y")


@pytest.mark.parametrize(
    "alphabet,D,ordering", DIFFERENTIAL_CASES,
    ids=["".join(g.label for g in a) + f"-D{D}-" + "".join(map(str, o))
         for a, D, o in DIFFERENTIAL_CASES])
@pytest.mark.parametrize("kind", ["fraction", "poly"])
def test_exact_dense_coordinates_recover_combinations(alphabet, D, ordering, kind):
    """An object vector (Fraction or polynomial entries) is solved exactly:
    its coordinates are the integer combination it was built from, the
    same as ``lie_coordinates`` reads, with residual exactly 0."""
    basis = build_hall_basis(alphabet, D, ordering)
    rng = random.Random(repr((basis.generator_degrees, ordering, kind)))
    x, y = (MultiPoly.variable(v, _XY) for v in _XY)
    for d in range(1, D + 1):
        elements = basis.elements(d)
        if not elements:
            continue
        combo = {}
        for e in rng.sample(elements, min(5, len(elements))):
            a, b = rng.choice([-3, -1, 2]), Fraction(rng.choice([1, -2, 5]), 3)
            combo[e] = a * x + b * y * x if kind == "poly" else Fraction(a) + b
        words = _id_lex_words(basis.generator_degrees, d)
        row = {w: i for i, w in enumerate(words)}
        vec = np.zeros(len(words), dtype=object)
        for e, c in combo.items():
            for w, f in n_expand_words(e).items():
                vec[row[w]] = vec[row[w]] + f * c
        coords, residual = basis.coords_from_dense(d, vec)
        assert residual == 0
        assert {e: c for e, c in zip(elements, coords) if c} == combo
        series = NCSeries.from_words(alphabet, D, {w: c for w, c in zip(words, vec) if c})
        lie, residual = lie_coordinates(series, basis)
        assert residual == 0
        assert lie.coords == combo


@pytest.mark.parametrize("entry", [Fraction(1, 3), MultiPoly.variable("x", _XY)])
def test_exact_dense_non_lie_vector_has_residual(entry):
    for ordering in [(0, 1, 2), (2, 0, 1)]:
        basis = build_hall_basis(ABC, 3, ordering)
        vec = np.zeros(27, dtype=object)
        vec[13] = entry                      # the word BBB (ids 1, 1, 1)
        _, residual = basis.coords_from_dense(3, vec)
        assert residual != 0


BLOCK_CASES = [((1, 1), 6), ((1, 1, 1), 5)]


@pytest.mark.parametrize("degrees,D", BLOCK_CASES)
@pytest.mark.parametrize("kind", ["float", "fraction", "poly"])
def test_ordering_block_reads_every_ordering_in_one_solve(degrees, D, kind):
    """Column k of a vector's ``ordering_block`` gather, read in the
    identity basis as one block, holds what ordering k's own basis reads
    from the vector, element for element (bit for bit in float), and the
    block's residual is each column's."""
    alphabet = make_alphabet("ABC"[:len(degrees)], degrees)
    identity = build_hall_basis(alphabet, D)
    rng = random.Random(repr((degrees, kind)))
    x = MultiPoly.variable("x", _XY)
    for d in range(1, D + 1):
        orderings, elements, gather = ordering_block(degrees, d)
        assert orderings == tuple(itertools.permutations(range(len(degrees))))
        assert gather.shape == (len(orderings), len(degree_words(degrees, d)))
        # a Lie vector: the expansion of a few identity-basis elements
        vec = np.zeros(gather.shape[1], dtype=float if kind == "float" else object)
        row = {w: i for i, w in enumerate(degree_words(degrees, d))}
        for e in rng.sample(identity.elements(d), min(4, len(identity.elements(d)))):
            c = rng.choice([-2, 1, 3])
            c = float(c) / 3 if kind == "float" else Fraction(c, 3) * (x if kind == "poly" else 1)
            for w, f in n_expand_words(e).items():
                vec[row[w]] = vec[row[w]] + f * c
        block, residual = identity.coords_from_dense(d, vec[gather.T])
        assert block.shape == (len(elements[0]), len(orderings))
        assert residual == 0 if kind != "float" else residual < 1e-12
        for k, ordering in enumerate(orderings):
            basis = build_hall_basis(alphabet, D, ordering)
            assert elements[k] == basis.elements(d)
            coords, res = basis.coords_from_dense(d, vec)
            assert res == 0 if kind != "float" else res < 1e-12
            if kind == "float":
                assert [c.hex() for c in block[:, k].tolist()] == [c.hex() for c in coords.tolist()]
            else:
                assert block[:, k].tolist() == coords.tolist()


def test_float_block_residual_covers_every_column():
    basis = build_hall_basis(ABC, 3)
    _, _, gather = ordering_block((1, 1, 1), 3)
    block = np.zeros((27, 6))
    block[13, 4] = 1e-3                      # the word BBB, fifth column only
    _, residual = basis.coords_from_dense(3, block)
    assert residual == pytest.approx(1e-3)
    assert basis.coords_from_dense(3, block[:, :4])[1] == 0


@pytest.mark.parametrize("entry", [Fraction(1, 3), MultiPoly.variable("x", _XY)])
def test_exact_block_non_lie_relabelings_have_residual(entry):
    """An object block whose columns relabel a non-Lie vector has a
    nonzero residual, though only its first column is checked."""
    vec = np.zeros(27, dtype=object)
    vec[5] = entry                           # the word ABC (ids 0, 1, 2)
    _, _, gather = ordering_block((1, 1, 1), 3)
    _, residual = build_hall_basis(ABC, 3).coords_from_dense(3, vec[gather.T])
    assert residual != 0


def test_ordering_block_needs_equal_degrees():
    with pytest.raises(ValueError, match="equal degrees"):
        ordering_block((1, 2), 3)


SOLVER_CASES = [((1, 1), 8), ((1, 1, 1), 5), ((1, 3, 5, 7), 7), (tuple(range(1, 8)), 7),
                ((1, 1, 1), 7)]


def _leaves(e):
    return (e,) if isinstance(e, int) else _leaves(e[0]) + _leaves(e[1])


@pytest.mark.parametrize("degrees,D", SOLVER_CASES)
def test_solver_blocks_follow_letter_content(degrees, D):
    """M is zero outside its letter-content blocks, each block pairs the
    words and elements of one content, and the pseudo-inverse built block
    by block is that of the whole of M."""
    alphabet = make_alphabet([f"Z{k}" for k in range(len(degrees))], degrees)
    basis = build_hall_basis(alphabet, D)
    for d in range(1, D + 1):
        m, pinv = (x.toarray() for x in basis.float_solver(d))
        words, elements = degree_words(degrees, d), basis.elements(d)
        outside = m.copy()
        for rows, cols, _ in _expansion_matrix(degrees, d)[1]:
            contents = {tuple(sorted(words[i])) for i in rows}
            contents |= {tuple(sorted(_leaves(elements[j]))) for j in cols}
            assert len(contents) == 1, (d, contents)
            outside[np.ix_(rows, cols)] = 0
        assert not outside.any(), d
        reference = np.linalg.pinv(m)
        assert np.max(np.abs(pinv - reference), initial=0.0) <= 1e-13 * np.max(
            np.abs(reference), initial=0.0), d


@pytest.mark.parametrize("degrees,D", SOLVER_CASES)
def test_float_solver_is_sparse_over_the_blocks(degrees, D):
    """No dense pseudo-inverse: the CSR pinv holds exactly the entries of
    its letter-content blocks."""
    alphabet = make_alphabet([f"Z{k}" for k in range(len(degrees))], degrees)
    basis = build_hall_basis(alphabet, D)
    for d in range(1, D + 1):
        m, pinv = basis.float_solver(d)
        assert scipy.sparse.issparse(m) and scipy.sparse.issparse(pinv)
        blocks = _expansion_matrix(degrees, d)[1]
        assert pinv.nnz == sum(len(rows) * len(cols) for rows, cols, _ in blocks), d
    if (degrees, D) == ((1, 1, 1), 7):  # pinv is degree 7's
        assert pinv.nnz == 38976


@pytest.mark.parametrize("degrees,D", SOLVER_CASES)
def test_float_coords_match_dense_least_squares(degrees, D):
    """Float ``coords_from_dense`` gives the dense pseudo-inverse's
    solution and residual, for Lie and non-Lie vectors."""
    alphabet = make_alphabet([f"Z{k}" for k in range(len(degrees))], degrees)
    basis = build_hall_basis(alphabet, D)
    rng = np.random.default_rng(len(degrees) * 10 + D)
    for d in range(1, D + 1):
        m = basis.float_solver(d)[0].toarray()
        for vec in (m @ rng.standard_normal(m.shape[1]), rng.standard_normal(m.shape[0])):
            coords, residual = basis.coords_from_dense(d, vec)
            reference = np.linalg.pinv(m) @ vec
            scale = max(np.max(np.abs(reference), initial=0.0), np.max(np.abs(vec)))
            assert np.max(np.abs(coords - reference), initial=0.0) <= 1e-13 * scale, d
            want = np.max(np.abs(m @ reference - vec), initial=0.0)
            assert abs(residual - want) <= 1e-13 * scale, d


@pytest.mark.parametrize("degrees,D", SOLVER_CASES)
def test_lu_pivot_block_is_exactly_invertible(degrees, D):
    """The rows a float LU picks hold an exactly invertible integer block,
    and ``exact_solver`` holds its exact inverse, for the unit alphabets
    and the graded alphabets of ``symbolic_log``."""
    alphabet = make_alphabet([f"Z{k}" for k in range(len(degrees))], degrees)
    basis = build_hall_basis(alphabet, D)
    for d in range(1, D + 1):
        m = basis.float_solver(d)[0].toarray()
        pivots, inv, others, rest = basis.exact_solver(d)
        r = m.shape[1]
        assert len(pivots) == len(inv) == r
        assert sorted([*pivots, *others]) == list(range(len(m)))
        block = [{j: int(v) for j, v in enumerate(m[i]) if v} for i in pivots]
        for i, (cols, vals) in enumerate(inv):
            product = {}
            for c, v in zip(cols, vals):
                for j, b in block[c].items():
                    product[j] = product.get(j, 0) + v * b
            assert {j: x for j, x in product.items() if x} == {i: 1}, (d, i)


# Unit alphabets of 2, 3 and 4 letters and two graded ones, each with its
# largest degree
TABLE_CASES = [((1, 1), 9), ((1, 1, 1), 7), ((1, 1, 1, 1), 5), ((1, 3, 5, 7), 9), ((1, 2, 3), 7)]


@pytest.mark.parametrize("degrees,D", TABLE_CASES)
def test_gather_matches_word_lookup(degrees, D):
    """The gather recurrence places every canonical word, in every
    ordering, where renaming its letters and looking it up does."""
    for ordering in itertools.permutations(range(len(degrees))):
        for d in range(D + 1):
            assert np.array_equal(_gather(degrees, ordering, d),
                                  n_gather(degrees, ordering, d)), (ordering, d)


@pytest.mark.parametrize("degrees,D", TABLE_CASES)
def test_expansion_matrix_matches_word_dicts(degrees, D):
    """M by columns, M in the CSR form of the float solver, and the blocks,
    with their rows, columns, dense matrices and order, are the ones built
    from word dicts."""
    for d in range(1, D + 1):
        m, blocks = _expansion_matrix(degrees, d)
        want, want_blocks = n_expansion_matrix(degrees, d)
        for got, dense in ((m, scipy.sparse.csc_array(want)),
                           (_float_solver(degrees, d)[0], scipy.sparse.csr_array(want))):
            assert got.shape == dense.shape, d
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(dense, part)), (d, part)
        assert len(blocks) == len(want_blocks), d
        for (rows, cols, matrix), (want_rows, want_cols) in zip(blocks, want_blocks):
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols), d
            assert np.array_equal(matrix, want[np.ix_(rows, cols)]), d


@pytest.mark.parametrize("degrees,D", [((1, 1), 9), ((1, 1, 1), 7), ((1, 1, 1, 1), 5), ((2, 2), 8)])
def test_ordering_block_matches_one_basis_per_ordering(degrees, D):
    """Relabeling the identity basis's leaves gives each ordering's own
    basis elements, in basis order, and row k of the gather is ordering
    k's word gather."""
    for d in range(1, D + 1):
        orderings, elements, gather = ordering_block(degrees, d)
        want_orderings, want_elements, want_gather = n_ordering_block(degrees, d)
        assert orderings == want_orderings and elements == want_elements, d
        assert np.array_equal(gather, want_gather), d


@pytest.mark.parametrize("degrees,D", TABLE_CASES)
def test_stacked_pinv_equals_each_block_pinv(degrees, D):
    """One pinv call per block shape, on the stacked blocks, holds entry
    for entry what one call per block gives."""
    for d in range(1, D + 1):
        pinv = _float_solver(degrees, d)[1].toarray()
        for rows, cols, matrix in _expansion_matrix(degrees, d)[1]:
            assert np.array_equal(pinv[np.ix_(cols, rows)], np.linalg.pinv(matrix)), d


@pytest.mark.parametrize("degrees,D", [((1, 1), 8), ((1, 1, 1), 6), ((1, 1, 1, 1), 4),
                                       ((1, 3, 5, 7), 9), ((1, 2, 3), 7)])
def test_exact_solver_matches_dense_rows(degrees, D):
    """The pivots from getrf's row swaps, the inverse, the other rows and
    M on them read from the blocks equal those from scipy's LU
    permutation and M's dense rows."""
    def listed(rows):
        return [(at.tolist(), list(vals)) for at, vals in rows]

    for d in range(1, D + 1):
        pivots, inv, others, rest = _exact_solver(degrees, d)
        want_pivots, want_inv, want_others, want_rest = n_exact_solver(degrees, d)
        assert pivots.tolist() == want_pivots.tolist(), d
        assert others.tolist() == want_others.tolist(), d
        assert listed(inv) == listed(want_inv), d
        assert listed(rest) == listed(want_rest), d


def _hexed(x):
    """``x`` with every float, inside tuples and dicts too, in hex."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {_hexed(k): _hexed(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(map(_hexed, x))
    return x


def test_cold_tables_live_in_module_caches():
    """Every table the first ``epsilon`` call builds sits in a module-level
    functools cache: emptying the caches of the liesplit modules empties
    each, the next call fills each again and reads the same bits as a
    warm one, and the word tuples of the ``NCSeries`` layout stay
    unbuilt."""
    entry = catalog()["n3-p6-sl-m37-opt"]
    tables = [free_algebra.word_starts, free_algebra.concat_index, free_algebra.degree_offsets,
              free_algebra._exp_plan, free_algebra._pair_plan, free_algebra._horner_plan,
              hall._letter_counts, hall._expansion_matrix, hall._float_solver, hall._gather,
              hall.ordering_block, hall._cached_basis, hall._hall_set]
    layout = [free_algebra.degree_words]

    def call():
        report = epsilon(entry.scheme, entry.params, entry.order)
        return _hexed(tuple(getattr(report, f.name) for f in dataclasses.fields(report)))

    warm = call()
    for name, module in list(sys.modules.items()):
        if name == "liesplit" or name.startswith("liesplit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    assert [t.cache_info().currsize for t in tables + layout] == [0] * len(tables + layout)
    assert call() == warm
    assert all(t.cache_info().currsize for t in tables)
    assert [t.cache_info().currsize for t in layout] == [0]


def test_invert_rational_names_the_singular_column():
    with pytest.raises(ValueError, match="column 1"):
        _invert_rational([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_series_beyond_basis_truncation_rejected():
    basis = build_hall_basis(AB, 3)
    s = NCSeries.from_words(AB, 4, {(0,): Fraction(1)})
    with pytest.raises(ValueError):
        lie_coordinates(s, basis)
