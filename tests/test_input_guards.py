"""Bad input fails fast with a ``ValueError`` that names the problem."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from liesplit._dense import dense_product_log
from liesplit.catalog import catalog
from liesplit.constraints import symbolic_log
from liesplit.free_algebra import NCSeries, make_alphabet
from liesplit.hall import build_hall_basis, witt_dimension
from liesplit.lattice import (build_chain, build_honeycomb, build_kagome, build_square,
                              build_triangular, coarse_grain)
from liesplit.optimizer import OptimizationProblem
from liesplit.schemes import (build_scheme, epsilon, log_scheme, scheme_from_text, suzuki_recursive,
                              verify_order, yoshida_recursive)
from liesplit.validate import (GeneratorSet, apply_scheme, build_generators, equal_cost_comparison,
                               scaling_fit)

_SL3 = build_scheme(2, "SL", 3)  # the leapfrog: no free slot, params {}
_EYE = np.eye(2)
_AB = make_alphabet("AB")

GUARDS = {
    "symbolic_log-p0": (lambda: symbolic_log(_SL3, 0), "need p >= 1"),
    "log_scheme-D0": (lambda: log_scheme(_SL3, {}, 0), "need D >= 1"),
    "verify_order-p0": (lambda: verify_order(_SL3, {}, 0), "order must be >= 1"),
    "epsilon-p0": (lambda: epsilon(_SL3, {}, 0), "order must be >= 1"),
    "yoshida_recursive-q0": (lambda: yoshida_recursive(0), "need q >= 1"),
    "build_generators-n4": (lambda: build_generators("random-general", n=4),
                            "n must be 2 or 3"),
    "build_generators-dim1": (lambda: build_generators("random-general", dim=1),
                              "dim must be at least 2"),
    "scaling_fit-4-points": (
        lambda: scaling_fit(_SL3, {}, build_generators("random-general", dim=4, seed=0),
                            points=4),
        "at least five grid points"),
    "GeneratorSet-missing-matrix": (lambda: GeneratorSet(2, 2, (_EYE,), "custom", None),
                                    "one matrix per term"),
    "GeneratorSet-mismatched-shapes": (
        lambda: GeneratorSet(2, 2, (_EYE, np.eye(3)), "custom", None), "dim x dim"),
    "make_alphabet-degree-count": (lambda: make_alphabet("AB", [1]), "equal length"),
    "make_alphabet-degree-0": (lambda: make_alphabet("AB", [1, 0]), "degrees must be >= 1"),
    "build_hall_basis-D0": (lambda: build_hall_basis(make_alphabet("AB"), 0), "D must be >= 1"),
    "witt_dimension-n0": (lambda: witt_dimension(0, 1), "n >= 1 and k >= 1"),
    "dense_product_log-id-2": (lambda: dense_product_log(_AB, 3, [((0, 0.5),), ((2, 1.0),)]),
                               "generator id 2 is outside"),
    "dense_product_log-id-minus-1": (
        lambda: dense_product_log(_AB, 3, [((-1, Fraction(1)),)]), "generator id -1 is outside"),
    "dense_product_log-nan": (lambda: dense_product_log(_AB, 3, [((0, 0.5),), ((1, math.nan),)]),
                              "non-finite coefficient"),
    "dense_product_log-D15": (lambda: dense_product_log(_AB, 15, [((0, Fraction(1)),)]),
                              "truncation degree 15 needs 65535 words, over the limit of 32768"),
    "NCSeries-D30": (lambda: NCSeries(_AB, 30, {1: [1.0, 2.0]}),
                     "truncation degree 30 needs 2147483647 words, over the limit of 32768"),
    "epsilon-tolerance-nan": (lambda: epsilon(_SL3, {}, 2, tolerance=math.nan),
                              "tolerance must be a non-negative number"),
    "epsilon-tolerance-negative": (lambda: epsilon(_SL3, {}, 2, tolerance=-1e-10),
                                   "tolerance must be a non-negative number"),
    "verify_order-tolerance-nan": (lambda: verify_order(_SL3, {}, 2, tolerance=math.nan),
                                   "tolerance must be a non-negative number"),
    "verify_order-tolerance-negative": (lambda: verify_order(_SL3, {}, 2, tolerance=-1.0),
                                        "tolerance must be a non-negative number"),
    "verify_order-tolerance-str": (lambda: verify_order(_SL3, {}, 2, tolerance="1e-10"),
                                   "tolerance must be a non-negative number"),
    "scheme_from_text-m-9.0": (lambda: scheme_from_text("n = 2\nfamily = S\nm = 9.0\n"),
                               "line 3: field 'm' is '9.0', not an integer"),
    "scheme_from_text-n-two": (lambda: scheme_from_text("n = two\nfamily = S\nm = 9\n"),
                               "line 1: field 'n' is 'two', not an integer"),
    "scheme_from_text-m-1_1": (lambda: scheme_from_text("n = 2\nfamily = N\nm = 1_1\n"),
                               "line 3: field 'm' is '1_1', not an integer"),
    "build_chain-reach-minus-1": (lambda: build_chain(6, reach=-1), "reach must be >= 1"),
    "build_chain-reach-0": (lambda: build_chain(6, reach=0), "reach must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_bad_input_raises_value_error(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_huge_truncation_fails_fast():
    """D = 30 at n = 2 would ask numpy for 16 GiB."""
    e = catalog()["n2-p4-s-m9-opt"]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="truncation degree 30 needs 2147483647 words"):
        verify_order(e.scheme, e.params, 30)
    assert time.perf_counter() - start < 1.0


_NON_INTEGRAL = {
    "make_alphabet-degree-1.5": (lambda: make_alphabet("AB", [1, 1.5]), r"degrees\[1\]"),
    "make_alphabet-degree-True": (lambda: make_alphabet("AB", [True, 1]), r"degrees\[0\]"),
    "build_hall_basis-D-2.5": (lambda: build_hall_basis(_AB, 2.5), "D must be an integer"),
    "build_hall_basis-D-True": (lambda: build_hall_basis(_AB, True), "D must be an integer"),
    "build_hall_basis-ordering-float": (lambda: build_hall_basis(_AB, 2, ordering=(1.7, 0.2)),
                                        r"ordering\[0\]"),
    "build_hall_basis-ordering-bool": (lambda: build_hall_basis(_AB, 2, ordering=(1, False)),
                                       r"ordering\[1\]"),
    "NCSeries-max_degree-2.5": (lambda: NCSeries(_AB, 2.5), "max_degree must be an integer"),
    "NCSeries-max_degree-np-float": (lambda: NCSeries(_AB, np.float64(2)),
                                     "max_degree must be an integer"),
    "witt_dimension-n-2.5": (lambda: witt_dimension(2.5, 3), "n must be an integer"),
    "witt_dimension-k-True": (lambda: witt_dimension(2, True), "k must be an integer"),
    "OptimizationProblem-starts-True": (lambda: OptimizationProblem(_SL3, 2, starts=True),
                                        "starts must be a positive count"),
    "OptimizationProblem-starts-np-float": (
        lambda: OptimizationProblem(_SL3, 2, starts=np.float64(8)), "starts must be a positive count"),
    "OptimizationProblem-seed-True": (lambda: OptimizationProblem(_SL3, 2, seed=True),
                                      "seed must be a non-negative int"),
    "OptimizationProblem-seed-2.0": (lambda: OptimizationProblem(_SL3, 2, seed=2.0),
                                     "seed must be a non-negative int"),
    "scaling_fit-points-7.5": (
        lambda: scaling_fit(_SL3, {}, build_generators("random-general", dim=4, seed=0),
                            points=7.5),
        "points must be an integer"),
    "scaling_fit-points-True": (
        lambda: scaling_fit(_SL3, {}, build_generators("random-general", dim=4, seed=0),
                            points=True),
        "points must be an integer"),
    "build_generators-n-2.0": (lambda: build_generators("random-general", n=2.0),
                               "n must be an integer"),
    "build_generators-dim-4.5": (lambda: build_generators("random-general", dim=4.5),
                                 "dim must be an integer"),
    "build_generators-chain_length-6.0": (
        lambda: build_generators("spin-chain-even-odd", chain_length=6.0),
        "chain_length must be an integer"),
    "equal_cost_comparison-budget-True": (
        lambda: equal_cost_comparison([catalog()["n2-p2-sl-m3-leapfrog"]],
                                      build_generators("random-general", dim=4, seed=0),
                                      1.0, budget=True),
        "budget must be an integer"),
    "build_scheme-n-2.0": (lambda: build_scheme(2.0, "N", 5), "n must be an integer"),
    "build_scheme-m-4.0": (lambda: build_scheme(2, "N", 4.0), "m must be an integer"),
    "build_scheme-m-str": (lambda: build_scheme(2, "S", "9"), "m must be an integer"),
    "build_scheme-m-True": (lambda: build_scheme(2, "N", True), "m must be an integer"),
    "epsilon-p-4.0": (lambda: epsilon(_SL3, {}, 4.0), "p must be an integer"),
    "epsilon-p-str": (lambda: epsilon(_SL3, {}, "2"), "p must be an integer"),
    "epsilon-p-True": (lambda: epsilon(_SL3, {}, True), "p must be an integer"),
    "verify_order-p-2.0": (lambda: verify_order(_SL3, {}, 2.0), "p must be an integer"),
    "verify_order-p-True": (lambda: verify_order(_SL3, {}, True), "p must be an integer"),
    "log_scheme-D-3.0": (lambda: log_scheme(_SL3, {}, 3.0), "D must be an integer"),
    "log_scheme-D-True": (lambda: log_scheme(_SL3, {}, True), "D must be an integer"),
    "symbolic_log-p-2.0": (lambda: symbolic_log(_SL3, 2.0), "p must be an integer"),
    "symbolic_log-p-True": (lambda: symbolic_log(_SL3, True), "p must be an integer"),
    "yoshida_recursive-q-2.0": (lambda: yoshida_recursive(2.0), "q must be an integer"),
    "suzuki_recursive-q-True": (lambda: suzuki_recursive(True), "q must be an integer"),
    "suzuki_recursive-q-str": (lambda: suzuki_recursive("2"), "q must be an integer"),
    "build_chain-length-4.0": (lambda: build_chain(4.0), "length must be an integer"),
    "build_chain-reach-2.0": (lambda: build_chain(6, reach=2.0), "reach must be an integer"),
    "build_square-lx-3.0": (lambda: build_square(3.0, 3), "lx must be an integer"),
    "build_triangular-ly-2.5": (lambda: build_triangular(3, 2.5), "ly must be an integer"),
    "build_honeycomb-lx-True": (lambda: build_honeycomb(True, 4), "lx must be an integer"),
    "build_kagome-ly-4.0": (lambda: build_kagome(4, 4.0), "ly must be an integer"),
    "coarse_grain-block-2.0": (lambda: coarse_grain(build_chain(8), 2.0),
                               "block must be an integer"),
    "coarse_grain-block-True": (lambda: coarse_grain(build_chain(8), True),
                                "block must be an integer"),
    "coarse_grain-block-entry-1.5": (lambda: coarse_grain(build_square(4, 4), (2, 1.5)),
                                     r"block\[1\]"),
    "build_generators-seed-True": (lambda: build_generators("random-general", dim=4, seed=True),
                                   "seed must be an integer"),
    "build_generators-seed-1.5": (lambda: build_generators("random-general", dim=4, seed=1.5),
                                  "seed must be an integer"),
    "build_generators-seed-str": (lambda: build_generators("spin-chain-even-odd", seed="1"),
                                  "seed must be an integer"),
}


@pytest.mark.parametrize("name", sorted(_NON_INTEGRAL))
def test_non_integral_size_raises_value_error(name):
    """Degrees, truncations, orderings and Witt arguments take Python or
    numpy integers only: a float, a numpy float or a bool is refused with a
    ``ValueError`` naming the argument, not truncated to an int."""
    call, message = _NON_INTEGRAL[name]
    with pytest.raises(ValueError, match=message):
        call()


_GENS = build_generators("random-general", dim=4, seed=0)
_LEAPFROG = catalog()["n2-p2-sl-m3-leapfrog"]

_NON_REAL = {
    "epsilon-tolerance-True": (lambda: epsilon(_SL3, {}, 2, tolerance=True),
                               "tolerance must be a non-negative number"),
    "epsilon-tolerance-str": (lambda: epsilon(_SL3, {}, 2, tolerance="0.01"),
                              "tolerance must be a non-negative number"),
    "epsilon-tolerance-inf": (lambda: epsilon(_SL3, {}, 2, tolerance=math.inf),
                              "tolerance must be a non-negative number"),
    "OptimizationProblem-bounds-bools": (
        lambda: OptimizationProblem(_SL3, 2, bounds=(False, True)),
        "bounds must be finite numbers lo < hi"),
    "OptimizationProblem-bounds-str": (
        lambda: OptimizationProblem(_SL3, 2, bounds=("0.1", "1")),
        "bounds must be finite numbers lo < hi"),
    "scaling_fit-t_lo-True": (lambda: scaling_fit(_SL3, {}, _GENS, t_lo=True),
                              "t_lo must be finite and real, not True"),
    "scaling_fit-t_lo-str": (lambda: scaling_fit(_SL3, {}, _GENS, t_lo="0.01"),
                             "t_lo must be finite and real, not '0.01'"),
    "scaling_fit-t_hi-str": (lambda: scaling_fit(_SL3, {}, _GENS, t_hi="1"),
                             "t_hi must be finite and real, not '1'"),
    "apply_scheme-t-True": (lambda: apply_scheme(_SL3, {}, _GENS, True),
                            "step t must be finite and real, not True"),
    "apply_scheme-t-str": (lambda: apply_scheme(_SL3, {}, _GENS, "0.1"),
                           "step t must be finite and real, not '0.1'"),
    "equal_cost_comparison-total_time-True": (
        lambda: equal_cost_comparison([_LEAPFROG], _GENS, True, budget=30),
        "total_time must be finite and positive, got True"),
    "equal_cost_comparison-total_time-str": (
        lambda: equal_cost_comparison([_LEAPFROG], _GENS, "1", budget=30),
        "total_time must be finite and positive, got '1'"),
    "build_generators-seed-minus-1": (lambda: build_generators("random-general", dim=4, seed=-1),
                                      "seed must be a non-negative integer, not -1"),
}


@pytest.mark.parametrize("name", sorted(_NON_REAL))
def test_non_real_value_raises_value_error(name):
    """Tolerances, bounds, steps and times take finite reals only (a
    Python or numpy number or a ``Fraction``), not a bool or a string; a
    seed takes a non-negative integer.  Each is refused with a
    ``ValueError`` naming it."""
    call, message = _NON_REAL[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_numpy_and_fraction_reals_are_accepted():
    for tolerance in (Fraction(1, 10 ** 10), np.float32(1e-6), 0):
        assert epsilon(_SL3, {}, 2, tolerance=tolerance).epsilon == Fraction(9, 32)
    assert OptimizationProblem(_SL3, 2, bounds=(Fraction(-1), np.float64(1.5))).bounds[0] == -1
    for t in (np.float32(0.25), Fraction(1, 4), 1):
        assert apply_scheme(_SL3, {}, _GENS, t).shape == (4, 4)
    gens = build_generators("random-general", dim=4, seed=np.int64(3))
    assert gens.seed == 3 and type(gens.seed) is int


def test_numpy_integer_sizes_are_accepted():
    alphabet = make_alphabet("AB", [np.int64(1), np.int32(2)])
    assert [g.degree for g in alphabet] == [1, 2] and type(alphabet[1].degree) is int
    basis = build_hall_basis(alphabet, np.int64(4), ordering=np.array([1, 0]))
    assert basis.max_degree == 4 and basis.ordering == (1, 0)
    assert NCSeries(alphabet, np.uint8(3)).max_degree == 3
    assert witt_dimension(np.int64(2), np.int16(3)) == 2
    problem = OptimizationProblem(_SL3, 2, starts=np.int64(8), seed=np.uint8(3))
    assert problem.starts == 8 and problem.seed == 3


def test_numpy_integer_lattice_sizes_are_accepted():
    chain = build_chain(np.int64(6), reach=np.int32(2))
    assert len(chain.sites) == 6 and len(chain.interactions) == 9
    assert len(build_square(np.int16(3), np.uint8(2)).sites) == 6
    coarse, _ = coarse_grain(chain, np.int64(2))
    assert len(coarse.sites) == 3
    coarse, _ = coarse_grain(build_square(4, 4), np.array([2, 2]))
    assert len(coarse.sites) == 4


def test_numpy_integer_scheme_sizes_are_accepted():
    scheme = build_scheme(np.int64(2), "S", np.int32(9))
    assert (scheme.n, scheme.m) == (2, 9) and type(scheme.m) is int
    report = epsilon(*yoshida_recursive(np.int64(2)), np.int64(4))
    assert report.p == 4 and type(report.p) is int
    assert verify_order(_SL3, {}, np.int16(2))[0]


@pytest.mark.parametrize("family", ["N", "S", "SL"])
def test_large_template_builds_fast(family):
    """A template's build is linear in m: 8001 factors build well under
    2 s, which summing each letter's coefficients pair by pair, quadratic
    in m, overran."""
    start = time.perf_counter()
    scheme = build_scheme(2, family, 8001)
    assert time.perf_counter() - start < 2.0
    assert len(scheme.factors) == 8001


def test_numpy_integer_generator_sizes_are_accepted():
    gens = build_generators("random-general", n=np.int64(3), dim=np.int32(5), seed=0)
    assert (gens.n, gens.dim) == (3, 5) and type(gens.dim) is int
    chain = build_generators("spin-chain-even-odd", chain_length=np.int16(4))
    assert chain.dim == 16
    rows = equal_cost_comparison([catalog()["n2-p2-sl-m3-leapfrog"]],
                                 build_generators("random-general", dim=4, seed=0),
                                 1.0, budget=np.int64(30))
    assert rows[0].steps == 10
