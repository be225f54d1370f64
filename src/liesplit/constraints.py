"""Order conditions as exact polynomials and Gröbner analysis of their ideal.

The order conditions of a decomposition template are the coefficients of
Hall basis elements in ``log U``, viewed as polynomials in the template's
parameter slots (closures removed, so consistency sums reappear as
degree-one conditions).  Every pipeline forms ``log U`` with the one
product-log, ``_dense.dense_product_log``, and reads it with the one
condition reader, ``schemes._order_conditions``, whose largest entry per
degree is the order residual of ``epsilon`` and ``verify_order``; the
three differ in the alphabet and in what a factor is:

* ``word`` -- types N, S and S-abc: the letters, one factor per letter;
* ``leapfrog`` -- type SL: one graded generator ``Z_k`` per odd degree,
  since each leapfrog block is a symmetric second-order integrator with
  ``log U_L(s) = s Z_1 + s^3 Z_3 + ...``, one factor per block;
* ``euler`` -- type SE: one graded generator ``E_k`` per degree, one
  factor per Euler term, where reversed terms flip the sign of the
  even-degree generators.

Symmetric templates only produce odd-degree conditions; the even-degree
coefficients are checked to vanish identically and are not emitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd

import numpy as np

from . import _dense
# exp, log, lie_coordinates and log_scheme are unused here but stay bound:
# perfbench/tracing.py wraps them by this module's name (tests/test_bench_sites.py
# pins that)
from .free_algebra import exp, log, make_alphabet
from .hall import build_hall_basis, lie_coordinates
from .polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    _layout,
    _unpack,
    buchberger_basis,
    is_square_free,
    normal_form,
)
from .polynomials import sturm_real_roots as _sturm_real_roots
from .schemes import (Scheme, _basis_for, _order_conditions, _product_log, log_scheme,
                      symbolic_slot_values)

__all__ = [
    "ConstraintSystem",
    "FreedomReport",
    "GroebnerBasis",
    "analyze_freedom",
    "buchberger",
    "symbolic_log",
]

# Expansion-depth caps: beyond these the exact symbolic product is no
# longer desk-scale (word coefficients are dense polynomials in all slots).
_WORD_DEGREE_CAP = {2: 5, 3: 3}
_GRADED_DEGREE_CAP = 7
_SLOT_CAP = 7


@dataclass(frozen=True)
class ConstraintSystem:
    """Polynomials that must vanish for ``scheme`` to reach order ``p``."""

    scheme: Scheme
    p: int
    pipeline: str
    variables: tuple[str, ...]
    polys: tuple[MultiPoly, ...]
    hall_labels: tuple[object, ...]
    degrees: tuple[int, ...]

    def counts_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def evaluate(self, values) -> list:
        """Residual of every condition at a full slot assignment."""
        return [poly.evaluate(values) for poly in self.polys]

    def to_text(self) -> str:
        lines = [f"variables: {' '.join(self.variables)}"]
        for d, label, poly in zip(self.degrees, self.hall_labels, self.polys):
            lines.append(f"degree {d}  {label}: {poly!r}")
        return "\n".join(lines) + "\n"


def _condition_degrees(family: str, p: int) -> tuple[int, ...]:
    if family == "N":
        return tuple(range(1, p + 1))
    return tuple(d for d in range(1, p + 1) if d % 2)


def _emit(series, basis, degrees) -> tuple[list, list, list]:
    polys, labels, at = [], [], []
    for d, conditions in _order_conditions(series, basis, max(degrees)).items():
        if d not in degrees:
            bad = [e for e, c in zip(basis.elements(d), conditions) if c]
            if bad:
                raise RuntimeError(
                    f"degree-{d} terms should vanish identically, got {bad}")
            continue
        polys += conditions
        labels += basis.elements(d)
        at += [d] * len(conditions)
    return polys, labels, at


def _graded_log(scheme: Scheme, D: int):
    # One factor exp(sum_k c_k G_k) per stage.  SL: leapfrog generators Z_k, k
    # odd.  SE: Euler generators E_k; the stages alternate forward/reversed Euler
    # terms starting forward, and a reversed term flips the even-degree signs.
    leapfrog = scheme.family == "SL"
    ks = tuple(k for k in range(1, D + 1) if k % 2 or not leapfrog)
    alphabet = make_alphabet([f"{'Z' if leapfrog else 'E'}{k}" for k in ks], degrees=list(ks))
    values = symbolic_slot_values(scheme)
    stages = []
    for i, expr in enumerate(scheme.stage_weights):
        tau = expr.evaluate(values)
        sign = 1 if leapfrog or i % 2 == 0 else -1
        stages.append([(g, (tau ** k) * (sign ** (k + 1))) for g, k in enumerate(ks)])
    return _dense.dense_product_log(alphabet, D, stages), build_hall_basis(alphabet, D)


def symbolic_log(scheme: Scheme, p: int) -> ConstraintSystem:
    """Extract the order-``p`` condition polynomials of a template.

    The template's closures are dropped first, so every parameter slot is
    an independent variable and the per-letter consistency sums appear as
    the degree-one conditions.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    raw = scheme.without_closures()
    degrees = _condition_degrees(raw.family, p)
    D = max(degrees)
    if raw.nu > _SLOT_CAP:
        raise ValueError(
            f"{raw.nu} parameter slots exceed the symbolic cap of {_SLOT_CAP}")
    if raw.family in ("SL", "SE"):
        if D > _GRADED_DEGREE_CAP:
            raise ValueError(
                f"graded expansion capped at degree {_GRADED_DEGREE_CAP}, "
                f"order {p} needs {D}")
        pipeline = "leapfrog" if raw.family == "SL" else "euler"
        series, basis = _graded_log(raw, D)
    else:
        cap = _WORD_DEGREE_CAP[raw.n]
        if D > cap:
            raise ValueError(
                f"word expansion for n={raw.n} capped at degree {cap}, "
                f"order {p} needs {D}")
        pipeline, series = "word", _product_log(raw, None, D)
        basis = _basis_for(raw, series, None)
    polys, labels, at = _emit(series, basis, degrees)
    return ConstraintSystem(raw, p, pipeline, raw.param_slots,
                            tuple(polys), tuple(labels), tuple(at))


# -------------------------------------------------------- Gröbner analysis


@dataclass(frozen=True)
class GroebnerBasis:
    polys: tuple[MultiPoly, ...]
    monomial_order: MonomialOrder

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        return normal_form(poly, self.polys, self.monomial_order)

    @property
    def is_trivial(self) -> bool:
        """True when the ideal is the whole ring (no solutions)."""
        return any(p and p.total_degree() == 0 for p in self.polys)


def buchberger(polys, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    return GroebnerBasis(tuple(buchberger_basis(list(polys), order)), order)


@dataclass(frozen=True)
class FreedomReport:
    """What ``analyze_freedom`` finds; real solutions are counted and read
    on a form that takes a distinct value at each solution."""

    free_count: int
    suggested_free_slots: tuple[str, ...]
    zero_dimensional: bool
    solution_count: int | None
    real_solution_count: int | None
    eliminant: MultiPoly | None
    groebner: GroebnerBasis
    # exponents of the monomials outside the leading-term ideal: a basis
    # of the quotient ring when it is finite-dimensional, else empty
    standard_monomials: tuple[tuple[int, ...], ...] = ()
    # float readings of the real solutions, ordered like the variables: ()
    # if none is real, None if the ideal has positive dimension or a multiple root
    real_solutions: tuple[tuple[float, ...], ...] | None = None


def _dimension(supports, nvars: int) -> int:
    """Size of the largest variable subset containing the support of no
    leading monomial: the dimension of the variety."""
    for size in range(nvars, 0, -1):
        if any(all(not sup <= frozenset(combo) for sup in supports)
               for combo in combinations(range(nvars), size)):
            return size
    return 0


def _standard_monomials(leads, bounds) -> tuple[tuple[int, ...], ...]:
    """The exponents below ``bounds`` that no packed lead divides, in the
    order of ``itertools.product``."""
    _, guard, units = _layout(len(bounds))
    box = [0]
    for unit, b in zip(units, bounds):
        box = [m + k * unit for m in box for k in range(b)]
    return tuple(_unpack(m, len(bounds)) for m in box if all((m - e) & guard for e in leads))


def _admissible_slots(polys, variables) -> tuple[str, ...]:
    """Slots that carry no univariate relation, i.e. may be chosen freely.

    Whether a single slot can serve as the free parameter is a property of
    the ideal, not of any particular basis: ``x`` qualifies exactly when the
    lexicographic basis with ``x`` last holds no polynomial in ``x`` alone.
    Slots whose elimination blows past the size guard are left out.
    """
    out = []
    for v in variables:
        order_vars = tuple(u for u in variables if u != v) + (v,)
        try:
            gb = buchberger_basis([p.restrict(order_vars) for p in polys], LEX)
        except RuntimeError:
            continue
        if not any(set(g.used_variables()) <= {v} for g in gb):
            out.append(v)
    return tuple(out)


def _power_eliminant(gb: GroebnerBasis, form: MultiPoly, name: str,
                     quotient_dim: int) -> MultiPoly:
    """Minimal polynomial of ``form`` modulo a zero-dimensional ideal, in
    one variable called ``name``; for ``form`` a slot, the generator of the
    elimination ideal in that slot.

    Works by linear algebra in the quotient ring: the normal forms of
    ``1, form, form**2, ...`` live in a ``quotient_dim``-dimensional space,
    so some prefix becomes linearly dependent, and the first dependence is
    the monic minimal polynomial of ``form`` on the variety -- for a slot
    the same polynomial lexicographic elimination would produce, without
    the blowup.
    """
    key = functools.cache(gb.monomial_order.packed(len(form.variables)))  # once per monomial
    v = form
    power = MultiPoly.constant(1, form.variables)
    # row echelon over the standard monomials on integer rows: a vector's
    # numerators and those of the combination of powers of ``keep`` it came
    # from, filed under its leading monomial with the lead's numerator; a
    # heap of negated keys finds each lead, and rows are only ever scaled
    # by positive integers
    pivots: dict[int, tuple[int, dict, dict]] = {}
    for k in range(quotient_dim + 1):
        vec, den = dict(power._num), power._den
        combo = {k: den}
        heap = [(-key(e), e) for e in vec]
        heapify(heap)
        while heap:
            lead = heappop(heap)[1]
            c = vec.pop(lead)
            if not c:
                continue
            hit = pivots.get(lead)
            if hit is None:
                g = gcd(c, *vec.values(), *combo.values())
                pivots[lead] = (c // g, {e: q // g for e, q in vec.items() if q},
                                {j: q // g for j, q in combo.items()})
                break
            # (vec, combo) - c/pc * pivot, scaled by a = |pc|/h > 0
            pc, pvec, pcombo = hit
            h = gcd(c, pc)
            a, b = abs(pc) // h, (c if pc > 0 else -c) // h
            if a != 1:
                vec = {e: q * a for e, q in vec.items()}
                combo = {j: q * a for j, q in combo.items()}
            for e, q in pvec.items():
                if e not in vec:
                    heappush(heap, (-key(e), e))
                vec[e] = vec.get(e, 0) - b * q
            for j, q in pcombo.items():
                combo[j] = combo.get(j, 0) - b * q
        else:
            return MultiPoly((name,), {(j,): Fraction(q, combo[k]) for j, q in combo.items()})
        power = gb.reduce(power * v)
    raise RuntimeError("power iteration exceeded the quotient dimension")


def _real_solutions(gb: GroebnerBasis, variables, basis,
                    weights) -> tuple[tuple[float, ...], ...]:
    """One float reading per real eigenvalue of multiplication by the
    linear form with integer ``weights``, which must take a distinct value
    at each of ``len(basis)`` solutions.

    The eigenvalue method (Cox, Little & O'Shea, *Using Algebraic
    Geometry*, ch. 2 §4; Auzinger & Stetter 1988): on the standard
    monomials ``basis`` that matrix has, for each solution, the left
    eigenvector ``basis(solution)`` with eigenvalue the form's value there,
    and every slot is its normal form dotted with that vector.
    """
    column = {e: k for k, e in enumerate(basis)}

    def coordinates(e) -> np.ndarray:
        """The normal form of the monomial ``e`` on ``basis``."""
        row = np.zeros(len(basis))
        if e in column:  # inside the staircase no reduction is needed
            row[column[e]] = 1.0
        else:
            for f, c in gb.reduce(MultiPoly(variables, {e: 1})).terms.items():
                row[column[f]] = float(c)
        return row

    def raised(e, i: int) -> tuple[int, ...]:
        return e[:i] + (e[i] + 1,) + e[i + 1:]

    one = (0,) * len(variables)
    mult = sum(c * np.array([coordinates(raised(b, i)) for b in basis]).T
               for i, c in enumerate(weights) if c)
    slots = np.array([coordinates(raised(one, i)) for i in range(len(variables))])
    values, vectors = np.linalg.eig(mult.T)
    return tuple(tuple((slots @ (u / u[column[one]])).real.tolist())
                 for lam, u in zip(values, vectors.T)
                 if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam)))


def analyze_freedom(cs: ConstraintSystem,
                    eliminate_to: str | None = None) -> FreedomReport:
    """Dimension, admissible free slots, and the solutions of the ideal.

    When the variety is zero-dimensional, the eliminant is the generator of
    the elimination ideal in ``eliminate_to`` (default: the last slot).
    Real solutions are counted and read on a separating form: that slot if
    its eliminant has degree ``solution_count``, else ``w_1 + 2 w_2 + ...``
    (Cox, Little & O'Shea, ch. 2 §4, Prop. 4.7).  ``real_solution_count``
    is the Sturm count of the form's minimal polynomial, and
    ``real_solutions`` reads every real solution by the eigenvalue method,
    or is ``None`` where that polynomial has fewer than ``solution_count``
    distinct roots (a multiple solution).  The Gröbner basis, dimension,
    admissible slots and standard monomials are memoized per system and
    the rest of each report per (system, slot), so a second slot runs no
    second Buchberger and the optimizer's root search reuses a caller's.
    """
    keep = eliminate_to if eliminate_to is not None else cs.variables[-1]
    if keep not in cs.variables:
        raise ValueError(f"unknown slot {keep!r}")
    ideal = _analyze(cs)
    if keep not in ideal.reports:
        ideal.reports[keep] = _slot_report(cs, ideal, keep)
    return ideal.reports[keep]


@dataclass
class _Ideal:
    """What every slot's report shares, and those reports by slot."""

    groebner: GroebnerBasis
    dimension: int | None  # None for the unit ideal
    suggested: tuple[str, ...]
    standard: tuple[tuple[int, ...], ...]
    reports: dict[str, FreedomReport] = field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def _analyze(cs: ConstraintSystem) -> _Ideal:
    variables = cs.variables
    gb = buchberger(cs.polys, GREVLEX)
    if gb.is_trivial:
        return _Ideal(gb, None, (), ())

    key = GREVLEX.packed(len(variables))
    leads = [max(g._num, key=key) for g in gb.polys]
    exps = [_unpack(e, len(variables)) for e in leads]
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in exps]
    dim = _dimension(supports, len(variables))
    if dim > 0:
        return _Ideal(gb, dim, _admissible_slots(gb.polys, variables), ())

    bounds = []
    for i in range(len(variables)):
        pure = [e[i] for e in exps
                if all(k == 0 for j, k in enumerate(e) if j != i) and e[i]]
        bounds.append(min(pure))
    return _Ideal(gb, 0, (), _standard_monomials(leads, bounds))


def _slot_report(cs: ConstraintSystem, ideal: _Ideal, keep: str) -> FreedomReport:
    variables, gb, standard = cs.variables, ideal.groebner, ideal.standard
    if ideal.dimension is None:
        return FreedomReport(0, (), True, 0, 0, None, gb, real_solutions=())
    if ideal.dimension:
        return FreedomReport(ideal.dimension, ideal.suggested, False, None, None, None, gb)
    count = len(standard)
    eliminant = _power_eliminant(gb, MultiPoly.variable(keep, variables), keep, count)
    weights, minimal = tuple(int(v == keep) for v in variables), eliminant
    if eliminant.total_degree() != count:  # two solutions share its value, or one is multiple
        weights = tuple(range(1, len(variables) + 1))
        form = sum(c * MultiPoly.variable(v, variables) for c, v in zip(weights, variables))
        minimal = _power_eliminant(gb, form, "t", count)
    coeffs = minimal.univariate_coefficients()[1]
    # count distinct eigenvalues, one per solution: else a solution is multiple
    distinct = minimal.total_degree() == count and is_square_free(coeffs)
    solutions = _real_solutions(gb, variables, standard, weights) if distinct else None
    return FreedomReport(0, (), True, count, _sturm_real_roots(coeffs), eliminant, gb,
                         standard, solutions)
