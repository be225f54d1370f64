"""Order conditions as exact polynomials and Gröbner analysis of their ideal.

The order conditions of a decomposition template are the coefficients of
Hall basis elements in ``log U``, viewed as polynomials in the template's
parameter slots (closures removed, so consistency sums reappear as
degree-one conditions).  Three expansion pipelines are used:

* ``word`` -- types N, S and S-abc expand directly in the letter algebra;
* ``leapfrog`` -- type SL expands in a graded algebra with one generator
  ``Z_k`` per odd degree, since each leapfrog block is a symmetric
  second-order integrator with ``log U_L(s) = s Z_1 + s^3 Z_3 + ...``;
* ``euler`` -- type SE expands in a graded algebra with one generator
  ``E_k`` per degree, where reversed Euler terms flip the sign of the
  even-degree generators.

Symmetric templates only produce odd-degree conditions; the even-degree
coefficients are checked to vanish identically and are not emitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import gcd

from .free_algebra import exp, log, make_alphabet, series_from_generator
from .hall import build_hall_basis, lie_coordinates
from .polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    buchberger_basis,
    normal_form,
)
from .polynomials import sturm_real_roots as _sturm_real_roots
from .schemes import Scheme, log_scheme

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


def _emit(series, basis, degrees, D, variables) -> tuple[list, list, list]:
    zero = MultiPoly.constant(0, variables)
    polys, labels, at = [], [], []
    for d in range(1, D + 1):
        coords = series.coords_at_degree(d)
        if d not in degrees:
            bad = [e for e, c in coords.items() if c]
            if bad:
                raise RuntimeError(
                    f"degree-{d} terms should vanish identically, got {bad}")
            continue
        for e in basis.elements(d):
            c = coords.get(e, zero)
            polys.append(c - 1 if d == 1 else c)
            labels.append(e)
            at.append(d)
    return polys, labels, at


def _symbolic_variables(scheme: Scheme) -> dict[str, MultiPoly]:
    slots = scheme.param_slots
    return {s: MultiPoly.variable(s, slots) for s in slots}


def _graded_log(stage_terms, names, degrees, D):
    alphabet = make_alphabet(names, degrees=degrees)
    prod = None
    for terms in stage_terms:
        gen = None
        for letter, coeff in zip(alphabet, terms):
            part = series_from_generator(letter, coeff, D, alphabet)
            gen = part if gen is None else gen + part
        factor = exp(gen)
        prod = factor if prod is None else prod * factor
    basis = build_hall_basis(alphabet, D)
    series, residual = lie_coordinates(log(prod), basis)
    if residual:
        raise RuntimeError(f"non-Lie residual {residual} in graded log")
    return series, basis


def _graded_system(scheme: Scheme, p: int, D: int) -> ConstraintSystem:
    # SL: leapfrog generators Z_k, k odd.  SE: Euler generators E_k; the
    # stages alternate forward/reversed Euler terms starting forward, and a
    # reversed term flips the sign of the even-degree generators.
    leapfrog = scheme.family == "SL"
    ks = tuple(k for k in range(1, D + 1) if k % 2 or not leapfrog)
    values = _symbolic_variables(scheme)
    stage_terms = []
    for i, expr in enumerate(scheme.stage_weights):
        tau = expr.evaluate(values)
        sign = 1 if leapfrog or i % 2 == 0 else -1
        stage_terms.append([(tau ** k) * (sign ** (k + 1)) for k in ks])
    series, basis = _graded_log(stage_terms, [f"{'Z' if leapfrog else 'E'}{k}" for k in ks],
                                list(ks), D)
    polys, labels, at = _emit(series, basis, _condition_degrees(scheme.family, p), D,
                              scheme.param_slots)
    return ConstraintSystem(scheme, p, "leapfrog" if leapfrog else "euler",
                            scheme.param_slots, tuple(polys), tuple(labels), tuple(at))


def _word_system(scheme: Scheme, p: int, D: int) -> ConstraintSystem:
    series = log_scheme(scheme, None, D)
    basis = series.basis
    polys, labels, at = _emit(series, basis,
                              _condition_degrees(scheme.family, p), D,
                              scheme.param_slots)
    return ConstraintSystem(scheme, p, "word", scheme.param_slots,
                            tuple(polys), tuple(labels), tuple(at))


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
        return _graded_system(raw, p, D)
    cap = _WORD_DEGREE_CAP[raw.n]
    if D > cap:
        raise ValueError(
            f"word expansion for n={raw.n} capped at degree {cap}, "
            f"order {p} needs {D}")
    return _word_system(raw, p, D)


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
    free_count: int
    suggested_free_slots: tuple[str, ...]
    zero_dimensional: bool
    solution_count: int | None
    real_solution_count: int | None
    eliminant: MultiPoly | None
    groebner: GroebnerBasis


def _lead_exponents(gb: GroebnerBasis) -> list[tuple[int, ...]]:
    return [g.leading(gb.monomial_order)[0] for g in gb.polys]


def _independent_sets(supports, nvars: int):
    """Variable subsets not containing the support of any leading monomial."""
    by_size: dict[int, list[frozenset[int]]] = {}
    for size in range(nvars, -1, -1):
        for combo in combinations(range(nvars), size):
            s = frozenset(combo)
            if all(not sup <= s for sup in supports):
                by_size.setdefault(size, []).append(s)
        if size in by_size:
            return size, by_size[size]
    return 0, [frozenset()]


def _standard_monomial_count(leads, bounds) -> int:
    count = 0
    for tup in product(*[range(b) for b in bounds]):
        if not any(all(tup[i] >= e[i] for i in range(len(tup))) for e in leads):
            count += 1
    return count


def _univariate_eliminant(polys, variables, keep: str) -> MultiPoly | None:
    order_vars = tuple(v for v in variables if v != keep) + (keep,)
    reordered = [p.restrict(order_vars) for p in polys]
    gb = buchberger_basis(reordered, LEX)
    cands = [g for g in gb if set(g.used_variables()) <= {keep}]
    if not cands:
        return None
    return min(cands, key=lambda g: g.total_degree())


def _admissible_slots(polys, variables) -> tuple[str, ...]:
    """Slots that carry no univariate relation, i.e. may be chosen freely.

    Whether a single slot can serve as the free parameter is a property of
    the ideal, not of any particular basis: ``x`` qualifies exactly when the
    elimination ideal in ``x`` alone is zero.  Slots whose elimination blows
    past the size guard are left out rather than guessed at.
    """
    out = []
    for v in variables:
        try:
            if _univariate_eliminant(polys, variables, v) is None:
                out.append(v)
        except RuntimeError:
            continue
    return tuple(out)


def _power_eliminant(gb: GroebnerBasis, variables, keep: str,
                     quotient_dim: int) -> MultiPoly:
    """Generator of the elimination ideal in ``keep`` of a zero-dimensional
    ideal.

    Works by linear algebra in the quotient ring: the normal forms of
    ``1, keep, keep**2, ...`` live in a ``quotient_dim``-dimensional space,
    so some prefix becomes linearly dependent, and the first dependence is
    the monic minimal polynomial of ``keep`` on the variety -- the same
    polynomial lexicographic elimination would produce, without the blowup.
    """
    key = functools.cache(gb.monomial_order.descending)  # once per exponent
    v = MultiPoly.variable(keep, variables)
    power = MultiPoly.constant(1, variables)
    # row echelon over the standard monomials on integer rows: a vector's
    # numerators and those of the combination of powers of ``keep`` it came
    # from, filed under its leading monomial with the lead's numerator; a
    # heap finds each lead, and rows are only ever scaled by positive integers
    pivots: dict[tuple[int, ...], tuple[int, dict, dict]] = {}
    for k in range(quotient_dim + 1):
        vec, den = power.numerators()
        combo = {k: den}
        heap = [(key(e), e) for e in vec]
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
                    heappush(heap, (key(e), e))
                vec[e] = vec.get(e, 0) - b * q
            for j, q in pcombo.items():
                combo[j] = combo.get(j, 0) - b * q
        else:
            return MultiPoly((keep,), {(j,): Fraction(q, combo[k]) for j, q in combo.items()})
        power = gb.reduce(power * v)
    raise RuntimeError("power iteration exceeded the quotient dimension")


def analyze_freedom(cs: ConstraintSystem,
                    eliminate_to: str | None = None) -> FreedomReport:
    """Dimension, admissible free slots, and solution counts of the ideal.

    When the variety is zero-dimensional, the eliminant is the generator of
    the elimination ideal in ``eliminate_to`` (default: the last slot), and
    real solutions are counted as its distinct real roots.
    """
    variables = cs.variables
    gb = buchberger(cs.polys, GREVLEX)
    if gb.is_trivial:
        return FreedomReport(0, (), True, 0, 0, None, gb)

    leads = _lead_exponents(gb)
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in leads]
    dim, _ = _independent_sets(supports, len(variables))
    if dim > 0:
        suggested = _admissible_slots(gb.polys, variables)
        return FreedomReport(dim, suggested, False, None, None, None, gb)

    bounds = []
    for i in range(len(variables)):
        pure = [e[i] for e in leads
                if all(k == 0 for j, k in enumerate(e) if j != i) and e[i]]
        bounds.append(min(pure))
    total = _standard_monomial_count(leads, bounds)

    keep = eliminate_to if eliminate_to is not None else variables[-1]
    if keep not in variables:
        raise ValueError(f"unknown slot {keep!r}")
    eliminant = _power_eliminant(gb, variables, keep, total)
    _, coeffs = eliminant.univariate_coefficients()
    real = _sturm_real_roots(coeffs)
    return FreedomReport(0, (), True, total, real, eliminant, gb)
