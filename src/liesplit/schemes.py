"""Splitting-scheme templates, their logs, order checks, and the error measure.

A scheme is a fixed product shape ``prod_i exp(f_i(params) * t * G_i)``
where each exponent ``f_i`` is an affine expression in named parameter
slots.  Five template families are supported: the generic alternating
product N, the palindromic product S (and its ABC-block variant S-abc for
three terms), the leapfrog compositions SL, and the Euler-pair
compositions SE.  Consistency sums (each generator's coefficients summing
to one) are solved once per template and stored as closures, so a point
on the scheme manifold is specified by the free slots only.

``epsilon`` implements the scaled 1-norm error measure: the Hall-basis
coefficient 1-norm of log U at degree p+1, minimized over generator
orderings, times (m/p)^p.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from ._dense import dense_product_log
# exp and log are unused here but stay bound: perfbench/tracing.py wraps
# them by this module's name (tests/test_bench_sites.py pins that)
from .free_algebra import NCSeries, _integer, _is_real, exp, log, make_alphabet
from .hall import HallBasis, LieSeries, _nan_max, build_hall_basis, lie_coordinates, ordering_block
from .polynomials import MultiPoly

__all__ = [
    "LinExpr",
    "Scheme",
    "ParamAssignment",
    "ErrorReport",
    "FAMILIES",
    "build_scheme",
    "log_scheme",
    "verify_order",
    "epsilon",
    "yoshida_recursive",
    "suzuki_recursive",
    "se_chart_names",
    "se_chart_to_slots",
    "se_slots_to_chart",
    "se_chart_closure",
    "scheme_to_text",
    "scheme_from_text",
    "ordering_str",
    "parse_ordering",
]

FAMILIES = {2: ("N", "S", "SL"), 3: ("N", "S", "S-abc", "SE", "SL")}

# the largest non-Lie residual a float log may carry: rounding, not error
_NON_LIE_TOL = 1e-8

# float 1-norms within this relative distance of the least count as tied:
# exact ties differ by roundoff (below 1e-15 relative in the catalog),
# real gaps between orderings by at least 2.6e-3
_TIE_RTOL = 1e-12

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _slot_key(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"(.*?)_?(\d+)", name)
    return (m.group(1), int(m.group(2))) if m else (name, -1)


# ------------------------------------------------------------------ LinExpr


@dataclass(frozen=True)
class LinExpr:
    """Affine expression const + sum coeff_s * slot_s over named slots."""

    const: Fraction = _ZERO
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def slot(name: str) -> "LinExpr":
        return LinExpr(_ZERO, ((name, _ONE),))

    @staticmethod
    def constant(value) -> "LinExpr":
        return LinExpr(Fraction(value), ())

    @staticmethod
    def _make(const: Fraction, coeffs: Mapping[str, Fraction]) -> "LinExpr":
        names = sorted((s for s, c in coeffs.items() if c), key=_slot_key)
        return LinExpr(const, tuple((s, coeffs[s]) for s in names))

    def _coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.const + other, self.coeffs)
        if not isinstance(other, LinExpr):
            return NotImplemented
        coeffs = self._coeff_map()
        for s, c in other.coeffs:
            coeffs[s] = coeffs.get(s, _ZERO) + c
        return LinExpr._make(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return LinExpr(-self.const, tuple((s, -c) for s, c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.const - other, self.coeffs)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return LinExpr()
        return LinExpr(self.const * scalar,
                       tuple((s, c * scalar) for s, c in self.coeffs))

    __rmul__ = __mul__

    @functools.cached_property
    def _floats(self) -> tuple[float, tuple[float, ...]]:
        """float(const) and the float of every coefficient, made once."""
        return float(self.const), tuple(float(c) for _, c in self.coeffs)

    def evaluate(self, values: Mapping[str, object]):
        out = self.const
        const, floats = self._floats
        for (s, c), fc in zip(self.coeffs, floats):
            v = values[s]
            if isinstance(v, float) and isinstance(out, (Fraction, float)):
                # what Fraction's float fallback computes, without the fallback
                out = (const if out is self.const else float(out)) + fc * v
            else:
                out = out + c * v
        return out

    def __str__(self) -> str:
        parts = []
        if self.const or not self.coeffs:
            parts.append(str(self.const))
        for s, c in self.coeffs:
            if c == 1:
                term = s
            elif c == -1:
                term = f"-{s}"
            else:
                term = f"{c}*{s}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)


# ------------------------------------------------------------------- Scheme


@dataclass(frozen=True)
class Scheme:
    """A decomposition template over ``letters`` with affine exponents.

    ``factors`` lists ``(letter index, coefficient expression)`` for the m
    exponentials after contraction.  ``closures`` maps dependent slots to
    expressions in the remaining slots (the per-letter consistency sums);
    ``stage_weights`` records, for SL and SE, the per-leapfrog weight (or
    per-Euler-term coefficient) expressions the template was built from.
    """

    n: int
    family: str
    m: int
    letters: tuple[str, ...]
    param_slots: tuple[str, ...]
    factors: tuple[tuple[int, LinExpr], ...]
    closures: tuple[tuple[str, LinExpr], ...] = ()
    stage_weights: tuple[LinExpr, ...] | None = None

    @property
    def nu(self) -> int:
        return len(self.param_slots)

    @property
    def closure_map(self) -> dict[str, LinExpr]:
        return dict(self.closures)

    @property
    def free_slots(self) -> tuple[str, ...]:
        dependent = {s for s, _ in self.closures}
        return tuple(s for s in self.param_slots if s not in dependent)

    def without_closures(self) -> "Scheme":
        return replace(self, closures=())

    def resolve_slots(self, params: Mapping[str, object]) -> dict[str, object]:
        """Full slot assignment; provided values win over closure formulas.
        Every value is a Python int, ``Fraction`` or float (``_slot_number``);
        raises ``ValueError`` naming the slot of a value that is no real
        number, a bool, or NaN or infinite."""
        params = _param_values(params)
        values: dict[str, object] = {}
        closure = self.closure_map
        for s in self.param_slots:
            if s in params:
                values[s] = _slot_number(s, params[s])
            elif s in closure:
                values[s] = _slot_number(s, closure[s].evaluate(values))
            else:
                raise KeyError(f"no value for free parameter slot {s!r}")
        return values

    def resolve(self, params: Mapping[str, object]) -> list[tuple[int, object]]:
        values = self.resolve_slots(params)
        return [(g, expr.evaluate(values)) for g, expr in self.factors]

    def coefficient_sum(self, letter: str) -> LinExpr:
        return _letter_sum(self.factors, self.letters.index(letter))

    def label(self) -> str:
        return f"n{self.n}-{self.family.lower().replace('-', '')}-m{self.m}"

    def describe(self) -> str:
        lines = [f"{self.label()}: {self.m} factors, "
                 f"{self.nu} slots ({len(self.free_slots)} free)"]
        for g, expr in self.factors:
            lines.append(f"  exp[({expr}) t {self.letters[g]}]")
        if self.closures:
            lines.append("closures:")
            for s, expr in self.closures:
                lines.append(f"  {s} = {expr}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ParamAssignment:
    values: Mapping[str, object]
    provenance: str = "user"

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values.values())


def _slot_number(slot: str, value):
    """``value`` of ``slot`` as a Python number: an integer (numpy's too)
    as an int, another rational as a ``Fraction``, any other real (numpy
    floats of every width) as a float.  A bool, a value that is no real
    number, or a NaN or infinite one raises ``ValueError`` naming the slot."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"parameter slot {slot!r} is {value!r}, not a real number")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    if not math.isfinite(value := float(value)):
        raise ValueError(f"parameter slot {slot!r} is {value}, not a finite number")
    return value


def _param_values(params) -> Mapping[str, object]:
    if isinstance(params, ParamAssignment):
        return params.values
    return params


# ------------------------------------------------------- template builders


def _solve_letter_sum(total: LinExpr, dependent: str, target=_ONE) -> LinExpr:
    """Solve ``total == target`` for ``dependent``; total is affine."""
    coeffs = dict(total.coeffs)
    mu = coeffs.pop(dependent)
    rest = LinExpr._make(total.const, coeffs)
    return (target - rest) * (_ONE / mu)


def _letter_sum(factors: Sequence[tuple[int, LinExpr]], g: int) -> LinExpr:
    """Sum of the coefficient expressions of the factors of letter g, in
    one dict: linear in the number of factors."""
    const, coeffs = _ZERO, {}
    for gi, expr in factors:
        if gi == g:
            const += expr.const
            for s, c in expr.coeffs:
                coeffs[s] = coeffs.get(s, _ZERO) + c
    return LinExpr._make(const, coeffs)


def _letter_closures(letters: Sequence[str],
                     factors: Sequence[tuple[int, LinExpr]],
                     slot_order: Sequence[str],
                     only: Sequence[str] | None = None) -> list[tuple[str, LinExpr]]:
    closures = []
    for g, letter in enumerate(letters):
        if only is not None and letter not in only:
            continue
        total = _letter_sum(factors, g)
        names = {s for s, _ in total.coeffs}
        dependent = next((s for s in reversed(slot_order) if s in names), None)
        if dependent is None:
            raise ValueError(f"generator {letter} never occurs in the template")
        closures.append((dependent, _solve_letter_sum(total, dependent)))
    return closures


def _sequential_template(letter_of: Sequence[int]) -> list[str]:
    """Per-letter slot naming for N/S/S-abc templates.

    ``letter_of[i]`` is the letter index of factor i (0-based).  Each
    factor gets its own slot, named a_1, a_2, ... per letter in order.
    """
    counters = [0, 0, 0]
    slots: list[str] = []
    for g in letter_of:
        counters[g] += 1
        slots.append(f"{'abc'[g]}_{counters[g]}")
    return slots


def _build_n(n: int, m: int) -> Scheme:
    if m < n:
        raise ValueError(f"type N with n={n} needs at least m={n} factors")
    pattern = (0, 1) if n == 2 else (0, 1, 2, 1)
    letter_of = [pattern[i % len(pattern)] for i in range(m)]
    if len(set(letter_of)) < n:
        raise ValueError(f"type N with m={m} never reaches all {n} generators")
    slots = _sequential_template(letter_of)
    factors = tuple((g, LinExpr.slot(s)) for g, s in zip(letter_of, slots))
    letters = ("A", "B", "C")[:n]
    closures = _letter_closures(letters, factors, slots)
    return Scheme(n, "N", m, letters, tuple(slots), factors, tuple(closures))


def _palindromic_scheme(n: int, family: str, m: int, block: Sequence[int]) -> Scheme:
    """m factors cycling through ``block`` to the middle and mirrored after
    it; each factor of the first half has its own slot."""
    half = [block[i % len(block)] for i in range((m + 1) // 2)]
    slots = _sequential_template(half)
    factors = tuple((half[k], LinExpr.slot(slots[k]))
                    for k in (min(i, m - 1 - i) for i in range(m)))
    letters = ("A", "B", "C")[:n]
    closures = _letter_closures(letters, factors, slots)
    return Scheme(n, family, m, letters, tuple(slots), factors, tuple(closures))


def _build_s(n: int, m: int) -> Scheme:
    if m % 2 == 0 or m < 2 * n - 1:
        raise ValueError(f"type S needs odd m >= {2 * n - 1}")
    return _palindromic_scheme(n, "S", m, (0, 1) if n == 2 else (0, 1, 2, 1))


def _build_s_abc(m: int) -> Scheme:
    if m % 2 == 0 or (m + 1) % 3 or ((m + 1) // 3) % 2:
        raise ValueError("type S-abc needs odd m with (m+1)/3 even")
    return _palindromic_scheme(3, "S-abc", m, (0, 1, 2))


def _leapfrog_weights(k: int) -> tuple[list[str], list[LinExpr]]:
    """Palindromic weight expressions w_1 .. w_nu .. w_1 of length k."""
    nu = (k + 1) // 2
    slots = [f"w_{j}" for j in range(1, nu + 1)]
    weights = [LinExpr.slot(slots[min(i, k + 1 - i) - 1]) for i in range(1, k + 1)]
    return slots, weights


def _build_sl(n: int, m: int) -> Scheme:
    step = 2 if n == 2 else 4
    if (m - 1) % step or m < step + 1:
        raise ValueError(f"type SL with n={n} needs m = {step}k+1")
    k = (m - 1) // step
    slots, weights = _leapfrog_weights(k)
    factors: list[tuple[int, LinExpr]] = [(0, weights[0] * _HALF)]
    for i, w in enumerate(weights):
        if n == 2:
            factors.append((1, w))
        else:
            factors.extend([(1, w * _HALF), (2, w), (1, w * _HALF)])
        nxt = weights[i + 1] if i + 1 < k else None
        factors.append((0, (w + nxt) * _HALF if nxt is not None else w * _HALF))
    letters = ("A", "B", "C")[:n]
    closures = _letter_closures(letters, factors, slots, only=("A",))
    return Scheme(n, "SL", m, letters, tuple(slots), tuple(factors),
                  tuple(closures), stage_weights=tuple(weights))


def _euler_tau_slots(k: int) -> list[str]:
    return [f"u_{(i + 1) // 2}" if i % 2 else f"v_{i // 2}" for i in range(1, k + 1)]


def _build_se(m: int) -> Scheme:
    if (m - 1) % 4 or m < 5:
        raise ValueError("type SE needs m = 4k+1")
    k = (m - 1) // 4
    slots = _euler_tau_slots(k)
    tau = [LinExpr.slot(s) for s in slots]          # tau_1 .. tau_k
    # first half: A(tau1) B(tau1) [merge] B(tau2) [merge] B(tau3) ...
    first: list[tuple[int, LinExpr]] = [(0, tau[0]), (1, tau[0])]
    for i in range(1, k):
        merge_letter = 2 if i % 2 else 0            # C after E+, A after E-
        first.append((merge_letter, tau[i - 1] + tau[i]))
        first.append((1, tau[i]))
    center = (2 if k % 2 else 0, tau[k - 1] * 2)
    factors = tuple(first + [center] + [(g, e) for g, e in reversed(first)])
    letters = ("A", "B", "C")
    closures = _letter_closures(letters, factors, slots, only=("A",))
    stage = tuple(tau + list(reversed(tau)))        # tau_i for all 2k Euler terms
    return Scheme(3, "SE", m, letters, tuple(slots), factors,
                  tuple(closures), stage_weights=stage)


def build_scheme(n: int, family: str, m: int) -> Scheme:
    n, m = _integer(n, "n"), _integer(m, "m")
    fam = family.strip().upper().replace("_", "-")
    if fam in ("S-ABC", "SABC"):
        fam = "S-abc"
    if n not in FAMILIES or fam not in FAMILIES[n]:
        raise ValueError(f"family {family!r} is not defined for n={n}")
    if fam == "N":
        return _build_n(n, m)
    if fam == "S":
        return _build_s(n, m)
    if fam == "S-abc":
        return _build_s_abc(m)
    if fam == "SE":
        return _build_se(m)
    return _build_sl(n, m)


# ------------------------------------------------------------ orderings


def parse_ordering(text: str | Sequence[str] | None,
                   letters: Sequence[str]) -> tuple[str, ...]:
    if text is None:
        return tuple(letters)
    if not isinstance(text, str):
        ordering = tuple(text)
    else:
        ordering = tuple(p.strip() for p in text.replace("<", " ").split())
    if sorted(ordering) != sorted(letters):
        raise ValueError(f"ordering {text!r} is not a permutation of {letters}")
    return ordering


def ordering_str(ordering: Sequence[str]) -> str:
    return "<".join(ordering)


def _basis_for(scheme: Scheme, series: NCSeries, ordering: Sequence[str] | None) -> HallBasis:
    """The basis that reads ``series``, a product-log of ``scheme``, with
    the letters ranked as in ``ordering`` (the identity by default)."""
    ordering = parse_ordering(ordering, scheme.letters)
    ids = tuple(scheme.letters.index(x) for x in ordering)
    return build_hall_basis(series.alphabet, series.max_degree, ordering=ids)


# ------------------------------------------------------------- log paths


def symbolic_slot_values(scheme: Scheme) -> dict[str, MultiPoly]:
    """Free slots as polynomial variables, dependent slots via closures."""
    free = scheme.free_slots
    values: dict[str, object] = {s: MultiPoly.variable(s, free) for s in free}
    for s, expr in scheme.closures:
        values[s] = expr.evaluate(values)
    return values


def log_scheme(scheme: Scheme, params, D: int,
               ordering: Sequence[str] | None = None) -> LieSeries:
    """log of the scheme's product as a LieSeries, truncated at degree D.

    ``params`` may assign Fractions (exact coefficients), floats (float
    coefficients), or be None for symbolic coefficients, where free slots
    become polynomial variables.
    """
    D = _integer(D, "D")
    if D < 1:
        raise ValueError("need D >= 1")
    series = _product_log(scheme, params, D)
    lie, residual = lie_coordinates(series, _basis_for(scheme, series, ordering))
    _check_lie(residual, series)
    return lie


def _product_log(scheme: Scheme, params, D: int) -> NCSeries:
    """The log of the scheme's product, truncated at degree D, in the
    coefficient domain of ``params`` (see ``log_scheme``)."""
    values = symbolic_slot_values(scheme) if params is None else scheme.resolve_slots(params)
    return dense_product_log(make_alphabet(scheme.letters), D,
                             [((g, e.evaluate(values)),) for g, e in scheme.factors])


def _check_lie(residual, series: NCSeries) -> None:
    """Raise on a non-Lie residual above rounding, or any if exact."""
    if not residual <= (_NON_LIE_TOL if isinstance(series.unit(), float) else 0):  # NaN fails too
        raise RuntimeError(f"non-Lie residual {float(residual):.2e} in the product's log")


def _read_top(scheme: Scheme, series: NCSeries, basis: HallBasis) -> tuple[tuple, tuple, list]:
    """``series``' degree-D Hall coordinates in every generator ordering,
    D the degree of ``basis``, the identity basis (``_basis_for``):
    (orderings, elements, columns), the orderings of ``scheme.letters`` in
    permutation order (the identity first), each one's degree-D Hall
    elements in basis order and the coefficients on them, zeros included
    as the domain's zero.  Float, exact and polynomial series alike; one
    solve in the identity basis covers every ordering
    (``hall.ordering_block``).  Raises as ``_check_lie`` does."""
    D = basis.max_degree
    ids, elements, gather = ordering_block(basis.generator_degrees, D)
    coords, residual = basis.coords_from_dense(D, series.array(D)[gather.T])
    _check_lie(residual, series)
    zero = 0.0 if isinstance(series.unit(), float) else _ZERO
    columns = [[c if c else zero for c in col] for col in coords.T.tolist()]
    return tuple(tuple(scheme.letters[g] for g in o) for o in ids), elements, columns


def _require_numeric(params, caller: str) -> None:
    if params is None:
        raise ValueError(f"{caller} needs numeric parameters; "
                         "log_scheme(scheme, None, D) is the symbolic path")


def _checked_order(p, tolerance) -> int:
    """The order ``p`` of ``verify_order`` and ``epsilon`` as an int >= 1,
    checked with their ``tolerance``: a non-integral ``p``, a ``p`` below
    1 or a ``tolerance`` that is no finite real >= 0 (``_is_real``)
    raises ``ValueError``."""
    p = _integer(p, "p")
    if p < 1:
        raise ValueError("order must be >= 1")
    if not (_is_real(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be a non-negative number, not {tolerance!r}")
    return p


def verify_order(scheme: Scheme, params, p: int,
                 tolerance: float = 1e-10) -> tuple[bool, dict[int, float]]:
    """Check U = e^{tH} + O(t^{p+1}): unit degree-1 coords, zero at 2..p."""
    p = _checked_order(p, tolerance)
    _require_numeric(params, "verify_order")
    series = _product_log(scheme, params, p)
    residuals = _order_residuals(series, _basis_for(scheme, series, None), p)
    ok = all(float(abs(v)) <= tolerance for v in residuals.values())
    return ok, residuals


def _order_conditions(series: NCSeries, basis: HallBasis, p: int) -> dict[int, list]:
    """The order conditions at each degree 1..p of ``series``, read in
    ``basis``, one per Hall element in basis order: a degree-1 coordinate
    minus one, one of degree 2..p as it is, an absent degree's coordinates
    the domain's zero.  A product has order p when they all vanish.  Reads
    each degree's coordinate array from ``coords_from_dense`` and raises as
    ``_check_lie`` does on the largest non-Lie residual, a NaN one first."""
    zero, present = series.unit() * 0, series.degrees()
    conditions, residuals = {}, [0]
    for d in range(1, p + 1):
        if d in present:
            coords, residual = basis.coords_from_dense(d, series.array(d))
            residuals.append(residual)
            column = [c if c else zero for c in coords.tolist()]
        else:
            column = [zero] * len(basis.elements(d))
        conditions[d] = [c - 1 for c in column] if d == 1 else column
    _check_lie(_nan_max(residuals), series)
    return conditions


def _order_residuals(series: NCSeries, basis: HallBasis, p: int) -> dict[int, object]:
    """The largest order condition (``_order_conditions``) in magnitude at
    each degree 1..p; a NaN one wins."""
    return {d: _nan_max(map(abs, column))
            for d, column in _order_conditions(series, basis, p).items()}


@dataclass(frozen=True)
class ErrorReport:
    """Scaled 1-norm error of the degree-(p+1) term, per generator ordering."""

    p: int
    m: int
    prefactor: object
    ordering_best: tuple[str, ...]
    epsilon: object
    sums_per_ordering: dict[tuple[str, ...], object]
    coeffs_per_ordering: dict[tuple[str, ...], tuple]
    order_residuals: dict[int, object]


def epsilon(scheme: Scheme, params, p: int, tolerance: float = 1e-10) -> ErrorReport:
    """Error measure (m/p)^p * min over Hall orderings of sum |c_i| at p+1.

    Forms one product and its log at D = p+1.  Its degrees 1..p in the
    identity ordering give the order residuals, the same values
    ``verify_order`` returns; its degree p+1 gives the 1-norm for every
    ordering.  Of orderings that tie, ``ordering_best`` is the first in
    permutation order; float sums within 1e-12 relative of the least tie.
    """
    p = _checked_order(p, tolerance)
    _require_numeric(params, "epsilon")
    series = _product_log(scheme, params, p + 1)
    basis = _basis_for(scheme, series, None)
    residuals = _order_residuals(series, basis, p)
    orderings, elements, columns = _read_top(scheme, series, basis)
    # a NaN residual counts as the worst and fails the check
    worst = _nan_max(float(abs(v)) for v in residuals.values())
    if not worst <= tolerance:
        raise ValueError(f"scheme does not reach order {p}: max residual {worst:.3e}")

    exact = not isinstance(series.unit(), float)
    sums: dict[tuple[str, ...], object] = {}
    coeffs: dict[tuple[str, ...], tuple] = {}
    for ordering, es, col in zip(orderings, elements, columns):
        # a float zero adds nothing to a left-to-right sum; exact zeros are
        # skipped so that an all-zero sum stays the int 0
        sums[ordering] = sum(abs(c) for c in col if c) if exact else float(sum(map(abs, col)))
        coeffs[ordering] = tuple(zip(es, col))
    prefactor = Fraction(scheme.m, p) ** p if exact else (scheme.m / p) ** p

    if exact:
        best = min(sums, key=sums.__getitem__)
    else:
        least = min(sums.values())
        best = next((o for o in sums if sums[o] <= least * (1 + _TIE_RTOL)), next(iter(sums)))
    return ErrorReport(p=p, m=scheme.m, prefactor=prefactor,
                       ordering_best=best, epsilon=prefactor * sums[best],
                       sums_per_ordering=sums, coeffs_per_ordering=coeffs,
                       order_residuals=residuals)


# ------------------------------------------------- recursive constructions


def yoshida_recursive(q: int, n: int = 2) -> tuple[Scheme, ParamAssignment]:
    """Order-2q composition from the triple-jump recursion."""
    weights = _recursive_weights(q, triple=True)
    return _sl_from_weights(n, weights, f"yoshida q={q}")


def suzuki_recursive(q: int, n: int = 2) -> tuple[Scheme, ParamAssignment]:
    """Order-2q composition from the five-fold (fractal) recursion."""
    weights = _recursive_weights(q, triple=False)
    return _sl_from_weights(n, weights, f"suzuki q={q}")


def _recursive_weights(q: int, triple: bool) -> list:
    q = _integer(q, "q")
    if q < 1:
        raise ValueError("need q >= 1")
    weights = [_ONE]
    for j in range(1, q):
        if triple:
            y = (2 - 2 ** (1 / (2 * j + 1))) ** -1
            weights = ([w * y for w in weights]
                       + [w * (1 - 2 * y) for w in weights]
                       + [w * y for w in weights])
        else:
            z = (4 - 4 ** (1 / (2 * j + 1))) ** -1
            outer = [w * z for w in weights]
            weights = outer + outer + [w * (1 - 4 * z) for w in weights] + outer + outer
    return weights


def _sl_from_weights(n: int, weights: list, provenance: str):
    k = len(weights)
    m = (2 if n == 2 else 4) * k + 1
    scheme = build_scheme(n, "SL", m)
    values = {f"w_{j + 1}": weights[j] for j in range((k + 1) // 2)}
    return scheme, ParamAssignment(values, provenance)


# ------------------------------------------------------- SE chart support


def se_chart_names(scheme: Scheme) -> tuple[str, ...]:
    """(u, q_1, r_1, q_2, ...): contracted-exponent coordinates for SE."""
    if scheme.family != "SE":
        raise ValueError("chart coordinates only exist for SE schemes")
    k = (scheme.m - 1) // 4
    names = ["u"]
    for i in range(1, k):
        names.append(f"q_{(i + 1) // 2}" if i % 2 else f"r_{i // 2}")
    return tuple(names)


def se_chart_to_slots(scheme: Scheme, chart: Mapping[str, object]) -> dict[str, object]:
    """Invert u = tau_1, q_i = tau_{2i-1}+tau_{2i}, r_i = tau_{2i}+tau_{2i+1}."""
    names = se_chart_names(scheme)
    tau_prev = None
    out: dict[str, object] = {}
    for i, (name, slot) in enumerate(zip(names, scheme.param_slots), start=1):
        value = chart[name] if i == 1 else chart[name] - tau_prev
        out[slot] = value
        tau_prev = value
    return out


def se_slots_to_chart(scheme: Scheme, params: Mapping[str, object]) -> dict[str, object]:
    values = scheme.resolve_slots(params)
    taus = [values[s] for s in scheme.param_slots]
    chart = {}
    for i, name in enumerate(se_chart_names(scheme), start=1):
        chart[name] = taus[0] if i == 1 else taus[i - 2] + taus[i - 1]
    return chart


def se_chart_closure(scheme: Scheme) -> tuple[str, LinExpr]:
    """Consistency sum in chart coordinates, solved for the last chart name.

    Telescoping tau_i = chart_i - tau_{i-1} turns sum(tau) = 1/2 into a
    relation on alternating chart sums; the dependent coordinate is the
    highest-index one.
    """
    names = se_chart_names(scheme)
    tau = LinExpr()
    total = LinExpr()
    for name in names:
        tau = LinExpr.slot(name) - tau
        total = total + tau
    return names[-1], _solve_letter_sum(total, names[-1], target=_HALF)


# ------------------------------------------------------------ serialization


def scheme_to_text(scheme: Scheme, params, ordering: Sequence[str] | None = None) -> str:
    values = scheme.resolve_slots(params)
    lines = [f"n = {scheme.n}", f"family = {scheme.family}", f"m = {scheme.m}"]
    if ordering is not None:
        lines.append(f"ordering = {ordering_str(parse_ordering(ordering, scheme.letters))}")
    for s in scheme.param_slots:
        v = values[s]
        if isinstance(v, (int, Fraction)):
            lines.append(f"{s} = {Fraction(v)}")
        else:
            lines.append(f"{s} = {float(v):.17g}")
    return "\n".join(lines) + "\n"


def scheme_from_text(text: str):
    """Parse the key = value document; returns (scheme, params, ordering)."""
    fields: dict[str, tuple[int, str]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ValueError(f"line {ln}: malformed line {line!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {ln}: field {key!r} repeats line {fields[key][0]}")
        fields[key] = (ln, value.strip())
    try:
        n = _integer_field(fields, "n")
        family = fields.pop("family")[1]
        m = _integer_field(fields, "m")
    except KeyError as missing:
        raise ValueError(f"missing required field {missing}") from None
    ordering = fields.pop("ordering", (0, None))[1]
    scheme = build_scheme(n, family, m)
    params: dict[str, object] = {}
    for key, (ln, value) in fields.items():
        if key not in scheme.param_slots:
            raise ValueError(f"line {ln}: unknown parameter slot {key!r}")
        params[key] = _parse_scalar(value, ln)
    if ordering is not None:
        ordering = parse_ordering(ordering, scheme.letters)
    return scheme, params, ordering


def _integer_field(fields: dict[str, tuple[int, str]], key: str) -> int:
    """Pop field ``key``, whose text must be an optionally signed integer."""
    ln, text = fields.pop(key)
    if not re.fullmatch(r"[+-]?\d+", text):
        raise ValueError(f"line {ln}: field {key!r} is {text!r}, not an integer")
    return int(text)


def _parse_scalar(text: str, ln: int):
    """A Fraction for integer or ratio text, else a finite float."""
    try:
        if re.fullmatch(r"[+-]?\d+(/\d+)?", text):
            return Fraction(text)
        if math.isfinite(value := float(text)):
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"line {ln}: {text!r} is not a finite number")
