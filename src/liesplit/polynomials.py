"""Exact multivariate polynomials, Groebner bases, and Sturm chains.

``MultiPoly`` is a sparse map from monomials to coefficients over a fixed,
ordered variable tuple, stored as integer numerators over one positive
common denominator with no factor common to all, so equal polynomials
compare and hash equal; ``terms`` is a read-only view with exponent-tuple
keys and ``Fraction`` values.  It implements the small ring interface the
series code needs (``+``, ``-``, ``*``, multiplication by rationals, truth
testing, ``** 0`` as the unit), so order conditions can be extracted by
running the ordinary BCH pipeline with polynomial-valued coefficients.
Only the public constructor checks its input; arithmetic builds results
through ``_poly``.  ``+``, ``-``, ``*`` and ``dot`` run one accumulation,
``_sum_products``, on operands read as numerators over a denominator
(``_operand``): a sum is a start plus a product with the unit.

Inside, a monomial is one packed int (Monagan & Pearce, CASC 2007).  Each
of the n variables owns a 16-bit field, the first variable the highest;
the top bit of a field is a guard bit that a valid monomial leaves clear,
so an exponent is at most ``MAX_EXPONENT`` = 2**15 - 1.  Then:

* multiplying monomials is one int addition.  A field that passes
  ``MAX_EXPONENT`` sets its guard bit and never carries into the next
  field, and every product, power, S-polynomial and reduction step whose
  result sets one raises ``ValueError``, as the constructor does for an
  exponent outside 0..``MAX_EXPONENT``;
* ``d`` divides ``m`` exactly when ``(m - d) & guard`` is zero, ``guard``
  holding every guard bit: a field that would go negative borrows from the
  next one and sets its own guard bit;
* each monomial order has an integer key linear in the exponents: the
  packed int itself for LEX, and for GREVLEX the vector (degree,
  a_1 + ... + a_(n-1), ..., a_1) packed in 32-bit fields.  A product's key
  is the sum of its factors' keys, so division finds the key of each term
  it adds with one more addition.

Exponent tuples appear only at the public edge: the constructor, ``terms``,
``numerators``, ``leading``, ``restrict``, ``univariate_coefficients``,
``evaluate``, ``repr`` and ``MonomialOrder.key``.

The Groebner machinery is plain Buchberger with the Gebauer-Moeller pair
criteria, adequate for the desk-scale ideals that arise here.  Division
takes leading terms from a heap and reduces on integer numerators, as
does the one exact row echelon, ``_eliminate``, behind the exact Hall
solve and the minimal polynomials of ``constraints``.  Real
roots of univariate eliminants are counted with a Sturm chain formed as a
primitive remainder sequence over the integers (Brown & Traub, J. ACM
18:505, 1971): each pseudo-remainder is scaled by a positive factor and
divided by its positive content, which keeps the signs the count reads.
"""

from __future__ import annotations

import functools
import struct
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import index, mul, or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

__all__ = ["MultiPoly", "MonomialOrder", "GREVLEX", "LEX", "MAX_EXPONENT", "dot", "normal_form",
           "s_polynomial", "buchberger_basis", "is_square_free",
           "sturm_real_roots"]

Exponents = tuple[int, ...]
# Buchberger gives up once its basis grows past this many elements
_MAX_BASIS = 400
# one unsigned 16-bit field per variable ("H"), its top bit the guard bit
_BITS = 16
MAX_EXPONENT = (1 << (_BITS - 1)) - 1
_OVERFLOW = f"a product would raise an exponent past MAX_EXPONENT = {MAX_EXPONENT}"
# a GREVLEX key field holds a sum of up to n exponents
_KEY_BITS = 2 * _BITS


@functools.cache
def _layout(n: int) -> tuple[struct.Struct, int, tuple[int, ...]]:
    """The n fields as a struct, the mask of their guard bits, and the
    packed monomial of each variable."""
    units = tuple(1 << (_BITS * (n - 1 - i)) for i in range(n))
    return struct.Struct(f">{n}H"), sum(units) << (_BITS - 1), units


def _pack(e: Sequence[int]) -> int:
    return int.from_bytes(_layout(len(e))[0].pack(*e), "big")


def _unpack(m: int, n: int) -> Exponents:
    return _layout(n)[0].unpack(m.to_bytes(2 * n, "big"))


def _exp_lcm(a: int, b: int, guard: int) -> int:
    """Field-wise maximum: ``ge`` keeps the guard bit of each field where
    a >= b, and ``ge - (ge >> 15)`` widens it to that field's exponent bits."""
    ge = ((a | guard) - b) & guard
    pick = ge - (ge >> (_BITS - 1))
    return (a & pick) | (b & ~pick)


def _grevlex_packed(n: int) -> Callable[[int], int]:
    # key field q, counted from the lowest, holds a_1 + ... + a_(q+1), the
    # top one the degree; so variable i counts in fields i to n - 1
    weights = tuple(sum(1 << (_KEY_BITS * q) for q in range(i, n)) for i in range(n))
    unpack, size = _layout(n)[0].unpack, 2 * n
    return lambda m: sum(map(mul, unpack(m.to_bytes(size, "big")), weights))


class MonomialOrder:
    """A monomial order: ``key`` sorts exponent tuples, larger key = larger
    monomial, and ``packed(n)`` is the equivalent integer key, linear in
    the exponents, on packed monomials of n variables."""

    def __init__(self, name: str, key: Callable[[Exponents], tuple],
                 packed: Callable[[int], Callable[[int], int]]):
        self.name = name
        self.key = key
        self.packed = functools.cache(packed)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name})"


GREVLEX = MonomialOrder(
    "grevlex", lambda e: (sum(e), tuple(-x for x in reversed(e))), _grevlex_packed)
LEX = MonomialOrder("lex", lambda e: e, lambda n: lambda m: m)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


def _poly(variables: tuple[str, ...], num: dict[int, int], den: int = 1) -> "MultiPoly":
    """Trusted constructor: ``num`` holds no zeros; divide out the factor
    common to ``den`` and every numerator and make ``den`` positive."""
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {e: n // g for e, n in num.items()}
        den //= g
    p = object.__new__(MultiPoly)
    p.variables, p._num, p._den = variables, num, den
    return p


class MultiPoly:
    """Sparse polynomial over ordered variables with exact coefficients."""

    __slots__ = ("variables", "_num", "_den", "_division")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable names in {variables}")
        clean: dict[int, Fraction] = {}
        for e, c in (terms or {}).items():
            c = _as_fraction(c)
            if len(e) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            try:
                e = tuple(map(index, e))
            except TypeError:
                raise ValueError(f"non-integer exponent in {e}") from None
            if min(e, default=0) < 0:
                raise ValueError(f"negative exponent in {e}")
            if max(e, default=0) > MAX_EXPONENT:
                raise ValueError(f"exponent in {e} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
            if c:
                clean[_pack(e)] = c
        # the lcm of reduced denominators shares no factor with all numerators
        self._den = lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}
        self.variables = variables

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, variables: Sequence[str]) -> "MultiPoly":
        value = _as_fraction(value)
        return cls(variables, {(0,) * len(variables): value} if value else {})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "MultiPoly":
        idx = tuple(variables).index(name)
        return cls(variables, {tuple(int(i == idx) for i in range(len(variables))): Fraction(1)})

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from exponent vectors to nonzero coefficients."""
        n = len(self.variables)
        return MappingProxyType({_unpack(e, n): Fraction(c, self._den)
                                 for e, c in self._num.items()})

    def numerators(self) -> tuple[dict[Exponents, int], int]:
        """(exponents -> integer numerators, their positive denominator)."""
        n = len(self.variables)
        return {_unpack(e, n): c for e, c in self._num.items()}, self._den

    # -- ring interface ---------------------------------------------------

    def __add__(self, other):
        return self._plus(other, _UNIT)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.variables, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._plus(other, _MINUS_UNIT)

    def __rsub__(self, other):
        return (-self)._plus(other, _UNIT)

    def _plus(self, other, unit: dict[int, int]):
        """self + unit * other, or ``NotImplemented`` for an operand that
        is neither a polynomial nor a rational."""
        try:
            num, den = _operand(other, self.variables)
        except TypeError:
            return NotImplemented
        pairs = [(unit, num, den)] if num else []
        return _sum_products(self.variables, self._num, self._den, pairs)

    def __mul__(self, other):
        try:
            num, den = _operand(other, self.variables)
        except TypeError:
            return NotImplemented
        return _sum_products(self.variables, {}, 1,
                             [(self._num, num, self._den * den)] if num and self._num else [])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1, self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.variables == other.variables and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.variables, self._den, frozenset(self._num.items())))

    def __reduce__(self):
        # without the division record, whose order holds unpicklable keys
        return _poly, (self.variables, self._num, self._den)

    # -- inspection -------------------------------------------------------

    def total_degree(self) -> int:
        n = len(self.variables)
        return max((sum(_unpack(e, n)) for e in self._num), default=0)

    def degree_in(self, name: str) -> int:
        shift = _BITS * (len(self.variables) - 1 - self.variables.index(name))
        return max((e >> shift & MAX_EXPONENT for e in self._num), default=0)

    def used_variables(self) -> tuple[str, ...]:
        used = _unpack(functools.reduce(or_, self._num, 0), len(self.variables))
        return tuple(v for v, u in zip(self.variables, used) if u)

    def coefficient_magnitudes(self) -> Iterable[Fraction]:
        return (Fraction(abs(n), self._den) for n in self._num.values())

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        n = len(self.variables)
        e = max(self._num, key=order.packed(n))
        return _unpack(e, n), Fraction(self._num[e], self._den)

    def monic(self, order: MonomialOrder = GREVLEX) -> "MultiPoly":
        if not self._num:
            return self
        # num/den divided by its lead num[e]/den
        lead = max(self._num, key=order.packed(len(self.variables)))
        return _poly(self.variables, self._num, self._num[lead])

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; values may be Fractions, floats, or polys."""
        missing = [v for v in self.used_variables() if v not in values]
        if missing:
            raise KeyError(f"no value for variable(s) {missing}")
        n, total = len(self.variables), None
        for e, c in self._num.items():
            term = Fraction(c, self._den)
            for name, k in zip(self.variables, _unpack(e, n)):
                if k:
                    term = term * values[name] ** k
            total = term if total is None else total + term
        return total if total is not None else Fraction(0)

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        values = {v: assignments.get(v, MultiPoly.variable(v, self.variables))
                  for v in self.variables}
        out = self.evaluate(values)
        return MultiPoly.constant(out, self.variables) if isinstance(out, Fraction) else out

    def restrict(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a different variable tuple (a superset of used vars)."""
        variables = tuple(variables)
        lost = [v for v in self.used_variables() if v not in variables]
        if lost:
            raise ValueError(f"variable(s) {lost} used but not retained")
        at = [self.variables.index(v) if v in self.variables else None for v in variables]
        return MultiPoly(variables, {tuple(0 if i is None else e[i] for i in at): c
                                     for e, c in self.terms.items()})

    def univariate_coefficients(self) -> tuple[str, list[Fraction]]:
        """(variable, dense coefficient list) for a univariate polynomial."""
        used = self.used_variables()
        if len(used) > 1:
            raise ValueError(f"polynomial is not univariate (uses {used})")
        terms = self.terms
        if not used:
            return "", [terms.get((0,) * len(self.variables), Fraction(0))]
        idx = self.variables.index(used[0])
        coeffs = [Fraction(0)] * (self.degree_in(used[0]) + 1)
        for e, c in terms.items():
            coeffs[e[idx]] = c
        return used[0], coeffs

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        out = []
        for e, c in sorted(self.terms.items(), key=lambda t: GREVLEX.key(t[0]), reverse=True):
            m = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.variables, e) if k)
            out.append(f"{c}" if not m else m if c == 1 else f"-{m}" if c == -1 else f"{c}*{m}")
        return " + ".join(out).replace("+ -", "- ")


_UNIT, _MINUS_UNIT = {0: 1}, {0: -1}  # the left factors of + and -


def _operand(v, variables: tuple[str, ...]) -> tuple[dict[int, int], int]:
    """(numerators, denominator) of an operand: a ``MultiPoly`` over
    ``variables`` or a rational, which is a constant term.  Any other
    value raises ``TypeError``."""
    if isinstance(v, MultiPoly):
        if v.variables != variables:
            raise ValueError("polynomials over different variable tuples")
        return v._num, v._den
    if isinstance(v, (int, Fraction)):
        return ({0: v.numerator} if v else {}), v.denominator
    raise TypeError(f"expected a rational coefficient, got {type(v).__name__}")


def _sum_products(variables: tuple[str, ...], start: dict[int, int], start_den: int,
                  pairs: list) -> MultiPoly:
    """start / start_den + the sum of left * right / den over the (left,
    right, den) ``pairs`` of nonempty numerator dicts, in one dict over
    the lcm of the denominators, normalised once.  The start's terms come
    first, then each pair's, left factor's terms outermost; a monomial
    whose sum reaches zero keeps its place until the end of its pair and is
    dropped there if still zero.  One product with a one-term factor is one
    comprehension.  A monomial past ``MAX_EXPONENT`` raises ``ValueError``."""
    if len(pairs) == 1 and not start and (len(pairs[0][0]) == 1 or len(pairs[0][1]) == 1):
        na, nb, den = pairs[0]
        # the other factor's terms in order, as the loop below visits them
        (e0, n0), = (nb if len(nb) == 1 else na).items()
        num = {e0 + e: n0 * n for e, n in (na if len(nb) == 1 else nb).items()}
        if not e0:  # a scaling keeps the other factor's monomials
            return _poly(variables, num, den)
    else:
        den = lcm(start_den, *[d for _, _, d in pairs])
        scale = den // start_den
        num = dict(start) if scale == 1 else {e: n * scale for e, n in start.items()}
        get, zeroed = num.get, []
        for na, nb, d in pairs:
            f = den // d
            for e1, n1 in na.items():
                n1 *= f
                for e2, n2 in nb.items():
                    e = e1 + e2
                    num[e] = s = get(e, 0) + n1 * n2
                    if not s:
                        zeroed.append(e)
            for e in zeroed:
                if not get(e, 1):
                    del num[e]
            zeroed.clear()
    if num and functools.reduce(or_, num) & _layout(len(variables))[1]:
        raise ValueError(_OVERFLOW)
    return _poly(variables, num, den)


def dot(start, lefts: Sequence, rights: Sequence):
    """``start + sum(a * b for a, b in zip(lefts, rights))``: the exact
    multiply-accumulate of the series and Hall kernels.

    With a ``MultiPoly`` among the operands (the others int or
    ``Fraction``), every product goes into one ``_sum_products``: no
    polynomial per product and no copy of the sum per addition, and the
    terms in the order that adding the products one at a time gives.  A
    monomial of the result past ``MAX_EXPONENT`` raises ``ValueError``,
    operands over another variable tuple too.  Any other operands are
    summed with their own ``*`` and ``+``, a zero ``start`` giving way to
    the first product."""
    operands = (start, *lefts, *rights)
    if MultiPoly not in set(map(type, operands)):
        products = map(mul, lefts, rights)
        if not start:
            start = next(products, start)
        return sum(products, start)
    variables = next(v for v in operands if isinstance(v, MultiPoly)).variables
    pairs = []
    for a, b in zip(lefts, rights):
        (na, da), (nb, db) = _operand(a, variables), _operand(b, variables)
        if na and nb:
            pairs.append((na, nb, da * db))
    return _sum_products(variables, *_operand(start, variables), pairs)


def _eliminate(filed: dict, row: dict, combo: dict, key: Callable[[int], int]) -> dict | None:
    """Add an integer ``row`` ({key: int}) to the fraction-free row echelon
    ``filed``, carrying its combination ``combo`` ({tag: int}) of the
    added rows along; both dicts are consumed.

    ``filed`` maps each lead to (its numerator, the rest of its row, its
    combination).  The row is reduced by the filed rows, leads largest
    ``key`` first through a heap of negated keys, and is only ever scaled
    by positive integers.  A row that reduces to zero is not filed: its
    combination is returned, and the added rows weighted by it sum to
    zero, its own tag's weight positive.  Any other row is divided by the
    content of row and combination together and filed under its lead,
    and None is returned.  The exact Hall solve and the eliminant of
    ``constraints`` run on it."""
    heap = [(-key(e), e) for e in row]
    heapify(heap)
    while heap:
        lead = heappop(heap)[1]
        c = row.pop(lead)
        if not c:
            continue
        hit = filed.get(lead)
        if hit is None:
            g = gcd(c, *row.values(), *combo.values())
            filed[lead] = (c // g, {e: q // g for e, q in row.items() if q},
                           {j: q // g for j, q in combo.items()})
            return None
        # (row, combo) - c/pc * filed row, scaled by a = |pc|/h > 0
        pc, prow, pcombo = hit
        h = gcd(c, pc)
        a, b = abs(pc) // h, (c if pc > 0 else -c) // h
        if a != 1:
            row = {e: q * a for e, q in row.items()}
            combo = {j: q * a for j, q in combo.items()}
        for e, q in prow.items():
            if e not in row:
                heappush(heap, (-key(e), e))
            row[e] = row.get(e, 0) - b * q
        for j, q in pcombo.items():
            combo[j] = combo.get(j, 0) - b * q
    return combo


# ---------------------------------------------------------------- division


def _divisors(basis: Iterable[MultiPoly], order: MonomialOrder) -> list:
    """The division record of each nonzero element: (lead, lead numerator,
    lead key, tail, top), the tail holding (monomial, numerator, key) of
    every other term in stored order and ``top`` the field-wise maximum of
    the tail's monomials.  A polynomial keeps its last record, so a basis
    that divides many times builds each record once."""
    out = []
    for g in basis:
        if not g:
            continue
        kept = getattr(g, "_division", None)
        if kept is None or kept[0] is not order:
            key, guard = order.packed(len(g.variables)), _layout(len(g.variables))[1]
            keys = {e: key(e) for e in g._num}
            lead = max(keys, key=keys.__getitem__)
            tail = [(e, c, keys[e]) for e, c in g._num.items() if e != lead]
            top = functools.reduce(lambda a, t: _exp_lcm(a, t[0], guard), tail, 0)
            kept = g._division = (order, (lead, g._num[lead], keys[lead], tail, top))
        out.append(kept[1])
    return out


def _reduce(p: MultiPoly, divisors: list, order: MonomialOrder) -> MultiPoly:
    """Full remainder of p on division by ``_divisors`` output.

    ``num`` holds integer numerators over ``den``: the remainder so far
    and the terms still to reduce, which wait in a heap under their
    negated keys.  Every term a reduction adds is smaller than the lead it
    cancels, so each monomial enters the heap once and leaves it in
    decreasing order."""
    key, guard = order.packed(len(p.variables)), _layout(len(p.variables))[1]
    num, den = dict(p._num), p._den
    heap = [(-key(e), e) for e in num]
    heapify(heap)
    while heap:
        k, e = heappop(heap)
        c = num[e]
        if not c:
            continue
        for lead, lc, lk, tail, top in divisors:
            if not (e - lead) & guard:
                break
        else:
            continue
        shift = e - lead
        if (top + shift) & guard:
            raise ValueError(_OVERFLOW)
        # num - c/lc * shift(g), scaled by a = |lc|/h > 0
        h = gcd(c, lc)
        a, b = abs(lc) // h, (c if lc > 0 else -c) // h
        if a != 1:
            num = {t: v * a for t, v in num.items()}
            den *= a
        del num[e]
        k += lk  # a tail term's negated key is k + lk - its key
        for ge, gn, gk in tail:
            t = ge + shift
            v = num.get(t)
            if v is None:
                heappush(heap, (k - gk, t))
            num[t] = (v or 0) - b * gn
        if a != 1 and (g := gcd(den, *num.values())) != 1:
            num = {t: v // g for t, v in num.items()}
            den //= g
    return _poly(p.variables, {e: n for e, n in num.items() if n}, den)


def _one_variable_tuple(polys: Iterable[MultiPoly]) -> None:
    # packed monomials over different variable tuples do not line up
    if len({p.variables for p in polys}) > 1:
        raise ValueError("polynomials over different variable tuples")


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly],
                order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Full remainder of p on division by basis (every term reduced)."""
    _one_variable_tuple([p, *basis])
    return _reduce(p, _divisors(basis, order), order)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g, the leading terms cancelling."""
    (ef, cf, *_), (eg, cg, *_) = _divisors((f, g), order)
    lcm_e = _exp_lcm(ef, eg, _layout(len(f.variables))[1])
    # LT(f) = x^ef * cf / f._den, so lcm/LT(f) = x^(lcm-ef) * f._den / cf
    mf = _poly(f.variables, {lcm_e - ef: f._den}, cf)
    mg = _poly(g.variables, {lcm_e - eg: g._den}, cg)
    return mf * f - mg * g


def buchberger_basis(polys: Sequence[MultiPoly],
                     order: MonomialOrder = GREVLEX) -> list[MultiPoly]:
    """Reduced Groebner basis via Buchberger + Gebauer-Moeller pair pruning."""
    _one_variable_tuple(polys)
    basis = [p.monic(order) for p in polys if p]
    if not basis:
        return []
    n = len(basis[0].variables)
    key, guard = order.packed(n), _layout(n)[1]
    divisors = _divisors(basis, order)
    leads = [d[0] for d in divisors]
    pairs: set[tuple[int, int]] = set()
    pair_key: dict[tuple[int, int], int] = {}

    def admit(t: int) -> None:
        nonlocal pairs
        pairs = _update_pairs(pairs, leads, t, n)
        for i, j in pairs:
            if (i, j) not in pair_key:
                pair_key[i, j] = key(_exp_lcm(leads[i], leads[j], guard))

    for i in range(len(basis)):
        admit(i)
    while pairs:
        i, j = min(pairs, key=pair_key.__getitem__)
        pairs.discard((i, j))
        r = _reduce(s_polynomial(basis[i], basis[j], order), divisors, order)
        if not r:
            continue
        basis.append(r.monic(order))
        divisors += _divisors(basis[-1:], order)
        leads.append(divisors[-1][0])
        if len(basis) > _MAX_BASIS:
            raise RuntimeError("Groebner basis computation exceeded the size guard")
        admit(len(basis) - 1)
    return _interreduce(basis, order)


def _update_pairs(pairs: set, leads: list[int], t: int, n: int) -> set:
    """Gebauer-Moeller update when element t joins the basis."""
    lt, guard, grevlex = leads[t], _layout(n)[1], GREVLEX.packed(n)
    cand = {i: _exp_lcm(leads[i], lt, guard) for i in range(t)}  # new candidate pairs (i, t)
    keep: set[int] = set()
    for i in sorted(cand, key=lambda i: grevlex(cand[i])):
        # criterion B: coprime leading terms reduce to zero; criterion M: a
        # kept lcm properly divides this one; criterion F: one of equal lcms
        if cand[i] == leads[i] + lt or any(not (cand[i] - cand[j]) & guard for j in keep):
            continue
        keep.add(i)
    # prune old pairs made redundant by lt
    survivors = set()
    for (i, j) in pairs:
        lcm_ij = _exp_lcm(leads[i], leads[j], guard)
        if not (not (lcm_ij - lt) & guard and _exp_lcm(leads[i], lt, guard) != lcm_ij
                and _exp_lcm(leads[j], lt, guard) != lcm_ij):
            survivors.add((i, j))
    survivors.update((i, t) for i in keep)
    return survivors


def _interreduce(basis: list[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    # drop elements whose lead is divisible by another lead, then tail-reduce;
    # a tail reduction keeps the lead, so the leads found first sort the result
    divisors = _divisors(basis, order)
    basis = [g for g in basis if g]
    leads = [d[0] for d in divisors]
    guard = _layout(len(basis[0].variables))[1]
    kept = [i for i in range(len(basis))
            if not any(j != i and not (leads[i] - leads[j]) & guard
                       and (leads[j] != leads[i] or j < i) for j in range(len(basis)))]
    reduced = []
    for i in kept:
        others = [divisors[j] for j in kept if j != i]
        r = _reduce(basis[i], others, order) if others else basis[i]
        if r:
            reduced.append((divisors[i][2], r.monic(order)))
    reduced.sort(key=lambda kr: kr[0], reverse=True)
    return [r for _, r in reduced]


# -------------------------------------------------------------- univariate
# Dense integer coefficient lists, constant term first, without trailing zeros.


def _primitive(c: list[int]) -> list[int]:
    """c (nonzero) divided by its positive content."""
    g = gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _derivative(c: Sequence[int]) -> list[int]:
    return [k * c[k] for k in range(1, len(c))]


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a by b: each step scales a
    by |lc(b)|/h > 0 before cancelling its lead, never by lc(b) itself."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    while a and len(a) > db:
        h = gcd(a[-1], lb)
        m, f = abs(lb) // h, (a[-1] if lb > 0 else -a[-1]) // h
        if m != 1:
            a = [x * m for x in a]
        for k in range(db):
            a[len(a) - 1 - db + k] -= f * b[k]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _sign_changes(values: Iterable[int]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _sturm_chain(coeffs: Sequence[Fraction]) -> list[list[int]]:
    """p, p', -prem, ... on primitive integer coefficients, ending in
    gcd(p, p'); empty for a constant."""
    c = [_as_fraction(x) for x in coeffs]
    den = lcm(*(x.denominator for x in c))
    c = [x.numerator * (den // x.denominator) for x in c]
    while c and not c[-1]:
        c.pop()
    if len(c) <= 1:
        return []
    chain = [_primitive(c), _primitive(_derivative(c))]
    while len(chain[-1]) > 1 and (rem := _pseudo_remainder(chain[-2], chain[-1])):
        chain.append([-x for x in _primitive(rem)])
    return chain


def is_square_free(coeffs: Sequence[Fraction]) -> bool:
    """True when a univariate polynomial has no repeated complex root."""
    chain = _sturm_chain(coeffs)
    return not chain or len(chain[-1]) == 1


def sturm_real_roots(coeffs: Sequence[Fraction]) -> int:
    """Number of distinct real roots of a univariate polynomial.

    The chain p, p', -prem, ... ends in g = gcd(p, p'); divided through by
    g it is the Sturm chain of the square-free part, and that division
    flips every sign at +-infinity alike, so the count is the same."""
    chain = _sturm_chain(coeffs)
    at_minus = [p[-1] * (-1) ** (len(p) - 1) for p in chain]
    return _sign_changes(at_minus) - _sign_changes(p[-1] for p in chain)
