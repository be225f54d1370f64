"""Exact multivariate polynomials, Groebner bases, and Sturm chains.

``MultiPoly`` is a sparse exponent-vector map over a fixed, ordered
variable tuple, stored as integer numerators over one positive common
denominator with no factor common to all, so equal polynomials compare
and hash equal; ``terms`` is a read-only view with ``Fraction`` values.
It implements the small ring interface the series code needs (``+``,
``-``, ``*``, multiplication by rationals, truth testing, ``** 0`` as the
unit), so order conditions can be extracted by running the ordinary BCH
pipeline with polynomial-valued coefficients.  Only the public
constructor checks its input; arithmetic builds results through ``_poly``.

The Groebner machinery is plain Buchberger with the Gebauer-Moeller pair
criteria, adequate for the desk-scale ideals that arise here.  Division
takes leading terms from a heap, each exponent's order key computed once,
and reduces on integer numerators (Monagan & Pearce, CASC 2007).  Real
roots of univariate eliminants are counted with a Sturm chain formed as a
primitive remainder sequence over the integers (Brown & Traub, J. ACM
18:505, 1971): each pseudo-remainder is scaled by a positive factor and
divided by its positive content, which keeps the signs the count reads.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, index, le, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

__all__ = ["MultiPoly", "MonomialOrder", "GREVLEX", "LEX", "normal_form", "s_polynomial",
           "buchberger_basis", "is_groebner_basis", "sturm_real_roots"]

Exponents = tuple[int, ...]


class MonomialOrder:
    """A monomial order given by a sort key; larger key = larger monomial."""

    def __init__(self, name: str, key: Callable[[Exponents], tuple]):
        self.name = name
        self.key = key

    def descending(self, e: Exponents) -> tuple:
        """A heap key for e: heapq's smallest entry is the largest monomial."""
        return _negated(self.key(e))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name})"


def _negated(key):
    return tuple(map(_negated, key)) if isinstance(key, tuple) else -key


GREVLEX = MonomialOrder(
    "grevlex", lambda e: (sum(e), tuple(-x for x in reversed(e))))
LEX = MonomialOrder("lex", lambda e: e)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


def _poly(variables: tuple[str, ...], num: dict[Exponents, int], den: int = 1) -> "MultiPoly":
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

    __slots__ = ("variables", "_num", "_den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable names in {variables}")
        clean: dict[Exponents, Fraction] = {}
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
            if c:
                clean[e] = c
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
        return MappingProxyType({e: Fraction(n, self._den) for e, n in self._num.items()})

    def numerators(self) -> tuple[dict[Exponents, int], int]:
        """(exponents -> integer numerators, their positive denominator)."""
        return dict(self._num), self._den

    # -- ring interface ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("polynomials over different variable tuples")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other, self.variables)
        return None

    def _add(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._den, other._den
        den = a if a == b else lcm(a, b)
        fa, fb = den // a, sign * (den // b)
        num = dict(self._num) if fa == 1 else {e: n * fa for e, n in self._num.items()}
        get = num.get
        for e, n in other._num.items():
            s = get(e, 0) + n * fb
            if s:
                num[e] = s
            else:
                del num[e]
        return _poly(self.variables, num, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.variables, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = self._coerce(other)
            out: dict[Exponents, int] = {}
            get = out.get
            right = list(other._num.items())
            for e1, n1 in self._num.items():
                for e2, n2 in right:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + n1 * n2
            return _poly(self.variables, {e: n for e, n in out.items() if n},
                         self._den * other._den)
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            if not n:
                return _poly(self.variables, {})
            return _poly(self.variables, {e: v * n for e, v in self._num.items()}, self._den * d)
        return NotImplemented

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

    # -- inspection -------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self._num), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((e[idx] for e in self._num), default=0)

    def used_variables(self) -> tuple[str, ...]:
        used = [any(x) for x in zip(*self._num)] or [False] * len(self.variables)
        return tuple(v for v, u in zip(self.variables, used) if u)

    def coefficient_magnitudes(self) -> Iterable[Fraction]:
        return (Fraction(abs(n), self._den) for n in self._num.values())

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._num, key=order.key)
        return e, Fraction(self._num[e], self._den)

    def monic(self, order: MonomialOrder = GREVLEX) -> "MultiPoly":
        if not self._num:
            return self
        # num/den divided by its lead num[e]/den
        return _poly(self.variables, self._num, self._num[max(self._num, key=order.key)])

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; values may be Fractions, floats, or polys."""
        missing = [v for v in self.used_variables() if v not in values]
        if missing:
            raise KeyError(f"no value for variable(s) {missing}")
        total = None
        for e, c in self.terms.items():
            term = c
            for name, k in zip(self.variables, e):
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


# ---------------------------------------------------------------- division


def _divides(e1: Exponents, e2: Exponents) -> bool:
    return all(map(le, e1, e2))


def _exp_sub(e1: Exponents, e2: Exponents) -> Exponents:
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1: Exponents, e2: Exponents) -> Exponents:
    return tuple(map(max, e1, e2))


def _divisors(basis: Iterable[MultiPoly], order: MonomialOrder) -> list:
    """(lead exponents, lead numerator, numerators) of each nonzero element."""
    leads = [(max(g._num, key=order.key), g._num) for g in basis if g]
    return [(e, num[e], num) for e, num in leads]


def _reduce(p: MultiPoly, divisors: list, order: MonomialOrder) -> MultiPoly:
    """Full remainder of p on division by ``_divisors`` output.

    ``num`` holds integer numerators over ``den``: the remainder so far
    and the terms still to reduce, which wait in a heap.  Every term a
    reduction adds is smaller than the lead it cancels, so each exponent
    enters the heap once and leaves it in decreasing order."""
    key, num, den = order.descending, dict(p._num), p._den
    heap = [(key(e), e) for e in num]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = num[e]
        hit = next((d for d in divisors if _divides(d[0], e)), None) if c else None
        if hit is None:
            continue
        lead, lc, gnum = hit
        # num - c/lc * shift(g), scaled by a = |lc|/h > 0
        h = gcd(c, lc)
        a, b = abs(lc) // h, (c if lc > 0 else -c) // h
        if a != 1:
            num = {t: v * a for t, v in num.items()}
            den *= a
        del num[e]
        shift = _exp_sub(e, lead)
        for ge, gn in gnum.items():
            if ge != lead:
                t = tuple(map(add, ge, shift))
                v = num.get(t)
                if v is None:
                    heappush(heap, (key(t), t))
                num[t] = (v or 0) - b * gn
        if a != 1 and (g := gcd(den, *num.values())) != 1:
            num = {t: v // g for t, v in num.items()}
            den //= g
    return _poly(p.variables, {e: n for e, n in num.items() if n}, den)


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly],
                order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Full remainder of p on division by basis (every term reduced)."""
    return _reduce(p, _divisors(basis, order), order)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g, the leading terms cancelling."""
    (ef, cf, _), (eg, cg, _) = _divisors((f, g), order)
    lcm_e = _exp_lcm(ef, eg)
    # LT(f) = x^ef * cf / f._den, so lcm/LT(f) = x^(lcm-ef) * f._den / cf
    mf = _poly(f.variables, {_exp_sub(lcm_e, ef): f._den}, cf)
    mg = _poly(g.variables, {_exp_sub(lcm_e, eg): g._den}, cg)
    return mf * f - mg * g


def buchberger_basis(polys: Sequence[MultiPoly], order: MonomialOrder = GREVLEX,
                     max_basis: int = 400) -> list[MultiPoly]:
    """Reduced Groebner basis via Buchberger + Gebauer-Moeller pair pruning."""
    basis = [p.monic(order) for p in polys if p]
    if not basis:
        return []
    divisors = _divisors(basis, order)
    leads = [d[0] for d in divisors]
    pairs: set[tuple[int, int]] = set()
    pair_key: dict[tuple[int, int], tuple] = {}

    def admit(t: int) -> None:
        nonlocal pairs
        pairs = _update_pairs(pairs, leads, t)
        for i, j in pairs:
            if (i, j) not in pair_key:
                pair_key[i, j] = order.key(_exp_lcm(leads[i], leads[j]))

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
        if len(basis) > max_basis:
            raise RuntimeError("Groebner basis computation exceeded the size guard")
        admit(len(basis) - 1)
    return _interreduce(basis, order)


def _update_pairs(pairs: set, leads: list[Exponents], t: int) -> set:
    """Gebauer-Moeller update when element t joins the basis."""
    lt = leads[t]
    cand = {i: _exp_lcm(leads[i], lt) for i in range(t)}  # new candidate pairs (i, t)
    keep: set[int] = set()
    for i in sorted(cand, key=lambda i: GREVLEX.key(cand[i])):
        # criterion B: coprime leading terms reduce to zero; criterion M: a
        # kept lcm properly divides this one; criterion F: one of equal lcms
        if cand[i] == tuple(map(add, leads[i], lt)) or any(
                _divides(cand[j], cand[i]) for j in keep):
            continue
        keep.add(i)
    # prune old pairs made redundant by lt
    survivors = set()
    for (i, j) in pairs:
        lcm_ij = _exp_lcm(leads[i], leads[j])
        if not (_divides(lt, lcm_ij) and _exp_lcm(leads[i], lt) != lcm_ij
                and _exp_lcm(leads[j], lt) != lcm_ij):
            survivors.add((i, j))
    survivors.update((i, t) for i in keep)
    return survivors


def _interreduce(basis: list[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    # drop elements whose lead is divisible by another lead, then tail-reduce;
    # a tail reduction keeps the lead, so the leads found first sort the result
    divisors = _divisors(basis, order)
    basis = [g for g in basis if g]
    leads = [d[0] for d in divisors]
    kept = [i for i in range(len(basis))
            if not any(j != i and _divides(leads[j], leads[i])
                       and (leads[j] != leads[i] or j < i) for j in range(len(basis)))]
    reduced = []
    for i in kept:
        others = [divisors[j] for j in kept if j != i]
        r = _reduce(basis[i], others, order) if others else basis[i]
        if r:
            reduced.append((order.key(leads[i]), r.monic(order)))
    reduced.sort(key=lambda kr: kr[0], reverse=True)
    return [r for _, r in reduced]


def is_groebner_basis(basis: Sequence[MultiPoly], order: MonomialOrder = GREVLEX) -> bool:
    divisors = _divisors(basis, order)
    return not any(_reduce(s_polynomial(f, g, order), divisors, order)
                   for i, f in enumerate(basis) for g in basis[i + 1:])


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


def sturm_real_roots(coeffs: Sequence[Fraction]) -> int:
    """Number of distinct real roots of a univariate polynomial.

    The chain p, p', -prem, ... ends in g = gcd(p, p'); divided through by
    g it is the Sturm chain of the square-free part, and that division
    flips every sign at +-infinity alike, so the count is the same."""
    c = [_as_fraction(x) for x in coeffs]
    den = lcm(*(x.denominator for x in c))
    c = [x.numerator * (den // x.denominator) for x in c]
    while c and not c[-1]:
        c.pop()
    if len(c) <= 1:
        return 0
    chain = [_primitive(c), _primitive(_derivative(c))]
    while len(chain[-1]) > 1 and (rem := _pseudo_remainder(chain[-2], chain[-1])):
        chain.append([-x for x in _primitive(rem)])
    at_minus = [p[-1] * (-1) ** (len(p) - 1) for p in chain]
    return _sign_changes(at_minus) - _sign_changes(p[-1] for p in chain)
