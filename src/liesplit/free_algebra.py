"""Truncated power series in non-commuting generators.

Everything downstream (BCH logarithms, Hall coordinates, order conditions)
reduces to arithmetic in the free associative algebra truncated at a fixed
total degree D.  A series stores, per total degree, the coefficients of the
words (finite sequences of generators) of that degree; the formal time step
is not a symbol — a word of total generator degree k simply *is* the t^k
coefficient, since every expansion handled here is homogeneous in t.

Coefficients may be exact ``Fraction``s, Python floats, or any ring-like
object supporting ``+``, ``-``, ``*``, multiplication by ``Fraction`` and
truth-testing (``polynomials.MultiPoly`` uses this to push symbolic scheme
parameters through the same code paths).  A series should stay homogeneous
in its coefficient type; nothing enforces that, but mixing exact and float
coefficients silently degrades to float.

Words have one layout, shared with ``hall`` and ``_dense``: one 1-D array
per degree d over ``degree_words``, the words of total degree d in
lexicographic order of letter ids (for n unit-degree generators, g_1...g_d
at index sum g_j n^(d-j)), float64 when every coefficient is a float and
object otherwise.  All-zero degrees are not stored.  Products go through
one cached concatenation index per pair of degrees (``concat_index``):
``mul`` of two series, and ``rmul_exp``, which right-multiplies a product
in place by the exponential of a sum of generators (a single letter for a
scheme's factor, a stage's graded generators for the order-condition
pipelines), on float64 and object arrays alike.  ``_dense`` builds every
product-log with it, in every coefficient domain.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Generator",
    "NCSeries",
    "make_alphabet",
    "series_from_generator",
    "mul",
    "exp",
    "log",
]


class Generator(NamedTuple):
    """One abstract generator of the algebra.

    ``degree`` is the grading weight: 1 for raw splitting terms, k for
    composite generators standing for the degree-k part of a factor's
    logarithm (as used by the graded order-condition pipelines).
    """

    id: int
    label: str
    degree: int = 1


def make_alphabet(labels: Sequence[str], degrees: Sequence[int] | None = None) -> tuple[Generator, ...]:
    """Build an alphabet from labels, e.g. ``make_alphabet("AB")``.

    Ids are assigned positionally; all degrees default to 1.
    """
    if degrees is None:
        degrees = [1] * len(labels)
    if len(degrees) != len(labels):
        raise ValueError("labels and degrees must have equal length")
    for d in degrees:
        if d < 1:
            raise ValueError("generator degrees must be >= 1")
    return tuple(Generator(i, str(lab), int(d)) for i, (lab, d) in enumerate(zip(labels, degrees)))


def _check_alphabet(alphabet: Sequence[Generator]) -> tuple[Generator, ...]:
    ids = [g.id for g in alphabet]
    if ids != list(range(len(alphabet))):
        raise ValueError("alphabet generator ids must be 0..n-1 in order")
    return tuple(alphabet)


@functools.lru_cache(maxsize=None)
def degree_words(degrees: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """All words of total degree d over generators of ``degrees``, in
    lexicographic order of letter ids."""
    if d == 0:
        return ((),)
    return tuple((l,) + w for l, deg in enumerate(degrees) if deg <= d
                 for w in degree_words(degrees, d - deg))


@functools.lru_cache(maxsize=None)
def word_index(degrees: tuple[int, ...], d: int) -> dict[tuple[int, ...], int]:
    """Position of each word of ``degree_words(degrees, d)``."""
    return {w: i for i, w in enumerate(degree_words(degrees, d))}


@functools.lru_cache(maxsize=None)
def concat_index(degrees: tuple[int, ...], d1: int, d2: int) -> np.ndarray:
    """``[i, j]`` -> position of word i of degree d1 followed by word j of
    degree d2 among the words of degree d1 + d2."""
    index = word_index(degrees, d1 + d2)
    left, right = degree_words(degrees, d1), degree_words(degrees, d2)
    return np.array([index[a + b] for a in left for b in right],
                    dtype=np.intp).reshape(len(left), len(right))


@functools.lru_cache(maxsize=None)
def _positions(degrees: tuple[int, ...], d1: int, d2: int, column: int | None = None):
    """``concat_index`` raveled, or its ``column``, as a slice (which numpy
    applies as a view) when it steps evenly upward, as for unit degrees."""
    idx = concat_index(degrees, d1, d2)
    idx = idx.ravel() if column is None else idx[:, column]
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step > 0 and (np.diff(idx) == step).all():
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _add_at(acc: np.ndarray, pos: np.ndarray, vals: np.ndarray) -> None:
    """``acc[pos] += vals`` on an object array at distinct positions, by
    assignment where ``acc`` holds a zero (``0 + poly`` goes through coercion)."""
    live = acc[pos].astype(bool)
    acc[pos[~live]] = vals[~live]
    acc[pos[live]] += vals[live]


class NCSeries:
    """A degree-truncated series over a fixed alphabet.

    Storage is ``_arrays[degree]``, one array over ``degree_words`` per
    degree (see the module docstring), with all-zero degrees absent and the
    truncation degree fixed at creation.  All operations are pure;
    instances, and the arrays they hold, should be treated as immutable.
    """

    __slots__ = ("alphabet", "max_degree", "_degrees", "_arrays")

    def __init__(self, alphabet: Sequence[Generator], max_degree: int,
                 arrays: Mapping[int, Sequence] | None = None):
        """``arrays`` maps degrees to coefficients over ``degree_words``."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.alphabet = _check_alphabet(alphabet)
        self.max_degree = int(max_degree)
        self._degrees = tuple(g.degree for g in self.alphabet)
        self._arrays = {}
        for d, values in sorted((arrays or {}).items()):
            arr = np.asarray(values)
            arr = arr.astype(float if arr.dtype.kind == "f" else object)
            if d > self.max_degree or arr.shape != (len(degree_words(self._degrees, d)),):
                raise ValueError(f"shape {arr.shape} is no degree-{d} array of this series")
            if np.count_nonzero(arr):
                self._arrays[d] = arr

    def _with(self, arrays: Mapping[int, np.ndarray]) -> "NCSeries":
        """A series over this alphabet and truncation holding ``arrays``."""
        s = object.__new__(NCSeries)
        s.alphabet, s.max_degree, s._degrees = self.alphabet, self.max_degree, self._degrees
        s._arrays = {d: arrays[d] for d in sorted(arrays) if np.count_nonzero(arrays[d])}
        return s

    def word_degree(self, letters: Sequence[int]) -> int:
        if not set(range(len(self.alphabet))).issuperset(letters):
            raise ValueError(f"word {tuple(letters)} has a letter outside the alphabet")
        return sum(self._degrees[l] for l in letters)

    # -- construction helpers -----------------------------------------

    @classmethod
    def zero(cls, alphabet: Sequence[Generator], max_degree: int) -> "NCSeries":
        return cls(alphabet, max_degree)

    @classmethod
    def one(cls, alphabet: Sequence[Generator], max_degree: int, unit=Fraction(1)) -> "NCSeries":
        return cls(alphabet, max_degree, {0: [unit]})

    @classmethod
    def from_words(cls, alphabet: Sequence[Generator], max_degree: int,
                   words: Mapping[tuple[int, ...], object]) -> "NCSeries":
        s = cls(alphabet, max_degree)
        dtype = float if all(isinstance(c, float) for c in words.values() if c) else object
        arrays: dict[int, np.ndarray] = {}
        for letters, c in words.items():
            d = s.word_degree(letters)
            if not c:
                continue
            if d > max_degree:
                raise ValueError(f"word {letters} of degree {d} exceeds truncation {max_degree}")
            if d not in arrays:
                arrays[d] = np.zeros(len(degree_words(s._degrees, d)), dtype=dtype)
            arrays[d][word_index(s._degrees, d)[tuple(letters)]] = c
        return s._with(arrays)

    # -- inspection ----------------------------------------------------

    def array(self, degree: int) -> np.ndarray:
        """The coefficients over ``degree_words`` at ``degree`` (float
        zeros if the degree is absent).  Read-only by convention."""
        arr = self._arrays.get(degree)
        return np.zeros(len(degree_words(self._degrees, degree))) if arr is None else arr

    def coeff(self, letters: Sequence[int]):
        d = self.word_degree(letters)
        arr = self._arrays.get(d)
        return 0 if arr is None else arr[word_index(self._degrees, d)[tuple(letters)]]

    def homogeneous(self, degree: int) -> dict[tuple[int, ...], object]:
        arr = self._arrays.get(degree)
        if arr is None:
            return {}
        words, values = degree_words(self._degrees, degree), arr.tolist()
        return {words[i]: values[i] for i in np.flatnonzero(arr).tolist()}

    def items(self) -> Iterator[tuple[tuple[int, ...], object]]:
        for d in self._arrays:
            yield from self.homogeneous(d).items()

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._arrays)

    def __bool__(self) -> bool:
        return bool(self._arrays)

    def constant_term(self):
        arr = self._arrays.get(0)
        return 0 if arr is None else arr[0]

    def unit(self):
        """Multiplicative unit of the coefficient domain (1, 1.0, or poly one)."""
        for arr in self._arrays.values():
            return 1.0 if arr.dtype != object else arr[np.flatnonzero(arr)[0]] ** 0
        return Fraction(1)

    def __repr__(self) -> str:
        parts = [f"{''.join(self.alphabet[l].label for l in w) or '1'}: {c}"
                 for w, c in self.items()]
        body = ", ".join(parts[:12]) + (", ..." if len(parts) > 12 else "")
        return f"NCSeries({{{body}}})" if parts else "NCSeries(0)"

    # -- ring operations ------------------------------------------------

    def _compatible(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet or self.max_degree != other.max_degree:
            raise ValueError("series must share alphabet and max_degree")

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._compatible(other)
        out = dict(self._arrays)
        for d, b in other._arrays.items():
            a = out.get(d)
            if a is None or object not in (a.dtype, b.dtype):
                out[d] = b if a is None else a + b
            else:
                out[d] = acc = a.astype(object)
                nz = np.flatnonzero(b)
                _add_at(acc, nz, b[nz])
        return self._with(out)

    def scale(self, factor) -> "NCSeries":
        out = {}
        for d, a in self._arrays.items():
            if isinstance(factor, float) or a.dtype != object:
                out[d] = float(factor) * a.astype(float)
            else:
                out[d] = acc = np.zeros(len(a), dtype=object)
                nz = np.flatnonzero(a)
                acc[nz] = factor * a[nz]
        return self._with(out)

    def __mul__(self, other) -> "NCSeries":
        if isinstance(other, NCSeries):
            return mul(self, other)
        return self.scale(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.max_degree == other.max_degree
                and dict(self.items()) == dict(other.items()))

    def __hash__(self):
        raise TypeError("NCSeries is not hashable")

    def map_coefficients(self, fn) -> "NCSeries":
        return NCSeries.from_words(self.alphabet, self.max_degree,
                                   {w: fn(c) for w, c in self.items()})


def series_from_generator(g: Generator, coeff, D: int,
                          alphabet: Sequence[Generator] | None = None) -> NCSeries:
    """The series ``coeff * g`` truncated at degree D.

    ``alphabet`` defaults to the one-letter alphabet containing only g;
    pass the full alphabet when the series will be combined with others.
    """
    if alphabet is None:
        if g.id != 0:
            raise ValueError("single-generator alphabet requires g.id == 0")
        alphabet = (g,)
    if g.degree > D:
        raise ValueError(f"generator degree {g.degree} exceeds truncation {D}")
    if alphabet[g.id] != g:
        raise ValueError("generator does not belong to the given alphabet")
    return NCSeries.from_words(alphabet, D, {(g.id,): coeff})


def mul(x: NCSeries, y: NCSeries) -> NCSeries:
    """Concatenation product, truncated at the common max degree.  Each
    output degree sums its (d1, d2) blocks in ascending d1; object blocks
    multiply only the nonzero entries."""
    x._compatible(y)
    degrees, D = x._degrees, x.max_degree
    exact = any(a.dtype == object for a in (*x._arrays.values(), *y._arrays.values()))
    out: dict[int, np.ndarray] = {}
    for d1, a in x._arrays.items():
        i = a.nonzero()[0] if exact else None
        for d2, b in y._arrays.items():
            if d1 + d2 > D:
                break
            acc = out.get(d1 + d2)
            if acc is None:
                acc = out[d1 + d2] = np.zeros(len(degree_words(degrees, d1 + d2)),
                                              dtype=object if exact else float)
            if exact:
                j = b.nonzero()[0]
                _add_at(acc, concat_index(degrees, d1, d2)[i[:, None], j].ravel(),
                        np.multiply.outer(a[i], b[j]).ravel())
            else:
                acc[_positions(degrees, d1, d2)] += np.multiply.outer(a, b).ravel()
    return x._with(out)


def rmul_exp(arrays: dict[int, np.ndarray], degrees: tuple[int, ...],
             exponent: Sequence[tuple[int, object]]) -> None:
    """In place: ``arrays`` <- ``arrays`` * exp(sum_g c_g * G_g) over the
    ``(g, c_g)`` pairs of ``exponent``, for one array over ``degree_words``
    at every degree from 0 up to the truncation, all float64 (every c_g
    taken as a float) or all object (exact or polynomial c_g).  Object
    arrays multiply only their nonzero entries.  The exponential's words
    are listed once, shortest first, with coefficient(u g) = coefficient(u)
    * c_g / len(u g): for one generator, its powers with c^k / k!."""
    top = len(arrays) - 1
    exact = arrays[0].dtype == object
    # (word, degree, coefficient, position among the words of that degree)
    words = [((), 0, 1 if exact else 1.0, 0)]
    for u, du, cu, _ in words:
        for g, c in exponent:
            dw, w = du + degrees[g], u + (g,)
            if dw <= top:
                cw = cu * c * Fraction(1, len(w)) if exact else cu * (float(c) / len(w))
                words.append((w, dw, cw, word_index(degrees, dw)[w]))
    # source degrees high -> low, so every target accumulates from
    # original values only (all writes go to strictly higher degrees)
    for d in range(top - 1, -1, -1):
        if exact:
            nz = np.flatnonzero(arrays[d])
            src = arrays[d][nz]
        for _, dw, cw, col in words[1:]:
            if d + dw > top:
                continue
            if exact:
                _add_at(arrays[d + dw], concat_index(degrees, d, dw)[nz, col], src * cw)
            else:
                arrays[d + dw][_positions(degrees, d, dw, col)] += cw * arrays[d]


def _power_sum(result: NCSeries, u: NCSeries, coefficient) -> NCSeries:
    """``result`` + sum_{k<=D} coefficient(k) u^k, for a rational
    ``coefficient`` taken in u's coefficient domain."""
    in_float, power = isinstance(u.unit(), float), u
    for k in range(1, u.max_degree + 1):
        c = coefficient(k)
        result = result + (power if c == 1 else power.scale(float(c) if in_float else c))
        power = mul(power, u)
        if not power:
            break
    return result


def exp(x: NCSeries) -> NCSeries:
    """Formal exponential sum_{k<=D} x^k / k! (x must have no constant term)."""
    if x.constant_term():
        raise ValueError("exp requires zero constant term")
    return _power_sum(NCSeries.one(x.alphabet, x.max_degree, unit=x.unit()), x,
                      lambda k: Fraction(1, math.factorial(k)))


def log(x: NCSeries) -> NCSeries:
    """Formal logarithm sum_{k<=D} (-1)^(k+1) (x-1)^k / k (constant term must be 1)."""
    if x.constant_term() != x.unit():
        raise ValueError("log requires constant term 1")
    return _power_sum(x._with({}), x._with({d: a for d, a in x._arrays.items() if d}),
                      lambda k: Fraction((-1) ** (k + 1), k))
