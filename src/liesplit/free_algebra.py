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
object otherwise.  All-zero degrees are not stored.  Positions follow from
word counts alone: word i of degree d is letter l followed by word
i - start_l(d) of degree d - deg(l), where start_l(d) is the number of
degree-d words that begin with a letter before l (``word_starts``).  The
tables of the layout are built by this recurrence, a few array operations
per letter, and never from word tuples: ``concat_index`` here, the word
gathers and expansion matrices of ``hall``, and the position of one word
(``_word_position``) that the word-keyed ``from_words`` and ``coeff`` of
``NCSeries`` read.  The word tuples (``degree_words``) serve only to list
a series's words (``homogeneous``, ``items``).  ``mul`` of two
series goes through one cached concatenation index per pair of degrees
(``concat_index``).  A product of many exponentials is built in place on
one flat array holding every degree's words back to back, degree blocks in
order (``degree_offsets``): ``rmul_exp`` right-multiplies it by the
exponential of a sum of generators (a single letter for a scheme's factor,
a stage's graded generators for the order-condition pipelines), on float64
and object arrays alike.  For unit degrees, word j of the flat array
followed by letter g sits at n j + 1 + g, so appending a word of length k
to every shorter word is one slice of step n^k.  ``_dense`` builds every
product-log with it, in every coefficient domain.  ``exp`` and ``log`` sum
their power series by one truncated Horner kernel (``_horner``): each
inner term is kept only up to the degree that survives its remaining
multiplications, which at n = 3, D = 7 takes 24,624 coefficient products
for a dense log where summing the powers u^k takes 59,868.
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
def word_starts(degrees: tuple[int, ...], d: int) -> tuple[int, ...]:
    """start_l(d) for each letter l, the number of words of total degree d
    that begin with a letter before l, then the number of degree-d words:
    one entry more than ``degrees``."""
    if d == 0:
        return (0,) * len(degrees) + (1,)
    starts = [0]
    for deg in degrees:
        starts.append(starts[-1] + (word_starts(degrees, d - deg)[-1] if deg <= d else 0))
    return tuple(starts)


def word_count(degrees: tuple[int, ...], d: int) -> int:
    """The number of words of total degree d over generators of ``degrees``."""
    return word_starts(degrees, d)[-1]


@functools.lru_cache(maxsize=None)
def degree_words(degrees: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """All words of total degree d over generators of ``degrees``, in
    lexicographic order of letter ids."""
    if d == 0:
        return ((),)
    return tuple((l,) + w for l, deg in enumerate(degrees) if deg <= d
                 for w in degree_words(degrees, d - deg))


def _word_position(degrees: tuple[int, ...], word: Sequence[int]) -> int:
    """Position of ``word`` among the words of its degree, letter by letter:
    start_l(d) of its first letter l plus the rest's position at d - deg(l)."""
    d, position = sum(degrees[g] for g in word), 0
    for g in word:
        position += word_starts(degrees, d)[g]
        d -= degrees[g]
    return position


@functools.lru_cache(maxsize=None)
def concat_index(degrees: tuple[int, ...], d1: int, d2: int) -> np.ndarray:
    """``[i, j]`` -> position of word i of degree d1 followed by word j of
    degree d2 among the words of degree d1 + d2.  Rows of first letter l
    are start_l(d1 + d2) plus the table of the rest, at d1 - deg(l)."""
    index = np.empty((word_count(degrees, d1), word_count(degrees, d2)), dtype=np.intp)
    if d1 == 0:
        index[0] = np.arange(index.shape[1])
        return index
    starts, out = word_starts(degrees, d1), word_starts(degrees, d1 + d2)
    for l, deg in enumerate(degrees):
        if deg <= d1:
            index[starts[l]:starts[l + 1]] = out[l] + concat_index(degrees, d1 - deg, d2)
    return index


@functools.lru_cache(maxsize=None)
def degree_offsets(degrees: tuple[int, ...], max_degree: int) -> tuple[int, ...]:
    """Start of each degree 0..max_degree in the flat layout of ``rmul_exp``,
    every degree's ``degree_words`` back to back, and its total length last."""
    offsets = [0]
    for d in range(max_degree + 1):
        offsets.append(offsets[-1] + word_count(degrees, d))
    return tuple(offsets)


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice (which numpy applies as a view) when it steps
    evenly upward, as for unit degrees; otherwise ``idx`` itself."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step > 0 and (idx[1:] - idx[:-1] == step).all():
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


@functools.lru_cache(maxsize=None)
def _positions(degrees: tuple[int, ...], d1: int, d2: int):
    """``concat_index`` raveled, as a slice where it steps evenly."""
    return _as_slice(concat_index(degrees, d1, d2).ravel())


@functools.lru_cache(maxsize=None)
def _appended(degrees: tuple[int, ...], max_degree: int, word: tuple[int, ...]):
    """(index, where) for ``word`` in the flat layout truncated at
    ``max_degree``: ``index[j]`` is the flat position of the word at j
    followed by ``word``, for every j holding a word short enough, and
    ``where`` is ``index`` as a slice where it steps evenly (step n^k for a
    word of length k over n unit-degree letters)."""
    dw = sum(degrees[g] for g in word)
    offsets = degree_offsets(degrees, max_degree)
    col = _word_position(degrees, word)
    index = np.concatenate([offsets[d + dw] + concat_index(degrees, d, dw)[:, col]
                            for d in range(max_degree - dw + 1)])
    return index, _as_slice(index)


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
            if d > self.max_degree or arr.shape != (word_count(self._degrees, d),):
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
                arrays[d] = np.zeros(word_count(s._degrees, d), dtype=dtype)
            arrays[d][_word_position(s._degrees, letters)] = c
        return s._with(arrays)

    # -- inspection ----------------------------------------------------

    def array(self, degree: int) -> np.ndarray:
        """The coefficients over ``degree_words`` at ``degree`` (float
        zeros if the degree is absent).  Read-only by convention."""
        arr = self._arrays.get(degree)
        return np.zeros(word_count(self._degrees, degree)) if arr is None else arr

    def coeff(self, letters: Sequence[int]):
        d = self.word_degree(letters)
        arr = self._arrays.get(d)
        return 0 if arr is None else arr[_word_position(self._degrees, letters)]

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
                acc = out[d1 + d2] = np.zeros(word_count(degrees, d1 + d2),
                                              dtype=object if exact else float)
            if exact:
                j = b.nonzero()[0]
                _add_at(acc, concat_index(degrees, d1, d2)[i[:, None], j].ravel(),
                        np.multiply.outer(a[i], b[j]).ravel())
            else:
                acc[_positions(degrees, d1, d2)] += np.multiply.outer(a, b).ravel()
    return x._with(out)


def rmul_exp(flat: np.ndarray, degrees: tuple[int, ...], max_degree: int,
             exponent: Sequence[tuple[int, object]]) -> None:
    """In place: ``flat`` <- ``flat`` * exp(sum_g c_g * G_g) over the
    ``(g, c_g)`` pairs of ``exponent``, for ``flat`` holding every degree
    0..``max_degree`` in the layout of ``degree_offsets``, float64 (every
    c_g taken as a float) or object (exact or polynomial c_g).  The
    exponential's words are listed once, shortest first, with
    coefficient(u g) = coefficient(u) * c_g / len(u g): for one generator,
    its powers with c^k / k!.  Each word is one update over every source
    degree at once, at its ``_appended`` positions; sources are copied
    before the first, so every target accumulates from original values, in
    ascending power.  Object arrays update only their nonzero sources.
    Raises ``ValueError`` on a generator id outside ``degrees`` or a
    non-finite float c_g."""
    for g, c in exponent:
        if not 0 <= g < len(degrees):
            raise ValueError(f"generator id {g} is outside the alphabet of {len(degrees)} letters")
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c} for generator {g}")
    exact = flat.dtype == object
    # (word, degree, coefficient)
    words = [((), 0, 1 if exact else 1.0)]
    for u, du, cu in words:
        for g, c in exponent:
            dw, w = du + degrees[g], u + (g,)
            if dw <= max_degree:
                words.append((w, dw, cu * c * Fraction(1, len(w)) if exact
                              else cu * (float(c) / len(w))))
    # every word below the top degree is a source
    sources = degree_offsets(degrees, max_degree)[max_degree]
    if exact:
        nz = np.flatnonzero(flat[:sources])
        src = flat[nz]
    else:
        src = flat[:sources].copy()
    for w, _, cw in words[1:]:
        index, where = _appended(degrees, max_degree, w)
        if exact:
            short = np.searchsorted(nz, len(index))  # nonzero sources that fit w
            _add_at(flat, index[nz[:short]], src[:short] * cw)
        else:
            flat[where] += cw * src[:len(index)]


def _horner(x: NCSeries, u: Mapping[int, np.ndarray], c0, coefficient) -> NCSeries:
    """c0 + sum_{k>=1} coefficient(k) u^k over x's alphabet and truncation
    D, for ``u`` the arrays of a series with no constant term and a
    rational ``coefficient`` taken in x's coefficient domain.

    Horner's rule: h_K = c_K, h_k = c_k + u h_{k+1}, the sum is h_0 with
    c_0 = c0.  h_k is multiplied by u^k on its way out, whose degree is at
    least k l for u's lowest degree l, so h_k is kept only up to degree
    D - k l.  Each h_k is per-degree arrays plus its constant as a scalar
    (u times that constant is a scaling of u); one series is built at the
    end.  Object arrays multiply only their nonzero entries (u's positions
    found once per call) and sum through ``_add_at``."""
    degrees, D = x._degrees, x.max_degree
    terms = sorted(u.items())
    if not terms:
        return x._with({0: np.array([c0], dtype=object)} if c0 else {})
    exact = any(a.dtype == object for _, a in terms)
    cast = float if isinstance(x.unit(), float) else Fraction
    low = terms[0][0]
    cs = [c0] + [cast(coefficient(k)) for k in range(1, D // low + 1)]
    nz = {d: a.nonzero()[0] for d, a in terms} if exact else {}
    h: dict[int, np.ndarray] = {}  # h_{k+1} less its constant cs[k + 1]
    for k in range(len(cs) - 2, -1, -1):
        top, c, new = D - k * low, cs[k + 1], {}
        for d1, a in terms:
            if d1 > top:
                break
            if exact:
                new[d1] = acc = np.zeros(len(a), dtype=object)
                acc[nz[d1]] = c * a[nz[d1]]
            else:
                new[d1] = c * a
        hz = {d2: b.nonzero()[0] for d2, b in h.items()} if exact else {}
        for d1, a in terms:
            for d2, b in h.items():
                if d1 + d2 > top:
                    break
                acc = new.get(d1 + d2)
                if acc is None:
                    acc = new[d1 + d2] = np.zeros(word_count(degrees, d1 + d2),
                                                  dtype=object if exact else float)
                if exact:
                    i, j = nz[d1], hz[d2]
                    _add_at(acc, concat_index(degrees, d1, d2)[i[:, None], j].ravel(),
                            np.multiply.outer(a[i], b[j]).ravel())
                else:
                    acc[_positions(degrees, d1, d2)] += np.multiply.outer(a, b).ravel()
        h = dict(sorted(new.items()))
    if c0:
        h[0] = np.array([c0], dtype=object if exact else float)
    return x._with(h)


def exp(x: NCSeries) -> NCSeries:
    """Formal exponential sum_{k<=D} x^k / k! (x must have no constant
    term), by Horner's rule (``_horner``)."""
    if x.constant_term():
        raise ValueError("exp requires zero constant term")
    return _horner(x, x._arrays, x.unit(), lambda k: Fraction(1, math.factorial(k)))


def log(x: NCSeries) -> NCSeries:
    """Formal logarithm sum_{k<=D} (-1)^(k+1) (x-1)^k / k (constant term
    must be 1), by Horner's rule (``_horner``)."""
    if x.constant_term() != x.unit():
        raise ValueError("log requires constant term 1")
    return _horner(x, {d: a for d, a in x._arrays.items() if d}, 0,
                   lambda k: Fraction((-1) ** (k + 1), k))
