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
a series's words (``homogeneous``, ``items``).  A product of many
exponentials is built in place on one flat array holding every degree's
words back to back, degree blocks in order (``degree_offsets``):
``rmul_exp`` right-multiplies it by the exponential of a sum of generators
(a single letter for a scheme's factor, a stage's graded generators for
the order-condition pipelines), on float64 and object arrays alike, from
one cached plan of the exponential's words and the flat positions each
updates (``_exp_plan``).  ``_dense`` builds every product-log with it, in
every coefficient domain.  ``exp`` and ``log`` sum their power series by
one truncated Horner kernel (``_horner``): each inner term is kept only up
to the degree that survives its remaining multiplications, which at
n = 3, D = 7 takes 24,624 coefficient products for a dense log where
summing the powers u^k takes 59,868.  Its steps and ``mul`` multiply the
words of two flat series through one cached plan per set of degree pairs
(``_pair_plan``), the flat position of every concatenation.

Every kernel runs one body over its plan in every coefficient domain;
only the additions, and a Horner step's scaling of u, depend on the
domain.  In float, a factor of ``rmul_exp``, a Horner step and a ``mul``
each apply their plan's additions in one ``np.add.at``, which numpy
applies one entry at a time, in order: each coefficient receives the
additions that a loop over the exponential's words or over degree blocks
gives it, in the same order, and the results are those loops' to the bit
(the loops are test oracles in ``tests/_naive.py``), where a BLAS product
or a ``bincount`` sum would round differently.  Object arrays take the
same plans with their entries grouped by target, once per plan
(``_exp_groups``, ``_pair_groups``, ``_horner_groups``), and ``_dot_at``
gives each target one multiply-accumulate, ``polynomials.dot``, over the
entries whose two operands are nonzero: its current value plus every
product that reaches it, a Horner step's scaling c_k u first, in the
order the word and block loops would add them.  For ``MultiPoly``
coefficients ``dot`` sums on one dict of integer numerators and
normalises once, where a product and an addition each used to build a
polynomial and copy the sum.  ``MAX_WORDS`` bounds the truncations that
the product-log and the Hall bases accept.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .polynomials import dot

__all__ = [
    "Generator",
    "NCSeries",
    "make_alphabet",
    "series_from_generator",
    "mul",
    "exp",
    "log",
]


# The most words (all degrees 0..D together) a product-log or a Hall basis
# may hold.  The product, its log and the Hall tables read after it grow
# with the word count: verify_order at n = 2 takes 0.6 s and 240 MB at
# D = 14 (32,767 words), 2.6 s and 670 MB at D = 15, 12 s and 1.9 GB at
# D = 16.  The largest product-log of the tests and the benchmark has 3,280
# (n = 3, D = 7).
MAX_WORDS = 2 ** 15


class Generator(NamedTuple):
    """One abstract generator of the algebra.

    ``degree`` is the grading weight: 1 for raw splitting terms, k for
    composite generators standing for the degree-k part of a factor's
    logarithm (as used by the graded order-condition pipelines).
    """

    id: int
    label: str
    degree: int = 1


def _is_integer(value) -> bool:
    """The library's integer rule: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, index: int | None = None) -> int:
    """``value`` as an int if it passes ``_is_integer``; a bool or any
    other value raises ``ValueError`` naming ``name`` (``name[index]`` for
    an entry of a sequence)."""
    if not _is_integer(value):
        where = name if index is None else f"{name}[{index}]"
        raise ValueError(f"{where} must be an integer, not {value!r}")
    return int(value)


def make_alphabet(labels: Sequence[str], degrees: Sequence[int] | None = None) -> tuple[Generator, ...]:
    """Build an alphabet from labels, e.g. ``make_alphabet("AB")``.

    Ids are assigned positionally; all degrees default to 1.
    """
    if degrees is None:
        return tuple(Generator(i, str(lab)) for i, lab in enumerate(labels))
    if len(degrees) != len(labels):
        raise ValueError("labels and degrees must have equal length")
    degrees = [_integer(d, "degrees", i) for i, d in enumerate(degrees)]
    if min(degrees, default=1) < 1:
        raise ValueError("generator degrees must be >= 1")
    return tuple(Generator(i, str(lab), d) for i, (lab, d) in enumerate(zip(labels, degrees)))


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


def _flat(degrees: tuple[int, ...], max_degree: int,
          arrays: Mapping[int, np.ndarray]) -> np.ndarray:
    """Per-degree ``arrays`` in the flat layout of ``degree_offsets``
    truncated at ``max_degree``, absent degrees as zeros: object if any
    array is, float64 otherwise."""
    offsets = degree_offsets(degrees, max_degree)
    flat = np.zeros(offsets[-1], dtype=np.result_type(*arrays.values()))
    for d, a in arrays.items():
        flat[offsets[d]:offsets[d + 1]] = a
    return flat


@functools.lru_cache(maxsize=None)
def _exp_plan(degrees: tuple[int, ...], max_degree: int, gens: tuple[int, ...]):
    """The words of exp(sum_g c_g G_g) for the generators ``gens`` (one per
    exponent pair, in order) and their updates in the flat layout truncated
    at ``max_degree``, as ``rmul_exp`` applies them.

    The words are listed shortest first, each the word ``parents[i][0]``
    (0 the empty word) followed by the generator of exponent pair
    ``parents[i][1]``, of length ``parents[i][2]``.  Word i's updates are
    the next ``counts[i]`` entries of ``targets`` and ``sources``:
    ``targets[e]`` is the flat position of the word at ``sources[e]``
    followed by word i, for every position holding a word short enough,
    so ``sources`` runs 0, 1, ... for each word.  Both stay intp:
    ``rmul_exp`` gathers through ``sources`` once per factor, and numpy
    gathers through positions of any other type several times slower."""
    offsets = degree_offsets(degrees, max_degree)
    words, parents, targets = [((), 0)], [], []
    for i, (u, du) in enumerate(words):
        for j, g in enumerate(gens):
            dw, w = du + degrees[g], u + (g,)
            if dw <= max_degree:
                words.append((w, dw))
                parents.append((i, j, len(w)))
                col = _word_position(degrees, w)
                targets += [offsets[d + dw] + concat_index(degrees, d, dw)[:, col]
                            for d in range(max_degree - dw + 1)]
    counts = np.array([offsets[max_degree - dw + 1] for _, dw in words[1:]], dtype=np.intp)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    sources = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
    targets = np.concatenate(targets) if targets else np.zeros(0, dtype=np.intp)
    return tuple(parents), counts, targets, sources


def _runs(ds: Sequence[int]) -> list[tuple[int, int]]:
    """The maximal runs (first, last) of consecutive integers in ascending ``ds``."""
    runs: list[tuple[int, int]] = []
    for d in ds:
        if runs and runs[-1][1] == d - 1:
            runs[-1] = (runs[-1][0], d)
        else:
            runs.append((d, d))
    return runs


@functools.lru_cache(maxsize=None)
def _pair_plan(degrees: tuple[int, ...], left: tuple[int, ...], right: tuple[int, ...],
               top: int):
    """The products of the words of the degrees ``left`` by the words of
    the degrees ``right`` (both ascending) up to total degree ``top``, in
    the flat layout of ``degree_offsets``: ``(slices, targets)``.

    For each left degree d1 in turn and each run of consecutive right
    degrees d2 with d1 + d2 <= top, ``slices`` holds the flat bounds
    ``(a, b, c, e)`` of degree d1 and of the run, and the next
    (b - a) (e - c) entries of ``targets`` are the flat positions of the
    concatenations, in the order of ``np.multiply.outer(x[a:b], y[c:e])``
    raveled.  Each target appears at most once per left degree.  The
    targets are held in the smallest unsigned type that fits the flat
    array (uint16 for every catalog alphabet): they are the bulk of the
    cached plans, and the cast numpy makes back to intp in ``np.add.at``
    costs little next to the products."""
    offsets = degree_offsets(degrees, top)
    slices, targets = [], []
    for d1 in left:
        for lo, hi in _runs([d2 for d2 in right if d1 + d2 <= top]):
            slices.append((offsets[d1], offsets[d1 + 1], offsets[lo], offsets[hi + 1]))
            targets.append(np.concatenate([offsets[d1 + d2] + concat_index(degrees, d1, d2)
                                           for d2 in range(lo, hi + 1)], axis=1).ravel())
    targets = np.concatenate(targets) if targets else np.zeros(0, dtype=np.intp)
    return tuple(slices), targets.astype(np.min_scalar_type(offsets[-1]))


@functools.lru_cache(maxsize=None)
def _horner_plan(degrees: tuple[int, ...], D: int, present: tuple[int, ...]):
    """The steps of ``_horner``'s sum for u holding the degrees
    ``present`` (ascending, the lowest l >= 1), truncated at D: for
    k = D // l - 1 down to 0, the flat length of h_k (every degree up to
    top = D - k l), the flat bounds of the degrees h_k holds that u lacks
    (in float they start at zero, not at c_k times u's zeros) and the
    ``_pair_plan`` of u times h_{k+1}."""
    low = present[0]
    offsets = degree_offsets(degrees, D)
    steps, held = [], ()
    for k in range(D // low - 1, -1, -1):
        top = D - k * low
        products = _pair_plan(degrees, present, held, top)
        held = tuple(sorted({d for d in present if d <= top}
                            | {d1 + d2 for d1 in present for d2 in held if d1 + d2 <= top}))
        zeroed = tuple((offsets[d], offsets[d + 1]) for d in held if d not in present)
        steps.append((offsets[top + 1], zeroed, products))
    return tuple(steps)


def _add_products(acc: np.ndarray, x: np.ndarray, y: np.ndarray, slices, targets) -> None:
    """Float: ``acc`` += the products of flat ``x`` and ``y`` that the
    ``_pair_plan`` ``(slices, targets)`` lists, in one ``np.add.at``, in
    plan order."""
    if slices:
        np.add.at(acc, targets, np.concatenate(
            [np.multiply.outer(x[a:b], y[c:e]).ravel() for a, b, c, e in slices]))


def _by_target(targets: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Entries (target, left operand, right operand), intp, sorted by
    target and in their given order within each target, read-only."""
    order = np.argsort(targets, kind="stable")
    entries = tuple(np.asarray(a, dtype=np.intp)[order] for a in (targets, left, right))
    for a in entries:
        a.setflags(write=False)
    return entries


def _pair_entries(slices, targets: np.ndarray, shift: int):
    """The entries of a ``_pair_plan`` ``(slices, targets)`` in plan
    order as (target, x position, y position + ``shift``): positions in
    ``x`` and ``y`` laid end to end, x ``shift`` long."""
    xs = [np.repeat(np.arange(a, b), e - c) for a, b, c, e in slices]
    ys = [np.tile(np.arange(c, e) + shift, b - a) for a, b, c, e in slices]
    empty = np.zeros(0, dtype=np.intp)
    return targets, np.concatenate([empty, *xs]), np.concatenate([empty, *ys])


@functools.lru_cache(maxsize=None)
def _pair_groups(degrees: tuple[int, ...], left: tuple[int, ...], right: tuple[int, ...],
                 top: int):
    """The ``_pair_plan`` of the same arguments for ``_dot_at``, over x
    (every degree up to left[-1]) followed by y."""
    shift = degree_offsets(degrees, left[-1])[-1]
    return _by_target(*_pair_entries(*_pair_plan(degrees, left, right, top), shift))


@functools.lru_cache(maxsize=None)
def _horner_groups(degrees: tuple[int, ...], D: int, present: tuple[int, ...]):
    """The steps of ``_horner_plan`` for ``_dot_at``, each over u (every
    degree up to present[-1]), h_{k+1} and c_k, in that order: c_k times
    u's entries below the step's top, then the products u h_{k+1}."""
    offsets = degree_offsets(degrees, D)
    shift = offsets[present[-1] + 1]
    u_at = np.concatenate([np.arange(offsets[d], offsets[d + 1]) for d in present])
    steps, h_len = [], 0
    for end, _, products in _horner_plan(degrees, D, present):
        scaled = u_at[u_at < end]
        targets, left, right = _pair_entries(*products, shift)
        steps.append(_by_target(np.concatenate([scaled, targets]),
                                np.concatenate([np.full(len(scaled), shift + h_len), left]),
                                np.concatenate([scaled, right])))
        h_len = end
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def _exp_groups(degrees: tuple[int, ...], max_degree: int, gens: tuple[int, ...]):
    """The ``_exp_plan`` of the same arguments for ``_dot_at``, over the
    flat words below the top degree followed by the exponential's words."""
    _, counts, targets, sources = _exp_plan(degrees, max_degree, gens)
    top = degree_offsets(degrees, max_degree)[max_degree]
    return _by_target(targets, sources, top + np.repeat(np.arange(len(counts)), counts))


def _dot_at(acc: np.ndarray, z: np.ndarray, targets: np.ndarray, left: np.ndarray,
            right: np.ndarray) -> None:
    """Object: ``acc[t]`` = ``dot(acc[t], z[l]..., z[r]...)`` over the
    entries (t, l, r) of one target, for every target of the grouped
    entries (``_by_target``) whose operands are both nonzero: one
    multiply-accumulate per target."""
    live = z.astype(bool)
    keep = live[left] & live[right]
    t = targets[keep]
    if not len(t):
        return
    lefts, rights = z[left[keep]].tolist(), z[right[keep]].tolist()
    bounds = [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), len(t)]
    for i, a, b in zip(t[bounds[:-1]].tolist(), bounds, bounds[1:]):
        acc[i] = dot(acc[i], lefts[a:b], rights[a:b])


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
        max_degree = _integer(max_degree, "max_degree")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.alphabet = _check_alphabet(alphabet)
        self.max_degree = max_degree
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
            out[d] = b if a is None else a + b
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
    """Concatenation product, truncated at the common max degree: the
    products that the ``_pair_plan`` of x's and y's degrees lists, on the
    flat layout, added by ``_add_products`` in float and by ``_dot_at``
    over its ``_pair_groups`` otherwise."""
    x._compatible(y)
    if not x or not y:
        return x._with({})
    degrees = x._degrees
    # no flat array reaches above the highest degree of x, y or x y
    dx, dy = max(x._arrays), max(y._arrays)
    top = min(x.max_degree, dx + dy)
    offsets = degree_offsets(degrees, top)
    xf, yf = _flat(degrees, dx, x._arrays), _flat(degrees, dy, y._arrays)
    flat = np.zeros(offsets[-1], dtype=np.result_type(xf, yf))
    left, right = tuple(x._arrays), tuple(y._arrays)
    if flat.dtype == object:
        _dot_at(flat, np.concatenate([xf, yf]), *_pair_groups(degrees, left, right, top))
    else:
        _add_products(flat, xf, yf, *_pair_plan(degrees, left, right, top))
    return x._with({d: flat[offsets[d]:offsets[d + 1]] for d in range(top + 1)})


def rmul_exp(flat: np.ndarray, degrees: tuple[int, ...], max_degree: int,
             exponent: Sequence[tuple[int, object]]) -> None:
    """In place: ``flat`` <- ``flat`` * exp(sum_g c_g * G_g) over the
    ``(g, c_g)`` pairs of ``exponent``, for ``flat`` holding every degree
    0..``max_degree`` in the layout of ``degree_offsets``, float64 (every
    c_g taken as a float) or object (exact or polynomial c_g).  The
    exponential's words are listed once, shortest first (``_exp_plan``),
    with coefficient(u g) = coefficient(u) * c_g / len(u g): for one
    generator, its powers with c^k / k!.  Every target accumulates from
    the original values of the words shorter than the top degree, word by
    word in list order: in float, one ``np.add.at`` over all the words'
    entries, which numpy applies one at a time in order; in object, one
    ``dot`` per target over its nonzero sources and words, grouped by
    ``_exp_groups``.  Raises ``ValueError`` on a
    generator id outside ``degrees`` or a non-finite float c_g."""
    for g, c in exponent:
        if not 0 <= g < len(degrees):
            raise ValueError(f"generator id {g} is outside the alphabet of {len(degrees)} letters")
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c} for generator {g}")
    exact = flat.dtype == object
    gens = tuple([g for g, _ in exponent])
    parents, counts, targets, sources = _exp_plan(degrees, max_degree, gens)
    coefficients = [1 if exact else 1.0]
    for i, j, length in parents:
        cu, c = coefficients[i], exponent[j][1]
        coefficients.append(cu * c * Fraction(1, length) if exact else cu * (float(c) / length))
    if not exact:
        # ndarray.repeat: np.repeat of a list goes through a wrapper that
        # costs about 2 us a call, a quarter of a small factor's time
        np.add.at(flat, targets, np.array(coefficients[1:]).repeat(counts) * flat[sources])
        return
    # every word below the top degree is a source
    top = degree_offsets(degrees, max_degree)[max_degree]
    words = np.array(coefficients[1:], dtype=object)
    _dot_at(flat, np.concatenate([flat[:top], words]), *_exp_groups(degrees, max_degree, gens))


def _horner(x: NCSeries, u: Mapping[int, np.ndarray], c0, coefficient) -> NCSeries:
    """c0 + sum_{k>=1} coefficient(k) u^k over x's alphabet and truncation
    D, for ``u`` the arrays of a series with no constant term and a
    rational ``coefficient`` taken in x's coefficient domain.

    Horner's rule: h_K = c_K, h_k = c_k + u h_{k+1}, the sum is h_0 with
    c_0 = c0.  h_k is multiplied by u^k on its way out, whose degree is at
    least k l for u's lowest degree l, so h_k is kept only up to degree
    D - k l.  Each h_k is its coefficients less its constant (u times
    that constant is a scaling of u), a flat array (``degree_offsets``)
    like u.  Float scales all of u by c_k, zeroes the degrees h_k holds
    that u lacks and adds u h_{k+1} by ``_add_products`` over the step's
    ``_horner_plan``; object forms c_k u + u h_{k+1} with one ``dot`` per
    coefficient over the step's ``_horner_groups``, nonzero entries only."""
    degrees, D = x._degrees, x.max_degree
    present = tuple(sorted(u))
    if not present:
        return x._with({0: np.array([c0], dtype=object)} if c0 else {})
    cast = float if isinstance(x.unit(), float) else Fraction
    cs = [cast(coefficient(k)) for k in range(D // present[0], 0, -1)]
    offsets = degree_offsets(degrees, D)
    uf = _flat(degrees, D, u)
    h = uf[:0]
    steps = _horner_plan(degrees, D, present)
    if uf.dtype == object:
        u_low = uf[:offsets[present[-1] + 1]]
        for c, (end, _, _), groups in zip(cs, steps, _horner_groups(degrees, D, present)):
            new = np.zeros(end, dtype=object)
            _dot_at(new, np.concatenate([u_low, h, np.array([c], dtype=object)]), *groups)
            h = new
    else:
        for c, (end, zeroed, products) in zip(cs, steps):
            new = c * uf[:end]
            for a, b in zeroed:
                new[a:b] = 0.0
            _add_products(new, uf, h, *products)
            h = new
    arrays = {d: h[offsets[d]:offsets[d + 1]] for d in range(1, D + 1)}
    if c0:
        arrays[0] = np.array([c0], dtype=h.dtype)
    return x._with(arrays)


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
