"""Hall bases of free Lie algebras over (possibly graded) alphabets.

A Hall element is a binary tree whose leaves are generator ids; the tree
(x, y) stands for the commutator [x, y].  We use the classical recursive
construction: fix a total order on elements, then

    [x, y] is a Hall element  iff  x and y are Hall elements, x < y,
    and y is either a generator or y = [u, v] with u <= x.

The total order places all generators first (in the order given by the
``ordering`` permutation), and compares two brackets first by degree and
then lexicographically by structure ([X,Y] < [V,W] iff X < V, or X = V
and Y < W).  Putting generators first — rather than interleaving them by
degree — matters only for graded alphabets, where it yields elements like
[Z5, [Z1, Z3]] with the high-degree generator on the left; the resulting
set is still a Hall set and per-degree counts agree with the generalized
Witt dimensions, which the tests pin.

Coordinates of a Lie element are read per homogeneous degree from the
expansion matrix M (words x Hall elements, integer entries), in one
place: ``HallBasis.coords_from_dense``.  Renaming generator
``ordering[j]`` to j maps a basis's elements, in order, onto the
canonical basis: identity-ordered, with this basis's generator degrees
in rank order.  So one solver per (degrees in rank order, degree) serves
every ordering and truncation, after gathering the word vector into the
canonical letters.  A float vector is solved in least squares with the
pseudo-inverse of M.  An exact vector (Fraction or polynomial entries)
is solved with the rational inverse of the square block of M on the
rows where a float LU of M places its pivots; the other rows give its
residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.linalg
from sympy import divisors
from sympy.functions.combinatorial.numbers import mobius

from .free_algebra import Generator, NCSeries, degree_words, make_alphabet, word_index

__all__ = [
    "HallBasis",
    "LieSeries",
    "build_hall_basis",
    "expand_hall",
    "hall_str",
    "lie_coordinates",
    "witt_dimension",
]

# A Hall element: either an int (generator id) or a pair of Hall elements.
HallElement = object


def witt_dimension(n: int, k: int) -> int:
    """Dimension of the degree-k part of the free Lie algebra on n letters.

    Witt's formula (the necklace polynomial): d_k = (1/k) sum_{j | k} mu(j) n^(k/j).
    """
    if n < 1 or k < 1:
        raise ValueError("witt_dimension requires n >= 1 and k >= 1")
    total = sum(int(mobius(j)) * n ** (k // j) for j in divisors(k))
    assert total % k == 0
    return total // k


def hall_degree(e: HallElement, degrees: Sequence[int]) -> int:
    if isinstance(e, int):
        return degrees[e]
    return hall_degree(e[0], degrees) + hall_degree(e[1], degrees)


def hall_str(e: HallElement, alphabet: Sequence[Generator]) -> str:
    """Fully parenthesized commutator notation, e.g. ``[A,[A,B]]``."""
    if isinstance(e, int):
        return alphabet[e].label
    return f"[{hall_str(e[0], alphabet)},{hall_str(e[1], alphabet)}]"


@dataclass(frozen=True)
class LieSeries:
    """A Lie element expressed in Hall coordinates."""

    basis: "HallBasis"
    coords: dict  # HallElement -> coefficient

    def coords_at_degree(self, d: int) -> dict:
        return {e: self.coords[e] for e in self.basis.elements(d) if e in self.coords}

    def norm1_at_degree(self, d: int):
        return sum(abs(c) for c in self.coords_at_degree(d).values())

    def to_series(self) -> NCSeries:
        """Expand back into the word algebra (exact check of the representation)."""
        out = NCSeries.zero(self.basis.alphabet, self.basis.max_degree)
        for e, c in self.coords.items():
            out = out + self.basis.expansion(e).scale(c)
        return out

    def __repr__(self) -> str:
        alph = self.basis.alphabet
        parts = [f"{hall_str(e, alph)}: {c}" for e, c in list(self.coords.items())[:8]]
        more = ", ..." if len(self.coords) > 8 else ""
        return f"LieSeries({{{', '.join(parts)}{more}}})"


class HallBasis:
    """All Hall elements of degree <= max_degree, grouped by degree.

    Instances are immutable; obtain them via ``build_hall_basis``, which
    memoizes.  Expansions and solvers live in module-level caches shared
    by every basis.
    """

    def __init__(self, alphabet: Sequence[Generator], max_degree: int, ordering: Sequence[int]):
        self.alphabet = tuple(alphabet)
        self.max_degree = int(max_degree)
        self.ordering = tuple(ordering)
        self.generator_degrees = tuple(g.degree for g in self.alphabet)
        self._canon_degrees = tuple(self.generator_degrees[g] for g in self.ordering)
        self.by_degree: dict[int, tuple[HallElement, ...]] = {}
        # rank[e] sorts as the module docstring's recursive order, in O(1):
        # generators rank (0, position), brackets (1, degree, index in level)
        self._rank: dict[HallElement, tuple] = {}
        self._build()

    def _build(self) -> None:
        rank = self._rank
        for pos, g in enumerate(self.ordering):
            rank[g] = (0, pos)
        for d in range(1, self.max_degree + 1):
            level: list[HallElement] = sorted(
                (g for g in range(len(self.alphabet)) if self.generator_degrees[g] == d),
                key=rank.__getitem__)
            brackets: list[HallElement] = []
            for d1 in range(1, d):
                d2 = d - d1
                for x in self.by_degree.get(d1, ()):
                    rx = rank[x]
                    for y in self.by_degree.get(d2, ()):
                        if not rx < rank[y]:
                            continue
                        if isinstance(y, int) or rank[y[0]] <= rx:
                            brackets.append((x, y))
            brackets.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
            for i, e in enumerate(brackets):
                rank[e] = (1, d, i)
            self.by_degree[d] = tuple(level + brackets)

    # -- inspection -----------------------------------------------------

    def elements(self, degree: int | None = None) -> tuple[HallElement, ...]:
        if degree is not None:
            return self.by_degree.get(degree, ())
        return tuple(e for d in sorted(self.by_degree) for e in self.by_degree[d])

    def degree_counts(self) -> dict[int, int]:
        return {d: len(v) for d, v in sorted(self.by_degree.items()) if v}

    def dump(self) -> str:
        """One element per line, fully parenthesized — the debug text format."""
        lines = []
        for d in sorted(self.by_degree):
            for e in self.by_degree[d]:
                lines.append(hall_str(e, self.alphabet))
        return "\n".join(lines)

    # -- expansion ------------------------------------------------------

    def expand_words(self, e: HallElement) -> dict[tuple[int, ...], Fraction]:
        """Expansion of a commutator tree into words (letter-id tuples)."""
        return _expand_words(e)

    def expansion(self, e: HallElement) -> NCSeries:
        return NCSeries.from_words(self.alphabet, self.max_degree, self.expand_words(e))

    # -- per-degree solvers ----------------------------------------------

    def exact_solver(self, d: int):
        """(pivots, inv, others, rest) for degree d, exact.

        ``pivots`` are the r word rows of the expansion matrix M on which
        a float LU of M places its pivots, and ``inv`` is the rational
        inverse of M on those rows; ``others`` are the remaining rows and
        ``rest`` is M on them.  ``inv`` and ``rest`` are sparse: one
        (columns, Fraction entries) pair per row.  Rows are canonical
        words (see the module docstring); the solver is shared by every
        ordering.
        """
        return _exact_solver(self._canon_degrees, d)

    def float_solver(self, d: int):
        """(M, pinv) for degree d: the float64 expansion matrix on the
        canonical words, in id-lex order, and its pseudo-inverse."""
        return _float_solver(self._canon_degrees, d)

    def coords_from_dense(self, d: int, vec: np.ndarray) -> tuple[np.ndarray, object]:
        """Coordinates for a dense degree-d word vector.

        ``vec`` lists the words of this basis's alphabet in the order of
        ``free_algebra.degree_words``, the layout of ``NCSeries``.  A float vector is
        solved in least squares; an object vector (Fraction or polynomial
        entries) exactly.  Returns (coords, residual), where residual is
        the max-norm of the remainder that no Lie element represents
        (exactly zero for a Lie element in exact mode).
        """
        vec = vec[_gather(self.generator_degrees, self.ordering, d)]
        if vec.dtype != object:
            m, pinv = self.float_solver(d)
            coords = pinv @ vec
            return coords, float(np.max(np.abs(m @ coords - vec), initial=0.0))
        pivots, inv, others, rest = self.exact_solver(d)
        # the pivot rows hold exactly by construction
        coords = _sparse_apply(inv, vec[pivots])
        return coords, _max_abs(_sparse_apply(rest, coords) - vec[others])

    def __repr__(self) -> str:
        labels = ",".join(self.alphabet[g].label for g in self.ordering)
        return f"HallBasis({labels}; D={self.max_degree}; counts={self.degree_counts()})"


@functools.lru_cache(maxsize=None)
def _expand_words(e: HallElement) -> dict[tuple[int, ...], Fraction]:
    if isinstance(e, int):
        return {(e,): Fraction(1)}
    left, right = _expand_words(e[0]), _expand_words(e[1])
    result: dict[tuple[int, ...], Fraction] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            w = w1 + w2
            result[w] = result.get(w, Fraction(0)) + c
            w = w2 + w1
            result[w] = result.get(w, Fraction(0)) - c
    return {w: c for w, c in result.items() if c}


@functools.lru_cache(maxsize=None)
def _float_solver(degrees: tuple[int, ...], d: int):
    alphabet = make_alphabet([f"X{g}" for g in range(len(degrees))], degrees)
    index = word_index(degrees, d)
    elements = _cached_basis(alphabet, d, tuple(range(len(degrees)))).elements(d)
    m = np.zeros((len(index), len(elements)))
    for j, e in enumerate(elements):
        for w, c in _expand_words(e).items():
            m[index[w], j] = float(c)
    return m, np.linalg.pinv(m)


@functools.lru_cache(maxsize=None)
def _exact_solver(degrees: tuple[int, ...], d: int):
    m, _ = _float_solver(degrees, d)
    # row i of M is row perm[i] of L, so the pivot rows are those with perm < r
    perm = scipy.linalg.lu(m, p_indices=True)[0]
    pivots = np.flatnonzero(perm < m.shape[1])
    others = np.setdiff1d(np.arange(len(m)), pivots)
    inv = _invert_rational([[Fraction(int(x)) for x in m[i]] for i in pivots])
    return pivots, _sparse(inv), others, _sparse(m[others])


@functools.lru_cache(maxsize=None)
def _gather(degrees: tuple[int, ...], ordering: tuple[int, ...], d: int) -> np.ndarray:
    """Position, among the id-lex words of degree d over ``degrees``, of each
    canonical word of the basis with ``ordering``, in canonical word order."""
    index = word_index(degrees, d)
    canonical = degree_words(tuple(degrees[g] for g in ordering), d)
    return np.array([index[tuple(ordering[l] for l in w)] for w in canonical], dtype=np.intp)


def _invert_rational(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    for j in range(n):
        piv = next((i for i in range(j, n) if aug[i][j]), None)
        if piv is None:
            raise ValueError(f"singular pivot block: no pivot in column {j}")
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = Fraction(1) / aug[j][j]
        aug[j] = [x * inv for x in aug[j]]
        for i in range(n):
            if i != j and aug[i][j]:
                f = aug[i][j]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[j])]
    return [row[n:] for row in aug]


def _sparse(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's nonzero columns and their entries as Fractions."""
    cols = [np.flatnonzero(row) for row in rows]
    return [(c, np.array([Fraction(row[j]) for j in c], dtype=object))
            for c, row in zip(cols, rows)]


def _sparse_apply(rows, vec: np.ndarray) -> np.ndarray:
    """The product of ``_sparse`` rows with an object vector."""
    out = np.empty(len(rows), dtype=object)
    out[:] = [np.dot(vals, vec[cols]) for cols, vals in rows]
    return out


@functools.lru_cache(maxsize=None)
def _cached_basis(alphabet: tuple[Generator, ...], D: int, ordering: tuple[int, ...]) -> HallBasis:
    return HallBasis(alphabet, D, ordering)


def build_hall_basis(alphabet: Sequence[Generator], D: int,
                     ordering: Sequence[int] | None = None) -> HallBasis:
    """Hall basis over ``alphabet`` with all elements of degree <= D.

    ``ordering`` permutes the generators (ids, smallest first); identity
    by default.  Results are memoized, so equal requests share caches.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    alphabet = tuple(alphabet)
    if ordering is None:
        ordering = tuple(range(len(alphabet)))
    ordering = tuple(int(g) for g in ordering)
    if sorted(ordering) != list(range(len(alphabet))):
        raise ValueError("ordering must be a permutation of generator ids")
    return _cached_basis(alphabet, int(D), ordering)


def expand_hall(e: HallElement, D: int, alphabet: Sequence[Generator] | None = None) -> NCSeries:
    """Expansion of a commutator tree as a word series, [x,y] -> xy - yx.

    The alphabet defaults to unit-degree generators A, B, C, ... covering
    the ids appearing in the tree.
    """
    if alphabet is None:
        max_id = _max_leaf(e)
        labels = [chr(ord("A") + i) for i in range(max_id + 1)]
        alphabet = tuple(Generator(i, lab, 1) for i, lab in enumerate(labels))
    basis = build_hall_basis(alphabet, max(D, 1))
    if hall_degree(e, basis.generator_degrees) > D:
        raise ValueError("element degree exceeds truncation")
    return NCSeries.from_words(alphabet, D, basis.expand_words(e))


def _max_leaf(e: HallElement) -> int:
    if isinstance(e, int):
        return e
    return max(_max_leaf(e[0]), _max_leaf(e[1]))


def lie_coordinates(s: NCSeries, basis: HallBasis, degrees: Sequence[int] | None = None):
    """Hall coordinates of a word series, degree by degree.

    Returns ``(LieSeries, residual)`` where residual is the max-norm of
    the part of ``s`` not representable as a Lie element (exactly zero
    for true Lie elements in exact mode, NaN if any degree's is).  Each
    degree's coefficient array goes to ``basis.coords_from_dense`` as
    stored: a float64 array is read in float, an object array exactly.
    ``degrees`` limits the read to those degrees (default: all).  Raises
    if ``s`` extends beyond the basis truncation.
    """
    if s.max_degree > basis.max_degree:
        raise ValueError("series truncation exceeds basis truncation")
    if s.alphabet != basis.alphabet:
        raise ValueError("series alphabet does not match basis alphabet")
    if s.constant_term():
        raise ValueError("a Lie element has no constant term")
    coords: dict = {}
    residuals = [0]
    for d in s.degrees():
        if degrees is not None and d not in degrees:
            continue
        cvec, res = basis.coords_from_dense(d, s.array(d))
        residuals.append(res)
        coords.update({e: c for e, c in zip(basis.by_degree.get(d, ()), cvec.tolist()) if c})
    return LieSeries(basis, coords), max(residuals, key=lambda r: (r != r, r))  # NaN wins


def _max_abs(values):
    """Max-norm of exact values; a polynomial counts its coefficients."""
    def magnitude(v):
        mags = getattr(v, "coefficient_magnitudes", None)
        return max(mags(), default=Fraction(0)) if mags is not None else abs(v)
    return max(map(magnitude, values), default=Fraction(0))
