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
canonical letters.  Each Hall element expands into rearrangements of its
own leaves, so M is zero outside its letter-content blocks (the fine
grading of the free Lie algebra; Reutenauer, *Free Lie Algebras*, 1993):
at n = 3, degree 7, the 2187 x 312 matrix splits into 33 blocks, the
largest 210 x 30.  The solvers are built per letter-content block.  A
float vector is solved in least squares with the pseudo-inverse of M,
a CSR matrix assembled from one pseudo-inverse per block (38,976 entries
at n = 3, degree 7, where a dense one would hold 682,344), and its
residual is taken with M in CSR form.  An exact vector (Fraction or
polynomial entries) is solved with the rational inverse of M on the
rows where a float LU of each block places its pivots, inverted block by
block; the other rows give its residual.

``coords_from_dense`` also takes a 2-D block, one word vector per column,
and solves every column with one product.  Over equal generator degrees
every ordering's canonical basis is the identity one, so
``ordering_block`` stacks each ordering's word gather into one index: a
vector's block of relabelings, read in the identity basis, gives its
coordinates in every ordering at once.  Relabeling the letters maps the
free Lie algebra onto itself, so a vector is Lie in one ordering exactly
when it is in all: a float block's residual still covers every column,
but an exact block's is taken on its first column only, once per vector
rather than once per ordering.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .free_algebra import Generator, NCSeries, degree_words, make_alphabet, word_index

__all__ = [
    "HallBasis",
    "LieSeries",
    "build_hall_basis",
    "expand_hall",
    "hall_str",
    "lie_coordinates",
    "ordering_block",
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
    total = sum(_mobius(j) * n ** (k // j) for j in range(1, k + 1) if k % j == 0)
    assert total % k == 0
    return total // k


def _mobius(j: int) -> int:
    """Moebius function by trial division: 0 on a square factor, else
    (-1) to the number of prime factors."""
    mu, q = 1, 2
    while q * q <= j:
        if j % q == 0:
            j //= q
            if j % q == 0:
                return 0
            mu = -mu
        q += 1
    return -mu if j > 1 else mu


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
        return {w: Fraction(c) for w, c in _expand_words(e).items()}

    def expansion(self, e: HallElement) -> NCSeries:
        return NCSeries.from_words(self.alphabet, self.max_degree, self.expand_words(e))

    # -- per-degree solvers ----------------------------------------------

    def exact_solver(self, d: int):
        """(pivots, inv, others, rest) for degree d, exact.

        ``pivots`` are the r word rows of the expansion matrix M on which
        a float LU of each letter-content block of M places its pivots,
        and ``inv`` is the rational inverse of M on those rows, inverted
        per block; ``others`` are the remaining rows and
        ``rest`` is M on them.  ``inv`` and ``rest`` are sparse: one
        (columns, Fraction entries) pair per row.  Rows are canonical
        words (see the module docstring); the solver is shared by every
        ordering.
        """
        return _exact_solver(self._canon_degrees, d)

    def float_solver(self, d: int):
        """(M, pinv) for degree d as float64 CSR matrices: the expansion
        matrix on the canonical words, in id-lex order, and its
        pseudo-inverse, taken per letter-content block and holding every
        entry of each block: |rows| * |cols| entries per block."""
        return _float_solver(self._canon_degrees, d)

    def coords_from_dense(self, d: int, vec: np.ndarray) -> tuple[np.ndarray, object]:
        """Coordinates for a dense degree-d word vector, or a block of them.

        ``vec`` lists the words of this basis's alphabet in the order of
        ``free_algebra.degree_words``, the layout of ``NCSeries``; a 2-D
        block (words x columns) holds one such vector per column, and
        the coordinates come back as (elements x columns).  A float
        vector is solved in least squares; an object vector (Fraction or
        polynomial entries) exactly, both by sparse products.  Returns
        (coords, residual), where residual is the max-norm of the
        remainder that no Lie element represents (exactly zero for a Lie
        element in exact mode).  A float block's residual covers every
        column; an object block's only its first (see ``ordering_block``).
        """
        vec = vec[_gather(self.generator_degrees, self.ordering, d)]
        if vec.dtype != object:
            m, pinv = self.float_solver(d)
            coords = pinv @ vec
            return coords, float(np.max(np.abs(m @ coords - vec), initial=0.0))
        pivots, inv, others, rest = self.exact_solver(d)
        # the pivot rows hold exactly by construction.  The columns of an
        # object block are relabelings of one vector (``ordering_block``),
        # and relabeling the letters maps the free Lie algebra onto itself,
        # so in exact arithmetic one column's residual is zero exactly when
        # every column's is: the first column's check stands for all
        coords = _sparse_apply(inv, vec[pivots])
        c0, v0 = (coords[:, 0], vec[:, 0]) if vec.ndim == 2 else (coords, vec)
        return coords, _max_abs(_sparse_apply(rest, c0) - v0[others])

    def __repr__(self) -> str:
        labels = ",".join(self.alphabet[g].label for g in self.ordering)
        return f"HallBasis({labels}; D={self.max_degree}; counts={self.degree_counts()})"


@functools.lru_cache(maxsize=None)
def _expand_words(e: HallElement) -> dict[tuple[int, ...], int]:
    if isinstance(e, int):
        return {(e,): 1}
    left, right = _expand_words(e[0]), _expand_words(e[1])
    result: dict[tuple[int, ...], int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            w = w1 + w2
            result[w] = result.get(w, 0) + c
            w = w2 + w1
            result[w] = result.get(w, 0) - c
    return {w: c for w, c in result.items() if c}


@functools.lru_cache(maxsize=None)
def _expansion_matrix(degrees: tuple[int, ...], d: int):
    """(M, blocks) for the canonical basis over ``degrees`` at degree d.

    M is the float64 expansion matrix (id-lex words x Hall elements, integer
    entries).  Each element expands into rearrangements of its own leaves,
    so M is zero outside its letter-content blocks: ``blocks`` holds one
    (rows, columns) index pair per letter content that some element has.
    Rows of the other contents are zero.
    """
    alphabet = make_alphabet([f"X{g}" for g in range(len(degrees))], degrees)
    words = degree_words(degrees, d)
    index = word_index(degrees, d)
    elements = _cached_basis(alphabet, d, tuple(range(len(degrees)))).elements(d)
    m = np.zeros((len(words), len(elements)))
    columns: dict[tuple[int, ...], list[int]] = {}
    for j, e in enumerate(elements):
        expansion = _expand_words(e)
        for w, c in expansion.items():
            m[index[w], j] = c
        columns.setdefault(tuple(sorted(next(iter(expansion)))), []).append(j)
    rows: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(words):
        rows.setdefault(tuple(sorted(w)), []).append(i)
    return m, [(np.array(rows[key]), np.array(cols)) for key, cols in columns.items()]


@functools.lru_cache(maxsize=None)
def _float_solver(degrees: tuple[int, ...], d: int):
    m, blocks = _expansion_matrix(degrees, d)
    # pinv row j (element j) holds its block's pinv row at the block's word rows
    parts = [(np.repeat(cols, len(rows)), np.tile(rows, len(cols)),
              np.linalg.pinv(m[np.ix_(rows, cols)]).ravel()) for rows, cols in blocks]
    at_element, at_word, values = map(np.concatenate, zip(*parts)) if parts else ([], [], [])
    pinv = scipy.sparse.csr_array((values, (at_element, at_word)), shape=m.T.shape)
    return scipy.sparse.csr_array(m), pinv


@functools.lru_cache(maxsize=None)
def _exact_solver(degrees: tuple[int, ...], d: int):
    m, blocks = _expansion_matrix(degrees, d)
    pivot_rows: list[int] = []
    inv: list = [None] * m.shape[1]
    for rows, cols in blocks:
        # row i of the block is row perm[i] of L, so its pivot rows are those with perm < r
        perm = scipy.linalg.lu(m[np.ix_(rows, cols)], p_indices=True)[0]
        block_pivots = rows[perm < len(cols)]
        block_inv = _invert_rational([[Fraction(int(x)) for x in m[i, cols]] for i in block_pivots])
        # the block's inverse reads its pivots where they sit in pivot_rows
        for j, (at, vals) in zip(cols, _sparse(block_inv)):
            inv[j] = (at + len(pivot_rows), vals)
        pivot_rows.extend(block_pivots.tolist())
    pivots = np.array(pivot_rows, dtype=np.intp)
    others = np.setdiff1d(np.arange(len(m)), pivots)
    return pivots, inv, others, _sparse(m[others])


@functools.lru_cache(maxsize=None)
def _gather(degrees: tuple[int, ...], ordering: tuple[int, ...], d: int) -> np.ndarray:
    """Position, among the id-lex words of degree d over ``degrees``, of each
    canonical word of the basis with ``ordering``, in canonical word order."""
    index = word_index(degrees, d)
    canonical = degree_words(tuple(degrees[g] for g in ordering), d)
    return np.array([index[tuple(ordering[l] for l in w)] for w in canonical], dtype=np.intp)


@functools.lru_cache(maxsize=None)
def ordering_block(degrees: tuple[int, ...], d: int):
    """(orderings, elements, gather) for reading a degree-d word vector
    over ``degrees`` in every generator ordering at once.

    ``orderings`` lists every permutation of the generator ids in
    ``itertools.permutations`` order, ``elements`` each one's degree-d
    Hall elements in basis order, and row k of the (orderings x words)
    index ``gather`` is ordering k's ``_gather``.  For a word vector
    ``vec``, column k of ``vec[gather.T]`` read in the identity basis
    gives ``vec``'s coordinates in ordering k, so one solve covers every
    ordering.  Needs equal generator degrees, the case in which every
    ordering's canonical basis is the identity one.
    """
    if len(set(degrees)) > 1:
        raise ValueError(f"orderings share one solver only over equal degrees, not {degrees}")
    alphabet = make_alphabet([f"X{g}" for g in range(len(degrees))], degrees)
    orderings = tuple(itertools.permutations(range(len(degrees))))
    elements = tuple(_cached_basis(alphabet, d, o).elements(d) for o in orderings)
    gather = np.stack([_gather(degrees, o, d) for o in orderings])
    gather.setflags(write=False)
    return orderings, elements, gather


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
                aug[i] = [a - f * b if b else a for a, b in zip(aug[i], aug[j])]
    return [row[n:] for row in aug]


def _sparse(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's nonzero columns and their entries as Fractions."""
    cols = [np.flatnonzero(row) for row in rows]
    return [(c, np.array([Fraction(row[j]) for j in c], dtype=object))
            for c, row in zip(cols, rows)]


def _sparse_apply(rows, vec: np.ndarray) -> np.ndarray:
    """The product of ``_sparse`` rows with an object vector or block."""
    out = np.empty((len(rows),) + vec.shape[1:], dtype=object)
    for i, (cols, vals) in enumerate(rows):
        out[i] = np.dot(vals, vec[cols])
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


def lie_coordinates(s: NCSeries, basis: HallBasis):
    """Hall coordinates of a word series, degree by degree.

    Returns ``(LieSeries, residual)`` where residual is the max-norm of
    the part of ``s`` not representable as a Lie element (exactly zero
    for true Lie elements in exact mode, NaN if any degree's is).  Each
    degree's coefficient array goes to ``basis.coords_from_dense`` as
    stored: a float64 array is read in float, an object array exactly.
    Raises if ``s`` extends beyond the basis truncation.
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
