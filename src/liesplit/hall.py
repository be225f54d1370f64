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

Every basis relabels one canonical Hall set per tuple of generator
degrees (``_hall_set``), identity-ordered and grown level by level: the
basis with ``ordering`` is the set over its generator degrees in rank
order with leaf k renamed ordering[k] (``_relabeled``), since the
construction reads only ranks and degrees.

Coordinates of a Lie element are read per homogeneous degree from the
expansion matrix M (words x Hall elements, integer entries), in one
place: ``HallBasis.coords_from_dense``.  The same renaming maps a
basis's elements, in order, onto the canonical set, so one solver per
(degrees in rank order, degree) serves every ordering and truncation,
after gathering the word vector into the canonical letters.  Each Hall
element expands into rearrangements of its own leaves, so M is zero
outside its letter-content blocks (the fine grading of the free Lie
algebra; Reutenauer, *Free Lie Algebras*, 1993):
at n = 3, degree 7, the 2187 x 312 matrix splits into 33 blocks, the
largest 210 x 30.  M is built by index arithmetic on the word layout of
``free_algebra``, degree by degree: a generator's column is its
one-letter word, and the column of [x, y] is xy - yx, placed by
``concat_index`` from the columns of x and y at lower degrees.  Letter
content is one integer per word, the rank of its letter counts (built by
the same recurrence over first letters) among the distinct counts, and
an element's is that of its first word.  The word gather of an ordering
follows the recurrence too: canonical letter k is generator ordering[k],
so the canonical words of first letter k sit at start_{ordering[k]}(d)
plus the gather of the rest.  The solvers are built per letter-content
block.  A float vector is solved in least squares with the
pseudo-inverse of M, a CSR matrix assembled from the blocks'
pseudo-inverses, taken by one ``pinv`` call per block shape on the
stacked blocks (38,976 entries at n = 3, degree 7, where a dense one
would hold 682,344), and its residual is taken with M in CSR form.  An
exact vector (Fraction or polynomial entries) is solved with the
rational inverse of M on the first independent rows of each block in
word order (rows and inverse both from the one exact row echelon,
``polynomials._eliminate``), one ``polynomials.dot`` per row of the
inverse (and per column of a block); M on the other rows gives its
residual the same way.  A truncation of more than
``free_algebra.MAX_WORDS`` words is refused before any level is built,
as a series refuses it (``free_algebra.degree_offsets``).  ``expand_hall``
expands a tree with no basis, [x, y] as xy - yx by ``free_algebra.mul``.

``coords_from_dense`` also takes a 2-D block, one word vector per
column, and solves every column with one product.  Over equal generator
degrees every ordering's canonical basis is the identity one, so
``ordering_block`` stacks each ordering's word gather into one index: a
vector's block of relabelings, read in the identity basis, gives its
coordinates in every ordering at once, each ordering's elements
relabeled from the canonical set as a basis's are.  Relabeling the
letters maps the free Lie algebra onto itself, so a vector is Lie in one
ordering exactly when it is in all: a float block's residual still
covers every column, but an exact block's is taken on its first column
only, once per vector rather than once per ordering.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse

from .free_algebra import (Generator, NCSeries, _integer, concat_index, degree_offsets,
                           make_alphabet, mul, word_count, word_starts)
from .polynomials import _eliminate, dot

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
    n, k = _integer(n, "n"), _integer(k, "k")
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
    """All Hall elements of degree <= max_degree, grouped by degree: a
    labeled view of the canonical Hall set (see the module docstring).

    Instances are immutable; obtain them via ``build_hall_basis``, which
    memoizes.  The canonical sets, expansions and solvers live in
    module-level caches shared by every basis.
    """

    def __init__(self, alphabet: Sequence[Generator], max_degree: int, ordering: Sequence[int]):
        self.alphabet = tuple(alphabet)
        self.max_degree = int(max_degree)
        self.ordering = tuple(ordering)
        self.generator_degrees = tuple(g.degree for g in self.alphabet)
        self._canon_degrees = tuple(self.generator_degrees[g] for g in self.ordering)
        self.by_degree: dict[int, tuple[HallElement, ...]] = dict(
            enumerate(_relabeled(self._canon_degrees, self.ordering, self.max_degree), 1))

    # -- inspection -----------------------------------------------------

    def elements(self, degree: int | None = None) -> tuple[HallElement, ...]:
        if degree is not None:
            return self.by_degree.get(degree, ())
        return tuple(e for d in sorted(self.by_degree) for e in self.by_degree[d])

    def degree_counts(self) -> dict[int, int]:
        return {d: len(v) for d, v in sorted(self.by_degree.items()) if v}

    def dump(self) -> str:
        """One element per line, fully parenthesized — the debug text format."""
        return "\n".join(hall_str(e, self.alphabet) for e in self.elements())

    # -- per-degree solvers ----------------------------------------------

    def exact_solver(self, d: int):
        """(pivots, inv, others, rest) for degree d, exact.

        ``pivots`` are the r word rows of the expansion matrix M that are
        the first independent rows of each letter-content block of M in
        word order, and ``inv`` is the rational inverse of M on those
        rows, inverted per block (``_exact_pivots``); ``others`` are the
        remaining rows and ``rest`` is M on them.  ``inv`` and ``rest`` are sparse: one
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
def _letter_counts(degrees: tuple[int, ...], d: int) -> np.ndarray:
    """(words x letters) count of each letter in each id-lex word of degree
    d: the rows of first letter l are the rest's counts at d - deg(l),
    plus one l."""
    counts = np.zeros((word_count(degrees, d), len(degrees)), dtype=np.intp)
    starts = word_starts(degrees, d)
    for l, deg in enumerate(degrees):
        if deg <= d:
            rows = counts[starts[l]:starts[l + 1]]
            rows[:] = _letter_counts(degrees, d - deg)
            rows[:, l] += 1
    return counts


@functools.lru_cache(maxsize=None)
def _expansion_matrix(degrees: tuple[int, ...], d: int):
    """(M, blocks) for the canonical basis over ``degrees`` at degree d.

    M is the expansion matrix (id-lex words x Hall elements, integer
    entries) as a float64 CSC matrix.  A generator's column is its
    one-letter word; the column of [x, y] is xy - yx, formed from the
    columns of x and y at their own degrees through ``concat_index``,
    every bracket with one left degree at once.  Each element expands into
    rearrangements of its own leaves, so M is zero outside its
    letter-content blocks: ``blocks`` holds one (rows, columns, M on them,
    dense) triple per letter content that some element has, in order of
    each content's first element.  Rows of the other contents are zero.
    The terms of each column are summed in a dense array over the words
    of its block, so M by columns and the blocks come from one sum.
    """
    levels = _hall_levels(degrees, d)
    elements = levels[d]
    starts = word_starts(degrees, d)
    at = {e: (k, j) for k in range(1, d) for j, e in enumerate(levels[k])}
    # every term (word, column, value) of every expansion, and each
    # column's first word, which carries its letter content
    first = np.zeros(len(elements), np.intp)
    generators = [j for j, e in enumerate(elements) if isinstance(e, int)]
    first[generators] = [starts[elements[j]] for j in generators]
    rows, cols = [first[generators]], [np.array(generators, np.intp)]
    vals = [np.ones(len(generators))]
    splits: dict[int, list] = {}  # left degree -> (column, left column, right column)
    for j, e in enumerate(elements):
        if not isinstance(e, int):
            (d1, jx), (_, jy) = at[e[0]], at[e[1]]
            splits.setdefault(d1, []).append((j, jx, jy))
    for d1, triples in splits.items():
        d2 = d - d1
        j, jx, jy = np.array(triples).T
        x, y = _expansion_matrix(degrees, d1)[0], _expansion_matrix(degrees, d2)[0]
        # every pair of a word of x and a word of y, bracket by bracket
        ny = y.indptr[jy + 1] - y.indptr[jy]
        size = (x.indptr[jx + 1] - x.indptr[jx]) * ny
        begin = np.cumsum(size) - size
        pair = np.repeat(np.arange(len(j)), size)
        q, r = np.divmod(np.arange(len(pair)) - begin[pair], ny[pair])
        ax, ay = x.indptr[jx][pair] + q, y.indptr[jy][pair] + r
        wx, wy, v = x.indices[ax], y.indices[ay], x.data[ax] * y.data[ay]
        xy = concat_index(degrees, d1, d2)[wx, wy]
        first[j] = xy[begin]
        rows += [xy, concat_index(degrees, d2, d1)[wy, wx]]
        cols += [j[pair]] * 2
        vals += [v, -v]
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))

    # letter content as one code per word, the rank of its letter counts
    # among the distinct counts, by lexsort: np.unique(axis=0) compares rows
    # as structured values, 1 ms against 0.13 ms at n = 3, degree 7 on a
    # 2-vCPU VM
    counts = _letter_counts(degrees, d)
    order = np.lexsort(counts.T)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (counts[order[1:]] != counts[order[:-1]]).any(axis=1)
    code = np.empty(len(order), dtype=np.intp)
    code[order] = np.cumsum(new)
    element_code = code[first]
    contents = element_code[np.sort(np.unique(element_code, return_index=True)[1])]
    index = [(np.flatnonzero(code == c), np.flatnonzero(element_code == c)) for c in contents]
    local_row, block_of = np.zeros(len(code), np.intp), np.zeros(len(elements), np.intp)
    for b, (r, k) in enumerate(index):
        local_row[r], block_of[k] = np.arange(len(r)), b
    # the terms summed per column over its block's words: local[j, i] is
    # column j's entry at word i of its block
    height = max((len(r) for r, _ in index), default=0)
    local = np.bincount(cols * height + local_row[rows], weights=vals,
                        minlength=len(elements) * height).reshape(len(elements), height)
    blocks = [(r, k, local[k, :len(r)].T) for r, k in index]
    # M's nonzero entries column by column, each column's words ascending
    nonzero = np.flatnonzero(local != 0)
    column, i = np.divmod(nonzero, height)
    words = np.concatenate([np.zeros(0, np.intp)] + [r for r, _ in index])
    row_start = np.cumsum([0] + [len(r) for r, _ in index])
    m = scipy.sparse.csc_array((local.ravel()[nonzero], words[row_start[block_of[column]] + i],
                                np.searchsorted(column, np.arange(len(elements) + 1))),
                               shape=(starts[-1], len(elements)))
    return m, blocks


@functools.lru_cache(maxsize=None)
def _float_solver(degrees: tuple[int, ...], d: int):
    m, blocks = _expansion_matrix(degrees, d)
    # one pinv call per block shape, on the stacked blocks of that shape
    by_shape: dict[tuple[int, int], list] = {}
    for block in blocks:
        by_shape.setdefault(block[2].shape, []).append(block)
    # pinv row j (element j) holds its block's pinv row at the block's word rows
    indices, data = [None] * m.shape[1], [None] * m.shape[1]
    for group in by_shape.values():
        pinvs = np.linalg.pinv(np.stack([matrix for _, _, matrix in group]))
        for (rows, cols, _), p in zip(group, pinvs):
            for j, row in zip(cols.tolist(), p):
                indices[j], data[j] = rows, row
    indptr = np.cumsum([0] + [len(at) for at in indices])
    pinv = scipy.sparse.csr_array((np.concatenate([np.zeros(0), *data]),
                                   np.concatenate([np.zeros(0, np.intp), *indices]), indptr),
                                  shape=m.shape[::-1])
    return m.tocsr(), pinv


@functools.lru_cache(maxsize=None)
def _exact_solver(degrees: tuple[int, ...], d: int):
    m, blocks = _expansion_matrix(degrees, d)
    pivot_rows: list[int] = []
    inv: list = [None] * m.shape[1]
    rest: dict[int, tuple] = {}  # M on each block row that is no pivot
    for rows, cols, matrix in blocks:
        pivot, block_inv = _exact_pivots(matrix)
        # the block's inverse reads its pivots where they sit in pivot_rows
        for j, (at, vals) in zip(cols, block_inv):
            inv[j] = (at + len(pivot_rows), vals)
        pivot_rows.extend(rows[pivot].tolist())
        rest.update((i, (cols[at], vals))
                    for i, (at, vals) in zip(rows[~pivot].tolist(), _sparse(matrix[~pivot])))
    pivots = np.array(pivot_rows, dtype=np.intp)
    others = np.ones(m.shape[0], dtype=bool)
    others[pivots] = False
    others = np.flatnonzero(others)
    zero = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=object))
    return pivots, inv, others, [rest.get(i, zero) for i in others.tolist()]


def _exact_pivots(matrix: np.ndarray) -> tuple[np.ndarray, list]:
    """(pivot, inverse) of an integer ``matrix`` of full column rank r.

    Its rows go, in order, into the one exact row echelon,
    ``polynomials._eliminate``, keyed by column and tagged by the number of
    rows filed before them, until r are filed: ``pivot`` masks those rows,
    the first r independent ones.  Row j of ``inverse``, the exact inverse
    of ``matrix`` on them, is the combination of the pivot rows that
    cancels the unit vector e_j, as a (columns, Fraction entries) pair.  A
    matrix of lower rank raises ``ValueError``.
    """
    r = matrix.shape[1]
    filed: dict = {}
    pivot = np.zeros(len(matrix), dtype=bool)
    for i, row in enumerate(matrix.tolist()):
        if len(filed) == r:
            break
        pivot[i] = _eliminate(filed, {j: int(x) for j, x in enumerate(row) if x},
                              {len(filed): 1}, int) is None
    if len(filed) < r:
        raise ValueError(f"a letter-content block of {r} columns has rank {len(filed)}")
    inverse = []
    for j in range(r):
        # c_r e_j + sum_t c_t (pivot row t) = 0, with c_r > 0
        combo = _eliminate(filed, {j: 1}, {r: 1}, int)
        at = sorted(t for t, c in combo.items() if c and t != r)
        inverse.append((np.array(at, dtype=np.intp),
                        np.array([Fraction(-combo[t], combo[r]) for t in at], dtype=object)))
    return pivot, inverse


@functools.lru_cache(maxsize=None)
def _gather(degrees: tuple[int, ...], ordering: tuple[int, ...], d: int) -> np.ndarray:
    """Position, among the id-lex words of degree d over ``degrees``, of each
    canonical word of the basis with ``ordering``, in canonical word order.
    Canonical letter k is generator ordering[k], so the canonical words of
    first letter k are start_{ordering[k]}(d) plus the gather of the rest."""
    canonical = tuple(degrees[g] for g in ordering)
    gather = np.zeros(word_count(canonical, d), dtype=np.intp)
    starts, out = word_starts(canonical, d), word_starts(degrees, d)
    for k, g in enumerate(ordering):
        if canonical[k] <= d:
            gather[starts[k]:starts[k + 1]] = out[g] + _gather(degrees, ordering, d - canonical[k])
    return gather


@functools.lru_cache(maxsize=None)
def _hall_set(degrees: tuple[int, ...]) -> tuple[list, dict]:
    """The canonical Hall set over ``degrees`` as ``(levels, rank)``, grown
    by ``_hall_levels``: ``levels[d]`` the degree-d elements in basis order,
    ``rank[e]`` sorting as the recursive order in O(1): generator g ranks
    (0, g), a bracket (1, degree, index among its level's brackets)."""
    return [()], {g: (0, g) for g in range(len(degrees))}


def _hall_levels(degrees: tuple[int, ...], D: int) -> list[tuple[HallElement, ...]]:
    """Levels 0..D of the canonical Hall set, the missing ones built
    bottom-up, each from the nonempty levels below it (over one generator,
    every level past the first is empty)."""
    levels, rank = _hall_set(degrees)
    nonempty = [d1 for d1, level in enumerate(levels) if level]
    for d in range(len(levels), D + 1):
        brackets = []
        for d1 in nonempty:
            for x in levels[d1] if levels[d - d1] else ():
                rx = rank[x]
                brackets += [(x, y) for y in levels[d - d1]
                             if rx < rank[y] and (isinstance(y, int) or rank[y[0]] <= rx)]
        brackets.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
        for i, e in enumerate(brackets):
            rank[e] = (1, d, i)
        levels.append(tuple([g for g, deg in enumerate(degrees) if deg == d] + brackets))
        if levels[d]:
            nonempty.append(d)
    return levels[:D + 1]


def _relabeled(degrees: tuple[int, ...], ordering: tuple[int, ...],
               D: int) -> list[tuple[HallElement, ...]]:
    """Levels 1..D of the canonical Hall set over ``degrees`` with leaf k
    renamed ordering[k]: the basis ranking generator ordering[k] k-th."""
    image: dict = dict(enumerate(ordering))
    levels = []
    for level in _hall_levels(degrees, D)[1:]:
        for e in level:
            if not isinstance(e, int):
                image[e] = (image[e[0]], image[e[1]])
        levels.append(tuple(image[e] for e in level))
    return levels


@functools.lru_cache(maxsize=None)
def ordering_block(degrees: tuple[int, ...], d: int):
    """(orderings, elements, gather) for reading a degree-d word vector
    over ``degrees`` in every generator ordering at once.

    ``orderings`` lists every permutation of the generator ids in
    ``itertools.permutations`` order, ``elements`` each one's degree-d
    Hall elements in basis order, relabeled from the canonical set as
    every basis's are, and row k of the (orderings x words) index
    ``gather`` is ordering k's ``_gather``.  For a word vector
    ``vec``, column k of ``vec[gather.T]`` read in the identity basis
    gives ``vec``'s coordinates in ordering k, so one solve covers every
    ordering.  Needs equal generator degrees, the case in which every
    ordering's canonical basis is the identity one.
    """
    if len(set(degrees)) > 1:
        raise ValueError(f"orderings share one solver only over equal degrees, not {degrees}")
    orderings = tuple(itertools.permutations(range(len(degrees))))
    elements = tuple(_relabeled(degrees, o, d)[-1] for o in orderings)
    gather = np.stack([_gather(degrees, o, d) for o in orderings])
    gather.setflags(write=False)
    return orderings, elements, gather


def _sparse(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's nonzero columns and their entries as Fractions."""
    cols = [np.flatnonzero(row) for row in rows]
    return [(c, np.array([Fraction(row[j]) for j in c], dtype=object))
            for c, row in zip(cols, rows)]


def _sparse_apply(rows, vec: np.ndarray) -> np.ndarray:
    """The product of ``_sparse`` rows with an object vector or block
    (words x columns): one ``dot`` per row and column."""
    out = np.empty((len(rows),) + vec.shape[1:], dtype=object)
    for i, (cols, vals) in enumerate(rows):
        vals, block = vals.tolist(), vec[cols].T.tolist()
        if vec.ndim == 1:
            out[i] = dot(0, vals, block)
        else:
            for j, column in enumerate(block):
                out[i, j] = dot(0, vals, column)
    return out


@functools.lru_cache(maxsize=None)
def _cached_basis(alphabet: tuple[Generator, ...], D: int, ordering: tuple[int, ...]) -> HallBasis:
    return HallBasis(alphabet, D, ordering)


def build_hall_basis(alphabet: Sequence[Generator], D: int,
                     ordering: Sequence[int] | None = None) -> HallBasis:
    """Hall basis over ``alphabet`` with all elements of degree <= D.

    ``ordering`` permutes the generators (ids, smallest first); identity
    by default.  Results are memoized, so equal requests share caches.  A
    truncation with more than ``free_algebra.MAX_WORDS`` words raises
    ``ValueError`` (``free_algebra.degree_offsets``) before any level is
    built.
    """
    D = _integer(D, "D")
    if D < 1:
        raise ValueError("D must be >= 1")
    alphabet = tuple(alphabet)
    degree_offsets(tuple(g.degree for g in alphabet), D)  # refuses past MAX_WORDS words
    if ordering is None:
        ordering = tuple(range(len(alphabet)))
    ordering = tuple(_integer(g, "ordering", i) for i, g in enumerate(ordering))
    if sorted(ordering) != list(range(len(alphabet))):
        raise ValueError("ordering must be a permutation of generator ids")
    return _cached_basis(alphabet, D, ordering)


def expand_hall(e: HallElement, D: int, alphabet: Sequence[Generator] | None = None) -> NCSeries:
    """Expansion of a commutator tree as a word series truncated at D:
    a leaf is its one-letter word and [x, y] is xy - yx, formed by the
    series product ``free_algebra.mul``.  Any tree of ids will do, Hall
    element or not.

    The alphabet defaults to unit-degree generators A, B, C, ... covering
    the ids appearing in the tree.  A tree of degree above D raises
    ``ValueError``.
    """
    D = _integer(D, "D")
    if alphabet is None:
        alphabet = make_alphabet([chr(ord("A") + i) for i in range(_max_leaf(e) + 1)])
    if hall_degree(e, [g.degree for g in alphabet]) > D:
        raise ValueError("element degree exceeds truncation")

    def expand(e):
        if isinstance(e, int):
            return NCSeries.from_words(alphabet, D, {(e,): Fraction(1)})
        x, y = expand(e[0]), expand(e[1])
        return mul(x, y) + mul(y, x).scale(-1)

    return expand(e)


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
    return LieSeries(basis, coords), _nan_max(residuals)


def _nan_max(values):
    """The largest of ``values``, a NaN before every number."""
    return max(values, key=lambda r: (r != r, r))


def _max_abs(values):
    """Max-norm of exact values; a polynomial counts its coefficients."""
    def magnitude(v):
        mags = getattr(v, "coefficient_magnitudes", None)
        return max(mags(), default=Fraction(0)) if mags is not None else abs(v)
    return max(map(magnitude, values), default=Fraction(0))
