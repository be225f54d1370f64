"""Deliberately naive reference implementations used as test oracles.

Everything here works on plain ``{word-tuple: Fraction}`` dicts, or
``{exponent-tuple: Fraction}`` ones for polynomials (``n_add`` serves
both), with no packing, no degree bucketing and no truncation
cleverness, so that the library's optimized arithmetic can be checked
against an independent route.  Slow on purpose; only exercised at small degree.
The exceptions are ``n_rmul_exp``, the per-degree array kernel that the
flat product kernel is checked against, value for value;
``n_flat_rmul_exp``, ``n_float_mul`` and ``n_float_exp``/``n_float_log``,
the float loops over the exponential's words and over degree blocks that
``free_algebra`` replaced by one ``np.add.at`` over a cached plan, whose
results must match theirs in ``float.hex``;
``n_series_exp``/``n_series_log``, which sum the power series on
``NCSeries`` one full power u^k at a time, where ``free_algebra`` runs
one truncated Horner sum; ``n_read_top``/``n_epsilon``, which read the
top degree one generator ordering at a time, each in its own basis,
where ``schemes.epsilon`` reads every ordering in one solve;
``n_read``, ``n_order_conditions`` and ``n_order_residuals``, the route
through a ``LieSeries`` dict that the one condition reader,
``schemes._order_conditions``, shortcuts by reading each degree's
coordinate array as it comes; ``n_evaluate``, the route through
``Fraction`` arithmetic that ``LinExpr.evaluate`` shortcuts;
``n_manifold_solve``, Newton's line search one step length at a time,
where ``optimizer._Manifold.solve`` evaluates them in batches;
``word_index``, ``n_concat_index``, ``n_gather``, ``n_expansion_matrix``,
``n_exact_solver`` and ``n_ordering_block``, the word positions and Hall
tables built from word tuples, word dicts and one basis per ordering, where
``free_algebra`` and ``hall`` build them by recurrences over word counts;
``n_hall_basis``, the Hall elements ranked and built for one ordering, where
``hall`` relabels one canonical set per tuple of generator degrees;
and six helpers only tests call: ``n_norm1_at_degree`` and
``n_to_series`` on a ``LieSeries``, ``n_expansion``, a Hall element as a
word series, ``n_residual`` and ``n_jacobian``, a ``_Manifold``'s
residual and Jacobian at one point, and ``is_groebner_basis``,
Buchberger's criterion.
"""

import functools
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import sympy

from liesplit.constraints import symbolic_log
from liesplit.free_algebra import (NCSeries, _word_position, concat_index, degree_offsets,
                                   degree_words, make_alphabet, mul)
from liesplit.hall import _sparse, build_hall_basis, hall_degree, lie_coordinates
from liesplit.optimizer import _NEWTON_STEPS, _RESIDUAL_TOL, ManifoldError
from liesplit.polynomials import GREVLEX, normal_form, s_polynomial
from liesplit.schemes import (_NON_LIE_TOL, _TIE_RTOL, ErrorReport, _basis_for, _check_lie,
                              _product_log, _require_numeric)


def n_mul(a: dict, b: dict, degrees, D: int) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            if sum(degrees[l] for l in w) > D:
                continue
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def n_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def n_scale(a: dict, s) -> dict:
    return {w: s * c for w, c in a.items() if s * c}


def n_exp(x: dict, degrees, D: int) -> dict:
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, D + 1):
        power = n_mul(power, x, degrees, D)
        out = n_add(out, n_scale(power, Fraction(1, factorial(k))))
    return out


def n_log(x: dict, degrees, D: int) -> dict:
    u = n_add(x, {(): Fraction(-1)})
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, D + 1):
        power = n_mul(power, u, degrees, D)
        out = n_add(out, n_scale(power, Fraction((-1) ** (k + 1), k)))
    return out


def _power_sum(result: NCSeries, u: NCSeries, coefficient) -> NCSeries:
    """``result`` + sum_{k<=D} coefficient(k) u^k, each power u^k formed in
    full by ``mul`` and added by the series ``+``, for a rational
    ``coefficient`` taken in u's coefficient domain."""
    in_float, power = isinstance(u.unit(), float), u
    for k in range(1, u.max_degree + 1):
        c = coefficient(k)
        result = result + (power if c == 1 else power.scale(float(c) if in_float else c))
        power = mul(power, u)
        if not power:
            break
    return result


def n_series_exp(x: NCSeries) -> NCSeries:
    """sum_{k<=D} x^k / k! by ``_power_sum``."""
    return _power_sum(NCSeries.one(x.alphabet, x.max_degree, unit=x.unit()), x,
                      lambda k: Fraction(1, factorial(k)))


def n_series_log(x: NCSeries) -> NCSeries:
    """sum_{k<=D} (-1)^(k+1) (x-1)^k / k by ``_power_sum``."""
    u = NCSeries(x.alphabet, x.max_degree, {d: x.array(d) for d in x.degrees() if d})
    return _power_sum(NCSeries.zero(x.alphabet, x.max_degree), u,
                      lambda k: Fraction((-1) ** (k + 1), k))


def _add_at(acc: np.ndarray, pos: np.ndarray, vals: np.ndarray) -> None:
    """``acc[pos] += vals`` on an object array at distinct positions, by
    assignment where ``acc`` holds a zero."""
    live = acc[pos].astype(bool)
    acc[pos[~live]] = vals[~live]
    acc[pos[live]] += vals[live]


def n_rmul_exp(arrays: dict, degrees, exponent) -> None:
    """In place: ``arrays`` <- ``arrays`` * exp(sum_g c_g * G_g), for one
    array over ``degree_words`` at every degree from 0 up to the
    truncation, all float64 or all object: one update per (source degree,
    word of the exponential), source degrees high to low, so every target
    accumulates from original values in ascending power.  The per-degree
    kernel that the flat ``free_algebra.rmul_exp`` replaced."""
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
                arrays[d + dw][concat_index(degrees, d, dw)[:, col]] += cw * arrays[d]


def n_flat_rmul_exp(flat: np.ndarray, degrees, max_degree: int, exponent) -> None:
    """In place on a float64 ``flat`` array (``degree_offsets`` layout):
    ``flat`` <- ``flat`` * exp(sum_g c_g * G_g), one update per word of the
    exponential over every source degree at once, in word-list order.  The
    float loop that ``free_algebra.rmul_exp`` replaced by one
    ``np.add.at``."""
    offsets = degree_offsets(degrees, max_degree)
    words = [((), 0, 1.0)]
    for u, du, cu in words:
        for g, c in exponent:
            dw, w = du + degrees[g], u + (g,)
            if dw <= max_degree:
                words.append((w, dw, cu * (float(c) / len(w))))
    src = flat[:offsets[max_degree]].copy()
    for w, dw, cw in words[1:]:
        col = _word_position(degrees, w)
        index = np.concatenate([offsets[d + dw] + concat_index(degrees, d, dw)[:, col]
                                for d in range(max_degree - dw + 1)])
        flat[index] += cw * src[:len(index)]


def _block_products(acc: dict, a: dict, b: dict, degrees, top: int) -> None:
    """``acc`` += a b, per-degree float arrays, one (d1, d2) block at a time
    in ascending d1 then d2, a degree of ``acc`` first made as zeros."""
    for d1, x in a.items():
        for d2, y in b.items():
            if d1 + d2 > top:
                break
            if d1 + d2 not in acc:
                acc[d1 + d2] = np.zeros(len(degree_words(degrees, d1 + d2)))
            acc[d1 + d2][concat_index(degrees, d1, d2).ravel()] += np.multiply.outer(x, y).ravel()


def _arrays(x: NCSeries) -> dict:
    """x's nonzero degrees, each with its coefficient array."""
    return {d: x.array(d) for d in x.degrees()}


def n_float_mul(x: NCSeries, y: NCSeries) -> NCSeries:
    """The float product block by block: the loop that ``free_algebra.mul``
    replaced by one ``np.add.at``."""
    out = {}
    _block_products(out, _arrays(x), _arrays(y), x._degrees, x.max_degree)
    return NCSeries(x.alphabet, x.max_degree, out)


def _float_horner(x: NCSeries, u: dict, c0, coefficient) -> NCSeries:
    """``free_algebra._horner`` on float arrays block by block: the loop
    that its flat kernel replaced by one ``np.add.at`` per step."""
    terms = dict(sorted(u.items()))
    if not terms:
        return NCSeries(x.alphabet, x.max_degree, {0: np.array([c0])} if c0 else {})
    low, D = min(terms), x.max_degree
    cs = [c0] + [float(coefficient(k)) for k in range(1, D // low + 1)]
    h = {}  # h_{k+1} less its constant cs[k + 1]
    for k in range(len(cs) - 2, -1, -1):
        top = D - k * low
        new = {d1: cs[k + 1] * a for d1, a in terms.items() if d1 <= top}
        _block_products(new, terms, h, x._degrees, top)
        h = dict(sorted(new.items()))
    if c0:
        h[0] = np.array([c0])
    return NCSeries(x.alphabet, x.max_degree, h)


def n_float_exp(x: NCSeries) -> NCSeries:
    return _float_horner(x, _arrays(x), 1.0, lambda k: Fraction(1, factorial(k)))


def n_float_log(x: NCSeries) -> NCSeries:
    return _float_horner(x, {d: a for d, a in _arrays(x).items() if d}, 0,
                         lambda k: Fraction((-1) ** (k + 1), k))


@functools.lru_cache(maxsize=None)
def word_index(degrees: tuple[int, ...], d: int) -> dict[tuple[int, ...], int]:
    """Position of each word of ``degree_words(degrees, d)``, by a dict over
    the word tuples, where ``free_algebra._word_position`` reads word counts."""
    return {w: i for i, w in enumerate(degree_words(degrees, d))}


def n_concat_index(degrees, d1: int, d2: int) -> np.ndarray:
    """``free_algebra.concat_index`` by looking every concatenated word up
    in ``word_index``."""
    index = word_index(degrees, d1 + d2)
    left, right = degree_words(degrees, d1), degree_words(degrees, d2)
    return np.array([index[a + b] for a in left for b in right],
                    dtype=np.intp).reshape(len(left), len(right))


def n_gather(degrees, ordering, d: int) -> np.ndarray:
    """``hall._gather`` by renaming every canonical word's letters and
    looking the result up in ``word_index``."""
    index = word_index(degrees, d)
    canonical = degree_words(tuple(degrees[g] for g in ordering), d)
    return np.array([index[tuple(ordering[l] for l in w)] for w in canonical], dtype=np.intp)


def n_expand_words(e) -> dict:
    """A commutator tree of letter ids as a word dict, [x, y] -> xy - yx,
    each bracket's words in the order its pairs of words give them."""
    if isinstance(e, int):
        return {(e,): Fraction(1)}
    left, right = n_expand_words(e[0]), n_expand_words(e[1])
    result = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            result[w1 + w2] = result.get(w1 + w2, 0) + c
            result[w2 + w1] = result.get(w2 + w1, 0) - c
    return {w: c for w, c in result.items() if c}


def n_expansion_matrix(degrees, d: int):
    """(M, blocks) of ``hall._expansion_matrix``, M dense: every element of
    the identity basis expanded into a word dict (``n_expand_words``), its
    words placed by ``word_index``, and the blocks grouped by the sorted
    letters of each word and of each element's first expansion word, in
    order of the first element of each content."""
    alphabet = make_alphabet([f"X{g}" for g in range(len(degrees))], degrees)
    basis = build_hall_basis(alphabet, d)
    words, index = degree_words(degrees, d), word_index(degrees, d)
    elements = basis.elements(d)
    m = np.zeros((len(words), len(elements)))
    columns = {}
    for j, e in enumerate(elements):
        expansion = n_expand_words(e)
        for w, c in expansion.items():
            m[index[w], j] = c
        columns.setdefault(tuple(sorted(next(iter(expansion)))), []).append(j)
    rows = {}
    for i, w in enumerate(words):
        rows.setdefault(tuple(sorted(w)), []).append(i)
    return m, [(np.array(rows[key]), np.array(cols)) for key, cols in columns.items()]


def n_exact_solver(degrees, d: int):
    """``hall._exact_solver`` from the dense M of ``n_expansion_matrix``:
    each block's pivot rows, its first independent ones, as the pivot
    columns of the block's transpose in sympy's reduced row echelon form,
    inverted by ``n_inverse``, and M on the other rows read off M's dense
    rows."""
    m, blocks = n_expansion_matrix(degrees, d)
    pivot_rows, inv = [], [None] * m.shape[1]
    for rows, cols in blocks:
        block = m[np.ix_(rows, cols)].astype(int)
        block_pivots = rows[list(sympy.Matrix(block).T.rref()[1])]
        block_inv = n_inverse([[Fraction(int(x)) for x in m[i, cols]] for i in block_pivots])
        for j, (at, vals) in zip(cols, _sparse(block_inv)):
            inv[j] = (at + len(pivot_rows), vals)
        pivot_rows.extend(block_pivots.tolist())
    pivots = np.array(pivot_rows, dtype=np.intp)
    others = np.setdiff1d(np.arange(len(m)), pivots)
    return pivots, inv, others, _sparse(m[others])


def n_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The inverse of a square ``Fraction`` matrix by Gauss-Jordan
    elimination on [m | I], each column's first nonzero entry its pivot."""
    n = len(m)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    for j in range(n):
        piv = next(i for i in range(j, n) if aug[i][j])
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = Fraction(1) / aug[j][j]
        aug[j] = [x * inv for x in aug[j]]
        for i in range(n):
            if i != j and aug[i][j]:
                f = aug[i][j]
                aug[i] = [a - f * b if b else a for a, b in zip(aug[i], aug[j])]
    return [row[n:] for row in aug]


def n_hall_basis(degrees, D: int, ordering) -> dict:
    """``HallBasis.by_degree`` for the generators of ``degrees`` ranked by
    ``ordering``, built for that ordering alone: generator g ranks
    (0, its place in ``ordering``), a bracket (1, degree, index among the
    brackets of its level), and each level's brackets are the Hall pairs
    of lower elements sorted by their factors' ranks.  ``hall`` builds one
    identity-ordered set per tuple of degrees and relabels it."""
    rank = {g: (0, pos) for pos, g in enumerate(ordering)}
    by_degree = {}
    for d in range(1, D + 1):
        level = sorted((g for g in range(len(degrees)) if degrees[g] == d), key=rank.__getitem__)
        brackets = []
        for d1 in range(1, d):
            for x in by_degree[d1]:
                for y in by_degree[d - d1]:
                    if rank[x] < rank[y] and (isinstance(y, int) or rank[y[0]] <= rank[x]):
                        brackets.append((x, y))
        brackets.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
        for i, e in enumerate(brackets):
            rank[e] = (1, d, i)
        by_degree[d] = tuple(level + brackets)
    return by_degree


def n_ordering_block(degrees, d: int):
    """``hall.ordering_block`` from one Hall basis per generator ordering
    (``n_hall_basis``)."""
    orderings = tuple(permutations(range(len(degrees))))
    elements = tuple(n_hall_basis(degrees, d, o)[d] for o in orderings)
    return orderings, elements, np.stack([n_gather(degrees, o, d) for o in orderings])


def n_commutator(a: dict, b: dict, degrees, D: int) -> dict:
    return n_add(n_mul(a, b, degrees, D), n_scale(n_mul(b, a, degrees, D), Fraction(-1)))


class HallOrder:
    """The Hall-set total order, compared recursively: generators first
    (by permutation), then brackets by (degree, structural lexicographic)."""

    def __init__(self, degrees, ordering):
        self.degrees = degrees
        self.pos = {g: i for i, g in enumerate(ordering)}

    def less(self, x, y) -> bool:
        x_leaf, y_leaf = isinstance(x, int), isinstance(y, int)
        if x_leaf and y_leaf:
            return self.pos[x] < self.pos[y]
        if x_leaf != y_leaf:
            return x_leaf
        dx, dy = hall_degree(x, self.degrees), hall_degree(y, self.degrees)
        if dx != dy:
            return dx < dy
        if x[0] != y[0]:
            return self.less(x[0], y[0])
        return self.less(x[1], y[1])


def condition_residual(scheme, p: int):
    """The order conditions of degree > 1 as a function of a free-slot
    assignment: the closures resolved numerically, then every condition
    polynomial evaluated term by term."""
    cs = symbolic_log(scheme, p)
    polys = [poly for d, poly in zip(cs.degrees, cs.polys) if d > 1]

    def residual(params) -> np.ndarray:
        values = scheme.resolve_slots(params)
        return np.array([float(poly.evaluate(values)) for poly in polys])
    return residual


def central_difference_jacobian(f, x, h: float = 1e-3) -> np.ndarray:
    """Jacobian of ``f`` at ``x`` by central differences at steps h and
    h/2, combined by one Richardson step (error O(h**4)), one column per
    coordinate."""
    x = np.asarray(x, float)

    def central(i, step):
        e = np.zeros(len(x))
        e[i] = step
        return (f(x + e) - f(x - e)) / (2.0 * step)

    cols = [(4.0 * central(i, h / 2) - central(i, h)) / 3.0 for i in range(len(x))]
    return np.array(cols).T.reshape(len(f(x)), len(x))


def n_residual(man, dep_values, free_values) -> np.ndarray:
    """The compiled order conditions of ``optimizer._Manifold`` at one point."""
    return man.conditions(man.point(free_values, dep_values)[None])[0]


def n_jacobian(man, dep_values, free_values) -> np.ndarray:
    """The Jacobian of ``optimizer._Manifold`` in the dependent slots at one
    point, from that point's own power table."""
    return man._derivatives(man.conditions.table(man.point(free_values, dep_values)[None])[0])


def p_mul(a: dict, b: dict) -> dict:
    """Product of two ``{exponent-tuple: Fraction}`` polynomials, exponents
    added as tuples, with no bound on their size."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def is_groebner_basis(basis, order=GREVLEX) -> bool:
    """Whether every S-polynomial of two elements of ``basis`` reduces to
    zero on it (Buchberger's criterion), one ``normal_form`` each."""
    return not any(normal_form(s_polynomial(f, g, order), basis, order)
                   for i, f in enumerate(basis) for g in basis[i + 1:])


def _at_degrees(series, degrees):
    """``series`` with only its parts of the given degrees."""
    present = series.degrees()
    return NCSeries(series.alphabet, series.max_degree,
                    {d: series.array(d) for d in degrees if d in present})


def n_read_top(scheme, series, D: int) -> dict:
    """``series``' degree-D Hall coordinates in every generator ordering,
    each read by its own ``lie_coordinates`` call in its own basis:
    ``(element, coefficient)`` pairs in basis order, zeros included."""
    zero = 0.0 if isinstance(series.unit(), float) else Fraction(0)
    top = _at_degrees(series, (D,))
    out = {}
    for ordering in permutations(scheme.letters):
        basis = _basis_for(scheme, series, ordering)
        cd = n_read(top, basis).coords_at_degree(D)
        out[ordering] = tuple((e, cd.get(e, zero)) for e in basis.elements(D))
    return out


def n_read(series, basis):
    """``series``' Hall coordinates in ``basis`` as a ``LieSeries``, by
    ``lie_coordinates``; raises as ``schemes._check_lie`` does."""
    lie, residual = lie_coordinates(series, basis)
    _check_lie(residual, series)
    return lie


def n_order_conditions(series, basis, p: int) -> dict:
    """``schemes._order_conditions`` by way of a ``LieSeries``: the
    coordinates of degrees 1..p as one dict (``n_read``), each degree's
    conditions looked up in it element by element, an absent one the
    domain's zero."""
    lie, zero = n_read(_at_degrees(series, range(1, p + 1)), basis), series.unit() * 0
    out = {}
    for d in range(1, p + 1):
        coords = lie.coords_at_degree(d)
        out[d] = [coords.get(e, zero) - 1 if d == 1 else coords.get(e, zero)
                  for e in basis.elements(d)]
    return out


def n_order_residuals(series, basis, p: int) -> dict:
    """``schemes._order_residuals`` from ``n_order_conditions``."""
    return {d: max(map(abs, conditions), key=lambda r: (r != r, r))
            for d, conditions in n_order_conditions(series, basis, p).items()}


def n_norm1_at_degree(lie, d: int):
    """The 1-norm of a ``LieSeries``' degree-``d`` coordinates."""
    return sum(abs(c) for c in lie.coords_at_degree(d).values())


def n_expansion(basis, e) -> NCSeries:
    """The Hall element ``e`` of ``basis`` as a word series."""
    return NCSeries.from_words(basis.alphabet, basis.max_degree, n_expand_words(e))


def n_to_series(lie) -> NCSeries:
    """A ``LieSeries`` expanded back into the word algebra, one Hall
    element's expansion at a time."""
    basis = lie.basis
    out = NCSeries.zero(basis.alphabet, basis.max_degree)
    for e, c in lie.coords.items():
        out = out + n_expansion(basis, e).scale(c)
    return out


def n_evaluate(expr, values):
    """``LinExpr.evaluate`` in the expression's own ``Fraction`` arithmetic,
    float slot values through ``Fraction``'s float fallback."""
    out = expr.const
    for s, c in expr.coeffs:
        out = out + c * values[s]
    return out


def n_epsilon(scheme, params, p: int, tolerance: float = 1e-10) -> ErrorReport:
    """``schemes.epsilon`` with the top degree read by ``n_read_top`` and
    the order residuals by ``n_order_residuals``."""
    _require_numeric(params, "epsilon")
    D = p + 1
    series = _product_log(scheme, params, D)
    residuals = n_order_residuals(series, _basis_for(scheme, series, None), p)
    coeffs = n_read_top(scheme, series, D)
    worst = max((float(abs(v)) for v in residuals.values()), key=lambda r: (r != r, r))
    if not worst <= tolerance:
        raise ValueError(f"scheme does not reach order {p}: max residual {worst:.3e}")
    exact = not isinstance(series.unit(), float)
    sums = {}
    for ordering, pairs in coeffs.items():
        total = sum(abs(c) for _, c in pairs if c)
        sums[ordering] = total if exact else float(total)
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


def n_manifold_solve(man, free_values, guess) -> np.ndarray:
    """``optimizer._Manifold.solve`` with the sequential line search: every
    residual and Jacobian from ``x ** exps`` at one point, the step by
    ``np.linalg.solve``, the step lengths t = 1, 1/2, ..., 2**-29 tried one
    at a time; the first that lowers the max residual is taken, for at
    most ``optimizer._NEWTON_STEPS`` steps."""
    exps, coeffs, dep_at = man.conditions.exps, man.conditions.coeffs, man._dep_at
    unit = np.eye(len(man.slots), dtype=int)[dep_at]
    dexps = exps[:, dep_at].T
    lowered = (exps[None] - unit[:, None, :]).clip(min=0)

    def residual(dep):
        return coeffs @ np.prod(man.point(free_values, dep) ** exps, axis=1)

    def jacobian(dep):
        return coeffs @ (dexps * np.prod(man.point(free_values, dep) ** lowered, axis=2)).T

    if not man.dependent:
        return np.zeros(0)
    x = np.asarray(guess, float).copy()
    if x.shape != (len(man.dependent),):
        raise ValueError(f"guess must assign {len(man.dependent)} dependent slot(s)")
    r = residual(x)
    rn = float(np.max(np.abs(r)))
    if not np.isfinite(rn):
        raise ManifoldError("non-finite residual at the initial guess")
    for _ in range(_NEWTON_STEPS):
        if rn <= 1e-15:
            break
        jac = jacobian(x)
        if not np.all(np.isfinite(jac)):
            raise ManifoldError("non-finite Jacobian")
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise ManifoldError("singular Jacobian") from exc
        if not np.all(np.isfinite(step)):
            raise ManifoldError("non-finite Newton step")
        t, improved = 1.0, False
        for _ in range(30):
            xt = x - t * step
            rt = residual(xt)
            nt = float(np.max(np.abs(rt)))
            if np.isfinite(nt) and nt < rn:
                x, r, rn, improved = xt, rt, nt, True
                break
            t *= 0.5
        if not improved:
            break
    if rn > _RESIDUAL_TOL:
        raise ManifoldError(f"no convergence: residual {rn:.3e}")
    terms = np.prod(np.abs(man.point(free_values, x)) ** exps, axis=1)
    scale = float(np.max(np.abs(coeffs) @ terms))
    if np.finfo(float).eps * scale > _NON_LIE_TOL:
        raise ManifoldError(f"spurious root: terms of size {scale:.3e} cancel in rounding")
    return x
