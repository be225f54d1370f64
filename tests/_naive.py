"""Deliberately naive reference implementations used as test oracles.

Everything here works on plain ``{word-tuple: Fraction}`` dicts, or
``{exponent-tuple: Fraction}`` ones for polynomials (``n_add`` serves
both), with no packing, no degree bucketing and no truncation
cleverness, so that the library's optimized arithmetic can be checked
against an independent route.  Slow on purpose; only exercised at small degree.
The exceptions are ``n_rmul_exp``, the per-degree array kernel that the
flat product kernel is checked against, value for value;
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
where ``optimizer._Manifold.solve`` evaluates them in batches; and three
helpers only tests call: ``n_norm1_at_degree`` and ``n_to_series`` on a
``LieSeries``, and ``n_jacobian``, a ``_Manifold``'s Jacobian at one
point.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np

from liesplit.constraints import symbolic_log
from liesplit.free_algebra import NCSeries, _add_at, concat_index, mul, word_index
from liesplit.hall import hall_degree, lie_coordinates
from liesplit.optimizer import _RESIDUAL_TOL, ManifoldError
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


def n_jacobian(man, dep_values, free_values) -> np.ndarray:
    """The Jacobian of ``optimizer._Manifold`` in the dependent slots at one
    point, from that point's own power table."""
    return man._derivatives(man._table(man.point(free_values, dep_values)[None])[0])


def p_mul(a: dict, b: dict) -> dict:
    """Product of two ``{exponent-tuple: Fraction}`` polynomials, exponents
    added as tuples, with no bound on their size."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


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
        basis = _basis_for(scheme, D, ordering)
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


def n_to_series(lie) -> NCSeries:
    """A ``LieSeries`` expanded back into the word algebra, one Hall
    element's expansion at a time."""
    basis = lie.basis
    out = NCSeries.zero(basis.alphabet, basis.max_degree)
    for e, c in lie.coords.items():
        out = out + basis.expansion(e).scale(c)
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
    residuals = n_order_residuals(series, _basis_for(scheme, D, None), p)
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


def n_manifold_solve(man, free_values, guess, maxiter: int = 60) -> np.ndarray:
    """``optimizer._Manifold.solve`` with the sequential line search: every
    residual and Jacobian from ``x ** exps`` at one point, the step by
    ``np.linalg.solve``, the step lengths t = 1, 1/2, ..., 2**-29 tried one
    at a time; the first that lowers the max residual is taken."""
    exps, coeffs, dep_at = man._exps, man._coeffs, man._dep_at
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
    for _ in range(maxiter):
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
