"""Numerical order-condition solving and error-measure minimization.

The search landscape splits into two parts with very different character.
The order conditions are smooth polynomials and, once the free slots are
pinned, form a square system in the remaining slots -- damped Newton with
the exact Jacobian of their compiled form reaches residuals near machine
precision in a few steps.  The error measure on top of them is only
piecewise smooth: it is a 1-norm of degree-(p+1) coefficients minimized
over generator orderings, and its minima tend to sit exactly on kinks where
a leading coefficient changes sign.  Gradient descent is useless there, so
the outer loop is seeded low-discrepancy multi-start plus Nelder-Mead,
re-solving the constraints at every probe.

Newton's line search tries the full step, then the halvings t = 2**-1 ...
2**-29 in three chunks of 4, 8 and 17 step lengths, each chunk evaluated
in one batched residual call; it takes the largest t whose max residual
is below the current one, which is the rule of trying them one at a time,
and gives bit-identical roots.  Residual and Jacobian are read off one
table of slot powers, and the step is one LAPACK ``dgesv``.  Along a
sweep and within a Nelder-Mead polish, each solve starts from a secant
predictor: the sheet's last root moved along the chord through its last
two roots (see ``_predicted``).

Both the conditions and, when the chart has a free direction, the error
measure are compiled once per (scheme, p) into polynomials in the free
slots.  The error rows are the degree-(p+1) Hall coordinates of every
generator ordering, read off one symbolic product-log; evaluating them
costs 8-19 microseconds where an ``epsilon`` call takes 0.25-0.5 ms (S m9
p4, SL m15 and SL m19 at p = 6, warm, one BLAS thread, 2-vCPU VM).  They
carry none of ``epsilon``'s checks, so a
point seeds a polish only once ``epsilon`` accepts it, and every reported
minimum is re-measured by ``epsilon``.  Compiling costs 0.007 s for S m9
p4 but 0.15 s for SL m15 and 0.4 s for SL m19 at p = 6, and 9-10 s for
n = 3 SL m37 at p = 6 (fresh interpreter, one BLAS thread, 2-vCPU VM).

A root search (no free direction) compiles nothing and starts nothing:
it polishes the real solutions the memoized ``analyze_freedom`` reads
and counts on a separating form, checks their number against that count
and measures each with ``epsilon``; ``starts``, ``seed`` and ``bounds``
have no effect there.  Conditions with no solution or infinitely many
give ``ManifoldError``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize as sciopt
from scipy.linalg import lapack
from scipy.stats import qmc

from .constraints import ConstraintSystem, analyze_freedom, symbolic_log
from .schemes import (_NON_LIE_TOL, ErrorReport, ParamAssignment, Scheme, _product_log,
                      _read_top, epsilon, ordering_str, symbolic_slot_values)

__all__ = [
    "ManifoldError",
    "OptimizationProblem",
    "OptimizationResult",
    "minimize_epsilon",
    "solve_on_manifold",
]

_RESIDUAL_TOL = 1e-12
_DEDUP_TOL = 1e-5
# the step fractions of Newton's line search: the full step, then the
# halvings 2**-1 ... 2**-29 in geometric chunks, each evaluated at once
_HALVINGS = (np.ones(1), *np.split(np.ldexp(1.0, -np.arange(1, 30)), [4, 12]))


class ManifoldError(RuntimeError):
    """No point of the constraint manifold could be reached or verified."""


def _compile(rows, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """Polynomials in ``nvars`` variables as ``(E, C)``: exponents
    (monomials x variables) and float coefficients (rows x monomials), so
    the rows at ``x`` are ``C @ prod(x ** E)``.  A row free of every
    variable may be a plain number."""
    rows = [getattr(q, "terms", {(0,) * nvars: q}) for q in rows]
    monomials = sorted({e for terms in rows for e in terms})
    column = {e: k for k, e in enumerate(monomials)}
    coeffs = np.zeros((len(rows), len(monomials)))
    for i, terms in enumerate(rows):
        for e, c in terms.items():
            coeffs[i, column[e]] = float(c)
    exps = np.array(monomials, dtype=int).reshape(len(monomials), nvars)
    # every caller shares the cached arrays
    exps.setflags(write=False)
    coeffs.setflags(write=False)
    return exps, coeffs


@functools.lru_cache(maxsize=None)
def _conditions(scheme: Scheme, p: int) -> tuple[ConstraintSystem, np.ndarray, np.ndarray]:
    """The order conditions left by the template closures, compiled once.

    Returns ``symbolic_log``'s system, in every raw slot, and the
    conditions with the closures substituted, polynomials in
    ``scheme.free_slots`` compiled by ``_compile``.
    """
    cs = symbolic_log(scheme, p)
    values = symbolic_slot_values(scheme)
    return cs, *_compile([poly.evaluate(values) for d, poly in zip(cs.degrees, cs.polys) if d > 1],
                         len(scheme.free_slots))


class _ErrorRows:
    """The degree-(p+1) Hall coordinates of every generator ordering as
    polynomials in ``scheme.free_slots``, compiled once per (scheme, p).

    ``sums(x)`` gives each ordering's coefficient 1-norm at a point
    ordered like ``scheme.free_slots`` and ``value(x)`` the error measure,
    the prefactor times the least sum.  Unlike ``epsilon`` nothing checks
    the point: neither the order conditions nor the non-Lie residual.
    """

    def __init__(self, scheme: Scheme, p: int):
        D = p + 1
        orderings, _, columns = _read_top(scheme, _product_log(scheme, None, D), D)
        self.orderings = tuple(orderings)
        self.prefactor = (scheme.m / p) ** p
        self.exps, self.coeffs = _compile([c for col in columns for c in col],
                                          len(scheme.free_slots))

    def sums(self, x) -> np.ndarray:
        rows = self.coeffs @ np.prod(np.asarray(x, float) ** self.exps, axis=1)
        return np.abs(rows).reshape(len(self.orderings), -1).sum(axis=1)

    def value(self, x) -> float:
        return self.prefactor * float(np.min(self.sums(x)))


@functools.lru_cache(maxsize=None)
def _error_rows(scheme: Scheme, p: int) -> _ErrorRows:
    return _ErrorRows(scheme, p)


class _Manifold:
    """Square Newton system for the dependent slots at pinned free slots,
    on points ordered like ``scheme.free_slots``.

    Every residual and Jacobian is read off one table of slot powers
    x_j ** k (k up to the largest exponent): a gather and a product give
    the monomials, and one ``coeffs @ monomials`` per point the rows.
    ``counts`` tallies the solves, their failures by reason, the
    Jacobians, the residual points and the kernel calls that evaluated
    them.
    """

    def __init__(self, scheme: Scheme, p: int, free: Sequence[str]):
        free = tuple(free)
        slots = scheme.free_slots
        unknown = [s for s in free if s not in slots]
        if unknown:
            raise ValueError(f"not free slots of this scheme: {unknown}")
        if len(set(free)) != len(free):
            raise ValueError("duplicate free slots")
        self.scheme = scheme
        self.slots = slots
        self.free = free
        self.dependent = tuple(s for s in slots if s not in free)
        self._free_at = [slots.index(s) for s in free]
        self._dep_at = [slots.index(s) for s in self.dependent]
        self.system, self._exps, self._coeffs = _conditions(scheme, p)
        if len(self._coeffs) != len(self.dependent):
            raise ManifoldError(
                f"{len(self.dependent)} dependent slot(s) against "
                f"{len(self._coeffs)} active condition(s); choose "
                f"{len(slots) - len(self._coeffs)} free slot(s)")
        self._abs_coeffs = np.abs(self._coeffs)
        self._powers = np.arange(self._exps.max(initial=0) + 1)
        # a monomial's factors x_j ** e_j as positions in a flat power table
        offsets = np.arange(len(slots)) * len(self._powers)
        self._at = offsets + self._exps
        # d/dx_j of x**e is e_j * x**(e lowered by one in slot j); clipping
        # at zero keeps 0**-1 out where e_j = 0 multiplies the term away
        unit = np.eye(len(slots), dtype=int)[self._dep_at]
        self._dexps = self._exps[:, self._dep_at].T
        self._lowered_at = offsets + (self._exps[None] - unit[:, None, :]).clip(min=0)
        self.counts = {"solves": 0, "failed": 0, "failures": {}, "jacobians": 0,
                       "residual_points": 0, "residual_calls": 0}

    def point(self, free_values, dep_values) -> np.ndarray:
        x = np.empty(len(self.slots))
        x[self._free_at] = free_values
        x[self._dep_at] = dep_values
        return x

    def params(self, free_values, dep_values) -> dict[str, float]:
        return dict(zip(self.slots, self.point(free_values, dep_values).tolist()))

    def _table(self, points) -> np.ndarray:
        """Slot powers x_j ** k of each point: (points, slots, k)."""
        return points[:, :, None] ** self._powers

    def _rows(self, table, coeffs=None) -> np.ndarray:
        """The compiled rows at each point of ``table``: (points, rows)."""
        # ``take`` keeps the monomials C-ordered: a strided vector would
        # reach BLAS by another kernel and round differently
        monomials = table.reshape(len(table), -1).take(self._at, axis=1).prod(axis=2)
        # a stacked product runs one gemv per point, as ``coeffs @ m`` does;
        # one gemm over the batch would round differently
        return ((self._coeffs if coeffs is None else coeffs) @ monomials[:, :, None])[:, :, 0]

    def _derivatives(self, table) -> np.ndarray:
        """The Jacobian in the dependent slots from one point's table."""
        self.counts["jacobians"] += 1
        lowered = table.ravel().take(self._lowered_at).prod(axis=2)
        return self._coeffs @ (self._dexps * lowered).T

    def residual(self, dep_values, free_values) -> np.ndarray:
        return self._rows(self._table(self.point(free_values, dep_values)[None]))[0]

    def _residuals(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tables, rows, max norms) at each of ``points``, counted."""
        self.counts["residual_points"] += len(points)
        self.counts["residual_calls"] += 1
        tables = self._table(points)
        rows = self._rows(tables)
        return tables, rows, np.abs(rows).max(axis=1)

    def _failure(self, message: str) -> ManifoldError:
        reason = message.split(":")[0]
        failures = self.counts["failures"]
        self.counts["failed"] += 1
        failures[reason] = failures.get(reason, 0) + 1
        return ManifoldError(message)

    def solve(self, free_values, guess, maxiter: int = 60) -> np.ndarray:
        """Damped Newton from ``guess``.  A step is tried in full, then at
        t = 2**-1 ... 2**-29 in the chunks of ``_HALVINGS``; the largest t
        whose max residual is finite and below the current one is taken.
        It stops at a max residual of 1e-15 or when no t improves, and
        accepts at most ``_RESIDUAL_TOL``."""
        if not self.dependent:
            self.counts["solves"] += 1
            return np.zeros(0)
        x = np.array(guess, float)
        if x.shape != (len(self.dependent),):
            raise ValueError(f"guess must assign {len(self.dependent)} "
                             f"dependent slot(s)")
        self.counts["solves"] += 1
        # the current point in every slot; a step moves only the dependent ones
        point, step = self.point(free_values, x), np.zeros(len(self.slots))
        # a non-finite residual or Jacobian is a named failure, and a
        # non-finite trial point a rejected one: no floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            tables, rows, norms = self._residuals(point[None])
            table, r, rn = tables[0], rows[0], norms[0]
            if not np.isfinite(rn):
                raise self._failure("non-finite residual at the initial guess")
            for _ in range(maxiter):
                if rn <= 1e-15:
                    break
                jac = self._derivatives(table)
                if not np.isfinite(jac).all():
                    raise self._failure("non-finite Jacobian")
                _, _, step[self._dep_at], info = lapack.dgesv(jac, r)
                if info:
                    raise self._failure("singular Jacobian")
                if not np.isfinite(step).all():
                    raise self._failure("non-finite Newton step")
                for ts in _HALVINGS:
                    points = point - ts[:, None] * step
                    tables, rows, norms = self._residuals(points)
                    # NaN compares false: a non-finite trial never improves
                    better = norms < rn
                    k = better.argmax()
                    if better[k]:
                        point, table, r, rn = points[k], tables[k], rows[k], norms[k]
                        break
                else:  # no step length improves
                    break
        if rn > _RESIDUAL_TOL:
            raise self._failure(f"no convergence: residual {rn:.3e}")
        scale = float(self._rows(self._table(np.abs(point)[None]), self._abs_coeffs).max())
        # where machine epsilon times the largest term exceeds ``epsilon``'s
        # non-Lie threshold, a zero residual is cancellation in rounding
        if np.finfo(float).eps * scale > _NON_LIE_TOL:
            raise self._failure(f"spurious root: terms of size {scale:.3e} cancel in rounding")
        return point[self._dep_at]


def _guess_ladder(k: int) -> list[np.ndarray]:
    """The starting points ``solve_on_manifold`` tries for ``k`` dependent
    slots when the caller passes no guess, in order."""
    ladder = [np.full(k, fill) for fill in (0.5, 0.2, -0.3, 1.0, -0.8)]
    halton = qmc.Halton(d=max(k, 1), scramble=True, seed=11).random(8) * 2.0 - 1.0
    return ladder + [row[:k] for row in halton]


def solve_on_manifold(scheme: Scheme, p: int,
                      free_values: Mapping[str, object],
                      guess: Mapping[str, float] | Sequence[float] | None = None,
                      ) -> ParamAssignment:
    """Solve the order-p conditions for the slots not pinned by the caller.

    ``free_values`` fixes a subset of the scheme's free slots; the rest are
    found by damped Newton on the active condition polynomials, starting
    from ``guess``, so Newton lands on the root nearest the guess.  With
    no guess a small deterministic ladder of starting points is tried.
    With everything pinned (or every condition baked into the template
    closures) this returns in zero iterations.

    Each Newton step is tried in full, then at t = 2**-1 ... 2**-29; the
    largest t that lowers the max residual is taken, and Newton stops
    when none does or the residual reaches 1e-15.  A root is accepted at
    a max residual of at most 1e-12, unless its terms are so large that
    machine epsilon times them exceeds the non-Lie threshold of
    ``epsilon``.  No predictor is used: the guess is where Newton starts.
    """
    man = _Manifold(scheme, p, tuple(free_values))
    free_vec = [float(v) for v in free_values.values()]
    if guess is None:
        dep = None
        for cand in _guess_ladder(len(man.dependent)):
            try:
                dep = man.solve(free_vec, cand)
                break
            except ManifoldError:
                continue
        if dep is None:
            raise ManifoldError("no Newton start converged; pass a guess")
    else:
        if isinstance(guess, Mapping):
            g = np.array([float(guess[s]) for s in man.dependent])
        else:
            g = np.asarray(guess, float)
        dep = man.solve(free_vec, g)
    values = dict(free_values)
    values.update({s: float(v) for s, v in zip(man.dependent, dep)})
    ordered = {s: values[s] for s in scheme.free_slots}
    return ParamAssignment(ordered, provenance="manifold-newton")


@dataclass(frozen=True)
class OptimizationProblem:
    """Multi-start minimization setup for one (scheme, order) pair.

    ``free_slots`` selects the chart on the constraint manifold (default:
    the last declared slots, as many as the conditions leave free);
    ``starts`` is a count for the seeded low-discrepancy sampler or an
    explicit list of free-parameter vectors.
    """

    scheme: Scheme
    p: int
    free_slots: tuple[str, ...] | None = None
    starts: object = None
    bounds: tuple[float, float] = (-1.5, 1.5)
    seed: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    problem: OptimizationProblem
    best: tuple[ParamAssignment, ErrorReport]
    local_minima: tuple[tuple[ParamAssignment, ErrorReport], ...]
    diagnostics: tuple[dict, ...]
    wall_time: float

    def to_json(self) -> str:
        scheme = self.problem.scheme
        doc = {
            "scheme": {"n": scheme.n, "family": scheme.family, "m": scheme.m},
            "order": self.problem.p,
            "free_slots": list(_problem_free(self.problem)),
            "seed": self.problem.seed,
            "bounds": list(self.problem.bounds),
            "starts": sum("start" in d for d in self.diagnostics),
            "wall_time": self.wall_time,
            "minima": [
                {
                    "params": {k: float(v) for k, v in pa.values.items()},
                    "epsilon": float(rep.epsilon),
                    "ordering": ordering_str(rep.ordering_best),
                    "prefactor": float(rep.prefactor),
                    "sums_per_ordering": {
                        ordering_str(o): float(s)
                        for o, s in rep.sums_per_ordering.items()},
                }
                for pa, rep in self.local_minima
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _problem_free(problem: OptimizationProblem) -> tuple[str, ...]:
    if problem.free_slots is not None:
        return tuple(problem.free_slots)
    scheme = problem.scheme
    nfree = len(scheme.free_slots) - len(_conditions(scheme, problem.p)[2])
    if nfree < 0:
        raise ManifoldError("more conditions than slots; no chart exists")
    return scheme.free_slots[len(scheme.free_slots) - nfree:]


_RAW_GUESSES = 6


def _start_points(problem: OptimizationProblem, f: int, dep: int):
    """(free point, raw dependent guesses) pairs, sorted for the sweep.

    Each start carries several low-discrepancy guesses for the dependent
    slots: the Newton basins of the narrower solution sheets are small,
    and a single guess per start misses them for the entire run.
    """
    lo, hi = problem.bounds
    starts = problem.starts
    raws = max(1, _RAW_GUESSES if dep else 0)
    if starts is None or isinstance(starts, int):
        count = starts if isinstance(starts, int) else (200 if f <= 2 else 2000)
        sampler = qmc.Halton(d=max(f + raws * dep, 1), scramble=True,
                             seed=problem.seed)
        pts = lo + (hi - lo) * sampler.random(count)
        out = [(pts[i, :f].copy(),
                [pts[i, f + k * dep:f + (k + 1) * dep].copy()
                 for k in range(raws)])
               for i in range(count)]
        # lexicographic order in the free coordinates turns the
        # sheet-carrying pass below into a continuation sweep
        out.sort(key=lambda t: tuple(t[0]))
        return out
    guesses = (qmc.Halton(d=max(dep, 1), scramble=True,
                          seed=problem.seed).random(raws) * 2.0 - 1.0)
    return [(np.asarray(s, float),
             [np.full(dep, 0.5)] + [g[:dep].copy() for g in guesses])
            for s in starts]


def _predicted(root, x) -> np.ndarray:
    """A Newton guess at free point ``x`` from the last root of a sheet.

    ``root`` is ``(free point, dependent vector, before)``, with ``before``
    the sheet's root before it as a (free point, dependent vector) pair,
    or None.  The guess is the secant step of continuation: the last root
    moved along the chord through the two roots, by the projection of
    x - free point onto the chord's free part.  So it is exact to first
    order along the last move, in any number of free slots; without a
    root before, or with both at one free point, it is the last root.
    """
    at, dv, before = root
    if before is None:
        return dv
    chord = at - before[0]
    norm = chord @ chord
    if not norm:
        return dv
    return dv + (dv - before[1]) * ((x - at) @ chord / norm)


def _multi_start(problem: OptimizationProblem, man: _Manifold, report_at,
                 counts: dict, diagnostics: list) -> tuple[list, float]:
    """The sweep and polish passes of ``minimize_epsilon`` on a chart with
    a free direction: (found minima as (free vector, dependent vector,
    report), compile time)."""
    scheme, p = problem.scheme, problem.p
    f, dep = len(man.free), len(man.dependent)
    lo, hi = problem.bounds
    wall = 3.0 * max(abs(lo), abs(hi))
    tc = time.perf_counter()
    rows = _error_rows(scheme, p)
    compile_s = time.perf_counter() - tc

    def error_at(free_vec, dep_vec) -> float:
        counts["compiled_evals"] += 1
        e = rows.value(man.point(free_vec, dep_vec))
        if not np.isfinite(e):
            raise ValueError(f"non-finite error sums {e}")
        return e

    # ---- sweep pass: chart the sheets, rank candidate points
    starts = _start_points(problem, f, dep)
    sheets: list[tuple[float, tuple]] = []  # (last eps, root as ``_predicted`` takes)
    candidates: list[tuple[float, np.ndarray, np.ndarray]] = []
    max_sheets = 16
    for idx, (x0, raws) in enumerate(starts):
        entry: dict = {"start": idx, "x0": [float(v) for v in x0],
                       "converged": False}
        # track every carried sheet, then probe the raw guesses;
        # dedupe before the (much more expensive) error evaluation
        carried: list[tuple[float, np.ndarray, tuple]] = []
        fresh: list[np.ndarray] = []
        guesses = [(prev_e, _predicted(root, x0), root) for prev_e, root in sheets]
        for prev_e, guess, root in guesses + [(None, g, None) for g in raws]:
            try:
                dv = man.solve(x0, guess)
            except ManifoldError:
                continue
            seen = [k[1] for k in carried] + fresh
            if any(np.max(np.abs(dv - s), initial=0.0) <= 1e-8
                   for s in seen):
                continue
            if prev_e is not None:
                carried.append((prev_e, dv, root[:2]))
            elif len(fresh) < 4:
                fresh.append(dv)
        # a fresh sheet always gets an error value; carried ones are
        # re-measured every third start to keep the sweep affordable
        hits: list[tuple[float, np.ndarray, tuple | None]] = []
        measure = idx % 3 == 0 or idx == len(starts) - 1
        for prev_e, dv, before in carried:
            if not measure:
                hits.append((prev_e, dv, before))
                continue
            try:
                e = error_at(x0, dv)
            except (ValueError, RuntimeError):
                continue
            hits.append((e, dv, before))
            candidates.append((e, x0, dv))
        for dv in fresh:
            try:
                e = error_at(x0, dv)
            except (ValueError, RuntimeError):
                continue
            hits.append((e, dv, None))
            candidates.append((e, x0, dv))
        if hits:
            hits.sort(key=lambda h: (h[0], tuple(h[1])))
            entry.update(converged=True, sheets=len(hits),
                         epsilon=hits[0][0])
            sheets = [(e, (x0, dv, before)) for e, dv, before in hits[:max_sheets]]
        diagnostics.append(entry)

    # ---- polish pass: Nelder-Mead from the most promising candidates
    candidates.sort(key=lambda c: (c[0], tuple(c[1]), tuple(c[2])))
    seeds: list[tuple[float, np.ndarray, np.ndarray]] = []
    budget = max(8, min(32, len(starts) // 6))
    # neighbours on one sheet sit a sweep step apart; seeding them
    # all would just polish the same minimum repeatedly
    radius = max(1e-3, 3.0 * (hi - lo) / max(len(starts), 1))
    for cand in candidates:
        point = np.concatenate([cand[1], cand[2]])
        if any(np.max(np.abs(point - np.concatenate([s[1], s[2]])),
                      initial=0.0) <= radius for s in seeds):
            continue
        # the compiled rows check nothing: a point epsilon rejects
        # (a non-Lie residual far out) must not seed a polish
        try:
            report_at(cand[1], cand[2])
        except (ValueError, RuntimeError):
            continue
        seeds.append(cand)
        if len(seeds) >= budget:
            break

    found = []
    for e0, x0, g0 in seeds:
        warm = [(np.asarray(x0, float), np.asarray(g0, float), None)]

        def objective(x) -> float:
            if np.any(np.abs(x) > wall):
                return 1e12 + float(np.sum(np.abs(x)))
            try:
                dv = man.solve(x, _predicted(warm[0], x))
                e = error_at(x, dv)
            except (ManifoldError, ValueError, RuntimeError):
                return float("inf")
            # Newton refuses a root whose residual cancels in rounding
            # (near the singular chart b_1 = 0 of S m9), so only a true
            # root warm-starts the next probe
            warm[0] = (np.array(x, float), dv, warm[0][:2])
            return e

        try:
            res = sciopt.minimize(
                objective, x0, method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-12,
                         "maxiter": 400 * f, "maxfev": 600 * f})
            xmin = np.asarray(res.x, float)
            dv = man.solve(xmin, _predicted(warm[0], xmin))
            rep = report_at(xmin, dv)
        except (ManifoldError, ValueError, RuntimeError):
            continue
        # a polish Nelder-Mead gave up on (maxiter, maxfev) found no minimum
        if res.success:
            found.append((xmin, dv, rep))
        diagnostics.append({"polish": [float(v) for v in x0],
                            "nfev": int(res.nfev),
                            "epsilon": float(rep.epsilon),
                            "converged": bool(res.success)})
    return found, compile_s


def _root_search(man: _Manifold, report_at):
    """Every real root of a search with no free direction, as (free,
    dependent, report) triples: each of the ``real_solutions`` that the
    memoized ``analyze_freedom`` reads and counts on a separating form,
    polished by one Newton solve and measured by ``epsilon``.  Every
    failure is a ``ManifoldError``: no Gröbner analysis, no, infinitely many
    or a multiple solution, distinct roots other than counted, or a root
    ``epsilon`` rejects.
    """
    try:
        report = analyze_freedom(man.system)
    except RuntimeError as exc:  # Buchberger's size guard
        raise ManifoldError(f"no Gröbner analysis of the order conditions: {exc}") from exc
    if not report.zero_dimensional:
        raise ManifoldError(
            f"the order conditions leave {report.free_count} free direction(s); "
            f"pin some of {report.suggested_free_slots}")
    if not report.solution_count:
        raise ManifoldError("the order conditions have no solution")
    count, real = report.solution_count, report.real_solution_count
    readings = report.real_solutions
    if readings is None:
        raise ManifoldError(f"the {count} complex solutions of the order conditions "
                            f"include a multiple one")
    at = [man.system.variables.index(s) for s in man.dependent]
    roots: list[np.ndarray] = []
    for reading in readings:
        try:
            dv = man.solve([], np.array(reading)[at])
        except ManifoldError:
            continue
        if all(np.max(np.abs(dv - r), initial=0.0) > _DEDUP_TOL for r in roots):
            roots.append(dv)
    if len(roots) != real:
        raise ManifoldError(
            f"{len(roots)} distinct real root(s) polished from {len(readings)} real "
            f"eigenvalue(s), against {real} real solution(s) counted by the Sturm chain")
    if not roots:
        raise ManifoldError(f"none of the {count} complex solutions "
                            f"of the order conditions is real")
    found = []
    for dv in roots:
        try:
            found.append((np.zeros(0), dv, report_at([], dv)))
        except (ValueError, RuntimeError) as exc:
            raise ManifoldError(f"epsilon rejects the real root "
                                f"{man.params([], dv)}: {exc}") from exc
    return found


def minimize_epsilon(problem: OptimizationProblem) -> OptimizationResult:
    """Error minimization over a chart of the manifold.

    A search with no free direction is a root search and takes the
    eigenvalue route: ``constraints.analyze_freedom`` of the order
    conditions reads every real solution and counts them on a separating
    form, and the route polishes each with one Newton solve and measures
    it with ``epsilon`` (see ``_root_search``); ``starts``, ``seed`` and
    ``bounds`` have no effect on it.  The number of distinct roots must
    equal that count, or ``ManifoldError`` names both counts; no, infinitely
    many or a multiple solution, and a root ``epsilon`` rejects, raise it
    too.  The memoized analysis of a caller is reused.

    A search with a free direction takes the multi-start route, in two
    passes.  The sweep pass walks the start points in free-coordinate
    order and carries every Newton sheet of the dependent slots it has
    discovered along the sweep (new sheets are seeded from the raw
    low-discrepancy guesses), so disconnected solution branches all get
    charted.  The polish pass runs Nelder-Mead
    from the best sweep candidates, solving the order conditions at every
    probe.  A carried sheet, and each probe, starts Newton from the secant
    predictor of its last two roots (``_predicted``), or from its last root
    while it has only one.  A polish that stops on its iteration or
    evaluation cap reports no minimum; its ``{"polish": ...}`` record, like
    every other, says whether it ``"converged"``.

    Both passes rank points by the compiled error rows (see the module
    docstring), built once per (scheme, p): 0.007 s for S m9 p4, 0.15 s
    for SL m15 p6 and 0.4 s for SL m19 p6 in a fresh interpreter, so a
    search pays for them
    once it makes more probes than that time over the 0.25-0.5 ms of an
    ``epsilon`` call.  A candidate seeds a polish only once ``epsilon``
    accepts it.  On either route every reported minimum is measured by
    ``epsilon`` and has passed its order and non-Lie checks.  Minima are
    deduplicated and sorted by error.  The last ``diagnostics`` record
    names the route (``"eigenvalue"`` or ``"multi-start"``), the
    objective (``"compiled"`` or ``"epsilon"``), the compile time and the
    counts of compiled evaluations and ``epsilon`` calls.  The record
    before it, ``{"newton": {...}}``, counts the Newton solves, the failed
    ones, their failures by reason (the ``ManifoldError`` message up to
    its first colon), the Jacobians, the residual points and the batched
    residual calls that evaluated them.  Fixed seed means an identical
    result list.
    """
    t0 = time.perf_counter()
    scheme, p = problem.scheme, problem.p
    man = _Manifold(scheme, p, _problem_free(problem))
    counts = {"compiled_evals": 0, "epsilon_calls": 0}

    def report_at(free_vec, dep_vec) -> ErrorReport:
        counts["epsilon_calls"] += 1
        return epsilon(scheme, man.params(free_vec, dep_vec), p)

    diagnostics: list[dict] = []
    if man.free:
        route = "multi-start"
        found, compile_s = _multi_start(problem, man, report_at, counts, diagnostics)
    else:
        route, compile_s = "eigenvalue", 0.0
        found = _root_search(man, report_at)
    newton = dict(man.counts, failures=dict(sorted(man.counts["failures"].items())))
    diagnostics.append({"newton": newton})
    diagnostics.append({"objective": "compiled" if man.free else "epsilon",
                        "compile_s": compile_s, **counts, "route": route})

    if not found:
        raise ManifoldError("every start failed to reach the manifold")

    found.sort(key=lambda t: (float(t[2].epsilon), tuple(t[0]), tuple(t[1])))
    kept: list[tuple[np.ndarray, np.ndarray, ErrorReport]] = []
    for cand in found:
        point = np.concatenate([cand[0], cand[1]])
        dup = any(
            np.max(np.abs(point - np.concatenate([k[0], k[1]])),
                   initial=0.0) <= _DEDUP_TOL
            for k in kept)
        if not dup:
            kept.append(cand)

    minima = [(ParamAssignment(man.params(free_vec, dep_vec),
                               provenance=f"minimize-epsilon seed={problem.seed}"), rep)
              for free_vec, dep_vec, rep in kept]

    return OptimizationResult(
        problem=problem,
        best=minima[0],
        local_minima=tuple(minima),
        diagnostics=tuple(diagnostics),
        wall_time=time.perf_counter() - t0,
    )
