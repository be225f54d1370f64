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
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize as sciopt
from scipy.stats import qmc

from .constraints import symbolic_log
from .schemes import (ErrorReport, ParamAssignment, Scheme, epsilon, ordering_str,
                      symbolic_slot_values)

__all__ = [
    "ManifoldError",
    "OptimizationProblem",
    "OptimizationResult",
    "minimize_epsilon",
    "solve_on_manifold",
]

_RESIDUAL_TOL = 1e-12
# ``epsilon``'s non-Lie threshold: where machine epsilon times the largest
# term exceeds it, a zero residual is cancellation in rounding, not a root
_ROUNDING_TOL = 1e-8
_DEDUP_TOL = 1e-5


class ManifoldError(RuntimeError):
    """Newton could not reach the constraint manifold."""


@functools.lru_cache(maxsize=None)
def _conditions(scheme: Scheme, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The order conditions left by the template closures, compiled once.

    With the closures substituted they are polynomials in
    ``scheme.free_slots``, returned as ``(E, C)``: exponents (monomials x
    free slots) and float coefficients (conditions x monomials), so the
    conditions at ``x`` are ``C @ prod(x ** E)``.
    """
    cs = symbolic_log(scheme, p)
    free = scheme.free_slots
    values = symbolic_slot_values(scheme)
    rows = [poly.evaluate(values) for d, poly in zip(cs.degrees, cs.polys) if d > 1]
    # a condition free of every slot evaluates to a plain Fraction
    rows = [getattr(q, "terms", {(0,) * len(free): q}) for q in rows]
    monomials = sorted({e for terms in rows for e in terms})
    column = {e: k for k, e in enumerate(monomials)}
    coeffs = np.zeros((len(rows), len(monomials)))
    for i, terms in enumerate(rows):
        for e, c in terms.items():
            coeffs[i, column[e]] = float(c)
    exps = np.array(monomials, dtype=int).reshape(len(monomials), len(free))
    # every caller shares the cached arrays
    exps.setflags(write=False)
    coeffs.setflags(write=False)
    return exps, coeffs


class _Manifold:
    """Square Newton system for the dependent slots at pinned free slots,
    on points ordered like ``scheme.free_slots``."""

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
        self._exps, self._coeffs = _conditions(scheme, p)
        if len(self._coeffs) != len(self.dependent):
            raise ManifoldError(
                f"{len(self.dependent)} dependent slot(s) against "
                f"{len(self._coeffs)} active condition(s); choose "
                f"{len(slots) - len(self._coeffs)} free slot(s)")
        # d/dx_j of x**e is e_j * x**(e lowered by one in slot j); clipping
        # at zero keeps 0**-1 out where e_j = 0 multiplies the term away
        unit = np.eye(len(slots), dtype=int)[self._dep_at]
        self._dexps = self._exps[:, self._dep_at].T
        self._lowered = (self._exps[None] - unit[:, None, :]).clip(min=0)

    def point(self, free_values, dep_values) -> np.ndarray:
        x = np.empty(len(self.slots))
        x[self._free_at] = free_values
        x[self._dep_at] = dep_values
        return x

    def params(self, free_values, dep_values) -> dict[str, float]:
        return dict(zip(self.slots, self.point(free_values, dep_values).tolist()))

    def residual(self, dep_values, free_values) -> np.ndarray:
        x = self.point(free_values, dep_values)
        return self._coeffs @ np.prod(x ** self._exps, axis=1)

    def _jacobian(self, dep_values, free_values) -> np.ndarray:
        x = self.point(free_values, dep_values)
        return self._coeffs @ (self._dexps * np.prod(x ** self._lowered, axis=2)).T

    def solve(self, free_values, guess, maxiter: int = 60) -> np.ndarray:
        if not self.dependent:
            return np.zeros(0)
        x = np.asarray(guess, float).copy()
        if x.shape != (len(self.dependent),):
            raise ValueError(f"guess must assign {len(self.dependent)} "
                             f"dependent slot(s)")
        r = self.residual(x, free_values)
        rn = float(np.max(np.abs(r)))
        if not np.isfinite(rn):
            raise ManifoldError("non-finite residual at the initial guess")
        for _ in range(maxiter):
            if rn <= 1e-15:
                break
            jac = self._jacobian(x, free_values)
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
                rt = self.residual(xt, free_values)
                nt = float(np.max(np.abs(rt)))
                if np.isfinite(nt) and nt < rn:
                    x, r, rn, improved = xt, rt, nt, True
                    break
                t *= 0.5
            if not improved:
                break
        if rn > _RESIDUAL_TOL:
            raise ManifoldError(f"no convergence: residual {rn:.3e}")
        terms = np.prod(np.abs(self.point(free_values, x)) ** self._exps, axis=1)
        scale = float(np.max(np.abs(self._coeffs) @ terms))
        if np.finfo(float).eps * scale > _ROUNDING_TOL:
            raise ManifoldError(f"spurious root: terms of size {scale:.3e} cancel in rounding")
        return x


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
    """
    man = _Manifold(scheme, p, tuple(free_values))
    free_vec = [float(v) for v in free_values.values()]
    if guess is None:
        ladder = [np.full(len(man.dependent), fill)
                  for fill in (0.5, 0.2, -0.3, 1.0, -0.8)]
        ladder += list(qmc.Halton(d=max(len(man.dependent), 1),
                                  scramble=True, seed=11)
                       .random(8) * 2.0 - 1.0)
        dep = None
        for cand in ladder:
            try:
                dep = man.solve(free_vec, cand[:len(man.dependent)])
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
            "starts": len(self.diagnostics),
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
    nfree = len(scheme.free_slots) - len(_conditions(scheme, problem.p)[1])
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


def minimize_epsilon(problem: OptimizationProblem) -> OptimizationResult:
    """Multi-start error minimization over a chart of the manifold.

    Two passes.  The sweep pass walks the start points in free-coordinate
    order and carries every Newton sheet of the dependent slots it has
    discovered along the sweep (new sheets are seeded from the raw
    low-discrepancy guesses), so disconnected solution branches all get
    charted.  The polish pass runs Nelder-Mead from the best sweep
    candidates, solving the order conditions at every probe.  Minima are
    deduplicated, sorted by error, and each reported one has passed the
    order check inside ``epsilon``.  Fixed seed means an identical result
    list.
    """
    t0 = time.perf_counter()
    scheme, p = problem.scheme, problem.p
    man = _Manifold(scheme, p, _problem_free(problem))
    f, dep = len(man.free), len(man.dependent)
    lo, hi = problem.bounds
    wall = 3.0 * max(abs(lo), abs(hi))

    def report_at(free_vec, dep_vec) -> ErrorReport:
        return epsilon(scheme, man.params(free_vec, dep_vec), p)

    # ---- sweep pass: chart the sheets, rank candidate points
    starts = _start_points(problem, f, dep)
    sheets: list[tuple[float, np.ndarray]] = []  # (last eps, dep vector)
    candidates: list[tuple[float, np.ndarray, np.ndarray]] = []
    diagnostics: list[dict] = []
    max_sheets = 16
    for idx, (x0, raws) in enumerate(starts):
        entry: dict = {"start": idx, "x0": [float(v) for v in x0],
                       "converged": False}
        # track every carried sheet, then probe the raw guesses;
        # dedupe before the (much more expensive) error evaluation
        carried: list[tuple[float | None, np.ndarray]] = []
        fresh: list[np.ndarray] = []
        for prev_e, guess in ([(s[0], s[1]) for s in sheets]
                              + [(None, np.asarray(g, float))
                                 for g in raws]):
            if dep and guess.shape != (dep,):
                continue
            try:
                dv = man.solve(x0, guess)
            except ManifoldError:
                continue
            seen = [k[1] for k in carried] + fresh
            if any(np.max(np.abs(dv - s), initial=0.0) <= 1e-8
                   for s in seen):
                continue
            if prev_e is not None:
                carried.append((prev_e, dv))
            elif len(fresh) < 4:
                fresh.append(dv)
        # a fresh sheet always gets an error value; carried ones are
        # re-measured every third start to keep the sweep affordable
        hits: list[tuple[float | None, np.ndarray]] = []
        measure = idx % 3 == 0 or idx == len(starts) - 1
        for prev_e, dv in carried:
            if not measure and prev_e is not None:
                hits.append((prev_e, dv))
                continue
            try:
                e = float(report_at(x0, dv).epsilon)
            except (ValueError, RuntimeError):
                continue
            hits.append((e, dv))
            candidates.append((e, x0, dv))
        for dv in fresh:
            try:
                e = float(report_at(x0, dv).epsilon)
            except (ValueError, RuntimeError):
                continue
            hits.append((e, dv))
            candidates.append((e, x0, dv))
        if hits:
            hits.sort(key=lambda h: (h[0] is None, h[0] or 0.0,
                                     tuple(h[1])))
            entry.update(converged=True, sheets=len(hits))
            if hits[0][0] is not None:
                entry["epsilon"] = hits[0][0]
            sheets = hits[:max_sheets]
        diagnostics.append(entry)

    if f == 0:
        found = [(x0, dv, report_at(x0, dv)) for _, x0, dv in candidates]
    else:
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
            seeds.append(cand)
            if len(seeds) >= budget:
                break

        found = []
        for e0, x0, g0 in seeds:
            warm = [np.asarray(g0, float)]

            def objective(x) -> float:
                if np.any(np.abs(x) > wall):
                    return 1e12 + float(np.sum(np.abs(x)))
                try:
                    dv = man.solve(x, warm[0])
                    rep = report_at(x, dv)
                except (ManifoldError, ValueError, RuntimeError):
                    return float("inf")
                # only a root that passes epsilon's checks seeds the next
                # probe: near a singular chart Newton can run off to a
                # spurious root where the residual cancels in rounding
                warm[0] = dv
                return float(rep.epsilon)

            try:
                res = sciopt.minimize(
                    objective, x0, method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-12,
                             "maxiter": 400 * f, "maxfev": 600 * f})
                xmin = np.asarray(res.x, float)
                dv = man.solve(xmin, warm[0])
                rep = report_at(xmin, dv)
            except (ManifoldError, ValueError, RuntimeError):
                continue
            found.append((xmin, dv, rep))
            diagnostics.append({"polish": [float(v) for v in x0],
                                "nfev": int(res.nfev),
                                "epsilon": float(rep.epsilon)})

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
