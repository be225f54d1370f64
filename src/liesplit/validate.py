"""Numerical cross-checks of schemes on concrete matrix generators.

The splitting machinery never touches a matrix; this module closes the
loop.  It builds small generator sets (random, structured, or spin
chains assembled from the lattice partitions), applies a scheme as an
ordered product of matrix exponentials, and measures the distance to
the exact flow e^{tH}.  An order-p scheme must show error O(t^{p+1}),
so the log-log slope over the asymptotic window is the observable that
either confirms or refutes a claimed order — independently of all the
series algebra used to derive it.

Each public call builds the scheme's product one of two ways.  When
every generator is exactly Hermitian (the spin chain, which is real
symmetric, so all of its arithmetic is real), each generator is
diagonalized once with ``eigh``, A = V·diag(λ)·Vᴴ, and the product runs
in the generators' eigenbases: with W = V_aᴴ·V_b formed once per
adjacent pair, each factor is one dense product and one diagonal
scaling, ``out = (out @ W) * e^{sλ_b}``, and the step is
V_first·core·V_lastᴴ.  Any other set (``random-general``,
``random-antihermitian``, ``commuting-pair``, or a mix) forms each
factor exp(s·M) on its own: one ``eigh`` per Hermitian M and
V·diag(e^{sλ})·Vᴴ per factor, and scaling-and-squaring ``expm`` per
factor for any other M, the general method, which a Hermitian matrix
does not need (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005).  The
exact flow e^{tH} takes the same per-matrix rule.  The decompositions
live for one call only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .lattice import build_chain, partition
from .schemes import Scheme

__all__ = [
    "ComparisonRow",
    "GeneratorSet",
    "ScalingReport",
    "apply_scheme",
    "build_generators",
    "comparison_to_csv",
    "equal_cost_comparison",
    "operator_norm",
    "scaling_fit",
]

_CLASSES = ("random-antihermitian", "random-general",
            "spin-chain-even-odd", "commuting-pair")

# The Pauli pairs σᵃ⊗σᵃ of a Heisenberg bond as (sign, real 2x2 factor):
# σʸ⊗σʸ = −(iσʸ)⊗(iσʸ) and iσʸ is real, so the chain is real symmetric.
_BOND_PAIRS = (
    (1.0, np.array([[0.0, 1.0], [1.0, 0.0]])),
    (-1.0, np.array([[0.0, 1.0], [-1.0, 0.0]])),
    (1.0, np.array([[1.0, 0.0], [0.0, -1.0]])),
)


@dataclass(frozen=True)
class GeneratorSet:
    """n square matrices standing in for the terms of H = A + B (+ C)."""

    n: int
    dim: int
    matrices: tuple[np.ndarray, ...]
    klass: str
    seed: int | None

    def __post_init__(self):
        if len(self.matrices) != self.n:
            raise ValueError("need one matrix per term")
        for mat in self.matrices:
            if mat.shape != (self.dim, self.dim):
                raise ValueError("all matrices must be dim x dim")
            if not np.all(np.isfinite(mat)):
                raise ValueError("generator matrices must have finite "
                                 "entries (found NaN or infinity)")

    def total(self) -> np.ndarray:
        return sum(self.matrices[1:], start=self.matrices[0].copy())


def operator_norm(mat: np.ndarray) -> float:
    """Largest singular value; exact (dense) at desk scale."""
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _unit(mat: np.ndarray) -> np.ndarray:
    return mat / operator_norm(mat)


def build_generators(klass: str, n: int = 2, dim: int = 16,
                     seed: int = 0, chain_length: int = 6) -> GeneratorSet:
    """Deterministic generator sets of the four supported classes.

    Random matrices are drawn entrywise from a seeded normal distribution
    and scaled to unit operator norm so error grids carry across seeds.
    The spin chain is the nearest-neighbor Heisenberg model on an open
    chain, split into even and odd bonds by the lattice partitioner.
    """
    if klass not in _CLASSES:
        raise ValueError(f"unknown generator class {klass!r}; options: "
                         f"{_CLASSES}")
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if klass == "spin-chain-even-odd":
        return _spin_chain(n, chain_length, seed)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rng = np.random.default_rng(seed)

    def draw():
        return (rng.standard_normal((dim, dim))
                + 1j * rng.standard_normal((dim, dim)))

    if klass == "random-general":
        mats = tuple(_unit(draw()) for _ in range(n))
    elif klass == "random-antihermitian":
        mats = tuple(_unit((g - g.conj().T) / 2) for g in
                     (draw() for _ in range(n)))
    else:  # commuting-pair: polynomial functions of one seed matrix
        x = _unit(draw())
        polys = (x, x @ x + x, x @ x @ x - x)
        mats = tuple(_unit(m) for m in polys[:n])
    return GeneratorSet(n, dim, mats, klass, seed)


def _heisenberg_bond(i: int, j: int, length: int) -> np.ndarray:
    out = np.zeros((2 ** length, 2 ** length))
    for sign, pauli in _BOND_PAIRS:
        ops = [np.eye(2)] * length
        ops[i] = pauli / 2
        ops[j] = pauli / 2
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        out += sign * term
    return out


def _spin_chain(n: int, length: int, seed: int) -> GeneratorSet:
    if n != 2:
        raise ValueError("the even/odd spin chain splits into n = 2 terms")
    if not 4 <= length <= 10:
        raise ValueError("chain length must be between 4 and 10")
    graph = build_chain(length)
    part = partition(graph, "chain-parity")
    pos = graph.coords()
    mats = []
    for group in part.groups:
        term = np.zeros((2 ** length, 2 ** length))
        for k in group:
            i, j = sorted(pos[s][0] for s in graph.interactions[k])
            term += _heisenberg_bond(i, j, length)
        mats.append(term)
    return GeneratorSet(2, 2 ** length, tuple(mats), "spin-chain-even-odd",
                        seed)


def _is_hermitian(mat: np.ndarray) -> bool:
    return np.array_equal(mat, mat.conj().T)


def _flow(mat: np.ndarray):
    """s -> exp(s·mat) for real s: one ``eigh`` when mat is exactly
    Hermitian, ``expm`` per call otherwise."""
    if not _is_hermitian(mat):
        return lambda s: expm(s * mat)
    lam, vecs = np.linalg.eigh(mat)
    vecs_h = vecs.conj().T
    return lambda s: (vecs * np.exp(s * lam)) @ vecs_h


def _stepper(scheme: Scheme, params, gens: GeneratorSet):
    """t -> the scheme's ordered product at step t.

    With every generator exactly Hermitian the product runs in their
    eigenbases: ``eigh`` once per generator, W = V_aᴴ·V_b once per
    adjacent pair of distinct generators, then per factor one product
    by W and one scaling of the columns by e^{c t λ_b}.  The dtype is
    the generators' (real for the spin chain).  Any other set, or a
    scheme with no factors, takes one ``_flow`` per generator and one
    complex product per factor.
    """
    if scheme.n != gens.n:
        raise ValueError(f"scheme splits {scheme.n} terms but the "
                         f"generator set has {gens.n}")
    factors = [(g, float(coeff)) for g, coeff in scheme.resolve(params)]
    if not (factors and all(_is_hermitian(m) for m in gens.matrices)):
        flows = [_flow(m) for m in gens.matrices]

        def step(t: float) -> np.ndarray:
            out = np.eye(gens.dim, dtype=complex)
            for g, coeff in factors:
                out = out @ flows[g](coeff * t)
            return out
        return step

    lams, vecs = zip(*(np.linalg.eigh(m) for m in gens.matrices))
    order = [g for g, _ in factors]
    links = {(a, b): vecs[a].conj().T @ vecs[b]
             for a, b in zip(order, order[1:]) if a != b}
    (first, first_coeff), *rest = factors
    last_h = vecs[order[-1]].conj().T

    def step(t: float) -> np.ndarray:
        out = vecs[first] * np.exp(first_coeff * t * lams[first])
        prev = first
        for g, coeff in rest:
            if g != prev:
                out = out @ links[prev, g]
            out *= np.exp(coeff * t * lams[g])
            prev = g
        return out @ last_h
    return step


def apply_scheme(scheme: Scheme, params, gens: GeneratorSet,
                 t: float) -> np.ndarray:
    """Ordered product of matrix exponentials for one time step.

    An all-Hermitian generator set is multiplied in the generators'
    eigenbases; any other set forms each factor on its own, ``expm``
    for a non-Hermitian generator (see the module notes).  Raises
    ``ValueError`` for a non-finite ``t``.
    """
    if not math.isfinite(t):
        raise ValueError(f"step t must be finite, got {t}")
    return _stepper(scheme, params, gens)(t)


@dataclass(frozen=True)
class ScalingReport:
    """Error-vs-step-size measurement with a fitted log-log slope."""

    t_grid: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_slope: float
    window: tuple[int, ...]
    seed: int | None
    label: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# label={self.label} seed={self.seed} "
                  f"slope={self.fitted_slope:.17g}\n")
        buf.write("t,error\n")
        for t, e in zip(self.t_grid, self.errors):
            buf.write(f"{t:.17g},{e:.17g}\n")
        return buf.getvalue()


def scaling_fit(scheme: Scheme, params, gens: GeneratorSet,
                t_lo: float = 3e-3, t_hi: float = 0.7,
                points: int = 28) -> ScalingReport:
    """Fit the error order on a geometric grid of step sizes.

    The window drops the roundoff floor (error < 1e-13 dim) and the
    preasymptotic top (error > 0.1), then keeps the longest stretch
    whose point-to-point slopes agree within 0.1; the reported slope is
    the least-squares fit there.  An order-p scheme gives p + 1.

    An all-Hermitian set (a spin chain) is diagonalized once per call
    and every grid point's product runs in the generators' eigenbases,
    one dense product per factor; H is diagonalized once too.  Other
    sets take one ``expm`` per non-Hermitian factor and per grid point
    (see the module notes).
    """
    if points < 5:
        raise ValueError("need at least five grid points")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError(f"step-size bounds must be finite, got "
                         f"t_lo={t_lo}, t_hi={t_hi}")
    if t_lo <= 0:
        raise ValueError(f"t_lo must be positive, got {t_lo}")
    if t_hi <= t_lo:
        raise ValueError(f"t_hi must exceed t_lo, got t_lo={t_lo}, "
                         f"t_hi={t_hi}")
    grid = np.geomspace(t_lo, t_hi, points)
    step = _stepper(scheme, params, gens)
    exact = _flow(gens.total())
    errors = [operator_norm(step(t) - exact(t)) for t in grid]
    errors_arr = np.array(errors)
    window = _stable_window(grid, errors_arr, 1e-13 * gens.dim, 1e-1)
    if window is None:
        raise ValueError("no valid scaling window: every grid point is "
                         "at the roundoff floor or preasymptotic")
    logs_t = np.log(grid[list(window)])
    logs_e = np.log(errors_arr[list(window)])
    slope = float(np.polyfit(logs_t, logs_e, 1)[0])
    return ScalingReport(tuple(float(t) for t in grid),
                         tuple(float(e) for e in errors),
                         slope, window, gens.seed, scheme.label())


def _stable_window(grid, errors, floor, top):
    """The longest run of >= 5 consecutive points in (floor, top) whose log-log
    slopes agree within 0.1, the earliest on ties; None if there is none."""
    valid = (errors > floor) & (errors < top)
    # no log of an invalid (maybe zero) error: no window spans its slopes
    slopes = np.diff(np.log(np.where(valid, errors, 1.0))) / np.diff(np.log(grid))
    best, start = None, 0
    for end in range(len(errors)):
        if not valid[end]:
            start = end + 1
        while end - start > 1 and np.ptp(slopes[start:end]) > 0.1:
            start += 1
        if end - start >= max(4, len(best or ())):
            best = tuple(range(start, end + 1))
    return best


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    m: int
    steps: int
    t_step: float
    cost: int
    error: float
    rank: int


def equal_cost_comparison(entries: Sequence, gens: GeneratorSet,
                          total_time: float,
                          budget: int) -> tuple[ComparisonRow, ...]:
    """Final-time error of several schemes at one exponential budget.

    Every scheme gets about ``budget`` matrix exponentials: a scheme
    with m factors takes steps ~ budget/m of size t = T/steps, so
    cheaper-per-step schemes take more, smaller steps.  Rows keep the
    input order; the rank column orders by error.  Hermitian generators
    are diagonalized once per scheme and a Hermitian H once per call.
    Raises ``ValueError`` unless ``total_time`` is finite and positive.
    """
    if not (math.isfinite(total_time) and total_time > 0):
        raise ValueError(f"total_time must be finite and positive, got "
                         f"{total_time}")
    exact = _flow(gens.total())(total_time)
    items = []
    for entry in entries:
        scheme = entry.scheme
        params = entry.params
        label = getattr(entry, "name", scheme.label())
        if budget < scheme.m:
            raise ValueError(f"budget {budget} is below the factor count "
                             f"of {label} (m={scheme.m})")
        steps = max(1, round(budget / scheme.m))
        t_step = total_time / steps
        step_u = _stepper(scheme, params, gens)(t_step)
        u = np.linalg.matrix_power(step_u, steps)
        err = operator_norm(u - exact)
        items.append((label, scheme.m, steps, t_step, steps * scheme.m,
                      err))
    order = sorted(range(len(items)), key=lambda i: items[i][5])
    ranks = {i: r + 1 for r, i in enumerate(order)}
    return tuple(ComparisonRow(*items[i], rank=ranks[i])
                 for i in range(len(items)))


def comparison_to_csv(rows: Sequence[ComparisonRow],
                      gens: GeneratorSet) -> str:
    buf = io.StringIO()
    buf.write(f"# class={gens.klass} seed={gens.seed} dim={gens.dim}\n")
    buf.write("label,m,steps,t_step,cost,error,rank\n")
    for r in rows:
        buf.write(f"{r.label},{r.m},{r.steps},{r.t_step:.17g},{r.cost},"
                  f"{r.error:.17g},{r.rank}\n")
    return buf.getvalue()
