"""Numerical cross-checks of schemes on concrete matrix generators.

The splitting machinery never touches a matrix; this module closes the
loop.  It builds small generator sets (random, structured, or spin
chains assembled from the lattice partitions), applies a scheme as an
ordered product of matrix exponentials, and measures the distance to
the exact flow e^{tH}.  An order-p scheme must show error O(t^{p+1}),
so the log-log slope over the asymptotic window is the observable that
either confirms or refutes a claimed order — independently of all the
series algebra used to derive it.

Each public call first splits the generator set into sectors: the
connected components of the generators' joint sparsity pattern.  Every
generator, every factor, H and the error are block-diagonal over them,
so each sector's product runs on its own blocks.  On the Heisenberg
chain, which conserves total S_z, the sectors are the basis states of
equal popcount, C(L, k) of them each; a random set is one sector.  A
sector's product runs over the whole step grid at once, on stacked
(points, d, d) arrays, in chunks that keep one stack under
``_STACK_BYTES``; the error at each step is the largest over the sectors
of the blocks' 2-norms, which is exactly the 2-norm of the whole
block-diagonal matrix.

Each sector's product is built one of two ways.  When every generator
block is exactly Hermitian (the spin chain, which is real symmetric, so
all of its arithmetic is real), each block is diagonalized once with
``eigh``, A = V·diag(λ)·Vᴴ, and the product runs in the generators'
eigenbases: with W = V_aᴴ·V_b formed once per adjacent pair, each factor
is one dense product and one diagonal scaling,
``out = (out @ W) * e^{sλ_b}``, and the step is V_first·core·V_lastᴴ.
Any other set (``random-general``, ``random-antihermitian``,
``commuting-pair``, or a mix) forms each distinct factor exp(s·M) on its
own (a palindromic scheme repeats its factors): one ``eigh`` per
Hermitian M and V·diag(e^{sλ})·Vᴴ per factor, and one stacked
scaling-and-squaring ``expm`` per factor for any other M, the general
method, which a Hermitian matrix does not need (Higham, SIAM J. Matrix
Anal. Appl. 26:1179, 2005).  The exact flow e^{tH} takes the same
per-matrix rule.  Stacked products, ``expm`` and singular values act on
each matrix of a stack as on a lone one, so a one-sector set gets the
same bits as a product formed one step at a time.  The sectors and
decompositions live for one call only.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .free_algebra import _integer, _is_real, _real
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

# One sector's stacked (points, d, d) array, counted at 16 bytes an entry,
# stays under this; a longer grid runs in chunks.
_STACK_BYTES = 1 << 23

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


def operator_norm(mat: np.ndarray):
    """Largest singular value; exact (dense) at desk scale.  A single
    matrix gives a float, a (..., d, d) stack the array of each matrix's
    norm."""
    top = np.linalg.svd(mat, compute_uv=False)[..., 0]
    return top if top.ndim else float(top)


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
    n, dim = _integer(n, "n"), _integer(dim, "dim")
    chain_length, seed = _integer(chain_length, "chain_length"), _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
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


def _sectors(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The connected components of the matrices' joint sparsity pattern:
    ascending index arrays, ordered by their first index.  Every matrix
    is block-diagonal over them, and so is any product of their
    exponentials."""
    linked = np.zeros(matrices[0].shape, dtype=bool)
    for mat in matrices:
        linked |= mat != 0
    linked |= linked.T
    free = np.ones(len(linked), dtype=bool)
    sectors = []
    for start in range(len(linked)):
        if not free[start]:
            continue
        members = np.zeros(len(linked), dtype=bool)
        members[start] = True
        front = members
        while front.any():
            front = linked[front].any(axis=0) & ~members
            members |= front
        free &= ~members
        sectors.append(np.flatnonzero(members))
    return tuple(sectors)


def _split(gens: GeneratorSet) -> list[tuple[np.ndarray, GeneratorSet]]:
    """(indices, the generators' blocks on them) for every sector."""
    sectors = _sectors(gens.matrices)
    if len(sectors) == 1:
        return [(sectors[0], gens)]
    return [(idx, GeneratorSet(gens.n, len(idx),
                               tuple(m[np.ix_(idx, idx)] for m in gens.matrices),
                               gens.klass, gens.seed))
            for idx in sectors]


def _scales(ts, lam: np.ndarray) -> np.ndarray:
    """e^{sλ} for each s of ``ts``, shaped to scale the columns of one
    matrix per s."""
    return np.exp(np.multiply.outer(ts, lam))[..., None, :]


def _flow(mat: np.ndarray):
    """ts -> exp(s·mat) for a real s, or stacked for each s of an array:
    one ``eigh`` when mat is exactly Hermitian, one ``expm`` of the stack
    per call otherwise."""
    if not _is_hermitian(mat):
        return lambda ts: expm(np.multiply.outer(ts, mat))
    lam, vecs = np.linalg.eigh(mat)
    vecs_h = vecs.conj().T
    return lambda ts: (vecs * _scales(ts, lam)) @ vecs_h


def _stepper(scheme: Scheme, params, gens: GeneratorSet):
    """ts -> the scheme's ordered product at a step t, or stacked for
    each t of an array.

    With every generator exactly Hermitian the product runs in their
    eigenbases: ``eigh`` once per generator, W = V_aᴴ·V_b once per
    adjacent pair of distinct generators, then per factor one product
    by W and one scaling of the columns by e^{c t λ_b}.  The dtype is
    the generators' (real for the spin chain).  Any other set, or a
    scheme with no factors, takes one ``_flow`` per generator, one
    stack per distinct (generator, coefficient) factor and one complex
    product per factor.
    """
    if scheme.n != gens.n:
        raise ValueError(f"scheme splits {scheme.n} terms but the "
                         f"generator set has {gens.n}")
    factors = [(g, float(coeff)) for g, coeff in scheme.resolve(params)]
    if not (factors and all(_is_hermitian(m) for m in gens.matrices)):
        flows = [_flow(m) for m in gens.matrices]
        eye = np.eye(gens.dim, dtype=complex)

        def step(ts) -> np.ndarray:
            # palindromic schemes repeat factors: one flow per distinct one
            done: dict[tuple[int, float], np.ndarray] = {}
            out = np.broadcast_to(eye, np.shape(ts) + eye.shape)
            for g, coeff in factors:
                f = done.get((g, coeff))
                if f is None:
                    f = done[g, coeff] = flows[g](coeff * ts)
                out = out @ f
            return out
        return step

    lams, vecs = zip(*(np.linalg.eigh(m) for m in gens.matrices))
    order = [g for g, _ in factors]
    links = {(a, b): vecs[a].conj().T @ vecs[b]
             for a, b in zip(order, order[1:]) if a != b}
    (first, first_coeff), *rest = factors
    last_h = vecs[order[-1]].conj().T

    def step(ts) -> np.ndarray:
        out = vecs[first] * _scales(first_coeff * ts, lams[first])
        prev = first
        for g, coeff in rest:
            if g != prev:
                out = out @ links[prev, g]
            out *= _scales(coeff * ts, lams[g])
            prev = g
        return out @ last_h
    return step


def _errors(scheme: Scheme, params, gens: GeneratorSet,
            grid: np.ndarray) -> np.ndarray:
    """‖step(t) − e^{tH}‖₂ at every t of ``grid``: the largest over the
    sectors of the blocks' norms, each sector's grid run in chunks whose
    stacks stay under ``_STACK_BYTES``."""
    errors = np.zeros(len(grid))
    for _, sector in _split(gens):
        step = _stepper(scheme, params, sector)
        exact = _flow(sector.total())
        size = max(1, _STACK_BYTES // (16 * sector.dim ** 2))
        for lo in range(0, len(grid), size):
            part = slice(lo, lo + size)
            norms = operator_norm(step(grid[part]) - exact(grid[part]))
            errors[part] = np.maximum(errors[part], norms)
    return errors


def apply_scheme(scheme: Scheme, params, gens: GeneratorSet,
                 t: float) -> np.ndarray:
    """Ordered product of matrix exponentials for one time step.

    Each sector's block is multiplied on its own and scattered into the
    dense result.  An all-Hermitian generator set is multiplied in the
    generators' eigenbases; any other set forms each distinct factor on
    its own, ``expm`` for a non-Hermitian generator (see the module
    notes).  Raises ``ValueError`` for a ``t`` that is no finite real
    (``_is_real``).
    """
    t = _real(t, "step t")
    blocks = [(idx, _stepper(scheme, params, sector)(t))
              for idx, sector in _split(gens)]
    out = np.zeros((gens.dim, gens.dim),
                   dtype=np.result_type(*(b for _, b in blocks)))
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


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

    The set is split into sectors once per call, and each sector's
    product runs over the whole grid at once as a stack of blocks; the
    error at a step is the largest of its sectors' 2-norms.  An
    all-Hermitian set (a spin chain) is diagonalized once per sector and
    call, and the products run in the generators' eigenbases, one dense
    product per factor; H is diagonalized once per sector too.  Other
    sets take one stacked ``expm`` per distinct non-Hermitian factor and
    per chunk of the grid (see the module notes).  ``points`` must be an
    integer of at least 5.
    """
    points = _integer(points, "points")
    if points < 5:
        raise ValueError("need at least five grid points")
    t_lo, t_hi = _real(t_lo, "t_lo"), _real(t_hi, "t_hi")
    if t_lo <= 0:
        raise ValueError(f"t_lo must be positive, got {t_lo}")
    if t_hi <= t_lo:
        raise ValueError(f"t_hi must exceed t_lo, got t_lo={t_lo}, "
                         f"t_hi={t_hi}")
    grid = np.geomspace(t_lo, t_hi, points)
    errors = _errors(scheme, params, gens, grid)
    window = _stable_window(grid, errors, 1e-13 * gens.dim, 1e-1)
    if window is None:
        raise ValueError("no valid scaling window: every grid point is "
                         "at the roundoff floor or preasymptotic")
    logs_t = np.log(grid[list(window)])
    logs_e = np.log(errors[list(window)])
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
    input order; the rank column orders by error.  Each sector's step
    block is raised to the power ``steps`` on its own, and the error is
    the largest of the sectors' 2-norms.  Hermitian generator blocks are
    diagonalized once per scheme and a Hermitian H once per call.
    Raises ``ValueError`` unless ``total_time`` is finite and positive
    and ``budget`` is an integer.
    """
    if not (_is_real(total_time) and total_time > 0):
        raise ValueError(f"total_time must be finite and positive, got {total_time!r}")
    budget = _integer(budget, "budget")
    sectors = [sector for _, sector in _split(gens)]
    exact = [_flow(sector.total())(total_time) for sector in sectors]
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
        err = max(operator_norm(np.linalg.matrix_power(
                      _stepper(scheme, params, sector)(t_step), steps) - x)
                  for sector, x in zip(sectors, exact))
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
