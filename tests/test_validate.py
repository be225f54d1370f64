"""Matrix-level validation: generators, products, scaling fits."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from liesplit import validate
from liesplit.catalog import catalog
from liesplit.validate import (
    GeneratorSet,
    apply_scheme,
    build_generators,
    comparison_to_csv,
    equal_cost_comparison,
    operator_norm,
    scaling_fit,
)


@pytest.fixture(scope="module")
def cat():
    return catalog()


# --------------------------------------------------------- generators

def test_generators_deterministic():
    a = build_generators("random-general", n=2, dim=8, seed=42)
    b = build_generators("random-general", n=2, dim=8, seed=42)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)
    c = build_generators("random-general", n=2, dim=8, seed=43)
    assert not np.array_equal(a.matrices[0], c.matrices[0])


def test_random_generators_have_unit_norm():
    gens = build_generators("random-general", n=3, dim=12, seed=1)
    for m in gens.matrices:
        assert operator_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_antihermitian_class():
    gens = build_generators("random-antihermitian", n=2, dim=10, seed=7)
    for m in gens.matrices:
        assert np.allclose(m.conj().T, -m, atol=1e-15)


def test_commuting_pair_commutes_exactly():
    for n in (2, 3):
        gens = build_generators("commuting-pair", n=n, dim=9, seed=3)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = gens.matrices[i], gens.matrices[j]
                assert operator_norm(a @ b - b @ a) < 1e-14


def test_spin_chain_even_odd_structure():
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=4,
                            seed=0)
    assert gens.dim == 16
    even, odd = gens.matrices
    # real symmetric, and the even/odd split leaves non-commuting halves
    assert even.dtype == odd.dtype == np.float64
    assert operator_norm(even - even.conj().T) < 1e-14
    assert operator_norm(odd - odd.conj().T) < 1e-14
    assert operator_norm(even @ odd - odd @ even) > 1e-3


def test_spin_chain_bond_count():
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=6,
                            seed=0)
    # trace of the Heisenberg bond term is zero; sums inherit that
    assert abs(np.trace(gens.matrices[0])) < 1e-12
    assert abs(np.trace(gens.matrices[1])) < 1e-12


def test_generator_class_validation():
    with pytest.raises(ValueError, match="unknown generator class"):
        build_generators("bogus", n=2)
    with pytest.raises(ValueError, match="n = 2"):
        build_generators("spin-chain-even-odd", n=3)
    with pytest.raises(ValueError, match="between 4 and 10"):
        build_generators("spin-chain-even-odd", n=2, chain_length=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_generator_rejected(bad):
    good = build_generators("random-general", n=2, dim=4, seed=0)
    broken = good.matrices[1].copy()
    broken[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GeneratorSet(2, 4, (good.matrices[0], broken), "random-general", 0)


# ------------------------------------------------- per-call exponential

_CLASS_SETS = {
    "random-antihermitian": dict(n=2, dim=16, seed=2),
    "random-general": dict(n=2, dim=16, seed=3),
    "spin-chain-even-odd": dict(n=2, chain_length=6, seed=0),
    "commuting-pair": dict(n=3, dim=8, seed=5),
}


@pytest.mark.parametrize("klass", sorted(_CLASS_SETS))
def test_flow_matches_expm(klass):
    gens = build_generators(klass, **_CLASS_SETS[klass])
    for mat in gens.matrices + (gens.total(),):
        flow = validate._flow(mat)
        for s in (-0.9, -1e-3, 1e-3, 0.7, 1.4):
            ref = expm(s * mat)
            assert (operator_norm(flow(s) - ref)
                    <= 1e-12 * operator_norm(ref))


def _counted_expm(monkeypatch):
    calls = []
    real = validate.expm

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(validate, "expm", counted)
    return calls


def test_chain_fit_diagonalizes_instead_of_expm(cat, monkeypatch):
    calls = _counted_expm(monkeypatch)
    e = cat["n2-p4-s-m11-opt"]
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=6,
                            seed=0)
    scaling_fit(e.scheme, e.params, gens)
    assert calls == []


def _distinct_factors(scheme, params):
    return {(g, float(c)) for g, c in scheme.resolve(params)}


@pytest.mark.parametrize("klass", ["random-general",
                                   "random-antihermitian"])
def test_non_hermitian_fit_calls_expm_per_factor(cat, klass, monkeypatch):
    # one stacked expm over the grid per distinct factor (6 of m11's 11)
    # and one for e^{tH}: the same 28 * 7 factors as one call per point
    calls = _counted_expm(monkeypatch)
    e = cat["n2-p4-s-m11-opt"]
    gens = build_generators(klass, n=2, dim=16, seed=3)
    rep = scaling_fit(e.scheme, e.params, gens)
    distinct = len(_distinct_factors(e.scheme, e.params))
    assert len(calls) == distinct + 1 == 7
    assert calls == [(len(rep.t_grid), 16, 16)] * 7 == [(28, 16, 16)] * 7


def _expm_stepper(scheme, params, gens):
    """Reference step: the ordered product of ``scipy.linalg.expm``
    factors, one per factor of the scheme."""
    factors = [(gens.matrices[g], float(c)) for g, c in scheme.resolve(params)]

    def step(t):
        out = np.eye(gens.dim)
        for mat, coeff in factors:
            out = out @ expm(coeff * t * mat)
        return out
    return step


_CHAIN_SCHEMES = ["n2-p2-sl-m3-leapfrog", "n2-p4-s-m11-opt",
                  "n2-p6-sl-m19-opt", "n2-p4-sl-m11-suzuki"]


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("name", _CHAIN_SCHEMES)
def test_chain_eigenbasis_fit_matches_expm_product(cat, name, length,
                                                   monkeypatch):
    e = cat[name]
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=length,
                            seed=0)
    rep = scaling_fit(e.scheme, e.params, gens)
    # the reference: the unsplit full-dimension expm product, per point
    monkeypatch.setattr(validate, "_sectors", lambda mats: (np.arange(gens.dim),))
    monkeypatch.setattr(validate, "_stepper", lambda s, p, g: lambda ts: np.array(
        [_expm_stepper(s, p, g)(t) for t in ts]))
    monkeypatch.setattr(validate, "_flow", lambda m: lambda ts: np.array(
        [expm(s * m) for s in ts]))
    ref = scaling_fit(e.scheme, e.params, gens)
    h = gens.total()
    for t, err, ref_err in zip(rep.t_grid, rep.errors, ref.errors):
        assert abs(err - ref_err) <= 1e-12 * operator_norm(expm(t * h))
    assert rep.window == ref.window


def test_mixed_set_takes_per_factor_path(cat, monkeypatch):
    rng = np.random.default_rng(4)
    draw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm = (draw + draw.conj().T) / 2
    general = build_generators("random-general", n=2, dim=6, seed=4)
    gens = GeneratorSet(2, 6, (herm, general.matrices[1]), "mixed", None)
    e = cat["n2-p4-s-m11-opt"]
    non_hermitian = sum(1 for g, _ in _distinct_factors(e.scheme, e.params) if g == 1)
    calls = _counted_expm(monkeypatch)
    u = apply_scheme(e.scheme, e.params, gens, 0.4)
    assert len(calls) == non_hermitian > 0
    ref = _expm_stepper(e.scheme, e.params, gens)(0.4)
    assert operator_norm(u - ref) <= 1e-12 * operator_norm(ref)


@pytest.mark.parametrize("name,m,distinct", [("n2-p2-sl-m3-leapfrog", 3, 2),
                                             ("n2-p4-s-m11-opt", 11, 6),
                                             ("n2-p6-sl-m19-opt", 19, 10)])
def test_repeated_factors_share_one_expm(cat, name, m, distinct, monkeypatch):
    e = cat[name]
    gens = build_generators("random-general", n=2, dim=8, seed=5)
    ref = [_expm_stepper(e.scheme, e.params, gens)(t) for t in (0.05, 0.3)]
    calls = _counted_expm(monkeypatch)
    got = [apply_scheme(e.scheme, e.params, gens, t) for t in (0.05, 0.3)]
    assert e.scheme.m == m and len(_distinct_factors(e.scheme, e.params)) == distinct
    assert len(calls) == 2 * distinct
    for u, r in zip(got, ref):
        assert np.array_equal(u, r)


# ------------------------------------------------------------ sectors

@pytest.mark.parametrize("length", [4, 6, 8])
def test_chain_sectors_are_popcount_classes(length):
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=length,
                            seed=0)
    sectors = validate._sectors(gens.matrices)
    popcount = np.array([bin(i).count("1") for i in range(gens.dim)])
    want = [np.flatnonzero(popcount == k) for k in range(length + 1)]
    assert [s.tolist() for s in sectors] == [w.tolist() for w in want]
    assert [len(s) for s in sectors] == [math.comb(length, k)
                                         for k in range(length + 1)]


@pytest.mark.parametrize("klass", ["random-general", "random-antihermitian",
                                   "commuting-pair"])
def test_random_sets_are_one_sector(klass):
    gens = build_generators(klass, n=2, dim=12, seed=6)
    (sector,) = validate._sectors(gens.matrices)
    assert sector.tolist() == list(range(12))


def test_permuted_block_diagonal_set_gets_its_blocks_back():
    rng = np.random.default_rng(8)
    sizes = (3, 1, 5, 2)
    dim = sum(sizes)
    mats = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
    blocks, lo = [], 0
    for size in sizes:
        block = list(range(lo, lo + size))
        for m in mats:
            m[np.ix_(block, block)] = (rng.standard_normal((size, size))
                                       + 1j * rng.standard_normal((size, size)))
        blocks.append(block)
        lo += size
    perm = rng.permutation(dim)  # new index perm[i] holds old state i
    shuffled = [np.zeros_like(m) for m in mats]
    for m, out in zip(mats, shuffled):
        out[np.ix_(perm, perm)] = m
    got = validate._sectors(shuffled)
    want = sorted((sorted(perm[b].tolist()) for b in blocks), key=min)
    assert [s.tolist() for s in got] == want


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("name", _CHAIN_SCHEMES)
def test_chain_apply_scheme_matches_unsplit_product(cat, name, length):
    e = cat[name]
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=length,
                            seed=0)
    for t in (0.01, 0.3, 0.7):
        u = apply_scheme(e.scheme, e.params, gens, t)
        ref = _expm_stepper(e.scheme, e.params, gens)(t)
        assert u.shape == (gens.dim, gens.dim)
        assert operator_norm(u - ref) <= 1e-12 * operator_norm(ref)


def test_chain_equal_cost_matches_unsplit_product(cat):
    duo = [cat["n2-p2-sl-m3-leapfrog"], cat["n2-p4-s-m11-opt"]]
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=6, seed=0)
    rows = equal_cost_comparison(duo, gens, total_time=1.0, budget=60)
    exact = expm(gens.total())
    for row, e in zip(rows, duo):
        u = np.linalg.matrix_power(
            _expm_stepper(e.scheme, e.params, gens)(row.t_step), row.steps)
        assert abs(row.error - operator_norm(u - exact)) <= 1e-12 * operator_norm(exact)


@pytest.mark.parametrize("klass,kw", [
    ("random-general", dict(dim=16, seed=3)),
    ("spin-chain-even-odd", dict(chain_length=6, seed=0)),
], ids=["random-general", "chain"])
def test_chunked_errors_match_one_stack(cat, klass, kw, monkeypatch):
    e = cat["n2-p6-sl-m19-opt"]
    gens = build_generators(klass, n=2, **kw)
    whole = scaling_fit(e.scheme, e.params, gens)
    largest = max(len(s) for s in validate._sectors(gens.matrices))
    # ten points of the largest sector a chunk: 28 points take 3 chunks
    monkeypatch.setattr(validate, "_STACK_BYTES", 16 * largest ** 2 * 10)
    stacks = []
    real = validate.operator_norm

    def counted(mat):
        stacks.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(validate, "operator_norm", counted)
    chunked = scaling_fit(e.scheme, e.params, gens)
    assert [s[0] for s in stacks if s[1] == largest] == [10, 10, 8]
    assert [x.hex() for x in chunked.errors] == [x.hex() for x in whole.errors]
    assert chunked == whole


# ------------------------------------------------------- apply_scheme

def test_apply_scheme_at_zero_is_identity(cat):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=6, seed=0)
    u = apply_scheme(e.scheme, e.params, gens, 0.0)
    assert np.allclose(u, np.eye(6), atol=1e-15)


def test_commuting_inputs_are_exact(cat):
    for name in ("n2-p2-sl-m3-leapfrog", "n2-p4-s-m9-mclachlan"):
        e = cat[name]
        gens = build_generators("commuting-pair", n=2, dim=8, seed=5)
        for t in (0.3, 1.0):
            u = apply_scheme(e.scheme, e.params, gens, t)
            err = operator_norm(u - expm(t * gens.total()))
            assert err < 1e-12 * gens.dim


def test_symmetric_scheme_is_unitary_on_antihermitian(cat):
    gens = build_generators("random-antihermitian", n=2, dim=16, seed=2)
    for name in ("n2-p2-sl-m3-leapfrog", "n2-p6-sl-m19-opt"):
        e = cat[name]
        u = apply_scheme(e.scheme, e.params, gens, 0.7)
        assert operator_norm(u.conj().T @ u - np.eye(16)) < 1e-12


def test_mismatched_split_count(cat):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=3, dim=6, seed=0)
    with pytest.raises(ValueError, match="splits 2 terms"):
        apply_scheme(e.scheme, e.params, gens, 0.1)


# -------------------------------------------------------- scaling_fit

@pytest.mark.parametrize("name,p", [
    ("n2-p2-sl-m3-leapfrog", 2),
    ("n2-p4-s-m11-opt", 4),
    ("n2-p6-sl-m19-opt", 6),
    ("n3-p4-se-m21-opt", 4),
])
def test_slope_matches_order(cat, name, p):
    e = cat[name]
    gens = build_generators("random-general", n=e.scheme.n, dim=16, seed=3)
    rep = scaling_fit(e.scheme, e.params, gens)
    assert rep.fitted_slope == pytest.approx(p + 1, abs=0.15)
    assert len(rep.window) >= 5
    assert all(err > 0 for err in rep.errors)


@pytest.mark.parametrize("name,p,length", [
    pytest.param(name, p, length, id=f"{name}-{p}" + ("" if length == 6 else f"-L{length}"))
    for length in (6, 8)
    for name, p in [("n2-p2-sl-m3-leapfrog", 2), ("n2-p4-s-m11-opt", 4), ("n2-p6-sl-m19-opt", 6)]
])
def test_chain_slope_matches_order(cat, name, p, length):
    e = cat[name]
    gens = build_generators("spin-chain-even-odd", n=2, chain_length=length,
                            seed=0)
    rep = scaling_fit(e.scheme, e.params, gens)
    assert rep.fitted_slope == pytest.approx(p + 1, abs=0.15)
    assert len(rep.window) >= 5


@pytest.mark.parametrize("t_lo,t_hi,match", [
    (0.0, 0.7, "t_lo must be positive"),
    (-1.0, 0.7, "t_lo must be positive"),
    (0.5, 0.5, "t_hi must exceed t_lo"),
    (0.7, 3e-3, "t_hi must exceed t_lo"),
    (math.nan, 0.7, "must be finite"),
    (3e-3, math.inf, "must be finite"),
])
def test_scaling_grid_bounds_rejected(cat, t_lo, t_hi, match):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=4, seed=0)
    with pytest.raises(ValueError, match=match):
        scaling_fit(e.scheme, e.params, gens, t_lo=t_lo, t_hi=t_hi)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_apply_scheme_rejects_non_finite_step(cat, t):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=4, seed=0)
    with pytest.raises(ValueError, match="must be finite"):
        apply_scheme(e.scheme, e.params, gens, t)


@pytest.mark.parametrize("total_time", [math.nan, math.inf, 0.0, -1.0])
def test_equal_cost_rejects_bad_total_time(cat, total_time):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=4, seed=0)
    with pytest.raises(ValueError, match="finite and positive"):
        equal_cost_comparison([e], gens, total_time, budget=30)


def test_scaling_window_excludes_floor_and_top(cat):
    e = cat["n2-p6-sl-m19-opt"]
    gens = build_generators("random-general", n=2, dim=16, seed=3)
    rep = scaling_fit(e.scheme, e.params, gens)
    floor = 1e-13 * gens.dim
    for i in rep.window:
        assert floor < rep.errors[i] < 1e-1


def test_no_window_on_commuting_inputs(cat):
    # exact for every t: all errors sit at the roundoff floor
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("commuting-pair", n=2, dim=8, seed=5)
    with pytest.raises(ValueError, match="no valid scaling window"):
        scaling_fit(e.scheme, e.params, gens)


@pytest.mark.parametrize("bad, want", [
    (4, range(5, 13)),  # 4 | 8 valid points: the longer run
    (6, range(0, 6)),   # 6 | 6: the earlier run on a tie
], ids=["longer-run", "tie"])
def test_window_does_not_cross_a_floor_point(bad, want):
    grid = np.geomspace(1e-3, 0.5, 13)
    errors = grid ** 4
    errors[bad] = 0.0  # below the floor, where no log may be taken
    assert validate._stable_window(grid, errors, 1e-14, 1e-1) == tuple(want)


def test_scaling_report_csv(cat):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=8, seed=9)
    rep = scaling_fit(e.scheme, e.params, gens)
    csv = rep.to_csv()
    head, cols, *rows = csv.strip().splitlines()
    assert "seed=9" in head
    assert cols == "t,error"
    assert len(rows) == len(rep.t_grid)


# ---------------------------------------------- equal-cost comparison

def test_equal_cost_ranking_follows_epsilon(cat):
    trio = [cat["n2-p4-sl-m11-suzuki"], cat["n2-p4-s-m11-opt"],
            cat["n2-p4-s-m13-opt"]]
    gens = build_generators("random-general", n=2, dim=16, seed=3)
    rows = equal_cost_comparison(trio, gens, total_time=2.0, budget=430)
    by_label = {r.label: r for r in rows}
    assert by_label["n2-p4-sl-m11-suzuki"].rank == 3
    assert by_label["n2-p4-s-m11-opt"].rank == 2
    assert by_label["n2-p4-s-m13-opt"].rank == 1


def test_equal_cost_leapfrog_versus_optimized(cat):
    duo = [cat["n2-p2-sl-m3-leapfrog"], cat["n2-p2-s-m5-opt"]]
    gens = build_generators("random-general", n=2, dim=16, seed=3)
    rows = equal_cost_comparison(duo, gens, total_time=2.0, budget=120)
    assert rows[1].error < rows[0].error
    assert rows[1].rank == 1
    # both spent about the same number of exponentials
    assert abs(rows[0].cost - rows[1].cost) <= 10


def test_single_scheme_table(cat):
    e = cat["n2-p2-sl-m3-leapfrog"]
    gens = build_generators("random-general", n=2, dim=8, seed=1)
    rows = equal_cost_comparison([e], gens, total_time=1.0, budget=30)
    assert len(rows) == 1
    assert rows[0].rank == 1
    assert rows[0].steps == 10


def test_budget_below_factor_count(cat):
    e = cat["n2-p4-s-m13-opt"]
    gens = build_generators("random-general", n=2, dim=8, seed=1)
    with pytest.raises(ValueError, match="below the factor count"):
        equal_cost_comparison([e], gens, 1.0, budget=12)


def test_comparison_csv_records_seed(cat):
    duo = [cat["n2-p2-sl-m3-leapfrog"], cat["n2-p2-s-m5-opt"]]
    gens = build_generators("random-general", n=2, dim=8, seed=11)
    rows = equal_cost_comparison(duo, gens, 1.0, budget=60)
    csv = comparison_to_csv(rows, gens)
    assert "seed=11" in csv.splitlines()[0]
    assert len(csv.strip().splitlines()) == 4
