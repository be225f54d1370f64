"""Manifold solving and multi-start error minimization."""

import json

import numpy as np
import pytest

from _naive import central_difference_jacobian, condition_residual
from liesplit import optimizer
from liesplit.catalog import build_scheme, catalog
from liesplit.optimizer import (
    ManifoldError,
    OptimizationProblem,
    _Manifold,
    minimize_epsilon,
    solve_on_manifold,
)
from liesplit.schemes import epsilon


# ----------------------------------------------------- solve_on_manifold

def test_pinned_chart_reproduces_catalog_point():
    scheme = build_scheme(2, "SL", 11)
    entry = catalog()["n2-p4-sl-m11-opt"]
    w2 = float(entry.params.values["w_2"])
    pa = solve_on_manifold(scheme, 4, {"w_2": w2})
    assert pa.values["w_1"] == pytest.approx(
        float(entry.params.values["w_1"]), rel=1e-12)
    assert pa.provenance == "manifold-newton"
    assert not pa.is_exact()


def test_pinned_chart_at_rational_value():
    # w_1 is a smooth function of the pin; at w_2 = 2/3 it lands here
    scheme = build_scheme(2, "SL", 11)
    pa = solve_on_manifold(scheme, 4, {"w_2": 2 / 3})
    assert pa.values["w_1"] == pytest.approx(0.26160060887008718, abs=1e-12)


def test_pin_result_satisfies_order_conditions():
    scheme = build_scheme(2, "SL", 19)
    pa = solve_on_manifold(scheme, 6, {"w_2": 0.5553})
    rep = epsilon(scheme, pa, 6)
    assert rep.p == 6
    assert all(r < 1e-10 for d, r in rep.order_residuals.items() if d <= 6)


def test_no_active_conditions_is_identity():
    # at p = 2 the symmetric five-factor template is fully determined by
    # its closures, so the chart solve has nothing to do
    scheme = build_scheme(2, "S", 5)
    pa = solve_on_manifold(scheme, 2, {"a_1": 0.3})
    assert set(pa.values) == {"a_1"}
    assert pa.values["a_1"] == pytest.approx(0.3)


def test_wrong_chart_size_is_rejected():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ManifoldError, match="choose 1 free slot"):
        solve_on_manifold(scheme, 4, {"w_1": 0.1, "w_2": 0.2})


def test_unknown_slot_is_rejected():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ValueError, match="not free slots"):
        solve_on_manifold(scheme, 4, {"w_9": 0.1})


def test_non_finite_guess_raises():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ManifoldError, match="non-finite"):
        solve_on_manifold(scheme, 4, {"w_2": 0.6}, guess=[float("nan")])


def test_root_where_the_residual_cancels_in_rounding_is_rejected():
    # near the singular chart b_1 = 0 Newton runs to |a_1| ~ 1.9e13, where
    # the compiled residual cancels to 0.0 in rounding; epsilon rejects the
    # point as non-Lie, so the solver must not return it
    scheme = build_scheme(2, "S", 9)
    with pytest.raises(ManifoldError, match="cancel in rounding"):
        solve_on_manifold(scheme, 4, {"b_1": 1.7e-16}, guess=[1.352, -1.27])


# ----------------------------------------------------- minimize_epsilon

@pytest.fixture(scope="module")
def m9_result():
    scheme = build_scheme(2, "S", 9)
    problem = OptimizationProblem(scheme, 4, free_slots=("b_1",),
                                  starts=24, seed=0)
    return minimize_epsilon(problem)


def test_recovers_both_m9_minima(m9_result):
    entry = catalog()["n2-p4-s-m9-opt"]
    best_pa, best_rep = m9_result.best
    assert best_rep.epsilon == pytest.approx(float(entry.epsilon), rel=1e-4)
    assert abs(best_pa.values["b_1"]
               - float(entry.params.values["b_1"])) < 1e-4
    assert "<".join(best_rep.ordering_best) in entry.orderings
    # the runner-up basin sits on the other side of the b_1 axis
    second = m9_result.local_minima[1][1]
    assert second.epsilon == pytest.approx(0.069172, rel=1e-3)
    assert m9_result.local_minima[1][0].values["b_1"] == pytest.approx(
        0.604175, abs=1e-4)


def test_m9_minima_are_pinned(m9_result):
    # the polish from b_1 = -0.078 passes b_1 = 0, where the chart is
    # singular and Newton can reach a spurious root; the 0.873422 minimum
    # is found only if that root does not warm-start the next probe
    eps = [rep.epsilon for _, rep in m9_result.local_minima]
    assert eps == pytest.approx([0.0681608, 0.0691716, 0.873422, 1.02933,
                                 5.71424], rel=1e-5)


def test_minima_are_sorted_and_separated(m9_result):
    eps = [rep.epsilon for _, rep in m9_result.local_minima]
    assert eps == sorted(eps)
    pts = [tuple(pa.values[k] for k in sorted(pa.values))
           for pa, _ in m9_result.local_minima]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert max(abs(a - b) for a, b in zip(pts[i], pts[j])) > 1e-5


def test_result_json_round_trips(m9_result):
    doc = json.loads(m9_result.to_json())
    assert doc["scheme"]["family"] == "S"
    assert doc["scheme"]["m"] == 9
    assert doc["order"] == 4
    assert doc["seed"] == 0
    assert len(doc["minima"]) == len(m9_result.local_minima)
    assert doc["minima"][0]["epsilon"] == m9_result.best[1].epsilon


def test_same_seed_same_result():
    def run():
        problem = OptimizationProblem(build_scheme(2, "SL", 11), 4,
                                      starts=16, seed=7)
        return minimize_epsilon(problem)

    r1, r2 = run(), run()
    assert len(r1.local_minima) == len(r2.local_minima)
    for (pa, ra), (pb, rb) in zip(r1.local_minima, r2.local_minima):
        assert pa.values == pb.values
        assert ra.epsilon == rb.epsilon


def test_zero_free_directions_enumerates_real_solutions():
    # the fifteen-factor p = 6 system is zero-dimensional with three real
    # solutions; with no free direction the multi-start degenerates to a
    # root search and should find all of them
    scheme = build_scheme(2, "SL", 15)
    problem = OptimizationProblem(scheme, 6, free_slots=(), starts=150,
                                  seed=1, bounds=(-2.0, 2.0))
    res = minimize_epsilon(problem)
    assert len(res.local_minima) == 3
    best_pa, best_rep = res.best
    yoshida = catalog()["n2-p6-sl-m15-yoshida"]
    for k, v in yoshida.params.values.items():
        assert best_pa.values[k] == pytest.approx(float(v), abs=1e-9)
    assert best_rep.epsilon == pytest.approx(float(yoshida.epsilon),
                                             rel=1e-3)
    others = sorted(rep.epsilon for _, rep in res.local_minima)[1:]
    assert others == pytest.approx([5.716708, 5.881016], rel=1e-4)


def test_every_start_failing_raises():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1",), starts=3, seed=0,
                                  bounds=(400.0, 401.0))
    with pytest.raises(ManifoldError, match="every start failed"):
        minimize_epsilon(problem)


def test_duplicate_free_slots_rejected():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1", "b_1"), starts=2,
                                  seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        minimize_epsilon(problem)


# ----------------------------------------------------- compiled conditions

@pytest.mark.parametrize("template, p, free", [
    ((2, "SL", 15), 6, ()),
    ((2, "SL", 11), 4, ("w_2",)),
    ((2, "S", 9), 4, ("b_1",)),
    ((2, "S", 5), 2, ("a_1",)),  # no active condition
], ids=["sl15-p6", "sl11-p4-w_2", "s9-p4-b_1", "s5-p2-a_1"])
def test_compiled_conditions_match_generic_evaluation(template, p, free):
    scheme = build_scheme(*template)
    man = _Manifold(scheme, p, free)
    k = len(man.dependent)
    rng = np.random.default_rng(5)
    points = [(rng.uniform(-1, 1, len(free)), rng.uniform(-1, 1, k))
              for _ in range(4)]
    # a dependent coordinate exactly 0: lowering its absent exponents in
    # the Jacobian must not form 0**-1
    zeroed = points[0][1].copy()
    zeroed[:1] = 0.0
    points.append((points[0][0], zeroed))
    conditions = condition_residual(scheme, p)
    for fv, dv in points:
        def oracle(d):
            return conditions(man.params(fv, d))

        r, want = man.residual(dv, fv), oracle(dv)
        assert r.shape == want.shape == (k,)
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(r - want), initial=0.0) <= 1e-10 * scale
        jac, want = man._jacobian(dv, fv), central_difference_jacobian(oracle, dv)
        assert jac.shape == want.shape == (k, k)
        assert np.all(np.isfinite(jac))
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(jac - want), initial=0.0) <= 1e-10 * scale


def test_conditions_built_once_per_scheme_and_order(monkeypatch):
    optimizer._conditions.cache_clear()
    calls = []
    real = optimizer.symbolic_log

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "symbolic_log", counting)
    scheme = build_scheme(2, "SL", 11)
    res = minimize_epsilon(OptimizationProblem(scheme, 4, starts=2, seed=0))
    res.to_json()
    solve_on_manifold(scheme, 4, {"w_2": 0.6})
    assert len(calls) == 1
