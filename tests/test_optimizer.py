"""Manifold solving and multi-start error minimization."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from _naive import (central_difference_jacobian, condition_residual, n_jacobian, n_manifold_solve,
                    n_read_top, n_residual)
from liesplit import constraints, optimizer
from liesplit.catalog import build_scheme, catalog
from liesplit.optimizer import (
    ManifoldError,
    OptimizationProblem,
    _guess_ladder,
    _Manifold,
    _predicted,
    _start_points,
    minimize_epsilon,
    solve_on_manifold,
)
from liesplit.schemes import _product_log, epsilon


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


@pytest.mark.parametrize("route", ["default-chart", "free_slots=()", "solve_on_manifold"])
def test_conditions_outnumbering_slots_have_no_chart(route):
    """S m3 has no slot left to solve for and 2 conditions at order 4:
    every route names both counts in one message."""
    scheme = build_scheme(2, "S", 3)
    calls = {
        "default-chart": lambda: minimize_epsilon(OptimizationProblem(scheme, 4)),
        "free_slots=()": lambda: minimize_epsilon(OptimizationProblem(scheme, 4, free_slots=())),
        "solve_on_manifold": lambda: solve_on_manifold(scheme, 4, {}),
    }
    with pytest.raises(ManifoldError) as err:
        calls[route]()
    assert str(err.value) == "2 active condition(s) against 0 slot(s); no chart exists"


def test_unknown_slot_is_rejected():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ValueError, match="not free slots"):
        solve_on_manifold(scheme, 4, {"w_9": 0.1})


def test_non_finite_guess_raises():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ManifoldError, match="non-finite"):
        solve_on_manifold(scheme, 4, {"w_2": 0.6}, guess=[float("nan")])


def test_mapping_guess_is_read_by_slot_name():
    # keys out of slot order: read by position, these values do not converge
    scheme = build_scheme(2, "SL", 19)
    entry = catalog()["n2-p6-sl-m19-opt"]
    guess = {"w_4": -0.84, "w_3": 0.13, "w_1": 0.19}
    pa = solve_on_manifold(scheme, 6, {"w_2": 0.5553}, guess=guess)
    for slot in guess:
        assert pa.values[slot] == pytest.approx(float(entry.params.values[slot]), abs=1e-12)
    with pytest.raises(ManifoldError):
        solve_on_manifold(scheme, 6, {"w_2": 0.5553}, guess=list(guess.values()))


def test_guess_of_the_wrong_length_is_rejected():
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ValueError, match="guess must assign 1 dependent slot"):
        solve_on_manifold(scheme, 4, {"w_2": 2 / 3}, guess=[0.3, 0.1])


def test_root_where_the_residual_cancels_in_rounding_is_rejected():
    # near the singular chart b_1 = 0 Newton runs to |a_1| ~ 1.9e13, where
    # the compiled residual cancels to 0.0 in rounding; epsilon rejects the
    # point as non-Lie, so the solver must not return it
    scheme = build_scheme(2, "S", 9)
    with pytest.raises(ManifoldError, match="cancel in rounding"):
        solve_on_manifold(scheme, 4, {"b_1": 1.7e-16}, guess=[1.352, -1.27])


def test_overflowing_guess_is_a_manifold_error():
    # the residual overflows at the guess: a typed failure, no RuntimeWarning
    scheme = build_scheme(2, "SL", 11)
    with pytest.raises(ManifoldError, match="non-finite residual at the initial guess"):
        solve_on_manifold(scheme, 4, {"w_2": 0.6}, guess=[1e200])


# ------------------------------------------------- Newton against its oracle

def _outcome(solve, *args):
    try:
        return "root", [v.hex() for v in solve(*args).tolist()]
    except ManifoldError as exc:
        return "error", str(exc)


def _s9_sweep_guesses():
    man = _Manifold(build_scheme(2, "S", 9), 4, ("b_1",))
    problem = OptimizationProblem(man.scheme, 4, free_slots=("b_1",), starts=8, seed=0)
    return man, [(x0, g) for x0, raws in _start_points(problem, 1, 2) for g in raws]


def _sl19_ladder():
    man = _Manifold(build_scheme(2, "SL", 19), 6, ("w_2",))
    # the ladder, and test_mapping_guess_is_read_by_slot_name's guess in
    # slot order (w_1, w_3, w_4) and in its key order
    guesses = _guess_ladder(3) + [[0.19, 0.13, -0.84], [-0.84, 0.13, 0.19]]
    return man, [([0.5553], g) for g in guesses]


def _sl15_root_readings():
    man = _Manifold(build_scheme(2, "SL", 15), 6, ())
    at = [man.system.variables.index(s) for s in man.dependent]
    readings = constraints.analyze_freedom(man.system).real_solutions
    return man, [([], np.array(r)[at]) for r in readings]


def _s9_cancel():
    man = _Manifold(build_scheme(2, "S", 9), 4, ("b_1",))
    return man, [([1.7e-16], [1.352, -1.27])]


@pytest.mark.parametrize("cases", [_s9_sweep_guesses, _sl19_ladder, _sl15_root_readings,
                                   _s9_cancel],
                         ids=["s9-sweep-raw", "sl19-ladder", "sl15-root-readings", "s9-cancel"])
def test_solve_matches_the_sequential_line_search(cases):
    """The batched halving ladder, the power-table residual and Jacobian
    and the LAPACK step give the roots of the one-step-length-at-a-time
    search bit for bit, or fail with the same message."""
    man, pairs = cases()
    outcomes = [_outcome(man.solve, fv, g) for fv, g in pairs]
    assert outcomes == [_outcome(n_manifold_solve, man, fv, g) for fv, g in pairs]
    counts = man.counts
    assert counts["solves"] == len(pairs)
    assert counts["failed"] == sum(kind == "error" for kind, _ in outcomes)
    assert sum(counts["failures"].values()) == counts["failed"]


def test_s9_cancel_case_is_counted_as_spurious_root():
    man, pairs = _s9_cancel()
    with pytest.raises(ManifoldError, match="cancel in rounding"):
        man.solve(*pairs[0])
    assert man.counts["failures"] == {"spurious root": 1}


@pytest.mark.parametrize("template, p, free", [
    ((2, "SL", 11), 4, ("w_2",)), ((2, "S", 9), 4, ("b_1",)), ((2, "SL", 19), 6, ("w_2",))],
    ids=["sl11-one-row", "s9", "sl19"])
def test_batched_rows_equal_rows_at_one_point(template, p, free):
    # one gemv per point: a batch of trial points gives each point's rows
    # bit for bit as ``coeffs @ prod(x ** exps)`` does
    man = _Manifold(build_scheme(*template), p, free)
    points = np.random.default_rng(2).uniform(-1.5, 1.5, (17, len(man.slots)))
    c = man.conditions
    rows = c.rows(c.table(points))
    for x, got in zip(points, rows):
        want = c.coeffs @ np.prod(x ** c.exps, axis=1)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("template, p, exps, coeffs", [
    ((2, "S", 9), 4, ((35, 3), "71561e00e52657a163f8956653c20b1ada7a333730698b15e899c9ed029682d5"),
     ((12, 35), "5b87cdc703472cf369ce1535e658967b3bc7152d0b133062a8c6a201301d4ec5")),
    ((2, "SL", 11), 4, ((21, 2), "10274773c6186ee439dc049ba80866143e11138db698c647f6c94a1864ccf590"),
     ((12, 21), "3d40a9a23817df1ddd90c27ba75c939454c188da2f646f38c3b7afaaf838dbce")),
], ids=["s9", "sl11"])
def test_error_rows_are_pinned_byte_for_byte(template, p, exps, coeffs):
    """The compiled error rows, read off exact 2-D ordering blocks: shape
    and sha256 of the int64 exponents and float64 coefficients, taken
    before the exact kernels summed their products with
    ``polynomials.dot``."""
    compiled = optimizer._error_rows(build_scheme(*template), p).compiled
    for array, dtype, (shape, digest) in ((compiled.exps, np.int64, exps),
                                          (compiled.coeffs, np.float64, coeffs)):
        assert (array.dtype, array.shape) == (dtype, shape)
        assert hashlib.sha256(array.tobytes()).hexdigest() == digest


# ------------------------------------------------------- secant predictor

def test_secant_predictor_is_exact_along_the_chord():
    before = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    root = (np.array([1.0, 0.0]), np.array([2.0, 3.0]), before)
    # two free slots: the move is projected onto the chord's free part
    assert _predicted(root, np.array([3.0, 5.0])).tolist() == [4.0, 7.0]
    assert _predicted(root[:2] + (None,), np.array([3.0, 5.0])).tolist() == [2.0, 3.0]
    same_point = (root[0], np.array([0.0, 0.0]))
    assert _predicted(root[:2] + (same_point,), np.array([3.0, 5.0])).tolist() == [2.0, 3.0]


def test_secant_predictor_starts_newton_nearer_the_root():
    man = _Manifold(build_scheme(2, "S", 9), 4, ("b_1",))
    b = np.array([-0.37]), np.array([-0.36]), np.array([-0.35])
    first = man.solve(b[0], [0.27, -0.03])
    second = man.solve(b[1], first)
    root = (b[1], second, (b[0], first))
    guess = _predicted(root, b[2])
    jacobians = man.counts["jacobians"]
    want = man.solve(b[2], guess)
    predicted_jacobians = man.counts["jacobians"] - jacobians
    assert np.max(np.abs(guess - want)) < 0.1 * np.max(np.abs(second - want))
    # from the last root: the same root to rounding, in more Newton steps
    jacobians = man.counts["jacobians"]
    assert np.max(np.abs(man.solve(b[2], second) - want)) <= 1e-12
    assert man.counts["jacobians"] - jacobians > predicted_jacobians


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


@pytest.fixture(scope="module")
def b1_eight():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1",), starts=8, seed=0)
    return minimize_epsilon(problem)


def test_result_json_counts_sweep_starts_only(b1_eight):
    polished = [d for d in b1_eight.diagnostics if "polish" in d]
    assert polished
    assert json.loads(b1_eight.to_json())["starts"] == 8


def test_search_record_names_the_objective(b1_eight):
    record = b1_eight.diagnostics[-1]
    # perfbench reads start, polish and nfev off the other records
    assert set(record) == {"objective", "compile_s", "compiled_evals",
                           "epsilon_calls", "route"}
    assert record["objective"] == "compiled"
    assert record["route"] == "multi-start"
    assert record["compile_s"] >= 0.0
    # epsilon vets each polish seed and re-measures each minimum; the
    # compiled rows take every other probe
    polished = [d for d in b1_eight.diagnostics if "polish" in d]
    assert record["epsilon_calls"] == 2 * len(polished)
    assert record["compiled_evals"] > sum(d["nfev"] for d in polished) // 2


def test_newton_record_counts_the_solves(b1_eight):
    record = b1_eight.diagnostics[-2]
    assert set(record) == {"newton"}
    newton = record["newton"]
    assert set(newton) == {"solves", "failed", "failures", "jacobians",
                           "residual_points", "residual_calls"}
    again = minimize_epsilon(b1_eight.problem).diagnostics[-2]["newton"]
    assert again == newton
    assert 0 < newton["failed"] < newton["solves"]
    assert sum(newton["failures"].values()) == newton["failed"]
    assert newton["residual_calls"] <= newton["residual_points"]
    # a full step that is taken costs one point: most calls are one point
    assert newton["residual_points"] < 3 * newton["residual_calls"]


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


# --------------------------------------------- eigenvalue route of root searches

def _replace_report(monkeypatch, **changes):
    real = optimizer.analyze_freedom

    def replaced(cs):
        return dataclasses.replace(real(cs), **changes)

    monkeypatch.setattr(optimizer, "analyze_freedom", replaced)


def _sl15_root_search():
    return minimize_epsilon(OptimizationProblem(build_scheme(2, "SL", 15), 6, free_slots=(),
                                                starts=6, seed=0, bounds=(-2.0, 2.0)))


def test_root_search_reads_every_real_root():
    res = _sl15_root_search()
    record = res.diagnostics[-1]
    assert record["route"] == "eigenvalue"
    assert record["epsilon_calls"] == 3
    newton = res.diagnostics[-2]["newton"]
    assert newton["solves"] == 3 and newton["failed"] == 0 and newton["failures"] == {}
    assert not any("start" in d for d in res.diagnostics)
    assert [float(rep.epsilon) for _, rep in res.local_minima] == pytest.approx(
        [0.445732, 5.716708, 5.881016], rel=1e-5)


def test_root_search_makes_no_normal_form(monkeypatch):
    # the analysis owns the quotient ring: once it is memoized, the root
    # search only polishes and measures its readings
    scheme = build_scheme(2, "SL", 15)
    constraints.analyze_freedom(constraints.symbolic_log(scheme, 6))

    def refuse(*args, **kwargs):
        raise AssertionError("the root search reduced a polynomial")

    monkeypatch.setattr(constraints.GroebnerBasis, "reduce", refuse)
    monkeypatch.setattr(constraints, "normal_form", refuse)
    res = _sl15_root_search()
    assert [float(rep.epsilon) for _, rep in res.local_minima] == pytest.approx(
        [0.445732, 5.716708, 5.881016], rel=1e-5)


@pytest.mark.parametrize("template, p", [
    ((2, "SL", 7), 4), ((2, "S", 7), 4), ((3, "SL", 13), 4)],
    ids=["sl7-p4", "s7-p4", "n3-sl13-p4"])
def test_root_search_finds_the_triple_jump(template, p):
    scheme = build_scheme(*template)
    res = minimize_epsilon(OptimizationProblem(scheme, p, starts=16, seed=0))
    assert res.diagnostics[-1]["route"] == "eigenvalue"
    assert len(res.local_minima) == 1
    # the one real root of the Forest-Ruth / Yoshida triple jump
    outer = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    assert res.best[0].values[scheme.free_slots[-1]] == pytest.approx(outer, abs=1e-12)


@pytest.mark.parametrize("template, p", [
    ((2, "SL", 9), 4), ((3, "SL", 17), 4), ((2, "N", 5), 3)],
    ids=["sl9-p4", "n3-sl17-p4", "n5-p3"])
def test_root_search_without_real_roots_raises(template, p):
    problem = OptimizationProblem(build_scheme(*template), p, starts=4, seed=0)
    with pytest.raises(ManifoldError, match="none of the 2 complex solutions"):
        minimize_epsilon(problem)


def test_root_count_mismatch_raises_with_both_counts(monkeypatch):
    _replace_report(monkeypatch, real_solution_count=2)
    with pytest.raises(ManifoldError, match=r"^3 distinct real root.*against 2 real"):
        _sl15_root_search()


@pytest.mark.parametrize("changes, message", [
    (dict(zero_dimensional=False, free_count=1, suggested_free_slots=("w_4",)),
     r"leave 1 free direction\(s\); pin some of \('w_4',\)"),
    (dict(solution_count=0, real_solution_count=0), "have no solution"),
    (dict(real_solutions=None), "the 39 complex solutions .* include a multiple one"),
], ids=["positive-dimensional", "trivial", "multiple"])
def test_root_search_without_finitely_many_solutions_raises(monkeypatch, changes, message):
    _replace_report(monkeypatch, **changes)
    with pytest.raises(ManifoldError, match=message):
        _sl15_root_search()


def test_root_search_without_groebner_basis_raises(monkeypatch):
    def guarded(cs):
        raise RuntimeError("Groebner basis exceeded 400 elements")

    monkeypatch.setattr(optimizer, "analyze_freedom", guarded)
    with pytest.raises(ManifoldError, match="no Gröbner analysis.*exceeded 400"):
        _sl15_root_search()


def test_root_epsilon_rejects_raises_naming_it(monkeypatch):
    real = optimizer.epsilon
    calls = []

    def rejecting(scheme, params, p):
        calls.append(params)
        if len(calls) == 2:
            raise ValueError("scheme does not reach order 6")
        return real(scheme, params, p)

    monkeypatch.setattr(optimizer, "epsilon", rejecting)
    with pytest.raises(ManifoldError, match=r"epsilon rejects the real root \{'w_1': .*"
                                            r"does not reach order 6"):
        _sl15_root_search()
    assert len(calls) == 2


def test_root_search_reuses_the_callers_analysis(monkeypatch):
    constraints._analyze.cache_clear()
    calls = []
    real = constraints.buchberger_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constraints, "buchberger_basis", counting)
    scheme = build_scheme(2, "SL", 15)
    report = constraints.analyze_freedom(constraints.symbolic_log(scheme, 6))
    res = minimize_epsilon(OptimizationProblem(scheme, 6, free_slots=(), starts=6, seed=0))
    assert len(calls) == 1
    assert len(res.local_minima) == report.real_solution_count


def test_explicit_start_list():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1",), starts=[[-0.36]], seed=0)
    pa, rep = minimize_epsilon(problem).best
    assert float(rep.epsilon) == pytest.approx(0.0681608, rel=1e-5)
    assert pa.values["b_1"] == pytest.approx(-0.359059, abs=1e-5)


def test_every_start_failing_raises():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1",), starts=3, seed=0,
                                  bounds=(400.0, 401.0))
    with pytest.raises(ManifoldError, match="every start failed"):
        minimize_epsilon(problem)


def _failing_polishes(monkeypatch, failing) -> list:
    """Make the Nelder-Mead polishes numbered in ``failing`` (from 0)
    report ``success=False`` where they stop; returns every polish's
    stopping point."""
    real, stops = optimizer._nelder_mead, []

    def patched(*args, **kwargs):
        x, fun, nfev, success = real(*args, **kwargs)
        if len(stops) in failing:
            success = False
        stops.append(np.asarray(x, float))
        return x, fun, nfev, success

    monkeypatch.setattr(optimizer, "_nelder_mead", patched)
    return stops


def test_unconverged_polish_is_not_a_minimum(monkeypatch, b1_eight):
    stops = _failing_polishes(monkeypatch, {0})
    result = minimize_epsilon(b1_eight.problem)
    polished = [d for d in result.diagnostics if "polish" in d]
    assert [d["converged"] for d in polished] == [False] + [True] * (len(polished) - 1)
    # the other polishes each stop at their own minimum, which stays
    assert len(result.local_minima) == len(b1_eight.local_minima) - 1
    b1 = [pa.values["b_1"] for pa, _ in result.local_minima]
    assert all(abs(v - stops[0][0]) > 1e-3 for v in b1)
    kept = {pa.values["b_1"] for pa, _ in b1_eight.local_minima}
    assert set(b1) <= kept


def test_every_polish_unconverged_raises(monkeypatch, b1_eight):
    _failing_polishes(monkeypatch, range(100))
    with pytest.raises(ManifoldError, match="every start failed"):
        minimize_epsilon(b1_eight.problem)


def test_duplicate_free_slots_rejected():
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1", "b_1"), starts=2,
                                  seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        minimize_epsilon(problem)


def _s9_problem(**kw):
    return OptimizationProblem(build_scheme(2, "S", 9), 4, free_slots=("b_1",), **kw)


@pytest.mark.parametrize("field, value, message", [
    ("starts", -3, "starts must be a positive count, got -3"),
    ("starts", 0, "starts must be a positive count, got 0"),
    ("starts", True, "starts must be a positive count or a non-empty list"),
    ("bounds", (1.0, -1.0), r"bounds must be finite numbers lo < hi, got \(1.0, -1.0\)"),
    ("bounds", (float("nan"), 1.0), r"bounds must be finite numbers lo < hi, got \(nan, 1.0\)"),
    ("seed", -1, "seed must be a non-negative int, got -1"),
    ("seed", 1.5, "seed must be a non-negative int, got 1.5"),
], ids=["negative-starts", "zero-starts", "bool-starts", "reversed-bounds", "nan-bound",
        "negative-seed", "float-seed"])
def test_problem_rejects_bad_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        _s9_problem(**{"starts": 8, field: value})


def test_explicit_start_of_the_wrong_length_is_rejected_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(optimizer, "_halton", refuse)
    problem = _s9_problem(starts=[[-0.36, 0.1]])
    with pytest.raises(ValueError, match=r"^starts must give 1 value\(s\) each, one per "
                                         r"free slot, not 2"):
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

        r, want = n_residual(man, dv, fv), oracle(dv)
        assert r.shape == want.shape == (k,)
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(r - want), initial=0.0) <= 1e-10 * scale
        jac, want = n_jacobian(man, dv, fv), central_difference_jacobian(oracle, dv)
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


# ----------------------------------------------------- compiled error rows

@pytest.mark.parametrize("template, p, free", [
    ((2, "S", 9), 4, ("b_1",)),
    ((2, "SL", 11), 4, ("w_2",)),
    ((3, "SE", 17), 4, ("u_2",)),
], ids=["s9-p4-b_1", "sl11-p4-w_2", "n3-se17-p4-u_2"])
def test_compiled_error_sums_match_epsilon(template, p, free):
    scheme = build_scheme(*template)
    rows = optimizer._error_rows(scheme, p)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(12):
        pin = dict(zip(free, rng.uniform(-1.5, 1.5, len(free)).tolist()))
        try:
            pa = solve_on_manifold(scheme, p, pin)
            rep = epsilon(scheme, pa, p)
        except (ManifoldError, ValueError, RuntimeError):
            continue
        x = [pa.values[s] for s in scheme.free_slots]
        want = np.array([rep.sums_per_ordering[o] for o in rows.orderings])
        got = rows.sums(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)
        assert rows.value(x) == pytest.approx(rep.epsilon, rel=1e-10)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("template, p", [((2, "S", 9), 4), ((2, "SL", 11), 4), ((3, "SE", 17), 4)],
                         ids=["s9-p4", "sl11-p4", "n3-se17-p4"])
def test_error_rows_match_per_ordering_reads(template, p):
    """The compiled rows equal those compiled from a symbolic log read one
    ordering at a time, each in its own basis: same orderings, same
    monomials, bit-identical coefficients."""
    scheme = build_scheme(*template)
    rows = optimizer._error_rows(scheme, p)
    top = n_read_top(scheme, _product_log(scheme, None, p + 1), p + 1)
    want = optimizer._Compiled([c for pairs in top.values() for _, c in pairs],
                               len(scheme.free_slots))
    assert rows.orderings == tuple(top)
    assert rows.compiled.exps.tolist() == want.exps.tolist()
    assert rows.compiled.coeffs.shape == want.coeffs.shape
    assert rows.compiled.coeffs.tobytes() == want.coeffs.tobytes()


def test_error_rows_built_once_per_scheme_and_order(monkeypatch):
    optimizer._error_rows.cache_clear()
    products = []
    real = optimizer._product_log

    def counting(*args):
        products.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "_product_log", counting)
    problem = OptimizationProblem(build_scheme(2, "S", 9), 4,
                                  free_slots=("b_1",), starts=2, seed=0)
    for _ in range(2):
        assert minimize_epsilon(problem).diagnostics[-1]["objective"] == "compiled"
    assert len(products) == 1
    # a root search has no free direction: epsilon throughout, no rows
    root = minimize_epsilon(OptimizationProblem(
        build_scheme(2, "SL", 15), 6, free_slots=(), starts=6, seed=0,
        bounds=(-2.0, 2.0)))
    assert len(products) == 1
    assert optimizer._error_rows.cache_info().currsize == 1
    record = root.diagnostics[-1]
    assert record["objective"] == "epsilon"
    assert record["compile_s"] == 0.0 and record["compiled_evals"] == 0
    assert record["epsilon_calls"] > 0


# ------------------------------------------- the Halton and Nelder-Mead ports

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11, 42, 1234])
def test_halton_matches_scipy(seed):
    from scipy.stats import qmc

    for d in range(1, 30):
        for n in (1, 6, 8, 200, 2000):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert np.array_equal(optimizer._halton(d, n, seed), want), (d, n)


def _quadratic(x):
    return float((x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.7) ** 2 + 0.5 * x[0] * x[1])


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled(x):
    # infinite left of x_0 = 0.2, where the unconstrained minimum lies
    return float("inf") if x[0] < 0.2 else float(np.sum((x - [0.1, -0.4]) ** 2))


def _kinked(x):
    return float(abs(x[0] - 0.25) + 3.0 * abs(x[0] + 0.1))


@pytest.mark.parametrize("func, x0, options", [
    (_quadratic, [1.0, 0.0], dict(xatol=1e-12, fatol=1e-12, maxiter=400, maxfev=600)),
    (_rosenbrock, [-1.2, 1.0, 0.5], dict(xatol=1e-10, fatol=1e-10, maxiter=1200, maxfev=1800)),
    (_walled, [0.9, 0.5], dict(xatol=1e-12, fatol=1e-12, maxiter=400, maxfev=600)),
    (_kinked, [0.0], dict(xatol=1e-12, fatol=1e-12, maxiter=400, maxfev=600)),
    (_rosenbrock, [-1.2, 1.0], dict(xatol=1e-12, fatol=1e-12, maxiter=400, maxfev=57)),
    (_rosenbrock, [-1.2, 1.0], dict(xatol=1e-12, fatol=1e-12, maxiter=31, maxfev=600)),
    (_quadratic, [1.0, 0.0], dict(xatol=1e-12, fatol=1e-12, maxiter=400, maxfev=2)),
], ids=["quadratic", "rosenbrock-3d", "infinite-part", "kinked-1d-from-zero", "maxfev",
        "maxiter", "maxfev-in-initial-simplex"])
def test_nelder_mead_matches_scipy(func, x0, options):
    """The same probes in the same order, and the same point, value,
    evaluation count and verdict as ``scipy.optimize.minimize``."""
    from scipy.optimize import minimize

    def recorded(probes):
        def objective(x):
            value = func(x)
            probes.append(x.tobytes())
            x[:] = np.nan  # each probe gets its own copy of the point
            return value
        return objective

    want_probes, got_probes = [], []
    want = minimize(recorded(want_probes), np.array(x0), method="Nelder-Mead", options=options)
    x, fun, nfev, success = optimizer._nelder_mead(recorded(got_probes), np.array(x0), **options)
    assert got_probes == want_probes
    assert x.tobytes() == want.x.tobytes()
    assert fun == want.fun
    assert (nfev, success) == (want.nfev, want.success)
    if options["maxfev"] < 100 or options["maxiter"] < 100:
        assert not success
