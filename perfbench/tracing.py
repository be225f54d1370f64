"""Spans around the calls into each ``liesplit`` layer, for the traced run.

``Tracer.install`` replaces each traced function at the attribute its
callers resolve (a module global or a class method) with a wrapper that
records a span; ``Tracer.uninstall`` puts the originals back.  Spans are
kept in flat arrays in memory (name, start, end, parent span, pass and
call id) and written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

from liesplit import _dense, constraints, free_algebra, hall, lattice
from liesplit import catalog as catalog_module
from liesplit import optimizer, polynomials, schemes, validate

# span name -> the attributes that resolve to the traced function.  The
# name's prefix up to the first dot is the layer.
SITES = {
    "hall.build_hall_basis": [(hall, "build_hall_basis"), (schemes, "build_hall_basis"),
                              (constraints, "build_hall_basis")],
    "hall.float_solver": [(hall.HallBasis, "float_solver")],
    "hall.exact_solver": [(hall.HallBasis, "exact_solver")],
    "hall.coords_from_dense": [(hall.HallBasis, "coords_from_dense")],
    "hall.lie_coordinates": [(hall, "lie_coordinates"), (schemes, "lie_coordinates"),
                             (constraints, "lie_coordinates")],
    "dense.dense_product_log": [(_dense, "dense_product_log"),
                                 (schemes, "dense_product_log")],
    "schemes.epsilon": [(schemes, "epsilon"), (optimizer, "epsilon")],
    "schemes.log_scheme": [(schemes, "log_scheme"), (constraints, "log_scheme")],
    "free_algebra.mul": [(free_algebra, "mul")],
    "free_algebra.exp": [(free_algebra, "exp"), (schemes, "exp"), (constraints, "exp")],
    "free_algebra.log": [(free_algebra, "log"), (schemes, "log"), (constraints, "log")],
    "polynomials.evaluate": [(polynomials.MultiPoly, "evaluate")],
    "polynomials.normal_form": [(polynomials, "normal_form"), (constraints, "normal_form")],
    "polynomials.buchberger_basis": [(polynomials, "buchberger_basis"),
                                     (constraints, "buchberger_basis")],
    "constraints.symbolic_log": [(constraints, "symbolic_log"), (optimizer, "symbolic_log")],
    "constraints.analyze_freedom": [(constraints, "analyze_freedom")],
    "optimizer.minimize_epsilon": [(optimizer, "minimize_epsilon")],
    "validate.expm": [(validate, "expm")],
    "validate.operator_norm": [(validate, "operator_norm")],
    "validate.apply_scheme": [(validate, "apply_scheme")],
    "validate.scaling_fit": [(validate, "scaling_fit")],
    "validate.equal_cost_comparison": [(validate, "equal_cost_comparison")],
    "catalog.catalog": [(catalog_module, "catalog")],
    "lattice.partition": [(lattice, "partition"), (validate, "partition")],
}
LAYERS = ("hall", "dense", "schemes", "free_algebra", "polynomials",
          "constraints", "optimizer", "validate")
BENCH_SPANS = ("bench.pass", "bench.call", "bench.setup")
# Counts that must repeat exactly for one workload and seed.
DETERMINISTIC = ("hall.solver_builds", "dense.products_per_epsilon",
                 "polynomials.evaluate_calls", "constraints.symbolic_log_calls",
                 "optimizer.starts", "validate.expm_calls")
# Metrics about filling caches come from the cold pass; those about
# set-up from the set-up span; every other one from the warm passes.
COLD_METRICS = ("hall.basis_keys", "hall.solver_builds", "hall.solver_build_s")
SETUP_METRICS = ("catalog.build_s", "lattice.partition_s")


class Tracer:
    def __init__(self):
        self.names = list(SITES) + list(BENCH_SPANS)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.call_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_pass = -1
        self.current_call = -1
        self._saved = []
        # per pass: Hall basis keys requested, solver-building spans,
        # zero normal forms, optimizer diagnostics
        self.basis_keys: dict[int, set] = {}
        self.build_spans: list[int] = []
        self._seen_solvers: dict[int, tuple] = {}
        self.zero_forms: dict[int, int] = {}
        self.diagnostics: dict[int, list] = {}

    # -- recording ----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.call_id.append(self.current_call)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id[name])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._id[name]
        # a method _after_<function> sees each call's arguments and result
        after = getattr(self, "_after_" + name.split(".")[1], None)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(idx, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _after_build_hall_basis(self, idx, args, basis):
        self.basis_keys.setdefault(self.current_pass, set()).add(
            (basis.alphabet, basis.max_degree, basis.ordering))

    def _after_float_solver(self, idx, args, result, kind="float"):
        basis, degree = args[0], args[1]
        # keep the basis alive so its id names it for the whole run
        _, built = self._seen_solvers.setdefault(id(basis), (basis, set()))
        if (kind, degree) not in built:
            built.add((kind, degree))
            self.build_spans.append(idx)

    def _after_exact_solver(self, idx, args, result):
        self._after_float_solver(idx, args, result, kind="exact")

    def _after_normal_form(self, idx, args, result):
        if not result:
            self.zero_forms[self.current_pass] = self.zero_forms.get(self.current_pass, 0) + 1

    def _after_minimize_epsilon(self, idx, args, result):
        self.diagnostics.setdefault(self.current_pass, []).extend(result.diagnostics)

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SITES.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "pass_id": np.frombuffer(self.pass_id, dtype=np.int32),
                "call_id": np.frombuffer(self.call_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer metrics of one pass (or of the set-up, pass -1)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        sel = a["pass_id"] == pass_id
        names = a["name"][sel]

        def count(n):
            return int(np.count_nonzero(names == self._id[n]))

        def incl(n):
            return float(dur[sel][names == self._id[n]].sum())

        def own(*ns):
            return float(sum(self_time[sel][names == self._id[n]].sum() for n in ns))

        eps_calls = count("schemes.epsilon")
        products = self._products_under_epsilon(a, sel)
        diags = self.diagnostics.get(pass_id, [])
        starts = [d for d in diags if "start" in d]
        nf_calls = count("polynomials.normal_form")
        builds = [i for i in self.build_spans if a["pass_id"][i] == pass_id]
        m = {
            "hall.basis_calls": count("hall.build_hall_basis"),
            "hall.basis_keys": len(self.basis_keys.get(pass_id, ())),
            "hall.solver_builds": len(builds),
            "hall.solver_build_s": float(dur[builds].sum()),
            "hall.coords_calls": count("hall.coords_from_dense") + count("hall.lie_coordinates"),
            "hall.coords_s": own("hall.coords_from_dense", "hall.lie_coordinates"),
            "dense.product_log_calls": count("dense.dense_product_log"),
            "dense.product_log_s": incl("dense.dense_product_log"),
            "dense.products_per_epsilon": products / eps_calls if eps_calls else 0.0,
            "schemes.epsilon_calls": eps_calls,
            "schemes.epsilon_self_s": own("schemes.epsilon"),
            "schemes.log_scheme_calls": count("schemes.log_scheme"),
            "free_algebra.mul_calls": count("free_algebra.mul"),
            "free_algebra.mul_s": incl("free_algebra.mul"),
            "free_algebra.exp_s": incl("free_algebra.exp"),
            "free_algebra.log_s": incl("free_algebra.log"),
            "polynomials.evaluate_calls": count("polynomials.evaluate"),
            "polynomials.evaluate_s": incl("polynomials.evaluate"),
            "polynomials.buchberger_s": incl("polynomials.buchberger_basis"),
            "polynomials.normal_form_calls": nf_calls,
            "polynomials.normal_form_zero_ratio":
                self.zero_forms.get(pass_id, 0) / nf_calls if nf_calls else 0.0,
            "constraints.symbolic_log_calls": count("constraints.symbolic_log"),
            "constraints.symbolic_log_s": incl("constraints.symbolic_log"),
            "constraints.analyze_freedom_s": incl("constraints.analyze_freedom"),
            "optimizer.starts": len(starts),
            "optimizer.converged_ratio":
                sum(bool(d["converged"]) for d in starts) / len(starts) if starts else 0.0,
            "optimizer.polish_nfev": sum(d.get("nfev", 0) for d in diags),
            "optimizer.epsilon_per_start": self._epsilon_under_optimizer(a, sel) / len(starts)
                if starts else 0.0,
            "validate.expm_calls": count("validate.expm"),
            "validate.expm_s": incl("validate.expm"),
            "validate.norm_s": incl("validate.operator_norm"),
            "validate.apply_scheme_s": incl("validate.apply_scheme"),
            "catalog.build_s": incl("catalog.catalog"),
            "lattice.partition_s": incl("lattice.partition"),
        }
        for layer in LAYERS:
            ids = [n for n in SITES if n.split(".")[0] == layer]
            m[f"{layer}.self_s"] = own(*ids)
        return m

    def _under(self, a, sel, child: str, ancestor: str) -> int:
        """Spans named ``child`` in the selection with an ``ancestor`` span."""
        anc_id, child_id = self._id[ancestor], self._id[child]
        name, parent = self.name, self.parent
        inside = bytearray(len(name))
        # parents are recorded before their children
        for i in np.flatnonzero(sel).tolist():
            p = parent[i]
            inside[i] = p >= 0 and (name[p] == anc_id or inside[p])
        hits = np.frombuffer(bytes(inside), dtype=np.uint8).astype(bool)
        return int(np.count_nonzero(hits & sel & (a["name"] == child_id)))

    def _products_under_epsilon(self, a, sel) -> int:
        return self._under(a, sel, "dense.dense_product_log", "schemes.epsilon")

    def _epsilon_under_optimizer(self, a, sel) -> int:
        return self._under(a, sel, "schemes.epsilon", "optimizer.minimize_epsilon")

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1, default=str))


def combine(cold: dict, setup: dict, warm: list[dict]) -> dict:
    """One value per metric: cache metrics from the cold pass, set-up
    metrics from the set-up, the median over warm passes for the rest."""
    out = {}
    for key in warm[0]:
        if key in COLD_METRICS:
            out[key] = cold[key]
        elif key in SETUP_METRICS:
            out[key] = setup[key]
        elif isinstance(warm[0][key], int):
            out[key] = statistics.median_low(w[key] for w in warm)
        else:
            out[key] = statistics.median(w[key] for w in warm)
    return out
