"""The two benchmark workloads: inputs from a seed, and one pass of calls.

A workload is built in two steps.  ``setup(name, seed)`` builds the
inputs (schemes, generator matrices, the spin-chain partition);
``calls(name, inputs)`` lists the public calls of one pass as
``(label, thunk)`` pairs.  Each thunk looks its library function up as a
module attribute at call time, so the traced run can wrap it, and
returns a plain result that ``oracles.check_<workload>`` understands.

``catalog`` is the paper's central table.  ``design`` makes the calls of
designing and checking a new scheme: order conditions and their freedom
(part ``conditions``), the optimizer (part ``optimize``) and the scaling
fits on matrices (part ``validate``).  A ``design`` label starts with its
part.
"""

from __future__ import annotations

import random
import sys

from liesplit import catalog as catalog_module
from liesplit import constraints, optimizer, schemes, validate

import oracles

WORKLOADS = ("catalog", "design")
# The two searches of ``design``: (template, order, problem settings).
# Halton seed 0 is the test suite's.  With it six starts of the SL m15 p6
# root search find all three real solutions, and eight starts in b_1 find
# the best and the second minimum of S m9 p4.
ROOT_SEARCH = ((2, "SL", 15), 6, dict(free_slots=(), starts=6, seed=0, bounds=(-2.0, 2.0)))
FREE_B1 = ((2, "S", 9), 4, dict(free_slots=("b_1",), starts=8, seed=0))
# A Heisenberg chain of 6 spins (dim 64) keeps the fits expm-bound at
# about 0.1-0.5 s each.
CHAIN_LENGTH = 6


def setup(name: str, seed: int) -> dict:
    """Build the inputs of one workload; the catalog is part of every set-up."""
    entries = catalog_module.catalog()
    rng = random.Random(seed)
    if name == "catalog":
        order = sorted(entries)
        rng.shuffle(order)
        return {"entries": [(n, entries[n]) for n in order]}
    if name == "design":
        gens = {
            f"heisenberg-L{CHAIN_LENGTH}": validate.build_generators(
                "spin-chain-even-odd", n=2, chain_length=CHAIN_LENGTH, seed=seed),
            "random-general-16": validate.build_generators(
                "random-general", n=2, dim=16, seed=seed),
        }
        jobs = [("conditions:" + oracles.template_label("counts", k),
                 ("counts", schemes.build_scheme(*k[:3]), k[3]))
                for k in oracles.CONDITION_COUNTS]
        jobs += [("conditions:" + oracles.template_label("freedom", k),
                  ("freedom", schemes.build_scheme(*k[:3]), k[3]))
                 for k in oracles.FREEDOM]
        jobs += [(f"optimize:{label}", ("optimize", optimizer.OptimizationProblem(
                    schemes.build_scheme(*template), p, **kw)))
                 for label, (template, p, kw) in (("sl15-p6-root-search", ROOT_SEARCH),
                                                  ("s9-p4-b1-free", FREE_B1))]
        jobs += [(f"validate:fit:{n}:{g}", ("fit", entries[n], gens[g]))
                 for n in oracles.FIT_SCHEMES for g in gens]
        trio = [entries[n] for n in oracles.EQUAL_COST_SCHEMES]
        jobs.append(("validate:equal-cost", ("equal-cost", trio, gens["random-general-16"])))
        rng.shuffle(jobs)
        return {"jobs": jobs}
    raise ValueError(f"unknown workload {name!r}")


def clear_caches() -> None:
    """Empty every ``functools`` cache of the ``liesplit`` modules, so the
    next pass pays what a fresh interpreter pays."""
    for modname, module in list(sys.modules.items()):
        if modname == "liesplit" or modname.startswith("liesplit."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def calls(name: str, inputs: dict) -> list:
    if name == "catalog":
        return [(n, lambda e=e: _epsilon(e)) for n, e in inputs["entries"]]
    return [(label, lambda job=job: _DESIGN[job[0]](*job[1:])) for label, job in inputs["jobs"]]


def check(name: str, results: dict) -> tuple[int, list]:
    return getattr(oracles, f"check_{name}")(results)


def _epsilon(entry):
    rep = schemes.epsilon(entry.scheme, entry.params, entry.order)
    residual = max(float(abs(v)) for v in rep.order_residuals.values())
    return rep.epsilon, "<".join(rep.ordering_best), residual


def _counts(scheme, p):
    return constraints.symbolic_log(scheme, p).counts_by_degree()


def _freedom(scheme, p):
    rep = constraints.analyze_freedom(constraints.symbolic_log(scheme, p))
    return rep.free_count, rep.solution_count, rep.real_solution_count


def _optimize(problem):
    res = optimizer.minimize_epsilon(problem)
    return [(float(rep.epsilon), {k: float(v) for k, v in pa.values.items()})
            for pa, rep in res.local_minima]


def _fit(entry, gens):
    rep = validate.scaling_fit(entry.scheme, entry.params, gens)
    return rep.fitted_slope, len(rep.window)


def _equal_cost(trio, gens):
    rows = validate.equal_cost_comparison(trio, gens, total_time=oracles.EQUAL_COST_TIME,
                                          budget=oracles.EQUAL_COST_BUDGET)
    return [(r.m, r.cost, r.rank, r.error) for r in rows]


_DESIGN = {"counts": _counts, "freedom": _freedom, "optimize": _optimize,
           "fit": _fit, "equal-cost": _equal_cost}
