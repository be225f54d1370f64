#!/usr/bin/env python3
"""Self-test of the benchmark's gate: its oracles, its tracer and its output.

    python3 perfbench/selftest.py

It checks that
- one pass of every workload passes its oracles, except the known
  mismatches, which are still counted;
- a perturbed result is counted as a failure: an epsilon scaled by 1.01,
  a spurious or missing minimum, a wrong condition count, a slope off by
  0.2, rankings that do not follow the errors, a call that raised;
- the tracer puts back every function it wrapped, counts each Hall solver
  build once, and repeats its deterministic counts on a second pass;
- emptying the caches makes the next pass build every solver again;
- a pass is rescaled by the reference samples taken near it;
- the last output line has exactly the contract's keys and every metric
  of ``BENCHMARK.json`` with its unit, traced and untraced;
- a tree without the ``liesplit`` sources makes the benchmark exit with a
  non-zero code and print no result.

It takes about a minute and exits non-zero if any check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402

FAILED: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok      " if condition else "FAILED  ") + what)
    if not condition:
        FAILED.append(what)


def flagged(workload: str, results: dict, item: str) -> bool:
    _, failures = getattr(oracles, f"check_{workload}")(results)
    return any(label in (item, f"{workload}:{item}") for label, _ in failures)


def one_pass(workloads, name: str) -> dict:
    outcome = run.Outcome()
    inputs = workloads.setup(name, 0)
    _, results = run.run_pass(workloads, name, inputs, outcome)
    unexpected = outcome.unexpected(oracles.KNOWN_MISMATCHES)
    expect(not unexpected, f"{name}: one pass meets its oracles {unexpected or ''}")
    return results


def perturb_catalog(results: dict) -> None:
    expect([f[0] for f in oracles.check_catalog(results)[1]]
           == list(oracles.KNOWN_MISMATCHES),
           "catalog: only the known mismatch fails, and it is counted")
    bad = copy.deepcopy(results)
    eps, order, res = bad["n2-p4-s-m9-opt"]
    bad["n2-p4-s-m9-opt"] = (eps * 1.01, order, res)
    expect(flagged("catalog", bad, "n2-p4-s-m9-opt"), "catalog: epsilon x 1.01 fails")
    eps, order, res = bad["n2-p2-sl-m3-leapfrog"]
    bad["n2-p2-sl-m3-leapfrog"] = (eps + Fraction(1, 10**9), order, res)
    expect(flagged("catalog", bad, "n2-p2-sl-m3-leapfrog"),
           "catalog: an exact epsilon off by 1e-9 fails")
    eps, _, res = bad["n2-p4-sl-m7-yoshida"]
    bad["n2-p4-sl-m7-yoshida"] = (eps, "B<A", res)
    expect(flagged("catalog", bad, "n2-p4-sl-m7-yoshida"), "catalog: a wrong ordering fails")
    eps, order, _ = bad["n2-p4-s-m9-opt-a"]
    bad["n2-p4-s-m9-opt-a"] = (eps, order, 1e-6)
    expect(flagged("catalog", bad, "n2-p4-s-m9-opt-a"), "catalog: a missed order fails")
    bad["n3-p6-sl-m29-opt"] = "ValueError: raised"
    expect(flagged("catalog", bad, "n3-p6-sl-m29-opt"), "catalog: a call that raised fails")


def perturb_design(results: dict) -> None:
    root, free = "optimize:sl15-p6-root-search", "optimize:s9-p4-b1-free"
    bad = copy.deepcopy(results)
    bad[root] = bad[root] + [(3.0, dict(bad[root][0][1]))]
    expect(flagged("design", bad, root), "optimize: a spurious minimum fails")
    bad = copy.deepcopy(results)
    bad[root] = bad[root] + [bad[root][-1]]
    expect(flagged("design", bad, root), "optimize: a repeated minimum fails")
    bad = copy.deepcopy(results)
    eps, point = bad[root][0]
    if abs(eps - 0.44573) < 1e-3:
        bad[root][0] = (eps, dict(point, w_1=point["w_1"] + 1e-8))
        expect(flagged("design", bad, root), "optimize: a shifted Yoshida point fails")
    bad = copy.deepcopy(results)
    bad[free] = bad[free][:1]
    expect(flagged("design", bad, free), "optimize: a missing minimum fails")
    bad = copy.deepcopy(results)
    eps, point = bad[free][0]
    bad[free][0] = (eps * 1.01, point)
    expect(flagged("design", bad, free), "optimize: best epsilon x 1.01 fails")

    counts = "conditions:" + oracles.template_label("counts", (3, "SE", 21, 6))
    freedom = "conditions:" + oracles.template_label("freedom", (2, "SL", 15, 6))
    bad = copy.deepcopy(results)
    bad[counts] = {**bad[counts], 5: 5}
    expect(flagged("design", bad, counts), "conditions: a wrong condition count fails")
    bad[freedom] = (0, 39, 2)
    expect(flagged("design", bad, freedom), "conditions: a wrong real-root count fails")

    fit = "validate:fit:n2-p6-sl-m19-opt:heisenberg-L6"
    bad = copy.deepcopy(results)
    slope, window = bad[fit]
    bad[fit] = (slope + 0.2, window)
    expect(flagged("design", bad, fit), "validate: a slope off by 0.2 fails")
    bad[fit] = (slope, 4)
    expect(flagged("design", bad, fit), "validate: a four-point window fails")
    rows = bad["validate:equal-cost"]
    bad["validate:equal-cost"] = [(m, c, len(rows) + 1 - r, e) for m, c, r, e in rows]
    expect(flagged("design", bad, "validate:equal-cost"), "validate: reversed ranks fail")


def check_tracer(workloads) -> None:
    import tracing
    tracer = tracing.Tracer()
    originals = {(id(o), a): o.__dict__[a] for sites in tracing.SITES.values() for o, a in sites}
    inputs = workloads.setup("catalog", 0)
    tracer.install()
    try:
        for pass_id in (1, 2, 3):
            if pass_id == 3:
                workloads.clear_caches()
            run.run_pass(workloads, "catalog", inputs, run.Outcome(), tracer, pass_id)
    finally:
        tracer.uninstall()
    restored = all(o.__dict__[a] is originals[(id(o), a)]
                   for sites in tracing.SITES.values() for o, a in sites)
    expect(restored, "tracer: uninstall puts back every wrapped function")
    first, second, third = (tracer.pass_metrics(i) for i in (1, 2, 3))
    expect(first["hall.solver_builds"] > 0 and second["hall.solver_builds"] == 0,
           "tracer: a solver build is counted once, on the cold pass")
    same = all(first[k] == second[k] for k in tracing.DETERMINISTIC
               if k not in tracing.COLD_METRICS)
    expect(same, "tracer: deterministic counts repeat on a second pass")
    expect(third["hall.solver_builds"] == first["hall.solver_builds"],
           "cold pass: emptied caches make every solver build again")
    expect(first["schemes.epsilon_calls"] == len(oracles.PUBLISHED),
           "tracer: one epsilon span per catalog entry")


def check_reference() -> None:
    import reference
    ref = reference.Reference()
    nominal, window = reference.NOMINAL_S, reference.WINDOW_S
    ref.samples, ref.times = [2 * nominal, nominal / 2], [0.0, 10 * window]
    near = (ref.scale_around(0, 1), ref.scale_around(10 * window - 1, 10 * window),
            ref.scale_around(0, 10 * window))
    expect(all(abs(a - b) < 1e-12 for a, b in zip(near, (0.5, 2, 0.8))),
           "reference: a pass is rescaled by the samples taken near it")
    expect(abs(ref.scale_around(4 * window, 4 * window + 1) - 0.8) < 1e-12,
           "reference: a pass with no sample near it is rescaled by all of them")


def check_output() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "catalog",
                               "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        expect(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
               f"output: trace {trace} ends with the contract's keys")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in last.get("metrics", {}).items()}
        expect(got == want, f"output: trace {trace} reports exactly the {group} metrics")
        expect(last.get("correct") is True and last.get("failed", 0) >= 1,
               f"output: trace {trace} is correct and counts the known mismatch")


def check_no_sources() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "catalog",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "bare tree: non-zero exit and no result printed")


def main() -> int:
    run.cap_blas_threads()
    import workloads
    check_tracer(workloads)  # first, while the Hall caches are empty
    perturb_catalog(one_pass(workloads, "catalog"))
    perturb_design(one_pass(workloads, "design"))
    check_reference()
    check_output()
    check_no_sources()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
