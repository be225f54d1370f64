#!/usr/bin/env python3
"""Run one benchmark workload against the ``liesplit`` sources of this tree.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 45 --trace 0

Untraced (``--trace 0``) the run measures the end-to-end metrics:

- ``setup_s``: import ``liesplit``, build ``catalog()`` and the workload's
  inputs, in a fresh interpreter; median over four child interpreters
  and the benchmark process.
- ``cold_s``: median time of the passes run with every cache of
  ``liesplit`` emptied just before.
- ``warm_s``: median time of the passes run with the caches full.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

Cold and warm passes alternate for ``--seconds``, each kind taking about
half of that time, so both see the same stretch of the machine.  A pass
time is the sum of its calls' durations.  Each pass time is rescaled to
one machine speed by ``reference.py``, timed between calls; the raw
medians are printed too.  It also prints, outside the JSON metrics,
``call_p50_ms`` and ``call_p90_ms``, the latency of each call of the warm
passes with the sample count (on ``catalog``, 53 ``epsilon`` calls a
pass), and on ``design`` the median warm time of each part.

Traced (``--trace 1``) the run wraps the functions of each layer (see
``tracing.py``) and reports per-layer metrics of a cold pass, of traced warm
passes and of the set-up, plus ``trace.overhead_s``, the traced minus the
untraced warm pass time.

Every pass is checked against ``oracles.py``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with
its unit, the sample counts, each failure by name, and the provenance.
The full record, and in traced runs the spans, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60


def cap_blas_threads() -> int:
    """One BLAS thread unless the caller asked for more, never above the
    CPUs this process may use.  Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OMP_NUM_THREADS", "1")
    cap = max(1, min(int(asked) if asked.isdigit() else 1, nproc))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def percentile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q) - 1]


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# -------------------------------------------------------------- passes


class Outcome:
    """Attempted and failed oracle checks over a run, with failures named."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def unexpected(self, known: dict) -> list:
        return [f for f in self.failures if f[0] not in known]


def run_pass(workloads, name: str, inputs: dict, outcome: Outcome,
             tracer=None, pass_id: int = 0, ref=None) -> tuple[dict, dict]:
    """One pass over the workload's calls: (duration of each call, results).
    A ``reference.Reference`` given as ``ref`` is sampled between calls."""
    durations, results = {}, {}
    span = tracer.span if tracer else lambda _: contextlib.nullcontext()
    if tracer:
        tracer.current_pass = pass_id
    with span("bench.pass"):
        for call_no, (label, thunk) in enumerate(workloads.calls(name, inputs)):
            if tracer:
                tracer.current_call = call_no
            if ref:
                ref.maybe_sample()
            with span("bench.call"):
                t = time.perf_counter()
                try:
                    results[label] = thunk()
                except Exception as exc:  # a failed call is counted, not fatal
                    results[label] = f"{type(exc).__name__}: {exc}"
                durations[label] = time.perf_counter() - t
    outcome.add(*workloads.check(name, results))
    return durations, results


def pass_s(workloads, name: str, inputs: dict, outcome: Outcome, **kw) -> float:
    """Time spent in the calls of a pass."""
    return sum(run_pass(workloads, name, inputs, outcome, **kw)[0].values())


def timed_setup(args) -> tuple[dict, float]:
    """Import the workloads and build the inputs: (inputs, seconds)."""
    t0 = time.perf_counter()
    import workloads
    inputs = workloads.setup(args.workload, args.seed)
    return inputs, time.perf_counter() - t0


def child_main(args) -> None:
    """A fresh interpreter: time the set-up."""
    print(json.dumps({"setup_s": timed_setup(args)[1]}))


def spawn_child(args) -> float:
    """Set-up time of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--child"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------- provenance


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "liesplit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    # never let git look above this tree
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas": blas,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- runs


def untraced(args) -> tuple[dict, dict, Outcome]:
    outcome = Outcome()
    # children first, so nothing else runs while they measure
    setups = [spawn_child(args) for _ in range(SETUP_CHILDREN)]
    inputs, setup = timed_setup(args)
    setups.append(setup)
    import reference
    import workloads
    ref = reference.Reference()

    # Run next whichever kind of pass has had less time so far, until a
    # further pass would end more than half a pass after --seconds.
    samples = {"cold": [], "warm": []}  # raw
    spans = {"cold": [], "warm": []}
    warm_calls = []
    started = time.perf_counter()
    while True:
        kind = min(samples, key=lambda k: sum(samples[k]))
        done = samples[kind]
        if (all(samples.values())
                and time.perf_counter() - started + done[-1] / 2 > args.seconds):
            break
        if kind == "cold":
            workloads.clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        durations, results = run_pass(workloads, args.workload, inputs, outcome, ref=ref)
        done.append(sum(durations.values()))
        spans[kind].append((t0, time.perf_counter()))
        if kind == "warm":
            warm_calls.append(durations)
    cold, warm = samples["cold"], samples["warm"]
    scaled = {kind: [raw * ref.scale_around(*span)
                     for raw, span in zip(samples[kind], spans[kind])] for kind in samples}

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(scaled["cold"]), "s"),
        "warm_s": (statistics.median(scaled["warm"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    calls = [d for durations in warm_calls for d in durations.values()]
    p90 = 1e3 * percentile(calls, 90)
    parts = sorted({label.split(":")[0] for label in warm_calls[0] if ":" in label})
    detail = {
        "reference_samples": len(ref.samples),
        "reference_median_s": statistics.median(ref.samples),
        "raw_medians_s": {"cold_s": statistics.median(cold),
                          "warm_s": statistics.median(warm)},
        "raw_cold_samples": cold, "raw_warm_samples": warm,
        "setup_samples": setups, "cold_samples": scaled["cold"],
        "warm_samples": scaled["warm"], "cold_quartiles": quartiles(scaled["cold"]),
        "warm_quartiles": quartiles(scaled["warm"]),
        "call_p50_ms": 1e3 * statistics.median(calls), "call_p90_ms": p90,
        "call_samples": len(calls),
        "calls_beyond_p90": sum(c * 1e3 > p90 for c in calls),
        "part_warm_s": {part: statistics.median(
            sum(d for label, d in durations.items() if label.startswith(part + ":"))
            for durations in warm_calls) for part in parts},
        "last_results": {k: repr(v) for k, v in results.items()},
    }
    return metrics, detail, outcome


def traced(args) -> tuple[dict, dict, Outcome]:
    import tracing
    import workloads
    outcome = Outcome()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = workloads.setup(args.workload, args.seed)
        workloads.clear_caches()
        run_pass(workloads, args.workload, inputs, outcome, tracer, pass_id=0)
    finally:
        tracer.uninstall()

    plain, traced_s = [], []
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < args.seconds:
        plain.append(pass_s(workloads, args.workload, inputs, outcome))
        tracer.install()
        try:
            traced_s.append(pass_s(workloads, args.workload, inputs, outcome,
                                   tracer=tracer, pass_id=len(traced_s) + 1))
        finally:
            tracer.uninstall()

    warm = [tracer.pass_metrics(i) for i in range(1, len(traced_s) + 1)]
    values = tracing.combine(tracer.pass_metrics(0), tracer.pass_metrics(-1), warm)
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain)
    metrics = {k: (v, _unit(k)) for k, v in values.items()}

    counts = {k: values[k] for k in tracing.DETERMINISTIC}
    drift = [f"{k}: {w[k]} in warm pass {i} against {warm[0][k]}"
             for k in tracing.DETERMINISTIC if k not in tracing.COLD_METRICS
             for i, w in enumerate(warm) if w[k] != warm[0][k]]
    stem = OUT / f"spans-{args.workload}-seed{args.seed}"
    counts_file = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    if counts_file.exists():
        before = json.loads(counts_file.read_text())
        drift += [f"{k}: {counts[k]} against {before.get(k)} in the previous traced run"
                  for k in counts if before.get(k) != counts[k]]
    OUT.mkdir(exist_ok=True)
    counts_file.write_text(json.dumps(counts, indent=1))
    detail = {"deterministic_counts": counts, "count_drift": drift,
              "traced_warm_samples": traced_s, "untraced_warm_samples": plain,
              "spans": len(tracer.name), "spans_file": str(stem.relative_to(ROOT)) + ".npz"}
    tracer.write(stem.with_suffix(".npz"), {"metrics": values, **detail})
    return metrics, detail, outcome


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or "_per_" in name:
        return "ratio"
    return "count"


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "design"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "liesplit" / "__init__.py").is_file():
        print(f"no liesplit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.child:
        child_main(args)
        return 0

    metrics, detail, outcome = (traced if args.trace else untraced)(args)
    import oracles
    unexpected = outcome.unexpected(oracles.KNOWN_MISMATCHES)
    failed = len(outcome.failures)
    record = {"provenance": provenance(args, threads), "detail": detail,
              "failures": outcome.failures}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':38s} {failed / outcome.attempted:14.6g} 1"
          f"  ({failed} of {outcome.attempted} checks)")
    for key in ("reference_samples", "reference_median_s",
                "raw_medians_s", "setup_samples", "cold_samples", "warm_samples",
                "cold_quartiles", "warm_quartiles", "call_p50_ms", "call_p90_ms",
                "call_samples", "calls_beyond_p90", "part_warm_s",
                "deterministic_counts", "count_drift", "spans_file"):
        if key in detail:
            print(f"  {key}: {detail[key]}")
    for item, msg in sorted(set(outcome.failures)):
        kind = "known mismatch" if item in oracles.KNOWN_MISMATCHES else "FAILED"
        print(f"  {kind} {item}: {msg}")
    print(f"  provenance: {json.dumps(record['provenance'])}")

    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
