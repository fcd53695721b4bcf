"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks three things and exits 1 if any fails:

1. every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
   by the untraced and the traced run of every workload; every span a
   per-layer metric reads is wrapped by the tracer, and every per-layer
   metric but the trace overhead is nonzero on at least one workload, so a
   dropped or misnamed wrapper cannot pass for a bypassed layer;
2. deliberately corrupted selections (a duplicate id, a wrong objective)
   are counted as failed and lower ``ok_rate``;
3. after a traced run, every attribute of every divknn module and class is
   the original object again.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(HERE, ".out", "selftest")


def tiny(w: workloads.Workload) -> workloads.Workload:
    ds = dataclasses.replace(w.dataset, name="tiny-" + w.dataset.name,
                             n=3000, d=8)
    return dataclasses.replace(w, dataset=ds, cli_queries=4, setups=2)


def _run(kind: str, w, solve=workloads.solve) -> harness.Outcome:
    cache, out = os.path.join(SCRATCH, "cache"), os.path.join(SCRATCH, "out")
    os.makedirs(cache, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    if kind == "trace":
        return harness.trace(w, 0, cache, out, solve=solve)
    return harness.measure(w, 0, 0.05, cache, out, solve=solve)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    wrapped = {name for _, _, name, _ in tracing.TARGETS}
    spans = {m.rpartition(".")[0] for m in layer
             if m.rpartition(".")[2] in ("calls", "total_s", "self_s")}
    expect(spans <= wrapped,
           f"every span a per-layer metric reads is traced "
           f"{sorted(spans - wrapped)}")
    nonzero, span_calls = set(), {}
    expect(sorted(names) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names exactly the defined workloads")
    for name in names:
        w = tiny(workloads.WORKLOADS[name])
        got = _run("measure", w)
        expect({k: v["unit"] for k, v in got.metrics.items()} == e2e,
               f"{name}: untraced run emits every end-to-end metric")
        expect(got.correct and got.metrics["ok_rate"]["value"] == 1.0,
               f"{name}: untraced run passes its checks {got.failures[:3]}")
        before = tracing.originals()
        got = _run("trace", w)
        after = tracing.originals()
        expect({k: v["unit"] for k, v in got.metrics.items()} == layer,
               f"{name}: traced run emits every per-layer metric")
        nonzero |= {k for k, v in got.metrics.items() if v["value"] != 0}
        for k, calls in got.info["span_calls"].items():
            span_calls[k] = span_calls.get(k, 0) + calls
        expect(got.correct and got.info["spans"] > 0,
               f"{name}: traced run records spans and passes its checks")
        expect(before.keys() == after.keys()
               and all(after[k] is v for k, v in before.items()),
               f"{name}: every wrapped library object is the original again")

    uncalled = sorted(k for k in spans if not span_calls.get(k))
    expect(not uncalled, f"every traced span is called on some workload "
                         f"{uncalled}")
    zero = sorted(set(layer) - nonzero - {"trace.overhead_frac"})
    expect(not zero, f"every per-layer metric is nonzero on some workload "
                     f"{zero}")

    def corrupt(w, algo, q, base, attrs, fn):
        sel = workloads.solve(w, algo, q, base, attrs, fn)
        if np.array_equal(q, first[0]):
            return types.SimpleNamespace(ids=(sel.ids[0],) * len(sel.ids),
                                         objective=sel.objective,
                                         truncated=sel.truncated)
        if np.array_equal(q, first[1]):
            return types.SimpleNamespace(ids=sel.ids,
                                         objective=sel.objective * 1.000001,
                                         truncated=sel.truncated)
        return sel

    def suboptimal(w, algo, q, base, attrs, fn):
        params = workloads.core.WelfareParams(p=workloads.P_BY_ALGO[algo],
                                              eta=workloads.ETA)
        return workloads.baselines.top_k(q, workloads.K, base, fn,
                                         attrs=attrs, params=params)

    got = _run("measure", tiny(workloads.WORKLOADS["synth50k-exact"]),
               solve=suboptimal)
    expect(any("optimum" in r for r in got.failures),
           "a consistent but suboptimal selection fails the exact optimum")

    w = tiny(workloads.WORKLOADS["synth50k-union"])
    inputs = workloads.prepare(w, 0, os.path.join(SCRATCH, "cache"))
    first = harness.setup(inputs)[0].queries.data[:2]
    got = _run("measure", w, solve=corrupt)
    reasons = " ".join(got.failures)
    expect(not got.correct and got.failed >= 2
           and "duplicate id" in reasons and "objective" in reasons,
           f"corrupted selections are counted ({got.failed} of "
           f"{got.attempted} failed)")
    ok_rate = got.metrics["ok_rate"]["value"]
    expect(math.isclose(ok_rate, 1 - got.info["error_rate"]) and ok_rate < 1,
           "ok_rate is 1 - error_rate and drops below 1")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
