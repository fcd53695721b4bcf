"""divknn benchmark: one workload per invocation.

    python3 perfbench/run.py --workload synth50k-exact --seed 1 \\
        --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric instead. Lines before it record the environment and informational
figures. Generated inputs are cached in ``perfbench/.cache``; results,
CSVs and traces go to ``perfbench/.out``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _ratio_line(result: dict, seed: int) -> str | None:
    """Criterion 11's qps(synth50k-union) / qps(synth50k-exact), once both
    workloads have an untraced result for this seed, source and run length
    in this checkout."""
    names = ("synth50k-union", "synth50k-exact")
    if result["workload"] not in names:
        return None
    env = result["env"]
    qps = {}
    for name in names:
        path = os.path.join(OUT, f"result-{name}-seed{seed}-trace0.json")
        if result["workload"] == name:
            qps[name] = result["metrics"]["qps"]["value"]
        elif os.path.exists(path):
            with open(path, encoding="ascii") as f:
                other = json.load(f)
            if all(other["env"].get(k) == env[k]
                   for k in ("source_sha", "seconds")):
                qps[name] = other["metrics"]["qps"]["value"]
            else:
                return (f"info criterion-11 ratio unavailable: the stored "
                        f"{name} result for seed {seed} was measured on "
                        f"other source or another run length")
    if len(qps) < 2:
        return None
    return (f"info criterion-11 ratio qps(synth50k-union)/qps(synth50k-exact)"
            f" = {qps['synth50k-union']:.1f}/{qps['synth50k-exact']:.1f}"
            f" = {qps['synth50k-union'] / qps['synth50k-exact']:.3f}x"
            f" (seed {seed}; informational, not a gate)")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: with two threads on this
    # benchmark's 2-vCPU reference host, a neighbour's load on one vCPU
    # stalls the other thread, and p95 latency varies several-fold between
    # runs. ``divknn run`` children inherit the setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(SRC, "divknn", "__init__.py")):
        print(f"error: no divknn sources under {SRC}; run from the root of "
              "a divknn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import envinfo
    import harness
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    os.makedirs(CACHE, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    env = envinfo.record(ROOT)
    env.update(workload=w.name, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if args.trace:
        out = harness.trace(w, args.seed, CACHE, OUT)
    else:
        out = harness.measure(w, args.seed, args.seconds, CACHE, OUT)
    result = {"workload": w.name, "env": env, "metrics": out.metrics,
              "attempted": out.attempted, "failed": out.failed,
              "failures": out.failures, "info": out.info}
    path = os.path.join(OUT, f"result-{w.name}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    for reason in out.failures:
        print(f"check failed: {reason}")
    print("info " + json.dumps(out.info, sort_keys=True))
    line = None if args.trace else _ratio_line(result, args.seed)
    if line:
        print(line)
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
