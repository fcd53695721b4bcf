"""Record the benchmark's results as a BENCH file, and compare two of them.

    python3 tools/bench_record.py record --tag NAME [--workloads W ...]
        [--seeds 7 ...] [--seconds 3] [--runs 10] [--no-trace] [--parent REV]
    python3 tools/bench_record.py compare BENCH_OLD.json BENCH_NEW.json

``record`` runs ``python3 perfbench/run.py --workload W --seed S --seconds
T`` as a child process ``--runs`` times per workload and seed, and reads the
final JSON line of each run; then, unless ``--no-trace``, one ``--trace 1``
run per workload at the first seed gives the per-layer metrics. It writes
``BENCH_<NAME>.json`` at the root of this checkout. Nothing under
``perfbench/`` changes.

With ``--parent REV`` the same runs are made, alternating pair by pair
which side goes first, in a checkout of REV (``git archive REV | tar -x``
into a temporary directory, whose ``perfbench/.cache`` links to this one's,
so inputs are made once). Each side runs its own ``src/`` under its own
harness. The parent's file is ``BENCH_<sha>.json``, named by REV's short
commit id, and the two files are then compared as ``compare`` does. With
``--parent HEAD`` on a clean tree both sides run the same sources: an A/A
pair, whose comparison shows the noise of one session.

A BENCH file holds the ``env`` line of the runs (nproc, BLAS and its thread
count, numpy, ``git_commit``, ``source_sha``), the seeds, ``--seconds`` and
the run count; per workload and seed, each end-to-end metric's median,
quartiles, interquartile range, min, max and every value, each run's
``info`` object and criterion-11 ratio line, and whether the workload is
calibrated; and per workload, the traced run's per-layer metrics.

Both ``rev`` and the env's ``git_commit`` name the source a file measured:
the archived commit for the parent; for this checkout, its HEAD commit,
suffixed ``-dirty`` when a tracked file differs from it (as ``git describe
--dirty`` marks it).

``compare`` prints each file's ``rev`` and ``source_sha``, then, per
workload, seed and end-to-end metric: the new median over the old; whether
it lies outside the old interquartile range; the pair tally, in how many
pairs of runs of the same index the new run read better, ties counting for
neither (the runs of one recording, whose pairs alternate which side goes
first); and whether the new median is worse than the old by more than the
metric's ``bound`` in BENCHMARK.json, as a fraction of the old median.
A change is accepted when no metric is worse beyond its bound; a claimed
gain must read better in at least 9 of 10 pairs, with its median outside
the old interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _f:
    BENCHMARK = json.load(_f)
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
# fields of a run's env line that name the run, not the machine or source
RUN_FIELDS = ("workload", "seed", "seconds", "trace")


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One ``perfbench/run.py`` child in checkout ``tree``: its env line,
    info object, criterion-11 line and final JSON object."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = {"result": json.loads(lines[-1]), "env": None, "info": None,
           "ratio": None}
    for line in lines[:-1]:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("info criterion-11"):
            out["ratio"] = line[5:]
        elif line.startswith("info "):
            out["info"] = json.loads(line[5:])
    if not out["result"].get("correct"):
        raise SystemExit(f"error: {workload} seed {seed} in {tree} failed "
                         f"its checks: {out['result'].get('failed')} of "
                         f"{out['result'].get('attempted')}")
    if not trace:
        missing = set(END_TO_END) - set(out["result"]["metrics"])
        if missing:
            raise SystemExit(f"error: {workload} seed {seed} in {tree} "
                             f"reported no {', '.join(sorted(missing))}")
    return out


def summary(values: list) -> dict:
    """Median, quartiles, interquartile range, extremes and the values."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "min": min(values), "max": max(values),
            "values": values}


class Side:
    """The runs of one checkout, gathered into one BENCH file."""

    def __init__(self, tag: str, tree: str, rev: str | None) -> None:
        self.tag, self.tree, self.rev = tag, tree, rev
        self.env = None
        self.runs: dict = {}     # (workload, seed) -> list of run_once dicts
        self.traced: dict = {}   # workload -> per-layer metrics

    def run(self, workload: str, seed: int, seconds: float) -> None:
        out = run_once(self.tree, workload, seed, seconds, trace=False)
        env = {k: v for k, v in out["env"].items() if k not in RUN_FIELDS}
        env["git_commit"] = self.rev
        if self.env is None:
            self.env = env
        elif env != self.env:
            raise SystemExit(f"error: the environment of {self.tag} changed "
                             f"between runs: {self.env} -> {env}")
        self.runs.setdefault((workload, seed), []).append(out)

    def trace(self, workload: str, seed: int, seconds: float) -> None:
        out = run_once(self.tree, workload, seed, seconds, trace=True)
        self.traced[workload] = out["result"]["metrics"]

    def write(self, args, calibrated: dict) -> str:
        results = []
        for (workload, seed), runs in self.runs.items():
            results.append({
                "workload": workload, "seed": seed,
                "calibrated": calibrated[workload],
                "metrics": {name: dict(unit=END_TO_END[name]["unit"],
                                       **summary([r["result"]["metrics"][name]
                                                  ["value"] for r in runs]))
                            for name in END_TO_END},
                "info": [r["info"] for r in runs],
                "criterion_11": [r["ratio"] for r in runs if r["ratio"]],
            })
        doc = {"tag": self.tag, "rev": self.rev, "env": self.env,
               "seeds": args.seeds, "seconds": args.seconds,
               "runs": args.runs, "results": results,
               "per_layer": {w: {"seed": args.seeds[0], "metrics": m}
                             for w, m in self.traced.items()}}
        path = os.path.join(ROOT, f"BENCH_{self.tag}.json")
        with open(path, "w", encoding="ascii") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        return path


def git(*argv: str) -> str:
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git {' '.join(argv)}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def checkout(rev: str) -> str:
    """A temporary checkout of ``rev`` sharing this checkout's inputs."""
    tree = tempfile.mkdtemp(prefix="bench-parent-")
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    cache = os.path.join(ROOT, "perfbench", ".cache")
    os.makedirs(cache, exist_ok=True)
    os.symlink(cache, os.path.join(tree, "perfbench", ".cache"))
    return tree


def better(name: str, new: float, old: float) -> bool:
    if END_TO_END[name]["better"] == "lower":
        return new < old
    return new > old


def record(args) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS
    names = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"error: unknown workload(s) {sorted(unknown)}")
    calibrated = {w: WORKLOADS[w].calibrated for w in names}
    head = git("rev-parse", "HEAD")
    dirty = ("-dirty" if git("status", "--porcelain", "--untracked-files=no")
             else "")
    change = Side(args.tag, ROOT, head + dirty)
    parent = None
    if args.parent:
        rev = git("rev-parse", "--verify", args.parent + "^{commit}")
        parent = Side(git("rev-parse", "--short=7", rev), checkout(rev), rev)
    sides = [change] if parent is None else [parent, change]
    try:
        for workload in names:
            for seed in args.seeds:
                for i in range(args.runs):
                    # pairs alternate which side runs first
                    for side in (sides if i % 2 == 0 else sides[::-1]):
                        side.run(workload, seed, args.seconds)
                print(f"{workload} seed {seed}: {args.runs} run(s) done",
                      flush=True)
            if args.trace:
                for side in sides:
                    side.trace(workload, args.seeds[0], args.seconds)
        paths = [side.write(args, calibrated) for side in sides]
        for path in paths:
            print(f"wrote {path}")
    finally:
        if parent is not None:
            shutil.rmtree(parent.tree)
    if parent is not None:
        compare(*paths)   # the parent's file, then the change's
    return 0


def worse_by(name: str, new: float, old: float) -> float:
    """How much worse the new value is than the old, as a fraction of
    the old one (0 where it is no worse): what a metric's ``bound``
    limits."""
    loss = new - old if END_TO_END[name]["better"] == "lower" else old - new
    if loss <= 0:
        return 0.0
    return loss / abs(old) if old else float("inf")


def compare(old_path: str, new_path: str) -> int:
    """Print, per workload, seed and end-to-end metric, the new median
    over the old, whether it lies outside the old interquartile range, in
    how many pairs of runs of the same index the new run read better, and
    whether the new median is worse than the old by more than the metric's
    bound."""
    docs = []
    for path in (old_path, new_path):
        with open(path, encoding="ascii") as f:
            docs.append(json.load(f))
        env = docs[-1]["env"] or {}
        print(f"{path}: rev {docs[-1]['rev']}, source_sha "
              f"{env.get('source_sha')}")
    old = {(r["workload"], r["seed"]): r for r in docs[0]["results"]}
    for r in docs[1]["results"]:
        base = old.get((r["workload"], r["seed"]))
        if base is None:
            print(f"{r['workload']} seed {r['seed']}: not in {old_path}")
            continue
        for name, m in r["metrics"].items():
            o = base["metrics"][name]
            ratio = (m["median"] / o["median"] if o["median"]
                     else float("nan"))
            outside = abs(m["median"] - o["median"]) > o["iqr"]
            pairs = list(zip(o["values"], m["values"]))
            won = sum(better(name, b, a) for a, b in pairs)
            bound = END_TO_END[name]["bound"]
            worse = worse_by(name, m["median"], o["median"])
            print(f"{r['workload']} seed {r['seed']} {name}: "
                  f"{o['median']:.6g} -> {m['median']:.6g} {m['unit']} "
                  f"(x{ratio:.3f}; {'outside' if outside else 'inside'} "
                  f"the old IQR {o['iqr']:.3g}; better in {won} of "
                  f"{len(pairs)} pairs; "
                  + (f"WORSE by {worse:.3g}, beyond its bound {bound:g})"
                     if worse > bound else f"within its bound {bound:g})"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--tag", required=True)
    r.add_argument("--workloads", nargs="+")
    r.add_argument("--seeds", nargs="+", type=int, default=[7])
    r.add_argument("--seconds", type=float,
                   default=float(BENCHMARK["run_seconds"]))
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--no-trace", dest="trace", action="store_false")
    r.add_argument("--parent")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "compare":
        return compare(args.old, args.new)
    if args.runs < 1 or args.seconds <= 0:
        ap.error("--runs must be >= 1 and --seconds > 0")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
