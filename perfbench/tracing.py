"""Per-layer spans recorded from outside the program.

A :class:`Tracer` temporarily replaces public functions and methods of the
``divknn`` modules with wrappers that record one span per call: name, start,
end, parent span and query id. Names a module imported from a sibling
(``cli.fetch_union``, ``baselines.greedy_select``, ...) are replaced too, so
calls through any module are seen. Leaving :meth:`Tracer.installed` puts
every original object back. Spans stay in memory until :meth:`Tracer.dump`.

Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

from divknn import baselines, cli, core, data, metrics, multi, oracle, solvers


class _Args:
    """Reads (and for ``stats``, fills) a call's arguments by name without
    the cost of ``inspect.Signature.bind``."""

    def __init__(self, fn) -> None:
        self.index = {name: i for i, name in
                      enumerate(inspect.signature(fn).parameters)}

    def get(self, args, kwargs, name):
        i = self.index[name]
        return args[i] if i < len(args) else kwargs.get(name)

    def with_stats(self, args, kwargs):
        """Pass a fresh ``GreedyStats`` where the caller passed none."""
        st = self.get(args, kwargs, "stats")
        if st is None:
            st = solvers.GreedyStats()
            i = self.index["stats"]
            if i < len(args):
                args = args[:i] + (st,) + args[i + 1:]
            else:
                kwargs = dict(kwargs, stats=st)
        return args, kwargs, st


def _count_greedy(tr, a, args, kwargs, run):
    args, kwargs, st = a.with_stats(args, kwargs)
    rounds, comparisons = st.rounds, st.comparisons
    out = run(args, kwargs)
    tr.add("solvers.greedy_select.rounds", st.rounds - rounds)
    tr.add("solvers.greedy_select.comparisons", st.comparisons - comparisons)
    return out


def _count_fetch_union(tr, a, args, kwargs, run):
    args, kwargs, st = a.with_stats(args, kwargs)
    out = run(args, kwargs)
    tr.add("baselines.fetch_union.pool_attributes", st.pool_attributes)
    return out


def _count_exact_topk(tr, a, args, kwargs, run):
    out = run(args, kwargs)
    attrs = a.get(args, kwargs, "attrs")
    tr.add("oracle.exact_topk.rows",
           len(attrs.inverted[a.get(args, kwargs, "attribute")]))
    tr.add("oracle.exact_topk.kept", len(out))
    return out


def _count_batch(tr, a, args, kwargs, run):
    rows = a.get(args, kwargs, "rows")
    tr.add("core.SimilarityFn.batch.rows", rows.shape[0])
    tr.add("core.SimilarityFn.batch.bytes", rows.nbytes)
    return run(args, kwargs)


def _count_batch_ids(tr, a, args, kwargs, run):
    tr.add("core.SimilarityFn.batch_ids.rows", len(a.get(args, kwargs, "ids")))
    return run(args, kwargs)


def _count_read_vectors(tr, a, args, kwargs, run):
    out = run(args, kwargs)
    tr.add("data.read_vectors.bytes", out.data.nbytes)
    return out


def _count_read_attrs(tr, a, args, kwargs, run):
    out = run(args, kwargs)
    tr.add("data.read_attrs.rows", out.n)
    return out


def _count_pool(tr, a, args, kwargs, run):
    out = run(args, kwargs)
    tr.add("multi.full_scan_pool.pool_size", len(out))
    return out


# (owner, attribute, span name, counter): a counter receives the tracer,
# the argument reader, the call's arguments and ``run(args, kwargs)``, which
# makes the traced call; it returns the call's result.
TARGETS = (
    (data, "read_vectors", "data.read_vectors", _count_read_vectors),
    (data, "read_attrs", "data.read_attrs", _count_read_attrs),
    (core.VectorSet, "__init__", "core.VectorSet", None),
    (core.VectorSet, "norms", "core.VectorSet.norms", None),
    (core.AttributeTable, "__init__", "core.AttributeTable", None),
    (core.SimilarityFn, "batch", "core.SimilarityFn.batch", _count_batch),
    (core.SimilarityFn, "batch_ids", "core.SimilarityFn.batch_ids",
     _count_batch_ids),
    (oracle, "exact_topk", "oracle.exact_topk", _count_exact_topk),
    (solvers, "nash_ann", "solvers.nash_ann", None),
    (solvers, "p_mean_ann", "solvers.p_mean_ann", None),
    (solvers, "prefetch_streams", "solvers.prefetch_streams", None),
    (solvers, "greedy_select", "solvers.greedy_select", _count_greedy),
    (multi, "full_scan_pool", "multi.full_scan_pool", _count_pool),
    (multi, "multi_nash_ann", "multi.multi_nash_ann", None),
    (multi, "multi_p_mean_ann", "multi.multi_p_mean_ann", None),
    (baselines, "top_k", "baselines.top_k", None),
    (baselines, "fetch_union", "baselines.fetch_union", _count_fetch_union),
    (metrics, "compute_report", "metrics.compute_report", None),
    (cli, "main", "cli.main", None),
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "divknn"
                                  or name.startswith("divknn."))]


class Tracer:
    """Span recorder plus the wrapping that feeds it."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, query id or None]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.query = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []   # (owner, attribute, original)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, query=None):
        """A span opened by the benchmark itself; ``query`` tags it and
        every span under it."""
        outer = self.query
        if query is not None:
            self.query = query
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self.query = outer

    def _wrap(self, fn, name, counter):
        def run(args, kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        if counter is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return run(args, kwargs)
        else:
            reader = _Args(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return counter(self, reader, args, kwargs, run)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for owner, attr, name, counter in TARGETS:
                orig = owner.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(orig.fget, name, counter))
                    self._patch(owner, attr, orig, new)
                elif isinstance(owner, type):
                    self._patch(owner, attr, orig,
                                self._wrap(orig, name, counter))
                else:
                    new = self._wrap(orig, name, counter)
                    for mod in _modules():
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                self._patch(mod, key, orig, new)
            yield self
        finally:
            for owner, attr, orig in reversed(self._patched):
                setattr(owner, attr, orig)
            self._patched.clear()

    def _patch(self, owner, attr, orig, new) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "query": query}) + "\n")


def originals() -> dict:
    """Identity snapshot of every divknn module and class attribute, used to
    confirm that a traced run put every original object back."""
    snap = {}
    for mod in _modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for ckey, cval in vars(val).items():
                    snap[(mod.__name__, key, ckey)] = cval
    return snap
