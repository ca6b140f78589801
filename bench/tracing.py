"""Spans around the library's public functions, for the benchmark's traced runs.

``Tracer.install`` rebinds each function named in ``TRACED`` to a wrapper in
every treebound module namespace that holds it (``iter_copies`` is bound in
``counting``, ``measure`` and ``harness``, for example), so calls between
modules are seen as well as calls from the benchmark.  Each call records a
span: id, name, start, end, parent span, op id, cost and an item count.
Spans stay in memory; ``summary`` folds them into per-name totals when the
run ends.

A span's cost is the time it holds the caller: the call's duration for a
function, and the time spent inside ``next()`` for the two embedding
iterators, whose consumers run between items.  Self time is a span's cost
minus the cost of its child spans.
"""

from __future__ import annotations

import itertools
import time

TRACED = {
    "counting": (
        "iter_copies",
        "iter_hom_maps",
        "count_copies",
        "count_homomorphisms",
        "count_walks",
    ),
    "measure": (
        "g_table_exact",
        "weight",
        "reversal_check",
        "product_form_check",
        "verify_chain",
        "sample_embedding",
        "g_table_monte_carlo",
    ),
    "bounds": ("evaluate_bounds",),
    "harness": (
        "run_suite",
        "_build_row",
        "instance_checks",
        "conjecture_scan",
        "suite_to_csv",
        "suite_to_json",
        "conjecture_to_json",
    ),
    "graphs": ("parse_graph", "parse_tree", "good_labeling", "gen_random_min_degree"),
    "cli": ("main",),
}
COPY_PASS = "counting.iter_copies"
HOM_PASS = "counting.iter_hom_maps"


def _kind_suffix(args, kwargs) -> str:
    kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
    return f".{kind.value}"


def _copy_count(args, result) -> int:
    return result.value


def _one(args, result) -> int:
    return 1


def _degree_gated(args, result) -> int:
    """1 for a suite row whose graph has min degree >= t, else 0."""
    return int(args[1].min_degree >= args[3].t)


# span name suffix from the call's arguments
_SUFFIX = {"measure.g_table_exact": _kind_suffix}
# span item count from the call's arguments and result
_ITEMS = {
    "counting.count_copies": _copy_count,
    "measure.sample_embedding": _one,
    "harness._build_row": _degree_gated,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int | None] = [None]
        self._undo: list[tuple] = []
        self._ids = itertools.count()

    def install(self) -> None:
        import treebound
        import treebound.cli

        modules = [
            treebound,
            treebound.graphs,
            treebound.counting,
            treebound.bounds,
            treebound.measure,
            treebound.harness,
            treebound.cli,
        ]
        for layer, names in TRACED.items():
            home = getattr(treebound, layer)
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                span = f"{layer}.{name}"
                if span in (COPY_PASS, HOM_PASS):
                    wrapper = self._wrap_iterator(span, original)
                else:
                    wrapper = self._wrap_function(span, original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _wrap_function(self, span: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids
        suffix = _SUFFIX.get(span)
        items = _ITEMS.get(span)

        def wrapper(*args, **kwargs):
            name = span + suffix(args, kwargs) if suffix else span
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            count = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if items:
                    count = items(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, end - start, count))

        return wrapper

    def _wrap_iterator(self, span: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            start = clock()
            inner = fn(*args, **kwargs)
            busy = clock() - start
            return self._drain(sid, span, stack[-1], start, busy, inner)

        return wrapper

    def _drain(self, sid, span, parent, start, busy, inner):
        clock = time.perf_counter
        step = inner.__next__
        count = 0
        op = self.op
        try:
            while True:
                t0 = clock()
                try:
                    item = step()
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                count += 1
                yield item
        finally:
            self.spans.append((sid, span, start, clock(), parent, op, busy, count))

    def summary(self, instance_span: str | None) -> dict:
        """Per-name totals and the passes made per instance.

        ``names`` maps a span name to [calls, self seconds, items, cost
        seconds].  An instance is a span named ``instance_span`` (with a
        non-zero item count, for suite rows); copy and hom passes are the
        iterator spans below one.
        """
        parent_of = {s[0]: s[4] for s in self.spans}
        child_cost: dict = {}
        for s in self.spans:
            if s[4] is not None:
                child_cost[s[4]] = child_cost.get(s[4], 0.0) + s[6]
        names: dict[str, list] = {}
        for sid, name, _start, _end, _parent, _op, cost, count in self.spans:
            total = names.setdefault(name, [0, 0.0, 0, 0.0])
            total[0] += 1
            total[1] += cost - child_cost.get(sid, 0.0)
            total[2] += count
            total[3] += cost
        instances = {
            s[0]
            for s in self.spans
            if s[1] == instance_span and (s[1] != "harness._build_row" or s[7])
        }
        passes = {COPY_PASS: 0, HOM_PASS: 0}
        for s in self.spans:
            if s[1] in passes:
                node = s[4]
                while node is not None and node not in instances:
                    node = parent_of.get(node)
                if node is not None:
                    passes[s[1]] += 1
        return {
            "names": names,
            "instances": len(instances),
            "copy_passes": passes[COPY_PASS],
            "hom_passes": passes[HOM_PASS],
        }


def merge(total: dict, part: dict) -> None:
    """Add one ``Tracer.summary`` into a running total of the same shape."""
    for name, values in part["names"].items():
        into = total.setdefault("names", {}).setdefault(name, [0, 0.0, 0, 0.0])
        for i, value in enumerate(values):
            into[i] += value
    for key in ("instances", "copy_passes", "hom_passes"):
        total[key] = total.get(key, 0) + part[key]
