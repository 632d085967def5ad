"""Spans around the package's public functions, recorded from outside.

:class:`Tracer` replaces every binding of each traced function: the
attribute of the defining module and every ``from ... import`` copy in
another ``freequandle`` module (``basis.closure`` is a separate reference
from ``subquandle.closure``).  Spans are kept in memory as
``(name, start, end, parent, info)`` and written out at the end of a run.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span
SPANNED = (
    ("freequandle.cli", "main"),
    ("freequandle.subquandle", "parse_problem"),
    ("freequandle.subquandle", "closure"),
    ("freequandle.subquandle", "express"),
    ("freequandle.basis", "compute_T"),
    ("freequandle.basis", "compute_S"),
    ("freequandle.basis", "greedy_shrink"),
    ("freequandle.independence", "check_significant_factors"),
    ("freequandle.independence", "nielsen_independent"),
)
# functions called too often for a span; only their calls are counted
COUNTED = (
    ("freequandle.conj_quandle", "act"),
)


def _bindings(fn):
    """Every (module, attribute) in the package bound to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "freequandle" or mod_name.startswith("freequandle.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.unbound: list[str] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name in SPANNED + COUNTED:
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if fn is None:
                self.unbound.append(f"{mod_name}.{fn_name}")
                continue
            short = f"{mod_name.rsplit('.', 1)[1]}.{fn_name}"
            wrapper = (self._span_wrapper(short, fn) if (mod_name, fn_name) in SPANNED
                       else self._count_wrapper(short, fn))
            for mod, attr in _bindings(fn):
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            info = {}
            if name == "subquandle.closure":
                bound = signature.bind(*args, **kwargs).arguments
                info["witness"] = bound.get("stop_when_contains") is not None
            elif name in ("independence.check_significant_factors",
                          "independence.nielsen_independent"):
                # the input may be an iterator: materialize it once, then count
                bound = signature.bind(*args, **kwargs)
                first = next(iter(bound.arguments))
                items = bound.arguments[first] = list(bound.arguments[first])
                info["letters"] = sum(
                    2 * len(x.tail) + 1 if hasattr(x, "tail") else len(x) for x in items)
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, info)
            if name == "subquandle.closure":
                info["elements"] = len(result)
            elif name == "basis.greedy_shrink":
                info["moves"] = len(result.moves)
            return result
        return spanned

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **info}) + "\n")


def layer_metrics(spans, first: int, counts: Counter) -> dict[str, float]:
    """Per-layer totals of the spans ``spans[first:]`` (one traced pass)."""
    sub = spans[first:]
    child_time = [0.0] * len(sub)
    for name, start, end, parent, info in sub:
        if parent is not None and parent >= first:
            child_time[parent - first] += end - start

    m = {k: 0.0 for k in (
        "subquandle.closure.main_s", "subquandle.closure.witness_s",
        "subquandle.closure.stability_s", "subquandle.closure.greedy_s",
        "subquandle.closure.calls", "subquandle.closure.elements",
        "subquandle.parse_problem_s", "subquandle.express_s",
        "basis.compute_T_s", "basis.compute_S.self_s",
        "basis.greedy_shrink.self_s", "basis.greedy.moves",
        "basis.greedy.closures", "independence.hall_s",
        "independence.nielsen_s", "independence.checked_letters",
        "cli.self_s")}
    closure_time = 0.0
    for k, (name, start, end, parent, info) in enumerate(sub):
        total = end - start
        self_time = total - child_time[k]
        parent_name = spans[parent][0] if parent is not None else None
        if name == "subquandle.closure":
            if info["witness"]:
                label = "witness"
            elif parent_name == "basis.compute_S":
                label = "stability"
            elif parent_name == "basis.greedy_shrink":
                label = "greedy"
                m["basis.greedy.closures"] += 1
            else:
                label = "main"
            m[f"subquandle.closure.{label}_s"] += self_time
            m["subquandle.closure.calls"] += 1
            m["subquandle.closure.elements"] += info.get("elements", 0)
            closure_time += total
        elif name == "subquandle.parse_problem":
            m["subquandle.parse_problem_s"] += total
        elif name == "subquandle.express":
            m["subquandle.express_s"] += total
        elif name == "basis.compute_T":
            m["basis.compute_T_s"] += total
        elif name == "basis.compute_S":
            m["basis.compute_S.self_s"] += self_time
        elif name == "basis.greedy_shrink":
            m["basis.greedy_shrink.self_s"] += self_time
            m["basis.greedy.moves"] += info.get("moves", 0)
        elif name == "independence.check_significant_factors":
            m["independence.hall_s"] += total
            m["independence.checked_letters"] += info["letters"]
        elif name == "independence.nielsen_independent":
            m["independence.nielsen_s"] += total
            m["independence.checked_letters"] += info["letters"]
        elif name == "cli.main":
            m["cli.self_s"] += self_time
    elements = m["subquandle.closure.elements"]
    m["subquandle.closure.us_per_element"] = closure_time / elements * 1e6 if elements else 0.0
    m["conj_quandle.act.calls"] = float(counts["conj_quandle.act"])
    return m
