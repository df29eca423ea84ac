"""Span tracer that wraps gintools' public functions from outside.

Each layer is a list of (module, attribute) targets.  Installing the
tracer replaces the function under every name that a ``gintools`` module
bound it to (``from .groebner import intersect`` makes a second binding in
``gintools.gin``), found through ``sys.modules``; uninstalling puts the
originals back.  Spans are kept in memory as
``[layer, start, end, parent, item, extra]`` and summarised or written out
when the run ends.  Hot monomial helpers such as ``mono_mul`` are left
alone: their call counts would swamp the work they stand for.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "groebner.quotient": [("gintools.groebner", "ideal_quotient")],
    "groebner.intersect": [("gintools.groebner", "intersect")],
    "groebner.buchberger": [("gintools.groebner", "buchberger")],
    "groebner.normal_form": [("gintools.groebner", "normal_form")],
    "groebner.initial_ideal": [("gintools.groebner", "initial_ideal")],
    "ring.change": [("gintools.ring", "LinearChange.apply")],
    "ring.restrict": [("gintools.ring", "restrict")],
    "gin.gin": [("gintools.gin", "gin")],
    "gin.slice": [("gintools.gin", "verify_slice_identity")],
    "gin.gap": [("gintools.gin", "verify_gap_truncation")],
    "gin.trace": [("gintools.gin", "run_trace")],
    "staircase.table": [("gintools.staircase", "invariant_table")],
    "corpus.build": [("gintools.corpus", name) for name in (
        "twisted_cubic", "rational_quartic", "point_ideal", "general_points",
        "collinear_points", "complete_intersection", "determinantal")],
    "corpus.load": [("gintools.corpus", "builtin_entries")],
    "parsing.parse": [("gintools.parsing", "parse_polynomial"),
                      ("gintools.parsing", "parse_ideal")],
    "cli.main": [("gintools.cli", "main")],
    "cli.entry_report": [("gintools.cli", "entry_report")],
}

# what a span keeps of its layer's return value
OBSERVE = {
    "groebner.buchberger": len,
    "groebner.normal_form": lambda r: int(not r.is_zero()),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVE.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target, under each name a gintools module bound it to."""
        for targets in LAYERS.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "gintools" or name.startswith("gintools.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[method]
                    self._patch(cls, method, original, self._wrap(layer, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)

    def _patch(self, holder, name, original, wrapped):
        setattr(holder, name, wrapped)
        self._patches.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, factors, group):
    """Per-layer figures over the spans of the items in one group.

    An item is a ``(group, index)`` pair and ``factors`` maps it to the
    calibration factor of its timing.  ``time`` is inclusive over the
    outermost span of each layer (a layer nested in itself counts once);
    ``self`` subtracts the direct child spans; ``observed`` adds up what
    ``OBSERVE`` kept.  ``gin.samples`` counts ``initial_ideal`` spans
    directly under ``gin`` and ``gin.hits`` the ``gin`` spans with none.
    """
    picked = [k for k, s in enumerate(spans) if s[4][0] == group]
    duration = {k: (spans[k][2] - spans[k][1]) * factors[spans[k][4]]
                for k in picked}
    stats = defaultdict(lambda: {"calls": 0, "time": 0.0, "self": 0.0,
                                 "observed": 0})
    sampled = set()
    for k in picked:
        layer, parent = spans[k][0], spans[k][3]
        st = stats[layer]
        st["calls"] += 1
        st["self"] += duration[k]
        if spans[k][5] is not None:
            st["observed"] += spans[k][5]
        if parent >= 0:
            stats[spans[parent][0]]["self"] -= duration[k]
            if layer == "groebner.initial_ideal" and spans[parent][0] == "gin.gin":
                sampled.add(parent)
                stats["gin.samples"]["calls"] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st["time"] += duration[k]
    stats["gin.hits"]["calls"] = stats["gin.gin"]["calls"] - len(sampled)
    return dict(stats)
