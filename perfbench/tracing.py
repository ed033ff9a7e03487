"""Spans and counters around the public entry points of each wpscoh
module, for the traced run.

Each entry point is replaced by a wrapper wherever a caller binds its
name: on the class for methods, and in every wpscoh module that
imported a function.  A span records its id, its parent span, the
operation it belongs to, its name and its start and end.  Spans stay in
memory until the run ends.  A layer's self time is its spans' duration
minus the time of their child spans; the time a wrapper spends updating
counters is also taken out of its parent's self time.

``arith`` has no wrapper: its calls take under a microsecond, so timing
them would measure the tracer.  ``CrRing._raw_product``,
``FgAbGroup.__init__`` and ``OrbifoldRing.multiply`` are counted only,
for the same reason.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter, defaultdict


def _count_sectors(counts, args, kwargs, result):
    ring = args[0]
    counts["chenruan.sectors_built"] += len(ring.sectors)
    # sector 0 always fixes every coordinate
    counts["chenruan.sectors_nonzero"] += 1 + len(ring.twisted_generator_indices())


def _count_triples(counts, args, kwargs, result):
    found = re.search(r"(?:exhaustive over|sampled) (\d+)(?: of (\d+))? triples", result[1])
    if found:
        counts["verify.triples_checked"] += int(found[1])
        counts["verify.triples_total"] += int(found[2] or found[1])


def _count_degrees(counts, args, kwargs, result):
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    counts["kunneth.degrees"] += max_degree + 1


# (module, class or None, attribute, metric of its self time, counter hook)
SPANS = (
    ("cli", None, "main", "cli.self_s", None),
    ("expr", None, "parse", "expr.parse_s", None),
    ("expr", None, "evaluate", "expr.evaluate_s", None),
    ("chenruan", "CrRing", "__init__", "chenruan.build_s", _count_sectors),
    ("chenruan", "CrRing", "star", "chenruan.star_s", None),
    ("chenruan", "CrRing", "presentation", "chenruan.presentation_s", None),
    ("chenruan", "CrRing", "mult_table", "chenruan.mult_table_s", None),
    ("chenruan", "CrRing", "graded_dimensions", "chenruan.graded_s", None),
    ("chenruan", "CrElement", "__pow__", "chenruan.pow_s", None),
    ("verify", None, "run_checks", "verify.run_checks_s", None),
    ("verify", None, "star_associativity_scan", "verify.triple_scan_s", _count_triples),
    ("abelian", None, "_invariant_factors", "abelian.canonicalise_s", None),
    ("abelian", None, "direct_sum_all", "abelian.direct_sum_s", None),
    ("kunneth", None, "product_groups", "kunneth.product_groups_s", _count_degrees),
    ("kawasaki", "KawasakiRing", "__init__", "kawasaki.build_s", None),
    ("kawasaki", "KawasakiElement", "__pow__", "kawasaki.pow_s", None),
    ("orbifold", "OrbifoldElement", "__pow__", "orbifold.pow_s", None),
)

MODULES = tuple(dict.fromkeys(module for module, *_ in SPANS))

# (module, class or None, attribute, counter, amount per call)
COUNTS = (
    ("chenruan", "CrRing", "_raw_product", "chenruan.raw_products", None),
    ("abelian", "FgAbGroup", "__init__", "abelian.groups_built", None),
    ("orbifold", "OrbifoldRing", "multiply", "orbifold.multiply_calls", None),
    ("kawasaki", None, "subset_lcm_table", "kawasaki.subsets_enumerated",
     lambda b: 2 ** len(tuple(b)) - 1),
)


class Tracer:
    """Collects spans, self times, counters and escaped exceptions."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.errors = Counter()
        self.op = 0
        self._stack = []  # open spans: [span id, module, child seconds]
        self._next_id = 0
        self._undo = []

    def _span(self, module, metric, fn, hook):
        name = f"{fn.__module__}.{fn.__qualname__}"
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, module, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[1] != module:
                    self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.self_s[metric] += end - start - frame[2]
                self.calls[metric] += 1
                if parent is not None:
                    parent[2] += end - start
                self.spans.append((frame[0], parent and parent[0], self.op, name, start, end))
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self.counts, args, kwargs, result)
                if parent is not None:
                    parent[2] += time.perf_counter() - hook_start
            return result

        return wrapper

    def _counter(self, key, fn, amount):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args[0])
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, cls, attr, make):
        mod = sys.modules[f"wpscoh.{module}"]
        if cls is not None:
            owner = getattr(mod, cls)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if name == "wpscoh" or name.startswith("wpscoh."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def install(self):
        for module, cls, attr, metric, hook in SPANS:
            self._patch(module, cls, attr, lambda fn, m=module, k=metric, h=hook: self._span(m, k, fn, h))
        for module, cls, attr, key, amount in COUNTS:
            self._patch(module, cls, attr, lambda fn, k=key, a=amount: self._counter(k, fn, a))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {metric: (self.self_s[metric], "s") for _, _, _, metric, _ in SPANS}
        counts = self.counts
        out["chenruan.star_calls"] = (self.calls["chenruan.star_s"], "count")
        for _, _, _, key, _ in COUNTS:
            out[key] = (counts[key], "count")
        for key in ("chenruan.sectors_built", "chenruan.sectors_nonzero", "kunneth.degrees",
                    "verify.triples_checked", "verify.triples_total"):
            out[key] = (counts[key], "count")
        out["chenruan.sector_yield"] = (
            _ratio(counts["chenruan.sectors_nonzero"], counts["chenruan.sectors_built"]), "ratio")
        out["verify.scan_coverage"] = (
            _ratio(counts["verify.triples_checked"], counts["verify.triples_total"]), "ratio")
        for module in MODULES:
            out[f"{module}.errors"] = (self.errors[module], "count")
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
