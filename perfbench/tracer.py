"""In-memory span tracer wrapped around the public calls of each icmod layer.

The benchmark installs the wrappers only for a traced run; the untraced run
executes the library untouched.  Every wrapped call records a span (id,
parent id, item id, name, start, end) and feeds running per-name and
per-layer totals:

* calls: spans opened;
* busy: time inside the outermost span of that name or layer, so a layer
  calling itself (``is_complete`` -> ``integral_closure`` -> ``canonicalize``)
  is not counted twice;
* self: span time minus the time covered by its child spans.

``PivotSpan.add`` and ``PivotSpan.contains_single`` are timed leaves: their
time counts as a child of the enclosing span but they record no span, since
a multiplicity item makes thousands of them.  ``GraphSpan.add`` takes about a
microsecond, so it is only counted, never timed; its time stays in the
caller's self time.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (icmod submodule, attribute or Class.method, layer)
SPANNED = [
    ("staircase", "canonicalize", "staircase"),
    ("staircase", "MonomialIdeal.integral_closure", "staircase"),
    ("staircase", "MonomialIdeal.is_complete", "staircase"),
    ("staircase", "MonomialIdeal.zariski_factor", "staircase"),
    ("staircase", "enumerate_staircases", "staircase"),
    ("staircase", "enumerate_complete_staircases", "staircase"),
    ("modmat", "signed_minor_table", "modmat"),
    ("modmat", "fitting_ideal", "modmat"),
    ("modmat", "mu_module", "modmat"),
    ("modmat", "colength_module", "modmat"),
    ("multiplicity", "reduction_multiplicity", "multiplicity"),
    ("multiplicity", "module_multiplicity", "multiplicity"),
    ("classify", "classify", "classify"),
    ("classify", "audit_gap_equality", "classify"),
    ("cli", "main", "cli"),
]
TIMED_LEAVES = [("algebra", "PivotSpan.add"), ("algebra", "PivotSpan.contains_single")]
COUNTED = [("algebra", "GraphSpan.add")]

_CHILD = 5  # frame slots: id, parent, name, layer, start, child time


class Tracer:
    """Span recorder; ``item`` is set by the caller before each workload item."""

    def __init__(self) -> None:
        self.item = -1  # -1 marks spans recorded during set-up
        self.keep_spans = True
        self.spans: list[tuple] = []
        self._next_id = 0
        self.t0 = perf_counter()
        self._restore: list[tuple] = []
        self._reset()

    def _reset(self) -> None:
        # wrappers bind these objects, so reset only between installs
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        # key (span name or layer) -> [calls, busy_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # leaf name -> [calls, busy_s, calls that returned True]
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.minors = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, layer, perf_counter(), 0.0])
        self._next_id += 1
        self._open[name] += 1
        self._open[layer] += 1

    def _exit(self) -> None:
        end = perf_counter()
        span_id, parent, name, layer, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][_CHILD] += dur
        for key in (name, layer):
            st = self.stats[key]
            st[0] += 1
            st[2] += dur - child
            if self._open[key] == 1:
                st[1] += dur
            self._open[key] -= 1
        if self.keep_spans:
            self.spans.append((span_id, parent, self.item, name,
                               start - self.t0, end - self.t0))

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        enter, leave = self._enter, self._exit
        count_minors = name == "modmat.signed_minor_table"
        # a generator's work happens while it is consumed, so the traced call
        # consumes it inside the span and hands back an iterator over the list
        generator = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            enter(name, layer)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = iter(list(result))
            finally:
                leave()
            if count_minors:
                self.minors += len(result)
            return result

        return traced

    def _timed_leaf(self, fn, name: str):
        st = self.leaves[name]
        stack = self._stack

        def traced(*args):
            t = perf_counter()
            result = fn(*args)
            dur = perf_counter() - t
            if stack:
                stack[-1][_CHILD] += dur
            st[0] += 1
            st[1] += dur
            if result is True:
                st[2] += 1
            return result

        return traced

    def _counted(self, fn, name: str):
        st = self.leaves[name]

        def traced(*args):
            result = fn(*args)
            st[0] += 1
            if result:
                st[2] += 1
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Swap every reference to a traced callable inside the icmod package.

        Modules that imported a function by name (``classify`` imports
        ``fitting_ideal``) hold their own reference, so each icmod module's
        namespace is searched for the original object.
        """
        self._reset()
        mods = [m for n, m in sys.modules.items() if n == "icmod" or n.startswith("icmod.")]
        plan = [(mod, attr, lambda fn, n, lay=layer: self._span(fn, n, lay))
                for mod, attr, layer in SPANNED]
        plan += [(mod, attr, self._timed_leaf) for mod, attr in TIMED_LEAVES]
        plan += [(mod, attr, self._counted) for mod, attr in COUNTED]
        for modname, attr, make in plan:
            home = sys.modules["icmod." + modname]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, make(orig, name))
                continue
            orig = getattr(home, attr)
            wrapper = make(orig, name)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    # -- reporting --------------------------------------------------------

    def layer_metrics(self, passes: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures per complete pass over the workload's items.

        Times are multiplied by ``scale``, the run's mean host-speed factor.
        """
        s, lv = self.stats, self.leaves

        def per(v):
            return v / passes

        def secs(v):
            return v * scale / passes

        def ratio(st):
            return st[2] / st[0] if st[0] else 0.0

        graph = lv["algebra.GraphSpan.add"]
        pivot_add = lv["algebra.PivotSpan.add"]
        pivot_has = lv["algebra.PivotSpan.contains_single"]
        return {
            "staircase.busy_s": (secs(s["staircase"][1]), "s"),
            "staircase.self_s": (secs(s["staircase"][2]), "s"),
            "staircase.calls": (per(s["staircase"][0]), "count"),
            "modmat.minor_table.busy_s": (secs(s["modmat.signed_minor_table"][1]), "s"),
            "modmat.minor_table.minors": (per(self.minors), "count"),
            "modmat.fitting.busy_s": (secs(s["modmat.fitting_ideal"][1]), "s"),
            "modmat.mu.busy_s": (secs(s["modmat.mu_module"][1]), "s"),
            "modmat.colength.busy_s": (secs(s["modmat.colength_module"][1]), "s"),
            "algebra.graph.rows": (per(graph[0]), "count"),
            "algebra.graph.useful_ratio": (ratio(graph), "ratio"),
            "algebra.pivot.rows": (per(pivot_add[0]), "count"),
            "algebra.pivot.useful_ratio": (ratio(pivot_add), "ratio"),
            "algebra.pivot.busy_s": (secs(pivot_add[1] + pivot_has[1]), "s"),
            "multiplicity.reduction.busy_s":
                (secs(s["multiplicity.reduction_multiplicity"][1]), "s"),
            "multiplicity.module.busy_s":
                (secs(s["multiplicity.module_multiplicity"][1]), "s"),
            "multiplicity.module.self_s":
                (secs(s["multiplicity.module_multiplicity"][2]), "s"),
            "classify.busy_s": (secs(s["classify"][1]), "s"),
            "classify.self_s": (secs(s["classify"][2]), "s"),
            "cli.busy_s": (secs(s["cli"][1]), "s"),
            "cli.self_s": (secs(s["cli"][2]), "s"),
        }
