"""Outside-in layer trace for gwish, installed without editing ``src/``.

``Tracer.install`` wraps the public functions of the library modules and three
hot methods, rebinding every name under which a gwish module imported the
original, so calls made through ``from .graph import move_is_decomposable``
in ``mcmc`` and ``search`` are traced too.  ``uninstall`` restores the
originals.

Every wrapped call adds its duration to its parent's child time, so each
function gets a self time (duration minus time in traced children).  Hot
leaves, called up to a million times per run, only update aggregate counters;
all other calls also append a span ``(id, parent, command, name, start, end)``
that stays in memory until ``write_spans`` is called after the run.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import sys
import weakref
from time import perf_counter

LAYERS = ("graph", "model", "mcmc", "search", "simulate", "numerics")

# Edge-list I/O is the command's own work and is counted in ``cli.self_s``.
SKIP = {"graph.read_edge_list", "graph.write_edge_list"}

# Methods are traced under the names the metrics use.
METHODS = {
    ("graph", "UndirectedGraph", "connected"): "graph.connected",
    ("model", "GraphScorer", "score"): "model.GraphScorer.score",
    ("model", "GraphScorer", "clique_term"): "model.clique_term",
}

# Aggregated only: no span is kept per call.
HOT = {
    "graph.connected",
    "model.clique_term",
    "numerics.cholesky_logdet",
    "numerics.submatrix",
    "numerics.symmetrize",
    "numerics.log_multigamma",
}


class Tracer:
    """Per-function call counts, total and self time, spans and counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.tagged: dict[str, list] = {}  # "name.tag" -> same, e.g. cache hits
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        # frames: [child_s, span_id, inside_mh_step]; the base frame catches
        # calls made outside any command
        self._stack: list[list] = [[0.0, -1, False]]
        self._undo: list[tuple] = []
        self._command = -1
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _add(self, name: str, dt: float, self_dt: float, table=None) -> None:
        table = self.stats if table is None else table
        st = table.get(name)
        if st is None:
            st = table[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += self_dt

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    @contextlib.contextmanager
    def command(self, label: str):
        """Root span ``cli`` around one CLI command."""
        self._command += 1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [0.0, span_id, False]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._add("cli", t1 - t0, t1 - t0 - frame[0])
            self.spans[span_id] = (span_id, -1, self._command, f"cli.{label}", t0, t1)

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        add = self._add
        spans = self.spans
        hot = name in HOT
        opens_mh_step = name == "mcmc.mh_step"

        def traced(*args, **kwargs):
            tag = before(args) if before else None
            parent = stack[-1]
            inside = parent[2] or opens_mh_step
            if hot:
                frame = [0.0, parent[1], inside]
            else:
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, span_id, inside]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                add(name, dt, dt - frame[0])
                if tag is not None:
                    add(f"{name}.{tag}", dt, dt - frame[0], self.tagged)
                if not hot:
                    spans[span_id] = (span_id, parent[1], self._command, name, t0, t1)
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks for ratios and cache classification ---------------------------

    def _clique_term_tag(self, args) -> str:
        scorer, subset = args[0], args[1]
        if not subset:
            return "hit"  # the empty set is never looked up
        seen = self._seen.get(scorer)
        if seen is None:
            seen = self._seen[scorer] = set()
        key = tuple(sorted(subset))
        if key in seen:
            return "hit"
        seen.add(key)
        return "miss"

    def _validity_test(self, args) -> None:
        if self._stack[-1][2]:
            self.count("mcmc.mh_step.validity_tests")

    def _step_result(self, result) -> None:
        if result[1]:
            self.count("mcmc.mh_step.accepted")

    def _hooks(self, name: str):
        if name == "model.clique_term":
            return self._clique_term_tag, None
        if name == "graph.move_is_decomposable":
            return self._validity_test, None
        if name == "mcmc.mh_step":
            return None, self._step_result
        if name == "search.candidate_graphs":
            return None, lambda r: self.count("search.candidates", len(r))
        if name == "search.shotgun_search":
            return None, lambda r: self.count("search.visited", r.visited)
        return None, None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the library layers of the already imported gwish package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "gwish" or k.startswith("gwish."))]
        for layer in LAYERS:
            mod = sys.modules[f"gwish.{layer}"]
            for attr, fn in vars(mod).copy().items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped = self._wrap(name, fn, *self._hooks(name))
                for m in mods:
                    for key, val in vars(m).copy().items():
                        if val is fn:
                            self._undo.append((m, key, fn))
                            setattr(m, key, wrapped)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"gwish.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, *self._hooks(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def function_stats(self) -> dict[str, dict]:
        return {
            name: {"calls": c, "total_s": tot, "self_s": slf}
            for name, (c, tot, slf) in sorted({**self.stats, **self.tagged}.items())
        }

    def write_spans(self, path) -> None:
        t_base = min((s[4] for s in self.spans if s), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "command", "name", "start_s", "end_s"])
            for s in self.spans:
                w.writerow([s[0], s[1], s[2], s[3],
                            f"{s[4] - t_base:.6f}", f"{s[5] - t_base:.6f}"])
