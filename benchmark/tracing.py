"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each tauforge module with
wrappers that record a span (name, start, end, parent) and the counts of
work done.  A wrapper is installed on every name a caller looks up: a
module that imported a function by name keeps its own reference, so
patching only the defining module would miss those calls.  Spans stay in
memory until the run ends.  The pipelines run single-threaded here
(`--threads 1`), so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (metric, unit); values are per pipeline call, averaged over traced rounds,
# except quadrature.max_batch, the largest single integrand batch
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("kdv.tau_grid_s", "s"),
    ("kdv.tau_grid_self_s", "s"),
    ("kdv.node_sweep_s", "s"),
    ("kdv.pullback_s", "s"),
    ("kdv.pullback_loops", "count"),
    ("kdv.integrand_self_s", "s"),
    ("kdv.residual_s", "s"),
    ("kdv.distinct_points", "count"),
    ("kdv.distinct_ratio", "ratio"),
    ("birkhoff.factorize_s", "s"),
    ("birkhoff.calls", "count"),
    ("birkhoff.loops", "count"),
    ("birkhoff.us_per_loop", "us"),
    ("birkhoff.not_ok", "count"),
    ("quadrature.refine_s", "s"),
    ("quadrature.self_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.levels", "count"),
    ("quadrature.points", "count"),
    ("quadrature.max_batch", "count"),
    ("loops.random_loop_s", "s"),
    ("loops.random_loops", "count"),
    ("ernst.logtau_field_s", "s"),
    ("ernst.logtau_field_calls", "count"),
    ("ernst.conformal_self_s", "s"),
    ("ernst.checks_s", "s"),
    ("ernst.dlogtau_points", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans and counts at the boundaries of the tauforge modules."""

    def __init__(self):
        self.spans = []                 # [id, parent id or None, name, start, end]
        self.counts = defaultdict(float)
        self._stack = []
        self._kdv_points = []
        self._saved = []

    # -- recording ---------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span called name."""
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return wrapper

    def _refine(self, fn, integrand):
        def wrapper(eval_fn, *args, **kwargs):
            def traced_eval(points, cols):
                self.counts["quadrature.points"] += len(points)
                self.counts["quadrature.max_batch"] = max(
                    self.counts["quadrature.max_batch"], len(points))
                return self.call(integrand, eval_fn, points, cols)
            result = self.call("quadrature.refine", fn, traced_eval,
                               *args, **kwargs)
            self.counts["quadrature.calls"] += 1
            self.counts["quadrature.levels"] += result[1]
            return result
        return wrapper

    # -- counters run after a wrapped call ---------------------------

    def _after_factorize(self, site):
        def after(args, kwargs, result):
            loops = len(args[0])
            self.counts["birkhoff.calls"] += 1
            self.counts["birkhoff.loops"] += loops
            self.counts["birkhoff.not_ok"] += int((~result[3]).sum())
            if site == "kdv":
                self.counts["kdv.factorized_loops"] += loops
        return after

    def _after_pullback(self, args, kwargs, result):
        x, t = (np.atleast_1d(np.asarray(a, dtype=float)) for a in args[1:3])
        self.counts["kdv.pullback_loops"] += len(x)
        self._kdv_points.append(np.column_stack([x, t]))

    def _after_tau_grid(self, args, kwargs, result):
        if self._kdv_points:
            points = np.concatenate(self._kdv_points)
            self.counts["kdv.distinct_points"] += len(np.unique(points, axis=0))
        self._kdv_points = []

    def _count(self, key, size=lambda args: 1):
        def after(args, kwargs, result):
            self.counts[key] += size(args)
        return after

    # -- patching ----------------------------------------------------

    def _patches(self):
        """(module, attribute, wrapper factory) for every traced lookup site."""
        factor = "birkhoff.factorize"
        return [
            ("tauforge.kdv", "tau_grid", lambda f: self._spanned(
                "kdv.tau_grid", f, self._after_tau_grid)),
            ("tauforge.kdv", "_node_sweep",
             lambda f: self._spanned("kdv.node_sweep", f)),
            ("tauforge.kdv", "pullback_coeff_batch", lambda f: self._spanned(
                "kdv.pullback", f, self._after_pullback)),
            ("tauforge.kdv", "kdv_residual",
             lambda f: self._spanned("kdv.residual", f)),
            ("tauforge.kdv", "factorize_batch", lambda f: self._spanned(
                factor, f, self._after_factorize("kdv"))),
            ("tauforge.cli", "factorize_batch", lambda f: self._spanned(
                factor, f, self._after_factorize("cli"))),
            ("tauforge.birkhoff", "factorize_batch", lambda f: self._spanned(
                factor, f, self._after_factorize("birkhoff"))),
            ("tauforge.kdv", "refine_path_cells",
             lambda f: self._refine(f, "kdv.integrand")),
            ("tauforge.ernst", "refine_path_cells",
             lambda f: self._refine(f, "ernst.integrand")),
            ("tauforge.cli", "random_unimodular_loop", lambda f: self._spanned(
                "loops.random_loop", f, self._count("loops.random_loops"))),
            ("tauforge.ernst", "logtau_field", lambda f: self._spanned(
                "ernst.logtau_field", f, self._count("ernst.logtau_field_calls"))),
            ("tauforge.ernst", "conformal_factor_check",
             lambda f: self._spanned("ernst.conformal", f)),
            ("tauforge.ernst", "field_residual",
             lambda f: self._spanned("ernst.checks", f)),
            ("tauforge.ernst", "residue_check",
             lambda f: self._spanned("ernst.checks", f)),
            ("tauforge.ernst", "rectangle_loop_integral",
             lambda f: self._spanned("ernst.checks", f)),
            ("tauforge.ernst", "dlogtau", lambda f: self._counted(
                f, self._count("ernst.dlogtau_points",
                               lambda args: np.broadcast(args[1], args[2]).size))),
        ]

    def install(self):
        for module_name, attr, factory in self._patches():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, factory(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- derived metrics ---------------------------------------------

    def metrics(self, traced_walls, untraced_walls) -> dict:
        """Per-layer metrics; self time = duration minus direct children."""
        total = defaultdict(float)
        child = defaultdict(float)
        for _, parent, name, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            own[name] += end - start - child[sid]

        c = self.counts
        n = max(1, sum(1 for s in self.spans if s[2] == "cli.main"))
        loops = c["birkhoff.loops"]
        values = {
            "cli.self_s": own["cli.main"] / n,
            "cli.csv_bytes": c["cli.csv_bytes"] / n,
            "kdv.tau_grid_s": total["kdv.tau_grid"] / n,
            "kdv.tau_grid_self_s": own["kdv.tau_grid"] / n,
            "kdv.node_sweep_s": total["kdv.node_sweep"] / n,
            "kdv.pullback_s": total["kdv.pullback"] / n,
            "kdv.pullback_loops": c["kdv.pullback_loops"] / n,
            "kdv.integrand_self_s": own["kdv.integrand"] / n,
            "kdv.residual_s": total["kdv.residual"] / n,
            "kdv.distinct_points": c["kdv.distinct_points"] / n,
            "kdv.distinct_ratio": (c["kdv.distinct_points"] / c["kdv.factorized_loops"]
                                   if c["kdv.factorized_loops"] else 0.0),
            "birkhoff.factorize_s": total["birkhoff.factorize"] / n,
            "birkhoff.calls": c["birkhoff.calls"] / n,
            "birkhoff.loops": loops / n,
            "birkhoff.us_per_loop": (1e6 * total["birkhoff.factorize"] / loops
                                     if loops else 0.0),
            "birkhoff.not_ok": c["birkhoff.not_ok"] / n,
            "quadrature.refine_s": total["quadrature.refine"] / n,
            "quadrature.self_s": own["quadrature.refine"] / n,
            "quadrature.calls": c["quadrature.calls"] / n,
            "quadrature.levels": c["quadrature.levels"] / n,
            "quadrature.points": c["quadrature.points"] / n,
            "quadrature.max_batch": c["quadrature.max_batch"],
            "loops.random_loop_s": total["loops.random_loop"] / n,
            "loops.random_loops": c["loops.random_loops"] / n,
            "ernst.logtau_field_s": total["ernst.logtau_field"] / n,
            "ernst.logtau_field_calls": c["ernst.logtau_field_calls"] / n,
            "ernst.conformal_self_s": own["ernst.conformal"] / n,
            "ernst.checks_s": total["ernst.checks"] / n,
            "ernst.dlogtau_points": c["ernst.dlogtau_points"] / n,
            "trace.wall_s": float(np.median(traced_walls)),
            "trace.overhead_s": float(np.median(traced_walls)
                                      - np.median(untraced_walls)),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
