"""Spans and counters recorded from outside the program.

A :class:`Tracer` rebinds public kepdiff functions, in every kepdiff
module namespace that holds them, to wrappers that record a span per
call; SuperLU factorisations and solves are wrapped at the scipy
boundary.  Nothing under ``src/`` is edited: the rebinding is undone by
:meth:`Tracer.uninstall`.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's time is its self time: the span's duration minus the time its
traced child spans cover.  ``acceptance.C*_s`` are the exception, they
are whole-criterion wall times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from importlib import import_module

import numpy as np


def _points(args, kwargs, name):
    """Number of 3-d points in the second argument of a field call."""
    pts = args[1] if len(args) > 1 else kwargs[name]
    return int(np.asarray(pts).size // 3)


def _after_simulate(tracer, a, k, ens):
    cfg = ens.config
    tracer.count("sde.path_steps", cfg.n_paths * cfg.n_steps)
    tracer.gauge("sde.lanes", cfg.n_paths)
    tracer.count("sde.truncated_paths", int(np.sum(ens.truncated)))
    tracer.count("sde.cap_rejections", int(np.sum(ens.cap_rejections)))
    tracer.count("sde.jump_crossings", int(np.sum(ens.jump_crossings)))


def _after_build(tracer, a, k, G):
    tracer.count("spectral.nodes", G.n_nodes)
    tracer.count("spectral.nnz", G.matrix.nnz)


#: (defining module, function, span name, hook run on the result).
#: The benchmark's own code calls these through module attributes, and
#: kepdiff modules that imported a name directly get the wrapper too.
TARGETS = [
    ("kepdiff.sde", "simulate_ensemble", "sde.simulate", _after_simulate),
    ("kepdiff.sde", "kepler_diagnostics", "sde.kepler_diagnostics", None),
    ("kepdiff.fields", "jump_distance_many", "fields.jump_distance",
     lambda t, a, k, out: t.count("fields.jump_distance_points",
                                  _points(a, k, "pts"))),
    ("kepdiff.fields", "to_elliptic", "fields.to_elliptic",
     lambda t, a, k, out: t.count("fields.to_elliptic_points",
                                  _points(a, k, "pt"))),
    ("kepdiff.fields", "complex_velocity", "fields.complex_velocity", None),
    ("kepdiff.fields", "wave_gradients", "fields.wave_gradients", None),
    ("kepdiff.measure", "log_invariant_density",
     "measure.log_invariant_density", None),
    ("kepdiff.measure", "cross_section_widths",
     "measure.cross_section_widths", None),
    ("kepdiff.measure", "tangential_factor_ode_grid",
     "measure.tangential_factor_ode_grid", None),
    ("kepdiff.specfun", "complex_velocity_finite",
     "specfun.complex_velocity_finite", None),
    ("kepdiff.specfun", "hermite_ratio", "specfun.hermite_ratio", None),
    ("kepdiff.specfun", "log_wave", "specfun.log_wave", None),
    ("kepdiff.quadrature", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("kepdiff.spectral", "build_generator", "spectral.build_generator",
     _after_build),
    ("kepdiff.spectral", "stationary_vector", "spectral.stationary_vector",
     lambda t, a, k, out: t.gauge("spectral.pi_residual", out[1])),
    ("kepdiff.spectral", "gap_from_matrix", "spectral.gap_from_matrix",
     lambda t, a, k, out: t.gauge("spectral.gap_residual_weighted",
                                  out.residual_weighted)),
    ("kepdiff.spectral", "gap_from_autocorrelation",
     "spectral.gap_from_autocorrelation", None),
    ("kepdiff.spectral", "dirichlet_form_residual",
     "spectral.dirichlet_form_residual", None),
    ("kepdiff.spectral", "adjoint_residual", "spectral.adjoint_residual",
     None),
    ("kepdiff.spectral", "osmotic_radial_scan", "spectral.osmotic_radial_scan",
     None),
    ("kepdiff.io", "write_csv", "io.write_csv",
     lambda t, a, k, out: t.count("io.write_csv_bytes",
                                  os.path.getsize(a[0]))),
    ("kepdiff.io", "write_json", "io.write_json", None),
    ("kepdiff.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("kepdiff.acceptance", "criterion_1", "acceptance.C1", None),
    ("kepdiff.acceptance", "criterion_3", "acceptance.C3", None),
    ("kepdiff.acceptance", "criterion_6", "acceptance.C6", None),
    ("kepdiff.acceptance", "criterion_8", "acceptance.C8", None),
]

#: Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "sde.simulate_s": "sde.simulate",
    "sde.kepler_diagnostics_s": "sde.kepler_diagnostics",
    "fields.jump_distance_s": "fields.jump_distance",
    "fields.to_elliptic_s": "fields.to_elliptic",
    "fields.complex_velocity_s": "fields.complex_velocity",
    "fields.wave_gradients_s": "fields.wave_gradients",
    "measure.log_invariant_density_s": "measure.log_invariant_density",
    "measure.cross_section_widths_s": "measure.cross_section_widths",
    "measure.tangential_factor_ode_grid_s":
        "measure.tangential_factor_ode_grid",
    "specfun.complex_velocity_finite_s": "specfun.complex_velocity_finite",
    "specfun.hermite_ratio_s": "specfun.hermite_ratio",
    "specfun.log_wave_s": "specfun.log_wave",
    "quadrature.adaptive_quad_s": "quadrature.adaptive_quad",
    "spectral.build_generator_s": "spectral.build_generator",
    "spectral.stationary_vector_s": "spectral.stationary_vector",
    "spectral.gap_from_matrix_s": "spectral.gap_from_matrix",
    "spectral.lu_factor_s": "spectral.lu_factor",
    "spectral.lu_solve_s": "spectral.lu_solve",
    "spectral.gap_from_autocorrelation_s": "spectral.gap_from_autocorrelation",
    "spectral.dirichlet_form_residual_s": "spectral.dirichlet_form_residual",
    "spectral.adjoint_residual_s": "spectral.adjoint_residual",
    "spectral.osmotic_radial_scan_s": "spectral.osmotic_radial_scan",
    "io.write_csv_s": "io.write_csv",
    "cli.cmd_simulate_self_s": "cli.cmd_simulate",
}

#: Per-layer metric -> span whose whole duration it reports.
WALL_TIMES = {f"acceptance.{c}_s": f"acceptance.{c}"
              for c in ("C1", "C3", "C6", "C8")}

#: Per-layer metric -> span whose calls it counts.
CALLS = {
    "specfun.complex_velocity_finite_calls": "specfun.complex_velocity_finite",
    "quadrature.adaptive_quad_calls": "quadrature.adaptive_quad",
    "spectral.lu_factorizations": "spectral.lu_factor",
    "spectral.lu_solves": "spectral.lu_solve",
}

#: Counters and gauges filled by the hooks in TARGETS.
COUNTERS = ("sde.path_steps", "sde.lanes", "sde.truncated_paths",
            "sde.cap_rejections", "sde.jump_crossings",
            "fields.jump_distance_points", "fields.to_elliptic_points",
            "spectral.nodes", "spectral.nnz", "spectral.pi_residual",
            "spectral.gap_residual_weighted", "io.write_csv_bytes")

#: Benchmark spans (opened by the workloads) under which LU work is also
#: counted on its own, as ``<metric prefix>.lu_factorizations`` etc.
LU_SCOPES = {f"gap_matrix.eps{eps}": f"spectral.eps{eps}"
             for eps in (0.3, 0.2, 0.1)}


class _TracedLU:
    """SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("spectral.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []            # [id, parent, name, start, end, pass]
        self.counters = defaultdict(lambda: defaultdict(float))
        self.missing = []
        self.pass_id = 0
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None, self.pass_id]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self.counters[self.pass_id][name] += n

    def gauge(self, name, value):
        c = self.counters[self.pass_id]
        c[name] = max(c[name], float(value))

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def _rebind(self, original, replacement, prefixes):
        """Point every module-level name bound to ``original`` at
        ``replacement`` in modules whose name starts with a prefix."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(prefixes):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    n += 1
        return n

    def install(self):
        for modname, attr, name, hook in TARGETS:
            fn = getattr(import_module(modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self._wrap(fn, name, hook), ("kepdiff",))

        # SuperLU at the scipy boundary: scipy.sparse.linalg, its
        # _dsolve modules and ARPACK each bind their own ``splu`` name.
        import scipy.sparse.linalg as spla
        splu = spla.splu
        tracer = self

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            with tracer.span("spectral.lu_factor"):
                lu = splu(*args, **kwargs)
            return _TracedLU(lu, tracer)

        with contextlib.suppress(ImportError):  # a private scipy path
            import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        if not self._rebind(splu, traced_splu, ("scipy", "kepdiff")):
            self.missing.append("scipy.sparse.linalg.splu")

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- reduction --------------------------------------------------------

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one pass, every metric present."""
        spans = [s for s in self.spans if s[5] == pass_id]
        by_id = {s[0]: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        self_t = defaultdict(float)
        wall_t = defaultdict(float)
        calls = defaultdict(int)
        for s in spans:
            self_t[s[2]] += s[4] - s[3] - child[s[0]]
            wall_t[s[2]] += s[4] - s[3]
            calls[s[2]] += 1

        m = {k: self_t[v] for k, v in SELF_TIMES.items()}
        m.update({k: wall_t[v] for k, v in WALL_TIMES.items()})
        m.update({k: float(calls[v]) for k, v in CALLS.items()})
        counters = self.counters[pass_id]
        m.update({k: float(counters[k]) for k in COUNTERS})
        m["sde.path_steps_per_s"] = (m["sde.path_steps"] / m["sde.simulate_s"]
                                     if m["sde.simulate_s"] > 0 else 0.0)

        def scope_of(s):
            while s[1] is not None:
                s = by_id[s[1]]
                if s[2] in LU_SCOPES:
                    return LU_SCOPES[s[2]]
            return None

        for prefix in LU_SCOPES.values():
            m[f"{prefix}.lu_factorizations"] = 0.0
            m[f"{prefix}.lu_solves"] = 0.0
        for s in spans:
            kind = {"spectral.lu_factor": "lu_factorizations",
                    "spectral.lu_solve": "lu_solves"}.get(s[2])
            scope = scope_of(s) if kind else None
            if scope:
                m[f"{scope}.{kind}"] += 1.0
        return m

    def dump(self, path, meta):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "missing_targets": self.missing,
                       "span_fields": ["id", "parent", "name", "start",
                                       "end", "pass"],
                       "spans": self.spans}, fh)


_UNITS = {"sde.path_steps_per_s": "1/s", "io.write_csv_bytes": "B",
          "spectral.pi_residual": "1", "spectral.gap_residual_weighted": "1"}


def unit(metric):
    return _UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def median_metrics(per_pass):
    """Per-metric median over passes."""
    return {k: statistics.median(m[k] for m in per_pass)
            for k in per_pass[0]}
