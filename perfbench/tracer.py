"""In-memory spans around calls into fingap's public functions.

A span is recorded by replacing a module attribute (for example
``harness.minimize_rayleigh``, the name ``run_case`` looks up at call time)
with a wrapper that notes name, start, end, parent span and trace id.  The
trace id is the case or grid-point id the workload sets before each item.
Nothing inside ``src/`` is modified; the original attributes are restored
when the tracer is removed.

Spans stay in a list until the run ends; ``self_times`` derives each span's
self time (its duration minus the part covered by its children).
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (module name, attribute, span name, attribute extractor).  The same span
# name may be bound in several modules: harness imports its own references.
# Extractors run after the span is closed, so their cost is charged to the
# parent span, never to the layer being measured.  A ``run_case`` span takes
# its case id as the trace id of itself and everything below it.


def _eigen_attrs(args, kwargs, out):
    dom, norm = args[0], args[1]
    h = out.history
    back = h[max(0, len(h) - 11)]
    return {
        "family": norm.family,
        "n": int(dom.n_nodes),
        "iterations": int(out.iterations),
        "converged": bool(out.converged),
        "stall": bool(out.converged and back - h[-1] >= 1e-12 * max(abs(h[-1]), 1e-300)),
        "residual": float(out.residual),
        "lam": float(out.lam),
    }


def _domain_attrs(args, kwargs, out):
    return {"nodes": int(out.n_nodes), "slots": int(out.neighbor_mask.sum())}


def _diameter_attrs(args, kwargs, out):
    n = int(args[0].n_nodes)
    return {"pairs": n * n}


def _shoot_attrs(args, kwargs, out):
    return {"steps": int(len(out.ts))}


WRAPS = [
    ("harness", "run_suite", "harness.run_suite", None),
    ("harness", "run_case", "harness.run_case", None),
    ("harness", "check_gradient_comparison", "harness.check_gradient_comparison", None),
    ("harness", "check_maxima", "harness.check_maxima", None),
    ("harness", "build_domain", "domain.build_domain", _domain_attrs),
    ("harness", "analytic_diameter", "domain.analytic_diameter", None),
    ("harness", "minimize_rayleigh", "eigensolver.minimize_rayleigh", _eigen_attrs),
    ("harness", "lambda1_model", "model1d.lambda1_model", None),
    ("harness", "fit_model_solution", "model1d.fit_model_solution", None),
    ("harness", "model_solution", "model1d.model_solution", None),
    ("eigensolver", "dual_norm_eval", "norms.dual_norm_eval", None),
    ("eigensolver", "legendre_inverse", "norms.legendre_inverse", None),
    ("domain", "build_domain", "domain.build_domain", _domain_attrs),
    ("domain", "analytic_diameter", "domain.analytic_diameter", None),
    ("domain", "diameter", "domain.diameter", _diameter_attrs),
    ("model1d", "lambda1_model", "model1d.lambda1_model", None),
    ("model1d", "fit_model_solution", "model1d.fit_model_solution", None),
    ("model1d", "model_solution", "model1d.model_solution", None),
    ("model1d", "shoot", "model1d.shoot", _shoot_attrs),
]

# The untraced runs keep only these two, to learn each solve's convergence
# state and which case it belongs to: 27 spans per golden pass.
OBSERVE = {"harness.run_case", "eigensolver.minimize_rayleigh"}


class Tracer:
    """Records spans as lists [name, parent, trace_id, t0, t1, attrs]."""

    def __init__(self):
        self.spans: list = []
        self.trace_id = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, fn, name, extract):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            if name == "harness.run_case":
                self.trace_id = str(args[0].get("id", "case"))
            rec = [name, parent, self.trace_id, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(sid)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if extract is not None:
                rec[5] = extract(args, kwargs, out)
            return out

        return wrapper

    def install(self, modules: dict, names=None) -> "Tracer":
        """Wrap every entry of WRAPS (or those whose span name is in names)."""
        for mod_name, attr, name, extract in WRAPS:
            if names is not None and name not in names:
                continue
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, extract))
        return self

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def root(self, name: str):
        """Context manager for a span with no wrapped function (a pass)."""
        return _Root(self, name)

    def clear(self) -> None:
        self.spans.clear()


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        self.rec = [self.name, t._stack[-1] if t._stack else -1, t.trace_id,
                    0.0, 0.0, None]
        t.spans.append(self.rec)
        t._stack.append(self.sid)
        self.rec[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[4] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one parent never overlap (one thread), so subtracting their
    durations is exact.
    """
    dur = np.array([s[4] - s[3] for s in spans])
    out = dur.copy()
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            out[s[1]] -= d
    return out

