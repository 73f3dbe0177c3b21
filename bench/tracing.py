"""Per-layer tracing from the benchmark's own files.

The tracer wraps public functions and methods of the ``qsphere`` modules.
Each wrapped call is a span; a layer's self time is the span's duration
minus the time covered by the wrapped calls made inside it.  Spans are
aggregated as they close (calls and self time per layer, plus a few size
counts), because the scalar layer alone closes millions of spans per run.

A function that other ``qsphere`` modules imported by name is rebound in
every module namespace that holds it, and methods are patched on their
classes; ``restore()`` undoes every patch.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, layer); "Class.method" patches a method
TARGETS = (
    ("qsphere.coeff", "Scalar.__mul__", "coeff.mul"),
    ("qsphere.coeff", "Scalar.__add__", "coeff.add"),
    ("qsphere.coeff", "Scalar.inverse", "coeff.inverse"),
    ("qsphere.coeff", "Scalar.__eq__", "coeff.eq"),
    ("qsphere.coeff", "Scalar.eval_float", "coeff.eval_float"),
    ("qsphere.algebra", "Element.__mul__", "algebra.mul"),
    ("qsphere.algebra", "Element.star", "algebra.star"),
    ("qsphere.algebra", "del_e", "algebra.del"),
    ("qsphere.algebra", "del_f", "algebra.del"),
    ("qsphere.forms", "dee", "forms.dee"),
    ("qsphere.forms", "ip_right", "forms.ip"),
    ("qsphere.forms", "ip_left", "forms.ip"),
    ("qsphere.tensors", "Tensor.coeffs", "tensors.coeffs"),
    ("qsphere.tensors", "ip_T", "tensors.ip"),
    ("qsphere.tensors", "ip_left_T", "tensors.ip"),
    ("qsphere.calculus", "JunkData.complement", "calculus.complement"),
    ("qsphere.calculus", "sigma", "calculus.sigma"),
    ("qsphere.calculus", "ext_d", "calculus.ext_d"),
    ("qsphere.calculus", "volume_form", "calculus.volume_form"),
    ("qsphere.levicivita", "conn_right", "levicivita.conn"),
    ("qsphere.levicivita", "conn_left", "levicivita.conn"),
    ("qsphere.spinor", "dirac", "spinor.dirac"),
    ("qsphere.spinor", "laplacian", "spinor.laplacian"),
    ("qsphere.spinor", "ip_spin_left", "spinor.ip_spin_left"),
    ("qsphere.haar", "HaarState.__call__", "haar.eval"),
    ("qsphere.haar", "_solve", "haar.solve"),
    ("qsphere.spectra", "SpinBlock._build", "spectra.block"),
)

COEFFS_LAYERS = ("tensors.coeffs.k2", "tensors.coeffs.k3", "tensors.coeffs.k4")

LAYERS = tuple(dict.fromkeys(
    layer for _, _, layer in TARGETS if layer != "tensors.coeffs")) \
    + COEFFS_LAYERS

COUNTS = ("algebra.mul.terms_out", "tensors.coeffs.k4.terms_in",
          "tensors.coeffs.k4.entries_out")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out.append((layer + ".calls", "count"))
        out.append((layer + ".self_s", "s"))
    out += [(name, "count") for name in COUNTS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Aggregated spans: calls and self time per layer, plus counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patches = []

    def call(self, layer, fn, args, kwargs):
        """Run fn as one span of the given layer."""
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            dur = self.clock() - frame[0]
            self.calls[layer] += 1
            self.self_s[layer] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def wrap(self, layer, fn):
        if layer == "algebra.mul":
            def wrapper(*args, **kwargs):
                out = self.call(layer, fn, args, kwargs)
                if out is not NotImplemented:
                    self.counts["algebra.mul.terms_out"] += len(out.terms)
                return out
        elif layer == "tensors.coeffs":
            def wrapper(t):
                k_layer = "tensors.coeffs.k%d" % t.k
                out = self.call(k_layer, fn, (t,), {})
                if t.k == 4:
                    self.counts["tensors.coeffs.k4.terms_in"] += len(t.terms)
                    self.counts["tensors.coeffs.k4.entries_out"] += len(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                return self.call(layer, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in the program; call restore() after.  Every
        module is imported first, so that no module imports a wrapper by
        name where restore() would not find it."""
        modules = [importlib.import_module(name) for name, _, _ in TARGETS]
        for module, (_, attr, layer) in zip(modules, TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(layer, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(layer, orig)
            for name, mod in list(sys.modules.items()):
                if name != "qsphere" and not name.startswith("qsphere."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, name, orig, new):
        setattr(owner, name, new)
        self._patches.append((owner, name, orig))

    def restore(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out
