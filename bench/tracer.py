"""Span tracing of nlqm's module boundaries, from outside the package.

:class:`Tracer` rebinds the public functions of each nlqm module (and every
other nlqm module attribute bound to the same function object, so the names
``cli``, ``composite`` and ``atom`` import are covered too) with wrappers that
record a span: name, module, start, end and parent span.  The ``hbuilder``
handed to ``integrate_nls`` is wrapped as well, so each state-dependent
operator build is a span of its own, labelled by operator family.

Spans stay in memory; :meth:`Tracer.layer_metrics` reduces them to per-layer
numbers.  A span's self time is its duration minus its children's, so the self
times of all spans under the root ``cli.main`` span add up to its duration.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

MODULES = ("cli", "core", "observables", "spectra", "dynamics", "composite", "atom")
BUILD_KINDS = ("linear", "lifted", "slice_sum", "gradient_flow", "neo")

# Public functions per module.  Factories whose result is a builder are
# listed separately so the builder can be labelled with its family.
FUNCTIONS = {
    "core": ("partial_trace", "rotate_subsystem", "expectation", "tensor_state",
             "basis_state"),
    "observables": ("nonlinear_operator", "wirtinger_gradient", "star_product",
                    "barstar_moment", "norm_functional", "bilinear", "moment_power",
                    "power_family", "canonical", "cubic", "singular_inverse"),
    "spectra": ("find_eigenstates", "diagonal_values", "eigenfrequencies",
                "moment_probabilities"),
    "dynamics": ("integrate_bloch", "default_timestep", "canonical_solution",
                 "jacobi_elliptic", "ellipk"),
    "composite": ("lift_operator", "weinberg_composite", "polchinski_functional",
                  "polchinski_reduced_flow", "gisin_telegraph", "mobility_telegraph",
                  "no_signaling_check", "intention_paradox"),
    "atom": ("linear_hamiltonian", "product_state", "inversion_trajectory",
             "elliptic_inversion", "field_annihilator"),
}
# Validation in the core value types runs on every construction.
METHODS = {
    "core": (("StateVector", "__post_init__"), ("DensityMatrix", "__post_init__"),
             ("HermitianOperator", "__post_init__")),
    "observables": (("HomogeneousObservable", "value"),),
}
# Spans whose step count is read from the returned trajectory's time grid.
STEPPED = {"dynamics.integrate_nls", "dynamics.integrate_bloch",
           "composite.polchinski_reduced_flow", "composite.intention_paradox"}
ATOM_KINDS = {"linear": "linear", "polchinski": "lifted", "weinberg-fock": "slice_sum"}

NAME, MODULE, START, END, PARENT, STEPS = range(6)


def _label_kind(label: str) -> str:
    if "slice-sum" in label:
        return "slice_sum"
    if "moment" in label or "^" in label:
        return "lifted"
    return "linear"


class Tracer:
    """Install with :meth:`install`, run, then :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._kinds = {}        # id(builder) -> (builder, family)
        self._undo = []
        self.missing = []
        self.rows_written = 0
        self.bytes_written = 0

    # -- span recording -------------------------------------------------

    def _wrap(self, name, module, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        steps = name in STEPPED

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, module, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if steps:
                rec[STEPS] = len(result.times) - 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _family(self, builder) -> str:
        hit = self._kinds.get(id(builder))
        if hit is not None and hit[0] is builder:
            return hit[1]
        for cell in getattr(builder, "__closure__", None) or ():
            try:
                label = getattr(cell.cell_contents, "label", None)
            except ValueError:      # a closure cell not yet bound
                continue
            if isinstance(label, str):
                return _label_kind(label)
        return "other"

    def _tag(self, kind_of):
        def after(args, kwargs, builder):
            self._kinds[id(builder)] = (builder, kind_of(args, kwargs))
        return after

    def _wrap_hbuilder(self, args, kwargs):
        def build_span(builder):
            return self._wrap(f"observables.build.{self._family(builder)}", "observables",
                              builder)

        if args:
            return (build_span(args[0]),) + tuple(args[1:]), kwargs
        return args, {**kwargs, "hbuilder": build_span(kwargs["hbuilder"])}

    def _count_csv(self, args, kwargs, _result):
        self.rows_written += len(args[2])
        self.bytes_written += os.path.getsize(args[0])

    def _count_report(self, args, kwargs, _result):
        self.bytes_written += os.path.getsize(args[0])

    # -- installation ----------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every nlqm module attribute bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nlqm" or modname.startswith("nlqm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every listed name that exists; return the wrapped ``cli.main``.

        Names the package no longer has are skipped and listed in
        ``self.missing``; their metrics then read 0.
        """
        import nlqm
        from nlqm import atom, cli, composite, dynamics  # noqa: F401

        mods = {m: sys.modules.get(f"nlqm.{m}") for m in MODULES}

        def lookup(module, attr):
            fn = getattr(mods[module], attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            return fn

        for module, names in FUNCTIONS.items():
            for attr in names:
                fn = lookup(module, attr)
                if fn is not None:
                    self._rebind(fn, self._wrap(f"{module}.{attr}", module, fn))
        for module, pairs in METHODS.items():
            for cls_name, attr in pairs:
                cls = lookup(module, cls_name)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if fn is not None:
                    setattr(cls, attr, self._wrap(f"{module}.{cls_name}.{attr}", module, fn))
                    self._undo.append((cls, attr, fn))

        special = (
            ("dynamics", "integrate_nls", dict(before=self._wrap_hbuilder)),
            ("dynamics", "neo_hamiltonian", dict(after=self._tag(lambda a, k: "neo"))),
            ("composite", "gradient_flow_operator",
             dict(after=self._tag(lambda a, k: "gradient_flow"))),
            ("atom", "build_atom_field",
             dict(after=self._tag(lambda a, k: ATOM_KINDS.get(a[0], "other")))),
            ("cli", "_write_csv", dict(after=self._count_csv)),
            ("cli", "_write_report", dict(after=self._count_report)),
            ("cli", "main", {}),
        )
        for module, attr, hooks in special:
            fn = lookup(module, attr)
            if fn is not None:
                self._rebind(fn, self._wrap(f"{module}.{attr}", module, fn, **hooks))
        return mods["cli"].main

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def dump(self, path: str) -> None:
        if not self.spans:
            return
        t0 = self.spans[0][START]
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "module": rec[MODULE],
                                     "start": rec[START] - t0, "end": rec[END] - t0,
                                     "parent": rec[PARENT], "steps": rec[STEPS]}) + "\n")

    def layer_metrics(self) -> dict:
        selfs = self.self_times()
        total, calls, steps, self_by = {}, {}, {}, {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for rec, s in zip(self.spans, selfs):
            name = rec[NAME]
            total[name] = total.get(name, 0.0) + rec[END] - rec[START]
            calls[name] = calls.get(name, 0) + 1
            steps[name] = steps.get(name, 0) + rec[STEPS]
            self_by[name] = self_by.get(name, 0.0) + s
            module_self[rec[MODULE]] += s

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        build_s, build_calls = 0.0, 0
        for kind in BUILD_KINDS:
            key = f"observables.build.{kind}"
            n = calls.get(key, 0)
            m[f"{key}.calls"] = n
            m[f"{key}.us"] = per(total.get(key, 0.0), n, 1e6)
        for name in total:
            if name.startswith("observables.build."):
                build_s += total[name]
                build_calls += calls[name]
        m["observables.build.s"] = build_s

        nls = "dynamics.integrate_nls"
        m[f"{nls}.calls"] = calls.get(nls, 0)
        m[f"{nls}.steps"] = steps.get(nls, 0)
        m[f"{nls}.self_s"] = self_by.get(nls, 0.0)
        m[f"{nls}.us_per_step"] = per(total.get(nls, 0.0), steps.get(nls, 0), 1e6)
        m["dynamics.builds_per_step"] = per(build_calls, steps.get(nls, 0))
        m["dynamics.integrate_bloch.s"] = total.get("dynamics.integrate_bloch", 0.0)
        for name in ("composite.polchinski_reduced_flow", "composite.intention_paradox"):
            m[f"{name}.us_per_step"] = per(total.get(name, 0.0), steps.get(name, 0), 1e6)
        m["core.partial_trace.calls"] = calls.get("core.partial_trace", 0)
        m["core.partial_trace.us"] = per(total.get("core.partial_trace", 0.0),
                                         calls.get("core.partial_trace", 0), 1e6)
        m["atom.build_atom_field.s"] = total.get("atom.build_atom_field", 0.0)
        m["atom.inversion_trajectory.self_s"] = self_by.get("atom.inversion_trajectory", 0.0)
        m["spectra.find_eigenstates.calls"] = calls.get("spectra.find_eigenstates", 0)
        m["spectra.find_eigenstates.s"] = total.get("spectra.find_eigenstates", 0.0)
        m["cli.rows_written"] = self.rows_written
        m["cli.bytes_written"] = self.bytes_written
        for module in MODULES:
            m[f"{module}.self_s"] = module_self[module]
        m["trace.self_sum_s"] = sum(module_self.values())
        m["trace.spans"] = len(self.spans)
        return m
