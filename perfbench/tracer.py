"""Per-layer tracing of quadgrad, installed from outside the package.

Every module binds the functions it imports when it is loaded, so a wrapper
on the defining module alone would miss most calls.  ``Tracer`` therefore
replaces each public quadgrad function in *every* module namespace that binds
it (``quadgrad.solver.cg_solve`` as well as ``quadgrad.grid.cg_solve``,
``quadgrad.cli.k_continuation``, the ``quadgrad.validate`` checks, ...), plus
``DiffusionOperator.apply`` and the public ``HModel`` methods on their
classes.  A label names the defining module and the function, so a layer is
the first part of a label.

Spans are aggregated in memory by (caller label, callee label): calls,
inclusive seconds and self seconds (inclusive minus the traced children).
A layer's entry calls are the spans whose caller sits in another layer.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("cli", "config", "constants", "grid", "nonlinearity",
                 "solver", "validate")
# private cli helpers that write the command's output files
CLI_OUTPUT = ("_dump_json", "_write_trace", "_write_diagnostics")
OUTPUT_LABELS = tuple(f"cli.{name}" for name in CLI_OUTPUT) \
    + ("grid.write_field_csv",)
DIAGNOSTIC_LABELS = ("solver.estimate_check", "solver.fixed_point_residual",
                     "solver.original_residual", "solver.norm_identity_gap")
APPLY = "grid.DiffusionOperator.apply"
CG = "grid.cg_solve"
INNER = "solver.inner_solve"
OUTER = "solver.outer_fixed_point"
SOBOLEV = "grid.estimate_sobolev_constant"


def layer(label):
    return label.split(".", 1)[0]


def stencil_cost(shape):
    """Flops and compulsory bytes of one stencil application, from shapes.

    Bytes count reading v and the edge coefficients and writing the result
    once (8-byte floats); flops count the differences, coefficient products,
    flux differences, 1/h^2 scalings and the axis sum.  Both are computed,
    not measured: cache misses and temporaries are ignored.
    """
    if len(shape) == 1:
        (n,) = shape
        edges = n + 1
        return 2 * edges + 2 * n, 8 * (2 * n + edges)
    nx, ny = shape
    edges = (nx + 1) * ny + nx * (ny + 1)
    return 2 * edges + 5 * nx * ny, 8 * (2 * nx * ny + edges)


class Tracer:
    """Install with ``with Tracer() as tr:``; the wrappers are removed on exit."""

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.apply_shapes = defaultdict(int)
        self.traces = []      # IterationTrace lists returned by k_continuation
        # frame: [label, traced child seconds, direct child applies]
        self._stack = [["root", 0.0, 0]]
        self._undo = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        mods = {name: importlib.import_module(f"quadgrad.{name}")
                for name in LAYER_MODULES}
        targets = {f"quadgrad.{name}" for name in LAYER_MODULES}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) \
                        or obj.__module__ not in targets:
                    continue
                if attr.startswith("_") and not (name == "cli"
                                                 and attr in CLI_OUTPUT):
                    continue
                label = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                self._patch(mod, attr, self._wrap(label, obj))
        op_cls = mods["grid"].DiffusionOperator
        self._patch(op_cls, "apply", self._wrap(APPLY, op_cls.apply))
        model_cls = mods["nonlinearity"].HModel
        for attr in ("evaluate", "analytic_certificate_ok"):
            self._patch(model_cls, attr, self._wrap(
                f"nonlinearity.HModel.{attr}", getattr(model_cls, attr)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, label, fn):
        stack, edges = self._stack, self.edges
        on_exit = {APPLY: self._on_apply, CG: self._on_cg, INNER: self._on_inner,
                   SOBOLEV: self._on_sobolev,
                   "solver.k_continuation": self._on_ladder}.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [label, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                edge = edges[parent[0], label]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if on_exit is not None:
                on_exit(frame, parent, args, result)
            return result

        return traced

    # -- counters taken where the work happens -----------------------------

    def _on_apply(self, frame, parent, args, result):
        parent[2] += 1
        self.apply_shapes[args[1].shape] += 1

    def _on_cg(self, frame, parent, args, result):
        # one apply for the initial residual, then one per iteration
        iters = max(frame[2] - 1, 0)
        self.counts["cg_iters"] += iters
        if parent[0] == INNER:
            self.counts["newton_cg_iters"] += iters
        else:
            self.counts["poisson_cg_iters"] += iters

    def _on_inner(self, frame, parent, args, result):
        self.counts["newton_steps"] += result[1].iterations
        self.counts["inner_applies"] += frame[2]

    def _on_sobolev(self, frame, parent, args, result):
        self.counts["sobolev_iters"] += result.iterations

    def _on_ladder(self, frame, parent, args, result):
        self.traces.append(result[2])

    # -- aggregation -------------------------------------------------------

    def calls(self, label):
        return sum(e[0] for (_, lab), e in self.edges.items() if lab == label)

    def inclusive(self, label, parent_layer=None):
        return sum(e[1] for (par, lab), e in self.edges.items()
                   if lab == label
                   and (parent_layer is None or layer(par) == parent_layer))

    def self_time(self, label):
        return sum(e[2] for (_, lab), e in self.edges.items() if lab == label)

    def entries(self, lay):
        """Calls into a layer from other layers, and their inclusive time."""
        calls, seconds = 0, 0.0
        for (par, lab), e in self.edges.items():
            if layer(lab) == lay and layer(par) != lay:
                calls += e[0]
                seconds += e[1]
        return calls, seconds

    def record_totals(self):
        """Picard and Newton totals summed over the returned trace records."""
        records = [r for traces in self.traces for t in traces for r in t.records]
        return len(records), sum(r.inner_iterations for r in records)

    def metrics(self):
        """Per-layer counts (deterministic) and seconds of one traced op."""
        c = self.counts
        picard = self.calls(INNER)
        newton = c["newton_steps"]
        levels = self.calls(OUTER)
        cg_calls = self.calls(CG)
        ls_trials = c["inner_applies"] - picard
        nl_calls, nl_s = self.entries("nonlinearity")
        k_calls, k_s = self.entries("constants")
        v_calls, v_s = self.entries("validate")
        costs = [(n, stencil_cost(shape)) for shape, n in self.apply_shapes.items()]
        config_self = sum(e[2] for (_, lab), e in self.edges.items()
                          if layer(lab) == "config")
        counts = {
            "grid.apply_calls": self.calls(APPLY),
            "kernels.bytes_computed": sum(n * nb for n, (_, nb) in costs),
            "kernels.flops_computed": sum(n * fl for n, (fl, _) in costs),
            "grid.cg_calls": cg_calls,
            "grid.cg_iters": c["cg_iters"],
            "grid.cg_iters_per_call": _ratio(c["cg_iters"], cg_calls),
            "grid.poisson_cg_iters": c["poisson_cg_iters"],
            "config.sobolev_iters": c["sobolev_iters"],
            "solver.levels": levels,
            "solver.picard_iters": picard,
            "solver.picard_per_level": _ratio(picard, levels),
            "solver.newton_steps": newton,
            "solver.newton_per_picard": _ratio(newton, picard),
            "solver.cg_per_newton": _ratio(c["newton_cg_iters"], newton),
            "solver.ls_trials": ls_trials,
            "solver.ls_halvings": ls_trials - newton,
            "solver.ls_accept_ratio": _ratio(newton, ls_trials),
            "nonlinearity.calls": nl_calls,
            "constants.calls": k_calls,
            "validate.checks": v_calls,
        }
        seconds = {
            "grid.apply_s": self.inclusive(APPLY),
            "grid.cg_self_s": self.self_time(CG),
            "config.sobolev_s": self.inclusive(SOBOLEV),
            "config.hm1_s": self.inclusive("grid.hminus1_norm",
                                           parent_layer="config"),
            "config.build_s": config_self,
            "solver.outer_self_s": self.self_time(OUTER),
            "solver.inner_self_s": self.self_time(INNER),
            "solver.diagnostics_s": sum(
                e[1] for (par, lab), e in self.edges.items()
                if lab in DIAGNOSTIC_LABELS and par not in DIAGNOSTIC_LABELS),
            "nonlinearity.s": nl_s,
            "constants.s": k_s,
            "validate.s": v_s,
            "cli.output_s": sum(self.inclusive(lab, parent_layer="cli")
                                for lab in OUTPUT_LABELS),
        }
        return counts, seconds


def _ratio(num, den):
    return num / den if den else 0.0
