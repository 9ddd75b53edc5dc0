"""Per-layer tracing of the homotrace package from outside its source.

The tracer wraps the public functions of each package module at every
attribute where callers look them up (``homotrace.cli.validate_bundle`` as
well as ``homotrace.dgcore.validate_bundle``), plus a few methods on their
classes.  Layer-boundary calls become spans (name, start, end, parent, run
id, operation) kept in memory and written out when the run ends.  Hot entry
points (all of ``glinalg``, the propagator, ``on_basis``, the quadrature
integrand) are counted and timed in aggregate instead, so tracing does not
swamp them.  A call's self time is its duration minus the time of the
timed calls nested directly in it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import wraps

from homotrace import (cli, dgcore, glinalg, hochschild, instances,
                       quadrature, serialize, traces, transfer)
from homotrace.errors import QuadratureBudgetError

LAYERS = {m.__name__.rsplit(".", 1)[1]: m for m in (
    instances, serialize, dgcore, glinalg, transfer, quadrature, hochschild,
    traces, cli)}

# module functions timed in aggregate (name without the layer prefix)
HOT = {"transfer": {"as_slot", "transfer_closed"},
       "hochschild": {"cyclic_shift_term", "target_algebra",
                      "morphism_block_component"}}
# wrapped through PropagatorCache.value instead
SKIP = {"transfer": {"propagator"}}
# class methods timed in aggregate: (class, attribute, label)
METHODS = (
    (glinalg.GradedMap, "build", "glinalg.build"),
    (glinalg.GradedMap, "__add__", "glinalg.add"),
    (glinalg.GradedMap, "scale", "glinalg.scale"),
    (dgcore.DgAlgebra, "mul_vectors", "dgcore.mul_vectors"),
    (transfer.PropagatorCache, "value", "transfer.propagator"),
    (transfer.AInfinityMorphism, "on_basis", "transfer.on_basis"),
)


class Tracer:
    """Spans and aggregates of one benchmark run; off until enabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.op = None           # label of the operation being traced
        self.spans = []          # (id, name, start, end, parent, self, op)
        self.agg = {}            # name -> [calls, total s, self s]
        self.counts = {}         # deterministic counts
        self._stack = []         # [span id or None, time in timed children]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, spanned: bool):
        sid = None
        if spanned:
            sid = self._next_id
            self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, name: str, sid, parent, start: float, end: float) -> None:
        frame = self._stack.pop()
        dur = end - start
        own = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if sid is None:
            a = self.agg.get(name)
            if a is None:
                self.agg[name] = [1, dur, own]
            else:
                a[0] += 1
                a[1] += dur
                a[2] += own
        else:
            self.spans.append((sid, name, start, end, parent, own, self.op))

    def timed(self, fn, name, spanned: bool, label_of=None, after=None):
        """Wrap ``fn``; ``label_of(args, kwargs)`` refines the name and
        ``after(args, kwargs, result)`` records counts."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if label_of is None else label_of(args, kwargs)
            sid, parent = tracer._enter(spanned)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(label, sid, parent, start, time.perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _special(self, layer: str, name: str) -> dict:
        if (layer, name) == ("transfer", "ainfinity_defect"):
            def label_of(a, k):
                inputs = a[1] if len(a) > 1 else k["inputs"]
                return f"transfer.ainfinity_defect.k{len(inputs)}"
            return {"label_of": label_of}
        if (layer, name) == ("hochschild", "push_chain"):
            def label_of(a, k):
                chain = a[0] if a else k["chain"]
                longest = max((len(t) for t in chain.terms), default=0)
                return f"hochschild.push_chain.len{longest}"
            return {"label_of": label_of,
                    "after": lambda a, k, r: self.count(
                        "hochschild.push_chain.terms_out", len(r.terms))}
        if (layer, name) == ("cli", "main"):
            return {"label_of": lambda a, k: "cli." + (a[0] if a else k["argv"])[0]}
        if (layer, name) == ("quadrature", "integrate_cube"):
            return {"wrap_args": self._wrap_integrand}
        return {}

    def _wrap_integrand(self, fn):
        """integrate_cube with its integrand counted and timed."""
        tracer = self

        @wraps(fn)
        def wrapper(f, dim, *args, **kwargs):
            if not tracer.enabled:
                return fn(f, dim, *args, **kwargs)
            before = tracer.agg.get("transfer.integrand", [0])[0]
            g = tracer.timed(f, "transfer.integrand", spanned=False)
            order = kwargs.get("order", args[1] if len(args) > 1
                               else quadrature.DEFAULT_ORDER)
            try:
                return fn(g, dim, *args, **kwargs)
            except QuadratureBudgetError:
                tracer.count("quadrature.budget_errors")
                raise
            finally:
                evals = tracer.agg.get("transfer.integrand", [0])[0] - before
                per_cell = order ** dim + (order // 2) ** dim
                tracer.count("quadrature.evals", evals)
                tracer.count("quadrature.cells", evals // per_cell)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer where it is looked up."""
        replace = {}
        for layer, mod in LAYERS.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or name in SKIP.get(layer, ())):
                    continue
                hot = layer == "glinalg" or name in HOT.get(layer, ())
                spec = self._special(layer, name)
                target = fn
                if "wrap_args" in spec:
                    target = spec["wrap_args"](fn)
                replace[fn] = self.timed(
                    target, f"{layer}.{name}", spanned=not hot,
                    label_of=spec.get("label_of"), after=spec.get("after"))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "homotrace" or modname.startswith("homotrace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
        for cls, attr, label in METHODS:
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.timed(
                    raw.__func__, label, spanned=False)))
            elif attr == "on_basis":
                setattr(cls, attr, self.timed(
                    raw, label, spanned=False,
                    label_of=self._on_basis_label))
            else:
                setattr(cls, attr, self.timed(raw, label, spanned=False))

    def _on_basis_label(self, args, kwargs) -> str:
        morphism, flats = args[0], args[1] if len(args) > 1 else kwargs["flats"]
        if flats in morphism._cache:
            self.count("transfer.on_basis.hits")
        return "transfer.on_basis"

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reading out -------------------------------------------------------

    def table(self) -> dict:
        """name -> [calls, total s, self s] over spans and aggregates."""
        out = {k: list(v) for k, v in self.agg.items()}
        for _, name, start, end, _, own, _ in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def root_seconds(self, layer: str) -> float:
        """Time in spans of ``layer`` not nested in another span of it."""
        by_id = {span[0]: span for span in self.spans}
        prefix = layer + "."

        def nested(parent):
            while parent is not None:
                if by_id[parent][1].startswith(prefix):
                    return True
                parent = by_id[parent][4]
            return False

        return sum(end - start for _, name, start, end, parent, _, _
                   in self.spans
                   if name.startswith(prefix) and not nested(parent))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, own, op in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "self": own, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

# timed functions reported as calls, s (total) and self_s
LAYER_FUNCS = (
    "serialize.load_instance", "dgcore.validate_bundle",
    "dgcore.build_splitting", "dgcore.check_splitting", "glinalg.rref",
    "glinalg.solve_exact", "glinalg.compose", "glinalg.build",
    "transfer.transfer_closed", "transfer.propagator",
    "transfer.transfer_quadrature", "hochschild.chain_map_defect",
    "traces.transferred_trace", "traces.transferred_cyclic_trace",
    "traces.trace_defect", "cli.verify", "cli.trace",
)
ARITIES = (1, 2, 3, 4)
CHAIN_LENGTHS = (1, 2, 3, 4)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for f in LAYER_FUNCS:
        out += [(f + ".calls", "count", "lower"), (f + ".s", "s", "lower"),
                (f + ".self_s", "s", "lower")]
    for k in ARITIES:
        out += [(f"transfer.ainfinity_defect.k{k}.calls", "count", "lower"),
                (f"transfer.ainfinity_defect.k{k}.s", "s", "lower")]
    for k in CHAIN_LENGTHS:
        out += [(f"hochschild.push_chain.len{k}.calls", "count", "lower"),
                (f"hochschild.push_chain.len{k}.s", "s", "lower")]
    out += [("hochschild.push_chain.calls", "count", "lower"),
            ("hochschild.push_chain.s", "s", "lower"),
            ("hochschild.push_chain.terms_out", "count", "lower"),
            ("instances.build.s", "s", "lower"),
            ("instances.max_coeff_bits", "bits", "lower"),
            ("instances.algebra_dim", "count", "lower"),
            ("instances.h_dim", "count", "lower"),
            ("transfer.on_basis.calls", "count", "lower"),
            ("transfer.on_basis.hit_ratio", "ratio", "higher"),
            ("quadrature.evals", "count", "lower"),
            ("quadrature.cells", "count", "lower"),
            ("quadrature.evals_per_s", "1/s", "higher"),
            ("quadrature.budget_errors", "count", "lower")]
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    out += [("tracing.overhead_s", "s", "lower"),
            ("tracing.overhead_ratio", "ratio", "lower"),
            ("tracing.spans", "count", "lower")]
    return out


def sub_table(after: dict, before: dict) -> dict:
    """Calls and seconds recorded between two ``Tracer.table()`` readings."""
    return {k: [a - b for a, b in zip(v, before.get(k, (0, 0.0, 0.0)))]
            for k, v in after.items()}


def layer_metrics(tracer, table: dict, counts: dict, setup_counts: dict,
                  overhead: float, untraced: float, n_spans: int) -> dict:
    """Values of every metric ``per_layer_spec`` lists, from a table and
    counts of the tracer, the set-up counts and the tracing overhead."""
    def row(name):
        if name == "dgcore.build_splitting":
            a = table.get("dgcore.build_splitting_projector", [0, 0.0, 0.0])
            b = table.get("dgcore.build_splitting_hodge", [0, 0.0, 0.0])
            return [a[i] + b[i] for i in range(3)]
        return table.get(name, [0, 0.0, 0.0])

    values = {}
    for f in LAYER_FUNCS:
        calls, total, own = row(f)
        values.update({f + ".calls": calls, f + ".s": total,
                       f + ".self_s": own})
    for k in ARITIES:
        calls, total, _ = row(f"transfer.ainfinity_defect.k{k}")
        values[f"transfer.ainfinity_defect.k{k}.calls"] = calls
        values[f"transfer.ainfinity_defect.k{k}.s"] = total
    push = [0, 0.0]
    for name, (calls, total, _) in table.items():
        if name.startswith("hochschild.push_chain.len"):
            push[0] += calls
            push[1] += total
    for k in CHAIN_LENGTHS:
        calls, total, _ = row(f"hochschild.push_chain.len{k}")
        values[f"hochschild.push_chain.len{k}.calls"] = calls
        values[f"hochschild.push_chain.len{k}.s"] = total
    on_basis = row("transfer.on_basis")[0]
    quad_s = row("quadrature.integrate_cube")[1]
    evals = counts.get("quadrature.evals", 0)
    values.update({
        "hochschild.push_chain.calls": push[0],
        "hochschild.push_chain.s": push[1],
        "hochschild.push_chain.terms_out":
            counts.get("hochschild.push_chain.terms_out", 0),
        "instances.build.s": tracer.root_seconds("instances"),
        "instances.max_coeff_bits": setup_counts["instances.max_coeff_bits"],
        "instances.algebra_dim": setup_counts["instances.algebra_dim"],
        "instances.h_dim": setup_counts["instances.h_dim"],
        "transfer.on_basis.calls": on_basis,
        "transfer.on_basis.hit_ratio":
            counts.get("transfer.on_basis.hits", 0) / on_basis
            if on_basis else 0.0,
        "quadrature.evals": evals,
        "quadrature.cells": counts.get("quadrature.cells", 0),
        "quadrature.evals_per_s": evals / quad_s if quad_s else 0.0,
        "quadrature.budget_errors": counts.get("quadrature.budget_errors", 0),
    })
    for layer in LAYERS:
        rows = [v for k, v in table.items() if k.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(r[0] for r in rows)
        values[f"{layer}.self_s"] = sum((r[2] for r in rows), 0.0)
    values.update({"tracing.overhead_s": overhead,
                   "tracing.overhead_ratio": overhead / untraced,
                   "tracing.spans": n_spans})
    return values
