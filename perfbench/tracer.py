"""Span recorder that wraps koflow's public entry points from outside.

The program is not changed: `Tracer.install` replaces each entry point
named in ENTRY_POINTS wherever a koflow module looks it up (module
globals, module-level tables such as `props.ALL_SUITES`, and function
default arguments such as `verify_rs(assemble=...)`), and
`Tracer.uninstall` puts every original back.  Untraced solves run with
no wrapper installed.

A span is [name, start, end, parent index, info].  Spans stay in memory
and are summarized per solve; a layer's self time is the sum over its
spans of the duration minus the time covered by child spans, so the
self times of all layers plus the root's own self time add up to the
root span's duration.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
import types

# layer (koflow module) -> {entry point: span suffix}.  "Class.method"
# wraps the method on the class; everything not listed runs inside the
# span of its caller.
ENTRY_POINTS = {
    "rs_verify": {"verify_rs": "verify", "assemble_rs_operator": "assemble",
                  "numeric_kernel": "kernel", "analytic_profiles": "profiles"},
    "flow": {"spectral_flow": "spectral_flow", "endpoint_flow": "endpoint_flow",
             "complete_phase": "complete_phase", "SkewPath.at": "at",
             "classical_sf": "classical_sf"},
    "pairs": {"pair_index": "pair_index",
              "ComplexStructure.__post_init__": "structure_check",
              "projection_pair_index": "projection_pair_index",
              "orthogonal_pair_parity": "orthogonal_pair_parity"},
    "numerics": {"op_norm": "op_norm", "sym_eigh": "sym_eigh",
                 "skew_phase": "skew_phase",
                 "min_singular_value": "min_singular_value",
                 "split_zero_cluster": "split_zero_cluster",
                 "random_orthogonal": "random_orthogonal",
                 "random_skew": "random_skew"},
    "models": {"kitaev_path": "kitaev_path", "flux_path": "flux_path",
               "aii_path": "aii_path",
               "RealStructure.__post_init__": "real_structure",
               "realify": "realify"},
    "clifford": {"intertwiner": "intertwiner", "check_relations": "check_relations",
                 "irreducible_rep": "irreducible_rep", "direct_sum": "direct_sum",
                 "decompose": "decompose", "rep_from_json": "rep_from_json"},
    "abs_index": {"abs_class": "abs_class"},
    "props": {"clifford_suite": "clifford", "abs_index_suite": "abs_index",
              "pairs_suite": "pairs", "flow_suite": "flow",
              "models_suite": "models", "rs_suite": "rs_verify"},
}
LAYERS = tuple(ENTRY_POINTS) + ("cli",)
ROOT_SPAN = "cli.main"
# The sample function of a model path is models code that SkewPath.at
# calls through an instance attribute; it gets its own span.
MODEL_PATHS = {"kitaev_path", "flux_path", "aii_path"}
SAMPLE_SPAN = "models.sample"


def _assemble_info(args, kwargs, op) -> dict:
    gens = tuple(op.lifted_E) + tuple(op.lifted_F)
    return {"dim": op.dimension,
            "bytes": op.matrix.nbytes + sum(g.nbytes for g in gens)}


def _flow_info(args, kwargs, result) -> dict:
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    return {"initial_segments": 16 if opts is None else opts.initial_segments}


INFO = {"rs_verify.assemble": _assemble_info, "flow.spectral_flow": _flow_info}


class Tracer:
    """Records spans while installed; `take` hands over and clears them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)
        sample = name.split(".", 1)[1] in MODEL_PATHS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[4] = info(args, kwargs, result)
                if sample:
                    result = dataclasses.replace(
                        result, fn=self.wrap(result.fn, SAMPLE_SPAN))
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body of the with statement."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = {layer: sys.modules[f"koflow.{layer}"] for layer in ENTRY_POINTS}
        swap = {}  # id(original) -> wrapper
        for layer, entries in ENTRY_POINTS.items():
            for attr, suffix in entries.items():
                name = f"{layer}.{suffix}"
                owner, _, method = attr.rpartition(".")
                if owner:
                    cls = getattr(modules[layer], owner)
                    self._set(cls, method, self.wrap(cls.__dict__[method], name))
                else:
                    orig = getattr(modules[layer], attr)
                    swap[id(orig)] = self.wrap(orig, name)
        for mod in [m for key, m in list(sys.modules.items())
                    if key == "koflow" or key.startswith("koflow.")]:
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    old = value.__defaults__
                    new = tuple(swap.get(id(d), d) for d in old)
                    if any(a is not b for a, b in zip(new, old)):
                        self._set(value, "__defaults__", new)
                if id(value) in swap:
                    self._set(mod, key, swap[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in swap:
                            self._set_item(value, k, swap[id(v)])

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, obj, key, value) -> None:
        old = getattr(obj, key)
        self._undo.append(lambda: setattr(obj, key, old))
        setattr(obj, key, value)

    def _set_item(self, table: dict, key, value) -> None:
        old = table[key]
        self._undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def root(self, fn, *args):
        """Call fn(*args) inside the root span."""
        return self.wrap(fn, ROOT_SPAN)(*args)

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold this list
        return spans


def summarize(spans: list) -> dict:
    """Per-solve metrics from the spans of one root span.

    For every span name S: S_calls and S_s (self time); for every layer
    L: L.self_s; plus the derived rs_verify and flow figures.
    """
    n = len(spans)
    child = [0.0] * n
    phases = [0] * n  # complete_phase calls made directly by each span
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            phases[parent] += name == "flow.complete_phase"
    out: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    extra_nodes = 0
    op_dim = op_bytes = 0
    for idx, (name, start, end, _, info) in enumerate(spans):
        self_s = (end - start) - child[idx]
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + self_s
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        if info is None:  # no info span, or one that raised
            continue
        if name == "flow.spectral_flow" and phases[idx]:
            extra_nodes += max(0, phases[idx] - (info["initial_segments"] + 1))
        elif name == "rs_verify.assemble":
            op_dim = max(op_dim, info["dim"])
            op_bytes = max(op_bytes, info["bytes"])
    out["flow.extra_nodes"] = extra_nodes
    out["pairs.structure_checks"] = out.get("pairs.structure_check_calls", 0)
    out["rs_verify.operator_dim"] = op_dim
    out["rs_verify.operator_mb"] = op_bytes / 2 ** 20
    # Gram product D^T D (2 n^3) plus the Householder tridiagonalization
    # inside the partial eigh (4 n^3 / 3) of the largest assembled operator.
    out["rs_verify.kernel_gflop"] = (2.0 + 4.0 / 3.0) * op_dim ** 3 / 1e9
    out["trace.solve_s"] = spans[0][2] - spans[0][1]
    return out
