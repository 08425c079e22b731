"""Span tracing of ``nlwe`` from outside the program.

``Tracer.install`` wraps each traced function at every ``nlwe`` module
attribute that refers to it (``nlwe.cli.ppt_report`` and
``nlwe.boundent.ppt_report`` alike), and traced methods on their classes.
Each call records a span (layer, start, end, parent, case) in memory, where
``case`` is the index of the CLI case that caused it; a few
wrappers also add counts taken from arguments or return values.
``Tracer.metrics`` turns the spans into per-layer self times: a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

# (module, attribute path, layer).  Entries that also count, or whose layer
# depends on the call (None), get their wrapper from ``_wrap_special``.
TRACED = [
    ("nlwe.cli", "cmd_generate", "cli.generate"),
    ("nlwe.cli", "cmd_verify", "cli.verify"),
    ("nlwe.cli", "cmd_upb", None),
    ("nlwe.cli", "cmd_bestate", "cli.bestate"),
    ("nlwe.serialize", "load_file", "serialize.load"),
    ("nlwe.serialize", "loads", "serialize.load"),
    ("nlwe.serialize", "basis_from_obj", "serialize.load"),
    ("nlwe.serialize", "upb_from_obj", "serialize.load"),
    ("nlwe.serialize", "density_from_obj", "serialize.load"),
    ("nlwe.serialize", "dumps", "serialize.dump"),
    ("nlwe.serialize", "basis_to_obj", "serialize.dump"),
    ("nlwe.serialize", "upb_to_obj", "serialize.dump"),
    ("nlwe.serialize", "density_to_obj", "serialize.dump"),
    ("nlwe.ensembles", "local_factor_census", "ensembles.census"),
    ("nlwe.circuit", "generate_basis", "circuit.generate_basis"),
    ("nlwe.circuit", "validate_exclusivity", "circuit.exclusivity"),
    ("nlwe.circuit", "check_commutation", "circuit.commutation"),
    ("nlwe.circuit", "gate_unitary", "circuit.commutation"),
    ("nlwe.states", "ProductBasis.gram_deviation", "states.gram_deviation"),
    ("nlwe.states", "ProductBasis.gram", "states.gram_deviation"),
    ("nlwe.states", "ProductState.dense", "states.dense"),
    ("nlwe.upb", "extract_upb", "upb.extract"),
    ("nlwe.upb", "Upb.__post_init__", "upb.construct"),
    ("nlwe.upb", "is_unextendible", "upb.search"),
    ("nlwe.upb", "extendibility_search", "upb.search"),
    ("nlwe.boundent", "be_state", "boundent.be_state"),
    ("nlwe.boundent", "DensityMatrix.__post_init__", "boundent.density_check"),
    ("nlwe.boundent", "state_rank", "boundent.rank"),
    ("nlwe.boundent", "member_annihilation", "boundent.annihilation"),
    ("nlwe.boundent", "ppt_report", "boundent.ppt"),
    ("nlwe.boundent", "separability_report", "boundent.separability"),
    ("nlwe.boundent", "separability_completion", "boundent.separability"),
    ("nlwe.linalg", "hermitian_eigenvalues", "linalg.eigen"),
    ("nlwe.linalg", "jacobi_eigh", "linalg.eigen"),
    ("nlwe.linalg", "partial_transpose", "linalg.partial_transpose"),
    ("nlwe.linalg", "gram", "linalg.gram"),
    ("nlwe.linalg", "orthogonal_complement_basis", "linalg.complement"),
    ("nlwe.linalg", "orthonormalize", "linalg.complement"),
    ("nlwe.linalg", "span_dimension", "linalg.complement"),
]

# Layers with self times: the fixed layers of TRACED and the two that
# ``cmd_upb`` chooses between.
TIME_LAYERS = list(dict.fromkeys(
    [layer for _, _, layer in TRACED if layer] + ["cli.upb", "cli.upb_check"]))

COUNTERS = [
    "serialize.bytes_read", "serialize.bytes_written", "circuit.unitary_bytes",
    "states.dense_calls", "states.dense_bytes", "upb.searches",
    "upb.nodes_visited", "upb.assignments_covered",
]


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1, case]
        self.stack = []
        self.case = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    def _span(self, layer, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [layer, time.perf_counter(), None, parent, self.case]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(layer, fn, args, kwargs)

        return wrapper

    def _wrap_special(self, name, layer, fn):
        """A wrapper that also counts, or picks its layer from the call;
        None when ``name`` needs only a plain span."""
        tracer = self
        counts = self.counts

        if name == "cmd_upb":
            def wrapper(args):
                sub = getattr(args, "upb_cmd", None) == "check"
                return tracer._span("cli.upb_check" if sub else "cli.upb", fn, (args,), {})
        elif name == "ProductState.dense":
            def wrapper(self):
                counts["states.dense_calls"] += 1
                counts["states.dense_bytes"] += 16 * math.prod(self.dims)
                return tracer._span(layer, fn, (self,), {})
        elif name == "load_file":
            def wrapper(path):
                counts["serialize.bytes_read"] += os.path.getsize(path)
                return tracer._span(layer, fn, (path,), {})
        elif name == "dumps":
            def wrapper(obj):
                text = tracer._span(layer, fn, (obj,), {})
                counts["serialize.bytes_written"] += len(text.encode("utf-8"))
                return text
        elif name == "gate_unitary":
            def wrapper(gate, dims):
                counts["circuit.unitary_bytes"] += 16 * math.prod(int(d) for d in dims) ** 2
                return tracer._span(layer, fn, (gate, dims), {})
        elif name == "extendibility_search":
            def wrapper(*args, **kwargs):
                result = tracer._span(layer, fn, args, kwargs)
                counts["upb.searches"] += 1
                counts["upb.nodes_visited"] += result.nodes_visited
                counts["upb.assignments_covered"] += result.assignments_covered
                return result
        else:
            return None
        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every traced function wherever ``nlwe`` refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "nlwe" or k.startswith("nlwe.")]
        for module_name, path, layer in TRACED:
            owner = sys.modules[module_name]
            attr = path
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            wrapper = self._wrap_special(path, layer, original) or self._wrap(layer, original)
            holders = [owner] if "." in path else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def self_times(self):
        """Layer -> summed self time of its spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(TIME_LAYERS, 0.0)
        for (layer, start, end, _, _), covered in zip(self.spans, child):
            totals[layer] += (end - start) - covered
        return totals

    def metrics(self):
        """Per-layer metric values: ``<layer>_s`` self times plus counts."""
        out = {f"{layer}_s": value for layer, value in self.self_times().items()}
        out.update(self.counts)
        out["linalg.eigen_calls"] = sum(
            1 for layer, _, _, parent, _ in self.spans
            if layer == "linalg.eigen" and (parent < 0 or self.spans[parent][0] != "linalg.eigen")
        )
        search_time = sum(
            end - start for layer, start, end, parent, _ in self.spans
            if layer == "upb.search" and (parent < 0 or self.spans[parent][0] != "upb.search")
        )
        out["upb.nodes_per_s"] = out["upb.nodes_visited"] / search_time if search_time else 0.0
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
