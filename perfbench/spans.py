"""Span recorder for the traced run.

The benchmark installs wrappers around the public functions of each
polymix layer, at every module attribute that names them, so that a call
into a layer records a span (name, start, end, parent, tag) whichever
module made it.  Nothing under ``src/`` changes; the wrappers call the
original functions with the same arguments, so reports stay byte-identical.
Spans are kept in memory and written when the run ends.

A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "mesh", "fixtures", "geometry", "partition", "rellich", "trace_energy", "reporting")

SAMPLERS = ("sample_arch", "sample_base", "sample_lateral")


class Tracer:
    """Spans of the current pass plus counters summed over all passes."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index, tag)
        self._stack = []
        self.tag = ""
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)
        self.last = {}
        self.state = {}
        self._patched = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.tag)
            if count is not None:
                try:
                    count(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the program changed the shape of a result: keep the
                    # span, lose the counts, and say so
                    tracer.sums["trace.counter_errors"] += 1
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark makes itself."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.tag)

    def install(self):
        """Wrap every hooked function at each polymix attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "polymix" or n.startswith("polymix.")) and m is not None]
        for modname, attr, name, count in HOOKS:
            owner = importlib.import_module(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            if len(path) > 1:
                orig = vars(owner).get(path[-1])
                if orig is None:
                    continue
                self._patch(owner, path[-1], orig, self.wrap(name, orig, count))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def uninstall(self):
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def take(self):
        """Hand over the finished spans of this pass and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        self.state.clear()
        return out


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


class SpanTotals:
    """Self time per span name, per layer and per (name, tag), summed over passes."""

    def __init__(self):
        self.by_name = defaultdict(float)
        self.by_layer = defaultdict(float)
        self.by_tag = defaultdict(float)
        self.count = 0

    def add(self, spans):
        for (name, _, _, _, tag), own in zip(spans, self_times(spans)):
            self.by_name[name] += own
            self.by_layer[name.split(".", 1)[0]] += own
            self.by_tag[(name, tag)] += own
        self.count += len(spans)


def write_spans(path, spans):
    """One JSON object per span, gzip-compressed; start/end relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, (name, start, end, parent, tag) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                 "parent": parent, "tag": tag}) + "\n")


# ----------------------------------------------------------------------
# counters recorded at the same boundaries as the spans


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cli(t, args, kwargs, result):
    t.sums["cli.calls"] += 1


def _count_json_report(t, args, kwargs, result):
    t.sums["reporting.bytes"] += len(result.encode("utf-8"))


def _count_validate_surface(t, args, kwargs, result):
    surface = _arg(args, kwargs, 0, "surface")
    t.sums["mesh.validate_surface.calls"] += 1
    t.sums["mesh.validate_surface.invalid"] += 0 if result.ok else 1
    t.sums["mesh.faces"] += len(surface.faces)
    t.sums["mesh.edges"] += len(surface.edge_list)


def _count_generate(t, args, kwargs, result):
    t.sums["fixtures.generate.calls"] += 1


def _count_dihedral(t, args, kwargs, result):
    # cached per surface after the first call: count each surface once
    seen = t.state.setdefault("dihedral_seen", weakref.WeakSet())
    surface = _arg(args, kwargs, 0, "surface")
    if surface not in seen:
        seen.add(surface)
        t.sums["geometry.dihedral_angles.edges"] += len(result)


def _count_separation(t, args, kwargs, result):
    t.sums["geometry.separation_radius.calls"] += 1


def _sampler_counter(sampler):
    def count(t, args, kwargs, result):
        t.sums["geometry.%s.proposals" % sampler] += result.n_proposals
        t.sums["geometry.%s.accepted" % sampler] += len(result.points)
    return count


def _count_quotient(t, args, kwargs, result):
    t.sums["partition.quotient_graph.calls"] += 1
    t.sums["partition.quotient_graph.classes"] += result.class_count


def _count_suite(t, args, kwargs, result):
    identities, _ = result
    t.sums["rellich.functions"] += len(identities)
    for r in identities:
        if r.combined_stderr > 0.0:
            z = abs(r.residual) / r.combined_stderr
            t.maxima["rellich.max_abs_z"] = max(t.maxima["rellich.max_abs_z"], z)


def _count_refine(t, args, kwargs, result):
    t.sums["trace_energy.refine.vertices"] += result.vertex_count
    t.sums["trace_energy.refine.triangles"] += len(result.triangles)


def _count_stiffness(t, args, kwargs, result):
    t.sums["trace_energy.cotan_stiffness.nnz"] += result.nnz


def _count_constrained(t, args, kwargs, result):
    t.sums["trace_energy.constrained_vertices.pinned"] += len(result[0])


def _count_cg(t, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "A")
    t.state["cg_shape"] = (matrix.nnz, matrix.shape[0])


def _count_solve(t, args, kwargs, result):
    _, iterations, residual, unanchored = result
    t.sums["trace_energy.cg.iterations"] += iterations
    if t.tag in ("closed", "free"):
        t.sums["trace_energy.cg.iterations.%s" % t.tag] += iterations
        # levels run coarse to fine, so the last solve of a study is the finest
        t.last["trace_energy.cg.finest_iterations.%s" % t.tag] = iterations
    t.maxima["trace_energy.solve_constrained.residual_max"] = max(
        t.maxima["trace_energy.solve_constrained.residual_max"], residual)
    t.sums["trace_energy.solve_constrained.unanchored_components"] += unanchored
    shape = t.state.pop("cg_shape", None)
    if shape is not None:
        nnz, n = shape
        # per iteration: one CSR SpMV, three axpy updates, two dot products
        t.sums["trace_energy.cg.flops_computed"] += iterations * (2 * nnz + 10 * n)
        t.sums["trace_energy.cg.bytes_computed"] += iterations * (12 * nnz + 124 * n + 4)


# (module, attribute, span name, counter).  Attributes missing from the
# program are skipped, so the hooks survive functions being retired.
HOOKS = (
    ("polymix.cli", "main", "cli.main", _count_cli),
    ("polymix.mesh", "read_off", "mesh.read_off", None),
    ("polymix.mesh", "validate_surface", "mesh.validate_surface", _count_validate_surface),
    ("polymix.partition", "GeneratorSpec.build", "fixtures.generate", _count_generate),
    ("polymix.geometry", "dihedral_angles", "geometry.dihedral_angles", _count_dihedral),
    ("polymix.geometry", "separation_radius", "geometry.separation_radius", _count_separation),
) + tuple(
    ("polymix.geometry", s, "geometry." + s, _sampler_counter(s)) for s in SAMPLERS
) + (
    ("polymix.partition", "search_both_monochromatic", "partition.search_both_monochromatic", None),
    ("polymix.partition", "is_monochromatic", "partition.is_monochromatic", None),
    ("polymix.partition", "quotient_graph", "partition.quotient_graph", _count_quotient),
    ("polymix.rellich", "rellich_suite", "rellich.rellich_suite", _count_suite),
    ("polymix.trace_energy", "refinement_study", "trace_energy.refinement_study", None),
    ("polymix.trace_energy", "minimal_extension_energy", "trace_energy.minimal_extension_energy",
     None),
    ("polymix.trace_energy", "refine", "trace_energy.refine", _count_refine),
    ("polymix.trace_energy", "cotan_stiffness", "trace_energy.cotan_stiffness", _count_stiffness),
    ("polymix.trace_energy", "constrained_vertices", "trace_energy.constrained_vertices",
     _count_constrained),
    ("polymix.trace_energy", "solve_constrained", "trace_energy.solve_constrained", _count_solve),
    ("polymix.trace_energy", "cg", "trace_energy.cg", _count_cg),
    ("polymix.reporting", "json_report", "reporting.json_report", _count_json_report),
)
