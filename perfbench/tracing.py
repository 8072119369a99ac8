"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the chainmetric modules
listed in ``TARGETS``.  A wrapped name is replaced in every chainmetric
module namespace that holds the original object, so calls through
``from .x import y`` aliases are traced as well.  Spans stay in memory
while the benchmark runs and are written out at the end.  A layer's self
time is its span's duration minus the durations of its direct child
spans; spans nest because the program is single-threaded.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# Counter hooks: hook(counters, args, result) adds to a span's named counters.


def _nodes(counters, args, result):
    counters["nodes"] += len(result)


def _psi_nodes(counters, args, result):
    counters["nodes"] += len(args[0])


def _pairs(counters, args, result):
    counters["pairs"] += len(args[1]) ** 2


def _centers(counters, args, result):
    counters["centers"] += len(result.centers)


def _edges(counters, args, result):
    adjacency = getattr(result, "adjacency", None)
    if adjacency is not None:
        counters["edges"] += sum(len(row) for row in adjacency) // 2
    counters["structured"] += result.mode == "structured"


# (module, attribute, span name, counter hook)
TARGETS = [
    ("core", "delta", "core.delta", None),
    ("core", "verify_metric_axioms", "core.verify_metric_axioms", None),
    ("finite", "load_distance_matrix", "finite.load_distance_matrix", None),
    ("finite", "link_table", "finite.link_table", None),
    ("finite", "dphi_exact", "finite.dphi_exact", None),
    ("std_map", "phi_std_matrix", "std_map.phi_std_matrix", None),
    ("std_map", "sphere_index", "std_map.sphere_index", None),
    ("std_map", "epsilon_net", "std_map.epsilon_net", _centers),
    ("rays", "psi_matrix", "rays.psi_matrix", _psi_nodes),
    ("rays", "ray_through", "rays.ray_through", None),
    ("rays", "h_pq_ray", "rays.h_pq_ray", None),
    ("sampler", "build_sample", "sampler.build_sample", _nodes),
    ("sampler", "build_graph", "sampler.build_graph", _edges),
    ("sampler", "approx_dphi", "sampler.approx_dphi", None),
    ("sampler", "convergence_run", "sampler.convergence_run", None),
    ("completion", "nonequivalence_experiment", "completion.nonequivalence_experiment", None),
]
# EuclidContext.link_matrix is a method: patched on the class.
LINK_MATRIX = ("sampler", "EuclidContext", "link_matrix", "sampler.link_matrix")
# make_net_solver returns the per-sample solver closure, traced as its own span.
NET_SOLVER = ("sampler", "make_net_solver", "sampler.net_solve")


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(lambda: defaultdict(int))
        self.patched = []  # (owner, attribute, original)
        self.absent = []
        self._stack = []  # [span id, child time]

    # -- spans -------------------------------------------------------------

    def _enter(self):
        frame = [len(self.spans) + len(self._stack), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((frame[0], parent[0] if parent else -1, self.op_id, name, t0, t1))
        self.calls[name] += 1
        self.self_time[name] += dur - frame[1]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span, or plainly while tracing is off."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame, name, t0, time.perf_counter())

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer.counters[name], args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "chainmetric" and not modname.startswith("chainmetric."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.patched.append((module, attr, original))

    def install(self):
        for modname, attr, name, hook in TARGETS:
            module = importlib.import_module("chainmetric." + modname)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._replace_everywhere(original, self.wrap(name, original, hook))

        modname, cls_name, attr, name = LINK_MATRIX
        cls = getattr(importlib.import_module("chainmetric." + modname), cls_name, None)
        if cls is None or not hasattr(cls, attr):
            self.absent.append(name)
        else:
            original = getattr(cls, attr)
            setattr(cls, attr, self.wrap(name, original, _pairs))
            self.patched.append((cls, attr, original))

        modname, attr, name = NET_SOLVER
        factory = getattr(importlib.import_module("chainmetric." + modname), attr, None)
        if factory is None:
            self.absent.append(name)
        else:
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self.wrap(name, factory(*args, **kwargs))

            self._replace_everywhere(factory, traced_factory)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def patched_names(self) -> list:
        return sorted({f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self.patched})

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Spans as gzipped CSV: id, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)

    def per_layer(self, ops: int) -> dict:
        """Per-command means of the layer metrics over ``ops`` traced ops."""
        c = self.calls
        per_op = lambda v: v / ops
        ratio = lambda a, b: a / b if b else 0.0
        m = {}
        m["cli.self_s"] = (per_op(self.self_time["cli"]), "s")
        for name in ("core.verify_metric_axioms", "finite.load_distance_matrix",
                     "finite.link_table", "finite.dphi_exact", "std_map.phi_std_matrix",
                     "std_map.epsilon_net", "rays.psi_matrix", "rays.ray_through",
                     "rays.h_pq_ray", "sampler.build_sample", "sampler.link_matrix",
                     "sampler.build_graph", "sampler.approx_dphi", "sampler.convergence_run",
                     "sampler.net_solve", "completion.nonequivalence_experiment"):
            m[name + ".self_s"] = (per_op(self.self_time[name]), "s")
        for name in ("core.delta", "std_map.phi_std_matrix", "std_map.sphere_index",
                     "rays.psi_matrix", "rays.ray_through", "sampler.net_solve"):
            m[name + ".calls"] = (per_op(c[name]), "count")
        k = self.counters
        m["std_map.epsilon_net.centers_mean"] = (
            ratio(k["std_map.epsilon_net"]["centers"], c["std_map.epsilon_net"]), "count")
        m["rays.ray_through.per_psi_node"] = (
            ratio(c["rays.ray_through"], k["rays.psi_matrix"]["nodes"]), "ratio")
        m["sampler.build_sample.nodes_mean"] = (
            ratio(k["sampler.build_sample"]["nodes"], c["sampler.build_sample"]), "count")
        m["sampler.link_matrix.pairs"] = (per_op(k["sampler.link_matrix"]["pairs"]), "count")
        m["sampler.build_graph.edges"] = (per_op(k["sampler.build_graph"]["edges"]), "count")
        m["sampler.build_graph.structured_share"] = (
            ratio(k["sampler.build_graph"]["structured"], c["sampler.build_graph"]), "ratio")
        return m
