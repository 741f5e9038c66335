"""Per-layer tracing from outside the package.

The benchmark wraps the public functions of each polyadjoint module (the
layers) and records one span per call: name, start, end, parent span and
op id, kept in memory and written out when the run ends.  Nothing under
``src/`` changes: the wrappers are installed for a traced run and every
original object is put back afterwards.

The program is single-threaded and no layer queues or waits, so a layer's
cost is its self time: span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter

LAYERS = (
    "linalg",
    "polyring",
    "polytope",
    "adjoint",
    "detrep2d",
    "arrangements3d",
    "assoc",
    "fixtures",
    "cli",
)

OP = "op"  # the benchmark's own span around one op; its self time is unattributed

# (module, class or None, attribute, span name): the public functions the
# workloads reach.  Several attributes may share a span name;
# PolyMatrix.det is named by matrix size at the call.
TARGETS = (
    ("linalg", None, "rref", "linalg.rref"),
    ("linalg", None, "rank", "linalg.rank"),
    ("linalg", None, "nullspace", "linalg.nullspace"),
    ("linalg", None, "solve", "linalg.solve"),
    ("polyring", "Poly", "__add__", "polyring.add"),
    ("polyring", "Poly", "__radd__", "polyring.add"),
    ("polyring", "Poly", "__sub__", "polyring.sub"),
    ("polyring", "Poly", "__rsub__", "polyring.sub"),
    ("polyring", "Poly", "__neg__", "polyring.neg"),
    ("polyring", "Poly", "__mul__", "polyring.mul"),
    ("polyring", "Poly", "__rmul__", "polyring.mul"),
    ("polyring", "Poly", "__pow__", "polyring.pow"),
    ("polyring", "Poly", "derivative", "polyring.derivative"),
    ("polyring", "Poly", "substitute", "polyring.substitute"),
    ("polyring", "Poly", "evaluate", "polyring.evaluate"),
    ("polyring", "Poly", "canonical", "polyring.canonical"),
    ("polyring", "Poly", "homogenize", "polyring.homogenize"),
    ("polyring", "Poly", "rename", "polyring.rename"),
    ("polyring", "Poly", "to_json", "polyring.to_json"),
    ("polyring", "PolyMatrix", "det", None),
    ("polyring", "PolyMatrix", "to_json", "polyring.matrix_to_json"),
    ("polyring", None, "exact_divide", "polyring.exact_divide"),
    ("polyring", None, "equal_up_to_scalar", "polyring.equal_up_to_scalar"),
    ("polyring", None, "gradient_at", "polyring.gradient_at"),
    ("polyring", None, "perfect_square_up_to_scalar", "polyring.perfect_square"),
    ("polytope", "HPolytope", "__init__", "polytope.construct"),
    ("polytope", "HPolytope", "enumerate_vertices", "polytope.enumerate_vertices"),
    ("polytope", "HPolytope", "is_simple_arrangement", "polytope.is_simple_arrangement"),
    ("polytope", "HPolytope", "residual_arrangement", "polytope.residual_arrangement"),
    ("polytope", "HPolytope", "interior_point", "polytope.interior_point"),
    ("polytope", "HPolytope", "polygon_ccw", "polytope.polygon_ccw"),
    ("polytope", "HPolytope", "to_json", "polytope.to_json"),
    ("polytope", "HPolytope", "from_json", "polytope.from_json"),
    ("polytope", None, "order_ccw", "polytope.order_ccw"),
    ("polytope", None, "primitive_form", "polytope.primitive_form"),
    ("polytope", None, "inward_edge_forms", "polytope.inward_edge_forms"),
    ("adjoint", None, "adjoint", "adjoint.adjoint"),
    ("adjoint", None, "universal_adjoint", "adjoint.universal_adjoint"),
    ("adjoint", None, "polygon_adjoint", "adjoint.polygon_adjoint"),
    ("detrep2d", None, "build_tridiagonal", "detrep2d.build_tridiagonal"),
    ("detrep2d", None, "verify_detrep", "detrep2d.verify_detrep"),
    ("detrep2d", None, "definiteness_certificate", "detrep2d.definiteness_certificate"),
    ("arrangements3d", "Line3", "__init__", "arrangements3d.line"),
    ("arrangements3d", "Line3", "meets", "arrangements3d.line_ops"),
    ("arrangements3d", "Line3", "common_point", "arrangements3d.line_ops"),
    ("arrangements3d", "Line3", "contains_point", "arrangements3d.line_ops"),
    ("arrangements3d", None, "residual_lines", "arrangements3d.residual_lines"),
    (
        "arrangements3d",
        None,
        "concurrency_singularity_certificate",
        "arrangements3d.concurrency_singularity_certificate",
    ),
    ("arrangements3d", None, "is_nice", "arrangements3d.is_nice"),
    ("arrangements3d", None, "h0_vanishing_dimension", "arrangements3d.h0_vanishing_dimension"),
    ("arrangements3d", None, "no_three_concurrent", "arrangements3d.no_three_concurrent"),
    ("arrangements3d", None, "plane_of_coplanar_pair", "arrangements3d.plane_of_coplanar_pair"),
    ("assoc", None, "universal_adjoint_assoc", "assoc.universal_adjoint_assoc"),
    ("assoc", None, "enumerate_triangulations", "assoc.enumerate_triangulations"),
    ("assoc", None, "obstruction_report", "assoc.obstruction_report"),
    ("assoc", None, "snake_classification", "assoc.snake_classification"),
    ("assoc", None, "is_av_representation", "assoc.is_av_representation"),
    ("assoc", None, "abhy_polytope", "assoc.abhy_polytope"),
    ("assoc", None, "rayleigh_difference", "assoc.rayleigh_difference"),
    ("assoc", None, "affine_factor_obstruction", "assoc.affine_factor_obstruction"),
    ("assoc", None, "multiaffine_delta_irreducible", "assoc.multiaffine_delta_irreducible"),
    ("assoc", None, "strip_monomial_content", "assoc.strip_monomial_content"),
    ("fixtures", None, "get_fixture", "fixtures.get_fixture"),
    ("cli", None, "main", "cli.main"),
)

# The seed's PolyMatrix.det expands cofactors up to this size and runs
# Bareiss elimination beyond it; spans are named by the size at the call.
COFACTOR_MAX_SIZE = 6


def _det_span(args):
    if args[0].size <= COFACTOR_MAX_SIZE:
        return "polyring.det_cofactor"
    return "polyring.det_bareiss"


class Tracer:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = bytearray()
        self.counters = {"rref_cells": 0, "vertices_found": 0, "subsets_tried": 0}
        self._stack = [-1]
        self.current_op = -1

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def exit(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.name)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tname\tparent\tstart\tend\traised\n")
            for s in range(len(self)):
                fh.write(
                    f"{self.op[s]}\t{s}\t{self.names[self.name[s]]}\t{self.parent[s]}"
                    f"\t{self.start[s]!r}\t{self.end[s]!r}\t{self.raised[s]}\n"
                )


def _count_rref(tracer, sid, args, result):
    m = args[0]
    tracer.counters["rref_cells"] += len(m) * (len(m[0]) if m else 0)


def _count_vertices(tracer, sid, args, result):
    # only a call that computed (opened child spans) tried the subsets; a
    # repeated call returns the cached V-representation
    if len(tracer) > sid + 1:
        polytope = args[0]
        tracer.counters["subsets_tried"] += comb(len(polytope.facets), polytope.dim)
        tracer.counters["vertices_found"] += len(result[0])


COUNTERS = {"linalg.rref": _count_rref, "polytope.enumerate_vertices": _count_vertices}


def _wrap(tracer, fn, span):
    count = COUNTERS.get(span)
    fixed = None if span is None else tracer.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.enter(fixed if fixed is not None else tracer.name_id(_det_span(args)))
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, sid, args, result)
            return result
        except BaseException:
            tracer.raised[sid] = 1
            raise
        finally:
            tracer.exit(sid)

    return wrapper


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if name == "polyadjoint" or name.startswith("polyadjoint.")
    ]


def install(tracer):
    """Wrap every target; return the (owner, attribute, original) patches.

    A function imported with ``from .x import f`` is bound in several
    modules (``polyadjoint.adjoint`` is even the function, re-exported by
    the package), so every module binding the same object is patched.
    """
    patches = []
    modules = _package_modules()
    for module_name, class_name, attr, span in TARGETS:
        module = sys.modules[f"polyadjoint.{module_name}"]
        if class_name is not None:
            owner = vars(module)[class_name]
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(tracer, raw.__func__, span))
            else:
                new = _wrap(tracer, raw, span)
            patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        fn = vars(module)[attr]
        new = _wrap(tracer, fn, span)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    patches.append((m, name, fn))
                    setattr(m, name, new)
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        restore(patches)


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(tracer):
    """Self time of every span: its duration minus its children's."""
    n = len(tracer)
    child = [0.0] * n
    for s in range(n):
        p = tracer.parent[s]
        if p >= 0:
            child[p] += tracer.end[s] - tracer.start[s]
    return [tracer.end[s] - tracer.start[s] - child[s] for s in range(n)]


def summarize(tracer):
    """Per-span-name and per-layer totals, and the per-op closure check.

    ``<layer>.calls`` counts entries into the layer from another layer (or
    from the benchmark); ``<layer>.raised`` counts exceptions that escape
    the layer.  For each op, the self times of its spans add up to the op's
    wall time; the op span's own self time is the unattributed part.
    """
    own = self_times(tracer)
    names = tracer.names
    layer_ids = [layer_of(x) for x in names]
    by_name = {}
    layers = {layer: {"calls": 0, "self_s": 0.0, "raised": 0} for layer in LAYERS}
    op_total = {}
    op_wall = {}
    for s in range(len(tracer)):
        nid = tracer.name[s]
        name = names[nid]
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own[s]
        op = tracer.op[s]
        op_total[op] = op_total.get(op, 0.0) + own[s]
        layer = layer_ids[nid]
        if layer == OP:
            op_wall[op] = op_wall.get(op, 0.0) + tracer.end[s] - tracer.start[s]
            continue
        stats = layers[layer]
        stats["self_s"] += own[s]
        p = tracer.parent[s]
        if p < 0 or layer_ids[tracer.name[p]] != layer:
            stats["calls"] += 1
            stats["raised"] += tracer.raised[s]
    unattributed = by_name.get(OP, (0, 0.0))[1]
    closure_error = max(
        (abs(op_total[op] - op_wall.get(op, 0.0)) for op in op_total), default=0.0
    )
    return by_name, layers, unattributed, closure_error


# Per-layer metrics of a traced run, in BENCHMARK.json order.  Counts and
# times are per traced pass (totals divided by the number of repetitions).
PER_LAYER = (
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("polyring.self_s", "s"),
    ("polyring.mul.calls", "count"),
    ("polyring.mul.self_s", "s"),
    ("polyring.add.calls", "count"),
    ("polyring.add.self_s", "s"),
    ("polyring.substitute.calls", "count"),
    ("polyring.substitute.self_s", "s"),
    ("polyring.det_cofactor.calls", "count"),
    ("polyring.det_cofactor.self_s", "s"),
    ("polyring.det_bareiss.calls", "count"),
    ("polyring.det_bareiss.self_s", "s"),
    ("polyring.exact_divide.calls", "count"),
    ("polyring.exact_divide.self_s", "s"),
    ("polytope.self_s", "s"),
    ("polytope.construct.calls", "count"),
    ("polytope.construct.self_s", "s"),
    ("polytope.enumerate_vertices.calls", "count"),
    ("polytope.is_simple_arrangement.calls", "count"),
    ("polytope.is_simple_arrangement.self_s", "s"),
    ("polytope.residual_arrangement.self_s", "s"),
    ("polytope.vertex_yield", "ratio"),
    ("adjoint.self_s", "s"),
    ("adjoint.adjoint.self_s", "s"),
    ("adjoint.universal_adjoint.self_s", "s"),
    ("adjoint.polygon_adjoint.calls", "count"),
    ("adjoint.polygon_adjoint.self_s", "s"),
    ("detrep2d.self_s", "s"),
    ("detrep2d.build_tridiagonal.self_s", "s"),
    ("detrep2d.verify_detrep.self_s", "s"),
    ("detrep2d.definiteness_certificate.self_s", "s"),
    ("arrangements3d.self_s", "s"),
    ("arrangements3d.line_ops.calls", "count"),
    ("arrangements3d.residual_lines.self_s", "s"),
    ("arrangements3d.concurrency_singularity_certificate.self_s", "s"),
    ("arrangements3d.is_nice.self_s", "s"),
    ("arrangements3d.h0_vanishing_dimension.self_s", "s"),
    ("assoc.self_s", "s"),
    ("assoc.universal_adjoint_assoc.self_s", "s"),
    ("assoc.enumerate_triangulations.self_s", "s"),
    ("assoc.obstruction_report.self_s", "s"),
    ("assoc.is_av_representation.self_s", "s"),
    ("assoc.abhy_polytope.self_s", "s"),
    ("fixtures.calls", "count"),
    ("fixtures.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
) + tuple((f"{layer}.raised", "count") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)


def layer_metrics(tracer, reps, overhead_ratio, output_bytes):
    """{name: (value, unit)} for every PER_LAYER metric, and the largest
    per-op closure error (self times + unattributed vs op wall time)."""
    by_name, layers, unattributed, closure_error = summarize(tracer)
    c = tracer.counters
    special = {
        "linalg.rref.cells": c["rref_cells"] / reps,
        "polytope.vertex_yield": c["vertices_found"] / c["subsets_tried"]
        if c["subsets_tried"]
        else 0.0,
        "cli.output_bytes": output_bytes / reps,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_s": unattributed / reps,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            prefix, kind = name.rsplit(".", 1)
            if prefix in layers:
                value = layers[prefix][kind] / reps
            else:
                calls, own = by_name.get(prefix, (0, 0.0))
                value = (calls if kind == "calls" else own) / reps
        out[name] = (value, unit)
    return out, closure_error
