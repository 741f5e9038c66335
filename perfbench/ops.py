"""Workloads: the ops of one pass, and how one op is run and checked.

An op is one CLI command on one input, run in-process through
``polyadjoint.cli.main(argv)`` as a user's script would, or one ABHY
realization check through the library (it has no CLI command).  Inputs are
generated per pass from the seed and written as exact ``"p/q"`` JSON.

Why each workload exists (see README.md for the layers each leaves idle):

* ``polygon``: the polyring workload.  Dense bivariate products,
  ``substitute``, and both ``PolyMatrix.det`` paths: cofactor for n <= 9,
  Bareiss with ``exact_divide`` for n >= 10, which is the latency tail.
* ``polytope3d``: the linalg/polytope/arrangements3d workload.  Thousands
  of tiny square ``rank``/``nullspace`` calls from vertex enumeration, the
  simplicity check, residual flats and ``Line3`` incidence.
* ``assoc``: the assoc workload.  Sparse multi-affine ``Poly`` with 14-35
  variables and thousands of terms, mostly ``__add__`` and derivatives,
  and large JSON outputs for the cli layer.

Input sharing is deliberate: ``polygon`` and ``polytope3d`` draw fresh
inputs every pass, so a cache across calls finds nothing to reuse there;
``assoc`` and the fixture ops repeat identical inputs every pass, so that
is the only place such a cache can show.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import checks, gen

POLYGON_SIZES = tuple(range(6, 13))  # n; Bareiss det from n = 10 (matrix size 7)
POLYTOPE_SIZES = tuple(range(6, 12))  # facet count k
# Runs per assoc pass.  n = 10 takes about 3.4 s, half a pass's op time, so
# it runs once; a run of about 30 s then holds the 100 ops that a p90 with
# ten samples beyond it needs.  The ~30 ms ops (av, n = 8, realization
# n = 6) run four times so that the median falls inside their cluster, and
# the p90 falls inside the obstruct / realization n = 7 cluster, not in a
# gap between clusters where it would jump from run to run.
ASSOC_RUNS = {
    ("assoc-adjoint", 5): 2,
    ("assoc-adjoint", 6): 2,
    ("assoc-adjoint", 7): 2,
    ("assoc-adjoint", 8): 4,
    ("assoc-adjoint", 9): 2,
    ("assoc-adjoint", 10): 1,
    ("assoc-verify-av", None): 4,
    ("assoc-obstruct", None): 2,
    ("realization", 6): 4,
    ("realization", 7): 2,
}

WORKLOADS = ("polygon", "polytope3d", "assoc")


@dataclass
class Op:
    label: str
    check: Callable  # check(output) -> None or a reason
    argv: list | None = None  # CLI op
    realize: int | None = None  # ABHY realization op of this n


@dataclass
class Pass:
    ops: list
    max_input_bits: int


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _cli(label, argv, check, **bound):
    return Op(label, partial(check, **bound), argv=argv)


def polygon_pass(seed, index, workdir):
    """Per n: adjoint and detrep2d on a fresh rational n-gon; then one
    verify-detrep on the heptagon7 fixture."""
    rng = gen.rng_for("polygon", seed, index)
    ops, bits = [], 0
    for n in POLYGON_SIZES:
        forms = gen.polygon_forms(rng, n)
        bits = max(bits, gen.max_bits(forms))
        path = str(workdir / f"polygon-n{n:02d}.json")
        _write(path, gen.polytope_json(2, forms))
        ctx = {}
        ops.append(_cli(f"adjoint n={n}", ["adjoint", "--input", path],
                        checks.polygon_adjoint, forms=forms, ctx=ctx))
        ops.append(_cli(f"detrep2d n={n}", ["detrep2d", "--input", path],
                        checks.polygon_detrep, forms=forms, ctx=ctx))
    ops.append(_cli("verify-detrep heptagon7",
                    ["verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"],
                    checks.heptagon_verify))
    return Pass(ops, bits)


def polytope3d_pass(seed, index, workdir):
    """Per k: residual, adjoint and singularity on a fresh simple 3-polytope;
    then nice3d and adjoint on octa8 and residual on quadric-dim4."""
    rng = gen.rng_for("polytope3d", seed, index)
    ops, bits = [], 0
    for k in POLYTOPE_SIZES:
        forms = gen.polytope_forms(rng, k)
        bits = max(bits, gen.max_bits(forms))
        path = str(workdir / f"polytope3d-k{k:02d}.json")
        _write(path, gen.polytope_json(3, forms))
        ctx = {}
        for command, check in (
            ("residual", checks.polytope_residual),
            ("adjoint", checks.polytope_adjoint),
            ("singularity", checks.polytope_singularity),
        ):
            ops.append(_cli(f"{command} k={k}", [command, "--input", path],
                            check, forms=forms, ctx=ctx))
    octa = {}
    ops.append(_cli("nice3d octa8", ["nice3d", "--fixture", "octa8"],
                    checks.octa8_nice, ctx=octa))
    ops.append(_cli("adjoint octa8", ["adjoint", "--fixture", "octa8"],
                    checks.octa8_adjoint, ctx=octa))
    ops.append(_cli("residual quadric-dim4", ["residual", "--fixture", "quadric-dim4"],
                    checks.quadric_residual))
    return Pass(ops, bits)


def assoc_pass(seed, index, workdir):
    """assoc-adjoint for n = 5..10, assoc-verify-av, assoc-obstruct and the
    ABHY realization check for n = 6, 7, each run ASSOC_RUNS times.

    Every pass is identical; the seed does not enter.
    """
    ops = []
    for round_ in range(max(ASSOC_RUNS.values())):
        for (kind, arg), runs in ASSOC_RUNS.items():
            if round_ >= runs:
                continue
            if kind == "assoc-adjoint":
                ops.append(_cli(f"assoc-adjoint n={arg}", ["assoc-adjoint", "--degree", str(arg)],
                                checks.assoc_adjoint, n=arg))
            elif kind == "realization":
                ops.append(Op(f"realization n={arg}", partial(checks.realization, n=arg),
                              realize=arg))
            else:
                check = checks.assoc_verify_av if kind == "assoc-verify-av" else checks.assoc_obstruct
                ops.append(_cli(kind, [kind], check))
    # the only inputs are the degrees; the realization builds its polytope
    return Pass(ops, max(arg for (kind, arg) in ASSOC_RUNS if kind == "assoc-adjoint").bit_length())


PASS_BUILDERS = {
    "polygon": polygon_pass,
    "polytope3d": polytope3d_pass,
    "assoc": assoc_pass,
}


def execute(op):
    """The timed section of one op: (exit code, output).  A CLI op's output
    is its report text; a realization's is the pair of term dicts."""
    if op.argv is not None:
        main = sys.modules["polyadjoint.cli"].main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(op.argv)
        return code, buf.getvalue()
    assoc = sys.modules["polyadjoint.assoc"]
    adjoint = sys.modules["polyadjoint.adjoint"]
    geometric = adjoint.universal_adjoint(assoc.abhy_polytope(op.realize)).poly
    combinatorial = assoc.universal_adjoint_assoc(op.realize)
    return 0, (geometric.terms, combinatorial.terms)


def output_bytes(op, output):
    """Bytes that identify an op's output, for the result hash."""
    if op.argv is not None:
        return output.encode()
    return json.dumps(
        [sorted([list(e), str(c)] for e, c in terms.items()) for terms in output]
    ).encode()


def verify(op, code, output):
    """None if the op succeeded and its output checks out, else a reason."""
    if code != 0:
        return f"exit code {code}"
    if op.argv is None:
        return op.check(output)
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return op.check(report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
