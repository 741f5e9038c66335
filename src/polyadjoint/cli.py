"""Command-line interface.

Every command reads exact rational JSON, computes exactly, and emits a
machine-readable JSON report.  Exit codes: 0 success, 1 certificate
failure or failed internal cross-check (status "internal-error"), 2 input
error.  Rationals are serialized as "p" or "p/q" strings;
`--approx` adds clearly marked decimal renderings.  Reports are written by
`_report.dumps`, byte for byte `json.dumps(report, indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import random
import sys
from math import comb

from . import _report, assoc, detrep2d
from .adjoint import adjoint, homogeneous_registry, polygon_adjoint
from .arrangements3d import (
    LineArrangement,
    concurrency_singularity_certificate,
    h0_vanishing_dimension,
    is_nice,
    residual_lines,
)
from .fixtures import get_fixture
from .polyring import PolyMatrix, equal_up_to_scalar, format_fraction, parse_int
from .polytope import HPolytope, random_polytope

EXIT_OK = 0
EXIT_CERT_FAILURE = 1
EXIT_INPUT_ERROR = 2


class CertificateFailure(Exception):
    pass


def _scalar_json(c, approx=False):
    out = format_fraction(c)
    if approx:
        return {"exact": out, "approx_nonauthoritative": _approx(c)}
    return out


def _approx(c):
    """c as a float; past the float range (JSON has no infinity), or so
    small that the float would read zero, a 17-digit decimal string."""
    try:
        x = float(c)
    except OverflowError:
        x = 0.0
    if x or not c:
        return x
    digits = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return str(digits.divide(decimal.Decimal(c.numerator), decimal.Decimal(c.denominator)))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh, parse_int=parse_int)


def _fixture(name, *fields):
    """The built-in fixture `name`, which must have every one of `fields`;
    an input error names the fixture and the first field it lacks."""
    fx = get_fixture(name)
    for field in fields:
        if field not in fx:
            raise ValueError(f"fixture {name} has no {field}")
    return fx


def _load_polytope(args, *fields):
    if args.fixture:
        fx = _fixture(args.fixture, "polytope", *fields)
        return fx["polytope"], fx
    if not args.input:
        raise ValueError("need --input or --fixture")
    return HPolytope.from_json(_load_json(args.input)), None


def cmd_adjoint(args):
    polytope, fx = _load_polytope(args)
    result = adjoint(polytope)
    report = {
        "command": "adjoint",
        "polytope": polytope.to_json(),
        "degree": result.degree,
        "affine": result.affine.to_json(),
        "homogeneous": result.homogeneous.to_json(),
    }
    if fx and "reference_quartic" in fx:
        c = equal_up_to_scalar(result.affine, fx["reference_quartic"])
        report["matches_reference"] = c is not None
        if c is None:
            raise CertificateFailure("adjoint does not match the reference polynomial")
        report["reference_scalar"] = _scalar_json(c, args.approx)
    if fx and "reference_quadric" in fx:
        back = result.homogeneous.substitute(fx["chart_substitution"])
        c = equal_up_to_scalar(back, fx["reference_quadric"])
        report["matches_reference"] = c is not None
        if c is None:
            raise CertificateFailure("adjoint does not match the reference polynomial")
        report["reference_scalar"] = _scalar_json(c, args.approx)
    return report


def cmd_residual(args):
    polytope, _ = _load_polytope(args)
    ra = polytope.residual_arrangement()
    n = polytope.dim
    report = {
        "command": "residual",
        "polytope": polytope.to_json(),
        "flats_by_codim": {
            str(c): len(ra.by_codim(c)) for c in range(2, n + 1)
        },
        "residual_lines": len(ra.lines(n)),
        "residual_planes": len(ra.planes(n)) if n >= 3 else 0,
        "flats": [
            {
                "facets": list(f.facet_set),
                "codim": f.codim,
                "basis": [[format_fraction(x) for x in b] for b in f.basis],
            }
            for f in ra.flats
        ],
    }
    return report


def cmd_detrep2d(args):
    polytope, _ = _load_polytope(args)
    rep = detrep2d.build_tridiagonal(polytope)
    return {
        "command": "detrep2d",
        "matrix": rep.matrix.to_json(),
        "symmetric": rep.matrix.is_symmetric(),
        "tridiagonal": rep.matrix.is_tridiagonal(),
        "adjoint": rep.adjoint.to_json(),
        "scalar": _scalar_json(rep.det_scalar, args.approx),
        "definite_at_interior_point": detrep2d.definiteness_certificate(
            rep.matrix, polytope.interior_point()
        ),
    }


def cmd_verify_detrep(args):
    if not args.matrix:
        raise ValueError("need --matrix (a matrix JSON path or 'builtin')")
    builtin = args.matrix == "builtin"
    if builtin and not args.fixture:
        raise ValueError("--matrix builtin requires a fixture with a matrix")
    polytope, fx = _load_polytope(args, *(["reference_matrix"] if builtin else []))
    if builtin:
        matrix = fx["reference_matrix"]
    else:
        matrix = PolyMatrix.from_json(_load_json(args.matrix))
    if polytope.dim == 2:
        # the affine chart x1, x2 homogenized in x0: size vs the curve's degree
        names = list(matrix.registry.names)
        if names != ["x1", "x2"]:
            raise ValueError(f"a polygon's matrix must be over ['x1', 'x2'], got {names}")
        hreg = homogeneous_registry(2)
        checked = PolyMatrix([[p.homogenize(hreg, "x0", max(p.degree(), 1)) for p in row]
                              for row in matrix.entries])
        target = polygon_adjoint(polytope).homogeneous
        if fx and "det_vs_formula" in fx:
            target = target * fx["det_vs_formula"]
    else:
        checked, target = matrix, adjoint(polytope).homogeneous
    scalar = detrep2d.verify_detrep(checked, target)
    if scalar is None:
        raise CertificateFailure("determinant is not a scalar multiple of the adjoint")
    return {
        "command": "verify-detrep",
        "matrix": matrix.to_json(),
        "scalar": _scalar_json(scalar, args.approx),
    }


def cmd_nice3d(args):
    if args.fixture:
        fx = _fixture(args.fixture, "polytope", "nice_line_pairs", "nice_degree")
        by_pair = {l.facets: l for l in residual_lines(fx["polytope"])}
        subset = [by_pair[tuple(sorted(p))] for p in fx["nice_line_pairs"]]
        degree = fx["nice_degree"] if args.degree is None else args.degree
        arrangement = LineArrangement(subset)
    else:
        if not args.input or args.degree is None:
            raise ValueError("need --input and --degree, or --fixture")
        arrangement = LineArrangement.from_json(_load_json(args.input))
        degree = args.degree
    cert = is_nice(arrangement, degree)
    if cert is None:
        raise CertificateFailure(f"arrangement is not nice for degree {degree}")
    return {
        "command": "nice3d",
        "degree": degree,
        "lines": len(arrangement),
        "certificate": cert.to_json(),
        "h0_below": h0_vanishing_dimension(arrangement, degree - 2),
        "h0_at": h0_vanishing_dimension(arrangement, degree - 1),
    }


def cmd_singularity(args):
    polytope, _ = _load_polytope(args)
    alpha = adjoint(polytope).homogeneous
    cert = concurrency_singularity_certificate(polytope, alpha)
    report = {"command": "singularity", "found": cert is not None}
    if cert is not None:
        point, lines = cert
        report["point"] = [format_fraction(x) for x in point]
        report["line_indices"] = list(lines)
    return report


def cmd_assoc_adjoint(args):
    n = args.degree
    if n is None:
        raise ValueError("need --degree (polygon size n)")
    poly = assoc.universal_adjoint_assoc(n)
    return {
        "command": "assoc-adjoint",
        "n": n,
        "dimension": n - 3,
        "terms": len(poly.monomials()),
        "polynomial": poly.to_json(),
    }


def cmd_assoc_verify_av(args):
    fx = _fixture(args.fixture or "assoc-n6", "registry", "av_matrix", "primary_vars")
    reg = fx["registry"]
    adj3 = assoc.universal_adjoint_assoc(6, reg)
    cert = assoc.is_av_representation(fx["av_matrix"], adj3, fx["primary_vars"])
    if cert is None:
        raise CertificateFailure("matrix is not an AV-representation")
    adj2 = assoc.universal_adjoint_assoc(5).rename(reg)
    block = fx["av_matrix"].leading_principal(3)
    cert3 = assoc.is_av_representation(block, adj2, fx["primary_vars"][:3])
    if cert3 is None:
        raise CertificateFailure("3x3 block is not an AV-representation")
    return {
        "command": "assoc-verify-av",
        "matrix": fx["av_matrix"].to_json(),
        "primary": cert.primary_vars,
        "secondary": cert.secondary_vars,
        "scalar": _scalar_json(cert.scalar, args.approx),
        "block_scalar": _scalar_json(cert3.scalar, args.approx),
    }


def cmd_assoc_obstruct(args):
    report = assoc.obstruction_report()
    verdict = report["verdict"]
    out = {
        "command": "assoc-obstruct",
        "snake_classification": report["snake_classification"],
        "cube_reduction_identity": report["cube_reduction_identity"],
        "rayleigh_monomial_matches": report["rayleigh_monomial_matches"],
        "G": report["G"].to_json(),
        "G2": report["G2"].to_json(),
        "G2_delta_irreducible": report["G2_delta_irreducible"],
        "obstruction": {
            "status": verdict.status,
            "variable": verdict.variable,
            "discriminant_terms": len(verdict.discriminant.monomials()),
        },
        "conclusion": report["conclusion"],
    }
    if verdict.status != "OBSTRUCTED" or report["conclusion"].startswith("chain"):
        raise CertificateFailure("obstruction chain incomplete")
    return out


def cmd_sweep(args):
    rng = random.Random(args.seed)
    count = args.count
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    results = []
    for trial in range(count):
        k = 6 + trial % 5
        p = random_polytope(rng, 3, k)
        lines = len(p.residual_arrangement().lines(3))
        ok = lines == comb(k - 3, 2)
        results.append({"facets": k, "residual_lines": lines, "matches_law": ok})
        if not ok:
            raise CertificateFailure(
                f"residual line count {lines} != binom({k}-3, 2)"
            )
    return {
        "command": "sweep",
        "seed": args.seed,
        "trials": count,
        "results": results,
    }


COMMANDS = {
    "adjoint": cmd_adjoint,
    "residual": cmd_residual,
    "detrep2d": cmd_detrep2d,
    "verify-detrep": cmd_verify_detrep,
    "nice3d": cmd_nice3d,
    "singularity": cmd_singularity,
    "assoc-adjoint": cmd_assoc_adjoint,
    "assoc-verify-av": cmd_assoc_verify_av,
    "assoc-obstruct": cmd_assoc_obstruct,
    "sweep": cmd_sweep,
}


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing does not change
    it."""
    parser = argparse.ArgumentParser(
        prog="polyadjoint",
        description="Exact adjoint polynomials, determinantal representations, "
        "and line arrangement certificates.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", help="input JSON path")
    parser.add_argument("--output", help="output JSON path (default: stdout)")
    parser.add_argument("--fixture", help="built-in fixture name")
    parser.add_argument("--matrix", help="matrix JSON path or 'builtin'")
    parser.add_argument("--degree", type=int, help="degree / polygon size parameter")
    parser.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    parser.add_argument("--count", type=int, default=20, help="sweep trial count")
    parser.add_argument(
        "--approx",
        action="store_true",
        help="add non-authoritative decimal renderings of scalars",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = COMMANDS[args.command](args)
        report["status"] = "ok"
        code = EXIT_OK
    except CertificateFailure as exc:
        report = {"status": "certificate-failure", "error": str(exc)}
        code = EXIT_CERT_FAILURE
    except AssertionError as exc:
        # an internal cross-check failed: no claim is made, like a failed
        # certificate, but the fault lies in the program, not the input
        report = {"status": "internal-error", "error": str(exc)}
        code = EXIT_CERT_FAILURE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        report = {"status": "input-error", "error": str(exc)}
        code = EXIT_INPUT_ERROR
    text = _report.dumps(report)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:  # an unwritable --output: the error goes to stdout
            text = _report.dumps({"status": "input-error", "error": str(exc)})
            code = EXIT_INPUT_ERROR
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
