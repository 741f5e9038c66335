"""CLI end-to-end: exit codes, report fields, JSON determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadjoint.cli import build_parser, main
from polyadjoint.polyring import PolyMatrix, VarRegistry, format_fraction, parse_rational
from polyadjoint.polytope import HPolytope, polygon_from_vertices


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_adjoint_fixture(tmp_path):
    code, report = run(tmp_path, "adjoint", "--fixture", "heptagon7")
    assert code == 0
    assert report["status"] == "ok"
    assert report["degree"] == 4
    assert report["matches_reference"] is True


def test_adjoint_chart_fixture(tmp_path):
    code, report = run(tmp_path, "adjoint", "--fixture", "quadric-dim4")
    assert code == 0
    assert report["degree"] == 2
    assert report["matches_reference"] is True
    assert report["reference_scalar"] == "-1"


def test_residual_and_polytope_roundtrip(tmp_path):
    code, report = run(tmp_path, "residual", "--fixture", "quadric-dim4")
    assert code == 0
    assert report["residual_lines"] == 7
    assert report["residual_planes"] == 0
    # the emitted polytope JSON parses back into an equal H-representation
    back = HPolytope.from_json(report["polytope"])
    assert back.to_json() == report["polytope"]


def test_detrep2d_and_matrix_roundtrip(tmp_path):
    code, report = run(tmp_path, "detrep2d", "--fixture", "heptagon7")
    assert code == 0
    assert report["symmetric"] and report["tridiagonal"]
    assert report["definite_at_interior_point"] is True
    m = PolyMatrix.from_json(report["matrix"])
    assert m.to_json() == report["matrix"]


def test_verify_detrep_builtin_matrix(tmp_path):
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    assert code == 0
    assert report["scalar"] == "1"


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_detrep_on_emitted_matrix(tmp_path):
    pentagon = polygon_from_vertices([(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)])
    poly = _write_json(tmp_path / "pentagon.json", pentagon.to_json())
    code, report = run(tmp_path, "detrep2d", "--input", poly)
    assert code == 0
    matrix = report["matrix"]
    code, report = run(
        tmp_path, "verify-detrep", "--input", poly,
        "--matrix", _write_json(tmp_path / "matrix.json", matrix),
    )
    assert code == 0 and report["status"] == "ok"
    # another linear form in place of the off-diagonal edge form
    m = PolyMatrix.from_json(matrix)
    m.entries[0][1] = m.registry.linear_form([1, 2], 3)
    code, report = run(
        tmp_path, "verify-detrep", "--input", poly,
        "--matrix", _write_json(tmp_path / "wrong.json", m.to_json()),
    )
    assert code == 1 and report["status"] == "certificate-failure"


def test_integers_past_the_str_digit_limit_round_trip(tmp_path):
    # CPython refuses int <-> str past 4300 digits by default; the adjoint
    # and the matrix of this pentagon have coefficients twice that long
    n = 10**2200 + 7
    digits = format_fraction(n)
    assert len(digits) == 2201
    facets = [((1, 0), 0), ((0, 1), 0), ((-1, 0), n), ((-2, -2), 3 * n), ((0, -1), n)]
    poly = _write_json(tmp_path / "pentagon.json", {
        "dim": 2,
        "facets": [
            {"normal": [format_fraction(x) for x in normal], "offset": format_fraction(c)}
            for normal, c in facets
        ],
    })
    code, report = run(tmp_path, "adjoint", "--input", poly)
    assert code == 0 and report["status"] == "ok"
    assert max(len(t["coeff"]) for t in report["affine"]["terms"]) > 4300
    code, report = run(tmp_path, "detrep2d", "--input", poly)
    assert code == 0 and report["status"] == "ok"
    code, report = run(
        tmp_path, "verify-detrep", "--input", poly,
        "--matrix", _write_json(tmp_path / "matrix.json", report["matrix"]),
    )
    assert code == 0 and report["status"] == "ok"


def test_json_integer_literals_past_the_str_digit_limit_are_read(tmp_path):
    long = "1" + "0" * 4400
    path = tmp_path / "segment.json"
    path.write_text(
        '{"dim": 1, "facets": [{"normal": [1], "offset": 0}, '
        '{"normal": [-1], "offset": ' + long + "}]}"
    )
    code, report = run(tmp_path, "residual", "--input", str(path))
    assert code == 0
    assert report["polytope"]["facets"][1]["offset"] == long


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_approx_renders_scalars_as_floats(tmp_path):
    code, report = run(tmp_path, "adjoint", "--fixture", "quadric-dim4", "--approx")
    assert code == 0
    assert report["reference_scalar"] == {"exact": "-1", "approx_nonauthoritative": -1.0}


def test_approx_past_the_float_range_is_a_decimal_string(tmp_path):
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    matrix = report["matrix"]
    for entry in matrix["entries"][0]:
        for term in entry:
            term["coeff"] = format_fraction(parse_rational(term["coeff"]) * 10**400)
    argv = ["verify-detrep", "--fixture", "heptagon7",
            "--matrix", _write_json(tmp_path / "scaled.json", matrix)]
    code, exact = run(tmp_path, *argv)
    assert code == 0 and exact["scalar"] == format_fraction(10**400)
    out = tmp_path / "approx.json"
    assert main(argv + ["--approx", "--output", str(out)]) == 0
    approx = json.loads(out.read_text(), parse_constant=_no_constant)
    assert approx["scalar"] == {
        "exact": exact["scalar"],
        "approx_nonauthoritative": "1.0000000000000000E+400",
    }


def test_unbounded_input_reports_the_direction_as_rationals(tmp_path):
    strip = {"dim": 2, "facets": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [-1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 0},
    ]}
    code, report = run(
        tmp_path, "adjoint", "--input", _write_json(tmp_path / "strip.json", strip)
    )
    assert code == 2
    assert report["error"] == 'unbounded polytope: recession direction ["0", "1"]'


def test_verify_detrep_on_triangle_is_input_error(tmp_path):
    triangle = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    reg = VarRegistry(["x1", "x2"])
    matrix = PolyMatrix([[reg.linear_form([1, 1], 1)]])
    code, report = run(
        tmp_path, "verify-detrep",
        "--input", _write_json(tmp_path / "triangle.json", triangle.to_json()),
        "--matrix", _write_json(tmp_path / "matrix.json", matrix.to_json()),
    )
    assert code == 2 and report["status"] == "input-error"


def test_verify_detrep_builtin_octahedral_matrix(tmp_path):
    # the octa8 matrix is 4x4 and not tridiagonal: the general determinant
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "octa8", "--matrix", "builtin"
    )
    assert code == 0 and report["status"] == "ok"
    assert not PolyMatrix.from_json(report["matrix"]).is_tridiagonal()


def test_nice3d_fixture(tmp_path):
    code, report = run(tmp_path, "nice3d", "--fixture", "octa8")
    assert code == 0
    assert report["degree"] == 4 and report["lines"] == 6
    assert report["h0_below"] == 0
    assert report["h0_at"] == 4


def test_singularity_fixture(tmp_path):
    code, report = run(tmp_path, "singularity", "--fixture", "octa8")
    assert code == 0
    assert report["found"] is False  # absence is an answer, not a failure


@pytest.mark.parametrize("fixture", ["heptagon7", "quadric-dim4"])
def test_singularity_requires_a_3_polytope(tmp_path, fixture):
    code, report = run(tmp_path, "singularity", "--fixture", fixture)
    assert code == 2
    assert report["status"] == "input-error"
    assert report["error"] == "residual lines require a 3-polytope"


def test_assoc_commands(tmp_path):
    code, report = run(tmp_path, "assoc-adjoint", "--degree", "6")
    assert code == 0 and report["terms"] == 14

    code, report = run(tmp_path, "assoc-verify-av")
    assert code == 0 and report["scalar"] == "1"

    code, report = run(tmp_path, "assoc-obstruct")
    assert code == 0
    assert report["obstruction"]["status"] == "OBSTRUCTED"
    assert report["conclusion"].startswith("no AV-representation")


def test_sweep(tmp_path):
    code, report = run(tmp_path, "sweep", "--seed", "5", "--count", "5")
    assert code == 0
    assert len(report["results"]) == 5
    assert all(r["matches_law"] for r in report["results"])


def test_json_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["adjoint", "--fixture", "heptagon7", "--output", str(a)]) == 0
    assert main(["adjoint", "--fixture", "heptagon7", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run(tmp_path, "adjoint", "--input", str(bad))
    assert code == 2 and report["status"] == "input-error"

    code, report = run(tmp_path, "adjoint")  # neither --input nor --fixture
    assert code == 2

    code, report = run(tmp_path, "adjoint", "--fixture", "no-such")
    assert code == 2


def test_certificate_failure_exit_code(tmp_path):
    # three concurrent lines are never nice: exit 1
    from polyadjoint.arrangements3d import Line3, LineArrangement

    arr = LineArrangement(
        [
            Line3((1, 0, 0, 0), (0, 1, 0, 0)),
            Line3((1, 0, 0, 0), (0, 0, 1, 0)),
            Line3((1, 0, 0, 0), (0, 0, 0, 1)),
        ]
    )
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arr.to_json()))
    code, report = run(
        tmp_path, "nice3d", "--input", str(path), "--degree", "3"
    )
    assert code == 1 and report["status"] == "certificate-failure"


def test_stdout_output(capsys):
    code = main(["assoc-adjoint", "--degree", "5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terms"] == 5


@pytest.mark.parametrize("offset", [0.1, 1.0, True])
def test_float_and_bool_polytope_input_rejected(tmp_path, offset):
    # 0.1 would silently become 3602879701896397/36028797018963968
    data = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]).to_json()
    data["facets"][2]["offset"] = offset
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    code, report = run(tmp_path, "adjoint", "--input", str(path))
    assert code == 2 and report["status"] == "input-error"


def test_float_matrix_coefficient_rejected(tmp_path):
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    assert code == 0
    matrix = report["matrix"]
    matrix["entries"][0][0][0]["coeff"] = 0.5
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", str(path)
    )
    assert code == 2 and report["status"] == "input-error"


def test_sweep_negative_count_rejected(tmp_path):
    code, report = run(tmp_path, "sweep", "--count", "-1")
    assert code == 2 and report["status"] == "input-error"


@pytest.mark.parametrize(
    "data",
    [
        {"dim": "2", "facets": []},
        [1, 2],
        {"dim": True, "facets": []},
        {"dim": 0, "facets": []},
        {"dim": 2, "facets": {"normal": [1, 0], "offset": 0}},
        {"dim": 2, "facets": [[[1, 0], 0]]},
        {"dim": 2, "facets": [{"normal": 1, "offset": 0}]},
        {"dim": 2, "facets": [{"normal": [1, 0, 0], "offset": 0}]},
    ],
)
def test_malformed_polytope_shape_rejected(tmp_path, data):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    code, report = run(tmp_path, "adjoint", "--input", str(path))
    assert code == 2 and report["status"] == "input-error"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda m: [m],
        lambda m: {**m, "vars": "x0"},
        lambda m: {**m, "entries": m["entries"][0][0]},
        lambda m: {**m, "entries": [m["entries"][0][0]]},
        lambda m: {**m, "entries": [[{"exps": [0, 0, 0], "coeff": "1"}]]},
        lambda m: {**m, "entries": [[[{"exps": ["1", 0, 0], "coeff": "1"}]]]},
    ],
)
def test_malformed_matrix_shape_rejected(tmp_path, mangle):
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(mangle(report["matrix"])))
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", str(path)
    )
    assert code == 2 and report["status"] == "input-error"


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"lines": {"points": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
        {"lines": [[[1, 0, 0, 0], [0, 1, 0, 0]]]},
        {"lines": [{"points": [[1, 0, 0, 0]]}]},
        {"lines": [{"points": [[1, 0, 0, 0], 5]}]},
        {"lines": [{"points": [[1, 0, 0, 0], [0, 1, 0, 0]], "facets": 3}]},
    ],
)
def test_malformed_line_arrangement_rejected(tmp_path, data):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(data))
    code, report = run(tmp_path, "nice3d", "--input", str(path), "--degree", "3")
    assert code == 2 and report["status"] == "input-error"


def test_failed_internal_check_is_reported(tmp_path, monkeypatch):
    # a wrong leading minor trips build_tridiagonal's minor-property check
    def wrong_minors(matrix):
        return [matrix.registry.zero()] * matrix.size

    monkeypatch.setattr(PolyMatrix, "leading_minors", wrong_minors)
    code, report = run(tmp_path, "detrep2d", "--fixture", "heptagon7")
    assert code == 1
    assert report["status"] == "internal-error"
    assert "leading minor" in report["error"]


def test_nice3d_degree_zero_rejected(tmp_path):
    # 0 is a degree below 1, not a missing --degree
    code, report = run(tmp_path, "nice3d", "--fixture", "octa8", "--degree", "0")
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == "degree must be >= 1"
    code, report = run(tmp_path, "nice3d", "--fixture", "octa8")
    assert code == 0 and report["degree"] == 4
    from polyadjoint.arrangements3d import Line3, LineArrangement

    arr = LineArrangement([Line3((1, 0, 0, 0), (0, 1, 0, 0))])
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arr.to_json()))
    code, report = run(tmp_path, "nice3d", "--input", str(path), "--degree", "0")
    assert code == 2 and report["error"] == "degree must be >= 1"
    # one line is nice for degree 2 (binom(2, 2) = 1 line)
    code, report = run(tmp_path, "nice3d", "--input", str(path), "--degree", "2")
    assert code == 0 and report["degree"] == 2


def test_zero_denominator_rejected(tmp_path):
    # Fraction("1/0") raises ZeroDivisionError, which is an input error here
    poly = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]).to_json()
    poly["facets"][0]["normal"][0] = "1/0"
    matrix = {"vars": ["x1", "x2"], "size": 1,
              "entries": [[[{"exps": [0, 0], "coeff": "1/0"}]]]}
    for name, data, argv in (
        ("poly.json", poly, ["adjoint", "--input"]),
        ("matrix.json", matrix, ["verify-detrep", "--fixture", "heptagon7", "--matrix"]),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code, report = run(tmp_path, *argv, str(path))
        assert code == 2 and report["status"] == "input-error"
        assert "zero denominator" in report["error"]


# keys of the polytope, line-arrangement and matrix formats, so that random
# documents reach past the top-level shape checks
_JSON_KEYS = st.sampled_from(
    ["dim", "facets", "normal", "offset", "name", "lines", "points", "vars",
     "terms", "exps", "coeff", "size", "entries"]
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "x0", "", "1/0"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_KEYS | st.text(max_size=3), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=50, deadline=None)
@given(_JSON)
def test_random_json_input_gives_exit_code_and_json_report(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    for argv in (
        ["adjoint", "--input", str(path)],
        ["nice3d", "--input", str(path), "--degree", "2"],
        ["verify-detrep", "--fixture", "heptagon7", "--matrix", str(path)],
    ):
        code, report = run(tmp_path, *argv)
        assert code in (0, 1, 2) and isinstance(report, dict)


# centrally symmetric polygons: the adjoint contains the line at infinity, so
# its affine degree is below the matrix size, and its projective degree is not
CENTRALLY_SYMMETRIC = {
    "rectangle": [(0, 0), (3, 0), (3, 2), (0, 2)],
    "parallelogram": [(0, 0), (3, 0), (4, 2), (1, 2)],
    "hexagon": [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)],
    "octagon": [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],
}


@pytest.mark.parametrize("name", sorted(CENTRALLY_SYMMETRIC))
def test_centrally_symmetric_detrep_round_trip(tmp_path, name):
    vertices = CENTRALLY_SYMMETRIC[name]
    poly = _write_json(tmp_path / "poly.json", polygon_from_vertices(vertices).to_json())
    code, built = run(tmp_path, "detrep2d", "--input", poly)
    assert code == 0 and built["status"] == "ok"
    assert built["matrix"]["size"] == len(vertices) - 3
    code, report = run(
        tmp_path, "verify-detrep", "--input", poly,
        "--matrix", _write_json(tmp_path / "matrix.json", built["matrix"]),
    )
    assert code == 0 and report["status"] == "ok"
    assert report["scalar"] == built["scalar"]


def test_verify_detrep_rejects_a_non_linear_entry_in_3d(tmp_path):
    # diag(alpha, 1, 1, 1) has determinant alpha and the right size, but it
    # is not a linear determinantal representation
    from polyadjoint.adjoint import adjoint
    from polyadjoint.fixtures import get_fixture

    alpha = adjoint(get_fixture("octa8")["polytope"]).homogeneous
    one, zero = alpha.registry.one(), alpha.registry.zero()
    diag = PolyMatrix([[alpha if i == j == 0 else one if i == j else zero
                        for j in range(4)] for i in range(4)])
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "octa8",
        "--matrix", _write_json(tmp_path / "diag.json", diag.to_json()),
    )
    assert code == 2 and report["status"] == "input-error"
    assert "degree <= 1" in report["error"]


def test_verify_detrep_polygon_matrix_outside_the_chart(tmp_path):
    # a polygon's matrix is read in the affine chart x1, x2
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    hreg = VarRegistry(["x0", "x1", "x2"])
    matrix = PolyMatrix([[p.homogenize(hreg, "x0", 1) for p in row]
                         for row in PolyMatrix.from_json(report["matrix"]).entries])
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7",
        "--matrix", _write_json(tmp_path / "matrix.json", matrix.to_json()),
    )
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == (
        "a polygon's matrix must be over ['x1', 'x2'], got ['x0', 'x1', 'x2']"
    )


def test_verify_detrep_without_matrix_is_input_error(tmp_path):
    square = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    poly = _write_json(tmp_path / "sq.json", square.to_json())
    code, report = run(tmp_path, "verify-detrep", "--input", poly)
    assert code == 2 and report["status"] == "input-error"
    assert "--matrix" in report["error"]


@pytest.mark.parametrize(
    "argv, error",
    [(["adjoint", "--fixture", "assoc-n6"], "fixture assoc-n6 has no polytope"),
     (["verify-detrep", "--fixture", "assoc-n6", "--matrix", "builtin"],
      "fixture assoc-n6 has no polytope")],
)
def test_fixture_without_polytope_is_named(tmp_path, argv, error):
    code, report = run(tmp_path, *argv)
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == error


@pytest.mark.parametrize(
    "argv, error",
    [(["assoc-verify-av", "--fixture", "octa8"], "fixture octa8 has no registry"),
     (["nice3d", "--fixture", "assoc-n6"], "fixture assoc-n6 has no polytope")],
)
def test_fixture_without_field_is_named(tmp_path, argv, error):
    code, report = run(tmp_path, *argv)
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == error


def test_nice3d_degree_one_on_no_lines(tmp_path):
    # the empty arrangement is nice for degree 1: no form of degree -1 but
    # zero, and the constants of degree 0
    path = _write_json(tmp_path / "lines.json", {"lines": []})
    code, report = run(tmp_path, "nice3d", "--input", path, "--degree", "1")
    assert code == 0 and report["status"] == "ok"
    assert report["h0_below"] == 0 and report["h0_at"] == 1


# {x >= -1, y >= -1, x + y <= 1, -1 <= z <= 2}; the report pinned below is
# the one the Fraction-kernel residual arrangement produced
TRIANGULAR_PRISM = {
    "dim": 3,
    "facets": [
        {"normal": ["1", "0", "0"], "offset": "1"},
        {"normal": ["0", "1", "0"], "offset": "1"},
        {"normal": ["-1", "-1", "0"], "offset": "1"},
        {"normal": ["0", "0", "1"], "offset": "1"},
        {"normal": ["0", "0", "-1"], "offset": "2"},
    ],
}


def test_residual_flats_at_infinity_of_a_prism(tmp_path):
    path = _write_json(tmp_path / "prism.json", TRIANGULAR_PRISM)
    code, report = run(tmp_path, "residual", "--input", path)
    assert code == 0
    # facets 0, 1, 2 meet at the point at infinity (0:0:0:1); the other
    # residual points are the directions in which the z-facets' line at
    # infinity meets the side facets
    assert report == {
        "command": "residual",
        "polytope": TRIANGULAR_PRISM,
        "flats_by_codim": {"2": 1, "3": 4},
        "residual_lines": 1,
        "residual_planes": 0,
        "flats": [
            {"facets": [3, 4], "codim": 2,
             "basis": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]},
            {"facets": [0, 1, 2], "codim": 3, "basis": [["0", "0", "0", "1"]]},
            {"facets": [0, 3, 4], "codim": 3, "basis": [["0", "0", "1", "0"]]},
            {"facets": [1, 3, 4], "codim": 3, "basis": [["0", "1", "0", "0"]]},
            {"facets": [2, 3, 4], "codim": 3, "basis": [["0", "-1", "1", "0"]]},
        ],
        "status": "ok",
    }
    code, report = run(tmp_path, "singularity", "--input", path)
    assert code == 0
    assert report == {"command": "singularity", "found": False, "status": "ok"}


def _without(data, path):
    """A deep copy of data without the key at the end of `path`."""
    data = json.loads(json.dumps(data))
    *keys, last = path
    inner = data
    for key in keys:
        inner = inner[key]
    del inner[last]
    return data


@pytest.mark.parametrize(
    "command, data, error",
    [
        ("residual", _without(TRIANGULAR_PRISM, ["facets", 2, "offset"]), "facet has no offset"),
        ("residual", _without(TRIANGULAR_PRISM, ["facets", 0, "normal"]), "facet has no normal"),
        ("residual", {"facets": []}, "polytope has no dim"),
        ("residual", {"dim": 3}, "polytope has no facets"),
        ("nice3d", {"line": []}, "line arrangement has no lines"),
        ("nice3d", {"lines": [{"point": [[1, 0, 0, 0], [0, 1, 0, 0]]}]}, "line has no points"),
    ],
)
def test_missing_input_field_is_named(tmp_path, command, data, error):
    path = _write_json(tmp_path / "in.json", data)
    code, report = run(tmp_path, command, "--input", path, "--degree", "2")
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == error


@pytest.mark.parametrize(
    "path, error",
    [
        (["vars"], "matrix has no vars"),
        (["entries"], "matrix has no entries"),
        (["entries", 0, 0, 0, "coeff"], "term has no coeff"),
        (["entries", 0, 0, 0, "exps"], "term has no exps"),
    ],
)
def test_missing_matrix_field_is_named(tmp_path, path, error):
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", "builtin"
    )
    matrix = _write_json(tmp_path / "matrix.json", _without(report["matrix"], path))
    code, report = run(
        tmp_path, "verify-detrep", "--fixture", "heptagon7", "--matrix", matrix
    )
    assert code == 2 and report["status"] == "input-error"
    assert report["error"] == error


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_unwritable_output_is_an_input_error_on_stdout(tmp_path, capsys, target):
    path = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    code = main(["adjoint", "--fixture", "octa8", "--output", str(path)])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "input-error"
    assert str(path) in report["error"]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
