"""Tests of the benchmark itself (not of the library).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import gen, ops, run, spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", autouse=True)
def package():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    run.import_package()


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("n", ops.POLYGON_SIZES)
def test_polygon_generator_deterministic_and_bounded(n):
    first = gen.polygon_forms(gen.rng_for("polygon", 7, 3), n)
    again = gen.polygon_forms(gen.rng_for("polygon", 7, 3), n)
    other = gen.polygon_forms(gen.rng_for("polygon", 8, 3), n)
    assert first == again
    assert first != other
    assert len(first) == n
    assert gen.max_bits(first) <= 10


@pytest.mark.parametrize("k", ops.POLYTOPE_SIZES + (12,))
def test_polytope_generator_deterministic_and_bounded(k):
    first = gen.polytope_forms(gen.rng_for("polytope3d", 7, 3), k)
    again = gen.polytope_forms(gen.rng_for("polytope3d", 7, 3), k)
    other = gen.polytope_forms(gen.rng_for("polytope3d", 8, 3), k)
    assert first == again
    assert first != other
    assert len(first) == k
    assert gen.max_bits(first) <= 10


@pytest.mark.parametrize(
    "dim, forms",
    [(2, gen.polygon_forms(gen.rng_for("polygon", 1, 0), 9)),
     (3, gen.polytope_forms(gen.rng_for("polytope3d", 1, 0), 9))],
)
def test_generated_inputs_are_simple_for_the_library(dim, forms):
    polytope = sys.modules["polyadjoint.polytope"].HPolytope.from_json(
        gen.polytope_json(dim, forms)
    )
    assert len(polytope.facets) == len(forms)  # no redundant facet
    assert polytope.is_simple()
    assert polytope.is_simple_arrangement() == (True, None)


# -- output checks ----------------------------------------------------------------


def _bump_first_coefficient(poly):
    term = poly["terms"][0]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)


def _corrupting(target_label, field):
    """ops.execute, but the named op's adjoint gets one coefficient changed."""
    original = ops.execute

    def execute(op):
        code, output = original(op)
        if op.label == target_label:
            report = json.loads(output)
            _bump_first_coefficient(report[field])
            output = json.dumps(report)
        return code, output

    return execute


@pytest.mark.parametrize(
    "workload, label, field",
    [
        ("polygon", "adjoint n=8", "homogeneous"),
        ("polygon", "detrep2d n=8", "adjoint"),
        ("polytope3d", "adjoint k=8", "homogeneous"),
        ("assoc", "assoc-adjoint n=7", "polynomial"),
    ],
)
def test_corrupted_adjoint_is_counted_as_failure(tmp_path, monkeypatch, workload, label, field):
    pass_ = ops.PASS_BUILDERS[workload](5, 0, tmp_path)
    size = label.split()[-1]  # keep the ops on the same input
    pass_.ops = [op for op in pass_.ops if op.label.endswith(size)]
    clean = run.Tally()
    run.run_pass(pass_, clean)
    assert clean.failed == 0, clean.reasons

    monkeypatch.setattr(ops, "execute", _corrupting(label, field))
    tally = run.Tally()
    run.run_pass(pass_, tally)
    assert tally.failed >= 1
    assert tally.reasons[0].startswith(label)


def test_failing_exit_code_and_exception_are_failures(tmp_path, monkeypatch):
    pass_ = ops.polygon_pass(5, 0, tmp_path)
    pass_.ops = pass_.ops[:2]

    def broken(op):
        if op.label.startswith("adjoint"):
            return 1, "{}"
        raise AssertionError("internal cross-check")

    monkeypatch.setattr(ops, "execute", broken)
    tally = run.Tally()
    run.run_pass(pass_, tally)
    assert tally.failed == 2
    assert "exit code 1" in tally.reasons[0]
    assert "AssertionError" in tally.reasons[1]


# -- tracing -------------------------------------------------------------------


def _synthetic(tracer, spans_):
    """Append spans (name, parent, start, end) directly."""
    for name, parent, start, end in spans_:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.raised.append(0)


def test_self_time_on_nested_trace():
    tracer = spans.Tracer()
    _synthetic(tracer, [
        ("op", -1, 0.0, 10.0),
        ("polyring.mul", 0, 1.0, 6.0),  # 5 s, of which 2 s in its child
        ("linalg.rank", 1, 2.0, 4.0),  # 2 s, of which 1 s in rref
        ("linalg.rref", 2, 2.5, 3.5),
        ("cli.main", 0, 7.0, 9.0),
    ])
    assert spans.self_times(tracer) == [3.0, 3.0, 1.0, 1.0, 2.0]
    by_name, layers, unattributed, closure_error = spans.summarize(tracer)
    assert layers["polyring"] == {"calls": 1, "self_s": 3.0, "raised": 0}
    # rank -> rref stays inside linalg: one entry into the layer
    assert layers["linalg"] == {"calls": 1, "self_s": 2.0, "raised": 0}
    assert layers["cli"]["self_s"] == 2.0
    assert by_name["linalg.rref"] == [1, 1.0]
    assert unattributed == 3.0
    assert closure_error == 0.0


def _bindings():
    """Every (owner, attribute) a traced run patches, with its object."""
    found = []
    package_modules = spans._package_modules()
    for module_name, class_name, attr, _ in spans.TARGETS:
        module = sys.modules[f"polyadjoint.{module_name}"]
        if class_name is not None:
            owner = vars(module)[class_name]
            found.append((owner, attr, inspect.getattr_static(owner, attr)))
            continue
        fn = vars(module)[attr]
        for m in package_modules:
            for name, value in vars(m).items():
                if value is fn:
                    found.append((m, name, fn))
    return found


def test_traced_run_restores_every_original(tmp_path):
    before = _bindings()
    pass_ = ops.polygon_pass(5, 0, tmp_path)
    tracer = spans.Tracer()
    tally = run.Tally()
    with spans.installed(tracer):
        assert all(vars(owner)[attr] is not obj for owner, attr, obj in before)
        run.run_pass(pass_, tally, tracer)
    assert tally.failed == 0, tally.reasons
    assert all(vars(owner)[attr] is obj for owner, attr, obj in before)
    # cli.adjoint, detrep2d.polygon_adjoint and the package re-export are
    # bound by name in other modules and must have been wrapped too
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in before}
    assert {("polyadjoint.cli", "adjoint"), ("polyadjoint.detrep2d", "polygon_adjoint"),
            ("polyadjoint", "adjoint")} <= names

    metrics, closure_error = spans.layer_metrics(tracer, 1, 0.0, tally.output_bytes)
    assert closure_error <= run.CLOSURE_TOLERANCE_S
    assert metrics["polyring.det_bareiss.calls"][0] >= 3  # n = 10, 11, 12
    assert metrics["cli.output_bytes"][0] == tally.output_bytes
    total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert total + metrics["trace.unattributed_s"][0] == pytest.approx(tally.timed_s, rel=0.05)


# -- contract --------------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polygon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_latencies_are_scaled_by_nearby_host_factors(tmp_path, monkeypatch):
    pass_ = ops.polygon_pass(5, 0, tmp_path)
    pass_.ops = pass_.ops[:12]
    timings = iter([0.002] * 6 + [0.004] * 6)  # host at nominal speed, then at half
    monkeypatch.setattr(run, "reference_s", lambda: next(timings))
    monkeypatch.setattr(run, "HOST_WINDOW", 1)
    tally = run.Tally()
    run.run_pass(pass_, tally)
    # median of the op's own reference and one on each side: the step is
    # tracked from the op where it happens
    assert tally.host_factors == [1.0] * 6 + [2.0] * 6
    assert tally.scaled == [t / h for t, h in zip(tally.latencies, tally.host_factors)]
    assert tally.pass_rates == [12 / sum(tally.scaled)]
