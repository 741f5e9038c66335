"""polyadjoint benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload polygon --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread issue ops back to back, the next op
only after the previous one returns.  Whole passes run until ``--seconds``
of op time and at least 100 ops are done.  Each op's output is checked
outside the timed section; a failed check, a non-zero exit code or an
escaping exception is a failed op.

``--trace 0`` prints the end-to-end metrics, with times scaled by the
host's measured speed (see REFERENCE_NOMINAL_S); ``--trace 1`` runs the first
pass untraced and then traced, repeated until ``--seconds`` of op time,
and prints the per-layer metrics.  The last line of output is one JSON
object with keys correct, attempted, failed and metrics.  Generated inputs
and the span file go to ``perfbench/out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:  # run as a script: import the benchmark as a package
    sys.path[0] = str(ROOT)

from perfbench import ops as workloads  # noqa: E402
from perfbench import spans  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
WALL_LIMIT_S = 120.0  # start no pass after this much wall time
TRACE_PASSES = 1
CLOSURE_TOLERANCE_S = 1e-6
# Host speed on a shared VM can drift by tens of percent within seconds and
# over minutes, in wall and CPU time alike (measured on a 2-core 2.1 GHz
# Xeon VM).  After every op the benchmark times a fixed exact-arithmetic
# reference computation.  An op's host factor is the median reference time
# of the ops around it (HOST_WINDOW on each side, within its pass) over
# REFERENCE_NOMINAL_S, about the reference's median on that VM; end-to-end
# times are divided by it.  The wall-clock figures are printed too.
REFERENCE_NOMINAL_S = 0.002
HOST_WINDOW = 4
SETUP_REFERENCES = 15

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def reference_s():
    """Wall time of the fixed reference computation: a sum of Fractions, the
    same kind of work (big-integer gcd and arithmetic) as the program's."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1)
    return time.perf_counter() - start


class Tally:
    """Op outcomes of one phase of a run."""

    def __init__(self):
        self.latencies = []  # wall time of each op
        self.host_factors = []  # of each op: nearby reference time / nominal
        self.scaled = []  # op latencies divided by their host factors
        self.pass_rates = []  # certified ops per scaled second of each pass
        self.failed = 0
        self.reasons = []
        self.output_bytes = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def timed_s(self):
        return sum(self.latencies)


def import_package():
    """Fresh import of the package from the checkout's src/."""
    for name in [n for n in sys.modules if n == "polyadjoint" or n.startswith("polyadjoint.")]:
        del sys.modules[name]
    importlib.import_module("polyadjoint.cli")
    found = Path(sys.modules["polyadjoint"].__file__).resolve().parent
    if found != SRC / "polyadjoint":
        raise ImportError(f"polyadjoint imported from {found}, not from {SRC}")


def set_up(workload, seed, workdir):
    """One set-up: import, the first pass's inputs, one untimed warm-up op."""
    import_package()
    first = workloads.PASS_BUILDERS[workload](seed, 0, workdir)
    workloads.execute(first.ops[0])
    return first


def run_pass(pass_, tally, tracer=None, hasher=None):
    op_span = tracer.name_id(spans.OP) if tracer is not None else None
    first_op, failed_before = tally.attempted, tally.failed
    references = []
    for op in pass_.ops:
        if tracer is not None:
            tracer.current_op += 1
            sid = tracer.enter(op_span)
        start = time.perf_counter()
        try:
            code, output = workloads.execute(op)
            reason = None
        except (Exception, SystemExit) as exc:  # an escaping exception fails the op
            code, output = None, None
            reason = "raised " + "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit(sid)
        tally.latencies.append(elapsed)
        references.append(reference_s())
        if reason is None:
            reason = workloads.verify(op, code, output)
            if op.argv is not None:
                tally.output_bytes += len(output.encode())
        if reason is not None:
            tally.failed += 1
            tally.reasons.append(f"{op.label}: {reason}")
        if hasher is not None:
            data = workloads.output_bytes(op, output) if output is not None else b"<none>"
            hasher.update(op.label.encode() + b"\0" + data + b"\0")
    scaled = []
    for i, latency in enumerate(tally.latencies[first_op:]):
        near = references[max(0, i - HOST_WINDOW): i + HOST_WINDOW + 1]
        host = statistics.median(near) / REFERENCE_NOMINAL_S
        tally.host_factors.append(host)
        scaled.append(latency / host)
    ok = len(scaled) - (tally.failed - failed_before)
    tally.scaled.extend(scaled)
    tally.pass_rates.append(ok / sum(scaled))


def measure(args, first, deadline):
    """Untimed loop of whole passes; returns (tally, passes, bits, sha256)."""
    tally = Tally()
    hasher = hashlib.sha256()
    build = workloads.PASS_BUILDERS[args.workload]
    pass_, index, bits = first, 0, first.max_input_bits
    while True:
        run_pass(pass_, tally, hasher=hasher if index == 0 else None)
        index += 1
        done = tally.timed_s >= args.seconds and tally.attempted >= MIN_OPS
        if done or time.perf_counter() > deadline:
            return tally, index, bits, hasher.hexdigest()
        pass_ = build(args.seed, index, args.workdir)
        bits = max(bits, pass_.max_input_bits)


def trace(args, first, deadline):
    """Untraced and traced runs of the same passes, repeated; returns
    (untraced, traced, tracer, repetitions, originals restored)."""
    build = workloads.PASS_BUILDERS[args.workload]
    passes = [first] + [build(args.seed, i, args.workdir) for i in range(1, TRACE_PASSES)]
    untraced, traced, tracer = Tally(), Tally(), spans.Tracer()
    reps, restored = 0, True
    while True:
        for p in passes:
            run_pass(p, untraced)
        with spans.installed(tracer) as patches:
            for p in passes:
                run_pass(p, traced, tracer)
        restored &= all(vars(owner)[attr] is original for owner, attr, original in patches)
        reps += 1
        if untraced.timed_s + traced.timed_s >= args.seconds or time.perf_counter() > deadline:
            return untraced, traced, tracer, reps, restored


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polyadjoint" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'polyadjoint'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.workdir = ROOT / "perfbench" / "out" / args.workload
    args.workdir.mkdir(parents=True, exist_ok=True)

    setups, setup_hosts = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        first = set_up(args.workload, args.seed, args.workdir)
        setups.append(time.perf_counter() - start)
        references = [reference_s() for _ in range(SETUP_REFERENCES)]
        setup_hosts.append(statistics.median(references) / REFERENCE_NOMINAL_S)
    deadline = PROCESS_START + WALL_LIMIT_S
    header = f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"

    if args.trace == 0:
        tally, passes, bits, digest = measure(args, first, deadline)
        ok = tally.attempted - tally.failed
        metrics = {
            "ops_per_s": statistics.median(tally.pass_rates),
            "latency_p50_s": statistics.median(tally.scaled),
            "latency_p90_s": statistics.quantiles(tally.scaled, n=10)[-1],
            "success_ratio": ok / tally.attempted,
            "setup_s": statistics.median(t / h for t, h in zip(setups, setup_hosts)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines = [
            header,
            f"  passes = {passes}, ops = {tally.attempted} (latency samples), "
            f"failed = {tally.failed}",
            f"  fail_ratio = {tally.failed / tally.attempted:.6g} ratio",
            f"  max_input_coeff_bits = {bits} bits",
            f"  outputs_sha256 (first pass) = {digest}",
            f"  timed_s = {tally.timed_s:.6g} s (wall), set-ups = "
            + ", ".join(f"{s:.4g}" for s in setups) + " s (wall)",
            f"  host factor (reference / nominal) = median {statistics.median(tally.host_factors):.4g},"
            f" ops {min(tally.host_factors):.4g}..{max(tally.host_factors):.4g}",
            f"  wall-clock: ops_per_s = {ok / tally.timed_s:.6g} 1/s,"
            f" latency_p50_s = {statistics.median(tally.latencies):.6g} s,"
            f" latency_p90_s = {statistics.quantiles(tally.latencies, n=10)[-1]:.6g} s,"
            f" setup_s = {statistics.median(setups):.6g} s",
        ] + [f"  FAILED {r}" for r in tally.reasons[:10]]
        emit(lines, tally.failed == 0, tally.attempted, tally.failed,
             {name: (metrics[name], unit) for name, unit in END_TO_END})
        return 0

    untraced, traced, tracer, reps, restored = trace(args, first, deadline)
    overhead = traced.timed_s / untraced.timed_s - 1
    metrics, closure_error = spans.layer_metrics(tracer, reps, overhead, traced.output_bytes)
    span_file = args.workdir / f"trace-seed{args.seed}.tsv"
    tracer.write(span_file)
    failed = untraced.failed + traced.failed
    attempted = untraced.attempted + traced.attempted
    correct = failed == 0 and restored and closure_error <= CLOSURE_TOLERANCE_S
    lines = [
        header,
        f"  traced passes = {TRACE_PASSES} x {reps} repetitions, ops = {traced.attempted}, "
        f"spans = {len(tracer)} ({span_file.relative_to(ROOT)})",
        f"  untraced_s = {untraced.timed_s:.6g} s, traced_s = {traced.timed_s:.6g} s",
        f"  per-op closure error = {closure_error:.3g} s, originals restored = {restored}",
        "  values are per traced pass; the program is single-threaded and no"
        " layer queues or waits, so no wait metric is reported",
    ] + [f"  FAILED {r}" for r in (untraced.reasons + traced.reasons)[:10]]
    emit(lines, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
