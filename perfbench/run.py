#!/usr/bin/env python3
"""The knotfloer benchmark.

Run from the root of a knotfloer checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 40 --trace 0

One closed-loop client in one process: each operation calls
`knotfloer.cli.main(argv)` in-process with stdout captured (or, for a
build-and-save, the library functions), then checks the output. No
operation repeats within a run. The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the line before it
holds the details (sample counts, input statistics, failures).

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json`. Their
times (wall_s, cpu_s, setup_s) are in reference seconds: raw times
rescaled by the speed of a fixed reference computation (`pace.py`),
timed every 0.4 s during the ops and by each set-up child once it is
ready, because the shared host changes speed every few seconds. wall_s
and setup_s use the reference's wall time, cpu_s its CPU time. The raw
times, without the reference's own, are in the detail line.

`--trace 1` first runs the same op list untraced in a child process,
then again in-process with every public knotfloer function wrapped in a
span (`tracer.py`), and reports the per-layer metrics: the split of the
time over the modules, waste counters, input statistics and the tracing
overhead. The spans go to `.perfbench/traces/`.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 21

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = (
    "invariants.nu_hat.total_s",
    "invariants.y_invariant.calls",
    "invariants.y_invariant.distinct",
    "invariants.y_invariant.total_s",
    "invariants.v_invariant.calls",
    "invariants.v_invariant.distinct",
    "invariants.is_knotlike.calls",
    "invariants.is_knotlike.computed",
    "invariants.is_knotlike.total_s",
    "invariants.a_level_complex.self_s",
    "invariants.omega_plus.total_s",
    "invariants.compute_invariant_table.total_s",
    "fu.tower_reduce.calls",
    "fu.tower_reduce.in_gens",
    "fu.tower_reduce.total_s",
    "complexes.BigradedComplex.tensor.calls",
    "complexes.BigradedComplex.tensor.out_gens",
    "complexes.BigradedComplex.tensor.total_s",
    "complexes.reduce_complex.total_s",
    "builders.staircase_dual.calls",
    "involutive.v0_bar_under.total_s",
    "involutive.ai0_cone.total_s",
    "involutive.involutive_d_pair.total_s",
    "involutive.realize_with_iota.total_s",
    "involutive.realize_with_iota.self_s",
    "involutive.connected_sum_iota.total_s",
    "involutive.mirror_iota.total_s",
    "complexes.verify_chain_map.calls",
    "complexes.verify_chain_map.total_s",
    "complexes.BigradedComplex.require_valid.total_s",
    "complexes.BigradedComplex.dual.total_s",
    "builders.torus_knot_complex.total_s",
    "expressions.parse_knot_expr.total_s",
    "fileio.save_complex.total_s",
    "fileio.save_complex.bytes",
    "fileio.load_complex.total_s",
    "fileio.load_complex.bytes",
    "bounds.upsilon_of_expr.total_s",
    "bounds.lt_signature_of_expr.total_s",
    "bounds.plot_rows.total_s",
    "bounds.genus_bounds.total_s",
    "bounds.clasp_bounds.total_s",
    "linalg.LinearSystem.solve.calls",
    "linalg.LinearSystem.solve.total_s",
    "cli.main.self_s",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.spans",
)


def layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "bytes" if stat == "bytes" else "count"


def import_program():
    """knotfloer from this checkout's src/, never an installed copy."""
    package = os.path.join(ROOT, "src", "knotfloer")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: {package} not found; run from the root of a knotfloer checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import knotfloer
    import knotfloer.cli  # noqa: F401  (not imported by the package)

    if os.path.dirname(os.path.abspath(knotfloer.__file__)) != package:
        sys.exit(f"perfbench: imported knotfloer from {knotfloer.__file__}, not {package}")
    return knotfloer


def machine():
    """Where the run happened, with the load it started under.

    KNOTFLOER_JOBS sets the default of `--jobs`, so it is recorded: with
    more than one job the program runs its report sections on threads.
    """
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model or platform.processor(),
        "loadavg_at_start": os.getloadavg(),
        "KNOTFLOER_JOBS": os.environ.get("KNOTFLOER_JOBS"),
    }


# --- running ------------------------------------------------------------------


def _cpu():
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    """Peak resident memory of this process or of its largest ended child."""
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024


def _perform(kf, op, workdir):
    """One user operation; returns (exit code, captured stdout, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if op.kind == "save":
            result = kf.involutive.realize_with_iota(kf.expressions.parse_knot_expr(op.expr))
            kf.fileio.save_complex(result[0], os.path.join(workdir, op.path), op.expr, result[1])
            return 0, buf.getvalue(), result
        return kf.cli.main(op.argv(workdir)), buf.getvalue(), None


def run_ops(kf, ops, workdir, tracer=None):
    """Time each op, check its output; returns per-op records."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        gc.collect()
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            rc, out, result = _perform(kf, op, workdir)
            wall1, cpu1 = time.perf_counter(), _cpu()
            problem = workloads.check(op, rc, out, result)
        except (Exception, SystemExit) as exc:  # a broken op is counted, not fatal
            wall1, cpu1 = time.perf_counter(), _cpu()
            traceback.print_exc()
            out, problem = "", f"raised {exc!r}"
        digest = hashlib.sha256(out.encode())
        if op.kind == "save" and problem is None:
            with open(os.path.join(workdir, op.path), "rb") as fh:
                digest.update(fh.read())
        if op.kind == "validate":
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(workdir, op.path))
        records.append({
            "start": wall0,
            "end": wall1,
            "wall": wall1 - wall0,
            "cpu": cpu1 - cpu0,
            "problem": problem,
            "digest": digest.hexdigest()[:16],
        })
    return records


def _workdir():
    path = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def measure_setup(args):
    """Set-up times of fresh processes: interpreter start, import and inputs.

    Each child prints the monotonic clock once its inputs are built;
    CLOCK_MONOTONIC is shared by all processes, so a sample runs from just
    before the spawn to that instant and leaves out the child's exit. The
    child then times the reference, on the CPU it ran on, and its set-up
    is rescaled by that. Returns the median in reference seconds and the
    raw median.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        ready, reference_s = map(float, child.stdout.split()[-2:])
        raw.append(ready - start)
        scaled.append(raw[-1] * NOMINAL_S / reference_s)
    return statistics.median(scaled), statistics.median(raw)


def _failures(records, ops):
    return [f"op {i} {ops[i].kind} {ops[i].expr}: {r['problem']}" for i, r in enumerate(records) if r["problem"]]


def untraced(args, kf, ops):
    setup_s, raw_setup_s = measure_setup(args)
    pace = Pace()
    workdir = _workdir()
    try:
        with pace.ticking():
            records = run_ops(kf, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls, scaled, cpus, cpu_scaled = [], [], [], []
    for r in records:
        raw, ref, cpu_factor, sampling_cpu = pace.rescale(r["start"], r["end"])
        walls.append(raw)
        scaled.append(ref)
        cpus.append(r["cpu"] - sampling_cpu)
        cpu_scaled.append(cpus[-1] * cpu_factor)
    failures = _failures(records, ops)
    values = {
        "wall_s": sum(scaled),
        "cpu_s": sum(cpu_scaled),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_ratio": 1 - len(failures) / len(ops),
    }
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(walls),
        "setup_samples": SETUP_REPEATS,
        "raw": {"wall_s": sum(walls), "cpu_s": sum(cpus), "setup_s": raw_setup_s},
        "reference": pace.stats(),
        # Raw seconds. Not end-to-end metrics: with a dozen ops a run (wide,
        # tall) each percentile is one op's latency, far noisier than the
        # bounds allow.
        "op_latency": {
            "p50_s": statistics.median(walls),
            "p90_s": p90,
            "samples_above_p90": sum(1 for w in walls if w > p90),
        },
        "inputs": workloads.input_stats(ops),
        "failures": failures,
        "op_walls": walls,
        "op_ref_s": scaled,
        "op_cpus": cpus,
        "op_digests": [r["digest"] for r in records],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return detail, {"correct": not failures, "attempted": len(ops), "failed": len(failures), "metrics": metrics}


def traced(args, kf, ops):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    child_lines = child.stdout.splitlines()
    base_detail, base = json.loads(child_lines[-2]), json.loads(child_lines[-1])

    tracer = Tracer()
    workdir = _workdir()
    tracer.install()
    try:
        records = run_ops(kf, ops, workdir, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    failures = _failures(records, ops)
    # Tracing must not change a byte of what any operation printed or saved.
    for i, (rec, want) in enumerate(zip(records, base_detail["op_digests"])):
        if rec["digest"] != want:
            failures.append(f"op {i} {ops[i].kind} {ops[i].expr}: traced output differs from untraced")
    wall = sum(r["wall"] for r in records)
    values = dict(tracer.summary())
    values.update({
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base_detail["raw"]["wall_s"],
        "trace.spans": len(tracer.spans),
    })
    trace_path = os.path.join(STATE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(records),
        "inputs": workloads.input_stats(ops),
        "untraced_wall_s": base_detail["raw"]["wall_s"],
        "spans_file": os.path.relpath(trace_path, ROOT),
        "shares_of_traced_wall": {
            name[:-len(".total_s")]: values[name] / wall
            for name in PER_LAYER if name.endswith(".total_s") and values.get(name)
        },
        # The split each workload was chosen for.
        "layer_shares": {
            "nu_hat": values.get("invariants.nu_hat.total_s", 0) / wall,
            "y_invariant": values.get("invariants.y_invariant.total_s", 0) / wall,
            "construct_and_files": tracer.covered(
                lambda n: n.startswith(("fileio.", "complexes.")) or n == "involutive.realize_with_iota"
            ) / wall,
        },
        # Calls from the program's own threads, run without a span.
        "other_thread_calls": tracer.other_thread_calls,
        "failures": failures,
    }
    metrics = {name: {"value": values.get(name, 0), "unit": layer_unit(name)} for name in PER_LAYER}
    ok = not failures and base["correct"]
    failed = max(len(failures), base["failed"])
    return detail, {"correct": ok, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = machine()
    kf = import_program()
    ops = workloads.build(args.workload, args.seed, args.seconds)
    if args.setup_only:
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        pace = Pace()
        pace.sample()
        print(pace.seconds[0])
        return 0
    detail, result = (traced if args.trace else untraced)(args, kf, ops)
    print(json.dumps({"machine": started, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
