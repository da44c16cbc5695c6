"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

They check that a seed fixes the op list, that tracing leaves every
captured stdout (and saved file) byte-identical, that the tracer puts
every original function back and counts calls from other threads, that
reference rescaling cuts the samples out of an interval and uses their
speeds, and that the metric names the runner prints are the ones
`BENCHMARK.json` declares.
"""

import json
import os
import signal
import sys
import threading
import time
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

kf = run.import_program()


def _small_ops():
    """A few cheap ops of every kind: K1 and HW reports and one files triple."""
    corpus = [workloads.Op("report", e, t, label) for label, e, t in workloads.CORPUS if label in ("K1", "HW")]
    return corpus + workloads.build("files", 3, 1)[:3]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.build(name, 7, 30), workloads.build(name, 7, 30))
                self.assertNotEqual(workloads.build(name, 7, 30), workloads.build(name, 8, 30))

    def test_no_op_repeats(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                ops = workloads.build(name, 1, 30)
                self.assertEqual(len(set(ops)), len(ops))


class TraceTest(unittest.TestCase):
    def run_ops(self, ops, tracer=None):
        workdir = run._workdir()
        try:
            return run.run_ops(kf, ops, workdir, tracer)
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)

    def test_tracing_keeps_outputs(self):
        ops = _small_ops()
        plain = self.run_ops(ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.run_ops(ops, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual([r["problem"] for r in plain], [None] * len(ops))
        self.assertEqual([r["digest"] for r in traced], [r["digest"] for r in plain])
        names = {span[0] for span in tracer.spans}
        for layer in ("cli.main", "fileio.save_complex", "fileio.load_complex",
                      "involutive.realize_with_iota", "complexes.verify_chain_map"):
            self.assertIn(layer, names)

    def test_uninstall_restores(self):
        before = kf.cli.compute_invariant_table, kf.invariants.y_invariant, kf.BigradedComplex.tensor
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(kf.cli.compute_invariant_table, before[0])
        tracer.uninstall()
        after = kf.cli.compute_invariant_table, kf.invariants.y_invariant, kf.BigradedComplex.tensor
        self.assertEqual(before, after)

    def test_other_thread_calls_are_counted(self):
        tracer = Tracer()
        tracer.install()
        try:
            worker = threading.Thread(target=kf.parse_knot_expr, args=("T(2,3)",))
            worker.start()
            worker.join()
            kf.parse_knot_expr("T(2,5)")
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.other_thread_calls, 1)
        self.assertEqual([span[0] for span in tracer.spans], ["expressions.parse_knot_expr"])

    def test_self_time_and_waste_counters(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0
            c = kf.realize_expr(kf.parse_knot_expr("T(2,5)"))
            kf.invariants.y_invariant(c, 1)
            kf.invariants.y_invariant(c, 1)
            kf.invariants.v_invariant(c, 0)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(summary["invariants.y_invariant.calls"], 2)
        self.assertEqual(summary["invariants.y_invariant.distinct"], 1)
        # the V_0 inside each Y_1 is part of that Y value, so one V call
        self.assertEqual(summary["invariants.v_invariant.calls"], 1)
        self.assertLessEqual(summary["invariants.is_knotlike.computed"], summary["invariants.is_knotlike.calls"])
        for name, value in summary.items():
            if name.endswith(".self_s"):
                self.assertLessEqual(value, summary[name[:-len("self_s")] + "total_s"] + 1e-9, name)


class PaceTest(unittest.TestCase):
    def test_rescale_cuts_out_samples_and_uses_their_speeds(self):
        pace = Pace()
        pace.starts, pace.ends = [0.0, 2.0, 5.0], [0.1, 2.1, 5.1]
        pace.seconds, pace.cpu_seconds = [0.01, 0.03, 0.05], [0.01, 0.01, 0.03]
        pace.spent_cpu = [0.1, 0.1, 0.1]
        raw, ref, cpu_factor, cpu = pace.rescale(0.2, 1.9)
        self.assertAlmostEqual(raw, 1.7)
        self.assertAlmostEqual(ref, 1.7 * NOMINAL_S / 0.02)
        self.assertAlmostEqual(cpu_factor, NOMINAL_S / 0.01)
        self.assertEqual(cpu, 0)
        raw, ref, cpu_factor, cpu = pace.rescale(1.0, 4.0)
        self.assertAlmostEqual(raw, 2.9)
        self.assertAlmostEqual(ref, 1.0 * NOMINAL_S / 0.02 + 1.9 * NOMINAL_S / 0.04)
        self.assertAlmostEqual(cpu_factor, (1.0 * NOMINAL_S / 0.01 + 1.9 * NOMINAL_S / 0.02) / 2.9)
        self.assertAlmostEqual(cpu, 0.1)
        with self.assertRaises(ValueError):
            pace.rescale(5.2, 6.0)

    def test_ticking_samples_inside_a_long_interval(self):
        pace = Pace()
        with pace.ticking():
            start = time.perf_counter()
            while time.perf_counter() - start < 1.0:
                pass
            end = time.perf_counter()
        raw = pace.rescale(start, end)[0]
        self.assertGreaterEqual(len(pace.seconds), 4)
        self.assertLess(raw, end - start)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(run.END_TO_END.values()))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [run.layer_unit(n) for n in run.PER_LAYER])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_printed_names(self):
        args = SimpleNamespace(workload="files", seed=3, seconds=1)
        ops = _small_ops()
        original, run.measure_setup = run.measure_setup, lambda args: (0.1, 0.1)
        try:
            _detail, result = run.untraced(args, kf, ops)
        finally:
            run.measure_setup = original
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), list(run.END_TO_END))
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
