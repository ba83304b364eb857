"""Tests of the benchmark's own machinery.

Run from the repository root with either of

    python3 -m unittest discover -s perfbench
    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import tempfile
import unittest
from unittest import mock

import run
import spans
import verdicts
import workloads


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # job [0, 10] > cli [1, 9] > {a [2, 4], b [5, 8] > a [6, 7]}
        tree = [
            ["job", 0.0, 10.0, -1, "j"],
            ["cli", 1.0, 9.0, 0, "j"],
            ["a", 2.0, 4.0, 1, "j"],
            ["b", 5.0, 8.0, 1, "j"],
            ["a", 6.0, 7.0, 3, "j"],
        ]
        own = spans.self_times(tree)
        self.assertEqual(own, {"job": 2.0, "cli": 3.0, "a": 3.0, "b": 2.0})
        self.assertEqual(sum(own.values()), 10.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(run.nearest_rank(samples, 50), 50)
        self.assertEqual(run.nearest_rank(samples, 90), 90)
        self.assertEqual(run.nearest_rank(samples, 100), 100)
        self.assertEqual(run.nearest_rank([7.0], 99), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(99))))
        self.assertEqual(run.tail_percentile(list(range(1, 101))), (90.0, 90))
        self.assertEqual(run.tail_percentile(list(range(1, 1000))), (90.0, 900))
        self.assertEqual(run.tail_percentile(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(run.tail_percentile(list(range(1, 10001))), (99.9, 9990))


class ReferenceKernelTest(unittest.TestCase):
    def test_kernel_is_timed_before_each_job_outside_its_timer(self):
        events = []

        def kernel():
            events.append("kernel")
            return 0.5

        jobs = [(f"j{i}", lambda i=i: events.append(f"j{i}") or 0) for i in range(3)]
        durations, kernels, failed, _ = run.run_pass(jobs, kernel=kernel)
        self.assertEqual(events, ["kernel", "j0", "kernel", "j1", "kernel", "j2"])
        self.assertEqual(kernels, [0.5, 0.5, 0.5])
        self.assertEqual((len(durations), failed), (3, 0))
        self.assertEqual(run.run_pass(jobs)[1], [])


class CheckerTest(unittest.TestCase):
    """Each checker accepts a real verdict and rejects a corrupted one."""

    @classmethod
    def setUpClass(cls):
        cls.lib = run.import_cbtopo()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.task_path = os.path.join(cls.tmp.name, "n2.json")
        code, out = workloads.run_cli(cls.lib, ["build", "--n", 2, "--out", cls.task_path])
        cls.build = (code, out)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_build_summary(self):
        verdicts.check_build(*self.build, 2)
        code, out = self.build
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_build(code, out.replace("entries=63", "entries=62"), 2)

    def test_analyze_with_a_fail_line(self):
        code, out = workloads.run_cli(self.lib, ["analyze", self.task_path, "--t", 1])
        verdicts.check_analyze(code, out)
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_analyze(code, out.replace("rigid: PASS", "rigid: FAIL"))

    def test_flipped_search_verdict(self):
        code, out = workloads.run_cli(self.lib, ["search", self.task_path, "--t", 1, "--N", 0])
        verdicts.check_search(code, out, 0)
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_search(code, out.replace("no_map_up_to_depth", "map_found"), 0)
        with self.assertRaises(verdicts.NoVerdict):
            verdicts.check_search(5, "error: carried-map search exceeded the node budget", 0)

    def test_replay_that_loses_its_violation(self):
        lib = self.lib
        inputs = [lib.Value.ONE] * 3
        trace = lib.find_violation(2, 0, lib.get_protocol("2pc"), lib.ExhaustiveMode(depth=12),
                                   inputs=inputs)
        verdicts.check_simulation(lib, trace, 2, 0, inputs, suspensions=1)
        unsuspended = tuple(e for e in trace.events if e.kind != "suspend")
        self.assertLess(len(unsuspended), len(trace.events))
        broken = dataclasses.replace(trace, events=unsuspended)
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_simulation(lib, broken, 2, 0, inputs, suspensions=1)

    def test_simulator_closed_form(self):
        lib = self.lib
        inputs = [lib.Value.ONE, lib.Value.ZERO, lib.Value.ONE]
        verdicts.check_simulation(lib, None, 2, 0, inputs, suspensions=1)
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_simulation(lib, None, 2, 1, inputs, suspensions=1)

    def test_simulate_cli_replay(self):
        path = os.path.join(self.tmp.name, "trace.jsonl")
        code, out = workloads.run_cli(
            self.lib, ["simulate", "--n", 2, "--t", 1, "--trace-out", path])
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        verdicts.check_simulate_cli(self.lib, code, out, lines, 2, 1)
        records = [json.loads(line) for line in lines]
        for record in records:
            if record["type"] == "verdict":
                record["violations"][0]["kind"] = "validity"
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_simulate_cli(self.lib, code, out, [json.dumps(r) for r in records],
                                        2, 1)

    def test_control_map(self):
        lib = self.lib
        search = workloads.Search.__new__(workloads.Search)
        search.lib = lib
        colorless = lib.build_colorless_task(lib.CbtConfig(n=2, block_index=3))
        control = search._control_task(colorless)
        facets = workloads._skeleton_facets(lib, 2, 3, 1)
        for depth in (0, 1):
            report = lib.search_carried_simplicial_map(control, 1, depth)
            verdicts.check_control_map(lib, report, control, facets)
        verdicts.check_control_map(lib, lib.decide(control, 1, 1), control, facets)
        report = lib.search_carried_simplicial_map(control, 1, 0)
        one = lib.Vertex(None, lib.Value.ONE)
        bottom = next(u for u, _ in report.assignment if u.value is lib.Value.BOTTOM)
        wrong = tuple((u, one if u == bottom else w) for u, w in report.assignment)
        with self.assertRaises(verdicts.VerdictError):
            verdicts.check_control_map(lib, dataclasses.replace(report, assignment=wrong),
                                       control, facets)


class RecorderTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        lib = run.import_cbtopo()
        original = lib.solvability.search_carried_simplicial_map
        clone = lib.Simulation.__dict__["clone"]
        recorder = spans.Recorder()
        recorder.install()
        try:
            wrapped = lib.solvability.search_carried_simplicial_map
            self.assertIsNot(wrapped, original)
            self.assertIs(lib.cli.search_carried_simplicial_map, wrapped)
            self.assertIs(lib.search_carried_simplicial_map, wrapped)
            self.assertIsNot(lib.Simulation.__dict__["clone"], clone)
            recorder.run_job(
                "j1", lambda: lib.decide(lib.build_colorless_task(lib.CbtConfig(n=2)), 1, 1))
        finally:
            recorder.restore()
        self.assertIs(lib.cli.search_carried_simplicial_map, original)
        self.assertIs(lib.search_carried_simplicial_map, original)
        self.assertIs(lib.Simulation.__dict__["clone"], clone)
        metrics = recorder.metrics(1.0)
        self.assertEqual([k for k, _ in spans.PER_LAYER], list(metrics))
        own = recorder.self_times()
        self.assertAlmostEqual(sum(own.values()), metrics["trace.wall_s"]["value"], places=9)
        self.assertGreater(metrics["simplicial.simplex_new"]["value"], 0)
        self.assertEqual(metrics["solvability.decide.searches"]["value"], 0)
        self.assertTrue(all(record[4] == "j1" for record in recorder.spans))


    def test_paused_calls_are_not_recorded(self):
        lib = run.import_cbtopo()
        recorder = spans.Recorder()
        recorder.install()
        try:
            def job():
                with spans.paused():
                    lib.build_task(lib.CbtConfig(n=2))
            recorder.run_job("j1", job)
        finally:
            recorder.restore()
        self.assertEqual([record[0] for record in recorder.spans], [spans.JOB])
        self.assertEqual(recorder.counts["simplicial.simplex_new"], 0)
        with spans.paused():  # nothing installed: a no-op
            pass

    def test_missing_target_stops_before_wrapping(self):
        lib = run.import_cbtopo()
        original = lib.cli.search_carried_simplicial_map
        recorder = spans.Recorder()
        with mock.patch.object(spans, "SPANS", spans.SPANS + (("gone", "cbtopo.cli", "gone"),)):
            with self.assertRaisesRegex(spans.MissingTarget, "cbtopo.cli.gone"):
                recorder.install()
        self.assertIs(lib.cli.search_carried_simplicial_map, original)
        self.assertIsNone(spans._installed)


class ExitCodeTest(unittest.TestCase):
    def test_wrong_verdict_exits_non_zero_without_a_result(self):
        def corrupted(lib, argv):
            return 0, "input: vertices=1 facets=1 dimension=0\n"

        out = io.StringIO()
        with mock.patch.object(workloads, "run_cli", corrupted), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "verify", "--seed", "1"])
        self.assertEqual(code, run.EXIT_WRONG_VERDICT)
        self.assertNotIn("{", out.getvalue())

    def _run_all(self, children):
        """``run.main`` with the workload processes replaced by ``children``."""
        calls = iter(children)

        def child(argv, **kwargs):
            code, stdout = next(calls)
            return subprocess.CompletedProcess(argv, code, stdout=stdout)

        out = io.StringIO()
        with mock.patch.object(subprocess, "run", child), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "all", "--seed", "1", "--seconds", "1"])
        return code, out.getvalue().splitlines()

    def test_all_stops_at_the_first_failed_workload(self):
        ok = 'workload verify\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'
        code, lines = self._run_all([(0, ok), (run.EXIT_WRONG_VERDICT, "workload search\n")])
        self.assertEqual(code, run.EXIT_WRONG_VERDICT)
        self.assertEqual(lines[-1], "workload search")
        self.assertFalse(any(line.startswith("{") for line in lines))

    def test_all_prints_one_result_for_every_workload(self):
        children = [
            (0, f"workload {name}\n" + json.dumps({
                "correct": True, "attempted": 2, "failed": 1,
                "metrics": {"wall_ref": {"value": 1.5, "unit": "ref"}}}) + "\n")
            for name in workloads.WORKLOADS
        ]
        code, lines = self._run_all(children)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(result["attempted"], 2 * len(workloads.WORKLOADS))
        self.assertEqual(result["failed"], len(workloads.WORKLOADS))
        self.assertEqual(sorted(result["metrics"]),
                         sorted(f"{name}.wall_ref" for name in workloads.WORKLOADS))


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, dict(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, dict(spans.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
