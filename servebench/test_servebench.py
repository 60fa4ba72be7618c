"""Tests of the serving benchmark itself (not of bvq).

    python3 -m unittest discover -s servebench -p 'test_*.py'

The end-to-end cases build bvqserve on first use (a few minutes) and then
drive it in smoke mode: a quarter of the sessions, two setups, one-second
windows.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def smoke(workload, trace=0, seed=3):
    """Runs the benchmark in smoke mode; returns (exit code, last JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace), "--smoke"])
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name, cls in inputs.WORKLOADS.items():
            with self.subTest(workload=name):
                a = cls(7).request_digest(50)
                self.assertEqual(a, cls(7).request_digest(50))
                self.assertNotEqual(a, cls(8).request_digest(50))

    def test_cold_queries_are_distinct_and_cycle_templates(self):
        w = inputs.ColdFixpoints(5)
        rounds = [w.op(0, i) for i in range(100)]
        queries = [q for op in rounds for q in op.queries]
        self.assertEqual(len(set(queries)), len(queries))
        self.assertEqual(len(rounds[0].lines), inputs.COLD_TEMPLATES)
        self.assertIn("[ifp", rounds[0].queries[3])
        self.assertIn("[gfp", rounds[1].queries[2])

    def test_dashboard_sessions_split_across_shards(self):
        w = inputs.DashboardRw(5)
        shards = [inputs.shard_for_session(s, 2) for s in w.sessions]
        self.assertEqual(shards.count(0), shards.count(1))
        for conn in range(w.connections):
            mine = {inputs.shard_for_session(w.op(conn, i).session, 2)
                    for i in range(8)}
            self.assertEqual(mine, {0, 1})


class EndToEndTest(unittest.TestCase):
    def test_every_workload_passes_with_every_metric(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result = smoke(w["name"])
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), e2e)

    def test_trace_reports_every_per_layer_metric(self):
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        code, result = smoke("dashboard_rw", trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(set(result["metrics"]), layers)

    def test_wrong_payload_fails_the_run(self):
        original = run.Checker.op_answer

        def tamper(self, op_run):
            # Append a tuple to a served answer, as a wrong server would:
            # the first one on warm_lookups, where every answer is checked;
            # every one elsewhere, where a sample is.
            first = not getattr(self, "tampered", False)
            if op_run.ids and (first or self.workload.name != "warm_lookups"):
                ok, payload = op_run.answers[op_run.ids[0]]
                op_run.answers[op_run.ids[0]] = (ok, payload + "    (0)\n")
                self.tampered = True
            original(self, op_run)

        run.Checker.op_answer = tamper
        try:
            for workload in ("warm_lookups", "cold_fixpoints"):
                with self.subTest(workload=workload):
                    code, result = smoke(workload)
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
        finally:
            run.Checker.op_answer = original


if __name__ == "__main__":
    unittest.main()
