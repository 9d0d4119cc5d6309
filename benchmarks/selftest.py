"""Fast self-test of the benchmark at tiny nmax.

    python3 benchmarks/selftest.py

Runs every workload and the traced run on tiny inputs, and checks that the
answer checks are live: a wrong expected coefficient, a crashing request,
an enumeration that skips a configuration and a vacuous request must each
be caught.  A crash costs its request and
not the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import unittest
from unittest import mock

import layertrace
import worker
import workloads
from slncrystals import abacus, cli, crystal

SPEC_PATH = os.path.join(worker.ROOT, "BENCHMARK.json")


def spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


class SelfTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(set(workloads.WORKLOADS),
                         {w["name"] for w in spec()["workloads"]})

    def test_every_workload_runs_clean(self):
        end_to_end = {m["name"] for m in spec()["end_to_end"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                requests = workloads.build(name, 7, tiny=True)
                self.assertTrue(all(r.elements >= 1 for r in requests))
                _, _, failures = worker.run_requests(workloads.warmup_set(requests))
                samples, fail = worker.closed_loop(requests, 0)
                audited, audit_fail = worker.audit(requests)
                self.assertGreater(audited, 0)
                self.assertEqual(failures + fail + audit_fail, 0)  # error_rate == 0
                metrics = worker.end_to_end(requests, samples)
                self.assertEqual(set(metrics) | {"setup_s"}, end_to_end)
                self.assertTrue(all(v > 0 for v in metrics.values()))

    def test_traced_run_reports_every_layer_metric(self):
        per_layer = {m["name"] for m in spec()["per_layer"]}
        original = crystal.f_abacus
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                requests = workloads.build(name, 7, tiny=True)
                with layertrace.Tracer() as tracer:
                    _, _, failures = worker.run_requests(requests)
                self.assertEqual(failures, 0)
                self.assertIs(crystal.f_abacus, original)  # patches restored
                metrics = tracer.metrics()
                self.assertEqual(set(metrics) | {"trace.overhead"}, per_layer)
                self.assertGreater(metrics["cli.self_s"], 0)
                if name == "graded-series":
                    self.assertGreater(metrics["crystal.graph.f_calls"], 0)
                else:
                    self.assertGreater(metrics["abacus.enum.candidates"], 0)
                    self.assertGreater(metrics["cylindric.is_valid_cpp.calls"], 0)
                    self.assertGreater(metrics["kyoto.path_brackets.calls"], 0)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 3, tiny=True),
                             workloads.build(name, 3, tiny=True))

    def test_warmup_runs_each_kind_and_pair_once(self):
        def kinds(requests):
            return [(r.argv[:2], workloads._pair(r.argv)) for r in requests]

        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                requests = workloads.build(name, 7, tiny=True)
                warm = workloads.warmup_set(requests)
                self.assertCountEqual(kinds(warm), set(kinds(requests)))
                other = workloads.warmup_set(workloads.build(name, 8, tiny=True))
                self.assertEqual([r.argv for r in warm], [r.argv for r in other])

    def test_wrong_coefficient_counts_as_failure(self):
        request = workloads.series(3, 2, workloads.qseries.level_weights(3, 2)[0], 4)
        self.assertTrue(worker.execute(request)[1])
        lines = request.expected.splitlines(keepends=True)
        k, c = lines[-1].split("\t")
        lines[-1] = "%s\t%d\n" % (k, int(c) + 1)
        wrong = dataclasses.replace(request, expected="".join(lines))
        with contextlib.redirect_stderr(io.StringIO()) as log:
            _, _, failures = worker.run_requests([wrong])
        self.assertEqual(failures, 1)
        self.assertIn("request failed", log.getvalue())

    def test_crash_counts_as_failure_and_the_run_goes_on(self):
        good = workloads.series(3, 2, workloads.qseries.level_weights(3, 2)[0], 4)
        crash = dataclasses.replace(good, argv=("crash",))
        real_main = cli.main

        def main(argv):
            if argv == ["crash"]:
                raise RuntimeError("boom")
            return real_main(argv)

        with mock.patch.object(cli, "main", main), \
                contextlib.redirect_stderr(io.StringIO()) as log:
            latencies, _, failures = worker.run_requests([crash, good])
        self.assertEqual((len(latencies), failures), (2, 1))
        self.assertIn("RuntimeError: boom", log.getvalue())

    def test_skipped_configuration_counts_as_failure(self):
        request = workloads.all_weights_suite("gglemma", 3, 2, 3)
        self.assertEqual(worker.audit([request]), (1, 0))
        enumerate_descending = abacus.enumerate_descending

        def skipping(psi0, max_weight):  # drops the last configuration
            configs = list(enumerate_descending(psi0, max_weight))
            yield from configs[:-1]

        with mock.patch.object(abacus, "enumerate_descending", skipping), \
                contextlib.redirect_stderr(io.StringIO()) as log:
            self.assertTrue(worker.execute(request)[1])  # still prints "ok"
            self.assertEqual(worker.audit([request]), (1, 1))
        self.assertIn("request visited", log.getvalue())

    def test_vacuous_request_is_rejected(self):
        with self.assertRaises(ValueError):
            workloads.all_weights_suite("kyoto", 3, 2, 0)


if __name__ == "__main__":
    unittest.main()
