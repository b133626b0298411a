#!/usr/bin/env python3
"""Self-test of the campaign benchmark on seconds-long (--smoke) grids.

    python3 -m unittest discover -s campaign_bench/tests

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that the run fails when the pinned invariant digest is wrong or a claimed
key does not hold up.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "campaign_bench", "run.py")
SEED = 20160605


def bench(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def printed(lines, name):
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            return parts[1]
    raise AssertionError("%s not printed" % name)


class CampaignBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, _, result = bench(w["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, self.spec[key])

    def test_wrong_pinned_digest_fails_the_run(self):
        _, lines, _ = bench("attack_sat")
        digest = printed(lines, "invariant_digest")
        pins = os.path.join(ROOT, ".bench_work", "selftest_digests.json")
        key = "smoke/attack_sat/%d" % SEED
        for pinned, ok in ((digest, True), ("0" * len(digest), False)):
            with open(pins, "w") as f:
                json.dump({key: pinned}, f)
            code, _, result = bench("attack_sat", 0, "--digests", pins)
            self.assertEqual(result["correct"], ok)
            self.assertEqual(code, 0 if ok else 1)

    def test_forged_key_is_caught(self):
        code, _, result = bench("attack_sat", 1, "--forge-key")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
