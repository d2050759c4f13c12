"""End-to-end check of the output gate: a corrupted expected hash must fail
the run on every workload. Builds the benchmark on first use (about a
minute), then runs each workload briefly.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")


class CorruptedExpectedHash(unittest.TestCase):
    def run_workload(self, workload):
        r = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "0", "--corrupt-expected-hash"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        return json.loads(r.stdout.strip().splitlines()[-1]), r.stderr

    def check(self, workload):
        result, log = self.run_workload(workload)
        self.assertFalse(result["correct"], log[-2000:])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("OUTPUT CHECK FAILED", log)

    def test_apps_warm(self):
        self.check("apps_warm")

    def test_cold_kernels(self):
        self.check("cold_kernels")


if __name__ == "__main__":
    unittest.main()
