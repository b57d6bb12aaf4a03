#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds like run.py does, ~1 min warm):

    python3 perfbench/test_perfbench.py

Each workload runs for one second with and without tracing. The tests pin
the exact per-session counts, the harness's own checks (round spans
reconcile with session wall time within 5%, per-layer counts equal
SessionStats/TrafficReport/TransportStats, the oracle rejects a perturbed
output, socket metering equals the simulator's), and the output contract.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# (wire_messages, rounds) per session: NM = m^2+m+7 and NR = 8 for P4 at
# m=3, NM = 3m and NR = 4 for P6; p4_resume adds the replayed stages, one
# backoff round and the resume handshake.
EXACT = {
    "p4_paper": (19, 8),
    "p6_paper": (9, 4),
    "p4_resume": (40, 13),
    "p4_remote": (19, 8),
}


def run(workload, trace, seed=11, seconds=1.0):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: "
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    notes = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    return json.loads(lines[-1]), notes


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


class BenchmarkTest(unittest.TestCase):
    def assert_clean(self, result, notes):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], notes)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 40)
        checks = [n for n in notes if n.startswith("check ")]
        self.assertIn("check oracle_rejects_perturbed_output: ok",
                      " ".join(checks))
        for line in checks:
            self.assertIn(": ok", line)
        for stamp in ("build_type: Release", "limb_kernel:", "cpu_model:",
                      "nproc:", "PSI_THREADS:", "workload:"):
            self.assertTrue(any(n.startswith(stamp) for n in notes), stamp)

    def test_end_to_end_counts_are_exact(self):
        for workload, (messages, rounds) in EXACT.items():
            with self.subTest(workload=workload):
                result, notes = run(workload, trace=0)
                self.assert_clean(result, notes)
                metrics = result["metrics"]
                self.assertEqual(list(metrics), declared("end_to_end"))
                self.assertEqual(metrics["wire_messages"]["value"], messages)
                self.assertEqual(metrics["rounds"]["value"], rounds)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                cold = [n for n in notes
                        if n.startswith("setup_s: median of cold processes ")]
                self.assertEqual(len(cold), 1, notes)
                samples = [float(v) for v in cold[0].split()[5:]]
                self.assertEqual(len(samples), 5)
                self.assertAlmostEqual(metrics["setup_s"]["value"],
                                       statistics.median(samples), places=3)
                if workload == "p4_remote":
                    self.assertIn("check socket_metering_equals_simulator: ok",
                                  "\n".join(notes))

    def test_traced_run_attributes_layers(self):
        for workload in EXACT:
            with self.subTest(workload=workload):
                result, notes = run(workload, trace=1)
                self.assert_clean(result, notes)
                joined = "\n".join(notes)
                self.assertIn("check round_spans_reconcile_within_5pct: ok",
                              joined)
                self.assertIn("check layer_counts_equal_traffic_report: ok",
                              joined)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(list(m), declared("per_layer"))
                self.assertEqual(m["net.frames"], EXACT[workload][0])
                self.assertGreater(m["round.1_ms"], 0)
                self.assertGreater(m["session.checkpoint_bytes"], 0)
                self.assertEqual(m["session.crypto_ops_recomputed"], 0)
                if workload == "p4_resume":
                    self.assertEqual(m["session.handshake_messages"], 12)
                    self.assertGreater(m["session.stages_resumed"], 0)
                    self.assertGreater(m["session.resume_ms"], 0)
                else:
                    self.assertEqual(m["session.handshake_messages"], 0)
                    self.assertEqual(m["session.resume_ms"], 0)
                if workload == "p4_remote":
                    self.assertEqual(m["transport.exec_calls"], 3)
                    self.assertEqual(m["transport.heartbeats"], 0)
                    self.assertGreater(m["transport.exec_call_ms"], 0)
                else:
                    self.assertEqual(m["transport.exec_calls"], 0)
                if workload == "p6_paper":
                    # pool.parallelism is left unchecked: on a shared VM it
                    # moved between 1.1 and 2.4 with the host's scheduling.
                    self.assertEqual(m["pool.threads"], 3)
                    self.assertGreater(m["pool.session_ms"], 0)
                    self.assertGreater(m["crypto.rsa_decrypt_us"], 0)
                    self.assertGreater(m["crypto.ciphertexts"], 0)
                    self.assertEqual(m["actionlog.counters_ms"], 0)
                else:
                    self.assertEqual(m["pool.threads"], 1)
                    self.assertGreater(m["actionlog.counters_ms"], 0)
                    self.assertGreater(m["wire.decode_us"], 0)

    def test_refuses_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "p4_paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
