#!/usr/bin/env python3
"""Self-test of tools/check_bench.py against the committed baselines.

  - every committed BENCH_<bench>.json passes its own gate;
  - every mutation in MUTATIONS (one edited or deleted counter, ratio
    side, context value or repetition count in the run or the baseline)
    fails the gate with a message naming the check it breaks;
  - a file stamped only with google-benchmark's library_build_type is
    rejected: the Release check trusts psi's own psi_build_type alone.

Run directly (python3 tools/check_bench_test.py) or through ctest.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)

import check_bench  # noqa: E402


def set_to(value):
    return lambda old: value


def times(factor):
    return lambda old: old * factor


DELETED = object()


def delete():
    return lambda old: DELETED


R, B = "run", "baseline"
NO_FAULT, RESUME, FULL = (check_bench.NO_FAULT, check_bench.RESUME,
                          check_bench.FULL)
SIM, SOCK, RECONNECT = (check_bench.SIM, check_bench.SOCK,
                        check_bench.RECONNECT)
LOCAL, HAIRPIN, REMOTE, DRESUME = (check_bench.LOCAL, check_bench.HAIRPIN,
                                   check_bench.REMOTE, check_bench.DRESUME)
CRT, POW = "BM_PaillierDecryptCrt/1024", "BM_MontgomeryPow/1024"
RSA512, RSA1024 = "BM_RsaDecryptBatch/512", "BM_RsaDecryptBatch/1024"

# (bench, edited file, row name or None for the context, key, edit,
#  the check the gate must name). Every case here but the recovery
# session-shape ones (stages_run, checkpoints_written, checkpoint_bytes),
# which those scripts never gated, also fails the five per-bench scripts
# this gate replaced.
MUTATIONS = [
    ("packing", R, None, "psi_build_type", set_to("debug"),
     "psi_build_type='debug'"),
    ("packing", R, "BM_PackedCounterDecrypt", "items_per_second",
     times(0.4), "packed decrypt speedup >= 8.0"),
    ("packing", R, "BM_HomomorphicSumPacked", "bits_per_counter",
     times(1.2), "packed bits-per-counter reduction >= 8.0"),
    ("packing", R, "BM_PackedCounterDecrypt", "items_per_second",
     times(0.6), "packed decrypt speedup >= baseline x 0.75"),

    ("bigint", R, None, "psi_build_type", set_to("debug"),
     "psi_build_type='debug'"),
    ("bigint", R, "BM_MontgomeryPowHeap/1024_median", "cpu_time",
     times(0.5), f"{POW} speedup >= 2.0"),
    ("bigint", R, "BM_PaillierDecryptCrtHeap/1024_median", "cpu_time",
     times(0.5), f"{CRT} speedup >= 2.0"),
    # The batch runs ~7-8x the loop, so the cut must be deep enough to
    # take the ratio under the 2x floor.
    ("bigint", R, "BM_RsaDecryptLoop/512_median", "cpu_time", times(0.1),
     f"{RSA512} speedup >= 2.0"),
    ("bigint", R, "BM_RsaDecryptLoop/1024_median", "cpu_time", times(0.1),
     f"{RSA1024} speedup >= 2.0"),
    ("bigint", B, "BM_MontgomeryPowHeap/1024_median", "cpu_time", times(2),
     f"{POW} speedup >= baseline x 0.75"),
    ("bigint", B, "BM_PaillierDecryptCrtHeap/1024_median", "cpu_time",
     times(2), f"{CRT} speedup >= baseline x 0.75"),
    ("bigint", B, "BM_RsaDecryptLoop/1024_median", "cpu_time", times(2),
     f"{RSA1024} speedup >= baseline x 0.75"),
    ("bigint", R, f"{CRT}_median", "repetitions", set_to(2),
     f"'{CRT}' has 2 repetition(s)"),
    ("bigint", B, f"{POW}_median", "repetitions", set_to(1),
     f"'{POW}' has 1 repetition(s)"),

    ("recovery", R, None, "psi_build_type", set_to("debug"),
     "psi_build_type='debug'"),
    *[("recovery", R, row, key, set_to(0), f"{row}.{key} == 1")
      for row in (NO_FAULT, RESUME, FULL)
      for key in ("ok", "result_matches_fault_free")],
    ("recovery", R, NO_FAULT, "attempts", set_to(2),
     f"{NO_FAULT}.attempts == 1"),
    *[("recovery", R, NO_FAULT, key, set_to(1), f"{NO_FAULT}.{key} == 0")
      for key in ("handshake_messages", "handshake_bytes", "backoff_rounds")],
    ("recovery", R, RESUME, "resumes", set_to(0), f"{RESUME}.resumes >= 1"),
    ("recovery", R, RESUME, "stages_resumed", set_to(0),
     f"{RESUME}.stages_resumed >= 1"),
    ("recovery", R, RESUME, "crypto_ops_recomputed", set_to(1),
     f"{RESUME}.crypto_ops_recomputed == 0"),
    ("recovery", R, RESUME, "crypto_ops_saved", set_to(0),
     f"{RESUME}.crypto_ops_saved >= 1"),
    ("recovery", R, FULL, "crypto_ops_saved", set_to(5),
     f"{FULL}.crypto_ops_saved == 0"),
    ("recovery", R, FULL, "crypto_ops_recomputed", set_to(0),
     f"{FULL}.crypto_ops_recomputed >= 1"),
    ("recovery", R, FULL, "crypto_ops_recomputed", times(2),
     f"{FULL}.crypto_ops_recomputed == {RESUME}.crypto_ops_saved"),
    ("recovery", R, RESUME, "handshake_messages", times(1.5),
     f"{RESUME}.handshake_messages <= baseline x 1.25"),
    ("recovery", R, RESUME, "handshake_bytes", times(1.5),
     f"{RESUME}.handshake_bytes <= baseline x 1.25"),
    ("recovery", R, RESUME, "crypto_ops_total", times(2),
     "resume saved-crypto fraction >= baseline x 0.75"),
    # Session shape: stage and checkpoint counts exact, no checkpoint growth.
    *[("recovery", R, row, key, edit, f"{row}.{key} == baseline")
      for row in (NO_FAULT, RESUME, FULL)
      for key in ("stages_run", "checkpoints_written")
      for edit in (times(2), set_to(1))],
    *[("recovery", R, row, "checkpoint_bytes", times(1.01),
       f"{row}.checkpoint_bytes <= baseline")
      for row in (NO_FAULT, RESUME, FULL)],

    ("transport", R, None, "psi_build_type", set_to("debug"),
     "psi_build_type='debug'"),
    *[("transport", R, row, "ok", set_to(0), f"{row}.ok == 1")
      for row in (SIM, SOCK, RECONNECT)],
    ("transport", R, SOCK, "metering_matches_simulator", set_to(0),
     f"{SOCK}.metering_matches_simulator == 1"),
    *[("transport", R, SOCK, key, times(2), f"{SOCK}.{key} == {SIM}.{key}")
      for key in ("wire_messages", "wire_bytes", "wire_payload_bytes")],
    ("transport", R, SOCK, "frames_relayed", set_to(0),
     f"{SOCK}.frames_relayed >= 1"),
    ("transport", R, SOCK, "frames_echoed", times(0.5),
     f"{SOCK}.frames_echoed == {SOCK}.frames_relayed"),
    ("transport", R, SOCK, "frames_hairpinned", times(0.5),
     f"{SOCK}.frames_hairpinned == {SOCK}.frames_relayed"),
    ("transport", R, SOCK, "daemon_protocol_violations", set_to(1),
     f"{SOCK}.daemon_protocol_violations == 0"),
    ("transport", R, SOCK, "relay_overhead_bytes", times(0.5),
     f"{SOCK}.relay_overhead_bytes == {check_bench.RELAY_MODEL}"),
    ("transport", R, RECONNECT, "dead_peers_detected", set_to(0),
     f"{RECONNECT}.dead_peers_detected >= 1"),
    ("transport", R, RECONNECT, "reconnects", set_to(2),
     f"{RECONNECT}.reconnects == 1"),
    ("transport", R, RECONNECT, "resumed_hellos", set_to(0),
     f"{RECONNECT}.resumed_hellos >= 1"),
    *[("transport", B, SOCK, key, times(0.5),
       f"{SOCK}.{key} <= baseline x 1.25")
      for key in ("wire_messages", "wire_bytes", "frames_relayed",
                  "relay_overhead_bytes")],
    ("transport", R, RECONNECT, "reconnect_attempts", set_to(2),
     f"{RECONNECT}.reconnect_attempts <= baseline"),

    ("dist", R, None, "psi_build_type", set_to("debug"),
     "psi_build_type='debug'"),
    ("dist", R, None, "providers", set_to(1), "context.providers >= 2"),
    ("dist", B, None, "providers", set_to(4), "context.providers == baseline"),
    *[("dist", R, row, "ok", set_to(0), f"{row}.ok == 1")
      for row in (LOCAL, HAIRPIN, REMOTE, DRESUME)],
    *[("dist", R, row, "outputs_match", set_to(0), f"{row}.outputs_match == 1")
      for row in (HAIRPIN, REMOTE, DRESUME)],
    *[("dist", R, row, "metering_matches_simulator", set_to(0),
       f"{row}.metering_matches_simulator == 1") for row in (HAIRPIN, REMOTE)],
    *[("dist", R, row, key, times(2), f"{row}.{key} == {LOCAL}.{key}")
      for row in (HAIRPIN, REMOTE) for key in ("wire_messages", "wire_bytes")],
    ("dist", R, REMOTE, "remote_stages", set_to(2),
     f"{REMOTE}.remote_stages == context.providers"),
    ("dist", R, REMOTE, "degraded_to_local", set_to(1),
     f"{REMOTE}.degraded_to_local == 0"),
    ("dist", R, REMOTE, "timeouts", set_to(1), f"{REMOTE}.timeouts == 0"),
    ("dist", R, REMOTE, "remote_crypto_ops", set_to(0),
     f"{REMOTE}.remote_crypto_ops >= 1"),
    ("dist", R, REMOTE, "remote_crypto_ops", times(2),
     f"{REMOTE}.remote_crypto_ops == {REMOTE}.daemon_crypto_ops"),
    ("dist", R, REMOTE, "exec_calls", set_to(0), f"{REMOTE}.exec_calls >= 1"),
    ("dist", R, DRESUME, "resumes", set_to(2), f"{DRESUME}.resumes == 1"),
    ("dist", R, DRESUME, "handshake_messages", times(0.5),
     f"{DRESUME}.handshake_messages == {DRESUME}.model_handshake_messages"),
    ("dist", R, DRESUME, "model_handshake_rounds", set_to(2),
     f"{DRESUME}.model_handshake_rounds == 1"),
    ("dist", R, DRESUME, "crypto_ops_recomputed", set_to(1),
     f"{DRESUME}.crypto_ops_recomputed == 0"),
    ("dist", R, DRESUME, "crypto_ops_saved", set_to(0),
     f"{DRESUME}.crypto_ops_saved >= 1"),
    ("dist", R, DRESUME, "dead_peers_detected", set_to(0),
     f"{DRESUME}.dead_peers_detected >= 1"),
    ("dist", R, DRESUME, "reconnects", set_to(2),
     f"{DRESUME}.reconnects == 1"),
    *[("dist", B, REMOTE, key, times(0.5),
       f"{REMOTE}.{key} <= baseline x 1.25")
      for key in ("wire_messages", "wire_bytes", "exec_calls")],
    *[("dist", R, REMOTE, key, times(1.5),
       f"{REMOTE}.{key} <= baseline x 1.25")
      for key in ("exec_bytes_tx", "exec_bytes_rx")],
    ("dist", B, DRESUME, "handshake_messages", times(0.5),
     f"{DRESUME}.handshake_messages <= baseline"),

    # A missing key fails, also one that is only named by another check.
    ("recovery", R, RESUME, "crypto_ops_saved", delete(),
     f"'{RESUME}' has no 'crypto_ops_saved'"),
    *[("transport", R, SIM, key, delete(),
       f"{SOCK}.{key} == {SIM}.{key}: {SIM}.{key} unreadable")
      for key in ("wire_messages", "wire_bytes", "wire_payload_bytes")],
    *[("dist", R, LOCAL, key, delete(),
       f"{HAIRPIN}.{key} == {LOCAL}.{key}: {LOCAL}.{key} unreadable")
      for key in ("wire_messages", "wire_bytes")],
    ("dist", R, REMOTE, "daemon_crypto_ops", delete(),
     f"{REMOTE}.remote_crypto_ops == {REMOTE}.daemon_crypto_ops: "
     f"{REMOTE}.daemon_crypto_ops unreadable"),
    ("dist", R, DRESUME, "model_handshake_messages", delete(),
     f"{DRESUME}.handshake_messages == {DRESUME}.model_handshake_messages: "
     f"{DRESUME}.model_handshake_messages unreadable"),
]


def baseline_path(bench):
    return os.path.join(ROOT, f"BENCH_{bench}.json")


def write_mutated(case, tmpdir):
    """Writes the case's edited file; returns (baseline path, run path)."""
    bench, target, row, key, edit, _ = case
    with open(baseline_path(bench)) as f:
        data = json.load(f)
    if row is None:
        entry = data["context"]
    else:
        matches = [r for r in data["benchmarks"] if r["name"] == row]
        assert len(matches) == 1, f"{bench}: no single row '{row}'"
        entry = matches[0]
    assert key in entry, f"{bench}: '{row}' has no '{key}'"
    entry[key] = edit(entry[key])
    if entry[key] is DELETED:
        del entry[key]
    path = os.path.join(tmpdir, f"{target}.json")
    with open(path, "w") as f:
        json.dump(data, f)
    if target == R:
        return baseline_path(bench), path
    return path, baseline_path(bench)


def run_gate(bench, baseline, run):
    """(exit status, combined output) of check_bench.py in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = check_bench.main([bench, "--baseline", baseline,
                                   "--run", run])
    return status, out.getvalue()


class CheckBenchTest(unittest.TestCase):

    def test_committed_baselines_pass(self):
        for bench in check_bench.SPECS:
            with self.subTest(bench=bench):
                path = baseline_path(bench)
                status, output = run_gate(bench, path, path)
                self.assertEqual(status, 0, output)

    def test_every_mutation_fails_naming_its_check(self):
        for case in MUTATIONS:
            with self.subTest(case=case[:4]), \
                    tempfile.TemporaryDirectory() as tmp:
                status, output = run_gate(case[0], *write_mutated(case, tmp))
                self.assertEqual(status, 1, output)
                fails = [line for line in output.splitlines()
                         if line.startswith("FAIL: ")]
                self.assertTrue(any(case[5] in line for line in fails),
                                output)

    def test_library_build_type_alone_is_rejected(self):
        for bench in check_bench.SPECS:
            with self.subTest(bench=bench), \
                    tempfile.TemporaryDirectory() as tmp:
                with open(baseline_path(bench)) as f:
                    data = json.load(f)
                del data["context"]["psi_build_type"]
                data["context"]["library_build_type"] = "release"
                run = os.path.join(tmp, "run.json")
                with open(run, "w") as f:
                    json.dump(data, f)
                status, output = run_gate(bench, baseline_path(bench), run)
                self.assertEqual(status, 1, output)
                self.assertIn(f"FAIL: {run} is stamped psi_build_type=None",
                              output)

    def test_metric_references_name_earlier_metrics(self):
        for bench, spec in check_bench.SPECS.items():
            seen = set()
            for m in spec["metrics"]:
                for _, rhs in m.same:
                    if isinstance(rhs, str):
                        self.assertIn(rhs, seen, f"{bench}: {m.name}")
                self.assertNotIn(m.name, seen, f"{bench}: duplicate")
                seen.add(m.name)


if __name__ == "__main__":
    unittest.main()
