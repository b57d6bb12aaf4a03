#!/usr/bin/env python3
"""Bench gate: checks a fresh bench JSON run against its committed baseline.

Usage: check_bench.py <bench> --baseline BENCH_<bench>.json --run fresh.json

<bench> is one of packing, bigint, recovery, transport or dist. Each has a
spec table below: a list of named metrics, each read from one run as
  - a counter:  one key of one row;
  - a ratio:    one (row, key) over another, both from the same run;
  - a context value of the run;
  - any other formula over the run, such as a cost model.
A metric carries its bounds: same-run bounds (`== k`, `>= k`, or `==`
another metric of the same run) and at most one bound against the same
metric read from the baseline (growth cap, no growth, drop floor, or
unchanged). A metric with no bound is printed for the record only, but a
bound that names it fails when it cannot be read.

Both files must carry the psi_build_type == "release" stamp that the psi
bench binaries write; google-benchmark's own library_build_type describes
how libbenchmark was built, not psi, so it is never accepted in its place.
When a file holds repeated runs, every row is read from google-benchmark's
median aggregate; a spec with min_repetitions also refuses medians over
fewer repetitions.

Exit status 0 when every bound holds, 1 otherwise (each failure names the
check it broke).
"""

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

MAX_REGRESSION = 0.25

# Baseline bounds: the check text and whether (fresh, base) passes.
GROW_CAP = (f"<= baseline x {1 + MAX_REGRESSION}",
            lambda fresh, base: fresh <= base * (1 + MAX_REGRESSION))
NO_GROWTH = ("<= baseline", lambda fresh, base: fresh <= base)
DROP_FLOOR = (f">= baseline x {1 - MAX_REGRESSION}",
              lambda fresh, base: fresh >= base * (1 - MAX_REGRESSION))
UNCHANGED = ("== baseline", lambda fresh, base: fresh == base)

IFMA_KERNEL = "x86-adx+ifma"


class GateError(Exception):
    """A value the spec needs is missing or malformed."""


class BenchRun:
    """One Release-stamped bench JSON, rows indexed by name."""

    def __init__(self, path, min_repetitions=0):
        self.path = path
        with open(path) as f:
            data = json.load(f)
        self.context = data.get("context", {})
        build = self.context.get("psi_build_type")
        if build != "release":
            raise GateError(
                f"{path} is stamped psi_build_type={build!r}; bench gates "
                "only accept files written by a Release build of the psi "
                "bench binaries (cmake -DCMAKE_BUILD_TYPE=Release)")
        rows = data.get("benchmarks", [])
        medians = [r for r in rows if r.get("aggregate_name") == "median"]
        if medians:
            self.rows = {r["run_name"]: r for r in medians}
        else:
            self.rows = {r["name"]: r for r in rows}
        self.min_repetitions = min_repetitions
        self.kernel = self.context.get("psi_limb_kernel")

    def value(self, row, key):
        if row not in self.rows:
            raise GateError(f"benchmark '{row}' missing from {self.path}")
        reps = self.rows[row].get("repetitions", 1)
        if reps < self.min_repetitions:
            raise GateError(
                f"benchmark '{row}' has {reps} repetition(s) in {self.path}; "
                f"the gate compares medians of at least "
                f"{self.min_repetitions} (--benchmark_repetitions)")
        value = self.rows[row].get(key)
        if value is None:
            raise GateError(f"benchmark '{row}' has no '{key}' in {self.path}")
        return value

    def context_value(self, key):
        if key not in self.context:
            raise GateError(f"{self.path} context has no '{key}'")
        return int(self.context[key])


@dataclass
class Metric:
    name: str
    read: Callable[[BenchRun], float]
    same: tuple = ()   # ((op, number or metric name), ...)
    base: tuple = None  # one of GROW_CAP, NO_GROWTH, DROP_FLOOR, UNCHANGED
    ifma: bool = False  # gated only on runs stamped with the IFMA kernel


def counter(row, key, *same, base=None):
    return Metric(f"{row}.{key}", lambda b: int(b.value(row, key)), same,
                  base)


def ratio(name, num, den, *same, base=None, ifma=False):
    """num / den, each a (row, key) pair of the same run."""
    def read(b):
        bottom = b.value(*den)
        if bottom <= 0:
            raise GateError(f"benchmark '{den[0]}' has no positive "
                            f"'{den[1]}' in {b.path}")
        return b.value(*num) / bottom
    return Metric(name, read, same, base, ifma)


def context(key, *same, base=None):
    return Metric(f"context.{key}", lambda b: b.context_value(key), same,
                  base)


def speedup(fast, slow, *same, base=None, ifma=False):
    """How many times faster `fast` runs than `slow` (median cpu_time)."""
    return ratio(f"{fast} speedup", (slow, "cpu_time"), (fast, "cpu_time"),
                 *same, base=base, ifma=ifma)


# --- packing: ciphertext packing on the Paillier hot path (bench_micro) ---
MIN_RATIO = 8.0
PACKING = dict(metrics=[
    ratio("packed decrypt speedup",
          ("BM_PackedCounterDecrypt", "items_per_second"),
          ("BM_PaillierDecrypt", "items_per_second"),
          (">=", MIN_RATIO), base=DROP_FLOOR),
    ratio("packed bits-per-counter reduction",
          ("BM_HomomorphicSumUnpacked", "bits_per_counter"),
          ("BM_HomomorphicSumPacked", "bits_per_counter"),
          (">=", MIN_RATIO)),
])

# --- bigint: the fixed-width limb engine against its heap twins ----------
# Medians of interleaved repetitions, so one slow repetition on a shared
# vCPU cannot fail the gate on its own.
MIN_SPEEDUP = 2.0
MIN_REPETITIONS = 3
BIGINT = dict(min_repetitions=MIN_REPETITIONS, metrics=[
    speedup("BM_MontgomeryPow/1024", "BM_MontgomeryPowHeap/1024",
            (">=", MIN_SPEEDUP), base=DROP_FLOOR),
    speedup("BM_PaillierDecryptCrt/1024", "BM_PaillierDecryptCrtHeap/1024",
            (">=", MIN_SPEEDUP), base=DROP_FLOOR),
    # Batched RSA-CRT vs per-ciphertext decryption of the same ciphertexts.
    # Without the IFMA kernel the batch path is that loop, so it is gated
    # only on IFMA runs, and against the baseline only if it was IFMA too.
    speedup("BM_RsaDecryptBatch/512", "BM_RsaDecryptLoop/512",
            (">=", MIN_SPEEDUP), base=DROP_FLOOR, ifma=True),
    speedup("BM_RsaDecryptBatch/1024", "BM_RsaDecryptLoop/1024",
            (">=", MIN_SPEEDUP), base=DROP_FLOOR, ifma=True),
    speedup("BM_MontgomeryPow/512", "BM_MontgomeryPowHeap/512"),
    speedup("BM_MontgomeryPow/2048", "BM_MontgomeryPowHeap/2048"),
    speedup("BM_PaillierDecryptCrt/512", "BM_PaillierDecryptCrtHeap/512"),
    speedup("BM_PaillierEncrypt/1024", "BM_PaillierEncryptHeap/1024"),
])

# --- recovery: checkpointed sessions under a crash-restart ---------------
NO_FAULT = "recovery/no_fault"
RESUME = "recovery/stage_resume"
FULL = "recovery/full_restart"
RECOVERY = dict(metrics=[
    *[counter(row, key, ("==", 1)) for row in (NO_FAULT, RESUME, FULL)
      for key in ("ok", "result_matches_fault_free")],
    # The fault-free control is wire-invisible.
    counter(NO_FAULT, "attempts", ("==", 1)),
    counter(NO_FAULT, "handshake_messages", ("==", 0)),
    counter(NO_FAULT, "handshake_bytes", ("==", 0)),
    counter(NO_FAULT, "backoff_rounds", ("==", 0)),
    # Stage resume skips completed stages and never redoes their crypto.
    counter(RESUME, "resumes", (">=", 1)),
    counter(RESUME, "stages_resumed", (">=", 1)),
    counter(RESUME, "crypto_ops_recomputed", ("==", 0)),
    counter(RESUME, "crypto_ops_saved", (">=", 1)),
    counter(RESUME, "handshake_messages", base=GROW_CAP),
    counter(RESUME, "handshake_bytes", base=GROW_CAP),
    ratio("resume saved-crypto fraction", (RESUME, "crypto_ops_saved"),
          (RESUME, "crypto_ops_total"), base=DROP_FLOOR),
    # The full-restart ablation redoes exactly the work resume saved.
    counter(FULL, "crypto_ops_saved", ("==", 0)),
    counter(FULL, "crypto_ops_recomputed", (">=", 1),
            ("==", f"{RESUME}.crypto_ops_saved")),
    # Each row's stage and checkpoint counts are exact for the seed, and its
    # checkpoints may not grow.
    *[counter(row, key, base=UNCHANGED) for row in (NO_FAULT, RESUME, FULL)
      for key in ("stages_run", "checkpoints_written")],
    *[counter(row, "checkpoint_bytes", base=NO_GROWTH)
      for row in (NO_FAULT, RESUME, FULL)],
])

# --- transport: socket backend against the simulator ---------------------
SIM = "transport/simulator_roundtrip"
SOCK = "transport/socket_roundtrip"
RECONNECT = "transport/reconnect_resume"
# Each relayed frame is framed twice (client -> daemon, echo back): a
# 12-byte transport header plus the 8-byte from/to prefix each way
# (docs/TRANSPORT.md).
RELAY_OVERHEAD_PER_FRAME = 2 * (12 + 8)
RELAY_MODEL = "relay overhead model: frames_relayed * 2 * (12 + 8)"
TRANSPORT = dict(metrics=[
    *[counter(row, "ok", ("==", 1)) for row in (SIM, SOCK, RECONNECT)],
    counter(SOCK, "metering_matches_simulator", ("==", 1)),
    *[counter(SIM, key) for key in
      ("wire_messages", "wire_bytes", "wire_payload_bytes")],
    counter(SOCK, "wire_messages", ("==", f"{SIM}.wire_messages"),
            base=GROW_CAP),
    counter(SOCK, "wire_bytes", ("==", f"{SIM}.wire_bytes"), base=GROW_CAP),
    counter(SOCK, "wire_payload_bytes", ("==", f"{SIM}.wire_payload_bytes")),
    counter(SOCK, "frames_relayed", (">=", 1), base=GROW_CAP),
    counter(SOCK, "frames_echoed", ("==", f"{SOCK}.frames_relayed")),
    counter(SOCK, "frames_hairpinned", ("==", f"{SOCK}.frames_relayed")),
    counter(SOCK, "daemon_protocol_violations", ("==", 0)),
    Metric(RELAY_MODEL, lambda b: int(b.value(SOCK, "frames_relayed")) *
           RELAY_OVERHEAD_PER_FRAME),
    counter(SOCK, "relay_overhead_bytes", ("==", RELAY_MODEL),
            base=GROW_CAP),
    counter(RECONNECT, "dead_peers_detected", (">=", 1)),
    counter(RECONNECT, "reconnects", ("==", 1)),
    counter(RECONNECT, "resumed_hellos", (">=", 1)),
    # Reconnecting to a listening daemon stays a first-dial success.
    counter(RECONNECT, "reconnect_attempts", base=NO_GROWTH),
])

# --- dist: remote stage execution through psid ---------------------------
LOCAL = "dist/local_session"
HAIRPIN = "dist/hairpin_session"
REMOTE = "dist/remote_session"
DRESUME = "dist/remote_resume"
DIST = dict(metrics=[
    context("providers", (">=", 2), base=UNCHANGED),
    *[counter(row, "ok", ("==", 1)) for row in
      (LOCAL, HAIRPIN, REMOTE, DRESUME)],
    *[counter(row, "outputs_match", ("==", 1)) for row in
      (HAIRPIN, REMOTE, DRESUME)],
    # Exec traffic is transport overhead, never protocol metering.
    counter(LOCAL, "wire_messages"),
    counter(LOCAL, "wire_bytes"),
    counter(HAIRPIN, "metering_matches_simulator", ("==", 1)),
    counter(HAIRPIN, "wire_messages", ("==", f"{LOCAL}.wire_messages")),
    counter(HAIRPIN, "wire_bytes", ("==", f"{LOCAL}.wire_bytes")),
    counter(REMOTE, "metering_matches_simulator", ("==", 1)),
    counter(REMOTE, "wire_messages", ("==", f"{LOCAL}.wire_messages"),
            base=GROW_CAP),
    counter(REMOTE, "wire_bytes", ("==", f"{LOCAL}.wire_bytes"),
            base=GROW_CAP),
    # Every provider stage ran on the daemon, cleanly.
    counter(REMOTE, "remote_stages", ("==", "context.providers")),
    counter(REMOTE, "degraded_to_local", ("==", 0)),
    counter(REMOTE, "timeouts", ("==", 0)),
    counter(REMOTE, "daemon_crypto_ops"),
    counter(REMOTE, "remote_crypto_ops", (">=", 1),
            ("==", f"{REMOTE}.daemon_crypto_ops")),
    counter(REMOTE, "exec_calls", (">=", 1), base=GROW_CAP),
    counter(REMOTE, "exec_bytes_tx", base=GROW_CAP),
    counter(REMOTE, "exec_bytes_rx", base=GROW_CAP),
    # Losing the daemon costs one resume handshake round, priced by
    # SessionResumeCosts at P*(P-1) messages, and redoes no crypto.
    counter(DRESUME, "resumes", ("==", 1)),
    counter(DRESUME, "model_handshake_messages"),
    counter(DRESUME, "handshake_messages",
            ("==", f"{DRESUME}.model_handshake_messages"), base=NO_GROWTH),
    counter(DRESUME, "model_handshake_rounds", ("==", 1)),
    counter(DRESUME, "crypto_ops_recomputed", ("==", 0)),
    counter(DRESUME, "crypto_ops_saved", (">=", 1)),
    counter(DRESUME, "dead_peers_detected", (">=", 1)),
    counter(DRESUME, "reconnects", ("==", 1)),
])

SPECS = {"packing": PACKING, "bigint": BIGINT, "recovery": RECOVERY,
         "transport": TRANSPORT, "dist": DIST}


def fmt(value):
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def check(spec, baseline_path, run_path):
    """Returns the failures of the run at `run_path` against the spec."""
    reps = spec.get("min_repetitions", 0)
    try:
        run = BenchRun(run_path, reps)
        base = BenchRun(baseline_path, reps)
    except GateError as e:
        return [str(e)]
    failures = []
    fresh = {}
    for m in spec["metrics"]:
        gated = ((m.same or m.base) and
                 not (m.ifma and run.kernel != IFMA_KERNEL))
        try:
            fresh[m.name] = value = m.read(run)
        except GateError as e:
            if gated:
                failures.append(str(e))
            continue
        if not gated:
            print(f"{m.name}: {fmt(value)} (reported, not gated)")
            continue
        notes = []
        for op, rhs in m.same:
            # A metric names only metrics listed above it in its spec.
            bound = fresh.get(rhs) if isinstance(rhs, str) else rhs
            if bound is None:
                failures.append(f"{m.name} {op} {rhs}: {rhs} unreadable")
                continue
            notes.append(f"{op} {fmt(bound)}")
            if not (value == bound if op == "==" else value >= bound):
                failures.append(f"{m.name} {op} {rhs}: got {fmt(value)}")
        if m.base and not (m.ifma and base.kernel != IFMA_KERNEL):
            text, holds = m.base
            try:
                base_value = m.read(base)
            except GateError as e:
                failures.append(str(e))
                continue
            notes.append(f"{text}, baseline {fmt(base_value)}")
            if not holds(value, base_value):
                failures.append(f"{m.name} {text}: got {fmt(value)}, "
                                f"baseline {fmt(base_value)}")
        print(f"{m.name}: {fmt(value)} ({'; '.join(notes)})")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Checks a bench JSON run against its committed baseline.")
    parser.add_argument("bench", choices=sorted(SPECS))
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--run", required=True)
    args = parser.parse_args(argv)

    failures = check(SPECS[args.bench], args.baseline, args.run)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {args.bench} bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
