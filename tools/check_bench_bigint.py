#!/usr/bin/env python3
"""Bench regression gate for the fixed-width big-integer engine.

Validates a fresh bench_bigint JSON run against the committed baseline
(BENCH_bigint.json):

  1. Build-type sanity: both JSONs must come from a Release build of the
     psi libraries (context key `psi_build_type`, falling back to the
     google-benchmark `library_build_type` for pre-engine files). Debug
     numbers gate nothing and are rejected loudly.
  2. Absolute floors (machine independent because both sides of each
     ratio come from the same run):
       - BM_MontgomeryPow/1024 at least 2x faster than its *Heap twin;
       - BM_PaillierDecryptCrt/1024 at least 2x faster than its *Heap twin;
       - BM_RsaDecryptBatch/512 and /1024 at least 2x faster per ciphertext
         than the BM_RsaDecryptLoop twin, but only when the run's kernel
         stamp (context key `psi_limb_kernel`) names the IFMA batch kernel.
         On other CPUs the batch path is the per-ciphertext loop, so the
         pair is reported, not gated.
  3. Regression guard: no gated ratio may fall more than 25% below the
     committed baseline's ratio (the IFMA pairs only when the baseline was
     recorded with the IFMA kernel too).

Every ratio is taken between google-benchmark's `median` aggregates of
repeated runs, so one slow repetition on a shared vCPU cannot fail the gate
on its own: each gated benchmark needs a median over at least
MIN_REPETITIONS repetitions in both files.

The whole-protocol BM_Protocol4EndToEnd / BM_Protocol6EndToEnd deltas are
printed for the record but not gated: the protocol benches spend most of
their time outside modular exponentiation, so their engine-vs-heap ratio is
small and noisy on shared CI runners.

Usage: check_bench_bigint.py --baseline BENCH_bigint.json --run fresh.json
Record a run with:
  bench_bigint --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
      --benchmark_enable_random_interleaving=true --benchmark_out=fresh.json
"""

import argparse
import json
import sys

GATED_PAIRS = [
    ("BM_MontgomeryPow/1024", "BM_MontgomeryPowHeap/1024"),
    ("BM_PaillierDecryptCrt/1024", "BM_PaillierDecryptCrtHeap/1024"),
]
# Batched RSA-CRT vs per-ciphertext RsaDecrypt over the same ciphertexts;
# gated only on runs whose kernel stamp names the IFMA batch kernel.
IFMA_PAIRS = [
    ("BM_RsaDecryptBatch/512", "BM_RsaDecryptLoop/512"),
    ("BM_RsaDecryptBatch/1024", "BM_RsaDecryptLoop/1024"),
]
IFMA_KERNEL = "x86-adx+ifma"
REPORTED_PAIRS = [
    ("BM_MontgomeryPow/512", "BM_MontgomeryPowHeap/512"),
    ("BM_MontgomeryPow/2048", "BM_MontgomeryPowHeap/2048"),
    ("BM_PaillierDecryptCrt/512", "BM_PaillierDecryptCrtHeap/512"),
    ("BM_PaillierEncrypt/1024", "BM_PaillierEncryptHeap/1024"),
    ("BM_Protocol4EndToEnd", "BM_Protocol4EndToEndHeap"),
    ("BM_Protocol6EndToEnd", "BM_Protocol6EndToEndHeap"),
]

MIN_SPEEDUP = 2.0
MAX_REGRESSION = 0.25
MIN_REPETITIONS = 3


def require_release_build(data, label):
    """Fails loudly unless the JSON was produced by a Release build."""
    context = data.get("context", {})
    build = context.get("psi_build_type", context.get("library_build_type"))
    if build is None:
        raise SystemExit(
            f"FAIL: {label} carries no psi_build_type/library_build_type "
            "context; re-record it with a current Release bench binary"
        )
    if build != "release":
        raise SystemExit(
            f"FAIL: {label} was recorded from a '{build}' build; bench "
            "gates only accept Release numbers (cmake "
            "-DCMAKE_BUILD_TYPE=Release)"
        )


def medians(benchmarks):
    """{run name: (median cpu_time, repetitions)} of a bench JSON."""
    return {bench["run_name"]: (bench.get("cpu_time"), bench["repetitions"])
            for bench in benchmarks
            if bench.get("aggregate_name") == "median"}


def load(path, label):
    """Returns ({name: (median cpu_time, repetitions)}, limb-kernel stamp)
    of a Release bench JSON."""
    with open(path) as f:
        data = json.load(f)
    require_release_build(data, label)
    kernel = data.get("context", {}).get("psi_limb_kernel")
    return medians(data.get("benchmarks", [])), kernel


def cpu_time(benches, name, label):
    if name not in benches:
        raise SystemExit(
            f"FAIL: benchmark '{name}' has no median aggregate in {label}; "
            "record with --benchmark_repetitions=5")
    value, repetitions = benches[name]
    if value is None or value <= 0:
        raise SystemExit(f"FAIL: benchmark '{name}' has no positive cpu_time "
                         f"in {label}")
    if repetitions < MIN_REPETITIONS:
        raise SystemExit(
            f"FAIL: benchmark '{name}' has {repetitions} repetition(s) in "
            f"{label}; the gate compares medians of at least "
            f"{MIN_REPETITIONS} (--benchmark_repetitions)")
    return float(value)


def speedup(benches, engine_name, heap_name, label):
    """Slow-twin median time / fast median time from the same file."""
    return (cpu_time(benches, heap_name, label) /
            cpu_time(benches, engine_name, label))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--run", required=True)
    args = parser.parse_args()

    baseline, baseline_kernel = load(args.baseline, f"baseline {args.baseline}")
    fresh, fresh_kernel = load(args.run, f"run {args.run}")

    # (pair, compare against the baseline ratio too)
    gated = [(pair, True) for pair in GATED_PAIRS]
    if fresh_kernel == IFMA_KERNEL:
        gated += [(pair, baseline_kernel == IFMA_KERNEL) for pair in IFMA_PAIRS]
    else:
        print(f"limb kernel '{fresh_kernel}' has no IFMA batch kernel: "
              "BM_RsaDecryptBatch pairs reported, not gated")

    failures = []
    for (engine_name, heap_name), vs_baseline in gated:
        fresh_ratio = speedup(fresh, engine_name, heap_name, args.run)
        line = f"{engine_name}: {fresh_ratio:.2f}x over {heap_name}"
        if fresh_ratio < MIN_SPEEDUP:
            failures.append(
                f"{engine_name} speedup {fresh_ratio:.2f}x < required "
                f"{MIN_SPEEDUP}x"
            )
        if vs_baseline:
            base_ratio = speedup(baseline, engine_name, heap_name,
                                 args.baseline)
            floor = base_ratio * (1.0 - MAX_REGRESSION)
            line += (f" (baseline {base_ratio:.2f}x, regression floor "
                     f"{floor:.2f}x)")
            if fresh_ratio < floor:
                failures.append(
                    f"{engine_name} regressed: {fresh_ratio:.2f}x vs baseline "
                    f"{base_ratio:.2f}x (> {MAX_REGRESSION:.0%} drop)"
                )
        print(line)

    reported = REPORTED_PAIRS
    if fresh_kernel != IFMA_KERNEL:
        reported = reported + IFMA_PAIRS
    for engine_name, heap_name in reported:
        if engine_name in fresh and heap_name in fresh:
            print(
                f"{engine_name}: "
                f"{speedup(fresh, engine_name, heap_name, args.run):.2f}x "
                f"over {heap_name} (reported, not gated)"
            )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK: bigint bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
