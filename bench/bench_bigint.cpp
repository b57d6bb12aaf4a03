// Fixed-width limb engine benches: every pair BM_Foo / BM_FooHeap measures
// the same operation with the engine attached vs forced onto the heap
// BigUInt path (ScopedHeapOnlyModPow / EngineMode::kHeapOnly) in the same
// run, so `tools/check_bench.py bigint` can gate on machine-independent
// same-run ratios. BM_RsaDecryptBatch / BM_RsaDecryptLoop pair the batched
// RSA-CRT path with per-ciphertext calls the same way; RsaDecrypt is itself
// a batch of one, so the pair measures what eight lanes per kernel walk buy
// over one. BENCH_bigint.json is the committed baseline.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"

namespace psi {
namespace {

// ------------------------------------------------------- Montgomery Pow --

BigUInt BenchModulus(Rng* rng, size_t bits) {
  BigUInt m = BigUInt::RandomBits(rng, bits);
  m.SetBit(bits - 1);  // Exactly bits/64 limbs: the engine widths.
  m.SetBit(0);
  return m;
}

void RunMontgomeryPow(benchmark::State& state, EngineMode mode) {
  Rng rng(36);
  const auto bits = static_cast<size_t>(state.range(0));
  BigUInt m = BenchModulus(&rng, bits);
  auto ctx = MontgomeryContext::Create(m, mode).ValueOrDie();
  PSI_CHECK((ctx.fixed_engine() != nullptr) == (mode == EngineMode::kAuto));
  BigUInt base = BigUInt::RandomBelow(&rng, m);
  BigUInt exp = BigUInt::RandomBits(&rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Pow(base, exp));
  }
}

void BM_MontgomeryPow(benchmark::State& state) {
  RunMontgomeryPow(state, EngineMode::kAuto);
}
BENCHMARK(BM_MontgomeryPow)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MontgomeryPowHeap(benchmark::State& state) {
  RunMontgomeryPow(state, EngineMode::kHeapOnly);
}
BENCHMARK(BM_MontgomeryPowHeap)->Arg(512)->Arg(1024)->Arg(2048);

// -------------------------------------------------------------- Paillier --

// Arg is the Paillier key size; the CRT decrypt works over p^2/q^2 of the
// same bit count, so Arg(1024) exercises the 16-limb engine geometry the
// acceptance gate names.
void RunPaillierDecryptCrt(benchmark::State& state, bool heap_only) {
  Rng rng(8);
  auto kp =
      PaillierGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  BigUInt c =
      PaillierEncrypt(kp.public_key, BigUInt(123456789), &rng).ValueOrDie();
  if (heap_only) {
    ScopedHeapOnlyModPow guard;
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
    }
  }
}

void BM_PaillierDecryptCrt(benchmark::State& state) {
  RunPaillierDecryptCrt(state, /*heap_only=*/false);
}
BENCHMARK(BM_PaillierDecryptCrt)->Arg(512)->Arg(1024);

void BM_PaillierDecryptCrtHeap(benchmark::State& state) {
  RunPaillierDecryptCrt(state, /*heap_only=*/true);
}
BENCHMARK(BM_PaillierDecryptCrtHeap)->Arg(512)->Arg(1024);

void RunPaillierEncrypt(benchmark::State& state, bool heap_only) {
  Rng rng(8);
  auto kp =
      PaillierGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
          .ValueOrDie();
  BigUInt m(123456789);
  if (heap_only) {
    ScopedHeapOnlyModPow guard;
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie());
    }
  }
}

void BM_PaillierEncrypt(benchmark::State& state) {
  RunPaillierEncrypt(state, /*heap_only=*/false);
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024);

void BM_PaillierEncryptHeap(benchmark::State& state) {
  RunPaillierEncrypt(state, /*heap_only=*/true);
}
BENCHMARK(BM_PaillierEncryptHeap)->Arg(512)->Arg(1024);

// --------------------------------------------------------------- RSA-CRT --

// Arg is the RSA modulus size z; the CRT halves are z/2 bits, the 4- and
// 8-limb widths the IFMA batch kernel serves. Each iteration decrypts the
// same 64 ciphertexts, either with one RsaDecryptBatch call or with 64
// RsaDecrypt calls (each a batch of one), so the pair's time ratio is the
// per-ciphertext gain of filling the kernel's lanes.
// The pool is pinned to one thread: the ratio measures the kernel, not
// the fan-out (and cpu_time sees only the calling thread).
constexpr size_t kRsaBenchCiphertexts = 64;

void RunRsaDecrypt(benchmark::State& state, bool batch) {
  Rng rng(12);
  auto kp = RsaGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
                .ValueOrDie();
  std::vector<BigUInt> cts;
  for (size_t i = 0; i < kRsaBenchCiphertexts; ++i) {
    cts.push_back(BigUInt::RandomBelow(&rng, kp.public_key.n));
  }
  const size_t threads = ThreadPool::Global().num_threads();
  ThreadPool::Global().SetNumThreads(1);
  for (auto _ : state) {
    if (batch) {
      benchmark::DoNotOptimize(
          RsaDecryptBatch(kp.private_key, cts).ValueOrDie());
    } else {
      for (const BigUInt& c : cts) {
        benchmark::DoNotOptimize(RsaDecrypt(kp.private_key, c).ValueOrDie());
      }
    }
  }
  ThreadPool::Global().SetNumThreads(threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRsaBenchCiphertexts));
}

void BM_RsaDecryptBatch(benchmark::State& state) {
  RunRsaDecrypt(state, /*batch=*/true);
}
BENCHMARK(BM_RsaDecryptBatch)->Arg(512)->Arg(1024);

void BM_RsaDecryptLoop(benchmark::State& state) {
  RunRsaDecrypt(state, /*batch=*/false);
}
BENCHMARK(BM_RsaDecryptLoop)->Arg(512)->Arg(1024);

// ------------------------------------------------------------ end-to-end --

// Whole-protocol deltas: everything below the drivers (Paillier, RSA,
// masked shares, metered network) rides the engine automatically, so these
// two pairs measure what the limb engine buys a full P4 / P6 run.

void RunProtocol4(benchmark::State& state, bool heap_only) {
  const size_t n = 100;
  Rng rng(9);
  auto graph = ErdosRenyiArcs(&rng, n, 5 * n).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.3);
  CascadeParams params;
  params.num_actions = 50;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto logs = ExclusivePartition(&rng, log, 3).ValueOrDie();
  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Rng r1(1), r2(2), r3(3), hr(4), secret(5);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  Protocol4Config cfg;
  std::unique_ptr<ScopedHeapOnlyModPow> guard;
  if (heap_only) guard = std::make_unique<ScopedHeapOnlyModPow>();
  for (auto _ : state) {
    LinkInfluenceProtocol proto(&net, host, providers, cfg);
    benchmark::DoNotOptimize(
        proto.Run(graph, 50, logs, &hr, rngs, &secret).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_arcs()));
}

void BM_Protocol4EndToEnd(benchmark::State& state) {
  RunProtocol4(state, /*heap_only=*/false);
}
BENCHMARK(BM_Protocol4EndToEnd)->Unit(benchmark::kMillisecond);

void BM_Protocol4EndToEndHeap(benchmark::State& state) {
  RunProtocol4(state, /*heap_only=*/true);
}
BENCHMARK(BM_Protocol4EndToEndHeap)->Unit(benchmark::kMillisecond);

void RunProtocol6(benchmark::State& state, bool heap_only) {
  auto world = bench::MakeWorld(/*num_providers=*/3, /*num_users=*/50,
                                /*num_arcs=*/160, /*num_actions=*/20,
                                /*seed=*/97);
  bench::World& w = *world;
  Protocol6Config cfg;
  cfg.rsa_bits = 512;
  cfg.obfuscation_factor = 2.0;
  std::unique_ptr<ScopedHeapOnlyModPow> guard;
  if (heap_only) guard = std::make_unique<ScopedHeapOnlyModPow>();
  for (auto _ : state) {
    PropagationGraphProtocol proto(&w.net, w.host, w.providers, cfg);
    benchmark::DoNotOptimize(proto.Run(*w.graph, 20, w.provider_logs,
                                       w.host_rng.get(), w.RngPtrs())
                                 .ValueOrDie());
  }
}

void BM_Protocol6EndToEnd(benchmark::State& state) {
  RunProtocol6(state, /*heap_only=*/false);
}
BENCHMARK(BM_Protocol6EndToEnd)->Unit(benchmark::kMillisecond);

void BM_Protocol6EndToEndHeap(benchmark::State& state) {
  RunProtocol6(state, /*heap_only=*/true);
}
BENCHMARK(BM_Protocol6EndToEndHeap)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psi

PSI_BENCHMARK_MAIN();
