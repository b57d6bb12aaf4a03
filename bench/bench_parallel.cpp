// Parallel-engine benchmarks: ParallelFor dispatch overhead, thread-count
// scaling of the batched Paillier paths, and the parallelized protocol and
// EM hot loops. Emit the committed baseline with:
//
//   ./bench/bench_parallel --benchmark_out=BENCH_parallel.json
//       --benchmark_out_format=json  (both flags on one command line)
//
// Benchmarks take the thread count as the trailing benchmark argument and
// set it on the global pool, so one run sweeps the scaling curve. Results
// (ciphertexts, shares, probabilities) are bit-identical across thread
// counts by construction — the sweep shows wall-clock only.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench_main.h"

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "common/thread_pool.h"
#include "crypto/paillier.h"
#include "graph/generators.h"
#include "influence/em_learner.h"
#include "mpc/homomorphic_sum.h"

namespace psi {
namespace {

// Thread counts to sweep. On a single-core container the >1 entries measure
// the dispatch overhead of the pool rather than any speedup.
void ThreadArgs(benchmark::internal::Benchmark* b) {
  for (int t : {1, 2, 4, 8}) b->Arg(t);
}

void BM_ParallelForDispatch(benchmark::State& state) {
  // Overhead of fanning a trivial body out over the pool, per 4096 indices.
  ThreadPool::Global().SetNumThreads(static_cast<size_t>(state.range(0)));
  constexpr size_t kN = 4096;
  std::vector<uint64_t> out(kN);
  for (auto _ : state) {
    ParallelFor(kN, [&](size_t i) { out[i] = i * i; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kN));
}
BENCHMARK(BM_ParallelForDispatch)->Apply(ThreadArgs);

void BM_ParallelPaillierBatch(benchmark::State& state) {
  // The tentpole path: batch of 32 Paillier encryptions, randomizers drawn
  // serially, powers and assembly fanned out.
  ThreadPool::Global().SetNumThreads(static_cast<size_t>(state.range(0)));
  Rng rng(21);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  std::vector<BigUInt> plain(32);
  for (size_t i = 0; i < plain.size(); ++i) plain[i] = BigUInt(7 * i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PaillierEncryptBatch(kp.public_key, plain, &rng).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plain.size()));
}
BENCHMARK(BM_ParallelPaillierBatch)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelHomomorphicSum(benchmark::State& state) {
  // Protocol-level view: the homomorphic-sum subprotocol over 64 counters
  // with three players (batched encryption + parallel aggregation/decrypt).
  ThreadPool::Global().SetNumThreads(static_cast<size_t>(state.range(0)));
  Network net;
  std::vector<PartyId> players{net.RegisterParty("P1"),
                               net.RegisterParty("P2"),
                               net.RegisterParty("P3")};
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>(64, 9));
  for (auto _ : state) {
    Rng r1(1), r2(2), r3(3);
    std::vector<Rng*> rngs{&r1, &r2, &r3};
    HomomorphicSumProtocol proto(&net, players, HomomorphicSumConfig{});
    benchmark::DoNotOptimize(proto.Run(inputs, rngs, "bp.").ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelHomomorphicSum)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelEmEstep(benchmark::State& state) {
  // EM learning over a mid-size cascade log; the E-step accumulation is the
  // chunked-reduction ParallelFor.
  ThreadPool::Global().SetNumThreads(static_cast<size_t>(state.range(0)));
  Rng rng(22);
  auto graph = ErdosRenyiArcs(&rng, 300, 2400).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.3);
  CascadeParams params;
  params.num_actions = 100;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  EmConfig cfg;
  cfg.h = 4;
  cfg.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LearnInfluenceEm(graph, log, cfg).ValueOrDie());
  }
}
BENCHMARK(BM_ParallelEmEstep)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psi

PSI_BENCHMARK_MAIN();
