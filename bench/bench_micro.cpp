// Microbenchmarks (google-benchmark) for the substrates: big-integer
// arithmetic, cryptographic primitives, the secure protocols, and the
// plaintext influence algorithms. These quantify where the wall-clock time
// of the table benches goes.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_main.h"

#include "actionlog/counters.h"
#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "common/serialize.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "graph/generators.h"
#include "influence/influence_max.h"
#include "influence/link_influence.h"
#include "influence/user_score.h"
#include "mpc/homomorphic_sum.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/secure_sum.h"
#include "mpc/session.h"
#include "mpc/wire.h"

namespace psi {
namespace {

// ---------------------------------------------------------------- bigint --

void BM_BigUIntMul(benchmark::State& state) {
  Rng rng(1);
  auto bits = static_cast<size_t>(state.range(0));
  BigUInt a = BigUInt::RandomBits(&rng, bits);
  BigUInt b = BigUInt::RandomBits(&rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigUIntMul)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_BigUIntDivMod(benchmark::State& state) {
  Rng rng(2);
  auto bits = static_cast<size_t>(state.range(0));
  BigUInt a = BigUInt::RandomBits(&rng, 2 * bits);
  BigUInt b = BigUInt::RandomBits(&rng, bits);
  b.SetBit(bits - 1);
  for (auto _ : state) {
    BigUInt q, r;
    BigUInt::DivMod(a, b, &q, &r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigUIntDivMod)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ModPow(benchmark::State& state) {
  Rng rng(3);
  auto bits = static_cast<size_t>(state.range(0));
  BigUInt m = BigUInt::RandomBits(&rng, bits);
  m.SetBit(bits - 1);
  m.SetBit(0);
  BigUInt base = BigUInt::RandomBelow(&rng, m);
  BigUInt exp = BigUInt::RandomBits(&rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModPow(base, exp, m));
  }
}
BENCHMARK(BM_ModPow)->Arg(256)->Arg(512)->Arg(1024);

void BM_ModPowGenericPath(benchmark::State& state) {
  // The pre-Montgomery baseline: square-and-multiply with Knuth-division
  // reductions (forced by using an even modulus of the same size).
  Rng rng(33);
  auto bits = static_cast<size_t>(state.range(0));
  BigUInt m = BigUInt::RandomBits(&rng, bits);
  m.SetBit(bits - 1);
  if (m.IsOdd()) m += BigUInt(1);  // Even => generic path.
  BigUInt base = BigUInt::RandomBelow(&rng, m);
  BigUInt exp = BigUInt::RandomBits(&rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModPow(base, exp, m));
  }
}
BENCHMARK(BM_ModPowGenericPath)->Arg(512)->Arg(1024);

void BM_MontgomeryMultiply(benchmark::State& state) {
  Rng rng(34);
  auto bits = static_cast<size_t>(state.range(0));
  BigUInt m = BigUInt::RandomBits(&rng, bits);
  m.SetBit(bits - 1);
  m.SetBit(0);
  auto ctx = MontgomeryContext::Create(m).ValueOrDie();
  BigUInt a = ctx.ToMontgomery(BigUInt::RandomBelow(&rng, m));
  BigUInt b = ctx.ToMontgomery(BigUInt::RandomBelow(&rng, m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Multiply(a, b));
  }
}
BENCHMARK(BM_MontgomeryMultiply)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MillerRabin(benchmark::State& state) {
  Rng rng(4);
  BigUInt p = RandomPrime(&rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsProbablePrime(p, &rng, 16));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(256)->Arg(512);

// ---------------------------------------------------------------- crypto --

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 16);

// Envelope checksum: every framed message is sealed and opened with it.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_RsaEncrypt(benchmark::State& state) {
  Rng rng(6);
  auto kp = RsaGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
                .ValueOrDie();
  BigUInt m = BigUInt::RandomBelow(&rng, kp.public_key.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaEncrypt(kp.public_key, m).ValueOrDie());
  }
}
BENCHMARK(BM_RsaEncrypt)->Arg(512)->Arg(1024);

void BM_RsaDecrypt(benchmark::State& state) {
  Rng rng(7);
  auto kp = RsaGenerateKeyPair(&rng, static_cast<size_t>(state.range(0)))
                .ValueOrDie();
  BigUInt m = BigUInt::RandomBelow(&rng, kp.public_key.n);
  BigUInt c = RsaEncrypt(kp.public_key, m).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaDecrypt(kp.private_key, c).ValueOrDie());
  }
}
BENCHMARK(BM_RsaDecrypt)->Arg(512)->Arg(1024);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(8);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  BigUInt m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie());
  }
}
BENCHMARK(BM_PaillierEncrypt);

void BM_PaillierEncryptBatch(benchmark::State& state) {
  // Whole batch per iteration: randomizer draws stay serial, r^n powers and
  // ciphertext assembly fan out across the thread pool.
  Rng rng(8);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  const auto batch = static_cast<size_t>(state.range(0));
  std::vector<BigUInt> plain(batch);
  for (size_t i = 0; i < batch; ++i) plain[i] = BigUInt(1000 + i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PaillierEncryptBatch(kp.public_key, plain, &rng).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaillierEncryptBatch)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  // The classic path: one c^lambda mod n^2 exponentiation per counter.
  Rng rng(8);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  BigUInt c =
      PaillierEncrypt(kp.public_key, BigUInt(123456789), &rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaillierDecrypt(kp.private_key, c).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaillierDecrypt);

void BM_PaillierDecryptCrt(benchmark::State& state) {
  // CRT path: half-size moduli and half-size exponents, Garner recombine.
  Rng rng(8);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  BigUInt c =
      PaillierEncrypt(kp.public_key, BigUInt(123456789), &rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PaillierDecryptCrt(kp.private_key, c).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaillierDecryptCrt);

// The homomorphic-sum packing geometry the acceptance gate measures: 512-bit
// keys, 20-bit counters, m = 3 players, 2^-30 statistical masks.
constexpr uint64_t kPackCounterBound = (1ull << 20) - 1;
constexpr size_t kPackPlayers = 3;
constexpr uint64_t kPackEpsilonLog2 = 30;

void BM_PackedCounterDecrypt(benchmark::State& state) {
  // One CRT decryption + slot extraction recovers a whole ciphertext's worth
  // of counters; items/sec is counters per second (compare with
  // BM_PaillierDecrypt, the old per-counter cost).
  Rng rng(8);
  auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
  auto codec = HomomorphicSumPackedCodec(
                   kp.public_key.n.BitLength() - 1, BigUInt(kPackCounterBound),
                   kPackPlayers, kPackEpsilonLog2)
                   .ValueOrDie();
  const size_t k = codec.slots_per_plaintext();
  std::vector<BigUInt> counters(k);
  for (size_t i = 0; i < k; ++i) counters[i] = BigUInt(kPackCounterBound - i);
  auto plain = codec.Pack(counters).ValueOrDie();
  BigUInt c = PaillierEncrypt(kp.public_key, plain[0], &rng).ValueOrDie();
  for (auto _ : state) {
    BigUInt m = PaillierDecryptCrt(kp.private_key, c).ValueOrDie();
    benchmark::DoNotOptimize(codec.Unpack({m}, k).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
  state.counters["slots"] = static_cast<double>(k);
}
BENCHMARK(BM_PackedCounterDecrypt);

void BM_PackingRoundTrip(benchmark::State& state) {
  // Pure codec arithmetic (no crypto): pack + unpack of `count` counters.
  auto codec = HomomorphicSumPackedCodec(511, BigUInt(kPackCounterBound),
                                         kPackPlayers, kPackEpsilonLog2)
                   .ValueOrDie();
  const auto count = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> counters(count);
  for (size_t i = 0; i < count; ++i) counters[i] = i % kPackCounterBound;
  for (auto _ : state) {
    auto packed = codec.Pack(counters).ValueOrDie();
    benchmark::DoNotOptimize(codec.UnpackU64(packed, count).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackingRoundTrip)->Arg(512);

// ------------------------------------------------------------- protocols --

// Batched Protocol 2 at m = 3. `s128` rows: A = 2^20 and S = 2^128, shares
// of two limbs. `p4_paper`: Protocol 4's shape at Table 1's configuration,
// n + |E'| = 2200 counters, A = 100 and S = RecommendedModulus(100, 2200,
// 2^-40) = 2^59, shares of one limb.
void BM_Protocol2Batch(benchmark::State& state, bool p4_paper) {
  const auto counters = static_cast<size_t>(state.range(0));
  Network net;
  net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Rng r1(1), r2(2), r3(3), secret(4);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(p4_paper ? 100u : 1u << 20);
  cfg.modulus_s = p4_paper
                      ? RecommendedModulus(cfg.input_bound_a, counters, 40)
                      : BigUInt::PowerOfTwo(128);
  std::vector<std::vector<uint64_t>> inputs(3,
                                            std::vector<uint64_t>(counters, 7));
  for (auto _ : state) {
    SecureSumProtocol proto(&net, providers, providers[2], cfg);
    benchmark::DoNotOptimize(
        proto.RunProtocol2(inputs, rngs, &secret, "bm.").ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["s_bits"] =
      static_cast<double>(cfg.modulus_s.BitLength() - 1);
}
BENCHMARK_CAPTURE(BM_Protocol2Batch, s128, false)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000);
BENCHMARK_CAPTURE(BM_Protocol2Batch, p4_paper, true)->Arg(2200);

// Packed vs unpacked homomorphic sum at identical inputs: the two headline
// numbers of the packing optimisation. `bits_per_counter` meters the full
// run (key publish + ciphertext rounds + envelope overhead) from the
// network simulator; items/sec counts aggregated counters.
void RunHomomorphicSumBench(benchmark::State& state, bool packed) {
  const size_t count = 512;
  std::vector<std::vector<uint64_t>> inputs(
      kPackPlayers, std::vector<uint64_t>(count));
  for (size_t k = 0; k < kPackPlayers; ++k) {
    for (size_t c = 0; c < count; ++c) {
      inputs[k][c] = (1000 * k + 7 * c) % kPackCounterBound;
    }
  }
  HomomorphicSumConfig cfg;
  cfg.paillier_bits = 512;
  if (packed) {
    cfg.counter_bound = BigUInt(kPackCounterBound);
    cfg.packing_epsilon_log2 = kPackEpsilonLog2;
  }
  uint64_t bytes = 0, runs = 0;
  for (auto _ : state) {
    Network net;
    std::vector<PartyId> players;
    for (size_t k = 0; k < kPackPlayers; ++k) {
      players.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
    }
    Rng r1(91), r2(92), r3(93);
    std::vector<Rng*> rngs{&r1, &r2, &r3};
    HomomorphicSumProtocol proto(&net, players, cfg);
    benchmark::DoNotOptimize(proto.Run(inputs, rngs, "bm.").ValueOrDie());
    if (packed && !proto.last_run_packed()) {
      state.SkipWithError("packed run fell back to unpacked");
      return;
    }
    bytes += net.Report().num_bytes;
    ++runs;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
  if (runs > 0) {
    state.counters["bits_per_counter"] =
        static_cast<double>(bytes) * 8.0 / (static_cast<double>(runs) * count);
  }
}

void BM_HomomorphicSumUnpacked(benchmark::State& state) {
  RunHomomorphicSumBench(state, /*packed=*/false);
}
BENCHMARK(BM_HomomorphicSumUnpacked)->Unit(benchmark::kMillisecond);

void BM_HomomorphicSumPacked(benchmark::State& state) {
  RunHomomorphicSumBench(state, /*packed=*/true);
}
BENCHMARK(BM_HomomorphicSumPacked)->Unit(benchmark::kMillisecond);

void BM_Protocol4EndToEnd(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
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
  for (auto _ : state) {
    LinkInfluenceProtocol proto(&net, host, providers, cfg);
    benchmark::DoNotOptimize(
        proto.Run(graph, 50, logs, &hr, rngs, &secret).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_arcs()));
}
BENCHMARK(BM_Protocol4EndToEnd)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- influence --

// Args: users n, arcs |E|, actions |A|, and q, the size of an obfuscated
// pair set Omega_E' built as Protocol 4 builds it (shuffled, decoys
// included); q = 0 counts over the arcs themselves, in graph order.
void BM_ComputeCounters(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto arcs = static_cast<size_t>(state.range(1));
  const auto q = static_cast<size_t>(state.range(3));
  Rng rng(10);
  auto graph = ErdosRenyiArcs(&rng, n, arcs).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.3);
  CascadeParams params;
  params.num_actions = static_cast<size_t>(state.range(2));
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  std::vector<Arc> pairs = graph.arcs();
  if (q > 0) {
    const double factor =
        static_cast<double>(q) / static_cast<double>(graph.num_arcs());
    pairs = ObfuscateArcSet(&rng, graph, factor).ValueOrDie();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFollowCounts(log, pairs, 4));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_ComputeCounters)
    ->Args({200, 1600, 200, 0})
    ->Args({1000, 8000, 200, 0})
    ->Args({200, 1000, 100, 2000});  // p4_paper's shape (Table 1).

// Protocol 4's per-provider counter stage as a session runs it, at
// p4_paper's shape (n = 200, |E| = 1000, |A| = 100, three providers,
// q = 2000, h = 4): each iteration runs the registered p4/counters program
// once per provider over a state holding its staged exec.log bytes, so it
// times the decode and the per-stage index build that BM_ComputeCounters,
// reusing one long-lived log, leaves out.
void BM_ProviderCountersStage(benchmark::State& state) {
  RegisterLinkInfluenceStagePrograms();
  constexpr uint64_t kUsers = 200;
  Rng rng(12);
  auto graph = ErdosRenyiArcs(&rng, kUsers, 1000).ValueOrDie();
  auto truth = GroundTruthInfluence::Random(&rng, graph, 0.05, 0.6);
  CascadeParams params;
  params.num_actions = 100;
  params.seeds_per_action = 2;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto provider_logs = ExclusivePartition(&rng, log, 3).ValueOrDie();
  auto omega = ObfuscateArcSet(&rng, graph, 2.0).ValueOrDie();
  // The state keys Protocol 4 stages for each provider before a session.
  BinaryWriter cfg;
  cfg.WriteU64(kUsers);
  cfg.WriteU64(4);        // h
  cfg.WriteU64(1 << 16);  // weight scale
  cfg.WriteU8(0);         // Eq. 1
  const std::vector<uint8_t> cfg_buf = cfg.TakeBuffer();
  std::vector<SessionState> staged(provider_logs.size());
  for (size_t k = 0; k < staged.size(); ++k) {
    staged[k].Put("exec.cfg", cfg_buf);
    staged[k].Put("omega", wire::PackArcs(omega));
    StageProviderLog(provider_logs[k], &staged[k]);
  }
  for (auto _ : state) {
    for (const SessionState& st : staged) {
      SessionState run = st;
      StageProgramContext ctx;
      ctx.state = &run;
      if (!StageProgramRegistry::Global().Run("p4/counters", &ctx).ok()) {
        state.SkipWithError("p4/counters failed");
        return;
      }
      benchmark::DoNotOptimize(run);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(staged.size() * omega.size()));
}
BENCHMARK(BM_ProviderCountersStage);

void BM_UserScores(benchmark::State& state) {
  Rng rng(11);
  auto graph = ErdosRenyiArcs(&rng, 150, 900).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.4);
  CascadeParams params;
  params.num_actions = static_cast<size_t>(state.range(0));
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  UserScoreOptions opt;
  opt.tau = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeUserInfluenceScores(graph, log, opt).ValueOrDie());
  }
}
BENCHMARK(BM_UserScores)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_CelfSeedSelection(benchmark::State& state) {
  Rng rng(12);
  auto graph = BarabasiAlbert(&rng, static_cast<size_t>(state.range(0)), 2)
                   .ValueOrDie();
  ArcProbabilities probs(graph.num_arcs(), 0.1);
  for (auto _ : state) {
    Rng opt(13);
    benchmark::DoNotOptimize(
        CelfInfluenceMaximization(graph, probs, 5, &opt, 50).ValueOrDie());
  }
}
BENCHMARK(BM_CelfSeedSelection)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_CascadeGeneration(benchmark::State& state) {
  Rng rng(14);
  auto graph = ErdosRenyiArcs(&rng, 500, 4000).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.2);
  CascadeParams params;
  params.num_actions = 100;
  for (auto _ : state) {
    Rng gen(15);
    benchmark::DoNotOptimize(
        GenerateCascades(&gen, graph, truth, params).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CascadeGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psi

PSI_BENCHMARK_MAIN();
