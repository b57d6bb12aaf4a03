// Chaos harness: every protocol driver under hundreds of seeded fault
// schedules — Protocols 4 and 6, and the drivers built on Protocol 4's
// steps (the non-exclusive pipeline, multi-host, segmented, perfect-hiding
// and user-score).
//
// The invariant (docs/FAULTS.md): with the fault layer between the drivers
// and the wire, a protocol run under ANY fault schedule either produces
// exactly the result of the fault-free run, or terminates with a clean
// non-OK Status within the bounded retransmission budget. It never returns
// a wrong answer, crashes, or deadlocks. The fault layer draws from its own
// RNG, so protocol randomness streams are identical across runs and a
// completed faulty run must match the baseline bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "mpc/homomorphic_sum.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/multi_host.h"
#include "mpc/non_exclusive.h"
#include "mpc/perfect_hiding.h"
#include "mpc/propagation_protocol.h"
#include "mpc/secure_user_score.h"
#include "mpc/segmented_influence.h"
#include "mpc/session.h"
#include "net/cost_model.h"
#include "net/fault.h"

namespace psi {
namespace {

// Seeds per chaos sweep. Defaults to 200; CI's sanitizer job soaks with
// PSI_CHAOS_SEEDS=1000, and local debugging can shrink it the same way.
uint64_t NumChaosSeeds() {
  const char* env = std::getenv("PSI_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return 200;
  const uint64_t parsed = std::strtoull(env, nullptr, 10);
  return parsed == 0 ? 200 : parsed;
}

const uint64_t kNumChaosSeeds = NumChaosSeeds();

// Static world: graph, cascades and provider partition are built once; only
// the network and the (re-seeded) party RNGs differ between runs.
struct WorldData {
  size_t m = 0;
  size_t n = 0;
  size_t actions = 0;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
};

WorldData MakeWorldData(size_t m, size_t n, size_t arcs, size_t actions,
                        uint64_t seed) {
  WorldData w;
  w.m = m;
  w.n = n;
  w.actions = actions;
  Rng rng(seed);
  w.graph = std::make_unique<SocialGraph>(
      ErdosRenyiArcs(&rng, n, arcs).ValueOrDie());
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, 0.1, 0.7);
  CascadeParams params;
  params.num_actions = actions;
  params.seeds_per_action = 2;
  w.log = GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs = ExclusivePartition(&rng, w.log, m).ValueOrDie();
  return w;
}

struct Parties {
  PartyId host;
  std::vector<PartyId> providers;
};

Parties RegisterParties(Network* net, size_t m) {
  Parties p;
  p.host = net->RegisterParty("H");
  for (size_t k = 0; k < m; ++k) {
    p.providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
  }
  return p;
}

// Runs Protocol 4 on `net` with fixed RNG seeds (identical across calls, so
// any two completed runs must agree exactly). Optionally reports the modulus
// size and |Omega_E'| for the cost-model comparison.
Result<LinkInfluence> RunP4(const WorldData& w, Network* net,
                            size_t* log_s = nullptr, size_t* q = nullptr,
                            P4Aggregation aggregation =
                                P4Aggregation::kSecureSum) {
  Parties parties = RegisterParties(net, w.m);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.aggregation = aggregation;
  cfg.paillier_bits = 384;  // Keeps per-seed keygen cheap in chaos sweeps.
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(1000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(501), pair_secret(502);
  LinkInfluenceProtocol proto(net, parties.host, parties.providers, cfg);
  auto result = proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, &pair_secret);
  if (log_s != nullptr) *log_s = proto.modulus().BitLength();
  if (q != nullptr) *q = proto.views().omega.size();
  return result;
}

Result<Protocol6Output> RunP6(const WorldData& w, Network* net,
                              Protocol6Config::EncryptionMode mode =
                                  Protocol6Config::EncryptionMode::kHybrid) {
  Parties parties = RegisterParties(net, w.m);
  Protocol6Config cfg;
  cfg.rsa_bits = 384;
  cfg.encryption = mode;
  cfg.obfuscation_factor = 1.5;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(2000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(601);
  PropagationGraphProtocol proto(net, parties.host, parties.providers, cfg);
  return proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng, rng_ptrs);
}

// RunP4 through the session/recovery layer (mpc/session.h): same world,
// same RNG seeds, so a completed session run must reproduce RunP4's result
// bit for bit no matter how many crash-restart cycles it survived.
Result<LinkInfluence> RunP4Session(const WorldData& w, Network* net,
                                   const RetryPolicy& retry,
                                   SessionStats* stats,
                                   P4Aggregation aggregation =
                                       P4Aggregation::kSecureSum,
                                   size_t* log_s = nullptr,
                                   size_t* q = nullptr) {
  Parties parties = RegisterParties(net, w.m);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.aggregation = aggregation;
  cfg.paillier_bits = 384;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(1000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(501), pair_secret(502);
  LinkInfluenceProtocol proto(net, parties.host, parties.providers, cfg);
  auto result = proto.RunSession(*w.graph, w.actions, w.provider_logs,
                                 &host_rng, rng_ptrs, &pair_secret, retry,
                                 stats);
  if (log_s != nullptr) *log_s = proto.modulus().BitLength();
  if (q != nullptr) *q = proto.views().omega.size();
  return result;
}

Result<Protocol6Output> RunP6Session(const WorldData& w, Network* net,
                                     const RetryPolicy& retry,
                                     SessionStats* stats) {
  Parties parties = RegisterParties(net, w.m);
  Protocol6Config cfg;
  cfg.rsa_bits = 384;
  cfg.encryption = Protocol6Config::EncryptionMode::kHybrid;
  cfg.obfuscation_factor = 1.5;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(2000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(601);
  PropagationGraphProtocol proto(net, parties.host, parties.providers, cfg);
  return proto.RunSession(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, retry, stats);
}

// Canonical flat encoding of a Protocol 6 output for exact comparison.
std::vector<std::array<uint64_t, 4>> CanonicalArcs(const Protocol6Output& out) {
  std::vector<std::array<uint64_t, 4>> arcs;
  for (size_t a = 0; a < out.graphs.size(); ++a) {
    for (NodeId v = 0; v < out.graphs[a].num_nodes(); ++v) {
      for (const auto& arc : out.graphs[a].OutArcs(v)) {
        arcs.push_back({a, static_cast<uint64_t>(v),
                        static_cast<uint64_t>(arc.to), arc.delta_t});
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

TEST(ChaosTest, Protocol4SurvivesRandomFaultSchedules) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network clean;
  auto baseline = RunP4(w, &clean).ValueOrDie();

  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < kNumChaosSeeds; ++seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, /*num_parties=*/w.m + 1));
    auto result = RunP4(w, &net);
    faults_injected += net.fault_stats()->injected();
    // Drained mailboxes on every outcome: a failed run must not leak frames
    // into whatever would run next on this network.
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      const LinkInfluence& got = result.ValueOrDie();
      ASSERT_EQ(got.p.size(), baseline.p.size()) << "seed=" << seed;
      for (size_t e = 0; e < got.p.size(); ++e) {
        // Bitwise equality: the fault layer must never perturb the result.
        ASSERT_EQ(got.p[e], baseline.p[e]) << "seed=" << seed << " arc=" << e;
      }
    } else {
      ++failed_runs;
      // A clean, described error — not a crash, not a hang.
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kNumChaosSeeds);
  // The schedule generator must actually exercise both outcomes.
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
}

TEST(ChaosTest, Protocol6SurvivesRandomFaultSchedules) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network clean;
  auto baseline = CanonicalArcs(RunP6(w, &clean).ValueOrDie());

  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < kNumChaosSeeds; ++seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, /*num_parties=*/w.m + 1));
    auto result = RunP6(w, &net);
    faults_injected += net.fault_stats()->injected();
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
          << "seed=" << seed;
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kNumChaosSeeds);
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
}

TEST(ChaosTest, PackedAggregationSurvivesRandomFaultSchedules) {
  // Packed Paillier envelopes (ciphertext vectors, the published key) ride
  // the same fault layer: every completed faulty run must reproduce the
  // clean run bit for bit, every aborted run must fail cleanly.
  const uint64_t kSeeds =
      (kNumChaosSeeds * 3) / 5;  // Each run pays a Paillier keygen.
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network clean;
  auto baseline = RunP4(w, &clean, nullptr, nullptr,
                        P4Aggregation::kPaillierPacked)
                      .ValueOrDie();

  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, /*num_parties=*/w.m + 1));
    auto result =
        RunP4(w, &net, nullptr, nullptr, P4Aggregation::kPaillierPacked);
    faults_injected += net.fault_stats()->injected();
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      const LinkInfluence& got = result.ValueOrDie();
      ASSERT_EQ(got.p.size(), baseline.p.size()) << "seed=" << seed;
      for (size_t e = 0; e < got.p.size(); ++e) {
        ASSERT_EQ(got.p[e], baseline.p[e]) << "seed=" << seed << " arc=" << e;
      }
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kSeeds);
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
}

TEST(ChaosTest, PackedProtocol6SurvivesRandomFaultSchedules) {
  const uint64_t kSeeds = (kNumChaosSeeds * 3) / 5;
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  constexpr auto kMode = Protocol6Config::EncryptionMode::kPackedInteger;
  Network clean;
  auto baseline = CanonicalArcs(RunP6(w, &clean, kMode).ValueOrDie());

  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, /*num_parties=*/w.m + 1));
    auto result = RunP6(w, &net, kMode);
    faults_injected += net.fault_stats()->injected();
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
          << "seed=" << seed;
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kSeeds);
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
}

TEST(ChaosTest, PackedHomomorphicSumZeroFaultPlanMetersExactly) {
  // Zero-fault metering stays exact for packed envelopes: the fault layer
  // adds nothing, and the analytic model predicts the wire bytes.
  FaultyNetwork net(FaultPlan::None());
  const size_t m = 3;
  std::vector<PartyId> players;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < m; ++k) {
    players.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
    rngs.push_back(std::make_unique<Rng>(3000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  HomomorphicSumConfig config;
  config.paillier_bits = 512;
  config.counter_bound = BigUInt((1ull << 20) - 1);
  HomomorphicSumProtocol proto(&net, players, config);
  const size_t count = 30;
  std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>(count));
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < count; ++c) inputs[k][c] = 31 * k + c;
  }
  ASSERT_TRUE(proto.Run(inputs, rng_ptrs, "h.").ok());
  ASSERT_TRUE(proto.last_run_packed());
  EXPECT_EQ(net.fault_stats()->injected(), 0u);

  HomomorphicSumCostParams p;
  p.m = m;
  p.count = count;
  p.key_bits = 512;
  p.slots_per_ciphertext = proto.last_run_slots();
  auto model = HomomorphicSumCosts(p).ValueOrDie();
  auto report = net.Report();
  EXPECT_EQ(report.num_rounds, model.nr);
  EXPECT_EQ(report.num_messages, model.nm);
  EXPECT_EQ(report.num_bytes * 8, EnvelopedBits(model));
  EXPECT_EQ(report.num_bytes,
            report.num_payload_bytes + model.nm * kEnvelopeOverheadBytes);
}

TEST(ChaosTest, Protocol4ZeroFaultPlanMatchesCostModelExactly) {
  WorldData w = MakeWorldData(3, 16, 50, 20, 77);
  FaultyNetwork net(FaultPlan::None());
  size_t log_s = 0, q = 0;
  ASSERT_TRUE(RunP4(w, &net, &log_s, &q).ok());
  EXPECT_EQ(net.fault_stats()->injected(), 0u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 0u);

  Protocol4CostParams params;
  params.m = w.m;
  params.n = w.n;
  params.q = q;
  params.log_s = log_s;
  auto model = Protocol4Costs(params).ValueOrDie();

  auto report = net.Report();
  // NR and NM agree with the analytic Table 1 model exactly.
  EXPECT_EQ(report.num_rounds, model.nr);
  EXPECT_EQ(report.num_messages, model.nm);
  ASSERT_EQ(report.rounds.size(), model.rows.size());
  for (size_t i = 0; i < model.rows.size(); ++i) {
    EXPECT_EQ(report.rounds[i].num_messages, model.rows[i].num_messages)
        << "round " << i;
    // Every round meters the fixed envelope overhead on top of its payload.
    EXPECT_EQ(report.rounds[i].num_bytes,
              report.rounds[i].num_payload_bytes +
                  report.rounds[i].num_messages * kEnvelopeOverheadBytes)
        << "round " << i;
  }
  // Wire MS differs from payload MS by exactly 29 bytes per message, the
  // same fixed overhead EnvelopedBits() adds to the analytic model.
  EXPECT_EQ(report.num_bytes,
            report.num_payload_bytes + model.nm * kEnvelopeOverheadBytes);
  EXPECT_EQ(EnvelopedBits(model) - model.ms_bits,
            model.nm * kEnvelopeOverheadBytes * 8);
}

TEST(ChaosTest, Protocol6ZeroFaultPlanMatchesCostModelExactly) {
  WorldData w = MakeWorldData(3, 14, 40, 8, 88);
  FaultyNetwork net(FaultPlan::None());
  ASSERT_TRUE(RunP6(w, &net).ok());
  EXPECT_EQ(net.fault_stats()->injected(), 0u);

  auto report = net.Report();
  // Table 2: NR = 4, NM = 3m.
  EXPECT_EQ(report.num_rounds, 4u);
  EXPECT_EQ(report.num_messages, 3 * w.m);
  for (const auto& round : report.rounds) {
    EXPECT_EQ(round.num_bytes,
              round.num_payload_bytes +
                  round.num_messages * kEnvelopeOverheadBytes)
        << round.label;
  }
  EXPECT_EQ(report.num_bytes,
            report.num_payload_bytes +
                report.num_messages * kEnvelopeOverheadBytes);
}

TEST(ChaosTest, Protocol4SessionRecoversFromCrashRestartSchedules) {
  // The tentpole invariant: under crash-restart schedules, a session run
  // either reproduces the fault-free transcript bit for bit — resuming from
  // checkpoints, recomputing NOTHING that was already checkpointed — or
  // fails with a clean error once the attempt budget is spent.
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network clean;
  auto baseline = RunP4(w, &clean).ValueOrDie();

  uint64_t ok_runs = 0, failed_runs = 0, recovered_runs = 0;
  for (uint64_t seed = 0; seed < kNumChaosSeeds; ++seed) {
    FaultyNetwork net(
        FaultPlan::RandomRestartPlan(seed, /*num_parties=*/w.m + 1));
    RetryPolicy retry;
    retry.max_attempts = 4;
    SessionStats stats;
    auto result = RunP4Session(w, &net, retry, &stats);
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    // Stage-resume never redoes checkpointed crypto work, recovered or not.
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      if (stats.resumes > 0) ++recovered_runs;
      const LinkInfluence& got = result.ValueOrDie();
      ASSERT_EQ(got.p.size(), baseline.p.size()) << "seed=" << seed;
      for (size_t e = 0; e < got.p.size(); ++e) {
        ASSERT_EQ(got.p[e], baseline.p[e]) << "seed=" << seed << " arc=" << e;
      }
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kNumChaosSeeds);
  EXPECT_GT(ok_runs, 0u);
  // The sweep must actually exercise recovery, not just fault-free luck:
  // some runs must have completed only via resume handshakes.
  EXPECT_GT(recovered_runs, 0u);
}

TEST(ChaosTest, Protocol6SessionRecoversFromCrashRestartSchedules) {
  const uint64_t kSeeds = (kNumChaosSeeds * 3) / 5;  // RSA keygen per run.
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network clean;
  auto baseline = CanonicalArcs(RunP6(w, &clean).ValueOrDie());

  uint64_t ok_runs = 0, failed_runs = 0, recovered_runs = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    FaultyNetwork net(
        FaultPlan::RandomRestartPlan(seed, /*num_parties=*/w.m + 1));
    RetryPolicy retry;
    retry.max_attempts = 4;
    SessionStats stats;
    auto result = RunP6Session(w, &net, retry, &stats);
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      if (stats.resumes > 0) ++recovered_runs;
      ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
          << "seed=" << seed;
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_EQ(ok_runs + failed_runs, kSeeds);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(recovered_runs, 0u);
}

TEST(ChaosTest, Protocol4SessionZeroFaultPlanMatchesCostModelExactly) {
  // With no faults, the session layer must be invisible on the wire: one
  // attempt, no handshake, no backoff — metering identical to the analytic
  // Table 1 model, byte for byte, even with a multi-attempt retry budget.
  WorldData w = MakeWorldData(3, 16, 50, 20, 77);
  FaultyNetwork net(FaultPlan::None());
  RetryPolicy retry;  // Defaults: max_attempts = 3, resume on.
  SessionStats stats;
  size_t log_s = 0, q = 0;
  ASSERT_TRUE(RunP4Session(w, &net, retry, &stats,
                           P4Aggregation::kSecureSum, &log_s, &q)
                  .ok());
  EXPECT_EQ(net.PendingCount(), 0u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.resumes, 0u);
  EXPECT_EQ(stats.backoff_rounds, 0u);
  EXPECT_EQ(stats.handshake_messages, 0u);
  EXPECT_EQ(stats.handshake_bytes, 0u);
  EXPECT_EQ(stats.crypto_ops_recomputed, 0u);
  EXPECT_GT(stats.checkpoints_written, 0u);

  Protocol4CostParams params;
  params.m = w.m;
  params.n = w.n;
  params.q = q;
  params.log_s = log_s;
  auto model = Protocol4Costs(params).ValueOrDie();
  auto report = net.Report();
  EXPECT_EQ(report.num_rounds, model.nr);
  EXPECT_EQ(report.num_messages, model.nm);
  EXPECT_EQ(report.num_bytes,
            report.num_payload_bytes + model.nm * kEnvelopeOverheadBytes);
}

// A crash-only plan (no probabilistic rules) taking down provider P1 for the
// round window (after_round, restart_round). Deterministic: the handshake
// round then carries exactly the analytic resume traffic.
FaultPlan CrashOnlyPlan(PartyId party, uint64_t after_round,
                        uint64_t restart_round) {
  FaultPlan plan;
  plan.crash = CrashSpec{party, after_round, restart_round};
  return plan;
}

TEST(ChaosTest, ForcedResumeHandshakeMetersExactly) {
  WorldData w = MakeWorldData(3, 16, 50, 20, 77);
  Network clean;
  auto baseline = RunP4(w, &clean).ValueOrDie();
  // Party ids are registration order: host, then providers (RunP4Session
  // registers the same way every run).
  const PartyId provider1 = 1;

  bool found = false;
  for (uint64_t after = 1; after <= 10 && !found; ++after) {
    FaultyNetwork net(CrashOnlyPlan(provider1, after, after + 3));
    RetryPolicy retry;
    retry.max_attempts = 4;
    SessionStats stats;
    auto result = RunP4Session(w, &net, retry, &stats);
    ASSERT_EQ(net.PendingCount(), 0u) << "after_round=" << after;
    if (!result.ok() || stats.resumes != 1) continue;
    found = true;

    // The recovered run converges to the fault-free transcript...
    const LinkInfluence& got = result.ValueOrDie();
    ASSERT_EQ(got.p.size(), baseline.p.size());
    for (size_t e = 0; e < got.p.size(); ++e) {
      ASSERT_EQ(got.p[e], baseline.p[e]) << "arc=" << e;
    }
    // ...skipping checkpointed stages instead of recomputing them.
    EXPECT_GT(stats.stages_resumed, 0u);
    EXPECT_EQ(stats.crypto_ops_recomputed, 0u);

    // The one resume round meters exactly what the analytic model predicts.
    SessionResumeCostParams p;
    p.num_parties = w.m + 1;
    auto model = SessionResumeCosts(p).ValueOrDie();
    auto report = net.Report();
    const RoundStats* resume_round = nullptr;
    for (const auto& round : report.rounds) {
      if (round.label.find(".resume") != std::string::npos) {
        ASSERT_EQ(resume_round, nullptr) << "two resume rounds in one resume";
        resume_round = &round;
      }
    }
    ASSERT_NE(resume_round, nullptr);
    EXPECT_EQ(model.nr, 1u);
    EXPECT_EQ(resume_round->num_messages, model.nm);
    EXPECT_EQ(resume_round->num_payload_bytes * 8, model.ms_bits);
    EXPECT_EQ(resume_round->num_bytes,
              resume_round->num_payload_bytes +
                  model.nm * kEnvelopeOverheadBytes);
    EXPECT_EQ(stats.handshake_messages, model.nm);
    EXPECT_EQ(stats.handshake_bytes, resume_round->num_bytes);
  }
  // Some crash window in the probe range must trigger exactly one recovery;
  // if none does, the recovery machinery is broken (or the probe is stale).
  ASSERT_TRUE(found);
}

TEST(ChaosTest, FullRestartBaselineRecomputesPackedCryptoOps) {
  // The ablation behind bench_recovery: with resume_from_checkpoint off,
  // every retry restarts from scratch, so completed Paillier work is redone
  // and the ledger must show it. Same inputs, same final bits — the only
  // difference is the wasted work.
  WorldData w = MakeWorldData(3, 16, 50, 20, 77);
  Network clean;
  auto baseline =
      RunP4(w, &clean, nullptr, nullptr, P4Aggregation::kPaillierPacked)
          .ValueOrDie();
  const PartyId provider1 = 1;

  bool found = false;
  for (uint64_t after = 1; after <= 10 && !found; ++after) {
    // Resume-mode probe first: find a window that recovers, then rerun the
    // identical schedule with checkpoint resume disabled.
    FaultyNetwork net(CrashOnlyPlan(provider1, after, after + 3));
    RetryPolicy retry;
    retry.max_attempts = 4;
    SessionStats stats;
    auto result = RunP4Session(w, &net, retry, &stats,
                               P4Aggregation::kPaillierPacked);
    ASSERT_EQ(net.PendingCount(), 0u) << "after_round=" << after;
    if (!result.ok() || stats.resumes == 0 || stats.crypto_ops_saved == 0) {
      continue;
    }
    found = true;
    EXPECT_EQ(stats.crypto_ops_recomputed, 0u);

    FaultyNetwork net_full(CrashOnlyPlan(provider1, after, after + 3));
    RetryPolicy full_restart = retry;
    full_restart.resume_from_checkpoint = false;
    SessionStats full_stats;
    auto full_result = RunP4Session(w, &net_full, full_restart, &full_stats,
                                    P4Aggregation::kPaillierPacked);
    ASSERT_EQ(net_full.PendingCount(), 0u);
    ASSERT_TRUE(full_result.ok());
    EXPECT_GT(full_stats.crypto_ops_recomputed, 0u);
    EXPECT_EQ(full_stats.crypto_ops_saved, 0u);
    const LinkInfluence& got = full_result.ValueOrDie();
    ASSERT_EQ(got.p.size(), baseline.p.size());
    for (size_t e = 0; e < got.p.size(); ++e) {
      ASSERT_EQ(got.p[e], baseline.p[e]) << "arc=" << e;
    }
  }
  ASSERT_TRUE(found);
}

// ---------------------------------------------------------------------------
// The drivers that reuse Protocol 4's steps. Each run flattens its output to
// doubles so one sweep checks them all.

// Fixed-seed party generators: two runs built from the same base draw the
// same randomness, so two completed runs must agree exactly.
struct DriverRngs {
  DriverRngs(size_t m, uint64_t base)
      : host(base), pair_secret(base + 1), class_secret(base + 2) {
    for (size_t k = 0; k < m; ++k) {
      store.push_back(std::make_unique<Rng>(base + 10 + k));
      providers.push_back(store.back().get());
    }
  }
  Rng host, pair_secret, class_secret;
  std::vector<std::unique_ptr<Rng>> store;
  std::vector<Rng*> providers;
};

std::vector<double> Flatten(const std::vector<LinkInfluence>& outs) {
  std::vector<double> flat;
  for (const LinkInfluence& li : outs) {
    flat.insert(flat.end(), li.p.begin(), li.p.end());
  }
  return flat;
}

// Runs `run` fault-free for the baseline, then under `seeds` RandomPlan
// schedules: every run must return the baseline bit for bit or a described
// error, and leave every mailbox drained.
template <typename Run>
void ExpectChaosInvariant(size_t num_parties, uint64_t seeds, Run run) {
  Network clean;
  Result<std::vector<double>> baseline = run(&clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();
  uint64_t ok_runs = 0, failed_runs = 0, faults_injected = 0;
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, num_parties));
    Result<std::vector<double>> result = run(&net);
    faults_injected += net.fault_stats()->injected();
    ASSERT_EQ(net.PendingCount(), 0u) << "seed=" << seed;
    if (result.ok()) {
      ++ok_runs;
      ASSERT_EQ(result.ValueOrDie(), baseline.ValueOrDie()) << "seed=" << seed;
    } else {
      ++failed_runs;
      ASSERT_FALSE(result.status().message().empty()) << "seed=" << seed;
    }
  }
  EXPECT_GT(faults_injected, 0u);
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
}

TEST(ChaosTest, NonExclusivePipelineSurvivesRandomFaultSchedules) {
  // Protocol 5 for every shared class, then Protocol 4 with the aggregates.
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Rng rng(91);
  ActionClassConfig classes =
      ActionClassConfig::Random(&rng, w.actions, /*num_classes=*/3, w.m,
                                /*min_group=*/2, /*max_group=*/w.m)
          .ValueOrDie();
  std::vector<ActionLog> logs =
      NonExclusivePartition(&rng, w.log, w.m, classes).ValueOrDie();
  ExpectChaosInvariant(w.m + 1, kNumChaosSeeds,
                       [&](Network* net) -> Result<std::vector<double>> {
    Parties parties = RegisterParties(net, w.m);
    DriverRngs rngs(w.m, 300);
    NonExclusiveConfig cfg;
    cfg.protocol4.h = 4;
    NonExclusivePipeline pipe(net, parties.host, parties.providers, cfg);
    PSI_ASSIGN_OR_RETURN(
        LinkInfluence out,
        pipe.Run(*w.graph, w.actions, logs, classes, &rngs.host, rngs.providers,
                 &rngs.pair_secret, &rngs.class_secret));
    return out.p;
  });
}

TEST(ChaosTest, MultiHostSurvivesRandomFaultSchedules) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/78);
  // Two platforms, each holding a random slice of the arcs.
  Rng rng(92);
  std::vector<std::unique_ptr<SocialGraph>> host_graphs;
  std::vector<const SocialGraph*> graph_ptrs;
  for (size_t h = 0; h < 2; ++h) {
    host_graphs.push_back(std::make_unique<SocialGraph>(w.n));
    for (const Arc& a : w.graph->arcs()) {
      if (rng.Bernoulli(0.6)) PSI_CHECK_OK(host_graphs.back()->AddArc(a.from, a.to));
    }
    graph_ptrs.push_back(host_graphs.back().get());
  }
  ExpectChaosInvariant(2 + w.m, kNumChaosSeeds,
                       [&](Network* net) -> Result<std::vector<double>> {
    std::vector<PartyId> hosts = {net->RegisterParty("H1"),
                                  net->RegisterParty("H2")};
    std::vector<PartyId> providers;
    providers.reserve(w.m);
    for (size_t k = 0; k < w.m; ++k) {
      providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
    }
    DriverRngs rngs(w.m, 400);
    Rng host2_rng(450);
    Protocol4Config cfg;
    cfg.h = 4;
    MultiHostLinkInfluenceProtocol proto(net, hosts, providers, cfg);
    PSI_ASSIGN_OR_RETURN(
        std::vector<LinkInfluence> outs,
        proto.Run(graph_ptrs, w.actions, w.provider_logs,
                  {&rngs.host, &host2_rng}, rngs.providers, &rngs.pair_secret));
    return Flatten(outs);
  });
}

TEST(ChaosTest, SegmentedInfluenceSurvivesRandomFaultSchedules) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/79);
  Rng rng(93);
  std::vector<uint32_t> segment_of_action(w.actions);
  for (uint32_t& g : segment_of_action) {
    g = static_cast<uint32_t>(rng.UniformU64(3));
  }
  ExpectChaosInvariant(w.m + 1, kNumChaosSeeds,
                       [&](Network* net) -> Result<std::vector<double>> {
    Parties parties = RegisterParties(net, w.m);
    DriverRngs rngs(w.m, 500);
    Protocol4Config cfg;
    cfg.h = 4;
    SegmentedInfluenceProtocol proto(net, parties.host, parties.providers, cfg);
    PSI_ASSIGN_OR_RETURN(
        SegmentedLinkInfluence out,
        proto.Run(*w.graph, w.actions, w.provider_logs, segment_of_action,
                  /*num_segments=*/3, &rngs.host, rngs.providers,
                  &rngs.pair_secret));
    return Flatten(out.per_segment);
  });
}

TEST(ChaosTest, PerfectHidingSurvivesRandomFaultSchedules) {
  // Small n: the oblivious transfers cost |E| (n^2 - n) RSA decryptions and
  // every run generates two OT keys, so the sweep runs a quarter of the
  // seeds.
  WorldData w = MakeWorldData(/*m=*/2, /*n=*/5, /*arcs=*/8, /*actions=*/10,
                              /*seed=*/80);
  ExpectChaosInvariant(w.m + 1, kNumChaosSeeds / 4,
                       [&](Network* net) -> Result<std::vector<double>> {
    Parties parties = RegisterParties(net, w.m);
    DriverRngs rngs(w.m, 600);
    PerfectHidingConfig cfg;
    cfg.h = 4;
    cfg.ot_rsa_bits = 256;
    PerfectHidingLinkInfluenceProtocol proto(net, parties.host,
                                             parties.providers, cfg);
    PSI_ASSIGN_OR_RETURN(LinkInfluence out,
                         proto.Run(*w.graph, w.actions, w.provider_logs,
                                   &rngs.host, rngs.providers, &rngs.pair_secret));
    return out.p;
  });
}

TEST(ChaosTest, SecureUserScoreSurvivesRandomFaultSchedules) {
  // Protocol 6, then Protocol 2 and the masked reveal of the a_i; each run
  // pays an RSA key generation, like the packed sweeps.
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  ExpectChaosInvariant(w.m + 1, (kNumChaosSeeds * 3) / 5,
                       [&](Network* net) -> Result<std::vector<double>> {
    Parties parties = RegisterParties(net, w.m);
    DriverRngs rngs(w.m, 700);
    SecureScoreConfig cfg;
    cfg.protocol6.rsa_bits = 384;
    cfg.protocol6.encryption = Protocol6Config::EncryptionMode::kHybrid;
    cfg.protocol6.obfuscation_factor = 1.5;
    SecureUserScoreProtocol proto(net, parties.host, parties.providers, cfg);
    return proto.Run(*w.graph, w.actions, w.provider_logs, &rngs.host,
                     rngs.providers, &rngs.pair_secret);
  });
}

}  // namespace
}  // namespace psi
