// Thread-count determinism regression: the parallel crypto engine must not
// change a single transcript byte. Every RNG draw happens in serial program
// order and only pure modular arithmetic fans out (common/thread_pool.h), so
// a protocol run with an 8-worker pool must produce the exact envelope
// sequence — frame for frame, byte for byte — and the exact metering report
// of the single-threaded run. This pins the contract that lets the chaos
// suite, the cost model, and golden transcripts ignore PSI_THREADS.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "bigint/modular.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "graph/generators.h"
#include "influence/em_learner.h"
#include "mpc/homomorphic_sum.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "mpc/secure_sum.h"
#include "mpc/session.h"
#include "net/fault.h"

namespace psi {
namespace {

// Network that records every transmitted frame (envelope bytes included)
// in order. Two runs are transcript-identical iff their logs compare equal.
class TranscriptNetwork : public Network {
 public:
  struct Frame {
    PartyId from;
    PartyId to;
    std::vector<uint8_t> bytes;
    bool operator==(const Frame& o) const {
      return std::tie(from, to, bytes) == std::tie(o.from, o.to, o.bytes);
    }
  };

  const std::vector<Frame>& frames() const { return frames_; }

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    frames_.push_back(Frame{from, to, frame});
    return Network::Transmit(from, to, std::move(frame));
  }

 private:
  std::vector<Frame> frames_;
};

class DeterminismTest : public ::testing::Test {
 protected:
  ~DeterminismTest() override { ThreadPool::Global().SetNumThreads(1); }
};

struct P6Run {
  std::vector<TranscriptNetwork::Frame> frames;
  std::string traffic;
  std::vector<std::vector<std::tuple<NodeId, NodeId, uint64_t>>> arcs;
  uint64_t crypto_ops = 0;
};

// `rsa_bits` = 512 gives 8-limb n and 4-limb p, q: the widths the batched
// IFMA exponentiation serves. 384 stays on widths it never serves.
P6Run RunProtocol6(size_t num_threads,
                   Protocol6Config::EncryptionMode mode =
                       Protocol6Config::EncryptionMode::kPerInteger,
                   size_t rsa_bits = 384) {
  ThreadPool::Global().SetNumThreads(num_threads);
  Rng world_rng(77);
  auto graph = ErdosRenyiArcs(&world_rng, 30, 120).ValueOrDie();
  auto truth = GroundTruthInfluence::Random(&world_rng, graph, 0.2, 0.8);
  CascadeParams params;
  params.num_actions = 12;
  params.seeds_per_action = 2;
  auto log = GenerateCascades(&world_rng, graph, truth, params).ValueOrDie();
  auto provider_logs = ExclusivePartition(&world_rng, log, 3).ValueOrDie();

  TranscriptNetwork net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Protocol6Config cfg;
  cfg.rsa_bits = rsa_bits;
  cfg.encryption = mode;
  Rng r1(31), r2(32), r3(33), host_rng(34);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  PropagationGraphProtocol proto(&net, host, providers, cfg);
  SessionStats stats;
  auto out = proto.RunSession(graph, params.num_actions, provider_logs,
                              &host_rng, rngs, RetryPolicy{}, &stats)
                 .ValueOrDie();

  P6Run run;
  run.crypto_ops = stats.crypto_ops_total;
  run.frames = net.frames();
  run.traffic = net.Report().ToString();
  run.arcs.resize(out.graphs.size());
  for (size_t a = 0; a < out.graphs.size(); ++a) {
    for (NodeId v = 0; v < out.graphs[a].num_nodes(); ++v) {
      for (const auto& arc : out.graphs[a].OutArcs(v)) {
        run.arcs[a].emplace_back(v, arc.to, arc.delta_t);
      }
    }
  }
  return run;
}

TEST_F(DeterminismTest, Protocol6TranscriptInvariantUnderThreadCount) {
  P6Run serial = RunProtocol6(1);
  P6Run threaded = RunProtocol6(8);
  ASSERT_EQ(serial.frames.size(), threaded.frames.size());
  for (size_t i = 0; i < serial.frames.size(); ++i) {
    ASSERT_EQ(serial.frames[i], threaded.frames[i]) << "frame " << i;
  }
  EXPECT_EQ(serial.traffic, threaded.traffic);
  EXPECT_EQ(serial.arcs, threaded.arcs);
}

TEST_F(DeterminismTest, PackedProtocol6TranscriptInvariantUnderThreadCount) {
  // kPackedInteger draws one pad per packed ciphertext (serially) instead of
  // one per Delta; the transcript must still ignore the pool size.
  constexpr auto kMode = Protocol6Config::EncryptionMode::kPackedInteger;
  P6Run serial = RunProtocol6(1, kMode);
  P6Run threaded = RunProtocol6(8, kMode);
  ASSERT_EQ(serial.frames.size(), threaded.frames.size());
  for (size_t i = 0; i < serial.frames.size(); ++i) {
    ASSERT_EQ(serial.frames[i], threaded.frames[i]) << "frame " << i;
  }
  EXPECT_EQ(serial.traffic, threaded.traffic);
  EXPECT_EQ(serial.arcs, threaded.arcs);
}

TEST_F(DeterminismTest, Protocol6BatchedRsaMatchesHeapPathAtAnyThreadCount) {
  // The batched RSA path (IFMA lanes where the CPU has them) against the
  // heap-only per-element path, at 1 and 4 pool threads, in both modes
  // that encrypt per ciphertext: transcript, metering, crypto-op count and
  // output must all be identical.
  using Mode = Protocol6Config::EncryptionMode;
  for (Mode mode : {Mode::kPerInteger, Mode::kPackedInteger}) {
    P6Run heap;
    {
      ScopedHeapOnlyModPow heap_only;
      heap = RunProtocol6(1, mode, /*rsa_bits=*/512);
    }
    for (size_t threads : {1u, 4u}) {
      P6Run batched = RunProtocol6(threads, mode, /*rsa_bits=*/512);
      ASSERT_EQ(heap.frames.size(), batched.frames.size());
      for (size_t i = 0; i < heap.frames.size(); ++i) {
        ASSERT_EQ(heap.frames[i], batched.frames[i])
            << "frame " << i << " threads " << threads;
      }
      EXPECT_EQ(heap.traffic, batched.traffic);
      EXPECT_EQ(heap.arcs, batched.arcs);
      EXPECT_EQ(heap.crypto_ops, batched.crypto_ops);
      EXPECT_GT(batched.crypto_ops, 0u);
    }
  }
}

struct HSumRun {
  std::vector<TranscriptNetwork::Frame> frames;
  std::string traffic;
  std::vector<BigUInt> s1;
  std::vector<BigUInt> s2;
};

HSumRun RunHomomorphicSum(size_t num_threads, bool packed) {
  ThreadPool::Global().SetNumThreads(num_threads);
  TranscriptNetwork net;
  std::vector<PartyId> players{net.RegisterParty("P1"),
                               net.RegisterParty("P2"),
                               net.RegisterParty("P3")};
  std::vector<std::vector<uint64_t>> inputs{{5, 0, 19, 3}, {7, 1, 2, 8},
                                            {11, 4, 6, 100}};
  Rng r1(91), r2(92), r3(93);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  HomomorphicSumConfig cfg;
  cfg.paillier_bits = 512;
  if (packed) cfg.counter_bound = BigUInt(1000);
  HomomorphicSumProtocol proto(&net, players, cfg);
  auto shares = proto.Run(inputs, rngs, "det.").ValueOrDie();
  EXPECT_EQ(proto.last_run_packed(), packed);
  HSumRun run;
  run.frames = net.frames();
  run.traffic = net.Report().ToString();
  run.s1 = std::move(shares.s1);
  run.s2 = std::move(shares.s2);
  return run;
}

void ExpectIdenticalHSumRuns(const HSumRun& serial, const HSumRun& threaded) {
  ASSERT_EQ(serial.frames.size(), threaded.frames.size());
  for (size_t i = 0; i < serial.frames.size(); ++i) {
    ASSERT_EQ(serial.frames[i], threaded.frames[i]) << "frame " << i;
  }
  EXPECT_EQ(serial.traffic, threaded.traffic);
  EXPECT_EQ(serial.s1, threaded.s1);
  EXPECT_EQ(serial.s2, threaded.s2);
}

TEST_F(DeterminismTest, PaillierSumTranscriptInvariantUnderThreadCount) {
  ExpectIdenticalHSumRuns(RunHomomorphicSum(1, /*packed=*/false),
                          RunHomomorphicSum(8, /*packed=*/false));
}

TEST_F(DeterminismTest, PackedPaillierSumTranscriptInvariantUnderThreadCount) {
  // Packed mode adds batch encryption/decryption and per-slot mask draws;
  // the masks are drawn serially on the protocol thread, so the transcript
  // must stay byte-identical under any pool size.
  ExpectIdenticalHSumRuns(RunHomomorphicSum(1, /*packed=*/true),
                          RunHomomorphicSum(8, /*packed=*/true));
}

TEST_F(DeterminismTest, PackedPaillierSumDiffersOnlyInSizeFromUnpacked) {
  // Sanity on the comparison above: packed and unpacked runs of the same
  // inputs reconstruct the same sums (checked elsewhere) over a *smaller*
  // transcript, so the two suites exercise genuinely different wire paths.
  HSumRun packed = RunHomomorphicSum(1, /*packed=*/true);
  HSumRun unpacked = RunHomomorphicSum(1, /*packed=*/false);
  size_t packed_bytes = 0, unpacked_bytes = 0;
  for (const auto& fr : packed.frames) packed_bytes += fr.bytes.size();
  for (const auto& fr : unpacked.frames) unpacked_bytes += fr.bytes.size();
  EXPECT_LT(packed_bytes, unpacked_bytes);
}

// Fault-injecting network that also logs every transmission attempt (before
// the fault pipeline mutates it), so two crash-recovered runs can be compared
// frame for frame.
class TranscriptFaultyNetwork : public FaultyNetwork {
 public:
  using FaultyNetwork::FaultyNetwork;

  const std::vector<TranscriptNetwork::Frame>& frames() const {
    return frames_;
  }

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    frames_.push_back(TranscriptNetwork::Frame{from, to, frame});
    return FaultyNetwork::Transmit(from, to, std::move(frame));
  }

 private:
  std::vector<TranscriptNetwork::Frame> frames_;
};

struct P4World {
  std::unique_ptr<SocialGraph> graph;
  size_t actions = 20;
  std::vector<ActionLog> provider_logs;
};

P4World MakeP4World() {
  P4World w;
  Rng rng(77);
  w.graph = std::make_unique<SocialGraph>(
      ErdosRenyiArcs(&rng, 16, 50).ValueOrDie());
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, 0.1, 0.7);
  CascadeParams params;
  params.num_actions = w.actions;
  params.seeds_per_action = 2;
  auto log = GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs = ExclusivePartition(&rng, log, 3).ValueOrDie();
  return w;
}

struct P4SessionRun {
  Result<LinkInfluence> result = Status::Internal("not run");
  SessionStats stats;
  std::vector<TranscriptNetwork::Frame> frames;
};

P4SessionRun RunP4SessionOnce(const P4World& w, size_t num_threads,
                              uint64_t crash_after) {
  ThreadPool::Global().SetNumThreads(num_threads);
  FaultPlan plan;
  plan.crash = CrashSpec{/*party=*/1, crash_after, crash_after + 3};
  TranscriptFaultyNetwork net(plan);
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Protocol4Config cfg;
  cfg.h = 4;
  Rng r1(31), r2(32), r3(33), host_rng(34), pair_secret(35);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  LinkInfluenceProtocol proto(&net, host, providers, cfg);
  RetryPolicy retry;
  retry.max_attempts = 4;
  P4SessionRun run;
  run.result = proto.RunSession(*w.graph, w.actions, w.provider_logs,
                                &host_rng, rngs, &pair_secret, retry,
                                &run.stats);
  run.frames = net.frames();
  return run;
}

TEST_F(DeterminismTest, ResumedSessionTranscriptInvariantUnderThreadCount) {
  // Crash-restart recovery replays a checkpointed stage; the replay must be
  // byte-identical no matter the pool size, or golden transcripts and the
  // bitwise chaos comparisons would depend on PSI_THREADS.
  P4World w = MakeP4World();
  // Find a crash window the session actually recovers from (serially).
  uint64_t crash_after = 0;
  for (uint64_t after = 1; after <= 10; ++after) {
    P4SessionRun probe = RunP4SessionOnce(w, 1, after);
    if (probe.result.ok() && probe.stats.resumes > 0) {
      crash_after = after;
      break;
    }
  }
  ASSERT_GT(crash_after, 0u) << "no recoverable crash window found";

  P4SessionRun serial = RunP4SessionOnce(w, 1, crash_after);
  P4SessionRun threaded = RunP4SessionOnce(w, 8, crash_after);
  ASSERT_TRUE(serial.result.ok());
  ASSERT_TRUE(threaded.result.ok());
  EXPECT_GT(serial.stats.resumes, 0u);
  EXPECT_EQ(serial.stats.resumes, threaded.stats.resumes);
  EXPECT_EQ(serial.stats.stages_resumed, threaded.stats.stages_resumed);
  ASSERT_EQ(serial.frames.size(), threaded.frames.size());
  for (size_t i = 0; i < serial.frames.size(); ++i) {
    ASSERT_EQ(serial.frames[i], threaded.frames[i]) << "frame " << i;
  }
  const LinkInfluence& a = serial.result.ValueOrDie();
  const LinkInfluence& b = threaded.result.ValueOrDie();
  ASSERT_EQ(a.p.size(), b.p.size());
  for (size_t e = 0; e < a.p.size(); ++e) {
    ASSERT_EQ(a.p[e], b.p[e]) << "arc " << e;
  }
}

// SHA-256 over every sealed frame (sender, receiver, envelope bytes), the
// metering report and a run's output bytes.
std::string TranscriptDigest(
    const std::vector<TranscriptNetwork::Frame>& frames,
    const std::string& traffic, const std::vector<uint8_t>& output) {
  BinaryWriter w;
  for (const auto& frame : frames) {
    w.WriteU32(frame.from);
    w.WriteU32(frame.to);
    w.WriteBytes(frame.bytes);
  }
  w.WriteString(traffic);
  w.WriteBytes(output);
  return DigestToHex(Sha256::Hash(w.TakeBuffer()));
}

// Golden transcripts. They pin frames, metering and outputs byte for byte.
// The flat-limb secure sum reproduced the per-share BigUInt digests that
// tests/mpc/secure_sum_test.cc keeps as its reference. Both were re-blessed
// once, deliberately, when stage randomness became derived from (session
// key, stage, label) and BigUInt::RandomBelow stopped drawing one bit more
// than a power-of-two bound needs; no other change may move them.
TEST_F(DeterminismTest, GoldenProtocol4SecureSumSessionTranscript) {
  // Table 1's configuration: m=3, n=200, |E|=1000, c=2 (q=2000), h=4.
  ThreadPool::Global().SetNumThreads(1);
  Rng world_rng(2014);
  auto graph = ErdosRenyiArcs(&world_rng, 200, 1000).ValueOrDie();
  auto truth = GroundTruthInfluence::Random(&world_rng, graph, 0.05, 0.6);
  CascadeParams params;
  params.num_actions = 100;
  params.seeds_per_action = 2;
  auto log = GenerateCascades(&world_rng, graph, truth, params).ValueOrDie();
  auto provider_logs = ExclusivePartition(&world_rng, log, 3).ValueOrDie();

  TranscriptNetwork net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.obfuscation_factor = 2.0;
  cfg.aggregation = P4Aggregation::kSecureSum;
  Rng r1(41), r2(42), r3(43), host_rng(44), pair_secret(45);
  LinkInfluenceProtocol proto(&net, host, providers, cfg);
  SessionStats stats;
  auto out = proto.RunSession(graph, params.num_actions, provider_logs,
                              &host_rng, {&r1, &r2, &r3}, &pair_secret,
                              RetryPolicy{}, &stats)
                 .ValueOrDie();
  ASSERT_EQ(proto.views().omega.size(), 2000u);

  BinaryWriter result;
  for (size_t e = 0; e < out.pairs.size(); ++e) {
    result.WriteU32(out.pairs[e].from);
    result.WriteU32(out.pairs[e].to);
    result.WriteDouble(out.p[e]);
  }
  EXPECT_EQ(TranscriptDigest(net.frames(), net.Report().ToString(),
                             result.TakeBuffer()),
            "fa3815b2df9faca60b74e1f02a66cf9453501ebdb55bc8d2e3637a66e0ef7348");
}

TEST_F(DeterminismTest, GoldenProtocol2MultiLimbTranscript) {
  // S = 2^128: two-limb shares, and a three-limb y at the third party.
  TranscriptNetwork net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> players{net.RegisterParty("P1"),
                               net.RegisterParty("P2"),
                               net.RegisterParty("P3")};
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(1u << 20);
  cfg.modulus_s = BigUInt::PowerOfTwo(128);
  Rng input_rng(7);
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>(300));
  for (auto& v : inputs) {
    for (auto& x : v) x = input_rng.UniformU64((1u << 20) / 3);
  }
  Rng r1(51), r2(52), r3(53), pair_secret(54);
  SecureSumProtocol proto(&net, players, host, cfg);
  auto shares =
      proto.RunProtocol2(inputs, {&r1, &r2, &r3}, &pair_secret, "golden.")
          .ValueOrDie();

  BinaryWriter result;
  for (size_t c = 0; c < shares.size(); ++c) {
    WriteBigUInt(&result, shares.s1[c]);
    WriteBigInt(&result, shares.s2[c]);
  }
  EXPECT_EQ(TranscriptDigest(net.frames(), net.Report().ToString(),
                             result.TakeBuffer()),
            "062558c36e178f5f8d2f911d828b6fde7b4c794870130945199a14e2be8e42ee");
}

TEST_F(DeterminismTest, EmLearnerBitIdenticalAcrossThreadCounts) {
  // The E-step reduction uses thread-count-invariant chunking, so learned
  // probabilities must compare EXACTLY equal (not just within tolerance).
  Rng rng(55);
  auto graph = ErdosRenyiArcs(&rng, 60, 360).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.35);
  CascadeParams params;
  params.num_actions = 40;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  EmConfig cfg;
  cfg.h = 4;
  cfg.max_iterations = 15;

  ThreadPool::Global().SetNumThreads(1);
  auto serial = LearnInfluenceEm(graph, log, cfg).ValueOrDie();
  ThreadPool::Global().SetNumThreads(8);
  auto threaded = LearnInfluenceEm(graph, log, cfg).ValueOrDie();

  EXPECT_EQ(serial.iterations, threaded.iterations);
  ASSERT_EQ(serial.influence.p.size(), threaded.influence.p.size());
  for (size_t k = 0; k < serial.influence.p.size(); ++k) {
    EXPECT_EQ(serial.influence.p[k], threaded.influence.p[k]) << "arc " << k;
  }
  EXPECT_EQ(serial.log_likelihood, threaded.log_likelihood);
}

}  // namespace
}  // namespace psi
