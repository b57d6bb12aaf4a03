#include "mpc/propagation_protocol.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "crypto/rsa.h"
#include "graph/generators.h"
#include "influence/user_score.h"
#include "mpc/wire.h"
#include "net/envelope.h"

namespace psi {
namespace {

struct P6Fixture {
  P6Fixture(size_t num_providers, uint64_t seed = 13) : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 30, 140).ValueOrDie());
    auto truth = GroundTruthInfluence::Uniform(*graph, 0.5);
    CascadeParams params;
    params.num_actions = 25;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs = ExclusivePartition(&rng, log, num_providers).ValueOrDie();

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(seed * 10 + k));
    }
    host_rng = std::make_unique<Rng>(seed + 100);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  Network net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::unique_ptr<Rng> host_rng;
};

Protocol6Config SmallRsaConfig(
    Protocol6Config::EncryptionMode mode =
        Protocol6Config::EncryptionMode::kHybrid) {
  Protocol6Config cfg;
  cfg.rsa_bits = 512;
  cfg.encryption = mode;
  return cfg;
}

void ExpectGraphsMatchPlaintext(const Protocol6Output& out,
                                const SocialGraph& graph,
                                const ActionLog& log, size_t num_actions) {
  ASSERT_EQ(out.graphs.size(), num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    auto expected = BuildPropagationGraph(graph, log, a).ValueOrDie();
    ASSERT_EQ(out.graphs[a].num_arcs(), expected.num_arcs()) << "action " << a;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      auto got = out.graphs[a].OutArcs(v);
      auto want = expected.OutArcs(v);
      auto key = [](const LabeledArc& x) {
        return (static_cast<uint64_t>(x.to) << 32) | x.delta_t;
      };
      std::vector<uint64_t> gk, wk;
      for (const auto& x : got) gk.push_back(key(x));
      for (const auto& x : want) wk.push_back(key(x));
      std::sort(gk.begin(), gk.end());
      std::sort(wk.begin(), wk.end());
      ASSERT_EQ(gk, wk) << "action " << a << " node " << v;
    }
  }
}

TEST(Protocol6Test, HybridModeReconstructsAllPropagationGraphs) {
  P6Fixture f(3);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, PerIntegerModeReconstructsAllPropagationGraphs) {
  P6Fixture f(2);
  // Keep the size modest: per-integer RSA decrypts q * A ciphertexts.
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPerInteger);
  cfg.obfuscation_factor = 1.5;
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, PackedModeReconstructsAllPropagationGraphs) {
  P6Fixture f(3);
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, PackedModeShrinksPerIntegerTraffic) {
  // Same world through kPerInteger and kPackedInteger: identical graphs,
  // several-fold fewer ciphertext bytes.
  P6Fixture fp(2, 21);
  P6Fixture fu(2, 21);
  Protocol6Config packed_cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  Protocol6Config plain_cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPerInteger);
  PropagationGraphProtocol packed(&fp.net, fp.host, fp.providers, packed_cfg);
  PropagationGraphProtocol plain(&fu.net, fu.host, fu.providers, plain_cfg);
  auto po = packed
                .Run(*fp.graph, 25, fp.provider_logs, fp.host_rng.get(),
                     fp.RngPtrs())
                .ValueOrDie();
  auto uo = plain
                .Run(*fu.graph, 25, fu.provider_logs, fu.host_rng.get(),
                     fu.RngPtrs())
                .ValueOrDie();
  ExpectGraphsMatchPlaintext(po, *fp.graph, fp.log, 25);
  ExpectGraphsMatchPlaintext(uo, *fu.graph, fu.log, 25);
  EXPECT_EQ(fp.net.Report().num_messages, fu.net.Report().num_messages);
  EXPECT_LT(fp.net.Report().num_bytes * 3, fu.net.Report().num_bytes);
}

TEST(Protocol6Test, PackedModeFallsBackPerVectorOnLargeDeltas) {
  // A 1-tick Delta bound is violated by almost every real vector, forcing
  // the per-action kPerInteger fallback; correctness must be unaffected.
  P6Fixture f(2);
  Protocol6Config cfg =
      SmallRsaConfig(Protocol6Config::EncryptionMode::kPackedInteger);
  cfg.packed_delta_bound = 1;
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ExpectGraphsMatchPlaintext(out, *f.graph, f.log, 25);
}

TEST(Protocol6Test, CommunicationMatchesTable2Totals) {
  for (size_t m : {2u, 3u, 4u}) {
    P6Fixture f(m, 17 + m);
    PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                   SmallRsaConfig());
    ASSERT_TRUE(proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs())
                    .ok());
    auto report = f.net.Report();
    EXPECT_EQ(report.num_rounds, 4u) << "m=" << m;
    EXPECT_EQ(report.num_messages, 3 * m) << "m=" << m;
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(Protocol6Test, DecoyArcsNeverEnterPropagationGraphs) {
  P6Fixture f(2);
  Protocol6Config cfg = SmallRsaConfig();
  cfg.obfuscation_factor = 4.0;  // Lots of decoys.
  PropagationGraphProtocol proto(&f.net, f.host, f.providers, cfg);
  auto out = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  for (const auto& pg : out.graphs) {
    for (NodeId v = 0; v < f.graph->num_nodes(); ++v) {
      for (const auto& arc : pg.OutArcs(v)) {
        EXPECT_TRUE(f.graph->HasArc(v, arc.to))
            << "PG contains non-social arc " << v << "->" << arc.to;
      }
    }
  }
}

TEST(Protocol6Test, ActionsNobodyPerformedYieldEmptyGraphs) {
  P6Fixture f(2);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  // Declare more actions than the log contains.
  auto out = proto.Run(*f.graph, 40, f.provider_logs, f.host_rng.get(),
                       f.RngPtrs())
                 .ValueOrDie();
  ASSERT_EQ(out.graphs.size(), 40u);
  for (ActionId a = f.log.MaxActionId(); a < 40; ++a) {
    EXPECT_EQ(out.graphs[a].num_arcs(), 0u);
  }
}

TEST(Protocol6Test, RelayedBytesAreCiphertextOnly) {
  P6Fixture f(3);
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  ASSERT_TRUE(proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs())
                  .ok());
  // P1 relayed the payloads of providers 2..m.
  EXPECT_GT(proto.views().p1_relayed_bytes, 0u);
}

TEST(Protocol6Test, Validation) {
  P6Fixture f(2);
  PropagationGraphProtocol one(&f.net, f.host, {f.providers[0]},
                               SmallRsaConfig());
  EXPECT_FALSE(one.Run(*f.graph, 25, {f.provider_logs[0]}, f.host_rng.get(),
                       {f.rngs[0].get()})
                   .ok());
  PropagationGraphProtocol proto(&f.net, f.host, f.providers,
                                 SmallRsaConfig());
  EXPECT_FALSE(proto.Run(*f.graph, 25, {f.provider_logs[0]},
                         f.host_rng.get(), f.RngPtrs())
                   .ok());
}

// Rewrites the aggregated E(Delta) payload that P1 relays to H (step 10)
// and keeps H's public key (step 3), re-sealing the envelope so only the
// decoder can object.
class TamperNetwork : public Network {
 public:
  std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)> rewrite;
  RsaPublicKey pub;

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    auto env = OpenEnvelope(frame);
    if (env.ok() && env->protocol_id == ProtocolId::kPropagationGraph) {
      if (env->step == 3) {
        BinaryReader r(env->payload);
        EXPECT_TRUE(ReadBigUInt(&r, &pub.n).ok());
        EXPECT_TRUE(ReadBigUInt(&r, &pub.e).ok());
      } else if (env->step == 10 && rewrite) {
        frame = SealEnvelope(env->protocol_id, env->step, env->sender,
                             env->seq, rewrite(env->payload));
      }
    }
    return Network::Transmit(from, to, std::move(frame));
  }
};

// Replaces ciphertexts of the first action entry in the aggregate (first
// provider's bundle), by position; every other byte is kept.
std::vector<uint8_t> ReplaceCiphertexts(
    const std::vector<uint8_t>& payload,
    const std::map<size_t, BigUInt>& replacements) {
  BinaryReader r(payload);
  BinaryWriter w;
  uint64_t actions = 0, count = 0;
  uint32_t action = 0;
  uint8_t mode = 0;
  EXPECT_TRUE(r.ReadVarU64(&actions).ok());
  EXPECT_TRUE(r.ReadU32(&action).ok());
  EXPECT_TRUE(r.ReadU8(&mode).ok());
  EXPECT_TRUE(r.ReadVarU64(&count).ok());
  w.WriteVarU64(actions);
  w.WriteU32(action);
  w.WriteU8(mode);
  w.WriteVarU64(count);
  const size_t last = replacements.rbegin()->first;
  for (size_t i = 0; i <= last; ++i) {
    BigUInt c;
    EXPECT_TRUE(ReadBigUInt(&r, &c).ok());
    auto it = replacements.find(i);
    WriteBigUInt(&w, it == replacements.end() ? c : it->second);
  }
  w.WriteRaw(payload.data() + (payload.size() - r.remaining()), r.remaining());
  return w.TakeBuffer();
}

// One Protocol 6 run whose aggregate goes through `rewrite`; returns the
// run's status.
Status RunTampered(
    Protocol6Config::EncryptionMode mode,
    const std::function<std::vector<uint8_t>(const RsaPublicKey&,
                                             const std::vector<uint8_t>&)>&
        rewrite) {
  Rng rng(21);
  auto graph = ErdosRenyiArcs(&rng, 20, 60).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 6;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto provider_logs = ExclusivePartition(&rng, log, 2).ValueOrDie();
  TamperNetwork net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2")};
  net.rewrite = [&](const std::vector<uint8_t>& payload) {
    return rewrite(net.pub, payload);
  };
  Rng r1(1), r2(2), host_rng(3);
  PropagationGraphProtocol proto(&net, host, providers, SmallRsaConfig(mode));
  return proto.Run(graph, params.num_actions, provider_logs, &host_rng,
                   {&r1, &r2})
      .status();
}

// The decoder's own error, as the session reports it ("... in stage
// 'decode'; last error: <message>").
std::string DecodeError(const Status& st) {
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  const std::string marker = "in stage 'decode'; last error: ";
  const size_t at = st.message().find(marker);
  if (at == std::string::npos) return "<not a decode failure> " + st.ToString();
  return st.message().substr(at + marker.size());
}

// Encrypts a value whose plaintext does not fit a Delta after >> 64.
BigUInt WidePlaintextCiphertext(const RsaPublicKey& pub) {
  return RsaEncrypt(pub, BigUInt::PowerOfTwo(130)).ValueOrDie();
}

TEST(Protocol6Test, CiphertextAtOrAboveModulusIsRejected) {
  using Mode = Protocol6Config::EncryptionMode;
  for (Mode mode : {Mode::kPerInteger, Mode::kPackedInteger}) {
    Status st = RunTampered(mode, [](const RsaPublicKey& pub,
                                     const std::vector<uint8_t>& payload) {
      return ReplaceCiphertexts(payload, {{0, pub.n + BigUInt(3)}});
    });
    EXPECT_EQ(DecodeError(st), "RSA ciphertext >= modulus");
  }
}

TEST(Protocol6Test, PlaintextWiderThanADeltaIsRejected) {
  Status st = RunTampered(
      Protocol6Config::EncryptionMode::kPerInteger,
      [](const RsaPublicKey& pub, const std::vector<uint8_t>& payload) {
        return ReplaceCiphertexts(payload, {{2, WidePlaintextCiphertext(pub)}});
      });
  EXPECT_EQ(DecodeError(st), "value exceeds 64 bits");
}

TEST(Protocol6Test, FirstBadCiphertextDecidesTheError) {
  // A wide plaintext before an out-of-range ciphertext reports the wide
  // plaintext, and the other way round: the lowest bad index wins.
  constexpr auto kMode = Protocol6Config::EncryptionMode::kPerInteger;
  Status wide_first = RunTampered(
      kMode, [](const RsaPublicKey& pub, const std::vector<uint8_t>& payload) {
        return ReplaceCiphertexts(
            payload, {{2, WidePlaintextCiphertext(pub)}, {9, pub.n}});
      });
  EXPECT_EQ(DecodeError(wide_first), "value exceeds 64 bits");
  Status range_first = RunTampered(
      kMode, [](const RsaPublicKey& pub, const std::vector<uint8_t>& payload) {
        return ReplaceCiphertexts(
            payload, {{2, pub.n}, {9, WidePlaintextCiphertext(pub)}});
      });
  EXPECT_EQ(DecodeError(range_first), "RSA ciphertext >= modulus");
}

TEST(Protocol6Test, TruncatedAggregateIsRejected) {
  using Mode = Protocol6Config::EncryptionMode;
  for (Mode mode : {Mode::kPerInteger, Mode::kPackedInteger}) {
    Status st = RunTampered(
        mode, [](const RsaPublicKey&, const std::vector<uint8_t>& payload) {
          return std::vector<uint8_t>(payload.begin(), payload.end() - 9);
        });
    EXPECT_EQ(DecodeError(st), "element count exceeds buffer capacity");
  }
}

// A host that publishes an Omega with one arc endpoint far outside [0, n):
// every Omega frame H sends is re-sealed with the arc (5e7, 0) appended.
class OutOfRangeOmegaNetwork : public Network {
 public:
  explicit OutOfRangeOmegaNetwork(PartyId host) : host_(host) {}

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    if (from == host_) {
      PSI_ASSIGN_OR_RETURN(Envelope env, OpenEnvelope(frame));
      if (env.protocol_id == ProtocolId::kPropagationGraph && env.step == 2) {
        std::vector<Arc> arcs;
        PSI_RETURN_NOT_OK(wire::UnpackArcs(env.payload, &arcs));
        arcs.push_back(Arc{50000000, 0});
        frame = SealEnvelope(env.protocol_id, env.step, env.sender, env.seq,
                             wire::PackArcs(arcs));
      }
    }
    return Network::Transmit(from, to, std::move(frame));
  }

 private:
  PartyId host_;
};

TEST(Protocol6Test, OutOfRangeOmegaArcIsAProtocolError) {
  P6Fixture f(2);
  // The fixture's parties, registered in the same order: H first.
  OutOfRangeOmegaNetwork net(f.host);
  net.RegisterParty("H");
  for (size_t k = 0; k < f.providers.size(); ++k) {
    net.RegisterParty("P" + std::to_string(k + 1));
  }
  PropagationGraphProtocol proto(&net, f.host, f.providers, SmallRsaConfig());
  auto result = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(net.PendingCount(), 0u);
}

}  // namespace
}  // namespace psi
