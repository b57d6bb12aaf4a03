#include "mpc/link_influence_protocol.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "common/annotations.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "mpc/homomorphic_sum.h"
#include "mpc/joint_random.h"
#include "mpc/wire.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kLinkInfluence frames.
constexpr uint16_t kStepOmega = 2;          // H -> P_k: Omega_E'.
constexpr uint16_t kStepMaskedShares = 7;   // P1/P2 -> H: masked shares.

// SessionState keys of the checkpointed stage machine. Each party persists
// only what it holds in the real protocol: H the published arc set and the
// masked shares it received; P1/P2 their integer shares and the joint masks;
// every provider its validated Omega_E' copy and counter vector.
constexpr char kKeyOmega[] = "omega";
constexpr char kKeyCounters[] = "counters";
constexpr char kKeyShare1[] = "s1";
constexpr char kKeyShare2[] = "s2";
constexpr char kKeyMasks[] = "masks";
constexpr char kKeyMasked1[] = "m1";
constexpr char kKeyMasked2[] = "m2";
// Stage-program inputs staged into each provider's state before the run:
// the public counter config and the provider's own action log. They
// checkpoint (and ship to the provider's daemon) with everything else.
constexpr char kKeyExecCfg[] = "exec.cfg";
constexpr char kKeyExecLog[] = "exec.log";

// Registry name of the per-provider counter stage program.
constexpr char kProgramCounters[] = "p4/counters";

// One provider's counter computation over [a | numerators]: a pure function
// of the provider's SessionState (omega, exec.cfg, exec.log) — it draws no
// randomness and touches no wire, which is what lets it run in-process, on
// the provider's psid daemon, or replayed after a crash with identical
// output. Providers feeding Protocol-5 aggregates in keep a plain local
// stage body instead (the aggregates are in-memory only).
[[nodiscard]] Status CountersStageProgram(StageProgramContext* ctx) {
  if (ctx->state == nullptr || !ctx->rngs.empty()) {
    return Status::FailedPrecondition(
        "p4/counters wants one party state and no RNG streams");
  }
  SessionState& st = *ctx->state;

  PSI_ASSIGN_OR_RETURN(const std::vector<uint8_t> cfg_buf, st.Get(kKeyExecCfg));
  BinaryReader cr(cfg_buf);
  uint64_t num_users = 0;
  Protocol4Config cfg;
  uint8_t has_weights = 0;
  PSI_RETURN_NOT_OK(cr.ReadU64(&num_users));
  PSI_RETURN_NOT_OK(cr.ReadU64(&cfg.h));
  PSI_RETURN_NOT_OK(cr.ReadU64(&cfg.weight_scale));
  PSI_RETURN_NOT_OK(cr.ReadU8(&has_weights));
  if (has_weights > 1) {
    return Status::SerializationError("p4/counters: malformed exec.cfg");
  }
  if (has_weights == 1) {
    uint64_t count = 0;
    PSI_RETURN_NOT_OK(cr.ReadCount(&count, /*min_bytes_per_element=*/8));
    TemporalWeights weights;
    weights.w.resize(count);
    for (double& w : weights.w) PSI_RETURN_NOT_OK(cr.ReadDouble(&w));
    cfg.weights = std::move(weights);
  }
  if (!cr.AtEnd()) {
    return Status::SerializationError("p4/counters: trailing exec.cfg bytes");
  }

  std::vector<Arc> provider_omega;
  {
    PSI_ASSIGN_OR_RETURN(const auto buf, st.Get(kKeyOmega));
    PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &provider_omega));
  }
  PSI_ASSIGN_OR_RETURN(const std::vector<ActionRecord> records,
                       LoadProviderLog(st));

  PSI_ASSIGN_OR_RETURN(
      std::vector<uint64_t> counters,
      ComputeProviderCounterVector(UserActionIndex(records, num_users),
                                   provider_omega, cfg));
  st.Put(kKeyCounters, wire::PackU64s(counters));
  return Status::OK();
}

}  // namespace

void RegisterLinkInfluenceStagePrograms() {
  static std::once_flag once;
  std::call_once(once, [] {
    StageProgramRegistry::Global().Register(kProgramCounters,
                                            CountersStageProgram);
  });
}

uint64_t AggregatedClassCounters::FollowCount(NodeId i, NodeId j,
                                              uint64_t h) const {
  auto it = c_by_delay.find(PairKey(i, j));
  if (it == c_by_delay.end()) return 0;
  uint64_t sum = 0;
  for (uint64_t l = 0; l < h && l < it->second.size(); ++l) {
    sum += it->second[l];
  }
  return sum;
}

Result<std::vector<uint64_t>> ComputeProviderCounterVector(
    const ActionLog& log, size_t num_users, const std::vector<Arc>& pairs,
    const Protocol4Config& config, const AggregatedClassCounters* extra) {
  return ComputeProviderCounterVector(UserActionIndex(log.records(), num_users),
                                      pairs, config, extra);
}

Result<std::vector<uint64_t>> ComputeProviderCounterVector(
    const UserActionIndex& index, const std::vector<Arc>& pairs,
    const Protocol4Config& config, const AggregatedClassCounters* extra) {
  const size_t num_users = index.num_users();
  std::vector<uint64_t> counters;
  counters.reserve(num_users + pairs.size());

  // Denominator block: a_i.
  auto a = ComputeActionCounts(index);
  if (extra != nullptr) {
    if (extra->a.size() != num_users) {
      return Status::InvalidArgument("extra counters sized for wrong n");
    }
    for (size_t i = 0; i < num_users; ++i) a[i] += extra->a[i];
  }
  counters.insert(counters.end(), a.begin(), a.end());

  // Numerator block: b^h_ij (Eq. 1) or scaled sum_l W_l c^l_ij (Eq. 2).
  if (!config.weights.has_value()) {
    auto b = ComputeFollowCounts(index, pairs, config.h);
    if (extra != nullptr) {
      for (size_t p = 0; p < pairs.size(); ++p) {
        b[p] += extra->FollowCount(pairs[p].from, pairs[p].to, config.h);
      }
    }
    counters.insert(counters.end(), b.begin(), b.end());
  } else {
    const auto& weights = *config.weights;
    if (weights.h() != config.h) {
      return Status::InvalidArgument("weights length must equal h");
    }
    auto scaled = weights.Scaled(config.weight_scale);
    auto c = ComputeExactDelayCounts(index, pairs, config.h);
    for (size_t p = 0; p < pairs.size(); ++p) {
      uint64_t sum = 0;
      for (uint64_t l = 0; l < config.h; ++l) {
        sum += scaled[l] * c[p][l];
      }
      if (extra != nullptr) {
        auto it = extra->c_by_delay.find(PairKey(pairs[p].from, pairs[p].to));
        if (it != extra->c_by_delay.end()) {
          for (uint64_t l = 0; l < config.h && l < it->second.size(); ++l) {
            sum += scaled[l] * it->second[l];
          }
        }
      }
      counters.push_back(sum);
    }
  }
  return counters;
}

Result<std::vector<ReceivedOmega>> PublishOmega(
    Network* network, ProtocolId protocol_id, PartyId host,
    const std::vector<PartyId>& providers,
    const std::vector<uint8_t>& packed_omega, size_t n) {
  for (PartyId provider : providers) {
    PSI_RETURN_NOT_OK(network->SendFramed(host, provider, protocol_id,
                                          kStepOmega, packed_omega));
  }
  // Every provider decodes and validates the arc set it received.
  std::vector<ReceivedOmega> received(providers.size());
  for (size_t k = 0; k < providers.size(); ++k) {
    PSI_ASSIGN_OR_RETURN(received[k].payload,
                         network->RecvValidated(providers[k], host,
                                                protocol_id, kStepOmega));
    PSI_RETURN_NOT_OK(wire::UnpackArcs(received[k].payload, &received[k].arcs));
    for (const Arc& a : received[k].arcs) {
      if (a.from >= n || a.to >= n) {
        return Status::ProtocolError("Omega_E' arc endpoint out of range at " +
                                     network->party_name(providers[k]));
      }
    }
  }
  return received;
}

void StageProviderLog(const ActionLog& log, SessionState* state) {
  state->Put(kKeyExecLog, wire::PackRecords(log.records()));
}

Result<std::vector<ActionRecord>> LoadProviderLog(const SessionState& state) {
  PSI_ASSIGN_OR_RETURN(const auto buf, state.Get(kKeyExecLog));
  std::vector<ActionRecord> records;
  PSI_RETURN_NOT_OK(wire::UnpackRecords(buf, &records));
  return records;
}

BigUInt CounterBound(const Protocol4Config& config, uint64_t num_actions_public) {
  BigUInt bound(num_actions_public);
  if (config.weights.has_value()) {
    bound = bound * BigUInt(config.weight_scale) * BigUInt(config.h);
  }
  return bound;
}

SecureSumProtocol CounterSecureSum(
    Network* network, PartyId host, const std::vector<PartyId>& providers,
    const Protocol4Config& config, const BigUInt& bound, size_t num_counters) {
  SecureSumConfig sum_config;
  sum_config.modulus_s =
      config.modulus_s.has_value()
          ? *config.modulus_s
          : RecommendedModulus(bound, num_counters, config.epsilon_log2);
  sum_config.input_bound_a = bound;
  sum_config.use_secret_permutation = config.use_secret_permutation;
  PartyId third_party = (providers.size() > 2) ? providers[2] : host;
  return SecureSumProtocol(network, providers, third_party, std::move(sum_config));
}

Result<std::vector<BigUInt>> DrawJointMasks(
    Network* network, PartyId p1, PartyId p2, size_t count, Rng* rng1, Rng* rng2,
    size_t fraction_bits, const std::string& label_prefix) {
  PSI_ASSIGN_OR_RETURN(auto u_m, JointUniformBatch(network, p1, p2, count, rng1, rng2,
                                                   label_prefix + "Step5 (joint M_i)"));
  std::vector<double> m_values = ToZDistribution(u_m);
  PSI_ASSIGN_OR_RETURN(auto u_r, JointUniformBatch(network, p1, p2, count, rng1, rng2,
                                                   label_prefix + "Step6 (joint r_i)"));
  PSI_ASSIGN_OR_RETURN(auto r_values, ToUniformBelow(u_r, m_values));

  // Fixed-point masks R_i = floor(r_i * 2^fraction_bits), never zero.
  PSI_SECRET std::vector<BigUInt> masks;
  masks.resize(count);
  for (size_t i = 0; i < count; ++i) {
    PSI_ASSIGN_OR_RETURN(
        masks[i],
        BigUIntFromDouble(std::ldexp(r_values[i], static_cast<int>(fraction_bits))));
    // psi-lint: allow(secret-flow) zero test only nudges the mask to 1 so the later division is defined; it leaks one bit with probability ~2^-fraction_bits
    if (masks[i].IsZero()) masks[i] = BigUInt(1);
  }
  return masks;
}

Result<HostMaskedShares> SendMaskedShares(Network* network, PartyId p1, PartyId p2,
                                          PartyId host,
                                          const BatchedIntegerShares& masked,
                                          size_t total) {
  PSI_RETURN_NOT_OK(network->SendFramed(p1, host, ProtocolId::kLinkInfluence,
                                        kStepMaskedShares,
                                        wire::PackBigUInts(masked.s1)));
  PSI_RETURN_NOT_OK(network->SendFramed(p2, host, ProtocolId::kLinkInfluence,
                                        kStepMaskedShares,
                                        wire::PackBigInts(masked.s2)));
  HostMaskedShares got;
  PSI_ASSIGN_OR_RETURN(got.payload1,
                       network->RecvValidated(host, p1, ProtocolId::kLinkInfluence,
                                              kStepMaskedShares));
  PSI_ASSIGN_OR_RETURN(got.payload2,
                       network->RecvValidated(host, p2, ProtocolId::kLinkInfluence,
                                              kStepMaskedShares));
  PSI_RETURN_NOT_OK(wire::UnpackBigUInts(got.payload1, &got.shares.s1));
  PSI_RETURN_NOT_OK(wire::UnpackBigInts(got.payload2, &got.shares.s2));
  if (got.shares.s1.size() != total || got.shares.s2.size() != total) {
    return Status::ProtocolError("masked share vectors have wrong length");
  }
  return got;
}

Result<std::vector<BigUInt>> RecombineMaskedShares(const BatchedIntegerShares& masked,
                                                   size_t total) {
  if (masked.s1.size() != total || masked.s2.size() != total) {
    return Status::ProtocolError("masked share vectors have wrong length");
  }
  // Recombined masked counters: R_i * a_i and R_i * numerator_ij, exact.
  std::vector<BigUInt> recombined(total);
  PSI_RETURN_NOT_OK(ParallelForStatus(total, [&](size_t c) -> Status {
    BigInt value = BigInt(masked.s1[c]) + masked.s2[c];
    if (value.IsNegative()) {
      return Status::ProtocolError("negative recombined masked counter");
    }
    recombined[c] = value.magnitude();
    return Status::OK();
  }));
  return recombined;
}

Result<LinkInfluence> DivideMaskedCounters(
    const std::vector<Arc>& arcs, const std::vector<Arc>& omega, const BigUInt* masked_a,
    const BigUInt* masked_numerators, double descale) {
  // H evaluates quotients only for the genuine arcs of E.
  std::unordered_map<uint64_t, size_t> omega_index;
  omega_index.reserve(omega.size());
  for (size_t p = 0; p < omega.size(); ++p) {
    omega_index.emplace(PairKey(omega[p].from, omega[p].to), p);
  }
  LinkInfluence out;
  out.pairs = arcs;
  out.p.resize(arcs.size());
  for (size_t e = 0; e < arcs.size(); ++e) {
    auto it = omega_index.find(PairKey(arcs[e].from, arcs[e].to));
    if (it == omega_index.end()) {
      return Status::ProtocolError("arc of E missing from Omega_E'");
    }
    const BigUInt& denom = masked_a[arcs[e].from];
    out.p[e] = denom.IsZero()
                   ? 0.0
                   : DivideToDouble(masked_numerators[it->second], denom) / descale;
  }
  return out;
}

LinkInfluenceProtocol::LinkInfluenceProtocol(Network* network, PartyId host,
                                             std::vector<PartyId> providers,
                                             Protocol4Config config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<LinkInfluence> LinkInfluenceProtocol::Run(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng,
    const std::vector<const AggregatedClassCounters*>& extras) {
  RetryPolicy single_attempt;
  single_attempt.max_attempts = 1;
  return RunSession(host_graph, num_actions_public, provider_logs, host_rng,
                    provider_rngs, pair_secret_rng, single_attempt,
                    /*stats_out=*/nullptr, extras);
}

Result<LinkInfluence> LinkInfluenceProtocol::RunSession(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng,
    const RetryPolicy& retry, SessionStats* stats_out,
    const std::vector<const AggregatedClassCounters*>& extras,
    SessionOrchestrator* orchestrator) {
  RegisterLinkInfluenceStagePrograms();
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("Protocol 4 needs >= 2 providers");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  if (!extras.empty() && extras.size() != m) {
    return Status::InvalidArgument("extras must be empty or one per provider");
  }

  std::vector<PartyId> parties;
  parties.reserve(m + 1);
  parties.push_back(host_);
  parties.insert(parties.end(), providers_.begin(), providers_.end());
  ProtocolSession session("p4", network_, std::move(parties));
  session.RegisterRng("host", host_rng);
  for (size_t k = 0; k < m; ++k) {
    session.RegisterRng("provider" + std::to_string(k), provider_rngs[k]);
  }
  if (pair_secret_rng != nullptr) {
    session.RegisterRng("pair-secret", pair_secret_rng);
  }
  // The running stage's stream of every provider, in provider order.
  auto provider_stage_rngs = [&session, m]() {
    std::vector<Rng*> rngs(m);
    for (size_t k = 0; k < m; ++k) {
      rngs[k] = session.StageRng("provider" + std::to_string(k));
    }
    return rngs;
  };

  // Stage the per-provider program inputs: the public counter config and
  // each provider's own log, durable in that provider's state from stage 0
  // (so the initial checkpoint and any daemon-shipped restore carry them).
  BinaryWriter cfg;
  cfg.WriteU64(n);
  cfg.WriteU64(config_.h);
  cfg.WriteU64(config_.weight_scale);
  cfg.WriteU8(config_.weights.has_value() ? 1 : 0);
  if (config_.weights.has_value()) {
    cfg.WriteVarU64(config_.weights->w.size());
    for (double w : config_.weights->w) cfg.WriteDouble(w);
  }
  const std::vector<uint8_t> cfg_buf = cfg.TakeBuffer();
  for (size_t k = 0; k < m; ++k) {
    SessionState& st = session.PartyState(providers_[k]);
    st.Put(kKeyExecCfg, cfg_buf);
    StageProviderLog(provider_logs[k], &st);
  }

  // Stage bodies are replayable: inputs come from the parties' SessionStates
  // (written by predecessor stages), randomness only from the stage's own
  // streams. A replay after crash-restart therefore re-derives bitwise the
  // same transcript the fault-free run produces.

  // ---- Steps 1-2: H publishes the obfuscated arc index set Omega_E'. ----
  session.AddStage("omega", [&, this]() -> Status {
    PSI_ASSIGN_OR_RETURN(
        std::vector<Arc> omega,
        ObfuscateArcSet(session.StageRng("host"), host_graph,
                        config_.obfuscation_factor));
    views_.omega = omega;

    network_->BeginRound("P4.Step2 (H -> P_k: Omega_E')");
    auto packed_omega = wire::PackArcs(omega);
    PSI_ASSIGN_OR_RETURN(
        std::vector<ReceivedOmega> received,
        PublishOmega(network_, ProtocolId::kLinkInfluence, host_, providers_,
                     packed_omega, n));
    session.PartyState(host_).Put(kKeyOmega, std::move(packed_omega));
    for (size_t k = 0; k < m; ++k) {
      session.PartyState(providers_[k])
          .Put(kKeyOmega, std::move(received[k].payload));
    }
    return Status::OK();
  });

  // ---- Local: provider counter vectors over [a | numerators]. One stage
  // per provider, each a registered stage program placed on that provider:
  // the base orchestrator (and the simulator) runs it in-process, a
  // RemoteSessionOrchestrator ships it to the provider's own psid daemon.
  // The stage draws no randomness and touches no wire, so the split is
  // transcript-invariant versus the old single "counters" stage. A provider
  // fed Protocol-5 aggregates keeps a plain local body — the aggregates are
  // in-memory only, never serialized into its SessionState.
  for (size_t k = 0; k < m; ++k) {
    const std::string stage_name = "counters-P" + std::to_string(k);
    if (extras.empty() || extras[k] == nullptr) {
      RemoteStageSpec spec;
      spec.party = providers_[k];
      spec.program = kProgramCounters;
      session.AddRemoteStage(stage_name, std::move(spec));
    } else {
      // psi-lint: allow(channel-schedule) the name is a pure function of the provider index k, so it is stable across runs and resumable
      session.AddStage(stage_name, [&, this, k]() -> Status {
        PSI_ASSIGN_OR_RETURN(auto buf,
                             session.PartyState(providers_[k]).Get(kKeyOmega));
        std::vector<Arc> provider_omega;
        PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &provider_omega));
        PSI_ASSIGN_OR_RETURN(
            std::vector<uint64_t> counters,
            ComputeProviderCounterVector(provider_logs[k], n, provider_omega,
                                         config_, extras[k]));
        session.PartyState(providers_[k])
            .Put(kKeyCounters, wire::PackU64s(counters));
        return Status::OK();
      });
    }
  }

  // ---- Steps 3-4: aggregate all n + q counters into integer shares. ----
  session.AddStage("aggregate", [&, this]() -> Status {
    std::vector<std::vector<uint64_t>> inputs(m);
    for (size_t k = 0; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(
          auto buf, session.PartyState(providers_[k]).Get(kKeyCounters));
      PSI_RETURN_NOT_OK(wire::UnpackU64s(buf, &inputs[k]));
    }
    const size_t q = inputs[0].size() - n;

    const BigUInt bound = CounterBound(config_, num_actions_public);

    // Packed Paillier aggregation applies only when the public bound A holds
    // for every actual input (never assume — a violation would silently
    // corrupt neighbouring slots) and a whole slot fits the key. The
    // geometry check runs at paillier_bits - 2 usable bits because the
    // generated modulus may come out one bit short of the nominal size.
    views_.used_packed_aggregation = false;
    views_.packed_slots = 1;
    bool pack = config_.aggregation == P4Aggregation::kPaillierPacked;
    if (pack) {
      for (const auto& v : inputs) {
        for (uint64_t x : v) {
          if (BigUInt(x) > bound) {
            pack = false;  // bound not proven: fall back to Protocol 2.
            break;
          }
        }
        if (!pack) break;
      }
    }
    if (pack && config_.paillier_bits >= 2) {
      pack = HomomorphicSumPackedCodec(config_.paillier_bits - 2, bound, m,
                                       config_.epsilon_log2)
                 .ok();
    }

    BatchedIntegerShares shares;
    if (pack) {
      HomomorphicSumConfig sum_config;
      sum_config.paillier_bits = config_.paillier_bits;
      sum_config.counter_bound = bound;
      sum_config.packing_epsilon_log2 = config_.epsilon_log2;
      HomomorphicSumProtocol hsum(network_, providers_, sum_config);
      PSI_ASSIGN_OR_RETURN(
          shares, hsum.RunInteger(inputs, provider_stage_rngs(), "P4."));
      session.MeterCryptoOps(hsum.last_run_crypto_ops());
      modulus_ = hsum.modulus();
      views_.used_packed_aggregation = true;
      views_.packed_slots = hsum.last_run_slots();
    } else {
      SecureSumProtocol secure_sum = CounterSecureSum(
          network_, host_, providers_, config_, bound, n + q);
      modulus_ = secure_sum.modulus();
      PSI_ASSIGN_OR_RETURN(
          shares,
          secure_sum.RunProtocol2(inputs, provider_stage_rngs(),
                                  session.StageRng("pair-secret"), "P4."));
      views_.secure_sum = secure_sum.TakeViews();
    }
    session.PartyState(providers_[0])
        .Put(kKeyShare1, wire::PackBigUInts(shares.s1));
    session.PartyState(providers_[1])
        .Put(kKeyShare2, wire::PackBigInts(shares.s2));
    return Status::OK();
  });

  // ---- Steps 5-6: joint per-user masks M_i ~ Z and r_i ~ U(0, M_i). ----
  session.AddStage("masks", [&, this]() -> Status {
    PSI_SECRET std::vector<BigUInt> masks;
    PSI_ASSIGN_OR_RETURN(
        masks, DrawJointMasks(network_, providers_[0], providers_[1], n,
                              session.StageRng("provider0"),
                              session.StageRng("provider1"),
                              config_.fraction_bits, "P4."));
    auto packed_masks = wire::PackBigUInts(masks);
    session.PartyState(providers_[0]).Put(kKeyMasks, packed_masks);
    session.PartyState(providers_[1]).Put(kKeyMasks, std::move(packed_masks));
    return Status::OK();
  });

  // ---- Steps 7-8: masked shares travel to H (one message per party). ----
  session.AddStage("masked-shares", [&, this]() -> Status {
    std::vector<Arc> omega;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[0]).Get(kKeyOmega));
      PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &omega));
    }
    const size_t q = omega.size();
    const size_t total = n + q;
    PSI_SECRET std::vector<BigUInt> masks;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[0]).Get(kKeyMasks));
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &masks));
    }
    BatchedIntegerShares shares;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[0]).Get(kKeyShare1));
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &shares.s1));
    }
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[1]).Get(kKeyShare2));
      PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf, &shares.s2));
    }
    if (masks.size() != n || shares.s1.size() != total ||
        shares.s2.size() != total) {
      return Status::Internal("checkpointed stage state has wrong geometry");
    }

    // The user governing counter c: i for a_i (c < n), arc source for pairs.
    BatchedIntegerShares masked =
        MaskShares(shares, [&](size_t c) -> const BigUInt& {
          return c < n ? masks[c] : masks[omega[c - n].from];
        });
    network_->BeginRound("P4.Steps7-8 (masked shares -> H)");
    PSI_ASSIGN_OR_RETURN(HostMaskedShares got,
                         SendMaskedShares(network_, providers_[0],
                                          providers_[1], host_, masked, total));
    session.PartyState(host_).Put(kKeyMasked1, std::move(got.payload1));
    session.PartyState(host_).Put(kKeyMasked2, std::move(got.payload2));
    return Status::OK();
  });

  // ---- Step 9 (local at H): recombine and divide. ----
  LinkInfluence out;
  session.AddStage("recombine", [&, this]() -> Status {
    std::vector<Arc> omega;
    {
      PSI_ASSIGN_OR_RETURN(auto buf, session.PartyState(host_).Get(kKeyOmega));
      PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &omega));
    }
    const size_t q = omega.size();
    const size_t total = n + q;
    BatchedIntegerShares host_masked;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(host_).Get(kKeyMasked1));
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &host_masked.s1));
    }
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(host_).Get(kKeyMasked2));
      PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf, &host_masked.s2));
    }
    PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> recombined,
                         RecombineMaskedShares(host_masked, total));
    // What H "sees" as real numbers: r_i * a_i and r_i * numerator_ij
    // (descaled fixed point).
    const int descale_bits = -static_cast<int>(config_.fraction_bits);
    views_.host_masked_a.resize(n);
    for (size_t i = 0; i < n; ++i) {
      views_.host_masked_a[i] = std::ldexp(recombined[i].ToDouble(), descale_bits);
    }
    views_.host_masked_b.resize(q);
    for (size_t p = 0; p < q; ++p) {
      views_.host_masked_b[p] =
          std::ldexp(recombined[n + p].ToDouble(), descale_bits);
    }

    const double descale = config_.weights.has_value()
                               ? static_cast<double>(config_.weight_scale)
                               : 1.0;
    PSI_ASSIGN_OR_RETURN(out, DivideMaskedCounters(host_graph.arcs(), omega,
                                                   recombined.data(),
                                                   recombined.data() + n, descale));
    return Status::OK();
  });

  SessionOrchestrator local_orchestrator(retry);
  SessionOrchestrator* driver =
      orchestrator != nullptr ? orchestrator : &local_orchestrator;
  Status run = driver->Run(&session);
  if (stats_out != nullptr) *stats_out = driver->stats();
  PSI_RETURN_NOT_OK(run);
  return out;
}

}  // namespace psi
