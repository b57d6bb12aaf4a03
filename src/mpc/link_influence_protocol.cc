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

uint64_t PairKey(NodeId i, NodeId j) {
  return (static_cast<uint64_t>(i) << 32) | j;
}

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
  ActionLog log;
  {
    PSI_ASSIGN_OR_RETURN(const auto buf, st.Get(kKeyExecLog));
    std::vector<ActionRecord> records;
    PSI_RETURN_NOT_OK(wire::UnpackRecords(buf, &records));
    for (const ActionRecord& rec : records) log.Add(rec);
  }

  PSI_ASSIGN_OR_RETURN(std::vector<uint64_t> counters,
                       ComputeProviderCounterVector(log, num_users,
                                                    provider_omega, cfg,
                                                    /*extra=*/nullptr));
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
  std::vector<uint64_t> counters;
  counters.reserve(num_users + pairs.size());

  // Denominator block: a_i.
  auto a = ComputeActionCounts(log, num_users);
  if (extra != nullptr) {
    if (extra->a.size() != num_users) {
      return Status::InvalidArgument("extra counters sized for wrong n");
    }
    for (size_t i = 0; i < num_users; ++i) a[i] += extra->a[i];
  }
  counters.insert(counters.end(), a.begin(), a.end());

  // Numerator block: b^h_ij (Eq. 1) or scaled sum_l W_l c^l_ij (Eq. 2).
  if (!config.weights.has_value()) {
    auto b = ComputeFollowCounts(log, pairs, config.h);
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
    auto c = ComputeExactDelayCounts(log, pairs, config.h);
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
    st.Put(kKeyExecLog, wire::PackRecords(provider_logs[k].records()));
  }

  // Stage bodies are replayable: inputs come from the parties' SessionStates
  // (written by predecessor stages), randomness only from registered RNGs.
  // A replay after crash-restart therefore re-derives bitwise the same
  // transcript the fault-free run produces.

  // ---- Steps 1-2: H publishes the obfuscated arc index set Omega_E'. ----
  session.AddStage("omega", [&, this]() -> Status {
    PSI_ASSIGN_OR_RETURN(
        std::vector<Arc> omega,
        ObfuscateArcSet(host_rng, host_graph, config_.obfuscation_factor));
    views_.omega = omega;

    network_->BeginRound("P4.Step2 (H -> P_k: Omega_E')");
    auto packed_omega = wire::PackArcs(omega);
    for (size_t k = 0; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->SendFramed(host_, providers_[k],
                                             ProtocolId::kLinkInfluence,
                                             kStepOmega, packed_omega));
    }
    session.PartyState(host_).Put(kKeyOmega, packed_omega);
    // Every provider decodes and validates the arc set it received.
    for (size_t k = 0; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(providers_[k], host_,
                                            ProtocolId::kLinkInfluence,
                                            kStepOmega));
      std::vector<Arc> provider_omega;
      PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &provider_omega));
      for (const Arc& a : provider_omega) {
        if (a.from >= n || a.to >= n) {
          return Status::ProtocolError("Omega_E' arc endpoint out of range");
        }
      }
      session.PartyState(providers_[k]).Put(kKeyOmega, std::move(buf));
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

    // Counter bound A (public): |A| actions, times the weight scale ceiling
    // for the Eq. (2) variant.
    BigUInt bound(num_actions_public);
    if (config_.weights.has_value()) {
      bound = bound * BigUInt(config_.weight_scale) * BigUInt(config_.h);
    }

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
          shares, hsum.RunInteger(inputs, provider_rngs, "P4."));
      session.MeterCryptoOps(hsum.last_run_crypto_ops());
      modulus_ = hsum.modulus();
      views_.used_packed_aggregation = true;
      views_.packed_slots = hsum.last_run_slots();
    } else {
      modulus_ = config_.modulus_s.has_value()
                     ? *config_.modulus_s
                     : RecommendedModulus(bound, n + q, config_.epsilon_log2);
      SecureSumConfig sum_config;
      sum_config.modulus_s = modulus_;
      sum_config.input_bound_a = bound;
      sum_config.use_secret_permutation = config_.use_secret_permutation;
      PartyId third_party = (m > 2) ? providers_[2] : host_;
      SecureSumProtocol secure_sum(network_, providers_, third_party,
                                   sum_config);
      PSI_ASSIGN_OR_RETURN(
          shares,
          secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng,
                                  "P4."));
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
    PSI_ASSIGN_OR_RETURN(
        auto u_m, JointUniformBatch(network_, providers_[0], providers_[1], n,
                                    provider_rngs[0], provider_rngs[1],
                                    "P4.Step5 (joint M_i)"));
    std::vector<double> m_values = ToZDistribution(u_m);
    PSI_ASSIGN_OR_RETURN(
        auto u_r, JointUniformBatch(network_, providers_[0], providers_[1], n,
                                    provider_rngs[0], provider_rngs[1],
                                    "P4.Step6 (joint r_i)"));
    PSI_ASSIGN_OR_RETURN(auto r_values, ToUniformBelow(u_r, m_values));

    // Fixed-point masks R_i = floor(r_i * 2^fraction_bits), never zero.
    PSI_SECRET std::vector<BigUInt> masks;
    masks.resize(n);
    for (size_t i = 0; i < n; ++i) {
      PSI_ASSIGN_OR_RETURN(
          masks[i],
          BigUIntFromDouble(
              std::ldexp(r_values[i],
                         static_cast<int>(config_.fraction_bits))));
      // psi-lint: allow(secret-flow) zero test only nudges the mask to 1 so the later division is defined; it leaks one bit with probability ~2^-fraction_bits
      if (masks[i].IsZero()) masks[i] = BigUInt(1);
    }
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
    std::vector<BigUInt> s1;
    std::vector<BigInt> s2;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[0]).Get(kKeyShare1));
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &s1));
    }
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(providers_[1]).Get(kKeyShare2));
      PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf, &s2));
    }
    if (masks.size() != n || s1.size() != total || s2.size() != total) {
      return Status::Internal("checkpointed stage state has wrong geometry");
    }

    // The user governing counter c: i for a_i (c < n), arc source for pairs.
    auto mask_of_counter = [&](size_t c) -> const BigUInt& {
      return c < n ? masks[c] : masks[omega[c - n].from];
    };

    // Pure big-integer products over already-drawn masks: the per-link loop
    // fans out with no effect on the transcript.
    std::vector<BigUInt> masked1(total);
    std::vector<BigInt> masked2(total);
    ParallelFor(total, [&](size_t c) {
      masked1[c] = mask_of_counter(c) * s1[c];
      masked2[c] = BigInt(mask_of_counter(c)) * s2[c];
    });
    network_->BeginRound("P4.Steps7-8 (masked shares -> H)");
    PSI_RETURN_NOT_OK(network_->SendFramed(providers_[0], host_,
                                           ProtocolId::kLinkInfluence,
                                           kStepMaskedShares,
                                           wire::PackBigUInts(masked1)));
    PSI_RETURN_NOT_OK(network_->SendFramed(providers_[1], host_,
                                           ProtocolId::kLinkInfluence,
                                           kStepMaskedShares,
                                           wire::PackBigInts(masked2)));
    PSI_ASSIGN_OR_RETURN(
        auto buf1, network_->RecvValidated(host_, providers_[0],
                                           ProtocolId::kLinkInfluence,
                                           kStepMaskedShares));
    PSI_ASSIGN_OR_RETURN(
        auto buf2, network_->RecvValidated(host_, providers_[1],
                                           ProtocolId::kLinkInfluence,
                                           kStepMaskedShares));
    {
      std::vector<BigUInt> host_m1;
      std::vector<BigInt> host_m2;
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf1, &host_m1));
      PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf2, &host_m2));
      if (host_m1.size() != total || host_m2.size() != total) {
        return Status::ProtocolError("masked share vectors have wrong length");
      }
    }
    session.PartyState(host_).Put(kKeyMasked1, std::move(buf1));
    session.PartyState(host_).Put(kKeyMasked2, std::move(buf2));
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
    std::vector<BigUInt> host_m1;
    std::vector<BigInt> host_m2;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(host_).Get(kKeyMasked1));
      PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &host_m1));
    }
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(host_).Get(kKeyMasked2));
      PSI_RETURN_NOT_OK(wire::UnpackBigInts(buf, &host_m2));
    }
    if (host_m1.size() != total || host_m2.size() != total) {
      return Status::ProtocolError("masked share vectors have wrong length");
    }

    // Recombined masked counters: R_i * a_i and R_i * numerator_ij, exact.
    std::vector<BigUInt> masked_a(n), masked_b(q);
    PSI_RETURN_NOT_OK(ParallelForStatus(total, [&](size_t c) -> Status {
      BigInt value = BigInt(host_m1[c]) + host_m2[c];
      if (value.IsNegative()) {
        return Status::ProtocolError("negative recombined masked counter");
      }
      if (c < n) {
        masked_a[c] = value.magnitude();
      } else {
        masked_b[c - n] = value.magnitude();
      }
      return Status::OK();
    }));
    views_.host_masked_a.resize(n);
    for (size_t i = 0; i < n; ++i) {
      // What H "sees" as a real number: r_i * a_i (descaled fixed point).
      views_.host_masked_a[i] = std::ldexp(
          masked_a[i].ToDouble(), -static_cast<int>(config_.fraction_bits));
    }
    views_.host_masked_b.resize(q);
    for (size_t p = 0; p < q; ++p) {
      views_.host_masked_b[p] = std::ldexp(
          masked_b[p].ToDouble(), -static_cast<int>(config_.fraction_bits));
    }

    // H evaluates quotients only for the genuine arcs of E.
    std::unordered_map<uint64_t, size_t> omega_index;
    omega_index.reserve(q);
    for (size_t p = 0; p < q; ++p) {
      omega_index.emplace(PairKey(omega[p].from, omega[p].to), p);
    }

    out.pairs = host_graph.arcs();
    out.p.resize(out.pairs.size());
    const double descale = config_.weights.has_value()
                               ? static_cast<double>(config_.weight_scale)
                               : 1.0;
    for (size_t e = 0; e < out.pairs.size(); ++e) {
      const Arc& arc = out.pairs[e];
      auto it = omega_index.find(PairKey(arc.from, arc.to));
      if (it == omega_index.end()) {
        return Status::ProtocolError("arc of E missing from Omega_E'");
      }
      const BigUInt& denom = masked_a[arc.from];
      if (denom.IsZero()) {
        out.p[e] = 0.0;
      } else {
        out.p[e] = DivideToDouble(masked_b[it->second], denom) / descale;
      }
    }
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
