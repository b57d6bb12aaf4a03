#include "mpc/propagation_protocol.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/annotations.h"
#include "common/serialize.h"
#include "crypto/packing.h"
#include "graph/generators.h"
#include "mpc/wire.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kPropagationGraph frames.
constexpr uint16_t kStepOmega = 2;       // H -> P_k: Omega_E'.
constexpr uint16_t kStepPublicKey = 3;   // H -> P_k: RSA public key.
constexpr uint16_t kStepDeltas = 4;      // P_k -> P1: E(Delta) bundles.
constexpr uint16_t kStepAggregate = 10;  // P1 -> H: concatenated bundles.

// SessionState keys of the checkpointed stage machine. The host's RSA
// private key lives only in its durable state (and the in-memory keypair);
// it never crosses the wire.
constexpr char kKeyOmega[] = "omega";
constexpr char kKeyPublicKey[] = "pubkey";
constexpr char kKeyPrivateKey[] = "rsa-key";
constexpr char kKeyPayload[] = "payload";
constexpr char kKeyDeltas[] = "deltas";
// Stage-program inputs staged into each provider's state before the run:
// the public encryption config and the provider's own action log. They
// checkpoint (and ship to the provider's daemon) with everything else.
constexpr char kKeyExecCfg[] = "exec.cfg";
constexpr char kKeyExecLog[] = "exec.log";

// Registry name of the per-provider encryption stage program.
constexpr char kProgramEncrypt[] = "p6/encrypt";

// Serializes only the public half of the key pair: the output is wire-bound
// by definition, so the packer declassifies the keygen-derived taint.
PSI_SANITIZES std::vector<uint8_t> PackPublicKey(const RsaPublicKey& key) {
  BinaryWriter w;
  WriteBigUInt(&w, key.n);
  WriteBigUInt(&w, key.e);
  return w.TakeBuffer();
}

[[nodiscard]] Status UnpackPublicKey(const std::vector<uint8_t>& buf, RsaPublicKey* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->n));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->e));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  if (out->n.IsZero() || out->e.IsZero()) {
    return Status::ProtocolError("received a degenerate RSA public key");
  }
  return Status::OK();
}

// Checkpoint codec for the host's private key (CRT values included, so a
// restarted host decrypts at full speed). Durable-storage only.
std::vector<uint8_t> PackPrivateKey(const RsaPrivateKey& key) {
  BinaryWriter w;
  WriteBigUInt(&w, key.n);
  WriteBigUInt(&w, key.d);
  WriteBigUInt(&w, key.p);
  WriteBigUInt(&w, key.q);
  WriteBigUInt(&w, key.d_mod_p1);
  WriteBigUInt(&w, key.d_mod_q1);
  WriteBigUInt(&w, key.q_inv_p);
  return w.TakeBuffer();
}

[[nodiscard]] Status UnpackPrivateKey(const std::vector<uint8_t>& buf,
                                      RsaPrivateKey* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->n));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->d));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->p));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->q));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->d_mod_p1));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->d_mod_q1));
  PSI_RETURN_NOT_OK(ReadBigUInt(&r, &out->q_inv_p));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  if (out->n.IsZero() || out->d.IsZero()) {
    return Status::SerializationError("checkpointed RSA key is degenerate");
  }
  return Status::OK();
}

// Encrypted Delta vector of one action, as serialized on the wire.
constexpr uint8_t kModePerInteger = 0;
constexpr uint8_t kModeHybrid = 1;
constexpr uint8_t kModePacked = 2;

// Both endpoints derive the packed geometry from the published modulus and
// the public Delta bound: one slot per Delta, low 64 bits reserved for the
// randomizer pad (same randomization as kPerInteger, amortized over k
// slots). InvalidArgument when no whole slot fits z - 65 bits.
[[nodiscard]] Result<PackingCodec> DeltaPackingCodec(const BigUInt& rsa_modulus,
                                       uint64_t delta_bound) {
  return PackingCodec::Create(rsa_modulus.BitLength() - 1,
                              BigUInt(delta_bound),
                              /*max_additions=*/1, /*pad_bits=*/64);
}

// `crypto_ops` accumulates RSA exponentiations for the session ledger.
[[nodiscard]] Status EncryptDeltaVector(const RsaPublicKey& key,
                          Protocol6Config::EncryptionMode mode,
                          const PackingCodec* codec, uint64_t delta_bound,
                          uint32_t action, const std::vector<uint64_t>& delta,
                          Rng* rng, BinaryWriter* w, uint64_t* crypto_ops) {
  w->WriteU32(action);
  if (mode == Protocol6Config::EncryptionMode::kPackedInteger) {
    // The bound is public but this provider's Deltas are not guaranteed to
    // obey it; a violation downgrades this one vector to kPerInteger
    // (slot corruption is never an option).
    bool bounded = codec != nullptr;
    for (uint64_t d : delta) {
      if (d > delta_bound) {
        bounded = false;
        break;
      }
    }
    if (bounded) {
      w->WriteU8(kModePacked);
      w->WriteVarU64(delta.size());
      const size_t num_ct = codec->NumPlaintexts(delta.size());
      // Pads are drawn serially in wire order (determinism contract); only
      // the RSA exponentiations fan out.
      std::vector<BigUInt> counters(delta.size());
      for (size_t i = 0; i < delta.size(); ++i) counters[i] = BigUInt(delta[i]);
      std::vector<BigUInt> pads(num_ct);
      for (auto& p : pads) p = BigUInt(rng->NextU64());
      PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> plain,
                           codec->Pack(counters, pads));
      PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> cts,
                           RsaEncryptBatch(key, plain));
      for (const BigUInt& c : cts) WriteBigUInt(w, c);
      *crypto_ops += cts.size();
      return Status::OK();
    }
    mode = Protocol6Config::EncryptionMode::kPerInteger;
  }
  if (mode == Protocol6Config::EncryptionMode::kPerInteger) {
    w->WriteU8(kModePerInteger);
    w->WriteVarU64(delta.size());
    // Randomized encoding: (Delta << 64) | 64 random bits, so equal
    // plaintexts yield unequal ciphertexts under deterministic RSA. The
    // low-bit draws stay in link order; only the RSA exponentiations fan
    // out, and the ciphertexts are serialized back in link order.
    std::vector<BigUInt> plain(delta.size());
    for (size_t i = 0; i < delta.size(); ++i) {
      plain[i] = (BigUInt(delta[i]) << 64) + BigUInt(rng->NextU64());
    }
    PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> cts, RsaEncryptBatch(key, plain));
    for (const BigUInt& c : cts) WriteBigUInt(w, c);
    *crypto_ops += cts.size();
  } else {
    w->WriteU8(kModeHybrid);
    BinaryWriter plain;
    plain.WriteVarU64(delta.size());
    for (uint64_t d : delta) plain.WriteVarU64(d);
    PSI_ASSIGN_OR_RETURN(HybridCiphertext ct,
                         HybridEncrypt(key, plain.buffer(), rng));
    WriteBigUInt(w, ct.encapsulated_key);
    w->WriteBytes(ct.nonce);
    w->WriteBytes(ct.payload);
    *crypto_ops += 1;  // one RSA-KEM exponentiation per vector
  }
  return Status::OK();
}

[[nodiscard]] Status DecryptDeltaVector(const RsaPrivateKey& key, const PackingCodec* codec,
                          BinaryReader* r, uint32_t* action,
                          std::vector<uint64_t>* delta, uint64_t* crypto_ops) {
  PSI_RETURN_NOT_OK(r->ReadU32(action));
  uint8_t mode;
  PSI_RETURN_NOT_OK(r->ReadU8(&mode));
  if (mode == kModePacked) {
    if (codec == nullptr) {
      return Status::ProtocolError("packed mode byte but packing not enabled");
    }
    uint64_t count;
    PSI_RETURN_NOT_OK(r->ReadCount(&count));
    const size_t num_ct = codec->NumPlaintexts(count);
    std::vector<BigUInt> cts(num_ct);
    for (auto& c : cts) PSI_RETURN_NOT_OK(ReadBigUInt(r, &c));
    PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> plain,
                         RsaDecryptBatch(key, cts));
    *crypto_ops += num_ct;
    PSI_ASSIGN_OR_RETURN(*delta, codec->UnpackU64(plain, count));
    return Status::OK();
  }
  if (mode == kModePerInteger) {
    uint64_t count;
    PSI_RETURN_NOT_OK(r->ReadCount(&count));
    delta->resize(count);
    // Deserialize in wire order, then batch-decrypt. The first failing
    // index decides the error, whether its ciphertext is out of range or
    // its plaintext does not fit: decrypt the in-range prefix, check its
    // plaintexts in order, then report the out-of-range ciphertext.
    std::vector<BigUInt> cts(delta->size());
    for (auto& c : cts) PSI_RETURN_NOT_OK(ReadBigUInt(r, &c));
    const auto bad = std::find_if(cts.begin(), cts.end(), [&](const BigUInt& c) {
      return c >= key.n;
    });
    const size_t in_range = static_cast<size_t>(bad - cts.begin());
    PSI_ASSIGN_OR_RETURN(
        std::vector<BigUInt> plain,
        RsaDecryptBatch(key, std::span<const BigUInt>(cts).first(in_range)));
    for (size_t i = 0; i < in_range; ++i) {
      PSI_ASSIGN_OR_RETURN((*delta)[i], (plain[i] >> 64).ToUint64());
    }
    if (bad != cts.end()) return RsaDecrypt(key, *bad).status();
    *crypto_ops += cts.size();
  } else if (mode == kModeHybrid) {
    HybridCiphertext ct;
    PSI_RETURN_NOT_OK(ReadBigUInt(r, &ct.encapsulated_key));
    PSI_RETURN_NOT_OK(r->ReadBytes(&ct.nonce));
    PSI_RETURN_NOT_OK(r->ReadBytes(&ct.payload));
    PSI_ASSIGN_OR_RETURN(auto plain, HybridDecrypt(key, ct));
    *crypto_ops += 1;
    BinaryReader pr(plain);
    uint64_t count;
    PSI_RETURN_NOT_OK(pr.ReadCount(&count));
    delta->resize(count);
    for (auto& d : *delta) PSI_RETURN_NOT_OK(pr.ReadVarU64(&d));
  } else {
    return Status::ProtocolError("unknown encryption mode byte");
  }
  return Status::OK();
}

// One provider's Steps 4-8: compute the Delta vector of every owned action
// over Omega_E' and encrypt it under H's public key. A pure function of the
// provider's SessionState (omega, pubkey, exec.cfg, exec.log) and its one
// RNG stream — which is what lets it run in-process, on the provider's psid
// daemon, or replayed after a crash with bitwise-identical output.
[[nodiscard]] Status EncryptStageProgram(StageProgramContext* ctx) {
  if (ctx->state == nullptr || ctx->rngs.size() != 1) {
    return Status::FailedPrecondition(
        "p6/encrypt wants one party state and exactly one RNG stream");
  }
  SessionState& st = *ctx->state;

  PSI_ASSIGN_OR_RETURN(const std::vector<uint8_t> cfg_buf, st.Get(kKeyExecCfg));
  BinaryReader cr(cfg_buf);
  uint8_t mode_byte = 0;
  uint64_t delta_bound = 0;
  PSI_RETURN_NOT_OK(cr.ReadU8(&mode_byte));
  PSI_RETURN_NOT_OK(cr.ReadU64(&delta_bound));
  if (!cr.AtEnd() || mode_byte > 2) {
    return Status::SerializationError("p6/encrypt: malformed exec.cfg");
  }
  const auto mode = static_cast<Protocol6Config::EncryptionMode>(mode_byte);

  std::vector<Arc> provider_omega;
  {
    PSI_ASSIGN_OR_RETURN(const auto buf, st.Get(kKeyOmega));
    PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &provider_omega));
  }
  RsaPublicKey pub;
  {
    PSI_ASSIGN_OR_RETURN(const auto buf, st.Get(kKeyPublicKey));
    PSI_RETURN_NOT_OK(UnpackPublicKey(buf, &pub));
  }
  // Packed geometry, derived from the published modulus and the public
  // Delta bound. When no whole slot fits the key the provider downgrades
  // to per-integer ciphertexts (codec stays null).
  std::optional<PackingCodec> codec;
  if (mode == Protocol6Config::EncryptionMode::kPackedInteger) {
    auto codec_or = DeltaPackingCodec(pub.n, delta_bound);
    if (codec_or.ok()) codec = *codec_or;
  }
  const PackingCodec* codec_ptr = codec.has_value() ? &*codec : nullptr;

  ActionLog log;
  {
    PSI_ASSIGN_OR_RETURN(const auto buf, st.Get(kKeyExecLog));
    std::vector<ActionRecord> records;
    PSI_RETURN_NOT_OK(wire::UnpackRecords(buf, &records));
    for (const ActionRecord& rec : records) log.Add(rec);
  }

  BinaryWriter w;
  uint64_t ops = 0;
  // Actions controlled by this provider: those appearing in its log
  // (exclusive case).
  std::unordered_set<ActionId> owned;
  for (const auto& rec : log.records()) owned.insert(rec.action);
  std::vector<ActionId> owned_sorted(owned.begin(), owned.end());
  std::sort(owned_sorted.begin(), owned_sorted.end());
  w.WriteVarU64(owned_sorted.size());
  for (ActionId action : owned_sorted) {
    std::vector<uint64_t> delta(provider_omega.size(), 0);
    for (size_t p = 0; p < provider_omega.size(); ++p) {
      const Arc& arc = provider_omega[p];
      uint64_t ti, tj;
      if (log.Lookup(arc.from, action, &ti) &&
          log.Lookup(arc.to, action, &tj) && tj > ti) {
        delta[p] = tj - ti;
      }
    }
    PSI_RETURN_NOT_OK(EncryptDeltaVector(pub, mode, codec_ptr, delta_bound,
                                         action, delta, ctx->rngs[0], &w,
                                         &ops));
  }
  st.Put(kKeyPayload, w.TakeBuffer());
  ctx->crypto_ops += ops;
  return Status::OK();
}

}  // namespace

void RegisterPropagationStagePrograms() {
  static std::once_flag once;
  std::call_once(once, [] {
    StageProgramRegistry::Global().Register(kProgramEncrypt,
                                            EncryptStageProgram);
  });
}

PropagationGraphProtocol::PropagationGraphProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    Protocol6Config config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(config) {}

Result<Protocol6Output> PropagationGraphProtocol::Run(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs) {
  RetryPolicy single_attempt;
  single_attempt.max_attempts = 1;
  return RunSession(host_graph, num_actions, provider_logs, host_rng,
                    provider_rngs, single_attempt, /*stats_out=*/nullptr);
}

Result<Protocol6Output> PropagationGraphProtocol::RunSession(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, const RetryPolicy& retry,
    SessionStats* stats_out, SessionOrchestrator* orchestrator) {
  RegisterPropagationStagePrograms();
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("Protocol 6 needs >= 2 providers");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }

  std::vector<PartyId> parties;
  parties.reserve(m + 1);
  parties.push_back(host_);
  parties.insert(parties.end(), providers_.begin(), providers_.end());
  ProtocolSession session("p6", network_, std::move(parties));
  session.RegisterRng("host", host_rng);
  for (size_t k = 0; k < m; ++k) {
    session.RegisterRng("provider" + std::to_string(k), provider_rngs[k]);
  }

  // Stage the per-provider program inputs: the public encryption config and
  // each provider's own log, durable in that provider's state from stage 0
  // (so the initial checkpoint and any daemon-shipped restore carry them).
  BinaryWriter cfg;
  cfg.WriteU8(static_cast<uint8_t>(config_.encryption));
  cfg.WriteU64(config_.packed_delta_bound);
  const std::vector<uint8_t> cfg_buf = cfg.TakeBuffer();
  for (size_t k = 0; k < m; ++k) {
    SessionState& st = session.PartyState(providers_[k]);
    st.Put(kKeyExecCfg, cfg_buf);
    st.Put(kKeyExecLog, wire::PackRecords(provider_logs[k].records()));
  }

  // ---- Steps 1-2: H publishes Omega_E'. ----
  session.AddStage("omega", [&, this]() -> Status {
    PSI_ASSIGN_OR_RETURN(
        std::vector<Arc> omega,
        ObfuscateArcSet(session.StageRng("host"), host_graph,
                        config_.obfuscation_factor));
    views_.omega = omega;

    network_->BeginRound("P6.Step2 (H -> P_k: Omega_E')");
    auto packed_omega = wire::PackArcs(omega);
    for (size_t k = 0; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->SendFramed(host_, providers_[k],
                                             ProtocolId::kPropagationGraph,
                                             kStepOmega, packed_omega));
    }
    session.PartyState(host_).Put(kKeyOmega, packed_omega);
    for (size_t k = 0; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(providers_[k], host_,
                                            ProtocolId::kPropagationGraph,
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

  // ---- Step 3: H generates a key pair and publishes its public half. ----
  session.AddStage("keygen", [&, this]() -> Status {
    PSI_ASSIGN_OR_RETURN(RsaKeyPair keys,
                         RsaGenerateKeyPair(session.StageRng("host"),
                                            config_.rsa_bits));
    session.MeterCryptoOps(1);  // key generation
    session.PartyState(host_).Put(kKeyPrivateKey,
                                  PackPrivateKey(keys.private_key));
    network_->BeginRound("P6.Step3 (H -> P_k: public key)");
    auto packed_key = PackPublicKey(keys.public_key);
    for (size_t k = 0; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->SendFramed(host_, providers_[k],
                                             ProtocolId::kPropagationGraph,
                                             kStepPublicKey, packed_key));
    }
    for (size_t k = 0; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(providers_[k], host_,
                                            ProtocolId::kPropagationGraph,
                                            kStepPublicKey));
      RsaPublicKey pub;
      PSI_RETURN_NOT_OK(UnpackPublicKey(buf, &pub));
      session.PartyState(providers_[k]).Put(kKeyPublicKey, std::move(buf));
    }
    return Status::OK();
  });

  // ---- Steps 4-8 (local): providers encrypt their Delta vectors. One
  // stage per provider, each a registered stage program placed on that
  // provider: the base orchestrator (and the simulator) runs it in-process,
  // a RemoteSessionOrchestrator ships it to the provider's own psid daemon.
  // Each draws from its own provider's stream for its own stage.
  for (size_t k = 0; k < m; ++k) {
    RemoteStageSpec spec;
    spec.party = providers_[k];
    spec.program = kProgramEncrypt;
    spec.rng_labels = {"provider" + std::to_string(k)};
    session.AddRemoteStage("encrypt-P" + std::to_string(k), std::move(spec));
  }

  // ---- Steps 4-10 (wire): bundles route via P1, who sees only bytes. ----
  session.AddStage("relay", [&, this]() -> Status {
    network_->BeginRound("P6.Steps4-9 (P_k -> P_1: E(Delta))");
    for (size_t k = 1; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(auto payload,
                           session.PartyState(providers_[k]).Get(kKeyPayload));
      PSI_RETURN_NOT_OK(network_->SendFramed(providers_[k], providers_[0],
                                             ProtocolId::kPropagationGraph,
                                             kStepDeltas, payload));
    }
    // P1 collects and forwards. Reset the relay counters so a replayed
    // stage observes the same totals as the fault-free run.
    views_.p1_relayed_bytes = 0;
    PSI_ASSIGN_OR_RETURN(std::vector<uint8_t> aggregate,
                         session.PartyState(providers_[0]).Get(kKeyPayload));
    for (size_t k = 1; k < m; ++k) {
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(providers_[0], providers_[k],
                                            ProtocolId::kPropagationGraph,
                                            kStepDeltas));
      views_.p1_relayed_bytes += buf.size();
      aggregate.insert(aggregate.end(), buf.begin(), buf.end());
    }
    network_->BeginRound("P6.Step10 (P_1 -> H: all E(Delta))");
    PSI_RETURN_NOT_OK(network_->SendFramed(providers_[0], host_,
                                           ProtocolId::kPropagationGraph,
                                           kStepAggregate, aggregate));
    PSI_ASSIGN_OR_RETURN(
        auto all, network_->RecvValidated(host_, providers_[0],
                                          ProtocolId::kPropagationGraph,
                                          kStepAggregate));
    session.PartyState(host_).Put(kKeyDeltas, std::move(all));
    return Status::OK();
  });

  // ---- Steps 11-12 (local at H): decrypt and assemble the PG(alpha). ----
  Protocol6Output out;
  session.AddStage("decode", [&, this]() -> Status {
    RsaPrivateKey priv;
    {
      PSI_ASSIGN_OR_RETURN(auto buf,
                           session.PartyState(host_).Get(kKeyPrivateKey));
      PSI_RETURN_NOT_OK(UnpackPrivateKey(buf, &priv));
    }
    std::vector<Arc> omega;
    {
      PSI_ASSIGN_OR_RETURN(auto buf, session.PartyState(host_).Get(kKeyOmega));
      PSI_RETURN_NOT_OK(wire::UnpackArcs(buf, &omega));
    }
    const size_t q = omega.size();
    std::optional<PackingCodec> codec;
    if (config_.encryption ==
        Protocol6Config::EncryptionMode::kPackedInteger) {
      auto codec_or = DeltaPackingCodec(priv.n, config_.packed_delta_bound);
      if (codec_or.ok()) codec = *codec_or;
    }
    const PackingCodec* codec_ptr = codec.has_value() ? &*codec : nullptr;

    PSI_ASSIGN_OR_RETURN(auto all, session.PartyState(host_).Get(kKeyDeltas));
    BinaryReader reader(all);
    out.graphs.assign(num_actions, PropagationGraph(host_graph.num_nodes()));
    views_.p1_relayed_ciphertexts = 0;
    uint64_t ops = 0;
    size_t providers_read = 0;
    while (providers_read < m) {
      uint64_t action_count;
      // Each action entry is at least 5 bytes (action id + mode byte).
      PSI_RETURN_NOT_OK(reader.ReadCount(&action_count,
                                         /*min_bytes_per_element=*/5));
      for (uint64_t i = 0; i < action_count; ++i) {
        uint32_t action;
        std::vector<uint64_t> delta;
        PSI_RETURN_NOT_OK(DecryptDeltaVector(priv, codec_ptr, &reader,
                                             &action, &delta, &ops));
        ++views_.p1_relayed_ciphertexts;
        if (action >= num_actions) {
          return Status::ProtocolError("action id out of declared range");
        }
        if (delta.size() != q) {
          return Status::ProtocolError("Delta vector length mismatch");
        }
        for (size_t p = 0; p < q; ++p) {
          // Only genuine arcs of E become PG arcs; decoys are discarded.
          if (delta[p] > 0 && host_graph.HasArc(omega[p].from, omega[p].to)) {
            PSI_RETURN_NOT_OK(out.graphs[action].AddArc(
                omega[p].from, omega[p].to, delta[p]));
          }
        }
      }
      ++providers_read;
    }
    session.MeterCryptoOps(ops);
    if (!reader.AtEnd()) {
      return Status::ProtocolError("trailing bytes in aggregated payload");
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
