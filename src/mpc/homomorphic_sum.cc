#include "mpc/homomorphic_sum.h"

#include <utility>

#include "bigint/modular.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "mpc/wire.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kHomomorphicSum frames.
constexpr uint16_t kStepPublishKey = 1;
constexpr uint16_t kStepCiphertexts = 2;
constexpr uint16_t kStepAggregate = 3;

// The per-slot mask range: rho_c uniform in [0, B * m * 2^eps). The slot sum
// a P1 observes is sum_k x_k + rho_c with sum_k x_k <= B * m, so the
// statistical distance from a view independent of the inputs is <= 2^-eps.
BigUInt PackedMaskBound(const BigUInt& counter_bound, size_t num_players,
                        uint64_t epsilon_log2) {
  return (counter_bound * BigUInt(static_cast<uint64_t>(num_players)))
         << epsilon_log2;
}

}  // namespace

Result<PackingCodec> HomomorphicSumPackedCodec(size_t plaintext_bits,
                                               const BigUInt& counter_bound,
                                               size_t num_players,
                                               uint64_t epsilon_log2) {
  if (num_players < 2) {
    return Status::InvalidArgument("need at least two players");
  }
  if (counter_bound.IsZero()) {
    return Status::InvalidArgument("counter bound must be positive");
  }
  // Slot addends are the m - 1 ciphertexts P2 folds together. The largest
  // single addend is P2's own x_2 + rho_c <= counter_bound + mask bound, so
  // that is the codec's per-value bound; max_additions = m (>= m - 1) keeps
  // the guard bits comfortable.
  BigUInt mask_bound =
      PackedMaskBound(counter_bound, num_players, epsilon_log2);
  return PackingCodec::Create(plaintext_bits, mask_bound + counter_bound,
                              /*max_additions=*/num_players);
}

HomomorphicSumProtocol::HomomorphicSumProtocol(Network* network,
                                               std::vector<PartyId> players,
                                               HomomorphicSumConfig config)
    : network_(network),
      players_(std::move(players)),
      config_(std::move(config)) {}

Status HomomorphicSumProtocol::ValidateInputs(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs) const {
  const size_t m = players_.size();
  if (m < 2) return Status::InvalidArgument("need at least two players");
  if (inputs.size() != m || player_rngs.size() != m) {
    return Status::InvalidArgument("one input vector and rng per player");
  }
  const size_t count = inputs[0].size();
  for (const auto& v : inputs) {
    if (v.size() != count) {
      return Status::InvalidArgument("all input vectors must share a length");
    }
  }
  return Status::OK();
}

bool HomomorphicSumProtocol::PackingApplies(
    const std::vector<std::vector<uint64_t>>& inputs) const {
  if (!config_.counter_bound.has_value()) return false;
  const BigUInt& bound = *config_.counter_bound;
  if (bound.IsZero()) return false;
  for (const auto& v : inputs) {
    for (uint64_t x : v) {
      if (BigUInt(x) > bound) return false;  // bound not proven: fall back.
    }
  }
  return true;
}

Result<BatchedModularShares> HomomorphicSumProtocol::Run(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  return DrainOnError(network_, RunImpl(inputs, player_rngs, label_prefix));
}

Result<BatchedIntegerShares> HomomorphicSumProtocol::RunInteger(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  return DrainOnError(network_,
                      RunIntegerImpl(inputs, player_rngs, label_prefix));
}

Result<BatchedModularShares> HomomorphicSumProtocol::RunImpl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_RETURN_NOT_OK(ValidateInputs(inputs, player_rngs));
  last_run_packed_ = false;
  last_run_slots_ = 1;
  last_run_crypto_ops_ = 0;
  if (!PackingApplies(inputs)) {
    return RunUnpacked(inputs, player_rngs, label_prefix);
  }
  // The packing geometry needs the generated modulus' exact bit length, and
  // both paths generate the key first (identical RNG draws), so the final
  // packed-vs-unpacked decision happens after keygen.
  PSI_ASSIGN_OR_RETURN(
      PaillierKeyPair keys,
      PaillierGenerateKeyPair(player_rngs[0], config_.paillier_bits));
  ++last_run_crypto_ops_;  // keygen
  auto codec_or = HomomorphicSumPackedCodec(
      keys.public_key.n.BitLength() - 1, *config_.counter_bound,
      players_.size(), config_.packing_epsilon_log2);
  if (!codec_or.ok()) {
    // No whole slot fits this key size: run the classic path on this key.
    return RunUnpacked(keys, inputs, player_rngs, label_prefix);
  }
  PSI_ASSIGN_OR_RETURN(PackedOutcome packed,
                       RunPacked(keys, *codec_or, inputs, player_rngs,
                                 label_prefix));
  const size_t count = inputs[0].size();
  const BigUInt& N = keys.public_key.n;
  BatchedModularShares out;
  out.s1.resize(count);
  out.s2.resize(count);
  for (size_t c = 0; c < count; ++c) {
    // psi-lint: allow(secret-flow) operands are the public modulus and an already-masked share
    out.s1[c] = packed.masked[c] % N;
    // psi-lint: allow(secret-flow) operands are the public modulus and the player's own mask
    out.s2[c] = ModSub(BigUInt(), packed.rho[c] % N, N);  // -rho mod N.
  }
  return out;
}

Result<BatchedIntegerShares> HomomorphicSumProtocol::RunIntegerImpl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_RETURN_NOT_OK(ValidateInputs(inputs, player_rngs));
  last_run_packed_ = false;
  last_run_slots_ = 1;
  last_run_crypto_ops_ = 0;
  if (!PackingApplies(inputs)) {
    return Status::FailedPrecondition(
        "integer shares need a proven counter bound; use the modular Run() "
        "or Protocol 2 instead");
  }
  PSI_ASSIGN_OR_RETURN(
      PaillierKeyPair keys,
      PaillierGenerateKeyPair(player_rngs[0], config_.paillier_bits));
  ++last_run_crypto_ops_;  // keygen
  PSI_ASSIGN_OR_RETURN(
      PackingCodec codec,
      HomomorphicSumPackedCodec(keys.public_key.n.BitLength() - 1,
                                *config_.counter_bound, players_.size(),
                                config_.packing_epsilon_log2));
  PSI_ASSIGN_OR_RETURN(
      PackedOutcome packed,
      RunPacked(keys, codec, inputs, player_rngs, label_prefix));
  const size_t count = inputs[0].size();
  BatchedIntegerShares out;
  out.s1 = std::move(packed.masked);  // sum + rho, exact over Z.
  out.s2.reserve(count);
  for (auto& r : packed.rho) {
    out.s2.emplace_back(std::move(r), /*negative=*/true);  // s2 = -rho.
  }
  return out;
}

Result<HomomorphicSumProtocol::PackedOutcome>
HomomorphicSumProtocol::RunPacked(
    const PaillierKeyPair& keys, const PackingCodec& codec,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  const size_t m = players_.size();
  const size_t count = inputs[0].size();
  modulus_ = keys.public_key.n;
  // m - 1 ciphertexts are folded into the aggregate; refuse geometries
  // whose guard bits cannot absorb that many additions.
  PSI_RETURN_NOT_OK(codec.CheckAdditionBudget(m - 1));
  const size_t num_ct = codec.NumPlaintexts(count);

  // Round 1: P1 publishes the Paillier key.
  network_->BeginRound(label_prefix + "HSum.Step1 (P1 -> P_k: key)");
  {
    BinaryWriter w;
    WriteBigUInt(&w, keys.public_key.n);
    auto packed_key = w.TakeBuffer();
    for (size_t k = 1; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->SendFramed(players_[0], players_[k],
                                             ProtocolId::kHomomorphicSum,
                                             kStepPublishKey, packed_key));
    }
  }
  std::vector<PaillierPublicKey> pub(m);
  for (size_t k = 1; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[k], players_[0],
                                          ProtocolId::kHomomorphicSum,
                                          kStepPublishKey));
    BinaryReader r(buf);
    PSI_RETURN_NOT_OK(ReadBigUInt(&r, &pub[k].n));
    if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
    if (pub[k].n.IsZero()) {
      return Status::ProtocolError("received a zero Paillier modulus");
    }
    pub[k].n_squared = pub[k].n * pub[k].n;
  }
  // Every receiver derives the same packing geometry from the published
  // modulus and the public config; pub[k].n == keys.public_key.n here, so
  // the caller-built codec stands in for all parties.

  // Round 2: P3..Pm pack and encrypt their counter vectors for P2. The
  // randomizers still come out of each provider's RNG in sequential order;
  // only the r^n powers fan out (determinism contract).
  network_->BeginRound(label_prefix + "HSum.Step2 (P_k -> P2: E(pack(x_k)))");
  for (size_t k = 2; k < m; ++k) {
    std::vector<BigUInt> plain(count);
    for (size_t c = 0; c < count; ++c) plain[c] = BigUInt(inputs[k][c]);
    PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> packed, codec.Pack(plain));
    PSI_ASSIGN_OR_RETURN(
        std::vector<BigUInt> cts,
        PaillierEncryptBatch(pub[k], packed, player_rngs[k]));
    last_run_crypto_ops_ += cts.size();  // encryptions
    PSI_RETURN_NOT_OK(network_->SendFramed(players_[k], players_[1],
                                           ProtocolId::kHomomorphicSum,
                                           kStepCiphertexts,
                                           wire::PackBigUInts(cts)));
  }

  // P2 folds everything together with a per-slot statistical mask. Masks
  // are drawn serially on the protocol thread (determinism contract).
  const BigUInt mask_bound = PackedMaskBound(
      *config_.counter_bound, m, config_.packing_epsilon_log2);
  std::vector<BigUInt> rho(count);
  for (auto& x : rho) x = BigUInt::RandomBelow(player_rngs[1], mask_bound);
  std::vector<BigUInt> own(count);
  for (size_t c = 0; c < count; ++c) own[c] = BigUInt(inputs[1][c]) + rho[c];
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> own_packed, codec.Pack(own));
  PSI_ASSIGN_OR_RETURN(
      std::vector<BigUInt> aggregate,
      PaillierEncryptBatch(pub[1], own_packed, player_rngs[1]));
  last_run_crypto_ops_ += aggregate.size();  // encryptions
  for (size_t k = 2; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[1], players_[k],
                                          ProtocolId::kHomomorphicSum,
                                          kStepCiphertexts));
    std::vector<BigUInt> cts;
    PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &cts));
    if (cts.size() != num_ct) {
      return Status::ProtocolError("packed ciphertext vector length mismatch");
    }
    ParallelFor(num_ct, [&](size_t c) {
      aggregate[c] = PaillierAddCiphertexts(pub[1], aggregate[c], cts[c]);
    });
    last_run_crypto_ops_ += num_ct;  // homomorphic additions
  }

  // Round 3: the aggregate travels to P1.
  network_->BeginRound(label_prefix + "HSum.Step3 (P2 -> P1: aggregate)");
  PSI_RETURN_NOT_OK(network_->SendFramed(players_[1], players_[0],
                                         ProtocolId::kHomomorphicSum,
                                         kStepAggregate,
                                         wire::PackBigUInts(aggregate)));
  PSI_ASSIGN_OR_RETURN(
      auto buf, network_->RecvValidated(players_[0], players_[1],
                                        ProtocolId::kHomomorphicSum,
                                        kStepAggregate));
  std::vector<BigUInt> received;
  PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &received));
  if (received.size() != num_ct) {
    return Status::ProtocolError("aggregate vector length mismatch");
  }

  // P1: batched CRT decryption, then slot extraction. The slot sums never
  // wrap (guard bits sized for m additions), so the values are exact.
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> plains,
                       PaillierDecryptBatch(keys.private_key, received));
  last_run_crypto_ops_ += plains.size();  // decryptions
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> slots,
                       codec.Unpack(plains, count));
  PackedOutcome out;
  out.masked.resize(count);
  for (size_t c = 0; c < count; ++c) {
    out.masked[c] = slots[c] + BigUInt(inputs[0][c]);
  }
  out.rho = std::move(rho);
  last_run_packed_ = true;
  last_run_slots_ = codec.slots_per_plaintext();
  return out;
}

Result<BatchedModularShares> HomomorphicSumProtocol::RunUnpacked(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_ASSIGN_OR_RETURN(
      PaillierKeyPair keys,
      PaillierGenerateKeyPair(player_rngs[0], config_.paillier_bits));
  ++last_run_crypto_ops_;  // keygen
  return RunUnpacked(keys, inputs, player_rngs, label_prefix);
}

Result<BatchedModularShares> HomomorphicSumProtocol::RunUnpacked(
    const PaillierKeyPair& keys,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  const size_t m = players_.size();
  const size_t count = inputs[0].size();
  modulus_ = keys.public_key.n;

  // Round 1: P1 publishes the Paillier key.
  network_->BeginRound(label_prefix + "HSum.Step1 (P1 -> P_k: key)");
  {
    BinaryWriter w;
    WriteBigUInt(&w, keys.public_key.n);
    auto packed = w.TakeBuffer();
    for (size_t k = 1; k < m; ++k) {
      PSI_RETURN_NOT_OK(network_->SendFramed(players_[0], players_[k],
                                             ProtocolId::kHomomorphicSum,
                                             kStepPublishKey, packed));
    }
  }
  std::vector<PaillierPublicKey> pub(m);
  for (size_t k = 1; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[k], players_[0],
                                          ProtocolId::kHomomorphicSum,
                                          kStepPublishKey));
    BinaryReader r(buf);
    PSI_RETURN_NOT_OK(ReadBigUInt(&r, &pub[k].n));
    if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
    if (pub[k].n.IsZero()) {
      return Status::ProtocolError("received a zero Paillier modulus");
    }
    pub[k].n_squared = pub[k].n * pub[k].n;
  }

  // Round 2: P3..Pm encrypt their counter vectors for P2 to aggregate.
  // Batch encryption: randomizers come out of each provider's RNG in the
  // same sequential order as the serial path; only the r^n powers fan out.
  network_->BeginRound(label_prefix + "HSum.Step2 (P_k -> P2: E(x_k))");
  for (size_t k = 2; k < m; ++k) {
    std::vector<BigUInt> plain(count);
    for (size_t c = 0; c < count; ++c) plain[c] = BigUInt(inputs[k][c]);
    PSI_ASSIGN_OR_RETURN(
        std::vector<BigUInt> cts,
        PaillierEncryptBatch(pub[k], plain, player_rngs[k]));
    last_run_crypto_ops_ += cts.size();  // encryptions
    PSI_RETURN_NOT_OK(network_->SendFramed(players_[k], players_[1],
                                           ProtocolId::kHomomorphicSum,
                                           kStepCiphertexts,
                                           wire::PackBigUInts(cts)));
  }

  // P2 aggregates homomorphically, folding in its own inputs and the mask.
  std::vector<BigUInt> rho(count);
  for (auto& x : rho) x = BigUInt::RandomBelow(player_rngs[1], pub[1].n);
  std::vector<BigUInt> own_plain(count);
  for (size_t c = 0; c < count; ++c) {
    own_plain[c] = (BigUInt(inputs[1][c]) + rho[c]) % pub[1].n;
  }
  PSI_ASSIGN_OR_RETURN(
      std::vector<BigUInt> aggregate,
      PaillierEncryptBatch(pub[1], own_plain, player_rngs[1]));
  last_run_crypto_ops_ += aggregate.size();  // encryptions
  for (size_t k = 2; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[1], players_[k],
                                          ProtocolId::kHomomorphicSum,
                                          kStepCiphertexts));
    std::vector<BigUInt> cts;
    PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &cts));
    if (cts.size() != count) {
      return Status::ProtocolError("ciphertext vector length mismatch");
    }
    ParallelFor(count, [&](size_t c) {
      aggregate[c] = PaillierAddCiphertexts(pub[1], aggregate[c], cts[c]);
    });
    last_run_crypto_ops_ += count;  // homomorphic additions
  }

  // Round 3: the aggregate travels to P1, who decrypts and adds its input.
  network_->BeginRound(label_prefix + "HSum.Step3 (P2 -> P1: aggregate)");
  PSI_RETURN_NOT_OK(network_->SendFramed(players_[1], players_[0],
                                         ProtocolId::kHomomorphicSum,
                                         kStepAggregate,
                                         wire::PackBigUInts(aggregate)));
  PSI_ASSIGN_OR_RETURN(
      auto buf, network_->RecvValidated(players_[0], players_[1],
                                        ProtocolId::kHomomorphicSum,
                                        kStepAggregate));
  std::vector<BigUInt> received;
  PSI_RETURN_NOT_OK(wire::UnpackBigUInts(buf, &received));
  if (received.size() != count) {
    return Status::ProtocolError("aggregate vector length mismatch");
  }

  // CRT-accelerated batched decryption (same values as the classic path).
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> masked,
                       PaillierDecryptBatch(keys.private_key, received));
  last_run_crypto_ops_ += masked.size();  // decryptions
  BatchedModularShares out;
  out.s1.resize(count);
  out.s2.resize(count);
  const BigUInt& N = keys.public_key.n;
  for (size_t c = 0; c < count; ++c) {
    out.s1[c] = ModAdd(masked[c], BigUInt(inputs[0][c]) % N, N);
    out.s2[c] = ModSub(BigUInt(), rho[c], N);  // -rho mod N.
  }
  return out;
}

}  // namespace psi
