#include "mpc/secure_sum.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/serialize.h"
#include "crypto/permutation.h"

namespace psi {

namespace {

__extension__ typedef unsigned __int128 u128;

// Step tags for ProtocolId::kSecureSum frames (Protocols 1-2).
constexpr uint16_t kStepPairwiseShares = 2;   // Prot1 step 2.
constexpr uint16_t kStepFoldIntoP2 = 4;       // Prot1 steps 4-5.
constexpr uint16_t kStepToThirdParty = 3;     // Prot2 steps 3-4.
constexpr uint16_t kStepComparisonBits = 6;   // Prot2 step 6.

// -- Width-generic arithmetic on w little-endian limbs. Each loop runs all w
// limbs and the modular steps select with masks, not branches. Outputs may
// alias inputs.

// out = a + (b & mask); returns the carry out.
uint64_t AddLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                  size_t w, uint64_t mask = ~0ull) {
  uint64_t carry = 0;
  for (size_t i = 0; i < w; ++i) {
    const u128 t = static_cast<u128>(a[i]) + (b[i] & mask) + carry;
    out[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return carry;
}

// out = a - (b & mask); returns the borrow out.
uint64_t SubLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                  size_t w, uint64_t mask = ~0ull) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < w; ++i) {
    const u128 t = static_cast<u128>(a[i]) - (b[i] & mask) - borrow;
    out[i] = static_cast<uint64_t>(t);
    borrow = static_cast<uint64_t>(t >> 64) & 1;
  }
  return borrow;
}

// a < b, read off the borrow of a - b.
bool LessLimbs(const uint64_t* a, const uint64_t* b, size_t w) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < w; ++i) {
    const u128 t = static_cast<u128>(a[i]) - b[i] - borrow;
    borrow = static_cast<uint64_t>(t >> 64) & 1;
  }
  return borrow != 0;
}

// out = (a + b) mod m for a, b < m. The sum is below 2m < 3S, so it fits.
void ModAddLimbs(const uint64_t* a, const uint64_t* b, const uint64_t* m,
                 uint64_t* out, size_t w) {
  AddLimbs(a, b, out, w);
  const uint64_t reduce = 0 - static_cast<uint64_t>(!LessLimbs(out, m, w));
  SubLimbs(out, m, out, w, reduce);
}

// out = (a - b) mod m for a, b < m.
void ModSubLimbs(const uint64_t* a, const uint64_t* b, const uint64_t* m,
                 uint64_t* out, size_t w) {
  const uint64_t borrow = SubLimbs(a, b, out, w);
  AddLimbs(out, m, out, w, 0 - borrow);
}

// `v`, which fits w limbs, as w limbs.
std::vector<uint64_t> ToLimbs(const BigUInt& v, size_t w) {
  std::vector<uint64_t> out(w);
  for (size_t i = 0; i < w; ++i) out[i] = v.limb(i);
  return out;
}

// Uniform draws in [0, bound) into w-limb slots, draw for draw identical to
// BigUInt::RandomBelow: a candidate takes ceil(bits / 64) NextU64 words for
// bits = BitLength(bound - 1), its top limb masked to those bits, and is
// redrawn while >= bound (so a power-of-two bound never redraws).
class BelowSampler {
 public:
  BelowSampler(const BigUInt& bound, size_t w)
      : BelowSampler(bound, w, (bound - BigUInt(1)).BitLength()) {}

  void Draw(Rng* rng, uint64_t* out) const {
    std::fill(out + draw_limbs_, out + w_, 0);
    if (draw_limbs_ == 0) return;  // bound == 1: RandomBelow draws nothing.
    do {
      for (size_t i = 0; i < draw_limbs_; ++i) out[i] = rng->NextU64();
      out[draw_limbs_ - 1] &= top_mask_;
    } while (!LessLimbs(out, bound_.data(), w_));
  }

 private:
  BelowSampler(const BigUInt& bound, size_t w, size_t bits)
      : bound_(ToLimbs(bound, w)),
        w_(w),
        draw_limbs_((bits + 63) / 64),
        top_mask_(bits % 64 == 0 ? ~0ull : ~0ull >> (64 - bits % 64)) {}

  std::vector<uint64_t> bound_;
  size_t w_;
  size_t draw_limbs_;
  uint64_t top_mask_;
};

// A share vector on the wire: varint count, then each value exactly as
// WriteBigUInt writes it (varint count of significant limbs, then the limbs).
std::vector<uint8_t> PackShareVector(const ShareVector& v) {
  BinaryWriter w;
  w.Reserve(10 + v.size() * (1 + 8 * v.width()));
  w.WriteVarU64(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const uint64_t* limbs = v.limbs(i);
    size_t n = v.width();
    while (n > 0 && limbs[n - 1] == 0) --n;
    w.WriteVarU64(n);
    // Little-endian host assumed, as in BinaryWriter::WriteU64.
    w.WriteRaw(reinterpret_cast<const uint8_t*>(limbs), n * 8);
  }
  return w.TakeBuffer();
}

// Reads a PackShareVector frame into w-limb slots. Like ReadBigUInt it takes
// zero limbs above the significant ones; a value wider than w limbs or not
// below `bound` is a ProtocolError naming `what` (step and value).
[[nodiscard]] Status UnpackShareVector(const std::vector<uint8_t>& buf,
                                       const uint64_t* bound,
                                       const char* bound_name, size_t w,
                                       const char* what, ShareVector* out) {
  BinaryReader r(buf);
  uint64_t count;
  PSI_RETURN_NOT_OK(r.ReadCount(&count));
  *out = ShareVector(static_cast<size_t>(count), w);
  for (size_t i = 0; i < out->size(); ++i) {
    uint64_t n;
    PSI_RETURN_NOT_OK(r.ReadCount(&n, /*min_bytes_per_element=*/8));
    uint64_t* limbs = out->limbs(i);
    const size_t kept = std::min(static_cast<size_t>(n), w);
    PSI_RETURN_NOT_OK(r.ReadU64s(limbs, kept));
    uint64_t above = 0;
    for (size_t extra = kept; extra < n; ++extra) {
      uint64_t limb;
      PSI_RETURN_NOT_OK(r.ReadU64(&limb));
      above |= limb;
    }
    if (above != 0) {
      return Status::ProtocolError(std::string(what) + "[" +
                                   std::to_string(i) + "] wider than " +
                                   std::to_string(w) + " limbs");
    }
    if (!LessLimbs(limbs, bound, w)) {
      return Status::ProtocolError(std::string(what) + "[" +
                                   std::to_string(i) + "] >= " + bound_name);
    }
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> PackBits(const std::vector<bool>& bits) {
  BinaryWriter w;
  w.WriteVarU64(bits.size());
  uint8_t acc = 0;
  size_t filled = 0;
  for (bool b : bits) {
    acc = static_cast<uint8_t>(acc | ((b ? 1 : 0) << filled));
    if (++filled == 8) {
      w.WriteU8(acc);
      acc = 0;
      filled = 0;
    }
  }
  if (filled != 0) w.WriteU8(acc);
  return w.TakeBuffer();
}

[[nodiscard]] Status UnpackBits(const std::vector<uint8_t>& buf, std::vector<bool>* out) {
  BinaryReader r(buf);
  uint64_t count;
  PSI_RETURN_NOT_OK(r.ReadVarU64(&count));
  if (count > static_cast<uint64_t>(r.remaining()) * 8) {
    return Status::SerializationError("bit count exceeds buffer capacity");
  }
  out->assign(count, false);
  uint8_t acc = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 8 == 0) PSI_RETURN_NOT_OK(r.ReadU8(&acc));
    (*out)[i] = ((acc >> (i % 8)) & 1) != 0;
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

}  // namespace

BigUInt RecommendedModulus(const BigUInt& bound_a, uint64_t num_counters,
                           uint64_t epsilon_log2) {
  // S >= A * (1 + 2 * num_counters * 2^epsilon_log2); round up to a power of
  // two for uniform-sampling efficiency.
  BigUInt target = bound_a * (BigUInt(1) +
                              (BigUInt(2) * BigUInt(num_counters)
                               << static_cast<size_t>(epsilon_log2)));
  return BigUInt::PowerOfTwo(target.BitLength());
}

SecureSumProtocol::SecureSumProtocol(Network* network,
                                     std::vector<PartyId> players,
                                     PartyId third_party,
                                     SecureSumConfig config)
    : network_(network),
      players_(std::move(players)),
      third_party_(third_party),
      config_(std::move(config)),
      // 3S is never a power of two, so 3S and 3S - 1 share a bit length.
      width_(std::max<size_t>(
          1, ((BigUInt(3) * config_.modulus_s).BitLength() + 63) / 64)),
      s_limbs_(ToLimbs(config_.modulus_s, width_)) {}

Status SecureSumProtocol::ValidateInputs(
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
  // Per-counter sums must stay within [0, A]. m 64-bit inputs sum exactly in
  // 128 bits, and an A of more than 128 bits bounds every such sum.
  const BigUInt& a = config_.input_bound_a;
  if (a.BitLength() <= 128) {
    const u128 bound = (static_cast<u128>(a.limb(1)) << 64) | a.limb(0);
    for (size_t c = 0; c < count; ++c) {
      u128 sum = 0;
      for (size_t k = 0; k < m; ++k) sum += inputs[k][c];
      if (sum > bound) {
        return Status::OutOfRange("counter sum exceeds the public bound A");
      }
    }
  }
  if (config_.modulus_s <= config_.input_bound_a * BigUInt(4)) {
    return Status::InvalidArgument("modulus S must be >> A (at least 4A)");
  }
  for (size_t k = 0; k < m; ++k) {
    if (third_party_ == players_[k] && k < 2) {
      return Status::InvalidArgument("third party may not be P1 or P2");
    }
  }
  return Status::OK();
}

Result<BatchedModularShares> SecureSumProtocol::RunProtocol1(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_ASSIGN_OR_RETURN(
      FlatModularShares shares,
      DrainOnError(network_,
                   RunProtocol1Impl(inputs, player_rngs, label_prefix)));
  return BatchedModularShares{shares.s1.ToBigUInts(), shares.s2.ToBigUInts()};
}

Result<BatchedIntegerShares> SecureSumProtocol::RunProtocol2(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
    const std::string& label_prefix) {
  return DrainOnError(network_,
                      RunProtocol2Impl(inputs, player_rngs, pair_secret_rng,
                                       label_prefix));
}

Result<SecureSumProtocol::FlatModularShares>
SecureSumProtocol::RunProtocol1Impl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, const std::string& label_prefix) {
  PSI_RETURN_NOT_OK(ValidateInputs(inputs, player_rngs));
  const size_t m = players_.size();
  const size_t count = inputs[0].size();
  const size_t w = width_;
  const uint64_t* s = s_limbs_.data();
  const BelowSampler share_sampler(config_.modulus_s, w);

  // Step 1 (local): player k splits each x_k into m uniform Z_S summands.
  // outgoing[k * m + j] holds the shares player k gives player j; the first
  // (j = 0) starts at x_k and absorbs the others, so the m shares sum to
  // x_k mod S. x_k <= A < S (ValidateInputs), so it is already reduced.
  std::vector<ShareVector> outgoing(m * m, ShareVector(count, w));
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < count; ++c) {
      uint64_t* first = outgoing[k * m].limbs(c);
      first[0] = inputs[k][c];
      for (size_t j = 1; j < m; ++j) {
        uint64_t* share = outgoing[k * m + j].limbs(c);
        share_sampler.Draw(player_rngs[k], share);
        ModSubLimbs(first, share, s, first, w);
      }
    }
  }

  // Step 2 (one round): every player sends every other player its share.
  network_->BeginRound(label_prefix + "Prot1.Step2 (pairwise shares)");
  for (size_t k = 0; k < m; ++k) {
    for (size_t j = 0; j < m; ++j) {
      if (j == k) continue;
      PSI_RETURN_NOT_OK(network_->SendFramed(players_[k], players_[j],
                                             ProtocolId::kSecureSum,
                                             kStepPairwiseShares,
                                             PackShareVector(outgoing[k * m + j])));
    }
  }

  // Step 3 (local): player j sums what it kept and what it received.
  std::vector<ShareVector> sums(m);
  ShareVector received;
  for (size_t j = 0; j < m; ++j) {
    sums[j] = std::move(outgoing[j * m + j]);
    for (size_t k = 0; k < m; ++k) {
      if (k == j) continue;
      PSI_ASSIGN_OR_RETURN(
          auto buf, network_->RecvValidated(players_[j], players_[k],
                                            ProtocolId::kSecureSum,
                                            kStepPairwiseShares));
      PSI_RETURN_NOT_OK(UnpackShareVector(buf, s, "S", w, "Prot1.Step3 share",
                                          &received));
      if (received.size() != count) {
        return Status::ProtocolError("share vector length mismatch");
      }
      for (size_t c = 0; c < count; ++c) {
        ModAddLimbs(sums[j].limbs(c), received.limbs(c), s, sums[j].limbs(c),
                    w);
      }
    }
  }
  views_.player_share_vectors = sums;

  // Steps 4-5 (one round): players P3..Pm fold their sums into P2's.
  network_->BeginRound(label_prefix + "Prot1.Step4 (fold into P2)");
  for (size_t j = 2; j < m; ++j) {
    PSI_RETURN_NOT_OK(network_->SendFramed(players_[j], players_[1],
                                           ProtocolId::kSecureSum,
                                           kStepFoldIntoP2,
                                           PackShareVector(sums[j])));
  }
  for (size_t j = 2; j < m; ++j) {
    PSI_ASSIGN_OR_RETURN(
        auto buf, network_->RecvValidated(players_[1], players_[j],
                                          ProtocolId::kSecureSum,
                                          kStepFoldIntoP2));
    PSI_RETURN_NOT_OK(UnpackShareVector(buf, s, "S", w,
                                        "Prot1.Steps4-5 folded share",
                                        &received));
    if (received.size() != count) {
      return Status::ProtocolError("folded share vector length mismatch");
    }
    for (size_t c = 0; c < count; ++c) {
      ModAddLimbs(sums[1].limbs(c), received.limbs(c), s, sums[1].limbs(c), w);
    }
  }

  return FlatModularShares{std::move(sums[0]), std::move(sums[1])};
}

Result<BatchedIntegerShares> SecureSumProtocol::RunProtocol2Impl(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
    const std::string& label_prefix) {
  PSI_ASSIGN_OR_RETURN(FlatModularShares mod_shares,
                       RunProtocol1Impl(inputs, player_rngs, label_prefix));
  const size_t count = mod_shares.s1.size();
  const size_t w = width_;
  const uint64_t* s = s_limbs_.data();
  const BigUInt& a = config_.input_bound_a;

  // Step 2 (local at P2): one masking value per counter, r in [0, S-A-1].
  PSI_SECRET ShareVector masks;
  masks = ShareVector(count, w);
  const BelowSampler mask_sampler(config_.modulus_s - a, w);
  for (size_t c = 0; c < count; ++c) {
    mask_sampler.Draw(player_rngs[1], masks.limbs(c));
  }

  // Batched refinement (Section 5.1): P1 and P2 permute the counter order
  // seen by the third party using their pre-shared pairwise secret.
  SecretPermutation perm =
      config_.use_secret_permutation
          ? SecretPermutation::Random(pair_secret_rng, count)
          : SecretPermutation::FromMapping([count] {
              std::vector<size_t> id(count);
              for (size_t i = 0; i < count; ++i) id[i] = i;
              return id;
            }()).ValueOrDie();

  // s2 + r < 2S - A needs no reduction and fits w limbs.
  ShareVector sent_s1(count, w), sent_masked_s2(count, w);
  for (size_t c = 0; c < count; ++c) {
    const size_t slot = perm.Apply(c);
    std::copy_n(mod_shares.s1.limbs(c), w, sent_s1.limbs(slot));
    AddLimbs(mod_shares.s2.limbs(c), masks.limbs(c),
             sent_masked_s2.limbs(slot), w);
  }

  // Steps 3-4 (one round): both vectors travel to the third party.
  network_->BeginRound(label_prefix + "Prot2.Steps3-4 (to third party)");
  PSI_RETURN_NOT_OK(network_->SendFramed(players_[0], third_party_,
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty,
                                         PackShareVector(sent_s1)));
  PSI_RETURN_NOT_OK(network_->SendFramed(players_[1], third_party_,
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty,
                                         PackShareVector(sent_masked_s2)));

  // Step 5 (local at the third party): y = s1 + s2 + r, compare with S.
  PSI_ASSIGN_OR_RETURN(
      auto buf1, network_->RecvValidated(third_party_, players_[0],
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty));
  PSI_ASSIGN_OR_RETURN(
      auto buf2, network_->RecvValidated(third_party_, players_[1],
                                         ProtocolId::kSecureSum,
                                         kStepToThirdParty));
  const std::vector<uint64_t> masked_bound =
      ToLimbs(BigUInt(2) * config_.modulus_s - a, w);
  ShareVector tp_s1, tp_masked;
  PSI_RETURN_NOT_OK(
      UnpackShareVector(buf1, s, "S", w, "Prot2.Step5 s1", &tp_s1));
  PSI_RETURN_NOT_OK(UnpackShareVector(buf2, masked_bound.data(), "2S - A", w,
                                      "Prot2.Step5 masked share",
                                      &tp_masked));
  if (tp_s1.size() != count || tp_masked.size() != count) {
    return Status::ProtocolError("third party received mismatched batches");
  }
  std::vector<bool> bits(count);
  std::vector<uint64_t> y(w);  // < S + 2S - A: fits w limbs.
  for (size_t c = 0; c < count; ++c) {
    AddLimbs(tp_s1.limbs(c), tp_masked.limbs(c), y.data(), w);
    bits[c] = !LessLimbs(y.data(), s, w);
  }
  views_.third_party_s1 = std::move(tp_s1);
  views_.third_party_masked_s2 = std::move(tp_masked);
  views_.comparison_bits = bits;

  // Step 6 (one round): the answers return to P2 (one bit per counter).
  network_->BeginRound(label_prefix + "Prot2.Step6 (comparison bits)");
  PSI_RETURN_NOT_OK(network_->SendFramed(third_party_, players_[1],
                                         ProtocolId::kSecureSum,
                                         kStepComparisonBits, PackBits(bits)));
  PSI_ASSIGN_OR_RETURN(
      auto bits_buf, network_->RecvValidated(players_[1], third_party_,
                                             ProtocolId::kSecureSum,
                                             kStepComparisonBits));
  std::vector<bool> received_bits;
  PSI_RETURN_NOT_OK(UnpackBits(bits_buf, &received_bits));
  if (received_bits.size() != count) {
    return Status::ProtocolError("comparison bit vector length mismatch");
  }

  // Steps 7-8 (local at P2): undo the permutation, apply the correction.
  // A corrected s2 - S is negative; its magnitude S - s2 replaces s2.
  views_.p2_correction.assign(count, false);
  for (size_t c = 0; c < count; ++c) {
    const bool correct = received_bits[perm.Apply(c)];
    views_.p2_correction[c] = correct;
    if (correct) {
      SubLimbs(s, mod_shares.s2.limbs(c), mod_shares.s2.limbs(c), w);
    }
  }
  BatchedIntegerShares out;
  out.s1 = mod_shares.s1.ToBigUInts();
  std::vector<BigUInt> magnitudes = mod_shares.s2.ToBigUInts();
  out.s2.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    out.s2.emplace_back(std::move(magnitudes[c]), views_.p2_correction[c]);
  }
  return out;
}

}  // namespace psi
