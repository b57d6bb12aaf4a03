// Extension protocol (not in the paper): Paillier-based share aggregation.
//
// An alternative realization of Protocol 1's outcome that trades the
// O(m^2) pairwise share exchange for 2m - 2 messages using additively
// homomorphic encryption:
//   1. P1 publishes a Paillier public key.
//   2. Every P_k (k >= 3) encrypts its counter vector and sends it to P2.
//   3. P2 homomorphically adds everything, its own inputs, and a random
//      mask vector rho, and sends the aggregate ciphertexts to P1.
//   4. P1 decrypts, obtaining s1 = (sum x_k + rho) mod N; P2 keeps
//      s2 = -rho mod N. Then s1 + s2 == sum x_k (mod N).
//
// P1 sees only the masked sum (uniform in Z_N); P2 and the others see only
// ciphertexts. The share modulus S is the Paillier modulus N. Benchmarked
// against Protocol 1 as an ablation (message count and CPU trade-off).
//
// **Packed mode** (config.counter_bound set): when every input counter is
// bounded by a public constant B, each player packs
// k = floor((|N| - 1) / slot_bits) counters per plaintext
// (crypto/packing.h), so every encryption, homomorphic addition,
// decryption, and wire ciphertext carries k counters at once — ~k x less
// compute and traffic. P2's mask becomes per-slot: rho_c uniform in
// [0, B * m * 2^eps), giving statistical hiding with distance <= 2^-eps
// (the same Theorem 4.1 style bound the share modulus S already uses)
// instead of the unpacked path's perfect mask; eps defaults to 40, matching
// Protocol4Config::epsilon_log2. Because the masked slot sums never wrap,
// packed runs can also produce *integer* shares (s1 + s2 == x over Z, s2
// <= 0), which is exactly what Protocol 4's masking pipeline consumes.
// When a bound cannot be proven for the inputs — or no whole slot fits —
// Run() transparently falls back to the unpacked path.

#ifndef PSI_MPC_HOMOMORPHIC_SUM_H_
#define PSI_MPC_HOMOMORPHIC_SUM_H_

#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "mpc/shares.h"
#include "net/network.h"

namespace psi {

/// \brief Parameters of the Paillier aggregation (public to all players).
struct HomomorphicSumConfig {
  size_t paillier_bits = 512;  ///< Modulus size |N|.
  /// Public inclusive bound B on every player's counters. Set => packed
  /// mode (with automatic fallback); nullopt => classic one-counter-per-
  /// ciphertext aggregation.
  std::optional<BigUInt> counter_bound;
  /// Per-slot statistical-mask headroom: P1's view of each slot leaks at
  /// most 2^-eps (Theorem 4.1 style). Costs eps bits of slot width.
  uint64_t packing_epsilon_log2 = 40;
};

/// \brief The packing geometry the protocol derives from public data: the
/// key size, the counter bound, the player count, and the mask headroom.
/// Slot values must hold (m - 1) ciphertext addends of up to mask_bound + B
/// each, so max_additions = m. Returns InvalidArgument when no whole slot
/// fits the plaintext (callers then use the unpacked path).
[[nodiscard]] Result<PackingCodec> HomomorphicSumPackedCodec(size_t plaintext_bits,
                                               const BigUInt& counter_bound,
                                               size_t num_players,
                                               uint64_t epsilon_log2);

/// \brief Paillier-based batched share aggregation.
class HomomorphicSumProtocol {
 public:
  /// \param players protocol order (P1 holds the key, P2 holds the mask).
  HomomorphicSumProtocol(Network* network, std::vector<PartyId> players,
                         HomomorphicSumConfig config);

  /// \brief Runs the batched aggregation; three communication rounds.
  /// Packed when config.counter_bound is set, every input obeys it, and a
  /// slot fits; silently unpacked otherwise (check last_run_packed()).
  [[nodiscard]] Result<BatchedModularShares> Run(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  /// \brief Packed-only variant returning *integer* shares: s1 + s2 == x
  /// exactly over the integers (s2 <= 0), the contract Protocol 4's
  /// share-masking stage needs. FailedPrecondition when the counter bound
  /// is unset, cannot be proven for the inputs, or no slot fits — callers
  /// fall back to Protocol 2 in that case.
  [[nodiscard]] Result<BatchedIntegerShares> RunInteger(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  /// \brief The share modulus (Paillier N) of the last run.
  const BigUInt& modulus() const { return modulus_; }

  /// \brief Whether the last Run()/RunInteger() used packed ciphertexts.
  bool last_run_packed() const { return last_run_packed_; }

  /// \brief Counters per ciphertext of the last run (1 when unpacked).
  size_t last_run_slots() const { return last_run_slots_; }

  /// \brief Public-key operations of the last run: keygen + encryptions +
  /// homomorphic additions + decryptions. Feeds the session layer's
  /// crypto-op ledger (mpc/session.h), which is how the chaos harness
  /// proves stage-resume recomputes nothing.
  uint64_t last_run_crypto_ops() const { return last_run_crypto_ops_; }

 private:
  // The packed wire protocol: returns, per counter, the recombined value
  // sum_k x_k + rho_c (exact over Z) and P2's masks rho_c.
  struct PackedOutcome {
    std::vector<BigUInt> masked;  // sum of all inputs + rho, per counter.
    std::vector<BigUInt> rho;     // P2's per-slot masks.
  };
  // The protocol bodies; the public entries drain mailboxes on error.
  [[nodiscard]] Result<BatchedModularShares> RunImpl(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);
  [[nodiscard]] Result<BatchedIntegerShares> RunIntegerImpl(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  [[nodiscard]] Result<PackedOutcome> RunPacked(
      const PaillierKeyPair& keys, const PackingCodec& codec,
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  [[nodiscard]] Result<BatchedModularShares> RunUnpacked(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  [[nodiscard]] Result<BatchedModularShares> RunUnpacked(
      const PaillierKeyPair& keys,
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  [[nodiscard]] Status ValidateInputs(const std::vector<std::vector<uint64_t>>& inputs,
                        const std::vector<Rng*>& player_rngs) const;

  // True when a bound is configured, all inputs obey it, and a slot fits.
  bool PackingApplies(const std::vector<std::vector<uint64_t>>& inputs) const;

  Network* network_;
  std::vector<PartyId> players_;
  HomomorphicSumConfig config_;
  BigUInt modulus_;
  bool last_run_packed_ = false;
  size_t last_run_slots_ = 1;
  uint64_t last_run_crypto_ops_ = 0;
};

}  // namespace psi

#endif  // PSI_MPC_HOMOMORPHIC_SUM_H_
