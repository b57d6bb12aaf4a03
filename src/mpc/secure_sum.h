// Protocols 1 and 2 (Section 4.1): secure computation of additive shares of a
// sum of private integers.
//
// Protocol 1 (Benaloh): m players, each holding x_k in [0, A] with
// x = sum x_k <= A, end with P1 holding a uniformly random s1 in Z_S and P2
// holding s2 such that s1 + s2 == x (mod S). Perfectly secure.
//
// Protocol 2 upgrades the modular shares to *integer* shares
// (s1 + s2 == x over Z) by asking a curious-but-honest third party (P3, or
// the host when m == 2) whether s1 + s2 + r >= S for a random mask
// r in [0, S-A-1] chosen by P2. Theorem 4.1 bounds what P2/P3 can learn.
//
// Both protocols run *batched*: Protocol 4 needs shares of n + |E'| counters
// and executes all instances in parallel inside the same communication
// rounds (Section 5.1). In batched mode P1 and P2 can permute the counter
// order seen by the third party with a secret permutation, which makes the
// Theorem 4.1 leakage unattributable to any specific counter.

#ifndef PSI_MPC_SECURE_SUM_H_
#define PSI_MPC_SECURE_SUM_H_

#include <string>
#include <utility>
#include <vector>

#include "bigint/biguint.h"
#include "common/random.h"
#include "common/status.h"
#include "mpc/shares.h"
#include "net/network.h"

namespace psi {

/// \brief Parameters shared by all players of a secure-sum execution.
struct SecureSumConfig {
  BigUInt modulus_s;       ///< The share modulus S (must be >> A).
  BigUInt input_bound_a;   ///< A: every input and every sum lies in [0, A].
  bool use_secret_permutation = true;  ///< Batched-mode P3 blinding.
};

/// \brief Smallest power-of-two modulus satisfying the Theorem 4.1 guidance
/// S >= A * (1 + 2 * num_counters / epsilon) for epsilon = 2^-epsilon_log2:
/// the probability that P2 or P3 learns any bound on any of the
/// `num_counters` batched sums is then at most epsilon.
BigUInt RecommendedModulus(const BigUInt& bound_a, uint64_t num_counters,
                           uint64_t epsilon_log2);

/// \brief Everything the non-input parties observed, recorded so tests can
/// verify the Theorem 4.1 leakage characterization empirically.
struct SecureSumViews {
  /// Values P3 received, in transmitted (permuted) order.
  ShareVector third_party_s1;
  ShareVector third_party_masked_s2;  ///< s2 + r per slot.
  /// Comparison answers y >= S per transmitted slot.
  std::vector<bool> comparison_bits;
  /// Correction flags per original counter (what P2 learned in step 6).
  std::vector<bool> p2_correction;
  /// Modular share vectors each player held after Protocol 1 (player-major).
  std::vector<ShareVector> player_share_vectors;
};

/// \brief Orchestrates batched Protocol 1 / Protocol 2 over the simulated
/// network. Player 0 acts as P1, player 1 as P2.
///
/// Every share vector is a `ShareVector` of W limbs per value, W the limb
/// count of 3S - 1: wide enough for the third party's y = s1 + s2 + r < 3S,
/// so one width-generic code path serves every S (W = 1 while 3S < 2^64).
class SecureSumProtocol {
 public:
  /// \param players the m service providers, protocol order (P1, P2, ...).
  /// \param third_party the comparison helper of Protocol 2 (P3 or H).
  SecureSumProtocol(Network* network, std::vector<PartyId> players,
                    PartyId third_party, SecureSumConfig config);

  /// \brief Batched Protocol 1. inputs[k][c] is player k's private value for
  /// counter c; all vectors must share one length. Two communication rounds.
  [[nodiscard]] Result<BatchedModularShares> RunProtocol1(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);

  /// \brief Batched Protocol 2: Protocol 1 plus the integer-correction
  /// rounds. `pair_secret_rng` is key material pre-shared between P1 and P2
  /// (their pairwise secure channel) used to derive the secret permutation;
  /// it never crosses the metered network.
  [[nodiscard]] Result<BatchedIntegerShares> RunProtocol2(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
      const std::string& label_prefix);

  /// \brief The share modulus S.
  const BigUInt& modulus() const { return config_.modulus_s; }

  const SecureSumViews& views() const { return views_; }
  /// \brief Moves the recorded views out, for a caller that keeps them.
  SecureSumViews TakeViews() { return std::move(views_); }

 private:
  // P1's and P2's modular share vectors after Protocol 1.
  struct FlatModularShares {
    ShareVector s1;
    ShareVector s2;
  };

  // The protocol bodies; the public entries drain mailboxes on error.
  [[nodiscard]] Result<FlatModularShares> RunProtocol1Impl(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, const std::string& label_prefix);
  [[nodiscard]] Result<BatchedIntegerShares> RunProtocol2Impl(
      const std::vector<std::vector<uint64_t>>& inputs,
      const std::vector<Rng*>& player_rngs, Rng* pair_secret_rng,
      const std::string& label_prefix);

  [[nodiscard]] Status ValidateInputs(const std::vector<std::vector<uint64_t>>& inputs,
                        const std::vector<Rng*>& player_rngs) const;

  Network* network_;
  std::vector<PartyId> players_;
  PartyId third_party_;
  SecureSumConfig config_;
  size_t width_;                  // W: limbs per share value.
  std::vector<uint64_t> s_limbs_;  // S in W limbs.
  SecureSumViews views_;
};

}  // namespace psi

#endif  // PSI_MPC_SECURE_SUM_H_
