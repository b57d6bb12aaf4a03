// The plaintext counters of Section 3.1 — the quantities the MPC protocols
// compute shares of:
//   a_i      : number of actions user v_i performed,
//   b^h_ij   : number of actions where v_j followed v_i within h time steps,
//   c^l_ij   : number of actions where v_j followed v_i after exactly l steps.
//
// Convention (see DESIGN.md): "followed within h" means t_i < t_j <= t_i + h,
// strictly after (Definition 3.1 requires Delta t > 0). These satisfy
// b^h_ij = sum_{l=1..h} c^l_ij, which the property tests assert.
//
// The counters read a UserActionIndex over users [0, n); a provider builds
// one from its records per stage. The ActionLog overloads build that index
// themselves, over every user the pairs name, so they count for any NodeId.
// Pairs are visited grouped by `from`, each user's times scattered once;
// Omega is public to the providers, so the visiting order leaks nothing.

#ifndef PSI_ACTIONLOG_COUNTERS_H_
#define PSI_ACTIONLOG_COUNTERS_H_

#include <cstdint>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "graph/graph.h"

namespace psi {

/// \brief a_i for every user 0..num_users-1.
std::vector<uint64_t> ComputeActionCounts(const ActionLog& log,
                                          size_t num_users);

/// \brief a_i for every user of the index: its run lengths.
std::vector<uint64_t> ComputeActionCounts(const UserActionIndex& index);

/// \brief b^h_ij for each requested (i, j) pair, in pair order.
std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h);

/// \brief b^h_ij over the index: a pair with an endpoint >= n counts 0.
std::vector<uint64_t> ComputeFollowCounts(const UserActionIndex& index,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h);

/// \brief c^l_ij for each pair, as pairs.size() x h values: out[p][l-1] is
/// the exact-delay-l count of pair p.
std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h);

/// \brief c^l_ij over the index: a pair with an endpoint >= n counts 0.
std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const UserActionIndex& index, const std::vector<Arc>& pairs, uint64_t h);

/// \brief Temporal weights w_1..w_h for the Eq. (2) influence definition.
/// The paper constrains 0 < w_l and sum w_l = h (Eq. 1 is w_l = 1).
struct TemporalWeights {
  std::vector<double> w;

  /// \brief w_l = 1 for all l — reduces Eq. (2) to Eq. (1).
  static TemporalWeights Uniform(uint64_t h);

  /// \brief Linearly decaying weights, normalized to sum h.
  static TemporalWeights LinearDecay(uint64_t h);

  /// \brief Exponentially decaying weights w_l ~ exp(-rate*(l-1)),
  /// normalized to sum h.
  static TemporalWeights ExponentialDecay(uint64_t h, double rate);

  uint64_t h() const { return w.size(); }

  /// \brief Fixed-point integer weights round(w_l * scale): the secure
  /// pipeline works on integers, so Eq. (2) numerators are aggregated as
  /// sum_l W_l c^l and descaled after division (Section 5.1 variant).
  std::vector<uint64_t> Scaled(uint64_t scale) const;
};

/// \brief Eq. (2) weighted numerator sum_l w_l c^l_ij for each pair.
std::vector<double> ComputeWeightedFollowCounts(
    const ActionLog& log, const std::vector<Arc>& pairs,
    const TemporalWeights& weights);

}  // namespace psi

#endif  // PSI_ACTIONLOG_COUNTERS_H_
