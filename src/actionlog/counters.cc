#include "actionlog/counters.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/logging.h"

namespace psi {

std::vector<uint64_t> ComputeActionCounts(const ActionLog& log,
                                          size_t num_users) {
  std::vector<uint64_t> a(num_users, 0);
  for (const auto& r : log.records()) {
    if (r.user < num_users) ++a[r.user];
  }
  return a;
}

namespace {

// The same log with its action ids replaced by their ranks. Counters only
// compare the times two users recorded for the same action, so they do not
// depend on the labels.
ActionLog WithDenseActionIds(const ActionLog& log) {
  std::vector<ActionId> ids;
  ids.reserve(log.size());
  for (const auto& r : log.records()) ids.push_back(r.action);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ActionLog dense;
  for (auto r : log.records()) {
    r.action = static_cast<ActionId>(
        std::lower_bound(ids.begin(), ids.end(), r.action) - ids.begin());
    dense.Add(r);
  }
  return dense;
}

// Calls visit(p, tj - ti, hit) for every action pairs[p].to performed (at
// tj); hit says pairs[p].from performed it too, at ti < tj with
// tj - ti <= h, and the delay is meaningful only then. The from user's times
// are scattered into scratch arrays indexed by action id, reused while
// consecutive pairs share `from`; the to user's entries are looked up in
// them. Whether `to` followed is data-dependent, so hit is computed without
// branches, and tj - ti is only trusted once tj > ti. ActionId is dense, so
// the arrays have one slot per id; a log whose largest id is far above its
// record count is relabelled first so they stay O(records).
template <typename Visit>
void ForEachFollow(const ActionLog& log, const std::vector<Arc>& pairs,
                   uint64_t h, Visit visit) {
  size_t slots = 0;
  for (const auto& r : log.records()) {
    slots = std::max(slots, static_cast<size_t>(r.action) + 1);
  }
  if (slots > 4 * log.size() + 4096) {
    ForEachFollow(WithDenseActionIds(log), pairs, h, visit);
    return;
  }
  std::vector<uint64_t> from_time(slots);
  std::vector<uint8_t> from_has(slots, 0);
  std::span<const ActionTime> from_actions;
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (p == 0 || pairs[p].from != pairs[p - 1].from) {
      for (const auto& e : from_actions) from_has[e.action] = 0;
      from_actions = log.UserIndex(pairs[p].from);
      for (const auto& e : from_actions) {
        from_time[e.action] = e.time;
        from_has[e.action] = 1;
      }
    }
    for (const auto& [action, tj] : log.UserIndex(pairs[p].to)) {
      const uint64_t ti = from_time[action];
      visit(p, tj - ti, (from_has[action] != 0) & (tj > ti) & (tj - ti <= h));
    }
  }
}

}  // namespace

std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  std::vector<uint64_t> b(pairs.size(), 0);
  ForEachFollow(log, pairs, h,
                [&b](size_t p, uint64_t, bool hit) { b[p] += hit; });
  return b;
}

std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h) {
  std::vector<std::vector<uint64_t>> c(pairs.size(),
                                       std::vector<uint64_t>(h, 0));
  ForEachFollow(log, pairs, h,
                [&c](size_t p, uint64_t delay, bool hit) {
                  if (hit) ++c[p][delay - 1];
                });
  return c;
}

TemporalWeights TemporalWeights::Uniform(uint64_t h) {
  PSI_CHECK(h > 0) << "window width must be positive";
  TemporalWeights tw;
  tw.w.assign(h, 1.0);
  return tw;
}

TemporalWeights TemporalWeights::LinearDecay(uint64_t h) {
  PSI_CHECK(h > 0) << "window width must be positive";
  TemporalWeights tw;
  tw.w.resize(h);
  double sum = 0.0;
  for (uint64_t l = 0; l < h; ++l) {
    tw.w[l] = static_cast<double>(h - l);
    sum += tw.w[l];
  }
  for (auto& x : tw.w) x *= static_cast<double>(h) / sum;
  return tw;
}

TemporalWeights TemporalWeights::ExponentialDecay(uint64_t h, double rate) {
  PSI_CHECK(h > 0) << "window width must be positive";
  PSI_CHECK(rate >= 0.0) << "decay rate must be non-negative";
  TemporalWeights tw;
  tw.w.resize(h);
  double sum = 0.0;
  for (uint64_t l = 0; l < h; ++l) {
    tw.w[l] = std::exp(-rate * static_cast<double>(l));
    sum += tw.w[l];
  }
  for (auto& x : tw.w) x *= static_cast<double>(h) / sum;
  return tw;
}

std::vector<uint64_t> TemporalWeights::Scaled(uint64_t scale) const {
  std::vector<uint64_t> out(w.size());
  for (size_t l = 0; l < w.size(); ++l) {
    out[l] = static_cast<uint64_t>(std::llround(w[l] * static_cast<double>(scale)));
  }
  return out;
}

std::vector<double> ComputeWeightedFollowCounts(
    const ActionLog& log, const std::vector<Arc>& pairs,
    const TemporalWeights& weights) {
  auto c = ComputeExactDelayCounts(log, pairs, weights.h());
  std::vector<double> out(pairs.size(), 0.0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (uint64_t l = 0; l < weights.h(); ++l) {
      out[p] += weights.w[l] * static_cast<double>(c[p][l]);
    }
  }
  return out;
}

}  // namespace psi
