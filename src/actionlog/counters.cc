#include "actionlog/counters.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

std::vector<uint64_t> ComputeActionCounts(const UserActionIndex& index) {
  std::vector<uint64_t> a(index.num_users());
  for (size_t u = 0; u < a.size(); ++u) {
    a[u] = index.Run(static_cast<NodeId>(u)).size();
  }
  return a;
}

namespace {

// Calls visit(p, tj - ti, hit) for every action pairs[p].to performed (at
// tj); hit says pairs[p].from performed it too, at ti < tj with
// tj - ti <= h, and the delay is meaningful only then. Pairs are visited
// grouped by `from` (a stable counting sort of their indices; a pair whose
// `from` is >= n has no hit and is skipped), and each from user's times are
// scattered once into a scratch array indexed by action id, where the to
// user's entries look them up. Actions the from user never performed hold
// UINT64_MAX, which no tj exceeds. Whether `to` followed is data-dependent,
// so hit is computed without branches, and tj - ti is only trusted once
// tj > ti. The array has one slot per action id; an index whose largest id
// is far above its entry count is relabelled first so it stays O(entries).
template <typename Visit>
void ForEachFollow(const UserActionIndex& index, const std::vector<Arc>& pairs,
                   uint64_t h, Visit visit) {
  const size_t slots = index.ActionIdBound();
  if (slots > 4 * index.size() + 4096) {
    ForEachFollow(index.WithDenseActionIds(), pairs, h, visit);
    return;
  }
  const size_t n = index.num_users();
  std::vector<size_t> group(n + 1, 0);
  for (const Arc& arc : pairs) {
    if (arc.from < n) ++group[arc.from + 1];
  }
  for (size_t u = 0; u < n; ++u) group[u + 1] += group[u];
  std::vector<size_t> order(group[n]);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (pairs[p].from < n) order[group[pairs[p].from]++] = p;
  }

  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> from_time(slots, kNever);
  std::span<const ActionTime> from_actions;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t p = order[k];
    if (k == 0 || pairs[p].from != pairs[order[k - 1]].from) {
      for (const auto& e : from_actions) from_time[e.action] = kNever;
      from_actions = index.Run(pairs[p].from);
      for (const auto& e : from_actions) from_time[e.action] = e.time;
    }
    for (const auto& [action, tj] : index.Run(pairs[p].to)) {
      const uint64_t ti = from_time[action];
      visit(p, tj - ti, (tj > ti) & (tj - ti <= h));
    }
  }
}

// An index of `log` over every user `*pairs` names, which may be any
// NodeId. It covers users [0, largest endpoint], unless the endpoints are
// sparse, far above the record and pair counts: then they are replaced, in
// *pairs and in the records, by their ranks among the endpoints, so the
// index stays O(records + pairs).
UserActionIndex IndexForPairs(const ActionLog& log, std::vector<Arc>* pairs) {
  size_t n = 0;
  for (const Arc& arc : *pairs) {
    n = std::max({n, static_cast<size_t>(arc.from) + 1,
                  static_cast<size_t>(arc.to) + 1});
  }
  if (n <= 4 * (log.size() + pairs->size()) + 4096) {
    return UserActionIndex(log.records(), n);
  }
  std::vector<NodeId> ids;
  ids.reserve(2 * pairs->size());
  for (const Arc& arc : *pairs) {
    ids.push_back(arc.from);
    ids.push_back(arc.to);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto rank = [&ids](NodeId user) {
    return static_cast<NodeId>(
        std::lower_bound(ids.begin(), ids.end(), user) - ids.begin());
  };
  for (Arc& arc : *pairs) arc = {rank(arc.from), rank(arc.to)};
  std::vector<ActionRecord> records;
  for (const auto& r : log.records()) {
    if (std::binary_search(ids.begin(), ids.end(), r.user)) {
      records.push_back({rank(r.user), r.action, r.time});
    }
  }
  return UserActionIndex(records, ids.size());
}

}  // namespace

std::vector<uint64_t> ComputeFollowCounts(const ActionLog& log,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  std::vector<Arc> indexed_pairs = pairs;
  const UserActionIndex index = IndexForPairs(log, &indexed_pairs);
  return ComputeFollowCounts(index, indexed_pairs, h);
}

std::vector<uint64_t> ComputeFollowCounts(const UserActionIndex& index,
                                          const std::vector<Arc>& pairs,
                                          uint64_t h) {
  std::vector<uint64_t> b(pairs.size(), 0);
  ForEachFollow(index, pairs, h,
                [&b](size_t p, uint64_t, bool hit) { b[p] += hit; });
  return b;
}

std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const ActionLog& log, const std::vector<Arc>& pairs, uint64_t h) {
  std::vector<Arc> indexed_pairs = pairs;
  const UserActionIndex index = IndexForPairs(log, &indexed_pairs);
  return ComputeExactDelayCounts(index, indexed_pairs, h);
}

std::vector<std::vector<uint64_t>> ComputeExactDelayCounts(
    const UserActionIndex& index, const std::vector<Arc>& pairs, uint64_t h) {
  std::vector<std::vector<uint64_t>> c(pairs.size(),
                                       std::vector<uint64_t>(h, 0));
  ForEachFollow(index, pairs, h,
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
