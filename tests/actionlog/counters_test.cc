#include "actionlog/counters.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "actionlog/generator.h"
#include "graph/generators.h"
#include "mpc/link_influence_protocol.h"

namespace psi {
namespace {

// Hand-checkable fixture:
//   user 0: action 0 at t=0, action 1 at t=10
//   user 1: action 0 at t=2, action 1 at t=11
//   user 2: action 0 at t=5
ActionLog SmallLog() {
  ActionLog log;
  log.Add({0, 0, 0});
  log.Add({0, 1, 10});
  log.Add({1, 0, 2});
  log.Add({1, 1, 11});
  log.Add({2, 0, 5});
  return log;
}

TEST(CountersTest, ActionCounts) {
  auto a = ComputeActionCounts(SmallLog(), 4);
  EXPECT_EQ(a, (std::vector<uint64_t>{2, 2, 1, 0}));
}

TEST(CountersTest, ActionCountsIgnoreOutOfRangeUsers) {
  ActionLog log;
  log.Add({10, 0, 1});
  auto a = ComputeActionCounts(log, 3);
  EXPECT_EQ(a, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(CountersTest, FollowCountsWindowSemantics) {
  auto log = SmallLog();
  std::vector<Arc> pairs{{0, 1}, {1, 0}, {0, 2}, {2, 1}, {1, 2}};
  // h = 2: user1 followed user0 on action 0 (t=0 -> 2, diff 2 <= 2) and
  // action 1 (10 -> 11, diff 1). user2 followed user0? 0 -> 5: diff 5 > 2.
  // user2 followed... user1 on action0: 2 -> 5 diff 3 > 2.
  auto b2 = ComputeFollowCounts(log, pairs, 2);
  EXPECT_EQ(b2, (std::vector<uint64_t>{2, 0, 0, 0, 0}));
  // h = 5: (0,2) diff 5 now counts; (1,2) diff 3 counts.
  auto b5 = ComputeFollowCounts(log, pairs, 5);
  EXPECT_EQ(b5, (std::vector<uint64_t>{2, 0, 1, 0, 1}));
}

TEST(CountersTest, FollowIsStrictlyAfter) {
  // Simultaneous adoption is not influence (Delta t > 0 per Def. 3.1).
  ActionLog log;
  log.Add({0, 0, 5});
  log.Add({1, 0, 5});
  auto b = ComputeFollowCounts(log, {{0, 1}}, 10);
  EXPECT_EQ(b[0], 0u);
}

TEST(CountersTest, ExactDelayCountsDecomposeFollowCounts) {
  // Property: b^h = sum_l c^l for every pair and window.
  Rng rng(42);
  auto graph = ErdosRenyiArcs(&rng, 30, 150).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.4);
  CascadeParams params;
  params.num_actions = 50;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  for (uint64_t h : {1u, 3u, 6u}) {
    auto b = ComputeFollowCounts(log, graph.arcs(), h);
    auto c = ComputeExactDelayCounts(log, graph.arcs(), h);
    for (size_t p = 0; p < graph.arcs().size(); ++p) {
      uint64_t sum = 0;
      for (uint64_t l = 0; l < h; ++l) sum += c[p][l];
      ASSERT_EQ(sum, b[p]) << "pair " << p << " h " << h;
    }
  }
}

TEST(CountersTest, FollowCountsMonotoneInWindow) {
  Rng rng(43);
  auto graph = ErdosRenyiArcs(&rng, 25, 100).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 40;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  auto b1 = ComputeFollowCounts(log, graph.arcs(), 1);
  auto b4 = ComputeFollowCounts(log, graph.arcs(), 4);
  auto b9 = ComputeFollowCounts(log, graph.arcs(), 9);
  for (size_t p = 0; p < graph.arcs().size(); ++p) {
    EXPECT_LE(b1[p], b4[p]);
    EXPECT_LE(b4[p], b9[p]);
  }
}

TEST(CountersTest, TemporalWeightsSumToH) {
  for (uint64_t h : {1u, 4u, 10u}) {
    for (auto tw : {TemporalWeights::Uniform(h), TemporalWeights::LinearDecay(h),
                    TemporalWeights::ExponentialDecay(h, 0.7)}) {
      double sum = 0.0;
      for (double w : tw.w) {
        EXPECT_GT(w, 0.0);  // Paper constraint: 0 < w_l.
        sum += w;
      }
      EXPECT_NEAR(sum, static_cast<double>(h), 1e-9);
    }
  }
}

TEST(CountersTest, DecayWeightsAreDecreasing) {
  auto lin = TemporalWeights::LinearDecay(5);
  auto exp = TemporalWeights::ExponentialDecay(5, 1.0);
  for (size_t l = 1; l < 5; ++l) {
    EXPECT_GT(lin.w[l - 1], lin.w[l]);
    EXPECT_GT(exp.w[l - 1], exp.w[l]);
  }
}

TEST(CountersTest, UniformWeightsReduceEq2ToEq1) {
  Rng rng(44);
  auto graph = ErdosRenyiArcs(&rng, 20, 80).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.5);
  CascadeParams params;
  params.num_actions = 30;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();
  uint64_t h = 4;
  auto b = ComputeFollowCounts(log, graph.arcs(), h);
  auto weighted = ComputeWeightedFollowCounts(log, graph.arcs(),
                                              TemporalWeights::Uniform(h));
  for (size_t p = 0; p < b.size(); ++p) {
    EXPECT_DOUBLE_EQ(weighted[p], static_cast<double>(b[p]));
  }
}

TEST(CountersTest, ScaledWeightsRounding) {
  auto tw = TemporalWeights::LinearDecay(3);
  auto scaled = tw.Scaled(1000);
  ASSERT_EQ(scaled.size(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(static_cast<double>(scaled[l]), tw.w[l] * 1000.0, 0.51);
  }
}

TEST(CountersTest, EmptyPairListIsFine) {
  auto b = ComputeFollowCounts(SmallLog(), {}, 4);
  EXPECT_TRUE(b.empty());
}

// Brute-force reference over the raw record list: the earliest time per
// (user, action) wins, then every pair compares the two users' times of each
// shared action directly. Returns, per pair, the count at each delay 1..h
// (delays beyond `max_delay_slots` are only summed into the total).
struct ReferenceCounts {
  std::vector<uint64_t> follow;
  std::vector<std::vector<uint64_t>> exact;
};

ReferenceCounts BruteForceCounts(const std::vector<ActionRecord>& raw,
                                 const std::vector<Arc>& pairs, uint64_t h,
                                 uint64_t max_delay_slots) {
  std::map<std::pair<NodeId, ActionId>, uint64_t> first;
  for (const auto& r : raw) {
    auto [it, inserted] = first.emplace(std::make_pair(r.user, r.action), r.time);
    if (!inserted && r.time < it->second) it->second = r.time;
  }
  ReferenceCounts ref;
  ref.follow.assign(pairs.size(), 0);
  ref.exact.assign(pairs.size(),
                   std::vector<uint64_t>(std::min(h, max_delay_slots), 0));
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (const auto& [ui, ti] : first) {
      if (ui.first != pairs[p].from) continue;
      auto tj = first.find({pairs[p].to, ui.second});
      if (tj == first.end() || tj->second <= ti) continue;
      const uint64_t delay = tj->second - ti;
      if (delay > h) continue;
      ++ref.follow[p];
      if (delay <= max_delay_slots) ++ref.exact[p][delay - 1];
    }
  }
  return ref;
}

TEST(CountersTest, RandomizedCountsMatchBruteForce) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  Rng rng(45);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId users = 2 + static_cast<NodeId>(rng.NextU64() % 12);
    const ActionId actions = 1 + static_cast<ActionId>(rng.NextU64() % 20);
    // Times cluster at the bottom and at the top of the range, so deltas
    // near zero and near UINT64_MAX both occur, and duplicates of one
    // (user, action) are common.
    std::vector<ActionRecord> raw;
    const size_t records = rng.NextU64() % 120;
    for (size_t k = 0; k < records; ++k) {
      const uint64_t offset = rng.NextU64() % 12;
      const uint64_t time = (rng.NextU64() % 3 == 0) ? kMax - offset : offset;
      raw.push_back({static_cast<NodeId>(rng.NextU64() % users),
                     static_cast<ActionId>(rng.NextU64() % actions), time});
    }
    ActionLog log;
    for (const auto& r : raw) log.Add(r);
    // Pairs in random order over users both in and absent from the log
    // (ids up to users + 3), with from == to, and with runs of one `from`.
    std::vector<Arc> pairs;
    const size_t num_pairs = rng.NextU64() % 40;
    for (size_t k = 0; k < num_pairs; ++k) {
      NodeId from = static_cast<NodeId>(rng.NextU64() % (users + 3));
      if (!pairs.empty() && rng.NextU64() % 2 == 0) from = pairs.back().from;
      const NodeId to = rng.NextU64() % 5 == 0
                            ? from
                            : static_cast<NodeId>(rng.NextU64() % (users + 3));
      pairs.push_back({from, to});
    }
    for (uint64_t h : {uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{11}}) {
      const auto ref = BruteForceCounts(raw, pairs, h, h);
      ASSERT_EQ(ComputeFollowCounts(log, pairs, h), ref.follow)
          << "trial " << trial << " h " << h;
      ASSERT_EQ(ComputeExactDelayCounts(log, pairs, h), ref.exact)
          << "trial " << trial << " h " << h;
    }
    // Windows at or past the largest delay: every later adoption counts,
    // with no wrap-around of t_i + h.
    for (uint64_t h : {kMax - 1, kMax}) {
      const auto ref = BruteForceCounts(raw, pairs, h, 0);
      ASSERT_EQ(ComputeFollowCounts(log, pairs, h), ref.follow)
          << "trial " << trial << " h " << h;
    }
  }
}

// A provider's stage path, records -> UserActionIndex over [0, n) ->
// counter vector, against ComputeProviderCounterVector over an Add-built
// ActionLog and against BruteForceCounts over the records of users < n,
// for Eq. 1 and Eq. 2's weighted numerators. The records repeat (user,
// action) pairs with the later copy earlier, name users >= n and near
// UINT32_MAX, and in half the trials use action ids up to UINT32_MAX; the
// pairs name endpoints >= n and near UINT32_MAX and include from == to.
// The first trial's log is empty. The ActionLog overloads, which count for
// every user the pairs name, are checked against the unfiltered records.
TEST(CountersTest, IndexCounterVectorMatchesLogAndBruteForce) {
  constexpr NodeId kMaxUser = std::numeric_limits<NodeId>::max();
  constexpr ActionId kMaxAction = std::numeric_limits<ActionId>::max();
  Rng rng(46);
  for (int trial = 0; trial < 80; ++trial) {
    const NodeId n = 1 + static_cast<NodeId>(rng.NextU64() % 12);
    const bool sparse_actions = trial % 2 == 1;
    const auto user = [&rng, n]() {
      return rng.NextU64() % 8 == 0
                 ? kMaxUser - static_cast<NodeId>(rng.NextU64() % 3)
                 : static_cast<NodeId>(rng.NextU64() % (n + 3));
    };
    std::vector<ActionRecord> raw;
    const size_t records = trial == 0 ? 0 : rng.NextU64() % 120;
    for (size_t k = 0; k < records; ++k) {
      const auto a = static_cast<ActionId>(rng.NextU64() % 15);
      raw.push_back({user(), sparse_actions ? kMaxAction - a * 65537 : a,
                     20 + rng.NextU64() % 30});
      if (rng.NextU64() % 4 == 0) {
        raw.push_back({raw.back().user, raw.back().action,
                       raw.back().time - 1 - rng.NextU64() % 20});
      }
    }
    std::vector<Arc> pairs;
    const size_t num_pairs = rng.NextU64() % 40;
    for (size_t k = 0; k < num_pairs; ++k) {
      const NodeId from = user();
      pairs.push_back({from, rng.NextU64() % 5 == 0 ? from : user()});
    }
    ActionLog log;
    for (const auto& r : raw) log.Add(r);
    std::vector<ActionRecord> in_range;
    for (const auto& r : raw) {
      if (r.user < n) in_range.push_back(r);
    }
    std::set<std::pair<NodeId, ActionId>> performed;
    for (const auto& r : in_range) performed.insert({r.user, r.action});
    std::vector<uint64_t> want_a(n, 0);
    for (const auto& [u, a] : performed) ++want_a[u];

    const UserActionIndex index(raw, n);
    EXPECT_EQ(ComputeActionCounts(index), want_a) << "trial " << trial;
    for (uint64_t h : {uint64_t{1}, uint64_t{4}, uint64_t{9}}) {
      const auto ref = BruteForceCounts(in_range, pairs, h, h);
      Protocol4Config eq1;
      eq1.h = h;
      Protocol4Config eq2 = eq1;
      eq2.weights = TemporalWeights::LinearDecay(h);
      for (const Protocol4Config& cfg : {eq1, eq2}) {
        std::vector<uint64_t> want = want_a;
        const auto scaled = cfg.weights.has_value()
                                ? cfg.weights->Scaled(cfg.weight_scale)
                                : std::vector<uint64_t>();
        for (size_t p = 0; p < pairs.size(); ++p) {
          uint64_t numerator = ref.follow[p];
          if (cfg.weights.has_value()) {
            numerator = 0;
            for (uint64_t l = 0; l < h; ++l) {
              numerator += scaled[l] * ref.exact[p][l];
            }
          }
          want.push_back(numerator);
        }
        const std::string where = "trial " + std::to_string(trial) + " h " +
                                  std::to_string(h) +
                                  (cfg.weights.has_value() ? " eq2" : " eq1");
        ASSERT_EQ(ComputeProviderCounterVector(index, pairs, cfg).ValueOrDie(),
                  want)
            << where;
        ASSERT_EQ(
            ComputeProviderCounterVector(log, n, pairs, cfg).ValueOrDie(),
            want)
            << where;
      }
      const auto unfiltered = BruteForceCounts(raw, pairs, h, h);
      ASSERT_EQ(ComputeFollowCounts(log, pairs, h), unfiltered.follow)
          << "trial " << trial << " h " << h;
      ASSERT_EQ(ComputeExactDelayCounts(log, pairs, h), unfiltered.exact)
          << "trial " << trial << " h " << h;
    }
  }
}

TEST(CountersTest, TimesNearTheTopOfTheRangeDoNotWrap) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ActionLog log;
  log.Add({0, 0, kMax - 2});
  log.Add({1, 0, kMax});
  log.Add({0, 1, 0});
  log.Add({1, 1, kMax});
  // Action 0 follows after 2 steps; action 1 after kMax steps, which only
  // the unbounded window admits.
  EXPECT_EQ(ComputeFollowCounts(log, {{0, 1}, {1, 0}}, 2),
            (std::vector<uint64_t>{1, 0}));
  EXPECT_EQ(ComputeFollowCounts(log, {{0, 1}}, kMax),
            (std::vector<uint64_t>{2}));
  EXPECT_EQ(ComputeExactDelayCounts(log, {{0, 1}}, 3),
            (std::vector<std::vector<uint64_t>>{{0, 1, 0}}));
}

TEST(CountersTest, SparseActionIdsCountLikeDenseOnes) {
  // Ids far above the record count are relabelled before counting; the
  // counts must equal those of the same log with small ids.
  ActionLog sparse;
  ActionLog dense;
  const ActionId big = std::numeric_limits<ActionId>::max();
  for (const auto& [user, action, time] :
       {ActionRecord{0, 0, 1}, ActionRecord{1, 0, 3}, ActionRecord{0, 1, 5},
        ActionRecord{1, 1, 6}, ActionRecord{2, 1, 9}}) {
    sparse.Add({user, action == 0 ? big : big / 2, time});
    dense.Add({user, action, time});
  }
  const std::vector<Arc> pairs = {{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  EXPECT_EQ(ComputeFollowCounts(sparse, pairs, 4),
            ComputeFollowCounts(dense, pairs, 4));
  EXPECT_EQ(ComputeExactDelayCounts(sparse, pairs, 4),
            ComputeExactDelayCounts(dense, pairs, 4));
}

}  // namespace
}  // namespace psi
