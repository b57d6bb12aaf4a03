#include "actionlog/action_log.h"

#include <gtest/gtest.h>

#include <limits>

namespace psi {
namespace {

TEST(ActionLogTest, EmptyLog) {
  ActionLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.MaxTime(), 0u);
  EXPECT_EQ(log.MaxActionId(), 0u);
  EXPECT_EQ(log.MaxUserId(), 0u);
  uint64_t t;
  EXPECT_FALSE(log.Lookup(0, 0, &t));
}

TEST(ActionLogTest, AddAndLookup) {
  ActionLog log;
  log.Add({3, 7, 100});
  uint64_t t = 0;
  EXPECT_TRUE(log.Lookup(3, 7, &t));
  EXPECT_EQ(t, 100u);
  EXPECT_FALSE(log.Lookup(3, 8, &t));
  EXPECT_FALSE(log.Lookup(4, 7, &t));
  EXPECT_EQ(log.MaxUserId(), 4u);
  EXPECT_EQ(log.MaxActionId(), 8u);
  EXPECT_EQ(log.MaxTime(), 100u);
}

TEST(ActionLogTest, DuplicateUserActionKeepsEarliest) {
  // The paper: a user performs any action at most once (first purchase).
  ActionLog log;
  log.Add({1, 1, 50});
  log.Add({1, 1, 30});  // Earlier: replaces.
  log.Add({1, 1, 80});  // Later: ignored.
  EXPECT_EQ(log.size(), 1u);
  uint64_t t;
  ASSERT_TRUE(log.Lookup(1, 1, &t));
  EXPECT_EQ(t, 30u);
}

TEST(ActionLogTest, MergeDeduplicatesAcrossLogs) {
  ActionLog a, b;
  a.Add({1, 1, 10});
  a.Add({2, 1, 20});
  b.Add({1, 1, 5});   // Earlier copy of (1,1).
  b.Add({3, 2, 30});
  a.Merge(b);
  EXPECT_EQ(a.size(), 3u);
  uint64_t t;
  ASSERT_TRUE(a.Lookup(1, 1, &t));
  EXPECT_EQ(t, 5u);
}

TEST(ActionLogTest, RecordsOfActionFilters) {
  ActionLog log;
  log.Add({1, 1, 10});
  log.Add({2, 1, 20});
  log.Add({3, 2, 30});
  auto recs = log.RecordsOfAction(1);
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_TRUE(log.RecordsOfAction(9).empty());
}

TEST(UserActionIndexTest, RunsAreSortedDedupedAndBounded) {
  constexpr NodeId kMaxUser = std::numeric_limits<NodeId>::max();
  constexpr ActionId kMaxAction = std::numeric_limits<ActionId>::max();
  // User 1 repeats action 1, its later copies earlier; users 5 and
  // kMaxUser lie outside [0, 3) and are dropped.
  const std::vector<ActionRecord> records = {
      {1, 2, 20}, {1, 1, 10}, {5, 1, 1}, {1, 1, 5}, {0, kMaxAction, 7},
      {kMaxUser, 0, 3}, {1, 1, 8}};
  const UserActionIndex index(records, 3);
  EXPECT_EQ(index.num_users(), 3u);
  EXPECT_EQ(index.size(), 3u);
  const auto run = index.Run(1);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].action, 1u);  // Sorted by action, earliest time kept.
  EXPECT_EQ(run[0].time, 5u);
  EXPECT_EQ(run[1].action, 2u);
  EXPECT_EQ(run[1].time, 20u);
  EXPECT_EQ(index.Run(0).size(), 1u);
  EXPECT_TRUE(index.Run(2).empty());
  EXPECT_TRUE(index.Run(5).empty());
  EXPECT_TRUE(index.Run(kMaxUser).empty());

  uint64_t t = 0;
  EXPECT_TRUE(index.Lookup(1, 1, &t));
  EXPECT_EQ(t, 5u);
  EXPECT_TRUE(index.Lookup(0, kMaxAction, nullptr));
  EXPECT_FALSE(index.Lookup(1, 3, &t));
  EXPECT_FALSE(index.Lookup(5, 1, &t));
  EXPECT_EQ(index.ActionIdBound(), size_t{kMaxAction} + 1);

  // Ranks replace the ids {1, 2, kMaxAction}; runs keep their order.
  const UserActionIndex dense = index.WithDenseActionIds();
  EXPECT_EQ(dense.ActionIdBound(), 3u);
  ASSERT_EQ(dense.Run(1).size(), 2u);
  EXPECT_EQ(dense.Run(1)[0].action, 0u);
  EXPECT_EQ(dense.Run(1)[1].action, 1u);
  EXPECT_TRUE(dense.Lookup(0, 2, &t));
  EXPECT_EQ(t, 7u);

  const UserActionIndex empty;
  EXPECT_EQ(empty.num_users(), 0u);
  EXPECT_TRUE(empty.Run(0).empty());
  EXPECT_EQ(UserActionIndex(records, 0).size(), 0u);
}

TEST(ActionLogTest, LookupWithoutOutParam) {
  ActionLog log;
  log.Add({1, 1, 10});
  EXPECT_TRUE(log.Lookup(1, 1, nullptr));
}

}  // namespace
}  // namespace psi
