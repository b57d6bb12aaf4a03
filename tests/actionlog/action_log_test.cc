#include "actionlog/action_log.h"

#include <gtest/gtest.h>

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

TEST(ActionLogTest, UserIndexReflectsUpdates) {
  ActionLog log;
  log.Add({1, 1, 10});
  ASSERT_EQ(log.UserIndex(1).size(), 1u);
  EXPECT_EQ(log.UserIndex(1)[0].action, 1u);
  EXPECT_EQ(log.UserIndex(1)[0].time, 10u);
  log.Add({1, 2, 20});
  // Index rebuilds lazily after mutation.
  EXPECT_EQ(log.UserIndex(1).size(), 2u);
  log.Add({1, 1, 5});  // Earlier duplicate updates the time.
  ASSERT_EQ(log.UserIndex(1).size(), 2u);
  EXPECT_EQ(log.UserIndex(1)[0].action, 1u);  // Sorted by action.
  EXPECT_EQ(log.UserIndex(1)[0].time, 5u);
  EXPECT_TRUE(log.UserIndex(42).empty());
}

TEST(ActionLogTest, LookupWithoutOutParam) {
  ActionLog log;
  log.Add({1, 1, 10});
  EXPECT_TRUE(log.Lookup(1, 1, nullptr));
}

}  // namespace
}  // namespace psi
