#include "actionlog/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "actionlog/generator.h"
#include "graph/generators.h"

namespace psi {
namespace {

TEST(ActionLogIoTest, RoundTripThroughStream) {
  Rng rng(1);
  auto graph = ErdosRenyiArcs(&rng, 30, 150).ValueOrDie();
  auto truth = GroundTruthInfluence::Uniform(graph, 0.4);
  CascadeParams params;
  params.num_actions = 40;
  auto log = GenerateCascades(&rng, graph, truth, params).ValueOrDie();

  std::stringstream ss;
  ASSERT_TRUE(WriteActionLogText(log, &ss).ok());
  auto loaded = ReadActionLogText(&ss).ValueOrDie();
  EXPECT_EQ(loaded.size(), log.size());
  for (const auto& r : log.records()) {
    uint64_t t;
    ASSERT_TRUE(loaded.Lookup(r.user, r.action, &t));
    EXPECT_EQ(t, r.time);
  }
}

TEST(ActionLogIoTest, EmptyLogRoundTrip) {
  ActionLog log;
  std::stringstream ss;
  ASSERT_TRUE(WriteActionLogText(log, &ss).ok());
  auto loaded = ReadActionLogText(&ss).ValueOrDie();
  EXPECT_TRUE(loaded.empty());
}

TEST(ActionLogIoTest, DuplicatesCollapseOnLoad) {
  std::stringstream ss("1 2 30\n1 2 10\n1 2 50\n");
  auto loaded = ReadActionLogText(&ss).ValueOrDie();
  EXPECT_EQ(loaded.size(), 1u);
  uint64_t t;
  ASSERT_TRUE(loaded.Lookup(1, 2, &t));
  EXPECT_EQ(t, 10u);  // Earliest wins.
}

TEST(ActionLogIoTest, RejectsMalformedInput) {
  {
    std::stringstream ss("1 2\n");  // Missing time.
    EXPECT_FALSE(ReadActionLogText(&ss).ok());
  }
  {
    std::stringstream ss("a b c\n");  // Not numbers.
    EXPECT_FALSE(ReadActionLogText(&ss).ok());
  }
  {
    std::stringstream ss("5000000000 1 2\n");  // User id > 32 bits.
    EXPECT_FALSE(ReadActionLogText(&ss).ok());
  }
  // Id 2^32 - 1 fits 32 bits, but MaxActionId()/MaxUserId() (id + 1)
  // would wrap to 0.
  for (const char* record : {"1 4294967295 5\n", "4294967295 1 5\n"}) {
    std::stringstream ss(record);
    auto loaded = ReadActionLogText(&ss);
    ASSERT_FALSE(loaded.ok()) << record;
    EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange) << record;
  }
}

TEST(ActionLogIoTest, FileRoundTrip) {
  ActionLog log;
  log.Add({1, 2, 3});
  log.Add({4, 5, 6});
  std::string path = ::testing::TempDir() + "/psi_log_io_test.txt";
  ASSERT_TRUE(SaveActionLog(log, path).ok());
  auto loaded = LoadActionLog(path).ValueOrDie();
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_FALSE(LoadActionLog("/nonexistent/nowhere.log").ok());
}

}  // namespace
}  // namespace psi
