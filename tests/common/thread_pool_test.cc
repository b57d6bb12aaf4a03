#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace psi {
namespace {

// The global pool is shared process state; every test restores the default
// size so ordering between test cases does not matter.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override { ThreadPool::Global().SetNumThreads(1); }
};

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST_F(ThreadPoolTest, ZeroAndOneIndexEdges) {
  ThreadPool::Global().SetNumThreads(4);
  size_t calls = 0;
  ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // n == 1 degrades to a plain call on the calling thread (no atomics
  // needed to observe it).
  ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST_F(ThreadPoolTest, ResultsMatchSerialForAnyThreadCount) {
  constexpr size_t kN = 513;  // Deliberately not a multiple of any pool size.
  std::vector<uint64_t> serial(kN);
  ThreadPool::Global().SetNumThreads(1);
  ParallelFor(kN, [&](size_t i) { serial[i] = i * i + 7; });
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    std::vector<uint64_t> parallel(kN);
    ParallelFor(kN, [&](size_t i) { parallel[i] = i * i + 7; });
    EXPECT_EQ(parallel, serial) << "threads " << threads;
  }
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool::Global().SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(64,
                    [&](size_t i) {
                      if (i == 13) throw std::runtime_error("boom");
                    }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST_F(ThreadPoolTest, ExceptionDoesNotPoisonPool) {
  ThreadPool::Global().SetNumThreads(4);
  EXPECT_THROW(ParallelFor(8, [](size_t) { throw std::logic_error("x"); }),
               std::logic_error);
  // The pool keeps working after an exceptional job.
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, NestedCallsDegradeToSerial) {
  ThreadPool::Global().SetNumThreads(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  ParallelFor(16, [&](size_t outer) {
    // Inner loop must run inline on the worker, not deadlock on the pool.
    ParallelFor(16, [&](size_t inner) { hits[outer * 16 + inner].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, ChunkCountDependsOnlyOnN) {
  EXPECT_EQ(ThreadPool::NumChunks(0), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(7), 7u);
  EXPECT_EQ(ThreadPool::NumChunks(ThreadPool::kMaxChunks), ThreadPool::kMaxChunks);
  EXPECT_EQ(ThreadPool::NumChunks(100000), ThreadPool::kMaxChunks);
  // Chunked slices tile [0, n) in order with identical boundaries for every
  // pool size — the invariant floating-point reductions rely on.
  constexpr size_t kN = 1000;
  std::vector<std::pair<size_t, size_t>> bounds_serial;
  ThreadPool::Global().SetNumThreads(1);
  {
    std::mutex mu;
    ParallelForChunked(kN, [&](size_t chunk, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      bounds_serial.resize(std::max(bounds_serial.size(), chunk + 1));
      bounds_serial[chunk] = {begin, end};
    });
  }
  ThreadPool::Global().SetNumThreads(8);
  std::vector<std::pair<size_t, size_t>> bounds_parallel;
  {
    std::mutex mu;
    ParallelForChunked(kN, [&](size_t chunk, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      bounds_parallel.resize(std::max(bounds_parallel.size(), chunk + 1));
      bounds_parallel[chunk] = {begin, end};
    });
  }
  EXPECT_EQ(bounds_parallel, bounds_serial);
  ASSERT_EQ(bounds_serial.size(), ThreadPool::NumChunks(kN));
  size_t expect_begin = 0;
  for (const auto& [begin, end] : bounds_serial) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, kN);
}

TEST_F(ThreadPoolTest, ParallelForStatusReportsLowestFailingIndex) {
  for (size_t threads : {1u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    Status s = ParallelForStatus(100, [](size_t i) -> Status {
      if (i == 30) return Status::InvalidArgument("first");
      if (i == 70) return Status::InvalidArgument("second");
      return Status::OK();
    });
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("first"), std::string::npos)
        << "threads " << threads << ": " << s.message();
  }
}

TEST_F(ThreadPoolTest, ParallelForStatusOkWhenAllSucceed) {
  ThreadPool::Global().SetNumThreads(4);
  std::vector<std::atomic<int>> hits(50);
  Status s = ParallelForStatus(50, [&](size_t i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, ConcurrentOutsideCallersEachRunTheirWholeJob) {
  // N threads outside the pool call ParallelFor at once, repeatedly. Every
  // call must run each of its own indices exactly once (no index lost to,
  // or run twice by, another caller's job), and exceptions stay with the
  // call that threw them.
  constexpr size_t kCallers = 6;
  constexpr size_t kRounds = 40;
  constexpr size_t kN = 257;
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    std::vector<std::vector<uint64_t>> sums(kCallers,
                                            std::vector<uint64_t>(kRounds));
    std::vector<size_t> throws(kCallers, 0);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (size_t r = 0; r < kRounds; ++r) {
          std::vector<std::atomic<int>> hits(kN);
          const bool boom = (c + r) % 7 == 0;
          try {
            ParallelFor(kN, [&](size_t i) {
              hits[i].fetch_add(1);
              if (boom && i == kN / 2) throw std::runtime_error("boom");
            });
          } catch (const std::runtime_error&) {
            ++throws[c];
          }
          uint64_t sum = 0;
          for (size_t i = 0; i < kN; ++i) {
            sum += static_cast<uint64_t>(hits[i].load()) * (i + 1);
          }
          sums[c][r] = sum;
        }
      });
    }
    for (auto& t : callers) t.join();
    constexpr uint64_t kWant = kN * (kN + 1) / 2;
    for (size_t c = 0; c < kCallers; ++c) {
      size_t want_throws = 0;
      for (size_t r = 0; r < kRounds; ++r) {
        // A throwing slice stops early, so only clean rounds are summed.
        if ((c + r) % 7 == 0) {
          ++want_throws;
          continue;
        }
        EXPECT_EQ(sums[c][r], kWant)
            << "caller " << c << " round " << r << " threads " << threads;
      }
      EXPECT_EQ(throws[c], want_throws) << "caller " << c;
    }
  }
}

TEST_F(ThreadPoolTest, SetNumThreadsClampsToAtLeastOne) {
  ThreadPool::Global().SetNumThreads(0);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
  size_t calls = 0;
  ParallelFor(5, [&](size_t) { ++calls; });  // Serial => plain counter is fine.
  EXPECT_EQ(calls, 5u);
}

}  // namespace
}  // namespace psi
