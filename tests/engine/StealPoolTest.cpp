//===- tests/engine/StealPoolTest.cpp -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The work-stealing index distributor: every index of [0, size) must
/// be claimed exactly once regardless of worker count and scheduling,
/// imbalanced per-item costs must trigger stealing, and the counters
/// must add up.
///
//===----------------------------------------------------------------------===//

#include "engine/StealPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace slp;
using namespace slp::engine;

namespace {

/// Runs \p Workers threads popping from \p Pool, bumping a per-index
/// claim count; returns the counts. Indices below \p SlowBelow
/// busy-wait, giving the run a skewed cost profile.
std::vector<unsigned> drain(StealPool &Pool, unsigned Workers,
                            size_t SlowBelow = 0) {
  std::vector<std::atomic<unsigned>> Claims(Pool.size());
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Workers; ++W)
    Threads.emplace_back([&, W] {
      size_t I;
      while (Pool.pop(W, I)) {
        Claims[I].fetch_add(1, std::memory_order_relaxed);
        if (I < SlowBelow) {
          std::atomic<unsigned> Spin{0};
          while (Spin.fetch_add(1, std::memory_order_relaxed) != 20000) {
          }
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<unsigned> Out;
  Out.reserve(Claims.size());
  for (std::atomic<unsigned> &C : Claims)
    Out.push_back(C.load());
  return Out;
}

TEST(StealPoolTest, EveryIndexClaimedExactlyOnce) {
  for (unsigned Workers : {1u, 2u, 3u, 8u}) {
    StealPool Pool(1000, Workers);
    std::vector<unsigned> Claims = drain(Pool, Workers);
    for (size_t I = 0; I != Claims.size(); ++I)
      EXPECT_EQ(Claims[I], 1u) << "index " << I << " with " << Workers
                               << " workers";
    size_t I;
    for (unsigned W = 0; W != Workers; ++W)
      EXPECT_FALSE(Pool.pop(W, I)) << "drained pool, worker " << W;
    EXPECT_EQ(Pool.totals().Executed, 1000u);
  }
}

TEST(StealPoolTest, SizeSmallerThanWorkers) {
  StealPool Pool(3, 8);
  std::vector<unsigned> Claims = drain(Pool, 8);
  for (size_t I = 0; I != Claims.size(); ++I)
    EXPECT_EQ(Claims[I], 1u);
  EXPECT_EQ(Pool.totals().Executed, 3u);
}

TEST(StealPoolTest, EmptyPoolPopsFalse) {
  StealPool Pool(0, 4);
  size_t I;
  EXPECT_FALSE(Pool.pop(0, I));
  EXPECT_FALSE(Pool.pop(3, I));
  EXPECT_EQ(Pool.totals().Executed, 0u);
}

TEST(StealPoolTest, ImbalanceTriggersStealing) {
  // Worker 0's initial block ([0, 500)) is entirely slow items, the
  // other three blocks are free: workers 1-3 drain quickly and must
  // relieve worker 0 by stealing (the pool still has hundreds of
  // unclaimed indices when they run dry).
  StealPool Pool(2000, 4);
  std::vector<unsigned> Claims = drain(Pool, 4, /*SlowBelow=*/500);
  for (size_t I = 0; I != Claims.size(); ++I)
    EXPECT_EQ(Claims[I], 1u);
  StealStats T = Pool.totals();
  EXPECT_EQ(T.Executed, 2000u);
  EXPECT_GT(T.Steals, 0u);
  EXPECT_GE(T.StealAttempts, T.Steals);
}

TEST(StealPoolTest, SequentialDrainIsInputOrder) {
  // One worker, no thieves: pops walk the block front to back, so the
  // engine's single-job path visits tasks in input order.
  StealPool Pool(100, 1);
  size_t I, Expected = 0;
  while (Pool.pop(0, I))
    EXPECT_EQ(I, Expected++);
  EXPECT_EQ(Expected, 100u);
}

TEST(StealPoolTest, PerWorkerStatsSumToTotals) {
  StealPool Pool(500, 3);
  drain(Pool, 3, /*SlowBelow=*/100);
  StealStats Sum;
  for (unsigned W = 0; W != 3; ++W)
    Sum += Pool.stats(W);
  StealStats T = Pool.totals();
  EXPECT_EQ(Sum.Executed, T.Executed);
  EXPECT_EQ(Sum.Steals, T.Steals);
  EXPECT_EQ(Sum.StealAttempts, T.StealAttempts);
}

} // namespace
