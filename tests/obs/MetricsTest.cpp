//===- tests/obs/MetricsTest.cpp - Metrics registry tests ---------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "../TestUtil.h"
#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

using namespace slp;
using namespace slp::obs;

namespace {

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

TEST(HistogramBuckets, ExactBelowEight) {
  for (uint64_t V = 0; V < 8; ++V) {
    EXPECT_EQ(Histogram::bucketIndex(V), V);
    EXPECT_EQ(Histogram::bucketLowerBound(static_cast<unsigned>(V)), V);
  }
}

TEST(HistogramBuckets, LowerBoundIsInverseOnBoundaries) {
  // Every bucket's lower bound must map back to that bucket, and the
  // value one below it to the previous bucket.
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
    uint64_t Lo = Histogram::bucketLowerBound(B);
    EXPECT_EQ(Histogram::bucketIndex(Lo), B) << "bucket " << B;
    if (Lo > 0) {
      EXPECT_EQ(Histogram::bucketIndex(Lo - 1), B - 1) << "bucket " << B;
    }
  }
}

TEST(HistogramBuckets, MonotoneAndCovering) {
  // Lower bounds strictly increase, and upperBound(B) == lowerBound(B+1)
  // so the buckets tile the domain with no gaps.
  for (unsigned B = 0; B + 1 < Histogram::NumBuckets; ++B) {
    EXPECT_LT(Histogram::bucketLowerBound(B), Histogram::bucketLowerBound(B + 1));
    EXPECT_EQ(Histogram::bucketUpperBound(B), Histogram::bucketLowerBound(B + 1));
  }
}

TEST(HistogramBuckets, FourSubBucketsPerOctave) {
  // Above 8, relative bucket width is at most 25%.
  for (uint64_t V : {8ull, 100ull, 1000ull, 123456ull, 1ull << 40}) {
    unsigned B = Histogram::bucketIndex(V);
    uint64_t Lo = Histogram::bucketLowerBound(B);
    uint64_t Hi = Histogram::bucketUpperBound(B);
    EXPECT_LE(Lo, V);
    EXPECT_LT(V, Hi);
    EXPECT_LE(static_cast<double>(Hi - Lo), 0.25 * static_cast<double>(Lo) + 1);
  }
}

TEST(HistogramBuckets, HugeValuesStayInRange) {
  EXPECT_LT(Histogram::bucketIndex(~0ull), Histogram::NumBuckets);
  EXPECT_EQ(Histogram::bucketUpperBound(Histogram::NumBuckets - 1), ~0ull);
}

//===----------------------------------------------------------------------===//
// Quantiles
//===----------------------------------------------------------------------===//

TEST(HistogramQuantile, EmptyIsZero) {
  Histogram H;
  EXPECT_EQ(H.snapshot().quantile(0.5), 0.0);
}

TEST(HistogramQuantile, ExactForSmallValues) {
  // Values below 8 land in width-1 buckets, so quantiles are exact.
  Histogram H;
  for (uint64_t V : {1ull, 2ull, 3ull, 4ull, 5ull})
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.Sum, 15u);
  EXPECT_EQ(S.Max, 5u);
  EXPECT_DOUBLE_EQ(S.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(S.quantile(1.0), 5.0);
}

TEST(HistogramQuantile, InterpolatesWithinBucket) {
  // 100 samples of the same large value: every quantile must fall
  // inside that value's bucket (clamped by Max).
  Histogram H;
  for (int I = 0; I != 100; ++I)
    H.record(1000);
  HistogramSnapshot S = H.snapshot();
  unsigned B = Histogram::bucketIndex(1000);
  double Lo = static_cast<double>(Histogram::bucketLowerBound(B));
  for (double Q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    double V = S.quantile(Q);
    EXPECT_GE(V, Lo);
    EXPECT_LE(V, 1001.0); // Max + 1 clamps the top.
  }
}

TEST(HistogramQuantile, OrderedAcrossBuckets) {
  Histogram H;
  for (uint64_t V = 1; V <= 10000; ++V)
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  double Last = -1;
  for (double Q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double V = S.quantile(Q);
    EXPECT_GE(V, Last);
    Last = V;
    // Log-bucketing is within 25% + interpolation slack of the truth.
    double Truth = Q * 10000;
    EXPECT_NEAR(V, Truth, 0.25 * Truth + 8);
  }
}

TEST(HistogramQuantile, SnapshotMinusIsolatesNewSamples) {
  Histogram H;
  for (int I = 0; I != 50; ++I)
    H.record(2);
  HistogramSnapshot Before = H.snapshot();
  for (int I = 0; I != 50; ++I)
    H.record(6);
  HistogramSnapshot Delta = H.snapshot().minus(Before);
  EXPECT_EQ(Delta.Count, 50u);
  EXPECT_EQ(Delta.Sum, 300u);
  // All delta samples are 6 (width-1 bucket): exact quantiles.
  EXPECT_DOUBLE_EQ(Delta.quantile(0.0), 6.0);
  EXPECT_DOUBLE_EQ(Delta.quantile(1.0), 6.0);
}

//===----------------------------------------------------------------------===//
// Histogram concurrency
//===----------------------------------------------------------------------===//

TEST(Histogram, CountsAcrossThreads) {
  Histogram H;
  constexpr int Threads = 8, PerThread = 5000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&H, T] {
      for (int I = 0; I != PerThread; ++I)
        H.record(static_cast<uint64_t>(T) * 1000 + 1);
    });
  for (std::thread &T : Ts)
    T.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, static_cast<uint64_t>(Threads) * PerThread);
  uint64_t BucketSum = 0;
  for (uint64_t N : S.Buckets)
    BucketSum += N;
  EXPECT_EQ(BucketSum, S.Count);
  EXPECT_EQ(S.Max, 7001u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, SameNameSameInstance) {
  MetricsRegistry R;
  R.add("x.a", 3);
  R.add("x.a", 4);
  R.set("g.a", 5);
  R.set("g.a", -2);
  MetricsSnapshot S = R.snapshot();
  ASSERT_EQ(S.Counters.size(), 1u);
  EXPECT_EQ(S.counterOr0("x.a"), 7u);
  ASSERT_EQ(S.Gauges.size(), 1u);
  ASSERT_NE(S.gauge("g.a"), nullptr);
  EXPECT_EQ(*S.gauge("g.a"), -2);
  EXPECT_EQ(&R.histogram("h.a"), &R.histogram("h.a"));
}

TEST(MetricsRegistry, SnapshotPreservesRegistrationOrder) {
  MetricsRegistry R;
  R.add("z.first", 0);
  R.add("a.second", 1);
  R.add("m.third", 0);
  R.add("z.first", 2);
  MetricsSnapshot S = R.snapshot();
  ASSERT_EQ(S.Counters.size(), 3u);
  EXPECT_EQ(S.Counters[0].first, "z.first");
  EXPECT_EQ(S.Counters[1].first, "a.second");
  EXPECT_EQ(S.Counters[2].first, "m.third");
}

TEST(MetricsRegistry, ConcurrentLookupAndIncrement) {
  MetricsRegistry R;
  constexpr int Threads = 8, PerThread = 2000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&R] {
      for (int I = 0; I != PerThread; ++I)
        R.add("contended", 1);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(R.snapshot().counterOr0("contended"),
            static_cast<uint64_t>(Threads) * PerThread);
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser) {
  MetricsRegistry R;
  R.add("c.one", 42);
  R.set("g.depth", -7);
  Histogram &H = R.histogram("h.lat");
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  std::string Text = R.snapshot().json();

  std::unique_ptr<test::Json> Doc = test::parseJson(Text);
  ASSERT_TRUE(Doc) << Text;
  const test::Json *Counters = Doc->get("counters");
  ASSERT_TRUE(Counters);
  const test::Json *C = Counters->get("c.one");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->Num, 42.0);
  const test::Json *G = Doc->get("gauges");
  ASSERT_TRUE(G && G->get("g.depth"));
  EXPECT_EQ(G->get("g.depth")->Num, -7.0);
  const test::Json *Hists = Doc->get("histograms");
  ASSERT_TRUE(Hists);
  const test::Json *Lat = Hists->get("h.lat");
  ASSERT_TRUE(Lat);
  EXPECT_EQ(Lat->get("count")->Num, 100.0);
  EXPECT_EQ(Lat->get("sum")->Num, 5050.0);
  EXPECT_EQ(Lat->get("max")->Num, 100.0);
  ASSERT_TRUE(Lat->get("p50"));
  ASSERT_TRUE(Lat->get("p99"));
  EXPECT_GT(Lat->get("p99")->Num, Lat->get("p50")->Num);
}

TEST(MetricsRegistry, ResetForTestZeroesKeepsHandles) {
  MetricsRegistry R;
  R.add("r.c", 5);
  R.set("r.g", 9);
  Histogram &H = R.histogram("r.h");
  H.record(3);
  R.resetForTest();
  MetricsSnapshot S = R.snapshot();
  ASSERT_NE(S.counter("r.c"), nullptr) << "names stay registered";
  EXPECT_EQ(*S.counter("r.c"), 0u);
  ASSERT_NE(S.gauge("r.g"), nullptr);
  EXPECT_EQ(*S.gauge("r.g"), 0);
  EXPECT_EQ(H.snapshot().Count, 0u);
  R.add("r.c", 1);
  H.record(3);
  EXPECT_EQ(R.snapshot().counterOr0("r.c"), 1u);
  EXPECT_EQ(R.snapshot().histogram("r.h")->Count, 1u);
}

} // namespace
