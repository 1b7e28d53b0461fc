// Tests for the benchmark's own arithmetic (perfbench/cpp/stats.hpp): the
// tail-percentile rule, quantiles, self-time subtraction and the
// attribution ledger. Build and run:
//   cmake --build <build dir> --target perfbench_test
//   ctest --test-dir <build dir>
#include "stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

TEST(TailPercentile, HighestLadderStepWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);   // the median leaves 9.5 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);  // p90 leaves 9.9 beyond
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(1000000), 99.999);
  EXPECT_EQ(tail_percentile(50000000), 99.999);  // top of the ladder
}

TEST(TailPercentile, SupportedMatchesTheRule) {
  EXPECT_FALSE(percentile_supported(99, 999));
  EXPECT_TRUE(percentile_supported(99, 1000));
  EXPECT_FALSE(percentile_supported(99.9, 9999));
  EXPECT_TRUE(percentile_supported(99.9, 10000));
  EXPECT_TRUE(percentile_supported(50, 20));
  EXPECT_FALSE(percentile_supported(100, 1000000));
}

TEST(LatHist, ExactBucketsGiveExactQuantiles) {
  LatHist h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.quantile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(100), 100.0);
  EXPECT_EQ(LatHist().quantile(50), 0.0);
}

TEST(LatHist, WideBucketsStayWithinTheirWidth) {
  for (const std::uint64_t v : {65ull, 4500ull, 123456ull, 987654321ull}) {
    LatHist h;
    for (int i = 0; i < 1000; ++i) h.record(v);
    const auto [lo, hi] = LatHist::bucket_bounds(LatHist::bucket_of(v));
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    EXPECT_LE(static_cast<double>(hi - lo), static_cast<double>(v) / 64.0);
    EXPECT_NEAR(h.quantile(50), static_cast<double>(v), static_cast<double>(v) / 64.0);
  }
}

TEST(LatHist, BucketsTileTheRange) {
  for (std::size_t i = 1; i < LatHist::kBuckets; ++i) {
    EXPECT_EQ(LatHist::bucket_bounds(i).first, LatHist::bucket_bounds(i - 1).second + 1);
  }
  const std::uint64_t top = std::uint64_t{1} << LatHist::kMaxBits;
  EXPECT_EQ(LatHist::bucket_bounds(LatHist::kBuckets - 1).second, top - 1);
  EXPECT_EQ(LatHist::bucket_of(top - 1), LatHist::kBuckets - 1);
  EXPECT_EQ(LatHist::bucket_of(top), LatHist::kBuckets - 1);  // clamped
  EXPECT_EQ(LatHist::bucket_of(~0ull), LatHist::kBuckets - 1);
}

TEST(SlicedHist, MedianOverSlicesThatSupportThePercentile) {
  SlicedHist s;
  for (int i = 0; i < 1000; ++i) s.record(0, 10);
  for (int i = 0; i < 1000; ++i) s.record(1, 30);
  for (int i = 0; i < 1000; ++i) s.record(2, 20);
  for (int i = 0; i < 50; ++i) s.record(3, 1000);  // too few for a p99
  EXPECT_DOUBLE_EQ(s.median_of(50), 25.0);  // slices 0-3: 10, 30, 20, 1000
  EXPECT_DOUBLE_EQ(s.median_of(99), 20.0);  // slice 3 cannot report a p99
  EXPECT_EQ(s.total().count(), 3050u);
  SlicedHist other;
  other.record(5, 7);
  s.merge(other);
  EXPECT_EQ(s.total().count(), 3051u);
  EXPECT_EQ(SlicedHist().median_of(50), 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(LatHist, MergeAddsCounts) {
  LatHist a, b;
  for (int i = 0; i < 60; ++i) a.record(10);
  for (int i = 0; i < 40; ++i) b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.quantile(50), 10.0);
  EXPECT_DOUBLE_EQ(a.quantile(61), 20.0);
}

TEST(RegistryHistogram, DeltaKeepsOnlyTheWindow) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  const obs::HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(10);
  const obs::HistogramSnapshot d = hist_delta(h.snapshot(), before);
  EXPECT_EQ(d.count, 50u);
  EXPECT_EQ(d.sum, 500u);
  // Only the 50 window samples of 10 remain, in the registry's [10, 11]
  // bucket; the p50 interpolates to the middle of it.
  EXPECT_DOUBLE_EQ(hist_quantile(d, 50), 10.5);
  EXPECT_DOUBLE_EQ(hist_quantile(d, 100), 11.0);
  EXPECT_EQ(hist_quantile(obs::HistogramSnapshot{}, 50), 0.0);
}

TEST(RegistryHistogram, GrowthBetweenSnapshotsAddsAcrossRegistries) {
  obs::MetricsRegistry r1, r2;
  r1.histogram("x").record(100);
  const obs::MetricsSnapshot b1 = r1.snapshot();
  const obs::MetricsSnapshot b2 = r2.snapshot();  // "x" not registered yet
  r1.histogram("x").record(10);
  r2.histogram("x").record(20);
  obs::HistogramSnapshot sum;
  hist_add(sum, hist_between(r1.snapshot(), b1, "x"));
  hist_add(sum, hist_between(r2.snapshot(), b2, "x"));  // absent before: skipped
  EXPECT_EQ(sum.count, 1u);
  EXPECT_EQ(sum.sum, 10u);
  EXPECT_EQ(hist_between(r1.snapshot(), b1, "missing").count, 0u);
}

TEST(RegistryHistogram, InterpolatesInsideTheBucket) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1000);
  const auto b = obs::Histogram::bucket_bounds(obs::Histogram::bucket_of(1000));
  const double p50 = hist_quantile(h.snapshot(), 50);
  EXPECT_GE(p50, static_cast<double>(b.lo));
  EXPECT_LE(p50, static_cast<double>(b.hi));
  EXPECT_LT(hist_quantile(h.snapshot(), 10), hist_quantile(h.snapshot(), 90));
}

TEST(SelfTime, SubtractsEveryChild) {
  EXPECT_EQ(self_time(100, {}), 100);
  EXPECT_EQ(self_time(100, {30, 20}), 50);
  EXPECT_EQ(self_time(100, {30, 20, 50}), 0);
  EXPECT_EQ(self_time(10, {30}), -20);  // reported, never clamped here
}

TEST(Attribution, LayersPlusRemainderEqualWall) {
  Attribution a;
  a.add("posixfs", 120);
  a.add("fs", 500);
  a.add("fs", 80);
  a.add("mpi_sync", 200);
  a.add_wall(1000);
  EXPECT_EQ(a.layer("fs"), 580);
  EXPECT_EQ(a.attributed(), 900);
  EXPECT_EQ(a.remainder(), 100);
  EXPECT_EQ(a.attributed() + a.remainder(), a.wall());
  EXPECT_DOUBLE_EQ(a.frac(a.attributed()), 0.9);

  Attribution b;
  b.add("fs", 20);
  b.add("verify", 50);
  b.add_wall(100);
  a.merge(b);
  EXPECT_EQ(a.wall(), 1100);
  EXPECT_EQ(a.layer("fs"), 600);
  EXPECT_EQ(a.layer("verify"), 50);
  EXPECT_EQ(a.attributed() + a.remainder(), a.wall());
  EXPECT_EQ(a.layer("absent"), 0);
}

TEST(Attribution, SelfTimesOfNestedSpansAddUpToTheOuterSpan) {
  // An Interceptor call of 1000 ns whose FanStoreFs call took 900 ns, of
  // which backend 300 ns and decode 250 ns: dispatch + fs self + children
  // must give back the outer span exactly.
  const std::int64_t outer = 1000, inner = 900, backend = 300, decode = 250;
  Attribution a;
  a.add("posixfs", self_time(outer, {inner}));
  a.add("fs", self_time(inner, {backend, decode}));
  a.add("backend", backend);
  a.add("decode", decode);
  a.add_wall(outer);
  EXPECT_EQ(a.remainder(), 0);
  EXPECT_EQ(a.layer("posixfs"), 100);
  EXPECT_EQ(a.layer("fs"), 350);
}

}  // namespace
}  // namespace perfbench
