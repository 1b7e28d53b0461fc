// The benchmark's own arithmetic: a fine-grained latency histogram, the
// reporting rule for tail percentiles, quantiles over the program's
// obs::Histogram buckets, and the wall-time attribution ledger. Header-only
// so tests/stats_test.cpp checks exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

namespace obs = fanstore::obs;

/// Log-linear histogram of non-negative integer samples (nanoseconds).
/// Values below 64 get exact buckets; above that every octave splits into
/// 64 linear sub-buckets, so a bucket is at most 1/64 of its value wide,
/// up to 2^40 (about 18 minutes in ns), where the top bucket takes the
/// rest. Quantiles interpolate linearly across the bucket's [lo, hi]
/// range, so an exact bucket yields its exact value. The bucket array is
/// allocated on the first record. Not thread-safe.
class LatHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kMaxBits = 40;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int k = 63 - std::countl_zero(v);  // k >= kSubBits
    if (k >= kMaxBits) return kBuckets - 1;
    const std::uint64_t sub = (v >> (k - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(k - kSubBits + 1) * kSub + sub;
  }

  /// Inclusive [lo, hi] range of bucket `i`.
  static std::pair<std::uint64_t, std::uint64_t> bucket_bounds(std::size_t i) {
    if (i < kSub) return {i, i};
    const int k = static_cast<int>(i / kSub) + kSubBits - 1;
    const std::uint64_t sub = i % kSub;
    const std::uint64_t lo = (kSub + sub) << (k - kSubBits);
    return {lo, lo + (std::uint64_t{1} << (k - kSubBits)) - 1};
  }

  void record(std::uint64_t v) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const LatHist& o) {
    if (o.counts_.empty()) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }

  /// p-th percentile (p in [0, 100]); 0 when empty.
  double quantile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(before + counts_[i]) >= target) {
        const auto [lo, hi] = bucket_bounds(i);
        const double within =
            (target - static_cast<double>(before)) / static_cast<double>(counts_[i]);
        return static_cast<double>(lo) + within * static_cast<double>(hi - lo);
      }
      before += counts_[i];
    }
    return static_cast<double>(bucket_bounds(kBuckets - 1).second);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Median of a sample vector (copied); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile ladder in parts per 100000, highest first.
inline constexpr std::array<std::uint64_t, 6> kTailLadder = {
    99999, 99990, 99900, 99000, 90000, 50000};

/// The reporting rule for a timing's tail: the highest ladder percentile
/// that leaves at least ten of `n` samples beyond it. Returns it in
/// percent, or 0 when even the median leaves fewer than ten.
inline double tail_percentile(std::uint64_t n) {
  for (const std::uint64_t p : kTailLadder) {
    if (n * (100000 - p) >= 10 * 100000) return static_cast<double>(p) / 1000.0;
  }
  return 0.0;
}

/// True when the p-th percentile (in percent) of `n` samples has at least
/// ten samples beyond it, so it may be reported.
inline bool percentile_supported(double p, std::uint64_t n) {
  const auto ppm = static_cast<std::uint64_t>(p * 1000.0 + 0.5);
  return ppm <= 100000 && n * (100000 - ppm) >= 10 * 100000;
}

/// One LatHist per slice of a run (a second of the window, or one setup).
/// The median over slices of a per-slice percentile keeps a burst of
/// outside noise in a few slices from moving the run's figure.
class SlicedHist {
 public:
  void record(std::size_t slice, std::uint64_t v) {
    if (slice >= slices_.size()) slices_.resize(slice + 1);
    slices_[slice].record(v);
  }
  void merge(const SlicedHist& o) {
    if (o.slices_.size() > slices_.size()) slices_.resize(o.slices_.size());
    for (std::size_t i = 0; i < o.slices_.size(); ++i) slices_[i].merge(o.slices_[i]);
  }
  LatHist total() const {
    LatHist t;
    for (const LatHist& h : slices_) t.merge(h);
    return t;
  }
  /// Median, over the slices with enough samples to report the p-th
  /// percentile (percentile_supported), of that percentile; 0 if none.
  double median_of(double p) const {
    std::vector<double> v;
    for (const LatHist& h : slices_) {
      if (percentile_supported(p, h.count())) v.push_back(h.quantile(p));
    }
    return median(std::move(v));
  }

 private:
  std::vector<LatHist> slices_;
};

/// Bucket-by-bucket difference of two snapshots of one obs::Histogram
/// (`after` taken later than `before`).
inline obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& after,
                                         const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  for (std::size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= before.counts[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

/// How much histogram `name` grew between two registry snapshots; empty
/// when either snapshot lacks it.
inline obs::HistogramSnapshot hist_between(const obs::MetricsSnapshot& after,
                                           const obs::MetricsSnapshot& before,
                                           const std::string& name) {
  const auto* a = after.find(name);
  const auto* b = before.find(name);
  return a != nullptr && b != nullptr ? hist_delta(a->hist, b->hist) : obs::HistogramSnapshot{};
}

/// Adds `h` into `sum` bucket by bucket (`sum` may start empty).
inline void hist_add(obs::HistogramSnapshot& sum, const obs::HistogramSnapshot& h) {
  if (sum.counts.size() < h.counts.size()) sum.counts.resize(h.counts.size(), 0);
  for (std::size_t i = 0; i < h.counts.size(); ++i) sum.counts[i] += h.counts[i];
  sum.count += h.count;
  sum.sum += h.sum;
}

/// p-th percentile of an obs::Histogram snapshot, interpolated linearly
/// inside the bucket (the registry's own quantile() returns the bucket
/// midpoint). 0 when empty.
inline double hist_quantile(const obs::HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(h.count);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (static_cast<double>(before + h.counts[i]) >= target) {
      const auto b = obs::Histogram::bucket_bounds(static_cast<int>(i));
      const double within =
          (target - static_cast<double>(before)) / static_cast<double>(h.counts[i]);
      return static_cast<double>(b.lo) + within * static_cast<double>(b.hi - b.lo);
    }
    before += h.counts[i];
  }
  return 0.0;
}

/// A span's self time: its duration minus the time its children cover.
inline std::int64_t self_time(std::int64_t total,
                              std::initializer_list<std::int64_t> children) {
  for (const std::int64_t c : children) total -= c;
  return total;
}

/// Splits one thread's measured wall time across named layers. Each layer
/// holds self time, so the layers plus the remainder add up to the wall
/// time exactly.
class Attribution {
 public:
  void add(const std::string& layer, std::int64_t ns) {
    for (auto& [name, v] : layers_) {
      if (name == layer) {
        v += ns;
        return;
      }
    }
    layers_.emplace_back(layer, ns);
  }
  void add_wall(std::int64_t ns) { wall_ += ns; }
  void merge(const Attribution& o) {
    for (const auto& [name, v] : o.layers_) add(name, v);
    wall_ += o.wall_;
  }

  std::int64_t wall() const { return wall_; }
  std::int64_t layer(const std::string& name) const {
    for (const auto& [n, v] : layers_) {
      if (n == name) return v;
    }
    return 0;
  }
  std::int64_t attributed() const {
    std::int64_t s = 0;
    for (const auto& [n, v] : layers_) s += v;
    return s;
  }
  std::int64_t remainder() const { return wall_ - attributed(); }
  double frac(std::int64_t ns) const {
    return wall_ > 0 ? static_cast<double>(ns) / static_cast<double>(wall_) : 0.0;
  }
  const std::vector<std::pair<std::string, std::int64_t>>& layers() const {
    return layers_;
  }

 private:
  std::vector<std::pair<std::string, std::int64_t>> layers_;
  std::int64_t wall_ = 0;
};

}  // namespace perfbench
