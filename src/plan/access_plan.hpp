// Clairvoyant access plan (DESIGN.md §10).
//
// The trainer's seeded epoch shuffle makes every rank's *entire* future
// access order known before the first read (NoPFS's key observation, see
// PAPERS.md). AccessPlan replays the trainer's exact schedule — same
// Fisher-Yates shuffle, same carried RNG, same global-batch slicing — into
// one flat multi-epoch sequence of this rank's reads, then answers two
// questions cheaply and lock-free:
//
//   * "how far ahead in the schedule is the next use of <path>?"
//     (core::EvictionPolicy::next_use_distance — exact-future-reuse /
//     Belady eviction for core::TieredCache)
//   * "which paths come next?" (the PrefetchController's lookahead and
//     cross-rank staging window)
//
// A cursor tracks schedule progress: the trainer calls record_access()
// after each file read; concurrent readers (cache shards mid-eviction, the
// controller) observe it with one relaxed atomic load. Divergence between
// the plan and the actual read stream is counted in "plan.mispredicts" —
// with the shared epoch_shuffle() helper below it stays zero by
// construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/tiered_cache.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace fanstore::plan {

/// Deterministic Fisher-Yates shuffle shared by dlsim::run_training and
/// AccessPlan::PlanOptions replay — one definition, so the plan can never
/// drift from the loop it predicts.
void epoch_shuffle(std::vector<std::string>& files, Rng& rng);

/// The schedule parameters of dlsim::TrainerOptions that determine the
/// access order. Must match the trainer run the plan is installed into.
struct PlanOptions {
  std::uint64_t seed = 1;
  int epochs = 1;
  std::size_t batch_per_rank = 8;
  std::size_t max_iterations = 0;  // 0 = run full epochs
  /// World shape for global_shuffle slicing (nranks = comm->size(),
  /// rank = comm->rank()); 1/0 for a solo trainer.
  int nranks = 1;
  int rank = 0;
  bool global_shuffle = false;
};

class AccessPlan final : public core::EvictionPolicy {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Builds the plan by replaying the trainer's schedule over `files`
  /// (the same list, in the same order, that run_training will receive).
  /// `metrics` receives "plan.mispredicts"; nullptr uses the process-global
  /// registry.
  AccessPlan(const std::vector<std::string>& files, const PlanOptions& opt,
             obs::MetricsRegistry* metrics = nullptr);

  /// Builds a plan from an explicit access sequence (tests, benches, or
  /// schedules not produced by the trainer).
  explicit AccessPlan(std::vector<std::string> sequence,
                      obs::MetricsRegistry* metrics = nullptr);

  AccessPlan(const AccessPlan&) = delete;
  AccessPlan& operator=(const AccessPlan&) = delete;

  /// Total accesses in the schedule.
  std::size_t size() const { return seq_.size(); }

  /// Index of the next not-yet-performed access (== accesses recorded).
  std::size_t position() const {
    return cursor_.load(std::memory_order_acquire);
  }

  /// The path of schedule entry `i` (i < size()).
  const std::string& path_at(std::size_t i) const { return *seq_[i]; }

  /// Advances the cursor past one performed access. Called by the trainer
  /// (single producer) after each file read; counts "plan.mispredicts"
  /// when `path` differs from the scheduled entry (the plan stays usable —
  /// distances just degrade from exact to approximate).
  void record_access(std::string_view path);

  /// First schedule index >= `pos` that accesses `path`; npos if never.
  std::size_t next_use_at(const std::string& path, std::size_t pos) const;

  /// Total scheduled accesses of `path` (hot-object ranking).
  std::size_t access_count(const std::string& path) const;

  /// The `n` most-accessed paths in the schedule, hottest first (ties
  /// broken by first appearance — deterministic).
  std::vector<std::string> hottest(std::size_t n) const;

  std::uint64_t mispredicts() const { return mispredicts_->value(); }

  // --- core::EvictionPolicy ---
  /// Accesses remaining before `path` is next needed, measured from the
  /// current cursor; kNever for paths outside (or exhausted in) the plan,
  /// which therefore evict first.
  std::uint64_t next_use_distance(const std::string& path) const override;

 private:
  void index_sequence();

  /// Interned path storage; seq_ points into it so the flat multi-epoch
  /// schedule costs one pointer per access, not one string.
  std::vector<std::unique_ptr<std::string>> paths_;
  std::vector<const std::string*> seq_;  // access order, all epochs flat
  /// Per-path ascending schedule positions (binary-searched against the
  /// cursor for next-use queries). Immutable after construction.
  std::unordered_map<std::string_view, std::vector<std::size_t>> positions_;

  std::atomic<std::size_t> cursor_{0};
  obs::Counter* mispredicts_ = nullptr;
};

}  // namespace fanstore::plan
