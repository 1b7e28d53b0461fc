// Clairvoyant planner tests (DESIGN.md §10): the AccessPlan must replay
// the trainer's schedule exactly, Belady eviction must beat FIFO (and
// match hand-computed optima), a cache with no plan installed must keep
// the classic FIFO semantics, and the whole thing must hold up under
// concurrent opens while the plan advances (TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "core/tiered_cache.hpp"
#include "dlsim/prefetcher.hpp"
#include "dlsim/trainer.hpp"
#include "format/partition.hpp"
#include "mpi/comm.hpp"
#include "obs/metrics.hpp"
#include "plan/access_plan.hpp"
#include "plan/controller.hpp"
#include "posixfs/mem_vfs.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/rng.hpp"

namespace fanstore {
namespace {

using core::EvictionPolicy;
using core::TieredCache;

Bytes blob(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

/// The plain tier alone (lower budgets 0), on `metrics` when given.
TieredCache::Options plain_tier(std::size_t bytes, std::size_t shards,
                                obs::MetricsRegistry* metrics = nullptr) {
  TieredCache::Options opt;
  opt.plain_bytes = bytes;
  opt.plain_shards = shards;
  opt.metrics = metrics;
  return opt;
}

/// A cold loader yielding `n` flat bytes of `fill`.
TieredCache::ColdLoader flat(std::size_t n, std::uint8_t fill) {
  return [n, fill] {
    core::ColdResult r;
    r.file = std::make_shared<core::CachedFile>(Bytes(n, fill));
    return r;
  };
}

// ---------------------------------------------------------------------------
// AccessPlan vs. the real trainer

std::vector<std::string> flatten(
    const std::vector<std::vector<std::string>>& per_epoch) {
  std::vector<std::string> out;
  for (const auto& e : per_epoch) out.insert(out.end(), e.begin(), e.end());
  return out;
}

std::vector<std::string> plan_sequence(const plan::AccessPlan& ap) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < ap.size(); ++i) out.push_back(ap.path_at(i));
  return out;
}

TEST(AccessPlanTest, MatchesSoloTrainerSchedule) {
  posixfs::MemVfs fs;
  std::vector<std::string> files;
  for (int i = 0; i < 10; ++i) {
    const std::string path = "ds/f" + std::to_string(i);
    posixfs::write_file(fs, path, as_view(blob(64, static_cast<std::uint8_t>(i))));
    files.push_back(path);
  }
  simnet::VirtualClock clock;
  dlsim::TrainerOptions topt;
  topt.t_iter_s = 1e-6;
  topt.batch_per_rank = 4;
  topt.epochs = 3;
  topt.seed = 99;
  topt.io_clock = &clock;
  topt.record_epoch_files = true;
  const auto result = dlsim::run_training(fs, files, topt);

  plan::PlanOptions popt;
  popt.seed = 99;
  popt.epochs = 3;
  popt.batch_per_rank = 4;
  plan::AccessPlan ap(files, popt);
  EXPECT_EQ(ap.size(), result.files_read);
  EXPECT_EQ(plan_sequence(ap), flatten(result.epoch_files));
}

TEST(AccessPlanTest, MatchesTrainerWrapAroundAndMaxIterations) {
  // 3 files with batch 4 exercises the % order.size() wrap; max_iterations
  // truncates mid-epoch.
  posixfs::MemVfs fs;
  std::vector<std::string> files = {"a", "b", "c"};
  for (const auto& f : files) posixfs::write_file(fs, f, as_view(blob(16, 1)));
  simnet::VirtualClock clock;
  dlsim::TrainerOptions topt;
  topt.t_iter_s = 1e-6;
  topt.batch_per_rank = 4;
  topt.epochs = 5;
  topt.max_iterations = 3;
  topt.seed = 7;
  topt.io_clock = &clock;
  topt.record_epoch_files = true;
  const auto result = dlsim::run_training(fs, files, topt);

  plan::PlanOptions popt;
  popt.seed = 7;
  popt.epochs = 5;
  popt.batch_per_rank = 4;
  popt.max_iterations = 3;
  plan::AccessPlan ap(files, popt);
  EXPECT_EQ(ap.size(), 3u * 4u);
  EXPECT_EQ(plan_sequence(ap), flatten(result.epoch_files));
}

TEST(AccessPlanTest, MatchesGlobalShuffleSchedulePerRank) {
  std::vector<std::string> files;
  for (int i = 0; i < 16; ++i) files.push_back("g/f" + std::to_string(i));

  mpi::run_world(2, [&](mpi::Comm& comm) {
    posixfs::MemVfs fs;
    for (const auto& f : files) posixfs::write_file(fs, f, as_view(blob(32, 9)));
    simnet::VirtualClock clock;
    obs::MetricsRegistry metrics;
    dlsim::TrainerOptions topt;
    topt.t_iter_s = 1e-6;
    topt.batch_per_rank = 2;
    topt.epochs = 2;
    topt.seed = 31;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.global_shuffle = true;
    topt.metrics = &metrics;
    topt.record_epoch_files = true;
    const auto result = dlsim::run_training(fs, files, topt);

    plan::PlanOptions popt;
    popt.seed = 31;
    popt.epochs = 2;
    popt.batch_per_rank = 2;
    popt.global_shuffle = true;
    popt.nranks = comm.size();
    popt.rank = comm.rank();
    plan::AccessPlan ap(files, popt, &metrics);
    EXPECT_EQ(plan_sequence(ap), flatten(result.epoch_files));
  });
}

TEST(AccessPlanTest, NextUseDistanceAndMispredicts) {
  obs::MetricsRegistry metrics;
  plan::AccessPlan ap(std::vector<std::string>{"a", "b", "a", "c"}, &metrics);
  EXPECT_EQ(ap.size(), 4u);
  EXPECT_EQ(ap.next_use_distance("a"), 0u);
  EXPECT_EQ(ap.next_use_distance("b"), 1u);
  EXPECT_EQ(ap.next_use_distance("c"), 3u);
  EXPECT_EQ(ap.next_use_distance("nope"), EvictionPolicy::kNever);

  ap.record_access("a");
  EXPECT_EQ(ap.position(), 1u);
  EXPECT_EQ(ap.next_use_distance("a"), 1u);  // next "a" is at index 2
  EXPECT_EQ(ap.mispredicts(), 0u);

  ap.record_access("c");  // scheduled entry is "b": a mispredict
  EXPECT_EQ(ap.mispredicts(), 1u);
  EXPECT_EQ(ap.position(), 2u);  // cursor still advances

  ap.record_access("a");  // matches schedule entry 2 again
  ap.record_access("c");  // matches schedule entry 3
  EXPECT_EQ(ap.mispredicts(), 1u);
  EXPECT_EQ(ap.next_use_distance("a"), EvictionPolicy::kNever);  // exhausted
  ap.record_access("a");  // past the end: counted, not advanced
  EXPECT_EQ(ap.position(), 4u);
  EXPECT_EQ(ap.mispredicts(), 2u);
}

TEST(AccessPlanTest, HottestRanksByAccessCount) {
  obs::MetricsRegistry metrics;
  plan::AccessPlan ap(
      std::vector<std::string>{"x", "y", "x", "z", "x", "y"}, &metrics);
  EXPECT_EQ(ap.access_count("x"), 3u);
  EXPECT_EQ(ap.access_count("y"), 2u);
  const auto top = ap.hottest(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], "x");
  EXPECT_EQ(top[1], "y");
}

// ---------------------------------------------------------------------------
// Belady eviction in the plain tier

/// Runs `seq` through a fresh 100-byte-entry cache of `capacity_files`
/// entries, optionally under a plan built from the same sequence, and
/// returns the hit count.
std::uint64_t trace_hits(const std::vector<std::string>& seq,
                         std::size_t capacity_files, bool belady) {
  obs::MetricsRegistry metrics;
  TieredCache cache(plain_tier(capacity_files * 100, /*shards=*/1, &metrics));
  plan::AccessPlan ap(seq, &metrics);
  if (belady) cache.set_eviction_policy(&ap);
  for (const auto& p : seq) {
    cache.acquire_file(p, flat(100, 1));
    cache.release(p);
    ap.record_access(p);
  }
  if (belady) cache.set_eviction_policy(nullptr);
  return cache.metrics().counter("cache.hits").value();
}

TEST(BeladyEvictionTest, HandComputedOptimalOnClassicSequence) {
  // a b c a b c with room for 2 entries:
  //   FIFO:   a+ b+ c+(evict a) a+(evict b) b+(evict c) c+  -> 0 hits
  //   Belady: at c's insert the cache holds {a(next@3), b(next@4)}: evict b.
  //           a hits; b's insert evicts a (never used again); c hits.
  //           -> 2 hits, the optimum.
  const std::vector<std::string> seq = {"a", "b", "c", "a", "b", "c"};
  EXPECT_EQ(trace_hits(seq, 2, /*belady=*/false), 0u);
  EXPECT_EQ(trace_hits(seq, 2, /*belady=*/true), 2u);
}

TEST(BeladyEvictionTest, HandComputedSkewedSequence) {
  // h is hot (every other access); FIFO keeps churning it out, Belady
  // never evicts it. h a h b h c h a: capacity 2.
  //   Belady: h stays; a/b/c each miss once; second "a" misses (a was
  //           evicted for b — its next use was farthest) -> hits = 3 (h's
  //           repeats after the first).
  const std::vector<std::string> seq = {"h", "a", "h", "b", "h", "c", "h", "a"};
  const auto fifo = trace_hits(seq, 2, false);
  const auto belady = trace_hits(seq, 2, true);
  EXPECT_EQ(belady, 3u);
  EXPECT_GT(belady, fifo);
}

TEST(BeladyEvictionTest, AtLeastFifoOnRandomSequences) {
  // Property: exact-future-reuse is optimal, so it can never do worse than
  // FIFO on any sequence (same capacity, same single shard).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<std::string> seq;
    for (int i = 0; i < 80; ++i) {
      seq.push_back("p" + std::to_string(rng.next_below(12)));
    }
    const auto fifo = trace_hits(seq, 4, false);
    const auto belady = trace_hits(seq, 4, true);
    EXPECT_GE(belady, fifo) << "seed " << seed;
  }
}

TEST(BeladyEvictionTest, PlanEvictionCounterTracksPolicyEvictions) {
  obs::MetricsRegistry metrics;
  TieredCache cache(plain_tier(200, 1, &metrics));
  plan::AccessPlan ap(std::vector<std::string>{"a", "b", "c"}, &metrics);
  cache.set_eviction_policy(&ap);
  for (const auto* p : {"a", "b", "c"}) {
    cache.acquire_file(p, flat(100, 1));
    cache.release(p);
    ap.record_access(p);
  }
  EXPECT_EQ(metrics.snapshot().counter("plan.evictions"),
            cache.metrics().counter("cache.evictions").value());
  EXPECT_GT(cache.metrics().counter("cache.evictions").value(), 0u);
  cache.set_eviction_policy(nullptr);
}

TEST(BeladyEvictionTest, NoPolicyKeepsClassicFifo) {
  // Install-then-clear must restore the exact FIFO trace (the acceptance
  // criterion that an unplanned cache behaves byte-identically).
  TieredCache cache(plain_tier(250, 1));
  plan::AccessPlan ap(std::vector<std::string>{"z"});
  cache.set_eviction_policy(&ap);
  cache.set_eviction_policy(nullptr);
  cache.acquire_file("a", flat(100, 1));
  cache.release("a");
  cache.acquire_file("b", flat(100, 2));
  cache.release("b");
  cache.acquire_file("c", flat(100, 3));
  cache.release("c");
  EXPECT_FALSE(cache.contains("a"));  // FIFO evicts the oldest, not "z" logic
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
}

TEST(BeladyEvictionTest, PinnedEntriesSurvivePolicyEviction) {
  obs::MetricsRegistry metrics;
  TieredCache cache(plain_tier(250, 1, &metrics));
  // "a" is never used again per the plan — prime eviction bait — but it is
  // pinned, so pressure must pick "b" (the farthest *unpinned*) instead.
  plan::AccessPlan ap(std::vector<std::string>{"c", "b", "c"}, &metrics);
  cache.set_eviction_policy(&ap);
  auto pin_a = cache.acquire_file("a", flat(100, 1));
  cache.acquire_file("b", flat(100, 2));
  cache.release("b");
  cache.acquire_file("c", flat(100, 3));
  cache.release("c");
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  cache.release("a");
  cache.set_eviction_policy(nullptr);
}

TEST(BeladyEvictionTest, ConcurrentOpensWhilePlanAdvances) {
  // TSan stress: reader threads hammer acquire/release while the producer
  // advances the plan cursor through the whole schedule. Nothing to assert
  // beyond invariants — the point is the interleaving under TSan.
  constexpr int kPaths = 32;
  constexpr int kPlanLen = 4000;
  obs::MetricsRegistry metrics;
  std::vector<std::string> seq;
  {
    Rng rng(4242);
    for (int i = 0; i < kPlanLen; ++i) {
      seq.push_back("s" + std::to_string(rng.next_below(kPaths)));
    }
  }
  plan::AccessPlan ap(seq, &metrics);
  TieredCache cache(plain_tier(8 * 100, /*shards=*/4, &metrics));
  cache.set_eviction_policy(&ap);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string p = "s" + std::to_string(rng.next_below(kPaths));
        cache.acquire_file(p, flat(100, 7));
        cache.release(p);
      }
    });
  }
  for (const auto& p : seq) ap.record_access(p);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  cache.set_eviction_policy(nullptr);
  EXPECT_EQ(ap.position(), seq.size());
  // Unpinned steady state: occupancy within budget.
  EXPECT_LE(cache.bytes_used(), cache.capacity());
}

// ---------------------------------------------------------------------------
// PrefetchController + end-to-end clairvoyant training

TEST(PrefetchControllerTest, ValidatesOptions) {
  obs::MetricsRegistry metrics;
  std::vector<std::string> files = {"f"};
  plan::AccessPlan ap(files, plan::PlanOptions{}, &metrics);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    core::Instance inst(comm, {});
    dlsim::Prefetcher warmer(inst.fs(), 1, 1);
    plan::ControllerOptions bad;
    bad.min_depth = 0;
    EXPECT_THROW(plan::PrefetchController(ap, inst.fs(), warmer, nullptr, bad),
                 std::invalid_argument);
    bad = {};
    bad.max_depth = 1;
    bad.min_depth = 2;
    EXPECT_THROW(plan::PrefetchController(ap, inst.fs(), warmer, nullptr, bad),
                 std::invalid_argument);
    bad = {};
    bad.ema_alpha = 0;
    EXPECT_THROW(plan::PrefetchController(ap, inst.fs(), warmer, nullptr, bad),
                 std::invalid_argument);
    inst.stop();
  });
}

TEST(PrefetchControllerTest, ClairvoyantTrainerEndToEnd) {
  // 2 ranks, each owning half the dataset; global shuffle so every rank
  // reads remote files. The clairvoyant path must (a) predict perfectly
  // (zero mispredicts), (b) stage ahead, and (c) leave the training
  // thread's opens as cache hits.
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4hc");
  std::vector<std::string> files;
  for (int i = 0; i < 16; ++i) files.push_back("ds/f" + std::to_string(i));

  mpi::run_world(2, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    core::Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.clock = &clock;
    core::Instance inst(comm, opt);
    format::PartitionWriter w;
    for (int i = comm.rank(); i < 16; i += 2) {
      w.add(format::make_record(files[static_cast<std::size_t>(i)], *codec,
                                reg.id_of(*codec), as_view(blob(2000, 5))));
    }
    const Bytes part = w.serialize();
    inst.load_partition_blob(as_view(part), 0);
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    plan::PlanOptions popt;
    popt.seed = 11;
    popt.epochs = 2;
    popt.batch_per_rank = 2;
    popt.global_shuffle = true;
    popt.nranks = comm.size();
    popt.rank = comm.rank();
    plan::AccessPlan ap(files, popt, &inst.metrics());
    inst.install_plan(&ap);

    dlsim::Prefetcher warmer(inst.fs(), 2, 1);
    plan::ControllerOptions copt;
    copt.step_time_s = 0.05;
    copt.min_depth = 2;
    copt.max_depth = 8;
    plan::PrefetchController ctl(ap, inst.fs(), warmer, &clock, copt);

    dlsim::TrainerOptions topt;
    topt.t_iter_s = 0.05;
    topt.batch_per_rank = 2;
    topt.epochs = 2;
    topt.seed = 11;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.global_shuffle = true;
    topt.metrics = &inst.metrics();
    topt.plan = &ap;
    topt.controller = &ctl;
    const auto result = dlsim::run_training(inst.fs(), files, topt);

    EXPECT_EQ(result.files_read, ap.size());
    EXPECT_EQ(ap.position(), ap.size());
    EXPECT_EQ(ap.mispredicts(), 0u);
    const auto snap = inst.metrics().snapshot();
    EXPECT_GT(snap.counter("plan.prefetch_issued"), 0u);
    EXPECT_GT(snap.counter("plan.staged"), 0u);
    const std::int64_t depth = snap.gauge("plan.lookahead_depth");
    EXPECT_GE(depth, static_cast<std::int64_t>(copt.min_depth));
    EXPECT_LE(depth, static_cast<std::int64_t>(copt.max_depth));
    // Every training-thread open was warmed first.
    EXPECT_GE(snap.counter("cache.hits"), result.files_read);

    inst.install_plan(nullptr);
    comm.barrier();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore
