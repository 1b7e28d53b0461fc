// Tests for the refcount-aware FIFO cache (§IV-C3, Fig. 4) and its
// sharded single-flight concurrency layer. Small-capacity caches
// auto-degenerate to one shard, so the classic FIFO tests below exercise
// exactly the seed semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/tiered_cache.hpp"
#include "posixfs/mem_vfs.hpp"

namespace fanstore::core {
namespace {

Bytes blob(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

/// Tier 0 alone: both lower-tier budgets are 0, so victims are dropped.
TieredCache::Options plain_only(std::size_t bytes, std::size_t shards = 0) {
  TieredCache::Options opt;
  opt.plain_bytes = bytes;
  opt.plain_shards = shards;
  return opt;
}

/// A cold loader yielding a flat entry of `n` bytes of `fill`, counting its
/// runs in `*calls` when given.
TieredCache::ColdLoader flat(std::size_t n, std::uint8_t fill,
                             int* calls = nullptr) {
  return [n, fill, calls] {
    if (calls != nullptr) ++*calls;
    ColdResult r;
    r.file = std::make_shared<CachedFile>(blob(n, fill));
    return r;
  };
}

TEST(PlainCacheTest, HitAfterMiss) {
  TieredCache cache(plain_only(1024));
  int loads = 0;
  auto a = cache.acquire_file("f", flat(100, 1, &loads));
  EXPECT_EQ(loads, 1);  // this call ran the loader
  auto b = cache.acquire_file("f", flat(100, 1, &loads));
  EXPECT_EQ(loads, 1);  // this one did not
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.metrics().counter("cache.hits").value(), 1u);
  EXPECT_EQ(cache.metrics().counter("cache.misses").value(), 1u);
  cache.release("f");
  cache.release("f");
}

TEST(PlainCacheTest, FifoEvictionOrder) {
  TieredCache cache(plain_only(250));
  cache.acquire_file("a", flat(100, 1));
  cache.release("a");
  cache.acquire_file("b", flat(100, 2));
  cache.release("b");
  // Inserting c (100 B) exceeds 250: the oldest unpinned entry (a) goes.
  cache.acquire_file("c", flat(100, 3));
  cache.release("c");
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 1u);
}

TEST(PlainCacheTest, PinnedEntriesSurviveEviction) {
  // The paper's FIFO variant: entries opened by an I/O thread are skipped.
  TieredCache cache(plain_only(250));
  auto pin_a = cache.acquire_file("a", flat(100, 1));  // stays pinned
  cache.acquire_file("b", flat(100, 2));
  cache.release("b");
  cache.acquire_file("c", flat(100, 3));  // pressure: must skip "a"
  cache.release("c");
  EXPECT_TRUE(cache.contains("a"));   // pinned: skipped
  EXPECT_FALSE(cache.contains("b"));  // oldest unpinned: evicted
  EXPECT_TRUE(cache.contains("c"));
  // Releasing "a" under continued pressure allows its eviction.
  cache.release("a");
  cache.acquire_file("d", flat(100, 4));
  cache.release("d");
  EXPECT_FALSE(cache.contains("a"));
}

TEST(PlainCacheTest, MultiReaderCounting) {
  // Fig. 4: the counter tracks concurrent opens; the entry is evictable
  // only when every opener has closed.
  TieredCache cache(plain_only(150));
  cache.acquire_file("f", flat(100, 1));
  cache.acquire_file("f", flat(100, 1));  // second reader
  cache.release("f");                     // one closes
  cache.acquire_file("g", flat(100, 2));  // pressure
  cache.release("g");
  EXPECT_TRUE(cache.contains("f"));  // still pinned by reader #2
  cache.release("f");
  cache.acquire_file("h", flat(100, 3));
  cache.release("h");
  EXPECT_FALSE(cache.contains("f"));
}

TEST(PlainCacheTest, OversizedEntryAdmittedWhilePinned) {
  TieredCache cache(plain_only(50));
  auto pin = cache.acquire_file("big", flat(500, 9));
  EXPECT_EQ(pin->size(), 500u);
  EXPECT_TRUE(cache.contains("big"));
  cache.release("big");
  EXPECT_FALSE(cache.contains("big"));  // evicted once released
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(PlainCacheTest, LoaderFailureIsNotCached) {
  TieredCache cache(plain_only(1000));
  EXPECT_THROW(cache.acquire_file("f",
                                  []() -> ColdResult {
                                    throw std::runtime_error("io");
                                  }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("f"));
  // A later successful load works.
  auto ok = cache.acquire_file("f", flat(10, 1));
  EXPECT_EQ(ok->size(), 10u);
  cache.release("f");
}

TEST(PlainCacheTest, ReleaseUnknownPathIsNoop) {
  TieredCache cache(plain_only(100));
  cache.release("ghost");
  SUCCEED();
}

TEST(PlainCacheTest, BytesUsedTracksContents) {
  TieredCache cache(plain_only(1000));
  cache.acquire_file("a", flat(300, 1));
  cache.acquire_file("b", flat(200, 2));
  EXPECT_EQ(cache.bytes_used(), 500u);
  cache.release("a");
  cache.release("b");
  EXPECT_EQ(cache.bytes_used(), 500u);  // cached until pressure
}

TEST(PlainCacheTest, ConcurrentAcquireReleaseIsSafe) {
  TieredCache cache(plain_only(10 * 1024));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string path = "f" + std::to_string((t + i) % 20);
        auto data = cache.acquire_file(path, flat(512, 7));
        if (data->size() != 512) failures++;
        cache.release(path);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.bytes_used(), 10u * 1024u + 512u);
}

// --- Sharding -----------------------------------------------------------

// Returns `count` distinct paths that all hash into `shard`.
std::vector<std::string> paths_in_shard(const TieredCache& cache,
                                        std::size_t shard, std::size_t count) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count; ++i) {
    std::string p = "p" + std::to_string(i);
    if (cache.shard_of(p) == shard) out.push_back(std::move(p));
  }
  return out;
}

TEST(ShardedCacheTest, SmallCapacityDegeneratesToOneShard) {
  TieredCache cache(plain_only(1024));  // < 1 MiB: exactly the classic pool
  EXPECT_EQ(cache.shard_count(), 1u);
}

TEST(ShardedCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  TieredCache cache(plain_only(64 << 20, 5));
  EXPECT_EQ(cache.shard_count(), 8u);
}

TEST(ShardedCacheTest, CapacityEnforcedPerShardAndGlobally) {
  TieredCache cache(plain_only(4096, 4));  // 1024 B budget per shard
  ASSERT_EQ(cache.shard_count(), 4u);
  // Overfill shard 0: the third 400 B entry pushes past its 1024 B budget
  // and must evict that shard's oldest unpinned entry...
  const auto in0 = paths_in_shard(cache, 0, 3);
  // ...while an entry in another shard feels no pressure at all.
  const auto other = paths_in_shard(cache, 1, 1);
  cache.acquire_file(other[0], flat(400, 9));
  cache.release(other[0]);
  for (const auto& p : in0) {
    cache.acquire_file(p, flat(400, 1));
    cache.release(p);
  }
  EXPECT_FALSE(cache.contains(in0[0]));  // oldest in shard 0: evicted
  EXPECT_TRUE(cache.contains(in0[1]));
  EXPECT_TRUE(cache.contains(in0[2]));
  EXPECT_TRUE(cache.contains(other[0]));  // untouched shard
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 1u);
  EXPECT_LE(cache.bytes_used(), cache.capacity());
}

TEST(ShardedCacheTest, PinnedEntriesSkipEvictionAcrossShards) {
  TieredCache cache(plain_only(4096, 4));
  const auto in0 = paths_in_shard(cache, 0, 3);
  auto pin = cache.acquire_file(in0[0], flat(400, 1));  // stays pinned
  for (std::size_t i = 1; i < in0.size(); ++i) {
    cache.acquire_file(in0[i], flat(400, 2));
    cache.release(in0[i]);
  }
  EXPECT_TRUE(cache.contains(in0[0]));   // pinned: skipped under pressure
  EXPECT_FALSE(cache.contains(in0[1]));  // oldest unpinned: evicted
  EXPECT_TRUE(cache.contains(in0[2]));
  cache.release(in0[0]);
}

TEST(ShardedCacheTest, OversizedPinnedEntryEvictedOnRelease) {
  TieredCache cache(plain_only(4096, 4));  // 1024 B budget per shard
  const auto p = paths_in_shard(cache, 2, 1);
  auto pin = cache.acquire_file(p[0], flat(3000, 7));
  EXPECT_TRUE(cache.contains(p[0]));  // over budget but pinned: admitted
  cache.release(p[0]);
  EXPECT_FALSE(cache.contains(p[0]));  // evicted the moment the pin drops
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ShardedCacheTest, OpenCountTracksPins) {
  TieredCache cache(plain_only(4096));
  EXPECT_EQ(cache.open_count("f"), 0);
  cache.acquire_file("f", flat(10, 1));
  cache.acquire_file("f", flat(10, 1));
  EXPECT_EQ(cache.open_count("f"), 2);
  cache.release("f");
  EXPECT_EQ(cache.open_count("f"), 1);
  cache.release("f");
  EXPECT_EQ(cache.open_count("f"), 0);  // cached but unpinned
  EXPECT_TRUE(cache.contains("f"));
}

// --- Single-flight ------------------------------------------------------

// Regression for the seed's duplicate-work window: two threads missing the
// same path both ran the loader and the loser's insert double-charged the
// pool. Under single-flight the loader must run exactly once however many
// threads race the miss.
TEST(SingleFlightTest, LoaderRunsOnceUnderConcurrentAcquires) {
  TieredCache cache(plain_only(1 << 20));
  std::atomic<int> loader_runs{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<CachedFile>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.acquire_file("hot", [&] {
        loader_runs.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ColdResult r;
        r.file = std::make_shared<CachedFile>(blob(4096, 5));
        return r;
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(loader_runs.load(), 1);
  const auto s = cache.metrics().snapshot();
  EXPECT_EQ(s.counter("cache.misses"), 1u);
  EXPECT_EQ(s.counter("cache.hits"), static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_GE(s.counter("cache.single_flight_waits"), 1u);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());  // all adopted the one load
  }
  EXPECT_EQ(cache.open_count("hot"), kThreads);  // every caller holds a pin
  EXPECT_EQ(cache.bytes_used(), 4096u);          // charged exactly once
  for (int t = 0; t < kThreads; ++t) cache.release("hot");
}

TEST(SingleFlightTest, LoaderFailurePropagatesToAllWaiters) {
  TieredCache cache(plain_only(1 << 20));
  std::atomic<int> loader_runs{0};
  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      try {
        cache.acquire_file("bad", [&]() -> ColdResult {
          loader_runs.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          throw std::runtime_error("io");
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread observed a failure; a thread that arrived after one
  // in-flight load failed may have started its own, so the loader may run
  // more than once — but never cached anything.
  EXPECT_EQ(caught.load(), 6);
  EXPECT_GE(loader_runs.load(), 1);
  EXPECT_FALSE(cache.contains("bad"));
  // A later successful load still works.
  auto ok = cache.acquire_file("bad", flat(10, 1));
  EXPECT_EQ(ok->size(), 10u);
  cache.release("bad");
}

// ---- Tiered cache (DESIGN.md §12) --------------------------------------

// A spill device that runs `on_write` at every write-open, before the
// inner MemVfs takes its own lock. Demotions write through it, so the
// probe observes the cache from inside a demotion.
class ProbingVfs final : public posixfs::Vfs {
 public:
  std::function<void()> on_write;

  int open(std::string_view path, posixfs::OpenMode mode) override {
    if (mode == posixfs::OpenMode::kWrite && on_write) on_write();
    return inner_.open(path, mode);
  }
  int close(int fd) override { return inner_.close(fd); }
  std::int64_t read(int fd, MutByteView buf) override {
    return inner_.read(fd, buf);
  }
  std::int64_t write(int fd, ByteView buf) override {
    return inner_.write(fd, buf);
  }
  std::int64_t lseek(int fd, std::int64_t offset,
                     posixfs::Whence whence) override {
    return inner_.lseek(fd, offset, whence);
  }
  int stat(std::string_view path, format::FileStat* out) override {
    return inner_.stat(path, out);
  }
  int opendir(std::string_view path) override { return inner_.opendir(path); }
  std::optional<posixfs::Dirent> readdir(int dir_handle) override {
    return inner_.readdir(dir_handle);
  }
  int closedir(int dir_handle) override { return inner_.closedir(dir_handle); }

 private:
  posixfs::MemVfs inner_;
};

TEST(TieredCacheTest, EvictedVictimsDemoteAfterUnlock) {
  ProbingVfs device;
  TieredCache::Options opt = plain_only(250);
  opt.spill_bytes = 10000;
  opt.spill_fs = &device;
  TieredCache cache(opt);
  std::vector<bool> victim_in_plain_tier;
  device.on_write = [&] {
    // The demotion may re-enter the cache: no shard lock is held here, and
    // the victim has already left tier 0.
    victim_in_plain_tier.push_back(cache.contains("a"));
  };
  cache.acquire_file("a", flat(100, 1));
  cache.release("a");
  cache.acquire_file("b", flat(100, 2));
  cache.release("b");
  cache.acquire_file("c", flat(100, 3));  // pressure: evicts "a"
  cache.release("c");
  ASSERT_EQ(victim_in_plain_tier.size(), 1u);
  EXPECT_FALSE(victim_in_plain_tier[0]);
  // The victim was "a", and its usable bytes reached the next tier.
  EXPECT_TRUE(cache.spill_contains("a"));
  EXPECT_FALSE(cache.spill_contains("b"));
  auto fa = cache.acquire_file("a", flat(100, 9));
  EXPECT_EQ(fa->plain(), blob(100, 1));
  cache.release("a");
  // cache.evictions counts tier-0 evictions only: the spill hit's
  // re-admission evicted "b", and the spill write is not an eviction.
  EXPECT_EQ(cache.metrics().counter("cache.evictions").value(), 2u);
  EXPECT_EQ(cache.metrics().counter("tier.spill.demotes").value(), 2u);
}

/// A chunked cold object for tier tests: constant fill compresses well, so
/// the frame is far smaller than the 16 KiB plain size.
struct ChunkedObject {
  compress::CompressorId id = 0;
  Bytes plain;
  Bytes compressed;
};

ChunkedObject make_chunked(std::uint8_t fill, std::size_t n = 16384) {
  ChunkedObject o;
  o.plain = blob(n, fill);
  o.id = compress::chunked_id(
      compress::Registry::instance().id_by_name("lz4"), 4096);
  o.compressed =
      compress::Registry::instance().by_id(o.id)->compress(as_view(o.plain));
  return o;
}

TieredCache::ColdLoader cold_of(const ChunkedObject& o, int* calls = nullptr) {
  return [&o, calls] {
    if (calls != nullptr) ++*calls;
    ColdResult r;
    r.file = std::make_shared<CachedFile>(Bytes(o.compressed), o.id,
                                          o.plain.size());
    return r;
  };
}

/// acquire + full materialization + budget resync — what
/// FanStoreFs::warm_file() does.
std::shared_ptr<CachedFile> acquire_hot(TieredCache& tc,
                                        const std::string& path,
                                        const TieredCache::ColdLoader& cold) {
  auto f = tc.acquire_file(path, cold);
  f->materialize_all(1, nullptr);
  tc.recharge(path);
  return f;
}

TEST(TieredCacheTest, DemoteToCompressedHitAndPromoteOnSecondHit) {
  // Plain budget holds exactly one materialized 16 KiB entry; the
  // compressed tier is effectively unbounded; promote on second hit.
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = 1 << 20;
  opt.promote_after_hits = 2;
  TieredCache tc(opt);
  auto& m = tc.metrics();
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  int cold_a = 0;
  int cold_b = 0;

  acquire_hot(tc, "a", cold_of(a, &cold_a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b, &cold_b));  // recharge evicts "a" → tier 1
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_FALSE(tc.contains("a"));
  EXPECT_EQ(m.counter("tier.compressed.demotes").value(), 1u);
  EXPECT_EQ(tc.compressed_bytes_used(), a.compressed.size());

  // First tier-1 hit: rebuilt into plain RAM, tier-1 copy retained.
  auto fa = acquire_hot(tc, "a", cold_of(a, &cold_a));  // evicts "b" → tier 1
  EXPECT_EQ(cold_a, 1);  // served from the compressed tier, not cold
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_EQ(fa->plain(), a.plain);
  tc.release("a");
  EXPECT_TRUE(tc.compressed_contains("b"));

  // First tier-1 hit for "b"; its insert demotes "a" again, which dedupes
  // against the still-resident tier-1 copy.
  acquire_hot(tc, "b", cold_of(b, &cold_b));
  EXPECT_EQ(cold_b, 1);
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));

  // Second tier-1 hit for "a": promoted — the tier-1 copy moves up.
  auto fa2 = acquire_hot(tc, "a", cold_of(a, &cold_a));
  EXPECT_EQ(cold_a, 1);
  EXPECT_FALSE(tc.compressed_contains("a"));
  EXPECT_EQ(fa2->plain(), a.plain);
  tc.release("a");

  EXPECT_EQ(m.counter("tier.compressed.hits").value(), 3u);
  EXPECT_EQ(m.counter("tier.compressed.promotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.cold.loads").value(), 2u);
  // Identity: every plain miss resolved exactly one tier below.
  EXPECT_EQ(m.counter("cache.misses").value(),
            m.counter("tier.compressed.hits").value() +
                m.counter("tier.cold.loads").value());
}

TEST(TieredCacheTest, FlatEntriesSpillAndPromoteBack) {
  // No compressed tier: flat victims go straight to the crc-framed spill
  // device; promote on first hit so the round trip is observable.
  TieredCache::Options opt;
  opt.plain_bytes = 250;
  opt.spill_bytes = 10000;
  opt.promote_after_hits = 1;
  TieredCache tc(opt);
  auto& m = tc.metrics();
  auto flat = [](std::uint8_t fill) -> TieredCache::ColdLoader {
    return [fill] {
      ColdResult r;
      r.file = std::make_shared<CachedFile>(blob(100, fill));
      return r;
    };
  };
  tc.acquire_file("a", flat(1));
  tc.release("a");
  tc.acquire_file("b", flat(2));
  tc.release("b");
  tc.acquire_file("c", flat(3));  // evicts "a" → spill record (22 B header)
  tc.release("c");
  EXPECT_TRUE(tc.spill_contains("a"));
  EXPECT_EQ(tc.spill_bytes_used(), 122u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.bytes_written").value(), 122u);

  // Spill hit: crc-verified, promoted on first hit (record reclaimed); the
  // re-insert pressure pushes "b" down in its place.
  auto fa = tc.acquire_file("a", flat(1));
  EXPECT_EQ(fa->plain(), blob(100, 1));
  EXPECT_FALSE(tc.spill_contains("a"));
  EXPECT_TRUE(tc.spill_contains("b"));
  tc.release("a");
  EXPECT_EQ(m.counter("tier.spill.hits").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.promotes").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.bytes_read").value(), 122u);
  EXPECT_EQ(tc.spill_bytes_used(), 122u);  // only "b" remains
  EXPECT_EQ(m.counter("cache.misses").value(),
            m.counter("tier.spill.hits").value() +
                m.counter("tier.cold.loads").value());
}

TEST(TieredCacheTest, CompressedOverflowSpillsOldestFrame) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;  // one materialized entry
  // Holds one compressed frame but not two.
  opt.compressed_bytes = a.compressed.size() + a.compressed.size() / 2;
  opt.spill_bytes = 1 << 20;
  TieredCache tc(opt);
  acquire_hot(tc, "a", cold_of(a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b));  // "a" → tier 1
  tc.release("b");
  EXPECT_TRUE(tc.compressed_contains("a"));
  acquire_hot(tc, "c", cold_of(c));  // "b" → tier 1, which evicts "a" → spill
  tc.release("c");
  EXPECT_TRUE(tc.compressed_contains("b"));
  EXPECT_FALSE(tc.compressed_contains("a"));
  EXPECT_TRUE(tc.spill_contains("a"));
  auto& m = tc.metrics();
  EXPECT_EQ(m.counter("tier.compressed.evictions").value(), 1u);
  EXPECT_EQ(m.counter("tier.spill.demotes").value(), 1u);
  // The spilled frame still round-trips: a spill hit rebuilds "a" exactly.
  auto fa = acquire_hot(tc, "a", cold_of(a));
  EXPECT_EQ(fa->plain(), a.plain);
  tc.release("a");
}

class MapPolicy : public EvictionPolicy {
 public:
  std::map<std::string, std::uint64_t> distance;
  std::uint64_t next_use_distance(const std::string& path) const override {
    const auto it = distance.find(path);
    return it == distance.end() ? kNever : it->second;
  }
};

TEST(TieredCacheTest, BeladyPolicyAppliesPerTier) {
  const auto a = make_chunked(1);
  const auto b = make_chunked(2);
  const auto c = make_chunked(3);
  const auto d = make_chunked(4);
  TieredCache::Options opt;
  opt.plain_bytes = 20000;
  opt.compressed_bytes = 2 * a.compressed.size() + a.compressed.size() / 2;
  opt.spill_bytes = 1 << 20;
  opt.promote_after_hits = 100;  // promotion out of the picture
  TieredCache tc(opt);
  // Fill tier 1 with {a, b} via plain-tier pressure.
  acquire_hot(tc, "a", cold_of(a));
  tc.release("a");
  acquire_hot(tc, "b", cold_of(b));
  tc.release("b");
  acquire_hot(tc, "c", cold_of(c));
  tc.release("c");
  ASSERT_TRUE(tc.compressed_contains("a"));
  ASSERT_TRUE(tc.compressed_contains("b"));
  // Clairvoyant plan: "b" is needed farthest in the future.
  MapPolicy policy;
  policy.distance = {{"a", 5}, {"b", 10}, {"c", 1}, {"d", 2}};
  tc.set_eviction_policy(&policy);
  // "d" pushes "c" into tier 1; the tier-1 victim must be "b" (farthest
  // next use), not "a" (FIFO head).
  acquire_hot(tc, "d", cold_of(d));
  tc.release("d");
  EXPECT_TRUE(tc.compressed_contains("a"));
  EXPECT_TRUE(tc.compressed_contains("c"));
  EXPECT_FALSE(tc.compressed_contains("b"));
  EXPECT_TRUE(tc.spill_contains("b"));
  tc.set_eviction_policy(nullptr);
}

TEST(TieredCacheTest, ZeroBudgetTiersDropVictimsAndKeepIdentity) {
  // Compressed = spill = 0: every lower tier holds nothing, so each tier-0
  // victim — flat or chunked — is dropped and counted, and the accounting
  // identities hold exactly as in a configuration with lower tiers.
  TieredCache tc(plain_only(40000));
  const auto c1 = make_chunked(1);
  const auto c2 = make_chunked(2);
  int cold_calls = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) {
      const std::string path = "f" + std::to_string(i);
      tc.acquire_file(path, flat(10000, static_cast<std::uint8_t>(i),
                                 &cold_calls));
      tc.release(path);
    }
    tc.acquire_file("f5", flat(10000, 5, &cold_calls));  // a plain hit
    tc.release("f5");
    acquire_hot(tc, "c1", cold_of(c1, &cold_calls));
    tc.release("c1");
    acquire_hot(tc, "c2", cold_of(c2, &cold_calls));
    tc.release("c2");
  }
  const auto m = tc.metrics().snapshot();
  ASSERT_NE(m.find("tier.dropped"), nullptr);  // tier metrics always exist
  EXPECT_GT(m.counter("cache.evictions"), 0u);
  EXPECT_EQ(m.counter("tier.dropped"), m.counter("cache.evictions"));
  EXPECT_EQ(m.counter("tier.compressed.demotes"), 0u);
  EXPECT_EQ(m.counter("tier.spill.demotes"), 0u);
  EXPECT_EQ(tc.compressed_bytes_used(), 0u);
  EXPECT_EQ(tc.spill_bytes_used(), 0u);
  EXPECT_EQ(m.counter("cache.misses"),
            m.counter("tier.compressed.hits") + m.counter("tier.spill.hits") +
                m.counter("tier.peer.hits") + m.counter("tier.cold.loads"));
  EXPECT_EQ(m.counter("tier.cold.loads"),
            static_cast<std::uint64_t>(cold_calls));
  EXPECT_GT(m.counter("cache.hits"), 0u);
  EXPECT_EQ(m.counter("tier.plain.hits"), m.counter("cache.hits"));
}

}  // namespace
}  // namespace fanstore::core
