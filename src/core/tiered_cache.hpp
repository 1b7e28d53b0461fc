// The decompressed-data cache (§IV-C3, Fig. 4) and the tier stack below it
// (DESIGN.md §12), one object behind one acquire/release interface —
//
//   tier 0  plain RAM        decompressed entries, sharded refcount-FIFO pool
//   tier 1  compressed RAM   entries in their compressed/chunked-container
//                            form; a hit re-decodes (chunked entries come
//                            back lazy, so per-range decode stays cheap)
//   tier 2  SSD spill        crc-framed spill records on a local Vfs,
//                            charged against an ssd StorageModel
//   tier 3  peer RAM         the owner rank's backend via the cold loader
//                            (daemon fetch)
//   cold    local backend    the rank's own compressed partition
//
// Tier 0 is a bounded shared pool with a refcount-aware FIFO policy. Every
// file is equally likely to be read each iteration, so FIFO is as good as
// LRU at a fraction of the bookkeeping; the one exception is files
// currently opened by one or more I/O threads, which eviction must skip.
// The pool is split into N lock-striped shards (N a power of two, keyed by
// path hash), each owning its FIFO, byte budget and in-flight-load table,
// so unrelated opens never contend. Misses are *single-flight*: concurrent
// acquires of one path walk the lower tiers exactly once — the winner
// loads with no shard lock held, everyone else blocks on the shard's
// condvar and adopts the result (or the loader's exception).
//
// Eviction from tier N is *demotion* into tier N+1: a tier-0 victim goes
// to tier 1 (chunked frames) or tier 2 (flat plain bytes); tier-1 eviction
// spills its compressed payload; tier-2 eviction drops the record. A tier
// whose budget is 0 holds nothing: what would land there falls through to
// the next tier, and a victim no tier takes is counted in "tier.dropped".
// Promotion is hit-driven — a lower-tier hit always materializes into plain
// RAM (the read path needs decompressed bytes) but the lower-tier copy is
// retained until `promote_after_hits` cumulative hits, so one-shot scans do
// not purge the capacity tiers.
//
// The clairvoyant EvictionPolicy (DESIGN.md §10) applies to every tier:
// when a plan is installed, each tier's victim scan picks the entry with
// the farthest next planned use (FIFO tiebreak) instead of the FIFO head.
//
// Concurrency: tier lookups and demotions run with no shard lock held
// (inside the single-flight miss slot, or after the evicting call released
// its shard lock). tiered.compressed.mu and tiered.spill.mu are leaves of
// the lock order; spill-device I/O happens under tiered.spill.mu — the
// spill tier is a single serialized device, like the SSD it models. Stats
// live in an obs::MetricsRegistry ("cache.*" and "tier.*", DESIGN.md §7):
// relaxed-atomic counters bumped lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cached_file.hpp"
#include "obs/metrics.hpp"
#include "posixfs/vfs.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::core {

/// Pluggable eviction advice (DESIGN.md §10). When a policy is installed
/// via TieredCache::set_eviction_policy(), capacity pressure in every tier
/// evicts the entry whose next use is farthest in the future (exact-future-
/// reuse / Belady — the clairvoyant plan::AccessPlan implements this
/// interface over the known epoch schedule); with no policy installed each
/// tier evicts FIFO.
class EvictionPolicy {
 public:
  /// "Never used again" per the known schedule — evicted first.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  virtual ~EvictionPolicy() = default;

  /// Number of future accesses before `path` is next needed (0 = needed by
  /// the very next access). Consulted under a cache lock: must be cheap,
  /// non-blocking, and must never call back into the cache.
  virtual std::uint64_t next_use_distance(const std::string& path) const = 0;
};

/// Where a cold load's bytes came from — tier accounting distinguishes the
/// peer-RAM tier from the rank's own backend.
enum class ColdSource { kLocalBackend, kPeer };

/// What the cold loader hands the cache: the usable entry and its source.
struct ColdResult {
  std::shared_ptr<CachedFile> file;
  ColdSource source = ColdSource::kLocalBackend;
};

/// One decoded spill record (see encode_spill_record for the layout).
struct SpillRecord {
  compress::CompressorId compressor = 0;  // 0 = plain bytes
  std::uint64_t original_size = 0;
  std::uint32_t plain_crc = 0;
  Bytes payload;
};

/// Frames a spill record:
///   u32 crc  | u32 magic "FSP1" | u16 compressor | u64 original_size |
///   u32 plain_crc | payload
/// The leading crc32 covers every byte after itself, so a torn or bit-
/// flipped spill file is rejected before any field is interpreted.
Bytes encode_spill_record(compress::CompressorId compressor,
                          std::uint64_t original_size, std::uint32_t plain_crc,
                          ByteView payload);

/// Parses and crc-verifies a spill record. Throws compress::CorruptDataError
/// on truncation, crc mismatch, or a bad magic — never interprets payload
/// bytes first.
SpillRecord decode_spill_record(ByteView bytes);

class TieredCache {
 public:
  struct Options {
    /// Tier-0 (plain RAM) budget. A single entry larger than its shard's
    /// budget is still admitted while pinned (it is evicted on release).
    std::size_t plain_bytes = 0;
    /// Tier-0 lock stripes, rounded up to a power of two; 0 picks a default
    /// that keeps each shard's budget at least 1 MiB (so small caches —
    /// unit tests, tiny configs — degenerate to one shard with exactly the
    /// classic single-pool FIFO semantics).
    std::size_t plain_shards = 0;
    /// Tier-1 (compressed RAM) budget; 0 = the tier holds nothing.
    std::size_t compressed_bytes = 0;
    /// Tier-2 (SSD spill) budget; 0 = the tier holds nothing.
    std::size_t spill_bytes = 0;
    /// Spill device; nullptr = an internal MemVfs standing in for the
    /// node-local SSD (all device *time* comes from `spill_storage`).
    posixfs::Vfs* spill_fs = nullptr;
    std::string spill_root = ".fanstore-spill";
    /// Cumulative lower-tier hits after which the lower copy is released
    /// upward (the bytes move instead of duplicating). Minimum 1.
    std::size_t promote_after_hits = 2;
    /// Registry for the "cache.*" and "tier.*" metrics; nullptr gives the
    /// cache a private registry.
    obs::MetricsRegistry* metrics = nullptr;
    /// Virtual-time charging for spill I/O.
    simnet::VirtualClock* clock = nullptr;
    bool charge_costs = false;
    simnet::StorageModel spill_storage = simnet::ssd_storage();
  };

  using ColdLoader = std::function<ColdResult()>;

  explicit TieredCache(Options options);

  /// Returns the tier-0 entry for `path`, pinning it (open-counter + 1). On
  /// a tier-0 miss the lower tiers are walked with no shard lock held:
  /// compressed-RAM hit (re-decoded), else spill hit (crc-verified, device
  /// time charged), else `cold()` (peer fetch / local backend — the caller
  /// owns that policy). `cold` may throw; the miss is then not cached and
  /// every thread waiting on the same in-flight load observes the
  /// exception. The returned entry may be a lazily-materializing chunked
  /// file (see CachedFile).
  std::shared_ptr<CachedFile> acquire_file(const std::string& path,
                                           const ColdLoader& cold);

  /// Drops one pin (close()); the entry stays cached FIFO-style until
  /// capacity pressure evicts it.
  void release(const std::string& path);

  /// Re-syncs `path`'s budget accounting with CachedFile::charge_bytes()
  /// after lazy chunks materialized, applying eviction pressure for the
  /// growth. No-op if the entry is gone.
  void recharge(const std::string& path);

  /// True when tier 0 holds `path`.
  bool contains(const std::string& path) const;
  /// True when any local tier (plain, compressed, spill) holds `path`.
  bool contains_any(const std::string& path) const;

  /// Installs (nullptr clears) a clairvoyant eviction policy for every
  /// tier. The policy must outlive the cache or be cleared first; it is
  /// consulted only at eviction time, so installation mid-run is safe.
  void set_eviction_policy(const EvictionPolicy* policy) {
    policy_.store(policy, std::memory_order_release);
  }

  // --- Introspection (tests, benches, stats_report) ---
  std::size_t bytes_used() const;  // tier 0
  std::size_t capacity() const { return opt_.plain_bytes; }
  std::size_t shard_count() const { return shards_.size(); }
  /// Which tier-0 shard `path` lives in (colliding/non-colliding key sets).
  std::size_t shard_of(const std::string& path) const;
  /// Current pin count of `path` (0 if absent) — e.g. asserting the
  /// prefetcher leaks no pins.
  int open_count(const std::string& path) const;
  bool compressed_contains(const std::string& path) const;
  bool spill_contains(const std::string& path) const;
  std::size_t compressed_bytes_used() const;
  std::size_t spill_bytes_used() const;

  /// The registry holding this cache's metrics (injected or private).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Entry {
    std::shared_ptr<CachedFile> data;
    /// Bytes last accounted against the shard budget (charge_bytes() at
    /// insert/recharge time — a lazy entry's footprint grows as chunks
    /// materialize).
    std::size_t charged = 0;
    int open_count = 0;
    std::list<std::string>::iterator fifo_pos;
    /// Opened by some I/O thread: eviction skips it.
    bool pinned() const { return open_count > 0; }
  };

  /// One in-flight miss load; waiters sleep on the shard condvar until
  /// `done`, then take `data` or rethrow `error`.
  struct InFlight {
    bool done = false;
    std::shared_ptr<CachedFile> data;
    std::exception_ptr error;
  };

  struct Shard {
    mutable sync::Mutex mu{"cache.shard.mu"};
    sync::AnnotatedCondVar load_done;  // single-flight completion signal
    std::unordered_map<std::string, Entry> entries GUARDED_BY(mu);
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight
        GUARDED_BY(mu);
    std::list<std::string> fifo GUARDED_BY(mu);  // insertion order, oldest first
    std::size_t bytes_used GUARDED_BY(mu) = 0;
    std::size_t budget = 0;  // immutable after construction
  };

  /// A tier-0 victim collected under its shard lock, demoted only after
  /// the lock is released.
  struct Demoted {
    std::string path;
    std::shared_ptr<CachedFile> data;
  };

  /// A tier-1 entry: the compressed (or chunked-container) form plus the
  /// metadata needed to rebuild a CachedFile and to decide promotion.
  struct CompressedEntry {
    compress::CompressorId compressor = 0;
    Bytes payload;
    std::uint64_t original_size = 0;
    std::uint32_t plain_crc = 0;
    std::size_t hits = 0;
    std::list<std::string>::iterator fifo_pos;
    bool pinned() const { return false; }
  };

  /// A tier-2 entry: the record lives on the spill device; only accounting
  /// stays in RAM.
  struct SpillEntry {
    std::size_t record_bytes = 0;
    std::size_t hits = 0;
    std::list<std::string>::iterator fifo_pos;
    bool pinned() const { return false; }
  };

  Shard& shard_for(const std::string& path) const;
  /// Inserts a freshly loaded entry pinned once (or pins the entry already
  /// resident under `path`); applies eviction pressure.
  std::shared_ptr<CachedFile> insert_pinned_locked(
      Shard& s, const std::string& path, std::shared_ptr<CachedFile> data,
      std::vector<Demoted>* demoted) REQUIRES(s.mu);
  void evict_if_needed_locked(Shard& s, std::vector<Demoted>* demoted)
      REQUIRES(s.mu);
  /// Demotes collected tier-0 victims (no shard lock held).
  void demote_all(std::vector<Demoted>& demoted);

  /// Routes an evicted tier-0 entry to tier 1 (chunked frame) or tier 2
  /// (flat plain bytes), or drops it.
  void demote(const std::string& path,
              const std::shared_ptr<CachedFile>& file);

  /// The tier walk run on a tier-0 miss (single-flight slot, no shard lock
  /// held).
  std::shared_ptr<CachedFile> load_below(const std::string& path,
                                         const ColdLoader& cold);

  std::shared_ptr<CachedFile> lookup_compressed(const std::string& path);
  std::shared_ptr<CachedFile> lookup_spill(const std::string& path);

  /// Demotes into tier 1 (no-op if present; the entry must fit the
  /// budget); evicted victims spill to tier 2 after the tier-1 lock is
  /// released.
  void insert_compressed(const std::string& path, CompressedEntry entry);
  /// Demotes into tier 2 (no-op if present), evicting FIFO/policy victims
  /// to make room. Records too large for the budget, or that the device
  /// fails to write, are counted in "tier.dropped".
  void insert_spill(const std::string& path, compress::CompressorId compressor,
                    std::uint64_t original_size, std::uint32_t plain_crc,
                    ByteView payload);

  /// Rebuilds a usable entry from a tier payload: id 0 is plain bytes
  /// (crc-checked now), a chunked id comes back lazy (crc-checked once
  /// complete).
  std::shared_ptr<CachedFile> rebuild(compress::CompressorId compressor,
                                      Bytes payload, std::size_t original_size,
                                      std::uint32_t plain_crc);

  std::string spill_path(const std::string& path) const;
  void reclaim_spill_locked(const std::string& path, const SpillEntry& e)
      REQUIRES(spill_mu_);
  void charge(double sec) const;

  Options opt_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<posixfs::Vfs> owned_spill_fs_;  // when not injected
  posixfs::Vfs* spill_fs_ = nullptr;

  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable sync::Mutex comp_mu_{"tiered.compressed.mu"};
  std::unordered_map<std::string, CompressedEntry> comp_ GUARDED_BY(comp_mu_);
  std::list<std::string> comp_fifo_ GUARDED_BY(comp_mu_);
  std::size_t comp_bytes_ GUARDED_BY(comp_mu_) = 0;

  mutable sync::Mutex spill_mu_{"tiered.spill.mu"};
  std::unordered_map<std::string, SpillEntry> spill_ GUARDED_BY(spill_mu_);
  std::list<std::string> spill_fifo_ GUARDED_BY(spill_mu_);
  std::size_t spill_bytes_ GUARDED_BY(spill_mu_) = 0;

  /// Clairvoyant eviction advice for every tier; nullptr = FIFO.
  std::atomic<const EvictionPolicy*> policy_{nullptr};

  // "cache.*" metrics (the hit path does one shard lock plus relaxed atomic
  // adds; Counter is cache-line padded).
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* waits_ = nullptr;
  obs::Counter* plan_evictions_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  // "tier.*" metrics.
  obs::Counter* plain_hits_ = nullptr;
  obs::Counter* comp_hits_ = nullptr;
  obs::Counter* comp_demotes_ = nullptr;
  obs::Counter* comp_promotes_ = nullptr;
  obs::Counter* comp_evictions_ = nullptr;
  obs::Gauge* comp_bytes_gauge_ = nullptr;
  obs::Counter* spill_hits_ = nullptr;
  obs::Counter* spill_demotes_ = nullptr;
  obs::Counter* spill_promotes_ = nullptr;
  obs::Counter* spill_evictions_ = nullptr;
  obs::Counter* spill_corrupt_ = nullptr;
  obs::Counter* spill_bytes_read_ = nullptr;
  obs::Counter* spill_bytes_written_ = nullptr;
  obs::Gauge* spill_bytes_gauge_ = nullptr;
  obs::Counter* peer_hits_ = nullptr;
  obs::Counter* cold_loads_ = nullptr;
  obs::Counter* dropped_ = nullptr;
};

}  // namespace fanstore::core
