#include "core/tiered_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "compress/chunked.hpp"
#include "posixfs/mem_vfs.hpp"
#include "util/crc32.hpp"

namespace fanstore::core {

namespace {

constexpr std::uint32_t kSpillMagic = 0x31505346;  // "FSP1" little-endian
constexpr std::size_t kSpillHeader = 4 + 4 + 2 + 8 + 4;  // 22 bytes

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t pick_shards(std::size_t capacity_bytes, std::size_t requested) {
  if (requested != 0) return round_up_pow2(requested);
  // Auto policy: enough stripes to spread I/O threads, but never so many
  // that a shard's budget drops below 1 MiB — a 250-byte unit-test cache
  // must behave exactly like the classic single-pool FIFO.
  const std::size_t by_budget = capacity_bytes >> 20;  // capacity / 1 MiB
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t shards = round_up_pow2(hw * 2);
  shards = std::min(shards, std::size_t{32});
  while (shards > 1 && shards > by_budget) shards >>= 1;
  return shards;
}

/// The victim scan every tier shares. Without a policy it is the FIFO head
/// among unpinned entries. With one it is Belady: the unpinned entry whose
/// next planned use is farthest away, the earlier FIFO position breaking
/// ties, so a plan that knows nothing (all kNever) degenerates to exact
/// FIFO. end() when every entry is pinned.
template <typename Map>
std::list<std::string>::iterator pick_victim(std::list<std::string>& fifo,
                                             const Map& entries,
                                             const EvictionPolicy* policy) {
  auto victim = fifo.end();
  std::uint64_t worst = 0;
  for (auto pos = fifo.begin(); pos != fifo.end(); ++pos) {
    if (entries.at(*pos).pinned()) continue;
    if (policy == nullptr) return pos;
    const std::uint64_t d = policy->next_use_distance(*pos);
    if (victim == fifo.end() || d > worst) {
      worst = d;
      victim = pos;
    }
    if (d == EvictionPolicy::kNever) break;  // nothing can be farther
  }
  return victim;
}

}  // namespace

Bytes encode_spill_record(compress::CompressorId compressor,
                          std::uint64_t original_size, std::uint32_t plain_crc,
                          ByteView payload) {
  Bytes out;
  out.reserve(kSpillHeader + payload.size());
  append_le<std::uint32_t>(out, 0);  // crc placeholder
  append_le<std::uint32_t>(out, kSpillMagic);
  append_le<std::uint16_t>(out, compressor);
  append_le<std::uint64_t>(out, original_size);
  append_le<std::uint32_t>(out, plain_crc);
  out.insert(out.end(), payload.begin(), payload.end());
  store_le<std::uint32_t>(out.data(),
                          crc32(ByteView{out.data() + 4, out.size() - 4}));
  return out;
}

SpillRecord decode_spill_record(ByteView bytes) {
  // CRC first (DESIGN.md §8 wire-integrity rule): no field — not even the
  // magic — is interpreted until the whole record checks out, so a torn
  // write or flipped bit can never smuggle garbage into the read path.
  if (bytes.size() < kSpillHeader) {
    throw compress::CorruptDataError("spill record truncated");
  }
  const std::uint32_t want = load_le<std::uint32_t>(bytes.data());
  const std::uint32_t got =
      crc32(ByteView{bytes.data() + 4, bytes.size() - 4});
  if (want != got) {
    throw compress::CorruptDataError("spill record crc mismatch");
  }
  if (load_le<std::uint32_t>(bytes.data() + 4) != kSpillMagic) {
    throw compress::CorruptDataError("spill record bad magic");
  }
  SpillRecord r;
  r.compressor = load_le<std::uint16_t>(bytes.data() + 8);
  r.original_size = load_le<std::uint64_t>(bytes.data() + 10);
  r.plain_crc = load_le<std::uint32_t>(bytes.data() + 18);
  r.payload.assign(bytes.begin() + kSpillHeader, bytes.end());
  return r;
}

TieredCache::TieredCache(Options options) : opt_(std::move(options)) {
  if (opt_.promote_after_hits == 0) opt_.promote_after_hits = 1;
  metrics_ = opt_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  spill_fs_ = opt_.spill_fs;
  if (spill_fs_ == nullptr) {
    owned_spill_fs_ = std::make_unique<posixfs::MemVfs>();
    spill_fs_ = owned_spill_fs_.get();
  }
  const std::size_t n = pick_shards(opt_.plain_bytes, opt_.plain_shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const std::size_t base = opt_.plain_bytes / n;
  const std::size_t extra = opt_.plain_bytes % n;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->budget = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(s));
  }
  auto& m = *metrics_;
  hits_ = &m.counter("cache.hits");
  misses_ = &m.counter("cache.misses");
  evictions_ = &m.counter("cache.evictions");
  waits_ = &m.counter("cache.single_flight_waits");
  plan_evictions_ = &m.counter("plan.evictions");
  bytes_gauge_ = &m.gauge("cache.bytes_used");
  plain_hits_ = &m.counter("tier.plain.hits");
  comp_hits_ = &m.counter("tier.compressed.hits");
  comp_demotes_ = &m.counter("tier.compressed.demotes");
  comp_promotes_ = &m.counter("tier.compressed.promotes");
  comp_evictions_ = &m.counter("tier.compressed.evictions");
  comp_bytes_gauge_ = &m.gauge("tier.compressed.bytes_used");
  spill_hits_ = &m.counter("tier.spill.hits");
  spill_demotes_ = &m.counter("tier.spill.demotes");
  spill_promotes_ = &m.counter("tier.spill.promotes");
  spill_evictions_ = &m.counter("tier.spill.evictions");
  spill_corrupt_ = &m.counter("tier.spill.corrupt");
  spill_bytes_read_ = &m.counter("tier.spill.bytes_read");
  spill_bytes_written_ = &m.counter("tier.spill.bytes_written");
  spill_bytes_gauge_ = &m.gauge("tier.spill.bytes_used");
  peer_hits_ = &m.counter("tier.peer.hits");
  cold_loads_ = &m.counter("tier.cold.loads");
  dropped_ = &m.counter("tier.dropped");
}

void TieredCache::charge(double sec) const {
  if (opt_.charge_costs && opt_.clock != nullptr) opt_.clock->advance_sec(sec);
}

std::string TieredCache::spill_path(const std::string& path) const {
  // Hash-named spill files: dataset paths contain '/', and the spill root
  // should stay a flat directory on any Vfs.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016zx",
                std::hash<std::string>{}(path));
  return opt_.spill_root + "/" + buf;
}

// ---- Tier 0: the sharded plain-RAM pool ----------------------------------

TieredCache::Shard& TieredCache::shard_for(const std::string& path) const {
  return *shards_[std::hash<std::string>{}(path) & shard_mask_];
}

std::size_t TieredCache::shard_of(const std::string& path) const {
  return std::hash<std::string>{}(path) & shard_mask_;
}

std::shared_ptr<CachedFile> TieredCache::insert_pinned_locked(
    Shard& s, const std::string& path, std::shared_ptr<CachedFile> data,
    std::vector<Demoted>* demoted) {
  const auto [it, fresh] = s.entries.try_emplace(path);
  Entry& e = it->second;
  e.open_count++;
  // Already resident: a waiter re-admitted an evicted earlier load of this
  // path while this caller's load was in flight. Pin that entry rather
  // than charging and queueing the path twice.
  if (!fresh) return e.data;
  e.data = std::move(data);
  e.charged = e.data->charge_bytes();
  s.fifo.push_back(path);
  e.fifo_pos = std::prev(s.fifo.end());
  s.bytes_used += e.charged;
  bytes_gauge_->add(static_cast<std::int64_t>(e.charged));
  auto result = e.data;
  evict_if_needed_locked(s, demoted);  // never evicts the pinned newcomer
  return result;
}

void TieredCache::demote_all(std::vector<Demoted>& demoted) {
  for (auto& v : demoted) demote(v.path, v.data);
  demoted.clear();
}

std::shared_ptr<CachedFile> TieredCache::acquire_file(const std::string& path,
                                                      const ColdLoader& cold) {
  Shard& s = shard_for(path);
  std::shared_ptr<InFlight> flight;
  std::vector<Demoted> demoted;
  std::shared_ptr<CachedFile> result;
  {
    sync::MutexLock lk(s.mu);
    if (const auto it = s.entries.find(path); it != s.entries.end()) {
      it->second.open_count++;
      hits_->inc();
      result = it->second.data;
    } else if (const auto fit = s.inflight.find(path);
               fit != s.inflight.end()) {
      // Another thread is already loading this path: wait for it instead
      // of duplicating the tier walk (single-flight).
      flight = fit->second;
      waits_->inc();
      s.load_done.wait(s.mu, [&] { return flight->done; });
      if (flight->error != nullptr) std::rethrow_exception(flight->error);
      hits_->inc();
      const auto again = s.entries.find(path);
      if (again != s.entries.end()) {
        again->second.open_count++;
        result = again->second.data;
      } else {
        // Narrow window: the loader's entry was already evicted (the
        // loader's caller released its pin before we woke). Re-admit the
        // bytes we were handed so pin/release stays balanced for this
        // caller.
        result = insert_pinned_locked(s, path, flight->data, &demoted);
      }
    } else {  // we become the loader
      flight = std::make_shared<InFlight>();
      s.inflight.emplace(path, flight);
    }
  }
  if (result != nullptr) {
    plain_hits_->inc();
    demote_all(demoted);
    return result;
  }
  // Miss: walk the lower tiers (potentially slow) without holding any lock.
  std::shared_ptr<CachedFile> data;
  try {
    data = load_below(path, cold);
  } catch (...) {
    sync::MutexLock lk(s.mu);
    flight->error = std::current_exception();
    flight->done = true;
    s.inflight.erase(path);
    s.load_done.notify_all();
    throw;
  }
  {
    sync::MutexLock lk(s.mu);
    misses_->inc();
    flight->data = data;
    flight->done = true;
    s.inflight.erase(path);
    s.load_done.notify_all();
    result = insert_pinned_locked(s, path, std::move(data), &demoted);
  }
  demote_all(demoted);
  return result;
}

std::shared_ptr<CachedFile> TieredCache::try_acquire(const std::string& path) {
  Shard& s = shard_for(path);
  std::shared_ptr<CachedFile> result;
  {
    sync::MutexLock lk(s.mu);
    const auto it = s.entries.find(path);
    if (it == s.entries.end()) return nullptr;  // absent or still loading
    const CachedFile& f = *it->second.data;
    if (!f.fully_materialized() || f.corrupt()) return nullptr;
    it->second.open_count++;
    hits_->inc();
    result = it->second.data;
  }
  plain_hits_->inc();
  return result;
}

void TieredCache::recharge(const std::string& path) {
  Shard& s = shard_for(path);
  std::vector<Demoted> demoted;
  {
    sync::MutexLock lk(s.mu);
    const auto it = s.entries.find(path);
    if (it == s.entries.end()) return;
    const std::size_t now = it->second.data->charge_bytes();
    const std::size_t before = it->second.charged;
    if (now == before) return;
    it->second.charged = now;
    s.bytes_used += now - before;  // size_t wrap-around is fine for shrink
    bytes_gauge_->add(static_cast<std::int64_t>(now) -
                      static_cast<std::int64_t>(before));
    evict_if_needed_locked(s, &demoted);
  }
  demote_all(demoted);
}

void TieredCache::release(const std::string& path) {
  Shard& s = shard_for(path);
  std::vector<Demoted> demoted;
  {
    sync::MutexLock lk(s.mu);
    const auto it = s.entries.find(path);
    if (it == s.entries.end()) return;
    if (it->second.open_count > 0) it->second.open_count--;
    evict_if_needed_locked(s, &demoted);
  }
  demote_all(demoted);
}

void TieredCache::evict_if_needed_locked(Shard& s,
                                         std::vector<Demoted>* demoted) {
  // The paper's "variant of FIFO" (entries in use by an I/O thread are
  // skipped), or Belady when a plan is installed (DESIGN.md §10).
  const EvictionPolicy* policy = policy_.load(std::memory_order_acquire);
  while (s.bytes_used > s.budget) {
    const auto victim = pick_victim(s.fifo, s.entries, policy);
    if (victim == s.fifo.end()) return;  // everything pinned
    const auto it = s.entries.find(*victim);
    s.bytes_used -= it->second.charged;
    bytes_gauge_->add(-static_cast<std::int64_t>(it->second.charged));
    evictions_->inc();
    if (policy != nullptr) plan_evictions_->inc();
    demoted->push_back({*victim, std::move(it->second.data)});
    s.fifo.erase(victim);
    s.entries.erase(it);
  }
}

bool TieredCache::contains(const std::string& path) const {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  return s.entries.count(path) > 0;
}

int TieredCache::open_count(const std::string& path) const {
  Shard& s = shard_for(path);
  sync::MutexLock lk(s.mu);
  const auto it = s.entries.find(path);
  return it == s.entries.end() ? 0 : it->second.open_count;
}

std::size_t TieredCache::bytes_used() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    sync::MutexLock lk(s->mu);  // one shard at a time: never two held
    total += s->bytes_used;
  }
  return total;
}

// ---- Tiers 1-3 and cold --------------------------------------------------

std::shared_ptr<CachedFile> TieredCache::load_below(const std::string& path,
                                                    const ColdLoader& cold) {
  // Runs inside tier 0's single-flight slot: per-path serialized, no shard
  // lock held, so taking the tier mutexes here is safe.
  if (auto f = lookup_compressed(path)) return f;
  if (auto f = lookup_spill(path)) return f;
  ColdResult r = cold();
  if (r.source == ColdSource::kPeer) {
    peer_hits_->inc();
  } else {
    cold_loads_->inc();
  }
  return std::move(r.file);
}

std::shared_ptr<CachedFile> TieredCache::lookup_compressed(
    const std::string& path) {
  compress::CompressorId compressor = 0;
  Bytes payload;
  std::uint64_t original_size = 0;
  std::uint32_t plain_crc = 0;
  bool promote = false;
  {
    sync::MutexLock lk(comp_mu_);
    const auto it = comp_.find(path);
    if (it == comp_.end()) return nullptr;
    CompressedEntry& e = it->second;
    e.hits++;
    compressor = e.compressor;
    original_size = e.original_size;
    plain_crc = e.plain_crc;
    // Promote on the Nth hit (default second): the bytes *move* up — the
    // tier-1 copy is erased so plain RAM and compressed RAM never hold the
    // same object twice.
    promote = e.hits >= opt_.promote_after_hits;
    if (promote) {
      payload = std::move(e.payload);
      comp_bytes_ -= payload.size();
      comp_bytes_gauge_->add(-static_cast<std::int64_t>(payload.size()));
      comp_fifo_.erase(e.fifo_pos);
      comp_.erase(it);
    } else {
      payload = e.payload;  // copy: the tier keeps its residency
    }
  }
  comp_hits_->inc();
  if (promote) comp_promotes_->inc();
  return rebuild(compressor, std::move(payload), original_size, plain_crc);
}

std::shared_ptr<CachedFile> TieredCache::lookup_spill(const std::string& path) {
  SpillRecord rec;
  bool promote = false;
  {
    sync::MutexLock lk(spill_mu_);
    const auto it = spill_.find(path);
    if (it == spill_.end()) return nullptr;
    SpillEntry& e = it->second;
    // Device read under the tier mutex: the spill device is one SSD and
    // this models its serialized queue (lock order: tiered.spill.mu →
    // mem_vfs.mu, both leaves of everything above them).
    charge(opt_.spill_storage.file_read_time(e.record_bytes));
    const auto raw = posixfs::read_file(*spill_fs_, spill_path(path));
    spill_bytes_read_->inc(static_cast<std::uint64_t>(e.record_bytes));
    try {
      if (!raw.has_value()) {
        throw compress::CorruptDataError("spill record unreadable");
      }
      rec = decode_spill_record(as_view(*raw));
    } catch (const compress::CorruptDataError&) {
      // A corrupt spill record is treated as a device failure for this
      // entry: count it, reclaim the slot, and fall through to colder
      // tiers. Never surfaced as a hit, never as an error.
      spill_corrupt_->inc();
      reclaim_spill_locked(path, e);
      spill_fifo_.erase(e.fifo_pos);
      spill_.erase(it);
      return nullptr;
    }
    e.hits++;
    promote = e.hits >= opt_.promote_after_hits;
    if (promote) {
      reclaim_spill_locked(path, e);
      spill_fifo_.erase(e.fifo_pos);
      spill_.erase(it);
    }
  }
  spill_hits_->inc();
  if (promote) spill_promotes_->inc();
  return rebuild(rec.compressor, std::move(rec.payload), rec.original_size,
                 rec.plain_crc);
}

std::shared_ptr<CachedFile> TieredCache::rebuild(
    compress::CompressorId compressor, Bytes payload,
    std::size_t original_size, std::uint32_t plain_crc) {
  if (compressor == 0) {
    // Plain bytes (flat entries demoted through the spill tier).
    if (plain_crc != 0 && crc32(as_view(payload)) != plain_crc) {
      throw compress::CorruptDataError("tiered plain payload crc mismatch");
    }
    return std::make_shared<CachedFile>(std::move(payload));
  }
  // Chunked containers (the only compressed form demote() stores) come
  // back lazy: the hit decodes per-range exactly like a fresh cold load,
  // which is the whole point of keeping tier-1 entries in container form.
  return std::make_shared<CachedFile>(std::move(payload), compressor,
                                      original_size, plain_crc);
}

void TieredCache::demote(const std::string& path,
                         const std::shared_ptr<CachedFile>& file) {
  // Runs with no shard lock held. Chunked entries carry their compressed
  // frame — demote that form to the compressed tier, or straight to the
  // spill device when it does not fit there. Flat entries only have plain
  // bytes, whose RAM footprint equals what was just evicted, so compressed
  // RAM would buy nothing: they go to the spill device.
  if (file->is_chunked()) {
    const Bytes& frame = file->compressed_bytes();
    if (frame.size() <= opt_.compressed_bytes) {
      CompressedEntry e;
      e.compressor = file->container_id();
      e.payload = frame;
      e.original_size = file->size();
      e.plain_crc = file->plain_crc();
      insert_compressed(path, std::move(e));
    } else {
      insert_spill(path, file->container_id(), file->size(), file->plain_crc(),
                   as_view(frame));
    }
    return;
  }
  if (kSpillHeader + file->size() > opt_.spill_bytes) {
    dropped_->inc();  // checked first: no crc for a record that cannot fit
    return;
  }
  insert_spill(path, 0, file->size(), crc32(as_view(file->plain())),
               as_view(file->plain()));
}

void TieredCache::insert_compressed(const std::string& path,
                                    CompressedEntry entry) {
  const std::size_t sz = entry.payload.size();
  struct Victim {
    std::string path;
    CompressedEntry entry;
  };
  std::vector<Victim> victims;
  {
    sync::MutexLock lk(comp_mu_);
    // Already resident below (its tier-1 copy was not yet promoted away):
    // dedupe, drop this copy.
    if (comp_.count(path) > 0) return;
    comp_fifo_.push_back(path);
    entry.fifo_pos = std::prev(comp_fifo_.end());
    comp_bytes_ += sz;
    comp_bytes_gauge_->add(static_cast<std::int64_t>(sz));
    comp_.emplace(path, std::move(entry));
    const EvictionPolicy* policy = policy_.load(std::memory_order_acquire);
    while (comp_bytes_ > opt_.compressed_bytes) {
      const auto pos = pick_victim(comp_fifo_, comp_, policy);
      const auto it = comp_.find(*pos);
      comp_bytes_ -= it->second.payload.size();
      comp_bytes_gauge_->add(
          -static_cast<std::int64_t>(it->second.payload.size()));
      victims.push_back({*pos, std::move(it->second)});
      comp_fifo_.erase(pos);
      comp_.erase(it);
    }
  }
  comp_demotes_->inc();
  for (auto& v : victims) {
    comp_evictions_->inc();
    insert_spill(v.path, v.entry.compressor, v.entry.original_size,
                 v.entry.plain_crc, as_view(v.entry.payload));
  }
}

void TieredCache::reclaim_spill_locked(const std::string& path,
                                       const SpillEntry& e) {
  // Vfs has no unlink; overwriting with an empty file releases the bytes
  // (MemVfs write-open truncates) and keeps the accounting exact.
  posixfs::write_file(*spill_fs_, spill_path(path), ByteView{});
  spill_bytes_ -= e.record_bytes;
  spill_bytes_gauge_->add(-static_cast<std::int64_t>(e.record_bytes));
}

void TieredCache::insert_spill(const std::string& path,
                               compress::CompressorId compressor,
                               std::uint64_t original_size,
                               std::uint32_t plain_crc, ByteView payload) {
  const std::size_t record_bytes = kSpillHeader + payload.size();
  if (record_bytes > opt_.spill_bytes) {
    dropped_->inc();
    return;
  }
  const Bytes record =
      encode_spill_record(compressor, original_size, plain_crc, payload);
  std::size_t evicted = 0;
  {
    sync::MutexLock lk(spill_mu_);
    if (spill_.count(path) > 0) return;  // dedupe
    const EvictionPolicy* policy = policy_.load(std::memory_order_acquire);
    while (spill_bytes_ + record_bytes > opt_.spill_bytes) {
      const auto pos = pick_victim(spill_fifo_, spill_, policy);
      const auto it = spill_.find(*pos);
      reclaim_spill_locked(*pos, it->second);
      spill_fifo_.erase(pos);
      spill_.erase(it);
      evicted++;
    }
    charge(opt_.spill_storage.file_write_time(record_bytes));
    if (posixfs::write_file(*spill_fs_, spill_path(path), as_view(record)) !=
        0) {
      dropped_->inc();  // spill device full/failed: entry falls to cold
      return;
    }
    SpillEntry e;
    e.record_bytes = record_bytes;
    spill_fifo_.push_back(path);
    e.fifo_pos = std::prev(spill_fifo_.end());
    spill_bytes_ += record_bytes;
    spill_bytes_gauge_->add(static_cast<std::int64_t>(record_bytes));
    spill_.emplace(path, std::move(e));
    spill_bytes_written_->inc(static_cast<std::uint64_t>(record_bytes));
  }
  spill_evictions_->inc(static_cast<std::uint64_t>(evicted));
  spill_demotes_->inc();
}

bool TieredCache::contains_any(const std::string& path) const {
  return contains(path) || compressed_contains(path) || spill_contains(path);
}

bool TieredCache::compressed_contains(const std::string& path) const {
  sync::MutexLock lk(comp_mu_);
  return comp_.count(path) > 0;
}

bool TieredCache::spill_contains(const std::string& path) const {
  sync::MutexLock lk(spill_mu_);
  return spill_.count(path) > 0;
}

std::size_t TieredCache::compressed_bytes_used() const {
  sync::MutexLock lk(comp_mu_);
  return comp_bytes_;
}

std::size_t TieredCache::spill_bytes_used() const {
  sync::MutexLock lk(spill_mu_);
  return spill_bytes_;
}

}  // namespace fanstore::core
