// train_hot and train_cold: four rank threads (mpi::run_world) train
// through the POSIX mount Interceptor -> FanStoreFs of their own Instance,
// with a global shuffle (plan::epoch_shuffle) and one gradient allreduce
// per step, as dlsim::run_training does, minus the modeled compute.
//
//   train_hot   8 KiB flat-lz4 samples, the whole dataset in every rank's
//               plain tier, fully replicated metadata: every open is a
//               plain-tier hit, so the per-open overhead is exposed. A
//               checkpoint shard per rank about once a second.
//   train_cold  64-128 KiB chunked-lz4 samples, 8x the plain tier, with
//               compressed-RAM and spill tiers, metadata sharded rf = 2 of
//               4, and one checkpoint shard per rank per epoch: misses,
//               fetches, decode and the write path do most of the work.
//
// The traced run (--trace 1) alternates untraced and traced epochs. In a
// traced epoch every Interceptor call is timed from here, and a timing Vfs
// mounted below the Interceptor, plus timing Vfs shims passed as the
// backend's local_fs and the spill tier's spill_fs, split each call into
// posixfs dispatch, fs self time, backend, spill, fetch and decode.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "plan/access_plan.hpp"
#include "posixfs/interceptor.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kSetupReps = 21;
constexpr std::size_t kCkptBytes = 32 * 1024;

using core::Instance;

struct TrainConfig {
  bool cold = false;
  std::size_t batch_per_rank = 0;
  int warmup_epochs = 0;  // unmeasured epochs before the window (cold)
  /// Checkpoint shards are written at the end of the first epoch at least
  /// this long after the previous ones; 0 = every epoch.
  double ckpt_every_s = 0;
  Instance::Options opts;  // per-rank template (clock/shims filled per rank)
};

/// Everything one rank keeps across its setups, plus its results.
struct RankOut {
  SlicedHist sample_ns;   // untraced epochs, by second of the window:
                          // open -> read to EOF -> close
  SlicedHist stat_ns;     // enumeration stats, by setup
  LatHist dispatch_ns, open_ns, open_self_ns, read_ns, close_ns, ckpt_close_ns;
  LatHist sync_ns;        // traced epochs: one allreduce per step
  LatHist backend_read_ns, backend_write_ns, spill_read_ns, spill_write_ns;
  Attribution attr;       // traced epochs
  obs::MetricsSnapshot s0, s1, s2;  // after warm-up, after window, at end
  double vclock_window_s = 0;
  std::uint64_t read_opens = 0;  // successful read-mode opens since s0
  std::uint64_t samples = 0;     // window samples
};

/// Per-epoch and per-setup records, kept by rank 0.
struct Timeline {
  std::vector<double> setup_s, load_s, exchange_s, start_s, enumerate_s;
  std::vector<double> rate_untraced, rate_traced;  // samples/s per epoch
  std::vector<double> ckpt_s;
  int epochs = 0;
  std::uint64_t mpi_msgs = 0, mpi_bytes = 0;  // global registry, window
};

/// Layer accumulators for one rank thread during traced epochs.
struct LayerAcc {
  std::int64_t plan = 0, posixfs = 0, fs = 0, backend = 0, spill = 0, fetch = 0,
               decode = 0, sync = 0, verify = 0;
};

class Rank {
 public:
  Rank(mpi::Comm& comm, const TrainConfig& cfg, Dataset& ds, const Args& args,
       RankOut& out, Timeline& tl, Report& report)
      : comm_(comm), cfg_(cfg), ds_(ds), args_(args), out_(out), tl_(tl),
        report_(report), backend_shim_(&local_disk_, TimedVfs::Role::kBackend),
        spill_shim_(&spill_disk_, TimedVfs::Role::kSpill),
        buf_(std::max<std::size_t>(ds.max_file, std::size_t{1} << 20)),
        shuffle_rng_(args.seed * 0x9E3779B97F4A7C15ull + 7) {}

  ~Rank() {
    thread_layers() = nullptr;
    report_.attempt(attempted_);
    if (inst_) inst_->stop();
  }

  /// Instance construction through enumeration; rank 0 records the times.
  void setup(bool traced, int rep) {
    comm_.barrier();
    const std::int64_t t0 = tick();
    std::int64_t mark = t0;
    const auto phase = [&](std::vector<double>& into) {
      if (!traced) return;
      comm_.barrier();
      const std::int64_t now = tick();
      if (comm_.rank() == 0) into.push_back(static_cast<double>(to_ns(now - mark)) * 1e-9);
      mark = now;
    };
    Instance::Options o = cfg_.opts;
    o.local_fs = &backend_shim_;
    o.fs.clock = &clock_;
    if (cfg_.cold) o.fs.spill_fs = &spill_shim_;
    inst_ = std::make_unique<Instance>(comm_, o);
    inst_->load_from_shared(ds_.shared, ds_.manifest.partition_paths());
    phase(tl_.load_s);
    inst_->exchange_metadata();
    phase(tl_.exchange_s);
    inst_->start_daemon();
    phase(tl_.start_s);
    fs_shim_ = std::make_unique<TimedVfs>(&inst_->fs(), TimedVfs::Role::kFs);
    posix_ = std::make_unique<posixfs::Interceptor>();
    posix_->mount("fs", fs_shim_.get());
    enumerate(rep);
    phase(tl_.enumerate_s);
    comm_.barrier();
    if (comm_.rank() == 0) tl_.setup_s.push_back(static_cast<double>(to_ns(tick() - t0)) * 1e-9);
  }

  /// The measured part: warm-up, the timed window, checkpoints, read-back.
  void run() {
    // plan::epoch_shuffle permutes by position alone, so shuffling file
    // indices (as short tokens) gives the order it would give the paths,
    // without a path lookup per sample.
    std::vector<std::string> order;
    for (std::size_t i = 0; i < ds_.files.size(); ++i) {
      paths_.push_back("fs/" + ds_.files[i].path);
      order.push_back(std::to_string(i));
    }
    if (cfg_.cold) {
      for (int e = 0; e < cfg_.warmup_epochs; ++e) epoch(order, false, false);
    } else {
      for (std::size_t i = 0; i < ds_.files.size(); ++i) sample(i, false, false);
    }
    comm_.barrier();
    if (comm_.rank() == 0) {
      TimedVfs::recording() = true;
      mpi0_ = obs::MetricsRegistry::global().snapshot();
    }
    comm_.barrier();
    out_.s0 = inst_->metrics().snapshot();
    const double v0 = clock_.now_sec();
    window_start_ = tick();
    bool stop = false;
    while (!stop) {
      const bool traced = args_.trace && measured_ % 2 == 1;
      stop = epoch(order, true, traced);
      ++measured_;
    }
    out_.vclock_window_s = (clock_.now_sec() - v0) / measured_;
    comm_.barrier();
    out_.s1 = inst_->metrics().snapshot();
    if (comm_.rank() == 0) {
      TimedVfs::recording() = false;
      const auto m1 = obs::MetricsRegistry::global().snapshot();
      tl_.mpi_msgs = m1.counter("mpi.messages_sent") - mpi0_.counter("mpi.messages_sent");
      tl_.mpi_bytes = m1.counter("mpi.bytes_sent") - mpi0_.counter("mpi.bytes_sent");
      tl_.epochs = measured_;
    }
    comm_.barrier();
    read_back_checkpoints();
    out_.backend_read_ns = backend_shim_.read_hist();
    out_.backend_write_ns = backend_shim_.write_hist();
    out_.spill_read_ns = spill_shim_.read_hist();
    out_.spill_write_ns = spill_shim_.write_hist();
  }

  void teardown() {
    comm_.barrier();  // no rank may still be fetching from this one
    inst_->stop();
    // The daemon counts a fetch after sending its reply; once stop() has
    // joined it, the counters are final for the cross-checks.
    out_.s2 = inst_->metrics().snapshot();
    posix_.reset();
    fs_shim_.reset();
    inst_.reset();
  }

 private:
  /// opendir/readdir over the mount plus a timed stat of every file,
  /// checked against the generated dataset.
  void enumerate(int rep) {
    std::size_t seen = 0;
    std::vector<std::string> dirs = {"fs/data"};
    while (!dirs.empty()) {
      const std::string dir = dirs.back();
      dirs.pop_back();
      ++attempted_;
      const int h = posix_->opendir(dir);
      if (h < 0) {
        report_.fail("opendir " + dir);
        continue;
      }
      while (auto e = posix_->readdir(h)) {
        const std::string path = dir + "/" + e->name;
        if (e->type == format::FileType::kDirectory) {
          dirs.push_back(path);
          continue;
        }
        format::FileStat st;
        ++attempted_;
        const std::int64_t t0 = tick();
        const int rc = posix_->stat(path, &st);
        out_.stat_ns.record(static_cast<std::size_t>(rep),
                            static_cast<std::uint64_t>(to_ns(tick() - t0)));
        const FileSpec* f = find(path.substr(3));
        if (rc != 0 || f == nullptr || st.size != f->size) {
          report_.fail("stat " + path);
          continue;
        }
        ++seen;
      }
      posix_->closedir(h);
    }
    if (seen != ds_.files.size()) {
      report_.fail("enumeration saw " + std::to_string(seen) + " of " +
                   std::to_string(ds_.files.size()) + " files");
    }
  }

  const FileSpec* find(const std::string& path) const {
    const auto it = std::lower_bound(
        ds_.files.begin(), ds_.files.end(), path,
        [](const FileSpec& f, const std::string& p) { return f.path < p; });
    return it != ds_.files.end() && it->path == path ? &*it : nullptr;
  }

  /// One epoch over the global shuffle; returns true when rank 0 saw the
  /// window end (the flag rides the step allreduce, so all ranks agree).
  bool epoch(std::vector<std::string>& order, bool measured, bool traced) {
    const std::size_t global_batch = cfg_.batch_per_rank * kRanks;
    const std::size_t steps = ds_.files.size() / global_batch;
    ThreadLayers layers;
    if (traced) arm_trace(layers);
    const std::int64_t t0 = tick();
    plan::epoch_shuffle(order, shuffle_rng_);
    if (traced) acc_.plan += to_ns(tick() - t0);
    std::vector<double> grad(18, 0.0);
    bool stop = false;
    bool ckpt_due = false;
    for (std::size_t s = 0; s < steps; ++s) {
      const std::size_t base = s * global_batch + comm_.rank() * cfg_.batch_per_rank;
      for (std::size_t b = 0; b < cfg_.batch_per_rank; ++b) {
        const std::string& token = order[base + b];
        std::size_t idx = 0;
        std::from_chars(token.data(), token.data() + token.size(), idx);
        grad[b % 16] += static_cast<double>(sample(idx, measured, traced) & 0xFF);
      }
      // Rank 0's window-end and checkpoint-due flags ride the allreduce.
      // At least four measured epochs run, so the traced run has two of
      // each kind.
      const bool lead = comm_.rank() == 0;
      grad[16] = lead && measured && measured_ >= 3 &&
                         seconds_since(window_start_) >= args_.seconds
                     ? 1.0
                     : 0.0;
      grad[17] = lead && s + 1 == steps && seconds_since(last_ckpt_) >= cfg_.ckpt_every_s
                     ? 1.0
                     : 0.0;
      const std::int64_t ts = tick();
      grad = comm_.allreduce_sum(grad);
      if (traced) {
        const std::int64_t ns = to_ns(tick() - ts);
        acc_.sync += ns;
        out_.sync_ns.record(static_cast<std::uint64_t>(ns));
      }
      stop = grad[16] > 0;
      ckpt_due = grad[17] > 0;
    }
    if (ckpt_due) {
      if (comm_.rank() == 0) last_ckpt_ = tick();
      const Bytes ckpt = make_bytes(ckpt_seed(epoch_no_, comm_.rank()), kCkptBytes);
      const double d = checkpoint_shard(epoch_no_, ckpt, traced);
      const std::int64_t ts = tick();
      const double all = comm_.allreduce_max(d);
      if (traced) acc_.sync += to_ns(tick() - ts);
      if (measured && comm_.rank() == 0) tl_.ckpt_s.push_back(all);
      ckpt_rounds_.push_back(epoch_no_);
    }
    const std::int64_t wall = to_ns(tick() - t0);
    if (traced) disarm_trace(wall);
    if (measured) {
      out_.samples += steps * cfg_.batch_per_rank;
      if (comm_.rank() == 0) {
        const double rate = static_cast<double>(steps * global_batch) /
                            (static_cast<double>(wall) * 1e-9);
        (traced ? tl_.rate_traced : tl_.rate_untraced).push_back(rate);
      }
    }
    ++epoch_no_;
    return stop;
  }

  /// Reads one sample through the mount and verifies it; returns its CRC
  /// (folded into the gradient so the read cannot be skipped).
  std::uint32_t sample(std::size_t idx, bool measured, bool traced) {
    const FileSpec& f = ds_.files[idx];
    const std::string& path = paths_[idx];
    ++attempted_;
    if (traced) thread_layers()->ncalls = 0;
    const std::int64_t t0 = tick();
    const int fd = posix_->open(path, posixfs::OpenMode::kRead);
    std::size_t total = 0;
    std::int64_t n = -1;
    if (fd >= 0) {
      while ((n = posix_->read(fd, MutByteView{buf_.data() + total, buf_.size() - total})) > 0) {
        total += static_cast<std::size_t>(n);
      }
      posix_->close(fd);
    }
    const std::int64_t t1 = tick();
    const std::uint32_t crc = crc32c(ByteView{buf_.data(), total});
    if (traced) {
      acc_.verify += to_ns(tick() - t1);
      account(to_ns(t1 - t0), /*ckpt=*/false);
    } else if (measured) {
      out_.sample_ns.record(static_cast<std::size_t>(to_ns(t1 - window_start_) / 1000000000),
                            static_cast<std::uint64_t>(to_ns(t1 - t0)));
    }
    if (fd < 0) {
      report_.fail("open " + path + " rc=" + std::to_string(fd));
      return 0;
    }
    if (measured) ++out_.read_opens;
    if (n < 0 || total != f.size || crc != f.crc) report_.fail("verify " + path);
    return crc;
  }

  /// Splits a traced sequence of Interceptor calls (one sample, or one
  /// checkpoint shard), `outer_ns` long, into layers. The fs shim recorded
  /// each call's FanStoreFs time with the backend and spill time inside
  /// it; the rest of `outer_ns` is posixfs dispatch. Fetch and decode only
  /// happen inside a read-mode open, so their growth goes to the first call.
  void account(std::int64_t outer_ns, bool ckpt) {
    const ThreadLayers& tl = *thread_layers();
    const std::int64_t fetch = hist_growth_ns(*fetch_hist_, fetch_seen_);
    const std::int64_t decode = hist_growth_ns(*decode_hist_, decode_seen_);
    std::int64_t inner_sum = 0;
    for (int i = 0; i < tl.ncalls; ++i) {
      const ThreadLayers::Call& c = tl.calls[static_cast<std::size_t>(i)];
      const std::int64_t below = i == 0 ? fetch + decode : 0;
      const std::int64_t self = self_time(c.ns, {c.backend_ns, c.spill_ns, below});
      inner_sum += c.ns;
      acc_.fs += self;
      acc_.backend += c.backend_ns;
      acc_.spill += c.spill_ns;
      if (ckpt) continue;
      const auto ns = static_cast<std::uint64_t>(c.ns);
      if (i == 0) {
        out_.open_ns.record(ns);
        out_.open_self_ns.record(static_cast<std::uint64_t>(std::max<std::int64_t>(self, 0)));
      } else if (i + 1 == tl.ncalls) {
        out_.close_ns.record(ns);
      } else {
        out_.read_ns.record(ns);
      }
    }
    acc_.fetch += fetch;
    acc_.decode += decode;
    const std::int64_t dispatch = outer_ns - inner_sum;
    acc_.posixfs += dispatch;
    if (!ckpt && tl.ncalls > 0) {
      out_.dispatch_ns.record(static_cast<std::uint64_t>(std::max<std::int64_t>(dispatch, 0)) /
                              static_cast<std::uint64_t>(tl.ncalls));
    }
  }

  /// Time (ns) a per-rank latency histogram gained since `seen`: only this
  /// rank thread records fs.fetch_us and chunked.decode_us, so the growth
  /// belongs to the calls just made. Snapshots only when the count moved.
  struct Seen {
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
  };
  static std::int64_t hist_growth_ns(const obs::Histogram& h, Seen& seen) {
    if (h.count() == seen.count) return 0;
    const obs::HistogramSnapshot s = h.snapshot();
    const std::uint64_t grown = s.sum - seen.sum_us;
    seen = Seen{s.count, s.sum};
    return static_cast<std::int64_t>(grown) * 1000;
  }

  void arm_trace(ThreadLayers& layers) {
    thread_layers() = &layers;
    fetch_hist_ = &inst_->metrics().histogram("fs.fetch_us");
    decode_hist_ = &inst_->metrics().histogram("chunked.decode_us");
    const auto f = fetch_hist_->snapshot();
    const auto d = decode_hist_->snapshot();
    fetch_seen_ = Seen{f.count, f.sum};
    decode_seen_ = Seen{d.count, d.sum};
    acc_ = LayerAcc{};
  }

  void disarm_trace(std::int64_t wall) {
    thread_layers() = nullptr;
    Attribution& a = out_.attr;
    a.add("plan", acc_.plan);
    a.add("posixfs", acc_.posixfs);
    a.add("fs", acc_.fs);
    a.add("backend", acc_.backend);
    a.add("spill", acc_.spill);
    a.add("fetch", acc_.fetch);
    a.add("decode", acc_.decode);
    a.add("mpi_sync", acc_.sync);
    a.add("verify", acc_.verify);
    a.add_wall(wall);
  }

  static std::uint64_t ckpt_seed(int round, int rank) {
    return 0xC4EC000000ull + static_cast<std::uint64_t>(round) * 64 +
           static_cast<std::uint64_t>(rank);
  }
  static std::string ckpt_path(int round, int rank) {
    return "fs/ckpt/r" + std::to_string(round) + "/shard" + std::to_string(rank) + ".bin";
  }

  /// Writes this rank's shard of checkpoint `round`; returns seconds from
  /// open to close. The close's FanStoreFs time feeds fs.ckpt_close_us.
  double checkpoint_shard(int round, const Bytes& data, bool traced) {
    const std::string path = ckpt_path(round, comm_.rank());
    ThreadLayers own;
    ThreadLayers* const armed = thread_layers();
    if (armed == nullptr) thread_layers() = &own;
    thread_layers()->ncalls = 0;
    ++attempted_;
    const std::int64_t t0 = tick();
    const int fd = posix_->open(path, posixfs::OpenMode::kWrite);
    std::int64_t w = -1;
    int rc = -1;
    if (fd >= 0) {
      w = posix_->write(fd, as_view(data));
      rc = posix_->close(fd);
    }
    const std::int64_t ns = to_ns(tick() - t0);
    const ThreadLayers& tl = *thread_layers();
    if (tl.ncalls == 3) out_.ckpt_close_ns.record(static_cast<std::uint64_t>(tl.calls[2].ns));
    if (traced) account(ns, /*ckpt=*/true);
    thread_layers() = armed;
    if (fd < 0 || w != static_cast<std::int64_t>(data.size()) || rc != 0) {
      report_.fail("checkpoint write " + path);
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Reads back every checkpoint shard from a rank other than its writer,
  /// which is a remote fetch, and verifies it against the bytes the writer
  /// generated. Sharded metadata lets any rank resolve the path, so the
  /// next rank reads; with replicated metadata only the writer and the
  /// path's home rank know it, so the home rank reads (the writer itself
  /// when it is the home rank).
  void read_back_checkpoints() {
    for (const int round : ckpt_rounds_) {
      for (int writer = 0; writer < kRanks; ++writer) {
        const std::string path = ckpt_path(round, writer);
        const int reader = cfg_.opts.cluster.replication_factor > 0
                               ? (writer + 1) % kRanks
                               : inst_->fs().home_rank(path.substr(3));
        if (reader != comm_.rank()) continue;
        const Bytes want = make_bytes(ckpt_seed(round, writer), kCkptBytes);
        ++attempted_;
        const auto got = posixfs::read_file(*posix_, path);
        if (got) ++out_.read_opens;
        if (!got || got->size() != want.size() ||
            crc32c(as_view(*got)) != crc32c(as_view(want))) {
          report_.fail("checkpoint read-back " + path);
        }
      }
    }
  }

  mpi::Comm& comm_;
  const TrainConfig& cfg_;
  Dataset& ds_;
  const Args& args_;
  RankOut& out_;
  Timeline& tl_;
  Report& report_;
  simnet::VirtualClock clock_;
  posixfs::MemVfs local_disk_;  // the node-local SSD behind the backend
  posixfs::MemVfs spill_disk_;  // the spill tier's device
  TimedVfs backend_shim_;
  TimedVfs spill_shim_;
  std::unique_ptr<Instance> inst_;
  std::unique_ptr<TimedVfs> fs_shim_;
  std::unique_ptr<posixfs::Interceptor> posix_;
  std::vector<std::string> paths_;  // "fs/" + dataset path, by file index
  Bytes buf_;
  Rng shuffle_rng_;  // same seed on every rank: one global order
  int epoch_no_ = 0;
  int measured_ = 0;
  std::int64_t window_start_ = 0;
  std::int64_t last_ckpt_ = 0;  // rank 0: when the last checkpoint began
  obs::MetricsSnapshot mpi0_;
  LayerAcc acc_;
  const obs::Histogram* fetch_hist_ = nullptr;
  const obs::Histogram* decode_hist_ = nullptr;
  Seen fetch_seen_, decode_seen_;
  std::vector<int> ckpt_rounds_;  // every checkpoint written, for read-back
  std::uint64_t attempted_ = 0;   // ops tried; added to the report at the end
};

TrainConfig make_config(bool cold, std::uint64_t seed, Dataset& ds) {
  TrainConfig cfg;
  cfg.cold = cold;
  DatasetOptions d;
  d.seed = seed;
  Instance::Options& o = cfg.opts;
  o.fs.cost.enabled = true;  // charges the virtual clock for model.vepoch_s
  if (!cold) {
    const std::size_t files = 2048;
    cfg.batch_per_rank = 256;
    cfg.ckpt_every_s = 1.0;
    d.sizes = stratified_sizes(files, seed, [](double u) { return 6144 + 4096 * u; });
    d.kinds.assign(files, static_cast<int>(dlsim::DatasetKind::kTokamakNpz));
    d.codec = "lz4";
  } else {
    const std::size_t files = 512;
    cfg.batch_per_rank = 16;
    cfg.warmup_epochs = 3;
    d.sizes = stratified_sizes(files, seed, [](double u) { return 65536 * (1 + u); });
    d.kinds.assign(files, static_cast<int>(dlsim::DatasetKind::kEmTif));
    d.codec = "lz4";
    d.chunk_size = 16 * 1024;
    o.cluster.replication_factor = 2;
  }
  build_dataset(d, ds);
  if (!cold) {
    // Room for the whole dataset plus per-entry bookkeeping: every
    // steady-state open is a plain-tier hit.
    o.fs.cache_bytes = ds.raw_bytes * 2 + (8u << 20);
  } else {
    o.fs.cache_bytes = ds.raw_bytes / 8;
    o.fs.compressed_cache_bytes = ds.raw_bytes / 8;
    o.fs.spill_bytes = ds.raw_bytes / 8;
  }
  return cfg;
}

std::uint64_t delta(const std::vector<RankOut>& outs, const std::string& name,
                    obs::MetricsSnapshot RankOut::*to, obs::MetricsSnapshot RankOut::*from) {
  std::uint64_t sum = 0;
  for (const RankOut& o : outs) sum += (o.*to).counter(name) - (o.*from).counter(name);
  return sum;
}

obs::HistogramSnapshot window_hist(const std::vector<RankOut>& outs, const std::string& name) {
  obs::HistogramSnapshot sum;
  for (const RankOut& o : outs) hist_add(sum, hist_between(o.s1, o.s0, name));
  return sum;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

void run_train(const Args& args, bool cold, Report& report) {
  Dataset ds;
  const TrainConfig cfg = make_config(cold, args.seed, ds);
  std::printf("dataset: %zu files, %.1f MiB raw, ratio %.2f, %d ranks, batch %zu/rank\n",
              ds.files.size(), static_cast<double>(ds.raw_bytes) / (1 << 20),
              ds.manifest.ratio(), kRanks, cfg.batch_per_rank);

  // Hand the generator's freed memory back, so peak_rss_mib follows the
  // running system rather than allocator leftovers (here and per setup).
  malloc_trim(0);
  std::vector<RankOut> outs(kRanks);
  Timeline tl;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    mpi::run_world(kRanks, [&](mpi::Comm& comm) {
      Rank r(comm, cfg, ds, args, outs[static_cast<std::size_t>(comm.rank())], tl, report);
      r.setup(args.trace, rep);
      r.teardown();
    });
    malloc_trim(0);
  }
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Rank r(comm, cfg, ds, args, outs[static_cast<std::size_t>(comm.rank())], tl, report);
    r.setup(args.trace, kSetupReps - 1);
    r.run();
    r.teardown();
  });

  // --- Counter cross-checks (every run) ---
  using S = obs::MetricsSnapshot RankOut::*;
  const S s0 = &RankOut::s0, s1 = &RankOut::s1, s2 = &RankOut::s2;
  for (std::size_t r = 0; r < outs.size(); ++r) {
    report.check_equal("rank " + std::to_string(r) + " fs.opens == benchmark read opens",
                       outs[r].s2.counter("fs.opens") - outs[r].s0.counter("fs.opens"),
                       outs[r].read_opens);
    if (cold) {
      const auto& m = outs[r].s2;
      report.check_equal("rank " + std::to_string(r) +
                             " cache.misses == compressed + spill + peer + cold",
                         m.counter("cache.misses"),
                         m.counter("tier.compressed.hits") + m.counter("tier.spill.hits") +
                             m.counter("tier.peer.hits") + m.counter("tier.cold.loads"));
      report.check_equal("rank " + std::to_string(r) + " tier.plain.hits == cache.hits",
                         m.counter("tier.plain.hits"), m.counter("cache.hits"));
    }
  }
  report.check_equal("daemon.fetches_served == fs.remote_fetches",
                     delta(outs, "daemon.fetches_served", s2, s0),
                     delta(outs, "fs.remote_fetches", s2, s0));

  // --- End-to-end (untraced epochs only) ---
  SlicedHist sample_slices, stat_slices;
  for (const RankOut& o : outs) {
    sample_slices.merge(o.sample_ns);
    stat_slices.merge(o.stat_ns);
  }
  const LatHist sample = sample_slices.total();
  const LatHist stat = stat_slices.total();
  report.set("samples_per_s", median(tl.rate_untraced));
  report.set("sample_p50_us", sample_slices.median_of(50) / 1e3);
  report.set("sample_p90_us", sample_slices.median_of(90) / 1e3);
  report.set("meta_p90_us", stat_slices.median_of(90) / 1e3);
  report.set("ckpt_write_s", median(tl.ckpt_s));
  report.set("setup_s", median(tl.setup_s));
  report.set("peak_rss_mib", peak_rss_mib());
  if (!args.trace) Report::print_timing("sample", sample);
  Report::print_timing("meta.stat", stat);
  Report::print_timing("checkpoint", tl.ckpt_s);
  Report::print_timing("setup", tl.setup_s);
  std::printf("epochs measured: %d, checkpoints timed: %zu, setups: %zu\n", tl.epochs,
              tl.ckpt_s.size(), tl.setup_s.size());

  // --- Per-layer (window counters, traced-epoch spans) ---
  const double opens = static_cast<double>(delta(outs, "fs.opens", s1, s0));
  const double samples = [&] {
    double n = 0;
    for (const RankOut& o : outs) n += static_cast<double>(o.samples);
    return n;
  }();
  const double hits = static_cast<double>(delta(outs, "cache.hits", s1, s0));
  const double misses = static_cast<double>(delta(outs, "cache.misses", s1, s0));
  report.set("cache.plain_hit_ratio", ratio(hits, hits + misses));
  report.set("cache.evictions_per_open",
             ratio(static_cast<double>(delta(outs, "cache.evictions", s1, s0)), opens));
  const auto share = [&](const char* counter) {
    return ratio(static_cast<double>(delta(outs, counter, s1, s0)), opens);
  };
  report.set("tier.compressed.hit_share", share("tier.compressed.hits"));
  report.set("tier.spill.hit_share", share("tier.spill.hits"));
  report.set("tier.peer.hit_share", share("tier.peer.hits"));
  report.set("tier.cold.load_share", share("tier.cold.loads"));
  report.set("cluster.remote_lookups_per_open", share("cluster.lookups_remote"));
  report.set("tier.spill.write_amp",
             ratio(static_cast<double>(delta(outs, "tier.spill.bytes_written", s1, s0)),
                   static_cast<double>(delta(outs, "fs.bytes_read", s1, s0))));
  report.set("retry.attempts", static_cast<double>(delta(outs, "retry.attempts", s1, s0)));
  report.set("mpi.msgs_per_sample", ratio(static_cast<double>(tl.mpi_msgs), samples));
  report.set("mpi.bytes_per_sample", ratio(static_cast<double>(tl.mpi_bytes), samples));

  const auto us = [](const LatHist& h, double p) { return h.quantile(p) / 1e3; };
  const auto pick = [&](LatHist RankOut::*m) {
    LatHist h;
    for (const RankOut& o : outs) h.merge(o.*m);
    return h;
  };
  report.set("posixfs.dispatch_us.p50", us(pick(&RankOut::dispatch_ns), 50));
  const LatHist open = pick(&RankOut::open_ns);
  report.set("fs.open_us.p50", us(open, 50));
  report.set("fs.open_us.p99", us(open, 99));
  report.set("fs.open_self_us.p50", us(pick(&RankOut::open_self_ns), 50));
  report.set("fs.read_us.p50", us(pick(&RankOut::read_ns), 50));
  report.set("fs.close_us.p50", us(pick(&RankOut::close_ns), 50));
  report.set("fs.ckpt_close_us.p50", us(pick(&RankOut::ckpt_close_ns), 50));
  report.set("backend.read_us.p50", us(pick(&RankOut::backend_read_ns), 50));
  report.set("backend.write_us.p50", us(pick(&RankOut::backend_write_ns), 50));
  report.set("tier.spill.read_us.p50", us(pick(&RankOut::spill_read_ns), 50));
  report.set("tier.spill.write_us.p50", us(pick(&RankOut::spill_write_ns), 50));
  report.set("mpi.sync_us_per_step", us(pick(&RankOut::sync_ns), 50));

  const auto fetch = window_hist(outs, "fs.fetch_us");
  const auto serve = window_hist(outs, "daemon.serve_us");
  const auto decode = window_hist(outs, "chunked.decode_us");
  report.set("fetch.us.p50", hist_quantile(fetch, 50));
  report.set("fetch.us.p99", hist_quantile(fetch, 99));
  report.set("daemon.serve_us.p50", hist_quantile(serve, 50));
  report.set("fetch.wire_us.p50", fetch.count > 0 ? hist_quantile(fetch, 50) - hist_quantile(serve, 50) : 0.0);
  report.set("decode.us_per_open.p50", hist_quantile(decode, 50));
  report.set("decode.mib_per_s",
             ratio(static_cast<double>(delta(outs, "chunked.bytes_decoded", s1, s0)) / (1 << 20),
                   static_cast<double>(decode.sum) * 1e-6));
  report.set("meta.stat_us.p50", us(stat, 50));
  report.set("meta.stat_us.p99", us(stat, 99));
  report.set("setup.load_s", median(tl.load_s));
  report.set("setup.exchange_s", median(tl.exchange_s));
  report.set("setup.start_s", median(tl.start_s));
  report.set("setup.enumerate_s", median(tl.enumerate_s));
  double vepoch = 0;
  for (const RankOut& o : outs) vepoch = std::max(vepoch, o.vclock_window_s);
  report.set("model.vepoch_s", vepoch);

  if (args.trace) {
    Attribution all;
    double min_attr = 1.0;
    double max_rest = 0.0;
    for (std::size_t r = 0; r < outs.size(); ++r) {
      const Attribution& a = outs[r].attr;
      all.merge(a);
      min_attr = std::min(min_attr, a.frac(a.attributed()));
      max_rest = std::max(max_rest, a.frac(a.remainder()));
      std::printf("attribution rank %zu: wall %.3f s, attributed %.2f%%, unattributed %.2f%%\n",
                  r, static_cast<double>(a.wall()) * 1e-9, 100 * a.frac(a.attributed()),
                  100 * a.frac(a.remainder()));
    }
    for (const auto& [layer, ns] : all.layers()) {
      report.set("share." + layer, all.frac(ns));
      std::printf("  layer %-9s %7.3f s  %6.2f%%\n", layer.c_str(),
                  static_cast<double>(ns) * 1e-9, 100 * all.frac(ns));
    }
    std::printf("  %-15s %7.3f s  %6.2f%%\n", "unattributed",
                static_cast<double>(all.remainder()) * 1e-9, 100 * all.frac(all.remainder()));
    report.set("trace.attributed_frac", min_attr);
    report.set("trace.unattributed_frac", max_rest);
    const double untraced = median(tl.rate_untraced);
    const double traced = median(tl.rate_traced);
    report.set("trace.overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0.0);
    std::printf("trace overhead: traced %.1f vs untraced %.1f samples/s (median epochs)\n",
                traced, untraced);
  }

  std::printf("shares (seed %llu): plain_hit_ratio=%.4f compressed=%.4f spill=%.4f "
              "peer=%.4f cold=%.4f remote_lookups_per_open=%.4f\n",
              static_cast<unsigned long long>(args.seed), report.get("cache.plain_hit_ratio"),
              report.get("tier.compressed.hit_share"), report.get("tier.spill.hit_share"),
              report.get("tier.peer.hit_share"), report.get("tier.cold.load_share"),
              report.get("cluster.remote_lookups_per_open"));
  // The workload's intended shape; a change may move it, so it warns only.
  std::string shape;
  if (!cold && report.get("cache.plain_hit_ratio") < 0.99) shape += " plain_hit_ratio<0.99";
  if (cold) {
    for (const char* m : {"tier.compressed.hit_share", "tier.spill.hit_share",
                          "tier.peer.hit_share", "tier.cold.load_share"}) {
      if (report.get(m) < 0.05) shape += std::string(" ") + m + "<0.05";
    }
    if (report.get("cluster.remote_lookups_per_open") <= 0) shape += " no remote lookups";
  }
  std::printf("shape: %s\n", shape.empty() ? "as designed" : ("WARN" + shape).c_str());
}

}  // namespace perfbench
