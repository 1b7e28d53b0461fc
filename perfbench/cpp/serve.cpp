// serve_ipc: the socket front door. One Instance serves a warm, RAM-resident
// dataset through Options::serve_endpoints on a Unix socket; four client
// threads run a closed loop, each on its own ipc::UdsClientVfs connection,
// as training processes behind the LD_PRELOAD interceptor would (each waits
// for its reply). 7 of 8 requests are whole-file reads (kGet) of 4-256 KiB,
// mostly small; the rest are kStat and kList. The tiny metadata replies sit
// beside the large payloads, so a change that favours one request kind at
// the other's cost shows in samples_per_s or meta_p90_us.
//
// The traced run alternates untraced and traced time slices; in a traced
// slice each client also splits its time into round trips (ipc) and
// verification. Server-side numbers come from the Instance's "ipc.*"
// metrics.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "ipc/uds_client.hpp"
#include "posixfs/interceptor.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kSetupReps = 31;
constexpr auto kCkptEvery = std::chrono::seconds(1);
constexpr std::size_t kCkptBytes = 32 * 1024;
constexpr double kSliceS = 0.25;      // rate slices; traced and untraced alternate
constexpr std::size_t kLatencySlice = 4;  // rate slices per latency slice (1 s)

/// One client thread's results.
struct ClientOut {
  SlicedHist get_ns;   // untraced: kGet round trip + read to EOF + close
  SlicedHist meta_ns;  // untraced: kStat, or kList + readdir to the end
  LatHist rtt_ns;   // every round trip, traced slices
  std::vector<std::uint64_t> gets_per_slice;
  std::uint64_t round_trips = 0;
  std::uint64_t gets = 0;
  std::uint64_t attempted = 0;
  Attribution attr;  // traced slices
};

class Client {
 public:
  Client(const std::string& endpoint, const Dataset& ds, const Args& args, int id,
         ClientOut& out, Report& report)
      : vfs_(endpoint), ds_(ds), args_(args), out_(out), report_(report),
        rng_(args.seed * 1000003 + static_cast<std::uint64_t>(id)),
        buf_(ds.max_file) {
    for (const auto& [dir, n] : ds.dirs) dirs_.emplace_back(dir, n);
  }

  void run(std::int64_t start, const std::atomic<bool>& stop) {
    if (!vfs_.connect()) report_.fail("client connect");
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t t0 = tick();
      const auto slice = static_cast<std::size_t>(
          static_cast<double>(to_ns(t0 - start)) * 1e-9 / kSliceS);
      const bool traced = args_.trace && slice % 2 == 1;
      const std::uint64_t pick = rng_.next_below(16);
      std::int64_t rtt = 0;
      std::int64_t verify = 0;
      if (pick == 0) {
        rtt = stat_one(slice / kLatencySlice, traced);
      } else if (pick == 1) {
        rtt = list_one(slice / kLatencySlice, traced);
      } else {
        rtt = get_one(slice / kLatencySlice, traced, &verify);
        if (out_.gets_per_slice.size() <= slice) out_.gets_per_slice.resize(slice + 1, 0);
        ++out_.gets_per_slice[slice];
      }
      if (traced) {
        const std::int64_t wall = to_ns(tick() - t0);
        out_.attr.add("ipc", rtt);
        out_.attr.add("verify", verify);
        out_.attr.add_wall(wall);
      }
    }
    report_.attempt(out_.attempted);
  }

 private:
  /// kGet: open (the round trip), read to EOF and close (client-local),
  /// then a CRC check. Returns the ipc time for attribution.
  std::int64_t get_one(std::size_t slice, bool traced, std::int64_t* verify_ns) {
    const FileSpec& f = ds_.files[rng_.next_below(ds_.files.size())];
    ++out_.attempted;
    const std::int64_t t0 = tick();
    const int fd = vfs_.open(f.path, posixfs::OpenMode::kRead);
    const std::int64_t t1 = tick();
    std::size_t total = 0;
    std::int64_t n = -1;
    if (fd >= 0) {
      while ((n = vfs_.read(fd, MutByteView{buf_.data() + total, buf_.size() - total})) > 0) {
        total += static_cast<std::size_t>(n);
      }
      vfs_.close(fd);
    }
    const std::int64_t t2 = tick();
    ++out_.round_trips;
    ++out_.gets;
    const bool ok = fd >= 0 && n == 0 && total == f.size &&
                    crc32c(ByteView{buf_.data(), total}) == f.crc;
    if (traced) {
      out_.rtt_ns.record(static_cast<std::uint64_t>(to_ns(t1 - t0)));
      *verify_ns = to_ns(tick() - t2);
    } else {
      out_.get_ns.record(slice, static_cast<std::uint64_t>(to_ns(t2 - t0)));
    }
    if (!ok) report_.fail("get " + f.path);
    return to_ns(t2 - t0);
  }

  std::int64_t stat_one(std::size_t slice, bool traced) {
    const FileSpec& f = ds_.files[rng_.next_below(ds_.files.size())];
    ++out_.attempted;
    format::FileStat st;
    const std::int64_t t0 = tick();
    const int rc = vfs_.stat(f.path, &st);
    const std::int64_t ns = to_ns(tick() - t0);
    ++out_.round_trips;
    record_meta(slice, traced, ns);
    if (rc != 0 || st.size != f.size || st.type != format::FileType::kRegular) {
      report_.fail("stat " + f.path);
    }
    return ns;
  }

  std::int64_t list_one(std::size_t slice, bool traced) {
    const auto& [dir, count] = dirs_[rng_.next_below(dirs_.size())];
    ++out_.attempted;
    const std::int64_t t0 = tick();
    const int h = vfs_.opendir(dir);
    std::size_t seen = 0;
    if (h >= 0) {
      while (vfs_.readdir(h)) ++seen;
      vfs_.closedir(h);
    }
    const std::int64_t ns = to_ns(tick() - t0);
    ++out_.round_trips;
    record_meta(slice, traced, ns);
    if (h < 0 || seen != count) report_.fail("list " + dir);
    return ns;
  }

  void record_meta(std::size_t slice, bool traced, std::int64_t ns) {
    if (traced) {
      out_.rtt_ns.record(static_cast<std::uint64_t>(ns));
    } else {
      out_.meta_ns.record(slice, static_cast<std::uint64_t>(ns));
    }
  }

  ipc::UdsClientVfs vfs_;
  const Dataset& ds_;
  const Args& args_;
  ClientOut& out_;
  Report& report_;
  Rng rng_;
  std::vector<std::pair<std::string, std::size_t>> dirs_;
  Bytes buf_;
};

std::uint64_t ckpt_seed(int k) { return 0xC4EC0000ull + static_cast<std::uint64_t>(k); }
std::string ckpt_path(int k) { return "ckpt/r" + std::to_string(k) + "/shard0.bin"; }

struct ServeTimeline {
  std::vector<double> setup_s, load_s, exchange_s, start_s, enumerate_s, ckpt_s;
  LatHist stat_ns;  // in-process enumeration stats
  obs::MetricsSnapshot s0, s1, s2;
  std::uint64_t extra_opens = 0;  // warm-up excluded; read-backs via the socket
};

/// Construction through enumeration of the one serving Instance.
std::unique_ptr<core::Instance> setup(mpi::Comm& comm, Dataset& ds,
                                      const core::Instance::Options& base,
                                      const std::string& endpoint, posixfs::MemVfs& disk,
                                      bool traced, ServeTimeline& tl, Report& report,
                                      std::unique_ptr<posixfs::Interceptor>& posix) {
  const std::int64_t t0 = tick();
  std::int64_t mark = t0;
  const auto phase = [&](std::vector<double>& into) {
    if (!traced) return;
    const std::int64_t now = tick();
    into.push_back(static_cast<double>(to_ns(now - mark)) * 1e-9);
    mark = now;
  };
  core::Instance::Options o = base;
  o.local_fs = &disk;
  o.serve_endpoints = {"unix:" + endpoint};
  auto inst = std::make_unique<core::Instance>(comm, o);
  inst->load_from_shared(ds.shared, ds.manifest.partition_paths());
  phase(tl.load_s);
  inst->exchange_metadata();
  phase(tl.exchange_s);
  inst->start_daemon();
  phase(tl.start_s);
  posix = std::make_unique<posixfs::Interceptor>();
  posix->mount("fs", &inst->fs());
  std::size_t seen = 0;
  for (const auto& [dir, count] : ds.dirs) {
    report.attempt();
    const int h = posix->opendir("fs/" + dir);
    if (h < 0) {
      report.fail("opendir " + dir);
      continue;
    }
    while (auto e = posix->readdir(h)) {
      format::FileStat st;
      report.attempt();
      const std::int64_t s0 = tick();
      const int rc = posix->stat("fs/" + dir + "/" + e->name, &st);
      tl.stat_ns.record(static_cast<std::uint64_t>(to_ns(tick() - s0)));
      if (rc != 0) report.fail("stat " + dir + "/" + e->name);
      ++seen;
    }
    posix->closedir(h);
  }
  if (seen != ds.files.size()) report.fail("enumeration saw the wrong file count");
  phase(tl.enumerate_s);
  tl.setup_s.push_back(static_cast<double>(to_ns(tick() - t0)) * 1e-9);
  return inst;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  Dataset ds;
  {
    DatasetOptions d;
    d.seed = args.seed;
    static const int kKinds[] = {static_cast<int>(dlsim::DatasetKind::kTokamakNpz),
                                 static_cast<int>(dlsim::DatasetKind::kEmTif),
                                 static_cast<int>(dlsim::DatasetKind::kLanguageTxt),
                                 static_cast<int>(dlsim::DatasetKind::kAstroFits)};
    // 4 KiB * 64^(u^2): from 4 KiB to 256 KiB, median about 11 KiB.
    d.sizes = stratified_sizes(512, args.seed,
                               [](double u) { return 4096.0 * std::pow(64.0, u * u); });
    for (std::size_t i = 0; i < d.sizes.size(); ++i) d.kinds.push_back(kKinds[i % 4]);
    d.codec = "lz4";
    d.partitions = 1;
    build_dataset(d, ds);
  }
  std::printf("dataset: %zu files, %.1f MiB raw, ratio %.2f, %d clients\n", ds.files.size(),
              static_cast<double>(ds.raw_bytes) / (1 << 20), ds.manifest.ratio(), kClients);

  malloc_trim(0);  // as in run_train: peak_rss_mib follows the running system
  std::filesystem::create_directories(args.socket_dir);
  core::Instance::Options base;
  base.fs.cache_bytes = ds.raw_bytes * 2 + (16u << 20);
  ServeTimeline tl;
  std::vector<ClientOut> outs(kClients);
  std::vector<double> rate_untraced, rate_traced;
  std::uint64_t window_gets = 0;

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    const std::string endpoint = args.socket_dir + "/ipc-" + std::to_string(::getpid()) + "-" +
                                 std::to_string(rep) + ".sock";
    mpi::run_world(1, [&](mpi::Comm& comm) {
      posixfs::MemVfs disk;
      std::unique_ptr<posixfs::Interceptor> posix;
      auto inst = setup(comm, ds, base, endpoint, disk, args.trace, tl, report, posix);
      if (!last) {
        inst->stop();
        inst.reset();
        malloc_trim(0);
        return;
      }
      // Warm: every file once through the in-process mount, so the served
      // dataset is RAM-resident in the plain tier.
      for (const FileSpec& f : ds.files) {
        report.attempt();
        const auto got = posixfs::read_file(*posix, "fs/" + f.path);
        if (!got || got->size() != f.size || crc32c(as_view(*got)) != f.crc) {
          report.fail("warm " + f.path);
        }
      }
      tl.s0 = inst->metrics().snapshot();

      std::atomic<bool> stop{false};
      std::vector<std::unique_ptr<Client>> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<Client>(endpoint, ds, args, c,
                                                   outs[static_cast<std::size_t>(c)], report));
      }
      const std::int64_t start = tick();
      std::vector<std::thread> threads;
      for (auto& c : clients) threads.emplace_back([&, cl = c.get()] { cl->run(start, stop); });
      // A trainer beside the daemon writes a checkpoint shard every second
      // through the in-process mount while the clients are served.
      const auto t_start = std::chrono::steady_clock::now();
      const auto t_end = t_start + std::chrono::duration<double>(args.seconds);
      int shards = 0;
      for (auto next = t_start + kCkptEvery; next < t_end; next += kCkptEvery) {
        std::this_thread::sleep_until(next);
        const Bytes data = make_bytes(ckpt_seed(shards), kCkptBytes);
        report.attempt();
        const std::int64_t t0 = tick();
        const int rc = posixfs::write_file(*posix, "fs/" + ckpt_path(shards), as_view(data));
        tl.ckpt_s.push_back(static_cast<double>(to_ns(tick() - t0)) * 1e-9);
        if (rc != 0) report.fail("checkpoint write " + ckpt_path(shards));
        ++shards;
      }
      std::this_thread::sleep_until(t_end);
      stop = true;
      for (auto& t : threads) t.join();
      tl.s1 = inst->metrics().snapshot();

      // Completed slices only (the last one was cut by the stop flag).
      std::size_t slices = 0;
      for (const ClientOut& o : outs) slices = std::max(slices, o.gets_per_slice.size());
      for (std::size_t s = 0; s + 1 < slices; ++s) {
        std::uint64_t n = 0;
        for (const ClientOut& o : outs) n += s < o.gets_per_slice.size() ? o.gets_per_slice[s] : 0;
        (args.trace && s % 2 == 1 ? rate_traced : rate_untraced)
            .push_back(static_cast<double>(n) / kSliceS);
      }
      for (const ClientOut& o : outs) window_gets += o.gets;

      // Every checkpoint shard read back through the socket.
      ipc::UdsClientVfs reader(endpoint);
      for (int k = 0; k < shards; ++k) {
        const Bytes want = make_bytes(ckpt_seed(k), kCkptBytes);
        report.attempt();
        const auto got = posixfs::read_file(reader, ckpt_path(k));
        if (got) ++tl.extra_opens;
        if (!got || got->size() != want.size() ||
            crc32c(as_view(*got)) != crc32c(as_view(want))) {
          report.fail("checkpoint read-back " + ckpt_path(k));
        }
      }
      tl.s2 = inst->metrics().snapshot();
      inst->stop();
    });
  }

  // --- Counter cross-checks ---
  std::uint64_t round_trips = 0;
  for (const ClientOut& o : outs) round_trips += o.round_trips;
  report.check_equal("ipc.requests == client round trips",
                     tl.s1.counter("ipc.requests") - tl.s0.counter("ipc.requests"), round_trips);
  report.check_equal("fs.opens == kGet replies + checkpoint read-backs",
                     tl.s2.counter("fs.opens") - tl.s0.counter("fs.opens"),
                     window_gets + tl.extra_opens);

  // --- End-to-end (untraced slices) ---
  SlicedHist get, meta;
  LatHist rtt;
  Attribution attr;
  for (const ClientOut& o : outs) {
    get.merge(o.get_ns);
    meta.merge(o.meta_ns);
    rtt.merge(o.rtt_ns);
    attr.merge(o.attr);
  }
  report.set("samples_per_s", median(rate_untraced));
  report.set("sample_p50_us", get.median_of(50) / 1e3);
  report.set("sample_p90_us", get.median_of(90) / 1e3);
  report.set("meta_p90_us", meta.median_of(90) / 1e3);
  report.set("ckpt_write_s", median(tl.ckpt_s));
  report.set("setup_s", median(tl.setup_s));
  report.set("peak_rss_mib", peak_rss_mib());
  if (!args.trace) {
    Report::print_timing("sample (kGet)", get.total());
    Report::print_timing("meta (kStat/kList)", meta.total());
  }
  Report::print_timing("meta.stat (enumeration)", tl.stat_ns);
  Report::print_timing("checkpoint", tl.ckpt_s);
  Report::print_timing("setup", tl.setup_s);

  // --- Per-layer ---
  const auto serve = hist_between(tl.s1, tl.s0, "ipc.serve_us");
  const auto wait = hist_between(tl.s1, tl.s0, "ipc.blocker_wait_us");
  const double requests =
      static_cast<double>(tl.s1.counter("ipc.requests") - tl.s0.counter("ipc.requests"));
  report.set("ipc.serve_us.p50", hist_quantile(serve, 50));
  report.set("ipc.blocker_wait_us.p50", hist_quantile(wait, 50));
  report.set("ipc.blocker_wait_us.p99", hist_quantile(wait, 99));
  report.set("ipc.loop_wakeups_per_req",
             requests > 0 ? static_cast<double>(tl.s1.counter("ipc.loop_wakeups") -
                                                tl.s0.counter("ipc.loop_wakeups")) /
                                requests
                          : 0.0);
  report.set("meta.stat_us.p50", tl.stat_ns.quantile(50) / 1e3);
  report.set("meta.stat_us.p99", tl.stat_ns.quantile(99) / 1e3);
  report.set("setup.load_s", median(tl.load_s));
  report.set("setup.exchange_s", median(tl.exchange_s));
  report.set("setup.start_s", median(tl.start_s));
  report.set("setup.enumerate_s", median(tl.enumerate_s));
  report.set("cache.plain_hit_ratio", [&] {
    const double h = static_cast<double>(tl.s1.counter("cache.hits") - tl.s0.counter("cache.hits"));
    const double m = static_cast<double>(tl.s1.counter("cache.misses") - tl.s0.counter("cache.misses"));
    return h + m > 0 ? h / (h + m) : 0.0;
  }());
  if (args.trace) {
    report.set("ipc.transport_us.p50", rtt.quantile(50) / 1e3 - hist_quantile(serve, 50));
    for (const auto& [layer, ns] : attr.layers()) report.set("share." + layer, attr.frac(ns));
    report.set("trace.attributed_frac", attr.frac(attr.attributed()));
    report.set("trace.unattributed_frac", attr.frac(attr.remainder()));
    const double untraced = median(rate_untraced);
    report.set("trace.overhead_frac",
               untraced > 0 ? 1.0 - median(rate_traced) / untraced : 0.0);
    std::printf("attribution (client threads): ipc %.2f%%, verify %.2f%%, unattributed %.2f%%\n",
                100 * attr.frac(attr.layer("ipc")), 100 * attr.frac(attr.layer("verify")),
                100 * attr.frac(attr.remainder()));
  }
  std::printf("shares (seed %llu): plain_hit_ratio=%.4f kGet=%llu of %llu round trips\n",
              static_cast<unsigned long long>(args.seed), report.get("cache.plain_hit_ratio"),
              static_cast<unsigned long long>(window_gets),
              static_cast<unsigned long long>(round_trips));
}

}  // namespace perfbench
