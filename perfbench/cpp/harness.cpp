#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "dlsim/datagen.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else if (flag == "--socket-dir") {
      a.socket_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// --- Clock -----------------------------------------------------------------

namespace {
double g_ns_per_tick = 1.0;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::int64_t tick() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return steady_ns();
#endif
}

std::int64_t to_ns(std::int64_t ticks) {
  return static_cast<std::int64_t>(static_cast<double>(ticks) * g_ns_per_tick);
}

void calibrate_ticks() {
#if defined(__x86_64__)
  const std::int64_t n0 = steady_ns();
  const std::int64_t t0 = tick();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::int64_t n1 = steady_ns();
  const std::int64_t t1 = tick();
  g_ns_per_tick = static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
#endif
}

double seconds_since(std::int64_t start_tick) {
  return static_cast<double>(to_ns(tick() - start_tick)) * 1e-9;
}

// --- Data ------------------------------------------------------------------

Bytes make_bytes(std::uint64_t seed, std::size_t n) {
  Bytes out(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < n; i += 8) {
    x += 0x9E3779B97F4A7C15ull;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, std::min<std::size_t>(8, n - i));
  }
  return out;
}

// --- Timing shims -------------------------------------------------------------

ThreadLayers*& thread_layers() {
  thread_local ThreadLayers* layers = nullptr;
  return layers;
}

template <class F>
auto TimedVfs::timed(Kind kind, F&& f) {
  ThreadLayers* tl = thread_layers();
  // The fs shim exists only to split the traced run's time; off the traced
  // epochs it forwards untimed so the end-to-end run pays nothing for it.
  if (role_ == Role::kFs && tl == nullptr) return f();
  const std::int64_t b0 = tl != nullptr ? tl->backend_ns : 0;
  const std::int64_t s0 = tl != nullptr ? tl->spill_ns : 0;
  const std::int64_t t0 = tick();
  auto r = f();
  const std::int64_t ns = to_ns(tick() - t0);
  if (tl != nullptr) {
    switch (role_) {
      case Role::kFs:
        if (tl->ncalls < static_cast<int>(tl->calls.size())) {
          tl->calls[static_cast<std::size_t>(tl->ncalls++)] =
              ThreadLayers::Call{ns, tl->backend_ns - b0, tl->spill_ns - s0};
        }
        break;
      case Role::kBackend: tl->backend_ns += ns; break;
      case Role::kSpill: tl->spill_ns += ns; break;
    }
  }
  if (role_ != Role::kFs && kind != Kind::kOther &&
      recording().load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(mu_);
    (kind == Kind::kRead ? read_ns_ : write_ns_).record(static_cast<std::uint64_t>(ns));
  }
  return r;
}

int TimedVfs::open(std::string_view path, posixfs::OpenMode mode) {
  return timed(Kind::kOther, [&] { return inner_->open(path, mode); });
}
int TimedVfs::close(int fd) {
  return timed(Kind::kOther, [&] { return inner_->close(fd); });
}
std::int64_t TimedVfs::read(int fd, MutByteView buf) {
  return timed(Kind::kRead, [&] { return inner_->read(fd, buf); });
}
std::int64_t TimedVfs::pread(int fd, MutByteView buf, std::uint64_t offset) {
  return timed(Kind::kRead, [&] { return inner_->pread(fd, buf, offset); });
}
std::int64_t TimedVfs::write(int fd, ByteView buf) {
  return timed(Kind::kWrite, [&] { return inner_->write(fd, buf); });
}
std::int64_t TimedVfs::lseek(int fd, std::int64_t offset, posixfs::Whence whence) {
  return timed(Kind::kOther, [&] { return inner_->lseek(fd, offset, whence); });
}
int TimedVfs::stat(std::string_view path, format::FileStat* out) {
  return timed(Kind::kOther, [&] { return inner_->stat(path, out); });
}
int TimedVfs::opendir(std::string_view path) {
  return timed(Kind::kOther, [&] { return inner_->opendir(path); });
}
std::optional<posixfs::Dirent> TimedVfs::readdir(int dir_handle) {
  return timed(Kind::kOther, [&] { return inner_->readdir(dir_handle); });
}
int TimedVfs::closedir(int dir_handle) {
  return timed(Kind::kOther, [&] { return inner_->closedir(dir_handle); });
}

std::atomic<bool>& TimedVfs::recording() {
  static std::atomic<bool> on{false};
  return on;
}

LatHist TimedVfs::read_hist() const {
  std::lock_guard<std::mutex> lk(mu_);
  return read_ns_;
}
LatHist TimedVfs::write_hist() const {
  std::lock_guard<std::mutex> lk(mu_);
  return write_ns_;
}

// --- Dataset -----------------------------------------------------------------

std::vector<std::size_t> stratified_sizes(std::size_t n, std::uint64_t seed,
                                          double (*inv_cdf)(double)) {
  std::vector<std::size_t> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    sizes[k] = static_cast<std::size_t>(inv_cdf((static_cast<double>(k) + 0.5) /
                                                static_cast<double>(n)));
  }
  Rng rng(seed ^ 0x517Eull);
  for (std::size_t i = n; i > 1; --i) std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  return sizes;
}

void build_dataset(const DatasetOptions& opt, Dataset& ds) {
  static const char* const kExt[] = {"tif", "npz", "nii", "fits", "jpg", "txt"};
  posixfs::MemVfs source;
  for (std::size_t i = 0; i < opt.sizes.size(); ++i) {
    const auto kind = static_cast<dlsim::DatasetKind>(opt.kinds[i]);
    char name[64];
    std::snprintf(name, sizeof(name), "data/d%02zu/s%06zu.%s",
                  i % static_cast<std::size_t>(opt.dirs), i, kExt[opt.kinds[i]]);
    const Bytes bytes = dlsim::generate_file_sized(kind, i, opt.sizes[i], opt.seed);
    if (posixfs::write_file(source, name, as_view(bytes)) != 0) {
      throw std::runtime_error(std::string("dataset: cannot write ") + name);
    }
    ds.files.push_back(FileSpec{name, bytes.size(), crc32c(as_view(bytes))});
    ds.dirs[std::string(name, std::strrchr(name, '/'))]++;
    ds.raw_bytes += bytes.size();
    ds.max_file = std::max(ds.max_file, bytes.size());
  }
  std::sort(ds.files.begin(), ds.files.end(),
            [](const FileSpec& a, const FileSpec& b) { return a.path < b.path; });
  prep::PrepOptions po;
  po.num_partitions = opt.partitions;
  po.compressor = opt.codec;
  po.chunk_size = opt.chunk_size;
  po.threads = 4;
  ds.manifest = prep::prepare_dataset(source, "data", ds.shared, "prepared", po);
}

// --- Report ------------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"samples_per_s", "samples/s"}, {"sample_p50_us", "us"},
      {"sample_p90_us", "us"},        {"meta_p90_us", "us"},
      {"ckpt_write_s", "s"},          {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"posixfs.dispatch_us.p50", "us"},
      {"fs.open_us.p50", "us"},
      {"fs.open_us.p99", "us"},
      {"fs.open_self_us.p50", "us"},
      {"fs.read_us.p50", "us"},
      {"fs.close_us.p50", "us"},
      {"fs.ckpt_close_us.p50", "us"},
      {"cache.plain_hit_ratio", "fraction"},
      {"cache.evictions_per_open", "count"},
      {"tier.compressed.hit_share", "fraction"},
      {"tier.spill.hit_share", "fraction"},
      {"tier.peer.hit_share", "fraction"},
      {"tier.cold.load_share", "fraction"},
      {"tier.spill.read_us.p50", "us"},
      {"tier.spill.write_us.p50", "us"},
      {"tier.spill.write_amp", "B/B"},
      {"backend.read_us.p50", "us"},
      {"backend.write_us.p50", "us"},
      {"fetch.us.p50", "us"},
      {"fetch.us.p99", "us"},
      {"daemon.serve_us.p50", "us"},
      {"fetch.wire_us.p50", "us"},
      {"mpi.msgs_per_sample", "count"},
      {"mpi.bytes_per_sample", "B"},
      {"retry.attempts", "count"},
      {"decode.us_per_open.p50", "us"},
      {"decode.mib_per_s", "MiB/s"},
      {"meta.stat_us.p50", "us"},
      {"meta.stat_us.p99", "us"},
      {"cluster.remote_lookups_per_open", "count"},
      {"setup.load_s", "s"},
      {"setup.exchange_s", "s"},
      {"setup.start_s", "s"},
      {"setup.enumerate_s", "s"},
      {"mpi.sync_us_per_step", "us"},
      {"ipc.serve_us.p50", "us"},
      {"ipc.blocker_wait_us.p50", "us"},
      {"ipc.blocker_wait_us.p99", "us"},
      {"ipc.loop_wakeups_per_req", "count"},
      {"ipc.transport_us.p50", "us"},
      {"model.vepoch_s", "s"},
      {"share.plan", "fraction"},
      {"share.posixfs", "fraction"},
      {"share.fs", "fraction"},
      {"share.backend", "fraction"},
      {"share.spill", "fraction"},
      {"share.fetch", "fraction"},
      {"share.decode", "fraction"},
      {"share.mpi_sync", "fraction"},
      {"share.ipc", "fraction"},
      {"share.verify", "fraction"},
      {"trace.attributed_frac", "fraction"},
      {"trace.unattributed_frac", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  return defs;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::fail(const std::string& why) {
  static std::mutex print_mu;
  const std::uint64_t n = failed_.fetch_add(1) + 1;
  if (n <= 10) {
    std::lock_guard<std::mutex> lk(print_mu);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

void Report::check_equal(const std::string& what, std::uint64_t a, std::uint64_t b) {
  if (a == b) {
    std::printf("check %s: %llu == %llu ok\n", what.c_str(),
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    return;
  }
  checks_ok_ = false;
  std::fprintf(stderr, "perfbench: CROSS-CHECK FAILED: %s: %llu != %llu\n",
               what.c_str(), static_cast<unsigned long long>(a),
               static_cast<unsigned long long>(b));
}

void Report::print_timing(const std::string& name, const LatHist& h) {
  const double tail = tail_percentile(h.count());
  if (tail == 0.0) {
    std::printf("timing %s: n=%llu (too few samples for a percentile)\n", name.c_str(),
                static_cast<unsigned long long>(h.count()));
    return;
  }
  if (tail == 50.0) {
    std::printf("timing %s: p50=%.3f us  n=%llu\n", name.c_str(), h.quantile(50) / 1e3,
                static_cast<unsigned long long>(h.count()));
    return;
  }
  std::printf("timing %s: p50=%.3f us  p%g=%.3f us  n=%llu\n", name.c_str(),
              h.quantile(50) / 1e3, tail, h.quantile(tail) / 1e3,
              static_cast<unsigned long long>(h.count()));
}

void Report::print_timing(const std::string& name, const std::vector<double>& seconds) {
  LatHist h;
  for (const double s : seconds) h.record(static_cast<std::uint64_t>(s * 1e9));
  print_timing(name, h);
}

void Report::print_result(bool trace) const {
  std::string out = "{\"correct\": ";
  out += ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_.load());
  out += ", \"failed\": " + std::to_string(failed_.load());
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !trace) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") + m.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("metric is not finite: ") + m.name);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
