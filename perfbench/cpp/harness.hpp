// Shared pieces of the benchmark: the command line, the tick clock, the
// timing Vfs shims that the traced run mounts between layers, dataset
// generation + prep, and the result report (human lines plus the final
// JSON line).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "crc32c.hpp"
#include "stats.hpp"
#include "posixfs/mem_vfs.hpp"
#include "posixfs/vfs.hpp"
#include "prep/prepare.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using namespace fanstore;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string socket_dir = ".bench_build/run";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--source-id X]
/// [--socket-dir DIR]`; throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

// --- Clock -----------------------------------------------------------------

/// Raw timestamp: the TSC on x86-64 (a few ns to read), steady_clock
/// nanoseconds elsewhere. Convert differences with to_ns().
std::int64_t tick();
std::int64_t to_ns(std::int64_t ticks);
/// Calibrates to_ns() against steady_clock; call once before timing.
void calibrate_ticks();
double seconds_since(std::int64_t start_tick);

// --- Data ------------------------------------------------------------------

/// Deterministic filler for checkpoint shards and other written data.
Bytes make_bytes(std::uint64_t seed, std::size_t n);

// --- Timing shims -------------------------------------------------------------

/// What the shims record for the thread that set thread_layers() (a rank
/// thread in a traced epoch or writing a checkpoint shard); null on every
/// other thread.
struct ThreadLayers {
  std::int64_t backend_ns = 0;  // cumulative local_fs time on this thread
  std::int64_t spill_ns = 0;    // cumulative spill_fs time on this thread
  /// The fs shim's calls since the owner last reset `ncalls`: each one's
  /// duration and the backend and spill time inside it.
  struct Call {
    std::int64_t ns = 0;
    std::int64_t backend_ns = 0;
    std::int64_t spill_ns = 0;
  };
  std::array<Call, 8> calls{};
  int ncalls = 0;
};
ThreadLayers*& thread_layers();

/// Forwards every call to `inner`. A kFs shim times calls only for a
/// thread with thread_layers() set; kBackend and kSpill shims time every
/// call, add it to the calling thread's layers when set, and record
/// per-call read/write latencies for the backend.* and tier.spill.*
/// metrics.
class TimedVfs final : public posixfs::Vfs {
 public:
  enum class Role { kFs, kBackend, kSpill };
  TimedVfs(posixfs::Vfs* inner, Role role) : inner_(inner), role_(role) {}

  int open(std::string_view path, posixfs::OpenMode mode) override;
  int close(int fd) override;
  std::int64_t read(int fd, MutByteView buf) override;
  std::int64_t pread(int fd, MutByteView buf, std::uint64_t offset) override;
  std::int64_t write(int fd, ByteView buf) override;
  std::int64_t lseek(int fd, std::int64_t offset, posixfs::Whence whence) override;
  int stat(std::string_view path, format::FileStat* out) override;
  int opendir(std::string_view path) override;
  std::optional<posixfs::Dirent> readdir(int dir_handle) override;
  int closedir(int dir_handle) override;

  /// Per-call read and write latencies (ns) recorded while recording()
  /// is on, from any thread.
  LatHist read_hist() const;
  LatHist write_hist() const;
  /// Switches per-call latency recording (off at construction).
  static std::atomic<bool>& recording();

 private:
  enum class Kind { kRead, kWrite, kOther };
  template <class F>
  auto timed(Kind kind, F&& f);

  posixfs::Vfs* inner_;
  Role role_;
  mutable std::mutex mu_;
  LatHist read_ns_;
  LatHist write_ns_;
};

// --- Dataset -----------------------------------------------------------------

struct FileSpec {
  std::string path;  // dataset-relative, e.g. "data/d03/s000123.tif"
  std::size_t size = 0;
  std::uint32_t crc = 0;
};

struct Dataset {
  std::vector<FileSpec> files;            // sorted by path
  std::map<std::string, std::size_t> dirs;  // directory -> file count
  posixfs::MemVfs shared;                 // prepared partitions ("shared FS")
  prep::Manifest manifest;
  std::size_t raw_bytes = 0;
  std::size_t max_file = 0;
};

/// `n` file sizes with the same multiset for every seed, the quantiles
/// inv_cdf((k + 0.5) / n) for k = 0..n-1, dealt to files in a seed-shuffled
/// order: seeds change which file is large, not the size mix.
std::vector<std::size_t> stratified_sizes(std::size_t n, std::uint64_t seed,
                                          double (*inv_cdf)(double));

/// Generates `sizes.size()` files of kind `kind_of(i)` under "data/dNN/",
/// records each one's CRC, and prepares them into `ds.shared` with `codec`
/// (wrapped in the chunked container when chunk_size > 0).
struct DatasetOptions {
  std::vector<std::size_t> sizes;
  std::vector<int> kinds;  // dlsim::DatasetKind per file
  int dirs = 16;
  int partitions = 4;
  std::string codec = "lz4";
  std::size_t chunk_size = 0;
  std::uint64_t seed = 1;
};
void build_dataset(const DatasetOptions& opt, Dataset& ds);

// --- Report ------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric (--trace 0) and every per-layer metric
/// (--trace 1), in print order; BENCHMARK.json lists the same names.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  /// Counts a failed or mis-verified op and prints why (thread-safe).
  void fail(const std::string& why);
  /// A counter cross-check: fails the run when `a != b`.
  void check_equal(const std::string& what, std::uint64_t a, std::uint64_t b);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  bool ok() const { return failed_.load() == 0 && checks_ok_.load(); }

  /// Human line for one timing: median and the tail percentile the
  /// sample count supports, in microseconds.
  static void print_timing(const std::string& name, const LatHist& h);
  /// The same for timings kept in seconds.
  static void print_timing(const std::string& name, const std::vector<double>& seconds);

  /// Prints the final JSON line for `trace` mode. Every end-to-end metric
  /// must have been set (throws otherwise); a per-layer metric left unset
  /// belongs to a layer that did no work on this workload and reads 0.
  void print_result(bool trace) const;

 private:
  std::map<std::string, double> values_;  // set from one thread
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> checks_ok_{true};
};

double peak_rss_mib();

}  // namespace perfbench
