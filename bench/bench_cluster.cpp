// Sharded-metadata benchmark (DESIGN.md §13): the classic full-replication
// allgather vs the consistent-hash-sharded push exchange, at 8 and 64
// in-process ranks (real threads, real mailboxes) and at 512 ranks on the
// virtual clock (modeled analytically from the measured per-entry sizes,
// recorded with "modeled": true like the simnet-backed benches).
//
// Per rank-count cell, each mode reports:
//   build_ms             wall time of exchange_metadata()
//   bytes_per_rank       metadata bytes received per rank during the build
//   lookup_p99_us        p99 of a post-build stat-path lookup from rank 0
//                        (classic: local map hit; sharded: resolve(), a mix
//                        of local shard hits and meta RPCs to shard owners)
//
// Acceptance (ISSUE 10): the sharded exchange must move < 1/4 of the
// classic per-rank bytes at 64 ranks (rf=2 vs 64-way replication) — always
// enforced, it is a pure protocol property. The build wall-time gate
// (sharded <= classic at 64 ranks) is enforced only on hosts with >= 8
// hardware threads; below that the 64-thread world measures the scheduler,
// not the exchange.
//
// A second section measures the in-process wire itself: a 2-rank ping-pong
// of 16 KiB messages with 0, 2 and 8 idle receivers blocked on each
// mailbox (as a rank's Daemon and ClusterNode threads are), reporting the
// round-trip p50 and p99. A delivered message must wake only the receiver
// it matches, so idle receivers cost nothing: the 2-waiter p50 must stay
// within 1.25x of the 0-waiter p50 (enforced on hosts with >= 2 hardware
// threads, where the two ranks can run in parallel). Emits
// BENCH_cluster.json; tools/ci.sh runs `--quick`.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "cluster/node.hpp"
#include "core/instance.hpp"
#include "simnet/models.hpp"
#include "util/timer.hpp"

using namespace fanstore;

namespace {

struct Cell {
  double build_ms = 0;
  double bytes_per_rank = 0;
  double lookup_p99_us = 0;
  bool modeled = false;
};

std::vector<std::string> namespace_paths(int ranks, int files_per_rank) {
  std::vector<std::string> paths;
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < files_per_rank; ++i) {
      paths.push_back("ds/r" + std::to_string(r) + "/f" + std::to_string(i));
    }
  }
  return paths;
}

// The value at rank size * pct / 100 of the sorted samples.
double percentile(std::vector<double> v, int pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() * static_cast<std::size_t>(pct) / 100];
}

// One real in-process world: build the metadata view (classic allgather
// when rf == 0, sharded push exchange otherwise), then rank 0 measures
// lookup latency over the whole namespace.
Cell run_real(int ranks, int files_per_rank, int rf, int lookups) {
  Cell cell;
  const auto paths = namespace_paths(ranks, files_per_rank);
  mpi::run_world(ranks, [&](mpi::Comm& comm) {
    core::Instance::Options opt;
    opt.cluster.replication_factor = rf;
    core::Instance inst(comm, std::move(opt));
    std::vector<std::pair<std::string, Bytes>> mine;
    for (int i = 0; i < files_per_rank; ++i) {
      mine.emplace_back(paths[static_cast<std::size_t>(
                            comm.rank() * files_per_rank + i)],
                        Bytes(16, 1));
    }
    const Bytes part = bench::make_partition(mine, "store");
    inst.load_partition_blob(as_view(part), static_cast<std::uint32_t>(comm.rank()));
    const std::size_t own_bytes = inst.metadata().serialize().size();
    comm.barrier();
    WallTimer build;
    inst.exchange_metadata();
    comm.barrier();
    if (comm.rank() == 0) cell.build_ms = build.elapsed_sec() * 1e3;

    if (rf == 0) {
      // Classic: every rank now holds the full namespace; inbound bytes are
      // everyone else's serialized metadata.
      if (comm.rank() == 0) {
        cell.bytes_per_rank = static_cast<double>(
            inst.metadata().serialize().size() - own_bytes);
      }
    } else {
      // Sharded: pushes are counted on the sender; the per-rank average
      // inbound equals the per-rank average outbound.
      const double pushed = static_cast<double>(
          inst.metrics().counter("cluster.push_bytes").value());
      const auto sums = comm.allreduce_sum({pushed});
      if (comm.rank() == 0) cell.bytes_per_rank = sums[0] / ranks;
    }

    inst.start_daemon();
    comm.barrier();
    if (comm.rank() == 0) {
      std::vector<double> lat;
      lat.reserve(static_cast<std::size_t>(lookups));
      auto* node = inst.cluster_node();
      std::size_t misses = 0;
      for (int i = 0; i < lookups; ++i) {
        const std::string& p =
            paths[(static_cast<std::size_t>(i) * 7919) % paths.size()];
        WallTimer t;
        if (rf == 0) {
          if (!inst.metadata().lookup(p)) ++misses;
        } else {
          if (!node->resolve(p)) ++misses;
        }
        lat.push_back(t.elapsed_us());
      }
      if (misses > 0) {
        std::fprintf(stderr, "bench_cluster: %zu lookup misses at %d ranks\n",
                     misses, ranks);
      }
      cell.lookup_p99_us = percentile(std::move(lat), 99);
    }
    comm.barrier();
    inst.stop();
  });
  return cell;
}

struct PingPong {
  int idle_waiters = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Round-trip times (us) of `trips` ping-pongs of `bytes` between two ranks,
// after `warmup` unrecorded ones. `idle` extra threads per rank sit in
// recv_if on a tag nobody sends until the end.
std::vector<double> pingpong_rtts(int idle, int warmup, int trips, std::size_t bytes) {
  constexpr int kPing = 1, kPong = 2, kIdle = 3;
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(trips));
  mpi::run_world(2, [&](mpi::Comm& comm) {
    const std::function<bool(const mpi::Message&)> is_idle =
        [](const mpi::Message& m) { return m.tag == kIdle; };
    std::vector<std::thread> idlers;
    for (int i = 0; i < idle; ++i) {
      idlers.emplace_back([&] { (void)comm.recv_if(is_idle); });
    }
    comm.barrier();
    const int peer = 1 - comm.rank();
    Bytes payload(bytes, 0x5a);
    for (int i = 0; i < warmup + trips; ++i) {
      if (comm.rank() == 0) {
        WallTimer t;
        comm.send(peer, kPing, payload);
        payload = comm.recv(peer, kPong).payload;
        if (i >= warmup) rtt.push_back(t.elapsed_us());
      } else {
        comm.send(peer, kPong, comm.recv(peer, kPing).payload);
      }
    }
    for (int i = 0; i < idle; ++i) comm.send(comm.rank(), kIdle, {});
    for (auto& t : idlers) t.join();
  });
  return rtt;
}

// Each waiter count runs `reps` times, interleaved with the others so host
// load drifts across all of them alike; a cell reports the median over
// reps of each run's p50 and p99.
std::vector<PingPong> run_pingpong(const std::vector<int>& waiters, int reps,
                                   int trips, std::size_t bytes) {
  std::vector<std::vector<double>> p50s(waiters.size()), p99s(waiters.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t w = 0; w < waiters.size(); ++w) {
      const auto rtt = pingpong_rtts(waiters[w], trips / 10, trips, bytes);
      p50s[w].push_back(percentile(rtt, 50));
      p99s[w].push_back(percentile(rtt, 99));
    }
  }
  std::vector<PingPong> cells;
  for (std::size_t w = 0; w < waiters.size(); ++w) {
    cells.push_back({waiters[w], percentile(p50s[w], 50), percentile(p99s[w], 50)});
  }
  return cells;
}

// 512-rank cells on the virtual clock: charge the omnipath model with the
// per-entry wire sizes measured in the real runs. Classic is a ring
// allgather of everyone's metadata; sharded pushes each entry to its rf
// shard owners (nshards scaled to 4x ranks so every rank owns shards).
Cell model_cell(int ranks, int files_per_rank, int rf, double entry_bytes,
                double apply_us_per_entry, double local_lookup_us) {
  const simnet::NetworkModel net = simnet::omnipath();
  const double bw = net.effective_bandwidth(ranks);
  const double local_bytes = files_per_rank * entry_bytes;
  Cell cell;
  cell.modeled = true;
  if (rf == 0) {
    // Ring allgather (N-1 steps forwarding one rank's blob), then every
    // inbound entry is applied to the local map at the measured CPU cost.
    cell.bytes_per_rank = (ranks - 1) * local_bytes;
    const double entries_in = (ranks - 1.0) * files_per_rank;
    cell.build_ms = ((ranks - 1) * net.latency_s + cell.bytes_per_rank / bw +
                     entries_in * apply_us_per_entry * 1e-6) *
                    1e3;
    cell.lookup_p99_us = local_lookup_us;  // always a local map hit
  } else {
    // Each rank ships its entries to the rf owners of each path's shard
    // and receives its rf/N slice of the global namespace in return.
    cell.bytes_per_rank = rf * local_bytes;
    const double entries_in = static_cast<double>(rf) * files_per_rank;
    cell.build_ms = (2 * net.latency_s + cell.bytes_per_rank / bw +
                     entries_in * apply_us_per_entry * 1e-6) *
                    1e3;
    // p99 lookup is remote (only rf/N of shards are local): one meta RPC.
    cell.lookup_p99_us =
        (2 * net.latency_s + entry_bytes / bw) * 1e6 + local_lookup_us;
  }
  return cell;
}

std::string json_cell(const Cell& c) {
  return "{\"build_ms\": " + bench::fmt("%.3f", c.build_ms) +
         ", \"bytes_per_rank\": " + bench::fmt("%.0f", c.bytes_per_rank) +
         ", \"lookup_p99_us\": " + bench::fmt("%.2f", c.lookup_p99_us) +
         ", \"modeled\": " + (c.modeled ? "true" : "false") + "}";
}

std::string json_pingpong(const std::vector<PingPong>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += "{\"idle_waiters\": " + std::to_string(v[i].idle_waiters) +
         ", \"p50_us\": " + bench::fmt("%.2f", v[i].p50_us) +
         ", \"p99_us\": " + bench::fmt("%.2f", v[i].p99_us) + "}";
  }
  return s + "]";
}

std::string json_cells(const std::vector<Cell>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_cell(v[i]);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int files_per_rank = quick ? 50 : 200;
  const int lookups = quick ? 400 : 2000;
  constexpr int kRf = 2;

  bench::section("Sharded metadata vs classic allgather (DESIGN.md §13)");
  const std::vector<int> real_ranks = {8, 64};
  std::vector<int> all_ranks = real_ranks;
  all_ranks.push_back(512);

  std::vector<Cell> classic, sharded;
  for (const int n : real_ranks) {
    classic.push_back(run_real(n, files_per_rank, /*rf=*/0, lookups));
    sharded.push_back(run_real(n, files_per_rank, kRf, lookups));
  }
  // Per-entry wire size from the measured 64-rank classic exchange; the
  // modeled 512-rank cells extrapolate from it.
  const double entries_in_64 = (real_ranks.back() - 1.0) * files_per_rank;
  const double entry_bytes = classic.back().bytes_per_rank / entries_in_64;
  // Per-entry apply cost (wire decode + map insert + dir synthesis) from
  // the measured 64-rank classic build, which that phase dominates.
  const double apply_us = classic.back().build_ms * 1e3 / entries_in_64;
  classic.push_back(model_cell(512, files_per_rank, 0, entry_bytes, apply_us,
                               classic.back().lookup_p99_us));
  sharded.push_back(model_cell(512, files_per_rank, kRf, entry_bytes, apply_us,
                               classic.back().lookup_p99_us));

  bench::Table table({"ranks", "classic build ms", "classic B/rank",
                      "classic p99us", "sharded build ms", "sharded B/rank",
                      "sharded p99us", "modeled"});
  for (std::size_t i = 0; i < all_ranks.size(); ++i) {
    table.row({std::to_string(all_ranks[i]),
               bench::fmt("%.2f", classic[i].build_ms),
               bench::fmt("%.0f", classic[i].bytes_per_rank),
               bench::fmt("%.2f", classic[i].lookup_p99_us),
               bench::fmt("%.2f", sharded[i].build_ms),
               bench::fmt("%.0f", sharded[i].bytes_per_rank),
               bench::fmt("%.2f", sharded[i].lookup_p99_us),
               classic[i].modeled ? "yes" : "no"});
  }
  table.print();

  // Acceptance. Bytes: a pure protocol property (rf copies vs N copies),
  // enforced on every host. Wall: only meaningful when the 64 threads can
  // actually run in parallel.
  bool ok = true;
  const std::size_t i64 = 1;  // index of the 64-rank cell
  if (sharded[i64].bytes_per_rank >= classic[i64].bytes_per_rank / 4) {
    std::fprintf(stderr,
                 "bench_cluster: sharded moved %.0f B/rank, expected < 1/4 "
                 "of classic's %.0f at 64 ranks\n",
                 sharded[i64].bytes_per_rank, classic[i64].bytes_per_rank);
    ok = false;
  }
  const bool enforce_wall = hw >= 8;
  if (enforce_wall && sharded[i64].build_ms > classic[i64].build_ms) {
    std::fprintf(stderr,
                 "bench_cluster: sharded build %.2f ms slower than classic "
                 "%.2f ms at 64 ranks\n",
                 sharded[i64].build_ms, classic[i64].build_ms);
    ok = false;
  }

  bench::section("Mailbox ping-pong with idle receivers");
  constexpr std::size_t kPingBytes = 16 * 1024;
  const int ping_trips = quick ? 2000 : 20000;
  const int ping_reps = quick ? 3 : 5;
  const auto pingpong = run_pingpong({0, 2, 8}, ping_reps, ping_trips, kPingBytes);
  bench::Table ping_table({"idle waiters/mailbox", "rtt p50 us", "rtt p99 us"});
  for (const PingPong& c : pingpong) {
    ping_table.row({std::to_string(c.idle_waiters), bench::fmt("%.2f", c.p50_us),
                    bench::fmt("%.2f", c.p99_us)});
  }
  ping_table.print();
  const bool enforce_ping = hw >= 2;
  if (enforce_ping && pingpong[1].p50_us > 1.25 * pingpong[0].p50_us) {
    std::fprintf(stderr,
                 "bench_cluster: ping-pong p50 %.2f us with 2 idle waiters "
                 "exceeds 1.25x the %.2f us without\n",
                 pingpong[1].p50_us, pingpong[0].p50_us);
    ok = false;
  }

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_cluster: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::string ranks_json = "[";
  for (std::size_t i = 0; i < all_ranks.size(); ++i) {
    if (i > 0) ranks_json += ", ";
    ranks_json += std::to_string(all_ranks[i]);
  }
  ranks_json += "]";
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"cluster\",\n"
               "  \"quick\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"files_per_rank\": %d,\n"
               "  \"replication_factor\": %d,\n"
               "  \"ranks\": %s,\n"
               "  \"classic_allgather\": %s,\n"
               "  \"sharded\": %s,\n"
               "  \"wall_gate_enforced\": %s,\n"
               "  \"pingpong_payload_bytes\": %zu,\n"
               "  \"pingpong_round_trips\": %d,\n"
               "  \"pingpong_reps\": %d,\n"
               "  \"pingpong\": %s,\n"
               "  \"pingpong_gate_enforced\": %s\n"
               "}\n",
               quick ? "true" : "false", hw, files_per_rank, kRf,
               ranks_json.c_str(), json_cells(classic).c_str(),
               json_cells(sharded).c_str(), enforce_wall ? "true" : "false",
               kPingBytes, ping_trips, ping_reps, json_pingpong(pingpong).c_str(),
               enforce_ping ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_cluster: acceptance checks FAILED\n");
    return 1;
  }
  std::printf("acceptance checks: OK\n");
  return 0;
}
