// Membership-churn simulation suite — the headline proof of DESIGN.md §13.
//
// The single-threaded scenarios run on tests/cluster_sim.hpp: a
// ManualTimeSource world whose manual-mode ClusterNodes are driven
// deterministically by pump(), optionally under a seeded
// FaultPlan::membership_churn_from_seed adversary. They assert the
// converged invariants the sharded design promises:
//
//   * after convergence every path's metadata lives on exactly
//     `replication_factor` live owners and nowhere else
//   * a lookup is correct from any rank mid-rebalance (prev-ring fallback)
//   * anti-entropy transfers only the delta, byte-accounted
//   * random churn schedules (seed-swept; replay any failure with
//     FANSTORE_CHURN_SEED) always converge to agreeing views
//
// The threaded finale runs real core::Instances: a daemon is killed, a
// fresh spare joins, the cluster re-converges, and a recorded training
// epoch proves exactly-once coverage of the full dataset across the
// survivors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "dlsim/trainer.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "format/partition.hpp"
#include "mpi/comm.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "simnet/virtual_clock.hpp"
#include "tests/cluster_sim.hpp"
#include "tests/sanitizer_env.hpp"
#include "tests/test_data.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace fanstore {
namespace {

using testsupport::ClusterSim;

constexpr int scale_ms(int ms) {
  return testsupport::kUnderSanitizer ? ms * 5 : ms;
}

// Mirrors fault_seed_from_env for the churn sweep: tools/ci.sh replays a
// failing sweep seed by exporting FANSTORE_CHURN_SEED.
std::uint64_t churn_seed_from_env(std::uint64_t fallback) {
  const char* env = std::getenv("FANSTORE_CHURN_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 0);
  if (end == env || (end != nullptr && *end != '\0')) return fallback;
  return static_cast<std::uint64_t>(v);
}

// Writes `per_rank` files on each member and returns the sorted namespace.
std::vector<std::string> seed_namespace(ClusterSim& sim,
                                        const std::vector<int>& members,
                                        int per_rank) {
  std::vector<std::string> paths;
  for (const int r : members) {
    for (int i = 0; i < per_rank; ++i) {
      const std::string p =
          "ds/r" + std::to_string(r) + "/f" + std::to_string(i);
      sim.put_file(r, p, static_cast<std::uint64_t>(1000 + i));
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// The stat_of path FanStoreFs takes: local store first, then the resolver.
bool can_stat(ClusterSim& sim, int r, const std::string& p) {
  if (sim.store(r).lookup_versioned(p).has_value()) return true;
  return sim.node(r).resolve(p).has_value();
}

// The converged placement invariant: from `anchor`'s (agreed) view, every
// path has exactly min(rf, members) owners, each owner's store holds the
// entry, and no other live rank holds it.
void expect_exactly_rf_owners(ClusterSim& sim, int nranks,
                              const std::vector<std::string>& paths, int rf,
                              int anchor) {
  const auto members = sim.node(anchor).view().ring_members();
  const auto want =
      std::min(static_cast<std::size_t>(rf), members.size());
  for (const auto& p : paths) {
    const auto owners = sim.node(anchor).meta_owners(p);
    ASSERT_EQ(owners.size(), want) << p;
    const std::set<int> owner_set(owners.begin(), owners.end());
    for (const int o : owner_set) {
      EXPECT_TRUE(sim.alive(o)) << "dead owner " << o << " for " << p;
    }
    for (int r = 0; r < nranks; ++r) {
      if (!sim.alive(r)) continue;
      const bool holds = sim.store(r).lookup_versioned(p).has_value();
      EXPECT_EQ(holds, owner_set.count(r) > 0)
          << "path " << p << " rank " << r << " (owners should be exact)";
    }
  }
}

TEST(MembershipChurnTest, SteadyStateIsQuietAndAntiEntropyMovesOnlyTheDelta) {
  ClusterSim::Options o;
  o.nranks = 3;
  o.replication_factor = 2;
  ClusterSim sim(o);
  for (int r = 0; r < 3; ++r) sim.node(r).bootstrap({0, 1, 2});
  const auto paths = seed_namespace(sim, {0, 1, 2}, 12);
  ASSERT_TRUE(sim.converge());
  expect_exactly_rf_owners(sim, 3, paths, 2, /*anchor=*/0);

  // Converged steady state: a full round moves zero bytes everywhere.
  for (int r = 0; r < 3; ++r) {
    const auto st = sim.node(r).rebalance();
    EXPECT_GT(st.sync.digest_rpcs, 0u) << r;  // it did look
    EXPECT_EQ(st.sync.shards_pulled, 0u) << r;
    EXPECT_EQ(st.sync.bytes_pulled, 0u) << r;
    EXPECT_EQ(st.shards_dropped, 0u) << r;
    EXPECT_FALSE(st.sync.changed) << r;
  }

  // One fresh write into a shard rank 0 owns...
  const std::uint32_t nshards = sim.node(0).nshards();
  std::string fresh;
  for (int i = 0; fresh.empty(); ++i) {
    const std::string p = "ds/new" + std::to_string(i);
    if (sim.node(0).owns_shard(cluster::shard_of(p, nshards))) fresh = p;
  }
  sim.put_file(0, fresh, 4242);
  const std::uint32_t shard = cluster::shard_of(fresh, nshards);
  const auto owners = sim.node(0).shard_owners(shard);
  ASSERT_EQ(owners.size(), 2u);
  const int other = owners[0] == 0 ? owners[1] : owners[0];
  ASSERT_NE(other, 0);

  // ...is pulled by the co-owner as exactly one shard: the reply is the
  // [count][shard][len] framing plus rank 0's serialized shard, nothing
  // else — delta-only, byte for byte.
  const std::size_t shard_blob =
      sim.store(0).serialize_shard(shard, nshards).size();
  std::size_t full_namespace = 0;
  for (std::uint32_t s = 0; s < nshards; ++s) {
    const int p = sim.node(0).shard_owners(s).front();
    full_namespace += sim.store(p).serialize_shard(s, nshards).size();
  }
  const auto st = sim.node(other).anti_entropy();
  EXPECT_EQ(st.shards_pulled, 1u);
  EXPECT_EQ(st.entries_applied, 1u);
  EXPECT_EQ(st.bytes_pulled, 12u + shard_blob);
  EXPECT_LT(st.bytes_pulled, full_namespace / 4);
  EXPECT_TRUE(st.changed);
  EXPECT_TRUE(sim.store(other).lookup_versioned(fresh).has_value());

  // A rank that owns neither copy of that shard pulls nothing at all.
  for (int r = 0; r < 3; ++r) {
    if (r == 0 || r == other) continue;
    const auto idle = sim.node(r).anti_entropy();
    EXPECT_EQ(idle.shards_pulled, 0u) << r;
    EXPECT_EQ(idle.bytes_pulled, 0u) << r;
  }
}

TEST(MembershipChurnTest, LookupIsCorrectFromAnyRankMidRebalance) {
  ClusterSim::Options o;
  o.nranks = 4;
  o.replication_factor = 2;
  ClusterSim sim(o);
  for (int r = 0; r < 3; ++r) sim.node(r).bootstrap({0, 1, 2});
  const auto paths = seed_namespace(sim, {0, 1, 2}, 10);
  ASSERT_TRUE(sim.converge());

  // Rank 3 joins: ownership moves, but the old owners have neither pulled
  // nor dropped yet — the system is mid-rebalance on purpose.
  ASSERT_TRUE(sim.node(3).join({0, 1}));
  sim.pump_n(4);

  // The joiner took over real shards...
  int owned = 0;
  for (std::uint32_t s = 0; s < sim.node(3).nshards(); ++s) {
    if (sim.node(3).owns_shard(s)) ++owned;
  }
  EXPECT_GT(owned, 0);

  // ...and every rank — joiner, seeds, and the not-yet-notified rank 2 —
  // still stats every path (current ring, prev-ring fallback, or local).
  for (int r = 0; r < 4; ++r) {
    for (const auto& p : paths) {
      EXPECT_TRUE(can_stat(sim, r, p)) << "rank " << r << " path " << p;
    }
  }

  // After full convergence the exact-rf invariant holds over 4 members.
  ASSERT_TRUE(sim.converge());
  expect_exactly_rf_owners(sim, 4, paths, 2, /*anchor=*/2);
  const auto listed = sim.node(3).enumerate_paths();
  EXPECT_EQ(listed, paths);
}

TEST(MembershipChurnTest, GracefulLeaveDrainsTheLeaverCompletely) {
  ClusterSim::Options o;
  o.nranks = 3;
  o.replication_factor = 2;
  ClusterSim sim(o);
  for (int r = 0; r < 3; ++r) sim.node(r).bootstrap({0, 1, 2});
  const auto paths = seed_namespace(sim, {0, 1, 2}, 8);
  ASSERT_TRUE(sim.converge());

  sim.node(1).leave();
  sim.pump_n(4);
  ASSERT_TRUE(sim.converge());

  // Two ring members remain; every shard's entries moved off the leaver.
  EXPECT_EQ(sim.node(0).view().ring_members(), (std::vector<int>{0, 2}));
  expect_exactly_rf_owners(sim, 3, paths, 2, /*anchor=*/0);
  for (std::uint32_t s = 0; s < sim.node(1).nshards(); ++s) {
    EXPECT_EQ(sim.store(1).shard_digest(s, sim.node(1).nshards()), 0u) << s;
  }
  // The leaver still serves: a lookup through it resolves remotely.
  for (const auto& p : paths) {
    EXPECT_TRUE(can_stat(sim, 1, p)) << p;
  }
}

// The seed sweep: random join/leave/kill/revive schedules under a
// membership_churn_from_seed fault plan (delayed, duplicated, dropped,
// corrupted cluster traffic). Replay any failure with the printed
// FANSTORE_CHURN_SEED. tools/ci.sh sweeps more seeds the same way.
TEST(MembershipChurnTest, SeededChurnSweepConvergesWithExactOwnership) {
  const std::uint64_t base = churn_seed_from_env(0xC41B0553ull);
  const int sweeps = churn_seed_from_env(0) != 0 ? 1 : 3;
  for (int round = 0; round < sweeps; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round) * 1000003ull;
    SCOPED_TRACE("replay with FANSTORE_CHURN_SEED=" + std::to_string(seed));

    constexpr int kRanks = 5;
    constexpr int kRf = 2;
    fault::FaultInjector inj(
        fault::FaultPlan::membership_churn_from_seed(seed, kRanks));
    ClusterSim::Options o;
    o.nranks = kRanks;
    o.replication_factor = kRf;
    o.injector = &inj;
    ClusterSim sim(o);
    for (int r = 0; r < 3; ++r) sim.node(r).bootstrap({0, 1, 2});
    const auto paths = seed_namespace(sim, {0, 1, 2}, 6);
    ASSERT_TRUE(sim.converge(40));

    Rng rng(seed ^ 0x9E3779B9ull);
    std::set<int> joined = {0, 1, 2};
    std::set<int> spares = {3, 4};
    std::set<int> dead;

    const auto two_seeds = [&] {
      std::vector<int> s(joined.begin(), joined.end());
      return std::vector<int>{s[0], s[s.size() / 2]};
    };
    const auto join_with_retry = [&](int r) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        if (sim.node(r).join(two_seeds())) return true;
        sim.pump_n(4);  // the churn plan ate the round; try again
      }
      return false;
    };

    const int events = 4 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < events; ++e) {
      const auto pick = [&](const std::set<int>& from) {
        auto it = from.begin();
        std::advance(it, static_cast<long>(rng.next_below(from.size())));
        return *it;
      };
      if (!spares.empty() && rng.next_below(2) == 0) {
        const int j = pick(spares);
        ASSERT_TRUE(join_with_retry(j)) << "join of rank " << j;
        spares.erase(j);
        joined.insert(j);
      } else if (!dead.empty() && rng.next_below(2) == 0) {
        const int r = pick(dead);
        sim.revive(r);
        ASSERT_TRUE(join_with_retry(r)) << "rejoin of rank " << r;
        dead.erase(r);
        joined.insert(r);
      } else if (joined.size() > 3) {
        const int r = pick(joined);
        if (rng.next_below(2) == 0) {
          sim.node(r).leave();  // graceful: keeps serving while draining
          sim.pump_n(4);
        } else {
          sim.kill(r);
          dead.insert(r);
          // The failure detector: some survivor declares the death.
          std::set<int> witnesses = joined;
          witnesses.erase(r);
          sim.node(pick(witnesses)).declare(r, cluster::MemberState::kDead);
          sim.pump_n(4);
        }
        joined.erase(r);
      }
      ASSERT_TRUE(sim.converge(40)) << "event " << e;
      ASSERT_TRUE(sim.views_agree()) << "event " << e;
    }

    ASSERT_GE(joined.size(), 2u);
    const int anchor = *joined.begin();
    expect_exactly_rf_owners(sim, kRanks, paths, kRf, anchor);
    // Nothing was lost and nothing doubled: the sharded enumeration is the
    // exact namespace, and every live rank can stat every path.
    EXPECT_EQ(sim.node(anchor).enumerate_paths(), paths);
    for (int r = 0; r < kRanks; ++r) {
      if (!sim.alive(r)) continue;
      if (!joined.count(r) && !sim.node(r).view().contains(r)) continue;
      for (const auto& p : paths) {
        EXPECT_TRUE(can_stat(sim, r, p)) << "rank " << r << " path " << p;
      }
    }
    // The adversary really fired.
    auto& fm = inj.metrics();
    EXPECT_GT(fm.counter("fault.msg_delayed").value() +
                  fm.counter("fault.msg_duplicated").value() +
                  fm.counter("fault.msg_dropped").value() +
                  fm.counter("fault.msg_corrupted").value(),
              0u);
  }
}

// ---------------------------------------------------------------------------
// The threaded finale: real Instances, a killed daemon, a fresh joiner, and
// a recorded training epoch proving exactly-once dataset coverage.

Bytes files_partition(const std::vector<std::pair<std::string, Bytes>>& files) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4");
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

Bytes pack_epochs(const std::vector<std::vector<std::string>>& epochs) {
  Bytes out;
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(epochs.size()));
  for (const auto& epoch : epochs) {
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(epoch.size()));
    for (const auto& p : epoch) {
      append_le<std::uint16_t>(out, static_cast<std::uint16_t>(p.size()));
      out.insert(out.end(), p.begin(), p.end());
    }
  }
  return out;
}

std::vector<std::vector<std::string>> unpack_epochs(ByteView blob) {
  std::vector<std::vector<std::string>> out;
  std::size_t pos = 4;
  const std::uint32_t nepochs = load_le<std::uint32_t>(blob.data());
  for (std::uint32_t e = 0; e < nepochs; ++e) {
    out.emplace_back();
    const std::uint32_t count = load_le<std::uint32_t>(blob.data() + pos);
    pos += 4;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint16_t len = load_le<std::uint16_t>(blob.data() + pos);
      pos += 2;
      out.back().emplace_back(reinterpret_cast<const char*>(blob.data() + pos),
                              len);
      pos += len;
    }
  }
  return out;
}

// Regression: after rebalance drops a metadata shard, the rank that holds
// the *data* blob may no longer hold the path's metadata. Its daemon then
// reports raw_size 0 ("unknown") and the requester must not read that as a
// stale-version miss — every file stays readable from every rank.
TEST(MembershipChurnTest, FetchServesDataWhoseMetadataShardRebalancedAway) {
  constexpr int kFiles = 18;
  std::vector<std::pair<std::string, Bytes>> dataset;
  for (int i = 0; i < kFiles; ++i) {
    dataset.push_back({"ds/f" + std::to_string(i),
                       testdata::runs_and_noise(3000, 400 + i)});
  }
  mpi::run_world(3, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    core::Instance::Options opt;
    opt.fs.fetch_timeout_ms = scale_ms(200);
    opt.fs.retry.max_attempts = 2;
    opt.cluster.replication_factor = 2;
    core::Instance inst(comm, opt);
    std::vector<std::pair<std::string, Bytes>> mine;
    for (int i = rank; i < kFiles; i += 3) {
      mine.push_back(dataset[static_cast<std::size_t>(i)]);
    }
    inst.load_partition_blob(as_view(files_partition(mine)),
                             static_cast<std::uint32_t>(rank), rank);
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    for (int round = 0; round < 3; ++round) {
      (void)inst.cluster_node()->rebalance();
      comm.barrier();
    }
    for (int i = 0; i < kFiles; ++i) {
      const auto& path = dataset[static_cast<std::size_t>(i)].first;
      auto vs = inst.metadata().lookup_versioned(path);
      if (!vs) vs = inst.cluster_node()->resolve(path);
      ASSERT_TRUE(vs.has_value()) << "rank " << rank << " " << path;
      EXPECT_EQ(vs->stat.owner_rank, static_cast<std::uint32_t>(i % 3))
          << "rank " << rank << " " << path;
      EXPECT_EQ(vs->stat.size, dataset[static_cast<std::size_t>(i)].second.size())
          << "rank " << rank << " " << path;
    }
    comm.barrier();
    for (const auto& [path, data] : dataset) {
      const int fd = inst.fs().open(path, posixfs::OpenMode::kRead);
      ASSERT_GE(fd, 0) << "rank " << rank << " " << path;
      Bytes got(data.size());
      ASSERT_EQ(inst.fs().read(fd, MutByteView(got.data(), got.size())),
                static_cast<std::int64_t>(got.size()))
          << "rank " << rank << " " << path;
      EXPECT_EQ(got, data) << "rank " << rank << " " << path;
      inst.fs().close(fd);
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(MembershipChurnTest, KillThenAddFreshMemberGivesExactlyOnceEpochCoverage) {
  constexpr int kFiles = 18;
  constexpr int kEpochs = 2;
  constexpr int kTrainTag = 700;
  // Real startup flow: prep the dataset into partitions on a shared FS so
  // load_from_shared + replicate_ring place data replicas one rank
  // around the ring (the kill below needs rank 1's data reachable via
  // failover to rank 2).
  posixfs::MemVfs shared;
  {
    posixfs::MemVfs src;
    for (int i = 0; i < kFiles; ++i) {
      posixfs::write_file(src, "ds/f" + std::to_string(i),
                          as_view(testdata::runs_and_noise(3000, 400 + i)));
    }
    prep::PrepOptions popt;
    popt.num_partitions = 8;
    popt.compressor = "lz4";
    prep::prepare_dataset(src, "ds", shared, "packed", popt);
  }
  fault::FaultPlan plan;  // empty: manual kill control only
  fault::FaultInjector inj(plan);

  mpi::run_world(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        simnet::VirtualClock clock;
        core::Instance::Options opt;
        opt.fs.fetch_timeout_ms = scale_ms(40);
        opt.fs.failover_hops = 2;
        opt.fs.retry.max_attempts = 3;
        opt.fs.retry.base_delay_ms = 1;
        opt.fs.retry.max_delay_ms = 8;
        opt.fs.clock = &clock;
        opt.fault = &inj;
        opt.cluster.replication_factor = 2;
        opt.cluster.initial_members = {0, 1, 2};
        opt.cluster.member = rank != 3;
        core::Instance inst(comm, opt);

        // Every rank holds data (round-robin partitions + ring replicas);
        // only ranks 0..2 are metadata-cluster members. Rank 3 is a
        // metadata *spare*: its own files' metadata stays rank-local until
        // it joins and rebalance pushes those shards to their owners.
        const auto manifest = prep::load_manifest(shared, "packed");
        inst.load_from_shared(shared, manifest.partition_paths());
        inst.replicate_ring(shared, manifest.partition_paths(), 1);
        inst.exchange_metadata();
        inst.start_daemon();
        comm.barrier();

        // --- the churn: kill rank 1's process, add rank 3 -------------
        if (rank == 0) inj.kill_daemon(1);
        comm.barrier();
        if (rank == 0) {
          inst.cluster_node()->declare(1, cluster::MemberState::kDead);
        }
        comm.barrier();
        if (rank == 3) {
          ASSERT_TRUE(inst.cluster_node()->join({0, 2}));
        }
        comm.barrier();
        // Drive rebalance rounds in lockstep until globally quiet.
        for (int round = 0; round < 4; ++round) {
          if (rank != 1) (void)inst.cluster_node()->rebalance();
          comm.barrier();
        }

        // Converged: the survivors agree on {0, 2, 3} with rank 1 dead.
        Bytes digest(8);
        if (rank != 1) {
          store_le<std::uint64_t>(digest.data(),
                                  inst.cluster_node()->view_digest());
        }
        const auto digests = comm.allgather(as_view(digest));
        if (rank != 1) {
          EXPECT_EQ(digests[0], digests[2]);
          EXPECT_EQ(digests[0], digests[3]);
          EXPECT_EQ(inst.cluster_node()->view().ring_members(),
                    (std::vector<int>{0, 2, 3}));
        }

        // The trainer's enumeration step: rank 0 lists the sharded
        // namespace and broadcasts the canonical order.
        Bytes listing;
        if (rank == 0) {
          auto all = inst.dataset_paths();
          std::sort(all.begin(), all.end());
          EXPECT_EQ(all.size(), static_cast<std::size_t>(kFiles));
          for (const auto& p : all) {
            listing.insert(listing.end(), p.begin(), p.end());
            listing.push_back('\n');
          }
        }
        listing = comm.bcast(0, as_view(listing));
        std::vector<std::string> all_paths;
        for (std::size_t start = 0, i = 0; i < listing.size(); ++i) {
          if (listing[i] == '\n') {
            all_paths.emplace_back(
                reinterpret_cast<const char*>(listing.data() + start),
                i - start);
            start = i + 1;
          }
        }
        ASSERT_EQ(all_paths.size(), static_cast<std::size_t>(kFiles));

        // --- the epoch: survivors split the namespace three ways -------
        if (rank != 1) {
          const int slot = rank == 0 ? 0 : rank == 2 ? 1 : 2;
          std::vector<std::string> mine;
          for (std::size_t i = 0; i < all_paths.size(); ++i) {
            if (static_cast<int>(i % 3) == slot) mine.push_back(all_paths[i]);
          }
          dlsim::TrainerOptions topt;
          topt.epochs = kEpochs;
          topt.batch_per_rank = 2;
          topt.t_iter_s = 1e-6;
          topt.seed = static_cast<std::uint64_t>(rank) * 7 + 1;
          topt.io_clock = &clock;
          topt.metrics = &inst.metrics();
          topt.record_epoch_files = true;
          const auto result = dlsim::run_training(inst.fs(), mine, topt);
          ASSERT_EQ(result.epoch_files.size(),
                    static_cast<std::size_t>(kEpochs));
          if (rank != 0) {
            comm.send(0, kTrainTag, pack_epochs(result.epoch_files));
          } else {
            auto merged = result.epoch_files;
            for (int peer = 0; peer < 2; ++peer) {
              const auto msg = comm.recv(mpi::kAnySource, kTrainTag);
              const auto theirs = unpack_epochs(as_view(msg.payload));
              ASSERT_EQ(theirs.size(), merged.size());
              for (std::size_t e = 0; e < merged.size(); ++e) {
                merged[e].insert(merged[e].end(), theirs[e].begin(),
                                 theirs[e].end());
              }
            }
            // Exactly-once: each epoch's union across the survivors is the
            // full dataset, no file missing, no file doubled.
            std::vector<std::string> want = all_paths;
            std::sort(want.begin(), want.end());
            for (std::size_t e = 0; e < merged.size(); ++e) {
              std::sort(merged[e].begin(), merged[e].end());
              EXPECT_EQ(merged[e], want) << "epoch " << e;
            }
          }
          // The fresh member really works through the sharded service:
          // resolving a path whose shard it does not own is a remote
          // lookup. (With rf=2 of 3 members it owns 2/3 of the shard
          // space, so check there actually is a non-owned path first.)
          if (rank == 3) {
            auto* node = inst.cluster_node();
            std::size_t nonlocal = 0;
            for (const auto& p : all_paths) {
              const auto shard = cluster::shard_of(p, node->nshards());
              if (!node->owns_shard(shard)) ++nonlocal;
              EXPECT_TRUE(node->resolve(p).has_value()) << p;
            }
            if (nonlocal > 0) {
              EXPECT_GT(
                  inst.metrics().counter("cluster.lookups_remote").value(),
                  0u);
            }
          }
        }
        comm.barrier();
        inst.stop();
      },
      &inj);
  EXPECT_GT(inj.metrics().counter("fault.daemon_dropped").value(), 0u);
}

}  // namespace
}  // namespace fanstore
