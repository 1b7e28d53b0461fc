// Core FanStore tests: metadata store, backends, daemon protocol, and the
// full multi-rank open/read/close + write paths through FanStoreFs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "compress/registry.hpp"
#include "core/checkpoint.hpp"
#include "core/instance.hpp"
#include "dlsim/datagen.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "tests/test_data.hpp"
#include "util/crc32.hpp"

namespace fanstore::core {
namespace {

using posixfs::OpenMode;

format::FileStat regular_stat(std::size_t size, int owner = 0) {
  format::FileStat s;
  s.size = size;
  s.type = format::FileType::kRegular;
  s.owner_rank = static_cast<std::uint32_t>(owner);
  return s;
}

TEST(MetadataStoreTest, InsertLookupListStructure) {
  MetadataStore meta;
  meta.insert("imagenet/cat/1.jpg", regular_stat(10));
  meta.insert("imagenet/cat/2.jpg", regular_stat(20));
  meta.insert("imagenet/dog/3.jpg", regular_stat(30));

  EXPECT_EQ(meta.file_count(), 3u);
  EXPECT_EQ(meta.lookup("imagenet/cat/2.jpg")->size, 20u);
  EXPECT_FALSE(meta.lookup("imagenet/cat/9.jpg").has_value());
  EXPECT_TRUE(meta.dir_exists("imagenet"));
  EXPECT_TRUE(meta.dir_exists("imagenet/dog"));
  EXPECT_FALSE(meta.dir_exists("imagenet/bird"));
  // Directory stats are synthesized.
  EXPECT_EQ(meta.lookup("imagenet/cat")->type, format::FileType::kDirectory);

  const auto root = meta.list("");
  ASSERT_EQ(root.size(), 1u);
  EXPECT_EQ(root[0].name, "imagenet");
  const auto cats = meta.list("imagenet/cat");
  ASSERT_EQ(cats.size(), 2u);
  EXPECT_EQ(cats[0].name, "1.jpg");
  const auto top = meta.list("imagenet");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].type, format::FileType::kDirectory);
}

TEST(MetadataStoreTest, SerializeMergeRoundTrip) {
  MetadataStore a, b;
  a.insert("x/1", regular_stat(11, 0));
  a.insert("x/2", regular_stat(22, 0));
  b.merge_serialized(as_view(a.serialize()));
  EXPECT_EQ(b.file_count(), 2u);
  EXPECT_EQ(b.lookup("x/2")->size, 22u);
  // Merging garbage is rejected.
  EXPECT_THROW(b.merge_serialized(as_view(Bytes{9, 9, 9})), std::invalid_argument);
}

TEST(BackendTest, RamBackendPutGet) {
  RamBackend be;
  be.put("a", Blob{7, Bytes{1, 2, 3}});
  EXPECT_TRUE(be.contains("a"));
  EXPECT_FALSE(be.contains("b"));
  const auto got = be.get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->compressor, 7);
  EXPECT_EQ(got->data, (Bytes{1, 2, 3}));
  EXPECT_EQ(be.bytes_used(), 3u);
  EXPECT_EQ(be.object_count(), 1u);
}

TEST(BackendTest, VfsBackendStoresOnLocalFs) {
  posixfs::MemVfs ssd;
  VfsBackend be(&ssd, ".fanstore");
  be.put("dir/file", Blob{42, Bytes{9, 8, 7, 6}});
  EXPECT_TRUE(be.contains("dir/file"));
  const auto got = be.get("dir/file");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->compressor, 42);
  EXPECT_EQ(got->data, (Bytes{9, 8, 7, 6}));
  // The object lives as a real file under the backend root.
  EXPECT_TRUE(ssd.slurp(".fanstore/dir/file").has_value());
  EXPECT_FALSE(be.get("missing").has_value());
}

// --- Multi-rank integration ------------------------------------------------

// Builds a partition of `n` generated files with the given codec.
Bytes make_partition(const std::vector<std::pair<std::string, Bytes>>& files,
                     const char* codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

TEST(FanStoreIntegrationTest, LocalAndRemoteReads) {
  // Rank 0 owns f0, rank 1 owns f1; each reads both (one local, one remote).
  const Bytes d0 = testdata::text_like(20000, 100);
  const Bytes d1 = testdata::runs_and_noise(30000, 101);
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance::Options opt;
    Instance inst(comm, opt);
    if (comm.rank() == 0) {
      inst.load_partition_blob(as_view(make_partition({{"data/f0", d0}}, "lz4hc")), 0);
    } else {
      inst.load_partition_blob(as_view(make_partition({{"data/f1", d1}}, "lzma")), 1);
    }
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    auto& fs = inst.fs();
    const auto got0 = posixfs::read_file(fs, "data/f0");
    const auto got1 = posixfs::read_file(fs, "data/f1");
    ASSERT_TRUE(got0.has_value());
    ASSERT_TRUE(got1.has_value());
    EXPECT_EQ(*got0, d0);
    EXPECT_EQ(*got1, d1);

    const auto stats = fs.metrics().snapshot();
    EXPECT_EQ(stats.counter("fs.remote_fetches"), 1u);  // one file was remote
    EXPECT_EQ(stats.counter("fs.local_misses"), 1u);

    comm.barrier();  // both done before daemons stop
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, MetadataFullyReplicatedAfterExchange) {
  mpi::run_world(4, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    files.emplace_back("d/r" + std::to_string(comm.rank()),
                       testdata::random_bytes(100, static_cast<std::uint64_t>(comm.rank())));
    inst.load_partition_blob(as_view(make_partition(files, "store")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    EXPECT_EQ(inst.metadata().file_count(), 4u);
    // stat() of every file works without touching any other rank.
    for (int r = 0; r < 4; ++r) {
      format::FileStat st;
      EXPECT_EQ(inst.fs().stat("d/r" + std::to_string(r), &st), 0);
      EXPECT_EQ(st.owner_rank, static_cast<std::uint32_t>(r));
    }
    // readdir shows the global namespace.
    const int h = inst.fs().opendir("d");
    int count = 0;
    while (inst.fs().readdir(h)) ++count;
    inst.fs().closedir(h);
    EXPECT_EQ(count, 4);
  });
}

TEST(FanStoreIntegrationTest, RfEqualsNranksMatchesClassicAllgather) {
  // replication_factor == nranks (DESIGN.md §13): every rank owns every
  // shard, so the sharded push exchange must converge to the same fully
  // replicated metadata as the classic allgather (rf = 0) —
  // byte-identical canonical (sorted per-shard) serialization and the
  // identical namespace on every rank. serialize() itself iterates the
  // hash map in insertion order, so the canonical form is the concatenation
  // of serialize_shard() over all shards, which sorts within each shard.
  constexpr int kRanks = 3;
  constexpr std::uint32_t kShards = 64;
  std::vector<Bytes> classic_blob(kRanks), sharded_blob(kRanks);
  std::vector<std::vector<std::string>> classic_paths(kRanks);

  auto canonical = [](Instance& inst) {
    Bytes out;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const Bytes shard = inst.metadata().serialize_shard(s, kShards);
      out.insert(out.end(), shard.begin(), shard.end());
    }
    return out;
  };

  auto load_files = [](Instance& inst, int rank) {
    std::vector<std::pair<std::string, Bytes>> files;
    for (int i = 0; i < 3; ++i) {
      files.emplace_back(
          "compat/r" + std::to_string(rank) + "/f" + std::to_string(i),
          testdata::random_bytes(64 + static_cast<std::size_t>(i),
                                 static_cast<std::uint64_t>(rank * 10 + i)));
    }
    inst.load_partition_blob(as_view(make_partition(files, "store")),
                             static_cast<std::uint32_t>(rank));
  };

  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    load_files(inst, comm.rank());
    inst.exchange_metadata();
    classic_blob[static_cast<std::size_t>(comm.rank())] = canonical(inst);
    classic_paths[static_cast<std::size_t>(comm.rank())] =
        inst.metadata().all_paths();
  });
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.cluster.replication_factor = kRanks;
    Instance inst(comm, std::move(opt));
    load_files(inst, comm.rank());
    inst.exchange_metadata();
    auto* node = inst.cluster_node();
    ASSERT_NE(node, nullptr);
    for (std::uint32_t s = 0; s < node->nshards(); ++s) {
      EXPECT_TRUE(node->owns_shard(s)) << "shard " << s;
    }
    sharded_blob[static_cast<std::size_t>(comm.rank())] = canonical(inst);
    EXPECT_EQ(inst.metadata().all_paths(),
              classic_paths[static_cast<std::size_t>(comm.rank())]);
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sharded_blob[static_cast<std::size_t>(r)],
              classic_blob[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(classic_blob[static_cast<std::size_t>(r)], classic_blob[0]);
  }
}

TEST(FanStoreIntegrationTest, CacheHitOnSecondOpen) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::text_like(5000, 3);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4hc")), 0);
    inst.exchange_metadata();
    (void)posixfs::read_file(inst.fs(), "f");
    (void)posixfs::read_file(inst.fs(), "f");
    EXPECT_EQ(inst.metrics().counter("cache.hits").value(), 1u);
    EXPECT_EQ(inst.metrics().counter("fs.local_misses").value(), 1u);
  });
}

TEST(FanStoreIntegrationTest, WriteOnceModel) {
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    auto& fs = inst.fs();
    if (comm.rank() == 0) {
      // Write a checkpoint, then verify write-once semantics.
      const Bytes ckpt = testdata::random_bytes(4096, 5);
      ASSERT_EQ(posixfs::write_file(fs, "out/ckpt_1.h5", as_view(ckpt)), 0);
      EXPECT_EQ(fs.open("out/ckpt_1.h5", OpenMode::kWrite), -EEXIST);
      // Reading our own output back works (local backend).
      EXPECT_EQ(*posixfs::read_file(fs, "out/ckpt_1.h5"), ckpt);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      // The home rank of the path received forwarded metadata, or rank 0
      // kept it local; either way rank 0 sees it and rank 1 sees it iff
      // rank 1 is the home rank.
      if (fs.home_rank("out/ckpt_1.h5") == 1) {
        // The forward is asynchronous: poll until the daemon applies it.
        format::FileStat st;
        int rc = -ENOENT;
        for (int tries = 0; tries < 200 && rc != 0; ++tries) {
          rc = fs.stat("out/ckpt_1.h5", &st);
          if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        EXPECT_EQ(rc, 0);
        EXPECT_EQ(st.size, 4096u);
        EXPECT_EQ(st.owner_rank, 0u);
      }
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, ConcurrentWritersRejected) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    auto& fs = inst.fs();
    const int fd1 = fs.open("log.txt", OpenMode::kWrite);
    ASSERT_GE(fd1, 0);
    EXPECT_EQ(fs.open("log.txt", OpenMode::kWrite), -EBUSY);
    fs.write(fd1, as_view(Bytes{1}));
    fs.close(fd1);
    EXPECT_EQ(fs.open("log.txt", OpenMode::kWrite), -EEXIST);
  });
}

TEST(FanStoreIntegrationTest, ErrorsArePosixStyle) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::random_bytes(100, 4);
    inst.load_partition_blob(as_view(make_partition({{"dir/f", data}}, "store")), 0);
    inst.exchange_metadata();
    auto& fs = inst.fs();
    EXPECT_EQ(fs.open("missing", OpenMode::kRead), -ENOENT);
    EXPECT_EQ(fs.open("dir", OpenMode::kRead), -EISDIR);
    EXPECT_EQ(fs.close(12345), -EBADF);
    EXPECT_EQ(fs.opendir("nothere"), -ENOENT);
    Bytes buf(4);
    EXPECT_EQ(fs.read(999, MutByteView{buf.data(), 4}), -EBADF);
  });
}

TEST(FanStoreIntegrationTest, NeighbourReadRequiresRemoteFetch) {
  mpi::run_world(4, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    files.emplace_back("p/r" + std::to_string(comm.rank()),
                       testdata::text_like(3000, static_cast<std::uint64_t>(comm.rank())));
    const Bytes part = make_partition(files, "lz4");
    inst.load_partition_blob(as_view(part), static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    // Neighbour's file requires a remote fetch (no replication here),
    // served by the neighbour's daemon — the only fetch path.
    const int neighbour = (comm.rank() + 1) % 4;
    const auto got =
        posixfs::read_file(inst.fs(), "p/r" + std::to_string(neighbour));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size(), 3000u);
    comm.barrier();
    inst.stop();  // joins the daemon: its counters are final
    const auto stats = inst.metrics().snapshot();
    EXPECT_EQ(stats.counter("fs.remote_fetches"), 1u);
    EXPECT_GT(stats.counter("fs.remote_bytes"), 0u);  // wire cost accounted
    // This rank's daemon served exactly its predecessor's one fetch.
    EXPECT_EQ(stats.counter("daemon.fetches_served"), 1u);
  });
}

TEST(FanStoreIntegrationTest, ServedFetchCountedBeforeReplyArrives) {
  // The owner counts a served fetch before its reply leaves, so a snapshot
  // taken on the owner once the requester's read has returned already
  // includes it, with no stop() to join the daemon in between.
  constexpr int kRounds = 20;
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> files;
    for (int i = 0; i < (comm.rank() == 1 ? kRounds : 1); ++i) {
      files.emplace_back("p/r" + std::to_string(comm.rank()) + "_" + std::to_string(i),
                         testdata::text_like(3000, static_cast<std::uint64_t>(i)));
    }
    inst.load_partition_blob(as_view(make_partition(files, "lz4")),
                             static_cast<std::uint32_t>(comm.rank()));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();
    for (int i = 0; i < kRounds; ++i) {
      // A different file each round: a repeat would be a cache hit.
      if (comm.rank() == 0) {
        ASSERT_TRUE(
            posixfs::read_file(inst.fs(), "p/r1_" + std::to_string(i)).has_value());
      }
      comm.barrier();
      if (comm.rank() == 1) {
        EXPECT_EQ(inst.metrics().counter("daemon.fetches_served").value(),
                  static_cast<std::uint64_t>(i + 1));
      }
      comm.barrier();
    }
    inst.stop();
  });
}

TEST(FanStoreIntegrationTest, FullSharedFsFlowWithRingReplication) {
  // End-to-end: prep packs a dataset into a shared MemVfs; 4 ranks load
  // their partitions, replicate one ring hop, exchange metadata, and read
  // the whole dataset. Replication must eliminate fetches for the
  // predecessor's partition.
  posixfs::MemVfs shared;
  std::vector<std::string> paths;
  {
    posixfs::MemVfs src;
    paths = dlsim::materialize_dataset(src, "ds", dlsim::DatasetKind::kLanguageTxt, 16);
    prep::PrepOptions opt;
    opt.num_partitions = 4;
    opt.compressor = "lz4hc";
    opt.threads = 2;
    prep::prepare_dataset(src, "ds", shared, "packed", opt);
  }
  mpi::run_world(4, [&](mpi::Comm& comm) {
    const auto manifest = prep::load_manifest(shared, "packed");
    ASSERT_EQ(manifest.partitions.size(), 4u);
    Instance inst(comm, {});
    inst.load_from_shared(shared, manifest.partition_paths());
    inst.replicate_ring(shared, manifest.partition_paths(), 1);
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    EXPECT_EQ(inst.metadata().file_count(), 16u);
    for (const auto& p : paths) {
      const auto got = posixfs::read_file(inst.fs(), p);
      ASSERT_TRUE(got.has_value()) << p;
      EXPECT_EQ(*got, dlsim::generate_file(dlsim::DatasetKind::kLanguageTxt,
                                           // index from name: ds/dXXX/Language_IIIIII.txt
                                           std::stoull(p.substr(p.size() - 10, 6))));
    }
    // 16 files / 4 partitions: own (4) + predecessor's replicated (4) are
    // local; the other 8 are remote fetches.
    EXPECT_EQ(inst.metrics().counter("fs.remote_fetches").value(), 8u);
    comm.barrier();
    inst.stop();
  });
}

TEST(DaemonProtocolTest, FetchNotFoundAndMalformed) {
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.start_daemon();
    comm.barrier();
    if (comm.rank() == 0) {
      // Not found.
      comm.send(1, kTagFetch, encode_fetch_request(5000, "ghost"));
      auto reply = comm.recv(1, 5000);
      ASSERT_GE(reply.payload.size(), 1u);
      EXPECT_EQ(reply.payload[0], kFetchNotFound);
      // Malformed (empty path).
      comm.send(1, kTagFetch, encode_fetch_request(5001, ""));
      reply = comm.recv(1, 5001);
      EXPECT_EQ(reply.payload[0], kFetchMalformed);
      // Garbage (too short) is dropped without killing the daemon.
      comm.send(1, kTagFetch, Bytes{1});
      comm.send(1, kTagWriteMeta, Bytes{1});
      // Daemon still alive: valid request answered.
      comm.send(1, kTagFetch, encode_fetch_request(5002, "ghost"));
      reply = comm.recv(1, 5002);
      EXPECT_EQ(reply.payload[0], kFetchNotFound);
    }
    comm.barrier();
    inst.stop();
  });
}

TEST(DaemonProtocolTest, StopIsIdempotent) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    inst.start_daemon();
    inst.stop();
    inst.stop();
    SUCCEED();
  });
}

TEST(FanStoreIntegrationTest, DiskBackendWorks) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    posixfs::MemVfs ssd;
    Instance::Options opt;
    opt.local_fs = &ssd;
    Instance inst(comm, opt);
    const Bytes data = testdata::text_like(10000, 8);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "deflate")), 0);
    inst.exchange_metadata();
    EXPECT_EQ(*posixfs::read_file(inst.fs(), "f"), data);
    EXPECT_GT(ssd.file_count(), 0u);  // compressed object landed on "SSD"
  });
}


TEST(FanStoreIntegrationTest, CompressedWritePath) {
  // Output files can be compressed too (write_compressor option): the
  // checkpoint round-trips and the backend holds fewer bytes than raw.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.write_compressor = compress::Registry::instance().id_by_name("lz4hc");
    Instance inst(comm, opt);
    const Bytes ckpt = testdata::text_like(50000, 42);
    ASSERT_EQ(posixfs::write_file(inst.fs(), "out/model.bin", as_view(ckpt)), 0);
    EXPECT_EQ(*posixfs::read_file(inst.fs(), "out/model.bin"), ckpt);
    EXPECT_LT(inst.backend().bytes_used(), ckpt.size() / 2);
  });
}

TEST(FanStoreIntegrationTest, CheckpointManagerOverFanStore) {
  // CheckpointManager writing through FanStoreFs with a MemVfs "shared FS"
  // mirror: the full §V-E flow on the real store.
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    posixfs::MemVfs shared;
    CheckpointManager mgr(inst.fs(), &shared, "ckpt");
    ASSERT_EQ(mgr.save(3, as_view(Bytes(1000, 0x33))), 0);
    const auto latest = mgr.latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->epoch, 3);
    // The mirror really landed on the shared FS.
    EXPECT_TRUE(shared.slurp("ckpt/ckpt_000003.bin").has_value());
  });
}


// Virtual-clock proof that chunked decompress cost is charged exactly once
// per chunk, wherever the chunk happens to materialize — the PR-3-era bug
// was a prefetch-warmed file being charged again at open(). With every
// storage/network cost zeroed and the inner codec pinned to one chunk per
// virtual second, the clock *is* the chunk-decode counter.
TEST(FanStoreIntegrationTest, ChunkedDecodeChargedOncePerChunk) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const Bytes data = testdata::runs_and_noise(std::size_t{1} << 20, 31);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.clock = &clock;
    opt.fs.decode_threads = 4;
    opt.fs.cost.read_path.per_op_s = 0;
    opt.fs.cost.read_path.metadata_op_s = 0;
    opt.fs.cost.read_path.bandwidth_bps = 1e30;  // data movement is free
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition({{"big", data}}, "chunked-64k+lz4hc")), 0);
    inst.exchange_metadata();
    const auto inner =
        compress::Registry::instance().id_by_name("lz4hc");
    // One 64 KiB chunk decodes in exactly one virtual second.
    simnet::CodecSpeedTable::shared().set_decompress_bps(
        inner, static_cast<double>(kChunk));

    auto& fs = inst.fs();
    const int fd = fs.open("big", posixfs::OpenMode::kRead);
    ASSERT_GE(fd, 0);
    EXPECT_DOUBLE_EQ(clock.now_sec(), 0.0);  // open decodes nothing

    // A window straddling one boundary: two chunks, decoded serially.
    Bytes buf(kChunk);
    ASSERT_EQ(fs.pread(fd, MutByteView(buf.data(), buf.size()), kChunk * 3 + 100),
              static_cast<std::int64_t>(buf.size()));
    EXPECT_DOUBLE_EQ(clock.now_sec(), 2.0);

    // Same window again: chunks already materialized, nothing charged.
    ASSERT_EQ(fs.pread(fd, MutByteView(buf.data(), buf.size()), kChunk * 3 + 100),
              static_cast<std::int64_t>(buf.size()));
    EXPECT_DOUBLE_EQ(clock.now_sec(), 2.0);

    // Materializing the remaining 14 chunks on 4 threads costs the parallel
    // makespan: ceil(14/4) = 4 chunk-batches, not 14 serial seconds.
    ASSERT_EQ(fs.materialize(fd), 0);
    EXPECT_DOUBLE_EQ(clock.now_sec(), 6.0);

    // Fully warm: open/read/close never touches the decompress budget again
    // (the prefetcher-warmed double-charge regression).
    fs.close(fd);
    const auto got = posixfs::read_file(fs, "big");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    EXPECT_DOUBLE_EQ(clock.now_sec(), 6.0);
  });
}

TEST(FanStoreIntegrationTest, PrefetchWarmedChunkedFileChargedOnce) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const Bytes data = testdata::runs_and_noise(std::size_t{1} << 19, 32);  // 8 chunks
  mpi::run_world(1, [&](mpi::Comm& comm) {
    simnet::VirtualClock clock;
    Instance::Options opt;
    opt.fs.cost.enabled = true;
    opt.fs.clock = &clock;
    opt.fs.decode_threads = 2;
    opt.fs.cost.read_path.per_op_s = 0;
    opt.fs.cost.read_path.metadata_op_s = 0;
    opt.fs.cost.read_path.bandwidth_bps = 1e30;
    Instance inst(comm, opt);
    inst.load_partition_blob(
        as_view(make_partition({{"w", data}}, "chunked-64k+lz4hc")), 0);
    inst.exchange_metadata();
    const auto inner = compress::Registry::instance().id_by_name("lz4hc");
    simnet::CodecSpeedTable::shared().set_decompress_bps(
        inner, static_cast<double>(kChunk));

    // Warm (the prefetcher's path): 8 chunks on 2 threads = 4 batches.
    ASSERT_TRUE(inst.fs().warm_file("w"));
    EXPECT_DOUBLE_EQ(clock.now_sec(), 4.0);

    // The training thread's open + read must charge zero extra decode time.
    const auto got = posixfs::read_file(inst.fs(), "w");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, data);
    EXPECT_DOUBLE_EQ(clock.now_sec(), 4.0);
  });
}

TEST(FanStoreIntegrationTest, StatsReportMentionsActivity) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    const Bytes data = testdata::text_like(2000, 2);
    inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4")), 0);
    inst.exchange_metadata();
    (void)posixfs::read_file(inst.fs(), "f");
    const std::string report = inst.stats_report();
    EXPECT_NE(report.find("opens=1"), std::string::npos) << report;
    EXPECT_NE(report.find("local=1"), std::string::npos) << report;
    EXPECT_NE(report.find("backend 1 objs"), std::string::npos) << report;
  });
}

TEST(RetryPolicyTest, ValidateRejectsBadConfigs) {
  RetryPolicy p;
  EXPECT_NO_THROW(p.validate());
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.base_delay_ms = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.base_delay_ms = 10;
  p.max_delay_ms = 5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.jitter = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.jitter = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(RetryPolicyTest, ExponentialGrowthCapsWithoutJitter) {
  RetryPolicy p;
  p.jitter = 0.0;
  p.base_delay_ms = 2;
  p.max_delay_ms = 16;
  EXPECT_EQ(p.delay_ms(1, 0), 2);
  EXPECT_EQ(p.delay_ms(2, 0), 4);
  EXPECT_EQ(p.delay_ms(3, 0), 8);
  EXPECT_EQ(p.delay_ms(4, 0), 16);
  EXPECT_EQ(p.delay_ms(5, 0), 16);   // hard cap
  EXPECT_EQ(p.delay_ms(40, 0), 16);  // no overflow past the cap
  p.base_delay_ms = 0;
  EXPECT_EQ(p.delay_ms(3, 0), 0);  // backoff disabled
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.jitter = 0.5;
  p.base_delay_ms = 8;
  p.max_delay_ms = 64;
  bool salt_matters = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const int full = std::min(p.max_delay_ms, p.base_delay_ms << (attempt - 1));
    for (const std::uint64_t salt : {0ull, 1ull, 0xFEEDull}) {
      const int d = p.delay_ms(attempt, salt);
      // Same (seed, salt, attempt) -> same delay, always within
      // [delay * (1 - jitter), delay].
      EXPECT_EQ(d, p.delay_ms(attempt, salt));
      EXPECT_GE(d, full / 2) << attempt;
      EXPECT_LE(d, full) << attempt;
    }
    if (p.delay_ms(attempt, 1) != p.delay_ms(attempt, 2)) salt_matters = true;
  }
  EXPECT_TRUE(salt_matters);
}

TEST(FanStoreOptionsTest, NegativeTimeoutAndBadRetryAreRejected) {
  mpi::run_world(1, [&](mpi::Comm& comm) {
    {
      Instance::Options opt;
      opt.fs.fetch_timeout_ms = -1;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
    {
      Instance::Options opt;
      opt.fs.failover_hops = -1;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
    {
      Instance::Options opt;
      opt.fs.retry.max_attempts = 0;
      EXPECT_THROW(Instance inst(comm, opt), std::invalid_argument);
    }
  });
}

TEST(FanStoreOptionsTest, ZeroTimeoutMeansWaitForever) {
  // fetch_timeout_ms == 0 is the explicit "no timeout" mode: the fetch
  // blocks until the daemon answers (no failover, no retry bookkeeping),
  // even when the answer takes far longer than any finite default.
  const Bytes data = testdata::text_like(3000, 3);
  mpi::run_world(2, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.fetch_timeout_ms = 0;
    Instance inst(comm, opt);
    if (comm.rank() == 1) {
      inst.load_partition_blob(as_view(make_partition({{"f", data}}, "lz4")), 0, 1);
    }
    inst.exchange_metadata();
    if (comm.rank() == 1) {
      // Start the owner's daemon only after a delay: a timed fetch with a
      // short window would have given up; the no-timeout fetch must wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      inst.start_daemon();
    }
    if (comm.rank() == 0) {
      const auto got = posixfs::read_file(inst.fs(), "f");
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, data);
      EXPECT_EQ(inst.metrics().counter("retry.timeouts").value(), 0u);
      EXPECT_EQ(inst.metrics().counter("fs.failovers").value(), 0u);
    }
    comm.barrier();
    inst.stop();
  });
}

}  // namespace
}  // namespace fanstore::core
