// Socket-level conformance suite for the daemon front door, run against
// all three server flavours (legacy thread-per-connection UDS, event-driven
// over UDS, event-driven over TCP loopback): hostile and half-broken
// clients — truncated frames, oversized declared lengths, garbage headers,
// byte-at-a-time dribbling, silent connections — must produce a clean
// error reply or a closed connection, never a hang, an fd leak, or a
// crash, and the server must keep serving well-formed clients throughout.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "ipc/protocol.hpp"
#include "ipc/server.hpp"
#include "ipc/transport.hpp"
#include "ipc/uds_client.hpp"
#include "ipc/uds_server.hpp"
#include "obs/metrics.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/sanitizer_env.hpp"
#include "tests/test_data.hpp"
#include "util/bytes.hpp"

namespace fanstore::ipc {
namespace {

constexpr int scale_ms(int ms) {
  return testsupport::kUnderSanitizer ? ms * 5 : ms;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fanstore_conf_" + std::to_string(getpid()) + "_" + tag + ".sock";
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// Raw client socket with send/recv timeouts so a misbehaving *server*
// fails the test instead of hanging it.
int raw_connect(const std::string& spec) {
  const auto ep = Endpoint::parse(spec);
  if (!ep.has_value()) return -1;
  const int fd = transport_connect(*ep);
  if (fd < 0) return fd;
  timeval tv{};
  tv.tv_sec = scale_ms(5000) / 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

enum class Flavor { kLegacy, kEventUds, kEventTcp };

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::kLegacy: return "legacy";
    case Flavor::kEventUds: return "event_uds";
    case Flavor::kEventTcp: return "event_tcp";
  }
  return "?";
}

// One running server of the given flavour over a MemVfs with known files.
class Harness {
 public:
  explicit Harness(Flavor flavor, ServerOptions options = {}) : flavor_(flavor) {
    posixfs::write_file(fs_, "ds/small", as_view(small_));
    posixfs::write_file(fs_, "ds/big", as_view(big_));
    switch (flavor) {
      case Flavor::kLegacy: {
        spec_ = unique_socket_path("legacy");
        legacy_ = std::make_unique<UdsServer>(spec_, fs_);
        legacy_->start();
        break;
      }
      case Flavor::kEventUds:
      case Flavor::kEventTcp: {
        // Small fixed thread counts: the point of the event server is that
        // client count is independent of thread count.
        if (options.shards == 0) options.shards = 2;
        if (options.blocker_threads == 0) options.blocker_threads = 2;
        const Endpoint ep = flavor == Flavor::kEventUds
                                ? Endpoint::uds(unique_socket_path("event"))
                                : Endpoint::tcp("127.0.0.1", 0);
        server_ = std::make_unique<Server>(std::vector<Endpoint>{ep}, fs_,
                                           options);
        server_->start();
        spec_ = server_->endpoints()[0].to_string();
        break;
      }
    }
  }

  const std::string& spec() const { return spec_; }
  const Bytes& small() const { return small_; }
  const Bytes& big() const { return big_; }
  Server* event_server() { return server_.get(); }

  void stop() {
    if (legacy_) legacy_->stop();
    if (server_) server_->stop();
  }

  // The canary: a fresh well-formed client still gets correct bytes.
  void expect_still_serving() {
    UdsClientVfs client(spec_);
    const auto got = posixfs::read_file(client, "ds/small");
    ASSERT_TRUE(got.has_value()) << flavor_name(flavor_) << " stopped serving";
    EXPECT_EQ(*got, small_);
  }

 private:
  Flavor flavor_;
  posixfs::MemVfs fs_;
  Bytes small_ = testdata::random_bytes(512, 7);
  Bytes big_ = testdata::random_bytes(256 << 10, 8);
  std::unique_ptr<UdsServer> legacy_;
  std::unique_ptr<Server> server_;
  std::string spec_;
};

class IpcConformanceTest : public ::testing::TestWithParam<Flavor> {};

INSTANTIATE_TEST_SUITE_P(AllServers, IpcConformanceTest,
                         ::testing::Values(Flavor::kLegacy, Flavor::kEventUds,
                                           Flavor::kEventTcp),
                         [](const auto& info) {
                           return flavor_name(info.param);
                         });

TEST_P(IpcConformanceTest, ServesGetStatListAndNotFound) {
  Harness h(GetParam());
  UdsClientVfs client(h.spec());
  EXPECT_EQ(*posixfs::read_file(client, "ds/small"), h.small());
  EXPECT_EQ(*posixfs::read_file(client, "ds/big"), h.big());

  format::FileStat st;
  ASSERT_EQ(client.stat("ds/big", &st), 0);
  EXPECT_EQ(st.size, h.big().size());
  EXPECT_EQ(client.stat("ds/absent", &st), -ENOENT);
  EXPECT_EQ(client.open("ds/absent", posixfs::OpenMode::kRead), -ENOENT);

  const int dh = client.opendir("ds");
  ASSERT_GE(dh, 0);
  int entries = 0;
  while (client.readdir(dh).has_value()) ++entries;
  EXPECT_EQ(client.closedir(dh), 0);
  EXPECT_EQ(entries, 2);
  h.stop();
}

TEST_P(IpcConformanceTest, TruncatedFrameThenCloseIsHarmless) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // Declare 100 bytes, deliver 10, vanish.
  Bytes partial;
  append_le<std::uint32_t>(partial, 100);
  for (int i = 0; i < 10; ++i) partial.push_back(0x41);
  ASSERT_TRUE(send_all(fd, as_view(partial)));
  ::close(fd);
  h.expect_still_serving();
  h.stop();
}

TEST_P(IpcConformanceTest, OversizedDeclaredLengthGetsErrorOrClose) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // 300 MiB declared: over the event server's max_request_bytes and over
  // the legacy read_frame sanity bound. Neither may allocate it or wait
  // for it: the reply is a clean error frame or an immediate close.
  Bytes header;
  append_le<std::uint32_t>(header, 300u << 20);
  ASSERT_TRUE(send_all(fd, as_view(header)));
  const auto reply = read_frame(fd);  // SO_RCVTIMEO turns a hang into failure
  if (reply.has_value()) {
    const auto decoded = decode_get_reply(as_view(*reply));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, Status::kError);
  }
  ::close(fd);
  h.expect_still_serving();
  h.stop();
}

TEST_P(IpcConformanceTest, GarbageHeaderGetsErrorReplyAndConnSurvives) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  // Well-framed garbage: unknown opcode 0x99 plus noise. The server must
  // answer with a kError reply and keep the connection usable.
  Bytes garbage;
  append_le<std::uint32_t>(garbage, 5);
  garbage.push_back(0x99);
  for (int i = 0; i < 4; ++i) garbage.push_back(0xEE);
  ASSERT_TRUE(send_all(fd, as_view(garbage)));
  const auto err = read_frame(fd);
  ASSERT_TRUE(err.has_value());
  const auto decoded = decode_get_reply(as_view(*err));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kError);

  ASSERT_TRUE(write_frame(fd, as_view(encode_request(Op::kGet, "ds/small"))));
  const auto ok = read_frame(fd);
  ASSERT_TRUE(ok.has_value());
  const auto got = decode_get_reply(as_view(*ok));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(got->data, h.small());
  ::close(fd);
  h.stop();
}

TEST_P(IpcConformanceTest, ByteAtATimeDribbleStillParses) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  const Bytes payload = encode_request(Op::kGet, "ds/small");
  Bytes wire;
  append_le<std::uint32_t>(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  for (const std::uint8_t b : wire) {
    ASSERT_TRUE(send_all(fd, ByteView(&b, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  const auto got = decode_get_reply(as_view(*reply));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(got->data, h.small());
  ::close(fd);
  h.stop();
}

TEST_P(IpcConformanceTest, SilentClientNeverBlocksStop) {
  Harness h(GetParam());
  const int fd = raw_connect(h.spec());
  ASSERT_GE(fd, 0);
  h.expect_still_serving();
  h.stop();  // must return despite the silent connection
  char c;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);  // EOF or reset, never data
  ::close(fd);
}

TEST_P(IpcConformanceTest, NoFdLeakAcrossHostileChurn) {
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.metrics = &metrics;
  Harness h(GetParam(), options);
  // Event servers report when every connection is reaped: `accepted`
  // counts accept(2) calls and the conns_open gauge spans accept(2) to
  // close(2), so both settling means no server-side connection fd is left
  // and the fd comparison below is exact. The deadline only bounds a hang.
  const bool event_server = GetParam() != Flavor::kLegacy;
  auto wait_all_closed = [&](std::uint64_t accepted) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(scale_ms(10000));
    while (metrics.counter("ipc.accepted").value() != accepted ||
           metrics.gauge("ipc.conns_open").value() != 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  {
    // Warm up lazily-created fds (epoll/eventfd already exist; this covers
    // any per-connection lazy state) before taking the baseline.
    const int fd = raw_connect(h.spec());
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  if (event_server) {
    ASSERT_TRUE(wait_all_closed(1));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(scale_ms(50)));
  }
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 25; ++i) {
    const int fd = raw_connect(h.spec());
    ASSERT_GE(fd, 0);
    switch (i % 3) {
      case 0: {  // abort mid-frame
        Bytes partial;
        append_le<std::uint32_t>(partial, 50);
        partial.push_back(0x01);
        send_all(fd, as_view(partial));
        break;
      }
      case 1:  // full round trip, then vanish
        write_frame(fd, as_view(encode_request(Op::kGet, "ds/small")));
        read_frame(fd);
        break;
      case 2:  // connect and say nothing
        break;
    }
    ::close(fd);
  }
  if (event_server) {
    ASSERT_TRUE(wait_all_closed(26));  // warm-up + 25 churned connections
  } else {
    // The legacy server reports no connection count: give it up to 1 s to
    // reap every closed connection.
    for (int spin = 0; spin < 100 && open_fd_count() > before; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(scale_ms(10)));
    }
  }
  EXPECT_LE(open_fd_count(), before);
  h.expect_still_serving();
  h.stop();
}

// --- Event-server-only behaviour -------------------------------------------

TEST(IpcEventServerTest, EphemeralTcpPortIsResolved) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{1, 2, 3}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  Server server({Endpoint::tcp("127.0.0.1", 0)}, fs, opt);
  server.start();
  ASSERT_EQ(server.endpoints().size(), 1u);
  EXPECT_NE(server.endpoints()[0].port, 0);
  UdsClientVfs client(server.endpoints()[0].to_string());
  EXPECT_EQ(*posixfs::read_file(client, "x"), (Bytes{1, 2, 3}));
  server.stop();
}

TEST(IpcEventServerTest, IdleTimeoutClosesSilentConnection) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{9}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  opt.idle_timeout_ms = scale_ms(60);
  Server server({Endpoint::uds(unique_socket_path("idle"))}, fs, opt);
  server.start();
  const int fd = raw_connect(server.endpoints()[0].to_string());
  ASSERT_GE(fd, 0);
  char c;
  // SO_RCVTIMEO is generous; the idle sweep closes us long before it.
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);  // clean EOF from the server
  ::close(fd);
  server.stop();
}

TEST(IpcEventServerTest, ServesOnUdsAndTcpSimultaneously) {
  posixfs::MemVfs fs;
  const Bytes data = testdata::random_bytes(4096, 3);
  posixfs::write_file(fs, "both", as_view(data));
  ServerOptions opt;
  opt.shards = 2;
  opt.blocker_threads = 2;
  Server server({Endpoint::uds(unique_socket_path("dual")),
                 Endpoint::tcp("127.0.0.1", 0)},
                fs, opt);
  server.start();
  ASSERT_EQ(server.endpoints().size(), 2u);
  for (const auto& ep : server.endpoints()) {
    UdsClientVfs client(ep.to_string());
    EXPECT_EQ(*posixfs::read_file(client, "both"), data) << ep.to_string();
  }
  server.stop();
}

TEST(IpcEventServerTest, StartStopIsIdempotentAndRestartable) {
  posixfs::MemVfs fs;
  posixfs::write_file(fs, "x", as_view(Bytes{4, 2}));
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  Server server({Endpoint::uds(unique_socket_path("restart"))}, fs, opt);
  server.start();
  server.start();  // no-op
  {
    UdsClientVfs client(server.endpoints()[0].to_string());
    EXPECT_TRUE(posixfs::read_file(client, "x").has_value());
  }
  server.stop();
  server.stop();  // no-op
  server.start();  // fresh lifecycle on the same endpoints
  {
    UdsClientVfs client(server.endpoints()[0].to_string());
    EXPECT_EQ(*posixfs::read_file(client, "x"), (Bytes{4, 2}));
  }
  server.stop();
}

// --- Inline service vs the blocker pool -------------------------------------

/// A MemVfs front whose files under "gate/" stand for cache misses: open()
/// blocks until release() and the no-wait probe refuses them, so they go
/// to the blocker pool. Every other file answers through the probes.
class GatedVfs final : public posixfs::Vfs {
 public:
  explicit GatedVfs(posixfs::MemVfs& mem) : mem_(mem) {}

  void release() { released_ = true; }
  /// Waits until a gated open() has started; false on timeout.
  bool wait_entered() const {
    for (int i = 0; i < scale_ms(5000) && !entered_; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return entered_;
  }

  int open(std::string_view path, posixfs::OpenMode mode) override {
    if (gated(path)) {
      entered_ = true;
      while (!released_) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return mem_.open(path, mode);
  }
  int open_nowait(std::string_view path) override {
    return gated(path) ? -EAGAIN : mem_.open_nowait(path);
  }
  int stat_nowait(std::string_view path, format::FileStat* out) override {
    return mem_.stat_nowait(path, out);
  }
  int opendir_nowait(std::string_view path) override {
    return mem_.opendir_nowait(path);
  }
  int close(int fd) override { return mem_.close(fd); }
  std::int64_t read(int fd, MutByteView buf) override { return mem_.read(fd, buf); }
  std::int64_t write(int fd, ByteView buf) override { return mem_.write(fd, buf); }
  std::int64_t lseek(int fd, std::int64_t off, posixfs::Whence w) override {
    return mem_.lseek(fd, off, w);
  }
  int stat(std::string_view path, format::FileStat* out) override {
    return mem_.stat(path, out);
  }
  int opendir(std::string_view path) override { return mem_.opendir(path); }
  std::optional<posixfs::Dirent> readdir(int h) override { return mem_.readdir(h); }
  int closedir(int h) override { return mem_.closedir(h); }

 private:
  static bool gated(std::string_view path) { return path.rfind("gate/", 0) == 0; }
  posixfs::MemVfs& mem_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
};

TEST(IpcInlineServeTest, HitAnsweredWhileOtherConnectionsMissIsInFlight) {
  // One shard, one blocker: a miss on connection A occupies the only
  // blocker thread. B's hit must still be answered, inline on the loop.
  posixfs::MemVfs mem;
  const Bytes miss = testdata::random_bytes(3000, 11);
  const Bytes hit = testdata::random_bytes(5000, 12);
  posixfs::write_file(mem, "gate/a", as_view(miss));
  posixfs::write_file(mem, "ds/hit", as_view(hit));
  GatedVfs fs(mem);
  obs::MetricsRegistry metrics;
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 1;
  opt.metrics = &metrics;
  Server server({Endpoint::uds(unique_socket_path("inline_b"))}, fs, opt);
  server.start();
  const std::string spec = server.endpoints()[0].to_string();

  std::optional<Bytes> got_a;
  std::thread a([&] {
    UdsClientVfs client(spec);
    got_a = posixfs::read_file(client, "gate/a");
  });
  if (!fs.wait_entered()) {
    fs.release();
    a.join();
    FAIL() << "the gated miss never reached the blocker pool";
  }

  std::atomic<bool> b_done{false};
  std::optional<Bytes> got_b;
  std::thread b([&] {
    UdsClientVfs client(spec);
    got_b = posixfs::read_file(client, "ds/hit");
    b_done = true;
  });
  for (int i = 0; i < scale_ms(5000) && !b_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool b_answered_while_gated = b_done.load();
  fs.release();  // let A finish either way, so a failure cannot hang
  a.join();
  b.join();
  EXPECT_TRUE(b_answered_while_gated);
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(*got_b, hit);
  ASSERT_TRUE(got_a.has_value());
  EXPECT_EQ(*got_a, miss);
  EXPECT_EQ(metrics.counter("ipc.requests").value(), 2u);
  EXPECT_EQ(metrics.counter("ipc.inline_requests").value(), 1u);
  EXPECT_EQ(metrics.histogram("ipc.blocker_wait_us").snapshot().count, 1u);
  EXPECT_EQ(metrics.histogram("ipc.serve_us").snapshot().count, 2u);
  server.stop();
}

TEST(IpcInlineServeTest, PipelinedMissThenHitsReplyInOrder) {
  posixfs::MemVfs mem;
  const Bytes miss = testdata::random_bytes(7000, 13);
  const Bytes hit = testdata::random_bytes(900, 14);
  posixfs::write_file(mem, "gate/m", as_view(miss));
  posixfs::write_file(mem, "ds/h", as_view(hit));
  GatedVfs fs(mem);
  obs::MetricsRegistry metrics;
  ServerOptions opt;
  opt.shards = 1;
  opt.blocker_threads = 2;
  opt.metrics = &metrics;
  Server server({Endpoint::uds(unique_socket_path("inline_pipe"))}, fs, opt);
  server.start();
  const int fd = raw_connect(server.endpoints()[0].to_string());
  ASSERT_GE(fd, 0);

  // [miss, hit, hit] in one write: the hits are parsed while the miss is
  // on the blocker pool, and must not overtake it.
  Bytes wire;
  for (const auto& [op, path] :
       {std::pair{Op::kGet, "gate/m"}, std::pair{Op::kGet, "ds/h"},
        std::pair{Op::kStat, "ds/h"}}) {
    const Bytes req = encode_request(op, path);
    append_le<std::uint32_t>(wire, static_cast<std::uint32_t>(req.size()));
    wire.insert(wire.end(), req.begin(), req.end());
  }
  ASSERT_TRUE(send_all(fd, as_view(wire)));
  ASSERT_TRUE(fs.wait_entered());
  std::this_thread::sleep_for(std::chrono::milliseconds(scale_ms(50)));
  std::uint8_t probe;
  EXPECT_EQ(::recv(fd, &probe, 1, MSG_DONTWAIT), -1)
      << "a reply overtook the in-flight miss";
  fs.release();

  const auto r1 = read_frame(fd);
  ASSERT_TRUE(r1.has_value());
  const auto g1 = decode_get_reply(as_view(*r1));
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->status, Status::kOk);
  EXPECT_EQ(g1->data, miss);
  const auto r2 = read_frame(fd);
  ASSERT_TRUE(r2.has_value());
  const auto g2 = decode_get_reply(as_view(*r2));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->data, hit);
  const auto r3 = read_frame(fd);
  ASSERT_TRUE(r3.has_value());
  const auto s3 = decode_stat_reply(as_view(*r3));
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(s3->status, Status::kOk);
  EXPECT_EQ(s3->stat.size, hit.size());
  ::close(fd);
  EXPECT_EQ(metrics.counter("ipc.requests").value(), 3u);
  EXPECT_EQ(metrics.counter("ipc.inline_requests").value(), 2u);
  server.stop();
}

TEST(IpcEndpointTest, ParseAndToStringRoundTrip) {
  const auto uds = Endpoint::parse("unix:/tmp/x.sock");
  ASSERT_TRUE(uds.has_value());
  EXPECT_EQ(uds->kind, Endpoint::Kind::kUds);
  EXPECT_EQ(uds->path, "/tmp/x.sock");
  EXPECT_EQ(uds->to_string(), "unix:/tmp/x.sock");

  const auto bare = Endpoint::parse("/tmp/y.sock");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, Endpoint::Kind::kUds);

  const auto tcp = Endpoint::parse("tcp:127.0.0.1:7010");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7010);
  EXPECT_EQ(tcp->to_string(), "tcp:127.0.0.1:7010");

  EXPECT_FALSE(Endpoint::parse("tcp:127.0.0.1").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:notaport").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:70000").has_value());
  EXPECT_FALSE(Endpoint::parse("").has_value());
}

}  // namespace
}  // namespace fanstore::ipc
