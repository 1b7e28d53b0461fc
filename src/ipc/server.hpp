// Event-driven socket server for the FanStore daemon front door
// (DESIGN.md §11). Replaces the thread-per-connection UdsServer: N shard
// threads each run an epoll EventLoop over a slice of the connections.
// A request the Vfs can answer without blocking (a RAM-resident file,
// local metadata: the Vfs no-wait probes) is served inline on the shard
// loop; only one that would block goes to a fixed BlockerPool, so one
// node daemon serves hundreds of trainer processes through a fixed number
// of threads.
//
// Per-connection state machine (owned by the connection's shard thread):
//
//   reading ──complete frame──▶ queued ──probe answers──▶ served inline ──┐
//      ▲                          │                                        │
//      │                          └─would block─▶ in-flight (blocker pool) │
//      │                                           │ reply via defer()     │
//      │ resume below low-water                    ▼                       │
//   paused ◀──write queue over high-water── writing ◀─────────────────────┘
//                                              │ drained
//                                              └──▶ reading
//
// Queued frames are served in order by one loop (pump_requests): each is
// first tried with the Vfs no-wait probes, and the first that would block
// goes to the blocker pool. While it is there the connection answers
// nothing inline, so replies keep request order; its reply, completed on
// the shard loop via the eventfd wakeup, resumes the loop. Replies drain
// through a non-blocking write queue; a connection whose queued replies
// exceed `write_high_water` serves no queued frame until they drop back
// under it, and is not read (backpressure) until they drain below half.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ipc/event_loop.hpp"
#include "ipc/transport.hpp"
#include "obs/metrics.hpp"
#include "posixfs/vfs.hpp"
#include "util/sync.hpp"

namespace fanstore::ipc {

struct Request;

struct ServerOptions {
  /// Shard (event-loop) threads; 0 = hardware concurrency.
  std::size_t shards = 0;
  /// Blocker-pool threads for Vfs work that would block; 0 = max(2,
  /// hardware concurrency).
  std::size_t blocker_threads = 0;
  /// listen(2) backlog (the old server hardcoded 64).
  int backlog = 64;
  /// Largest acceptable *request* frame. Requests are an opcode + path, so
  /// anything big is garbage; a larger declared length gets an error reply
  /// and the connection is closed without allocating the claimed size.
  std::size_t max_request_bytes = 1u << 20;
  /// Per-connection queued-reply bytes above which the server serves none
  /// of that connection's queued frames, and stops reading it until the
  /// queue drains below half.
  std::size_t write_high_water = 8u << 20;
  /// Close connections idle for this long (0 = never). Idle means no
  /// bytes read or written and nothing queued or in flight.
  int idle_timeout_ms = 0;
  /// Receives the "ipc.*" instruments; nullptr = private registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Serves `fs` on every endpoint in `listen_on`. TCP endpoints with
  /// port 0 get a kernel-assigned port, visible via endpoints() after
  /// start().
  Server(std::vector<Endpoint> listen_on, posixfs::Vfs& fs,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens on every endpoint and starts the shard threads and
  /// blocker pool; throws on socket errors. Idempotent while running.
  void start() EXCLUDES(lifecycle_mu_);

  /// Graceful shutdown: stops accepting, drains in-flight requests,
  /// closes every connection, joins all threads. Idempotent.
  void stop() EXCLUDES(lifecycle_mu_);

  /// Bound endpoints (ephemeral TCP ports resolved). Valid after start().
  const std::vector<Endpoint>& endpoints() const { return bound_; }

  std::uint64_t requests_served() const { return requests_->value(); }
  /// Connection fds the server holds open, from accept(2) to close(2).
  std::int64_t connections_open() const { return conns_open_->value(); }

 private:
  struct Conn;
  struct Shard;

  void accept_ready(std::size_t listener_idx);
  void register_conn(Shard* shard, int fd);
  void conn_ready(const std::shared_ptr<Conn>& conn, std::uint32_t events);
  void parse_frames(const std::shared_ptr<Conn>& conn);
  void pump_requests(const std::shared_ptr<Conn>& conn);
  void push_reply(Conn& conn, Bytes frame, std::uint64_t t0_us);
  void send_replies(const std::shared_ptr<Conn>& conn);
  void on_reply(const std::shared_ptr<Conn>& conn, Bytes frame,
                std::uint64_t t0_us);
  void finish_round(const std::shared_ptr<Conn>& conn);
  void flush_writes(const std::shared_ptr<Conn>& conn);
  void update_interest(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void sweep_idle(Shard* shard);
  /// The framed reply to `request`; with `nowait`, nullopt (nothing done)
  /// when the Vfs would block.
  std::optional<Bytes> serve(const Request& request, bool nowait);

  posixfs::Vfs& fs_;
  ServerOptions options_;
  std::vector<Endpoint> requested_;
  std::vector<Endpoint> bound_;
  std::vector<int> listen_fds_;  // owned; registered on shard 0

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<BlockerPool> blocker_;
  std::atomic<std::size_t> next_shard_{0};
  std::atomic<bool> running_{false};
  // Serializes start()/stop() (thread spawn vs join).
  sync::Mutex lifecycle_mu_{"ipc.server.lifecycle_mu"};
  std::vector<std::thread> shard_threads_ GUARDED_BY(lifecycle_mu_);

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when not injected
  obs::Counter* accepted_;
  obs::Counter* requests_;
  obs::Counter* inline_requests_;
  obs::Counter* protocol_errors_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* idle_timeouts_;
  obs::Counter* backpressure_pauses_;
  obs::Gauge* conns_open_;
  obs::Histogram* serve_us_;
};

}  // namespace fanstore::ipc
