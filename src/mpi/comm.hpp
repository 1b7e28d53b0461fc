// In-process MPI subset: ranks are threads, messages are byte buffers moved
// through per-rank mailboxes, and the collectives FanStore needs
// (allgather, barrier, bcast, allreduce) are implemented over a shared
// rendezvous structure.
//
// Substitution note (DESIGN.md §1): the paper launches one FanStore process
// per node with mpiexec and communicates over InfiniBand/Omni-Path. Here
// run_world() plays the role of the MPI launcher and the mailboxes play the
// wire; the daemon protocol and collective usage are identical. Transfer
// *costs* are charged separately by simnet::NetworkModel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/sync.hpp"

namespace fanstore::fault {
class FaultInjector;
}

namespace fanstore::mpi {

/// Matches any source rank or any tag in recv().
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

struct Message {
  int source = -1;
  int tag = 0;
  Bytes payload;
};

class World;

/// Per-rank communicator handle. Methods are called from that rank's
/// thread(s); a rank may have several threads (app + daemon) sharing it.
class Comm {
 public:
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  /// Point-to-point. send() never blocks (mailboxes are unbounded).
  void send(int dest, int tag, Bytes payload) const;

  /// Blocks until a message matching (source, tag) arrives.
  Message recv(int source = kAnySource, int tag = kAnyTag) const;

  /// Non-blocking probe-and-receive; nullopt if nothing matches now.
  std::optional<Message> try_recv(int source = kAnySource, int tag = kAnyTag) const;

  /// Blocks until a message satisfying `pred` arrives. Lets multiple
  /// threads of one rank (application + daemon) share the mailbox without
  /// stealing each other's messages.
  Message recv_if(const std::function<bool(const Message&)>& pred) const;

  /// Non-blocking recv_if — the drain primitive behind single-threaded
  /// simulations (cluster::ClusterNode::poll): nullopt when no due message
  /// satisfies `pred`.
  std::optional<Message> try_recv_if(
      const std::function<bool(const Message&)>& pred) const;

  /// Like recv(), but gives up after `timeout_ms` and returns nullopt —
  /// the failure-detection primitive used for replica failover (a dead
  /// daemon never answers).
  std::optional<Message> recv_timeout(int source, int tag, int timeout_ms) const;

  /// Collectives. Every rank must call these in the same order
  /// (standard MPI semantics); only one collective may be in flight.
  void barrier() const;
  std::vector<Bytes> allgather(ByteView mine) const;
  Bytes bcast(int root, ByteView mine) const;
  std::vector<double> allreduce_sum(const std::vector<double>& mine) const;
  double allreduce_max(double mine) const;

 private:
  World* world_;
  int rank_;
};

/// Shared state for one "job": mailboxes and collective rendezvous.
///
/// Fault injection (fault/injector.hpp): when a FaultInjector is attached,
/// every point-to-point deliver() consults it — messages may be dropped,
/// duplicated, corrupted in place, or delayed (held in the mailbox until a
/// due time; receivers never see them early). Self-addressed messages
/// (e.g. the daemon's shutdown token) and collectives are exempt, so a
/// chaos plan cannot wedge teardown or desynchronize barrier generations.
class World {
 public:
  /// `time` is the clock every mailbox due-time and recv_timeout deadline
  /// is computed against (nullptr = the real wall clock). Tests inject a
  /// util::ManualTimeSource so delayed delivery and timeout expiry become
  /// deterministic functions of the test script instead of the scheduler.
  explicit World(int nranks, fault::FaultInjector* injector = nullptr,
                 util::TimeSource* time = nullptr);

  int size() const { return nranks_; }
  Comm comm(int rank) { return Comm(this, rank); }

  /// Receives currently blocked on `rank`'s mailbox (recv, recv_if,
  /// recv_timeout). Lets tests order receivers deterministically.
  std::size_t posted_receives(int rank) const;

 private:
  friend class Comm;

  // Lock order: a thread holds at most one mailbox lock at a time (deliver
  // locks the destination's, take_matching the receiver's own), and never a
  // mailbox lock together with coll_mu_.
  // A mailbox entry is a message plus its delivery due-time (now for
  // normal traffic, later for fault-injected delays); take_matching never
  // hands out an entry before it is due.
  struct Entry {
    Message msg;
    util::TimeNs due;  // on time_'s timeline
  };
  static constexpr util::TimeNs kNever = std::numeric_limits<util::TimeNs>::max();

  // What one receive accepts: (source, tag) with wildcards, or — when
  // `pred` is set — an arbitrary predicate (recv_if).
  struct Matcher {
    int source = kAnySource;
    int tag = kAnyTag;
    const std::function<bool(const Message&)>* pred = nullptr;
    bool operator()(const Message& m) const;
  };
  // A blocked receive, posted on its mailbox for the duration of the wait.
  // It lives on the receiver's stack: deliver fills `slot` and notifies
  // `cv` while holding the mailbox lock, so the waiter cannot return (and
  // destroy itself) before the notify completes.
  struct Waiter {
    explicit Waiter(const Matcher* m) : match(m) {}
    const Matcher* match;
    sync::AnnotatedCondVar cv;
    std::optional<Message> slot;  // handed over by deliver; unposts the waiter
    util::TimeNs wake = kNever;   // the timed wait's target
  };
  // MPI-style matching: `queue` holds the unexpected messages (arrived,
  // not yet taken), `posted` the blocked receives in posting order. A
  // delivered message goes to the first posted receive it matches, and only
  // that receiver wakes.
  struct Mailbox {
    sync::Mutex mu{"mpi.mailbox.mu"};
    std::deque<Entry> queue GUARDED_BY(mu);
    std::vector<Waiter*> posted GUARDED_BY(mu);
  };

  void deliver(int dest, Message msg);
  void dispatch(Mailbox& mb) REQUIRES(mb.mu);
  static std::optional<Message> take_due(Mailbox& mb, const Matcher& match,
                                         util::TimeNs now, util::TimeNs* earliest)
      REQUIRES(mb.mu);
  std::optional<Message> take_matching(int rank, const Matcher& match, bool block,
                                       int timeout_ms = -1);

  void barrier_impl() EXCLUDES(coll_mu_);
  std::vector<Bytes> allgather_impl(int rank, ByteView mine) EXCLUDES(coll_mu_);

  int nranks_;
  fault::FaultInjector* injector_;
  util::TimeSource* time_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Interconnect observability ("mpi.*" in the global registry): message
  // and byte totals the wire would carry; bumped lock-free on deliver.
  obs::Counter& messages_sent_;
  obs::Counter& bytes_sent_;
  obs::Counter& collectives_;

  // Generation-counted rendezvous shared by all collectives.
  sync::Mutex coll_mu_{"mpi.coll_mu"};
  sync::AnnotatedCondVar coll_cv_;
  int coll_arrived_ GUARDED_BY(coll_mu_) = 0;
  std::uint64_t coll_generation_ GUARDED_BY(coll_mu_) = 0;
  std::vector<Bytes> coll_slots_ GUARDED_BY(coll_mu_);
};

/// Spawns `nranks` threads, runs `fn(comm)` on each, joins them all.
/// Exceptions thrown by any rank are rethrown (first one wins) after join.
/// `injector` (may be nullptr) attaches a fault-injection plan to every
/// point-to-point message of the world (chaos tests); `time` (may be
/// nullptr = wall clock) is the world's delivery/timeout clock.
void run_world(int nranks, const std::function<void(Comm&)>& fn,
               fault::FaultInjector* injector = nullptr,
               util::TimeSource* time = nullptr);

}  // namespace fanstore::mpi
