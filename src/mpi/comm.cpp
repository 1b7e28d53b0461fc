#include "mpi/comm.hpp"

#include "fault/injector.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace fanstore::mpi {

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, Bytes payload) const {
  world_->deliver(dest, Message{rank_, tag, std::move(payload)});
}

Message Comm::recv(int source, int tag) const {
  return *world_->take_matching(rank_, World::Matcher{source, tag}, /*block=*/true);
}

std::optional<Message> Comm::try_recv(int source, int tag) const {
  return world_->take_matching(rank_, World::Matcher{source, tag}, /*block=*/false);
}

Message Comm::recv_if(const std::function<bool(const Message&)>& pred) const {
  return *world_->take_matching(rank_, World::Matcher{kAnySource, kAnyTag, &pred},
                                /*block=*/true);
}

std::optional<Message> Comm::try_recv_if(
    const std::function<bool(const Message&)>& pred) const {
  return world_->take_matching(rank_, World::Matcher{kAnySource, kAnyTag, &pred},
                               /*block=*/false);
}

std::optional<Message> Comm::recv_timeout(int source, int tag, int timeout_ms) const {
  return world_->take_matching(rank_, World::Matcher{source, tag}, /*block=*/true,
                               timeout_ms);
}

void Comm::barrier() const {
  obs::TraceSpan span("mpi.barrier");
  world_->collectives_.inc();
  world_->barrier_impl();
}

std::vector<Bytes> Comm::allgather(ByteView mine) const {
  obs::TraceSpan span("mpi.allgather");
  world_->collectives_.inc();
  return world_->allgather_impl(rank_, mine);
}

Bytes Comm::bcast(int root, ByteView mine) const {
  auto all = world_->allgather_impl(rank_, rank_ == root ? mine : ByteView{});
  return std::move(all[static_cast<std::size_t>(root)]);
}

std::vector<double> Comm::allreduce_sum(const std::vector<double>& mine) const {
  Bytes raw(mine.size() * sizeof(double));
  std::memcpy(raw.data(), mine.data(), raw.size());
  const auto all = world_->allgather_impl(rank_, as_view(raw));
  std::vector<double> sum(mine.size(), 0.0);
  for (const Bytes& contrib : all) {
    if (contrib.size() != raw.size()) {
      throw std::logic_error("allreduce_sum: rank contributed mismatched length");
    }
    for (std::size_t i = 0; i < sum.size(); ++i) {
      double v;
      std::memcpy(&v, contrib.data() + i * sizeof(double), sizeof(double));
      sum[i] += v;
    }
  }
  return sum;
}

double Comm::allreduce_max(double mine) const {
  Bytes raw(sizeof(double));
  std::memcpy(raw.data(), &mine, sizeof(double));
  const auto all = world_->allgather_impl(rank_, as_view(raw));
  double best = mine;
  for (const Bytes& contrib : all) {
    if (contrib.size() != sizeof(double)) {
      throw std::logic_error("allreduce_max: rank contributed mismatched length");
    }
    double v;
    std::memcpy(&v, contrib.data(), sizeof(double));
    best = std::max(best, v);
  }
  return best;
}

World::World(int nranks, fault::FaultInjector* injector, util::TimeSource* time)
    : nranks_(nranks),
      injector_(injector),
      time_(time != nullptr ? time : &util::TimeSource::real()),
      messages_sent_(obs::MetricsRegistry::global().counter("mpi.messages_sent")),
      bytes_sent_(obs::MetricsRegistry::global().counter("mpi.bytes_sent")),
      collectives_(obs::MetricsRegistry::global().counter("mpi.collectives")) {
  if (nranks <= 0) throw std::invalid_argument("World: nranks must be positive");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  coll_slots_.resize(static_cast<std::size_t>(nranks));
}

std::size_t World::posted_receives(int rank) const {
  Mailbox& mb = *mailboxes_.at(static_cast<std::size_t>(rank));
  sync::MutexLock lk(mb.mu);
  return mb.posted.size();
}

void World::deliver(int dest, Message msg) {
  if (dest < 0 || dest >= nranks_) throw std::out_of_range("send: bad destination rank");
  messages_sent_.inc();
  bytes_sent_.inc(msg.payload.size());
  util::TimeNs due = time_->now_ns();
  bool duplicate = false;
  // Fault boundary: the message "left the wire" (counted above) but may
  // never arrive, arrive twice, arrive late, or arrive mangled. Self-sends
  // are exempt so shutdown tokens and loopback control always land.
  if (injector_ != nullptr && msg.source != dest) {
    const fault::MessageVerdict v =
        injector_->on_message(msg.source, dest, msg.tag, msg.payload);
    if (v.drop) return;
    duplicate = v.duplicate;
    if (v.delay_ms > 0) due += util::ms_to_ns(v.delay_ms);
  }
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
  sync::MutexLock lk(mb.mu);
  if (duplicate) mb.queue.push_back(Entry{msg, due});
  mb.queue.push_back(Entry{std::move(msg), due});
  dispatch(mb);
}

bool World::Matcher::operator()(const Message& m) const {
  if (pred != nullptr) return (*pred)(m);
  return (source == kAnySource || m.source == source) &&
         (tag == kAnyTag || m.tag == tag);
}

std::optional<Message> World::take_due(Mailbox& mb, const Matcher& match,
                                       util::TimeNs now, util::TimeNs* earliest) {
  for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
    if (!match(it->msg)) continue;
    if (it->due <= now) {
      Message m = std::move(it->msg);
      mb.queue.erase(it);
      return m;
    }
    *earliest = std::min(*earliest, it->due);
  }
  return std::nullopt;
}

// Hands each posted receive, in posting order, the first due entry it
// matches, and wakes only the receivers it served. A receiver whose only
// match is not yet due (a fault-injected delay) and comes due before its
// current timed wait ends is woken too, so it re-arms for that due-time.
// Every notify happens under mb.mu: the Waiter lives on the receiver's
// stack and is gone as soon as the receiver reacquires the lock.
void World::dispatch(Mailbox& mb) {
  if (mb.posted.empty()) return;
  const util::TimeNs now = time_->now_ns();
  for (auto it = mb.posted.begin(); it != mb.posted.end() && !mb.queue.empty();) {
    Waiter& w = **it;
    util::TimeNs earliest = kNever;
    w.slot = take_due(mb, *w.match, now, &earliest);
    if (w.slot) {
      it = mb.posted.erase(it);
      w.cv.notify_one();
      continue;
    }
    if (earliest < w.wake) w.cv.notify_one();
    ++it;
  }
}

std::optional<Message> World::take_matching(int rank, const Matcher& match,
                                            bool block, int timeout_ms) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(rank)];
  sync::MutexLock lk(mb.mu);
  util::TimeNs now = time_->now_ns();
  const util::TimeNs deadline =
      timeout_ms >= 0 ? now + util::ms_to_ns(timeout_ms) : kNever;
  // A matching entry whose delivery time lies in the future bounds how
  // long we sleep: a delayed message must surface the moment it comes due,
  // without another deliver.
  util::TimeNs earliest = kNever;
  if (auto m = take_due(mb, match, now, &earliest)) return m;
  if (!block || now >= deadline) return std::nullopt;
  Waiter w(&match);
  mb.posted.push_back(&w);
  for (;;) {
    w.wake = std::min(deadline, earliest);
    if (w.wake == kNever) {
      w.cv.wait(mb.mu);
    } else {
      time_->wait_until(w.cv, mb.mu, w.wake);
    }
    if (w.slot) return std::move(w.slot);  // dispatch already unposted w
    now = time_->now_ns();
    earliest = kNever;
    std::optional<Message> m = take_due(mb, match, now, &earliest);
    if (m || now >= deadline) {
      std::erase(mb.posted, &w);
      return m;
    }
  }
}

void World::barrier_impl() {
  sync::MutexLock lk(coll_mu_);
  const std::uint64_t gen = coll_generation_;
  if (++coll_arrived_ == nranks_) {
    coll_arrived_ = 0;
    ++coll_generation_;
    coll_cv_.notify_all();
  } else {
    coll_cv_.wait(coll_mu_,
                  [&]() NO_THREAD_SAFETY_ANALYSIS { return coll_generation_ != gen; });
  }
}

std::vector<Bytes> World::allgather_impl(int rank, ByteView mine) {
  {
    sync::MutexLock lk(coll_mu_);
    coll_slots_[static_cast<std::size_t>(rank)] = Bytes(mine.begin(), mine.end());
  }
  barrier_impl();  // all deposits visible
  std::vector<Bytes> result;
  {
    sync::MutexLock lk(coll_mu_);
    result = coll_slots_;
  }
  barrier_impl();  // nobody re-deposits before everyone has copied
  return result;
}

void run_world(int nranks, const std::function<void(Comm&)>& fn,
               fault::FaultInjector* injector, util::TimeSource* time) {
  World world(nranks, injector, time);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::exception_ptr first_error;
  sync::Mutex err_mu{"mpi.run_world.err_mu"};
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm = world.comm(r);
      try {
        fn(comm);
      } catch (...) {
        sync::MutexLock lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fanstore::mpi
