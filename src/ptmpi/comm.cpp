#include "ptmpi/comm.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ptim::ptmpi {

namespace {

// Wire model (set_wire_model): messages carry an arrival deadline computed
// at push time; pop blocks until the deadline passes. Zero = off.
std::atomic<double> g_wire_base{0.0};
std::atomic<double> g_wire_per_byte{0.0};

using wire_clock = std::chrono::steady_clock;

struct Message {
  int tag;
  int context;  // communicator the message was sent on
  std::vector<unsigned char> payload;
  wire_clock::time_point ready_at;
};

// Mailbox per destination rank.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  // keyed by source world rank; FIFO per (src, context, tag).
  std::map<int, std::deque<Message>> queues;
};

}  // namespace

// Communicator membership: the world ranks of the members (ordered by local
// rank), a private message context, and the barrier/staging state every
// barrier-based collective on this communicator uses. One Group instance is
// SHARED by all member threads (interned in the World), so the barrier
// generation counter and the staging slots synchronize correctly.
struct Group {
  std::vector<int> members;        // world rank of each local rank
  int context = 0;                 // message-matching context id
  std::vector<const void*> staged; // per-local-rank staging pointers

  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  long gen = 0;

  Group(std::vector<int> m, int ctx)
      : members(std::move(m)), context(ctx), staged(members.size(), nullptr) {}

  int size() const { return static_cast<int>(members.size()); }

  void barrier() {
    std::unique_lock<std::mutex> lock(mu);
    const long g = gen;
    if (++count == size()) {
      count = 0;
      ++gen;
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return gen != g; });
    }
  }
};

class World {
 public:
  World(int nranks, int ranks_per_node)
      : nranks_(nranks),
        ranks_per_node_(ranks_per_node),
        mailboxes_(static_cast<size_t>(nranks)),
        stats_(static_cast<size_t>(nranks)) {
    for (auto& mb : mailboxes_) mb = std::make_unique<Mailbox>();
    std::vector<int> all(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r) all[static_cast<size_t>(r)] = r;
    world_group_ = std::make_shared<Group>(std::move(all), 0);
  }

  int nranks() const { return nranks_; }
  int ranks_per_node() const { return ranks_per_node_; }
  const std::shared_ptr<Group>& world_group() const { return world_group_; }

  // Context ids for split communicators: a contiguous block per split call,
  // reserved by the parent's rank-0 member so every member agrees.
  int alloc_contexts(int n) { return next_context_.fetch_add(n); }

  // One shared Group instance per context: the first member to arrive
  // creates it, the rest attach. Contexts are unique per (split, color), so
  // the membership is always consistent.
  std::shared_ptr<Group> intern_group(int context, std::vector<int> members) {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto& g = groups_[context];
    if (!g) g = std::make_shared<Group>(std::move(members), context);
    return g;
  }

  void push(int src, int dest, int context, int tag, const void* data,
            size_t bytes) {
    Mailbox& mb = *mailboxes_[static_cast<size_t>(dest)];
    Message msg;
    msg.tag = tag;
    msg.context = context;
    if (bytes > 0)  // zero-byte messages are legal (empty band blocks)
      msg.payload.assign(static_cast<const unsigned char*>(data),
                         static_cast<const unsigned char*>(data) + bytes);
    msg.ready_at =
        wire_clock::now() +
        std::chrono::duration_cast<wire_clock::duration>(
            std::chrono::duration<double>(
                g_wire_base.load(std::memory_order_relaxed) +
                static_cast<double>(bytes) *
                    g_wire_per_byte.load(std::memory_order_relaxed)));
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      mb.queues[src].push_back(std::move(msg));
    }
    mb.cv.notify_all();
  }

  void pop(int src, int dest, int context, int tag, void* data, size_t bytes) {
    Mailbox& mb = *mailboxes_[static_cast<size_t>(dest)];
    std::unique_lock<std::mutex> lock(mb.mu);
    for (;;) {
      auto& q = mb.queues[src];
      bool waiting_on_wire = false;
      wire_clock::time_point deadline{};
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->tag == tag && it->context == context) {
          // FIFO per (src, context, tag): the first match is THE message;
          // if its wire deadline has not passed yet, wait for it rather
          // than skipping ahead to a later (out-of-order) one.
          if (it->ready_at > wire_clock::now()) {
            waiting_on_wire = true;
            deadline = it->ready_at;
            break;
          }
          PTIM_CHECK_MSG(it->payload.size() == bytes,
                         "ptmpi: message size mismatch (tag " << tag << ")");
          if (bytes > 0) std::memcpy(data, it->payload.data(), bytes);
          q.erase(it);
          return;
        }
      }
      if (waiting_on_wire)
        mb.cv.wait_until(lock, deadline);
      else
        mb.cv.wait(lock);
    }
  }

  cplx* shm(const std::string& name, int node, int context, size_t n) {
    std::lock_guard<std::mutex> lock(shm_mu_);
    auto& buf = shm_[{name, {node, context}}];
    if (buf.size() != n) buf.assign(n, cplx(0.0));
    return buf.data();
  }

  long fetch_add(const std::string& name, int context, long delta) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    long& c = counters_[{name, context}];  // zero-initialized on first touch
    const long prev = c;
    c += delta;
    return prev;
  }

  CommStats& stats(int rank) { return stats_[static_cast<size_t>(rank)]; }
  std::vector<CommStats> take_stats() { return stats_; }

 private:
  int nranks_;
  int ranks_per_node_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> stats_;
  std::shared_ptr<Group> world_group_;

  std::atomic<int> next_context_{1};
  std::mutex groups_mu_;
  std::map<int, std::shared_ptr<Group>> groups_;

  std::mutex shm_mu_;
  // Keyed by (name, node, context): windows are scoped to the communicator
  // they were allocated on, and node/context must not alias.
  std::map<std::pair<std::string, std::pair<int, int>>, std::vector<cplx>>
      shm_;

  std::mutex counters_mu_;
  // Named atomic counters, scoped (like shm windows) by the context of the
  // communicator they were touched through.
  std::map<std::pair<std::string, int>, long> counters_;
};

// ----------------------------------------------------------------- Comm --

Comm::Comm(World* world, int rank)
    : world_(world), rank_(rank), group_(world->world_group()) {}

Comm::Comm(World* world, int rank, std::shared_ptr<Group> group)
    : world_(world), rank_(rank), group_(std::move(group)) {}

int Comm::world_rank_of(int local) const {
  return group_->members[static_cast<size_t>(local)];
}

int Comm::size() const { return group_->size(); }
int Comm::world_rank() const { return world_rank_of(rank_); }
int Comm::ranks_per_node() const { return world_->ranks_per_node(); }
int Comm::node() const { return world_rank() / world_->ranks_per_node(); }
int Comm::node_rank() const { return world_rank() % world_->ranks_per_node(); }
CommStats& Comm::stats() { return world_->stats(world_rank()); }

void Comm::barrier() { group_->barrier(); }

Comm Comm::split(int color, int key) {
  Group& g = *group_;
  const int p = g.size();

  // Stage every member's (color, key); the barriers around the read window
  // make the stack-local Info safely visible to all members.
  struct Info {
    int color, key;
  };
  const Info my{color, key};
  g.staged[static_cast<size_t>(rank_)] = &my;
  g.barrier();

  std::vector<int> colors;  // distinct colors, sorted
  // (key, parent rank) pairs of my color, in subcommunicator rank order.
  std::vector<std::pair<int, int>> mine;
  for (int r = 0; r < p; ++r) {
    const Info& info =
        *static_cast<const Info*>(g.staged[static_cast<size_t>(r)]);
    colors.push_back(info.color);
    if (info.color == color) mine.push_back({info.key, r});
  }
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  std::sort(mine.begin(), mine.end());
  g.barrier();  // all reads done before the staging slots are reused

  // Parent rank 0 reserves one context per color; everyone reads the base.
  int base = 0;
  if (rank_ == 0) {
    base = world_->alloc_contexts(static_cast<int>(colors.size()));
    g.staged[0] = &base;
  }
  g.barrier();
  const int ctx_base = *static_cast<const int*>(g.staged[0]);
  g.barrier();

  const auto ci = static_cast<int>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  std::vector<int> members;
  members.reserve(mine.size());
  int my_local = 0;
  for (size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].second == rank_) my_local = static_cast<int>(i);
    members.push_back(world_rank_of(mine[i].second));
  }
  auto grp = world_->intern_group(ctx_base + ci, std::move(members));
  return Comm(world_, my_local, std::move(grp));
}

void Comm::send(int dest, const void* data, size_t bytes, int tag) {
  Timer t;
  world_->push(world_rank(), world_rank_of(dest), group_->context, tag, data,
               bytes);
  stats().add("Send", static_cast<long long>(bytes), t.seconds());
}

void Comm::recv(int src, void* data, size_t bytes, int tag) {
  Timer t;
  world_->pop(world_rank_of(src), world_rank(), group_->context, tag, data,
              bytes);
  stats().add("Recv", static_cast<long long>(bytes), t.seconds());
}

Request Comm::isend(int dest, const void* data, size_t bytes, int tag) {
  // Buffered eager send: the payload is copied into the mailbox now.
  world_->push(world_rank(), world_rank_of(dest), group_->context, tag, data,
               bytes);
  Request r;
  r.kind = Request::Kind::kSend;
  r.peer = dest;
  r.tag = tag;
  r.bytes = bytes;
  return r;
}

Request Comm::irecv(int src, void* data, size_t bytes, int tag) {
  Request r;
  r.kind = Request::Kind::kRecv;
  r.peer = src;
  r.tag = tag;
  r.buf = data;
  r.bytes = bytes;
  return r;
}

void Comm::wait(Request& req) {
  Timer t;
  if (req.kind == Request::Kind::kRecv)
    world_->pop(world_rank_of(req.peer), world_rank(), group_->context,
                req.tag, req.buf, req.bytes);
  // Buffered sends complete immediately.
  stats().add("Wait", static_cast<long long>(req.bytes), t.seconds());
  req.kind = Request::Kind::kNone;
}

void Comm::sendrecv(int dest, const void* sendbuf, size_t send_bytes, int src,
                    void* recvbuf, size_t recv_bytes, int tag) {
  Timer t;
  world_->push(world_rank(), world_rank_of(dest), group_->context, tag,
               sendbuf, send_bytes);
  world_->pop(world_rank_of(src), world_rank(), group_->context, tag, recvbuf,
              recv_bytes);
  stats().add("Sendrecv", static_cast<long long>(send_bytes + recv_bytes),
              t.seconds());
}

// Typed FP32 overloads: thin element-count wrappers over the byte movers —
// they share the mailbox machinery and the per-op stats, so the halved ring
// payloads show up directly in CommStats byte columns.
void Comm::send(int dest, const float* data, size_t n, int tag) {
  send(dest, static_cast<const void*>(data), n * sizeof(float), tag);
}
void Comm::recv(int src, float* data, size_t n, int tag) {
  recv(src, static_cast<void*>(data), n * sizeof(float), tag);
}
void Comm::send(int dest, const cplxf* data, size_t n, int tag) {
  send(dest, static_cast<const void*>(data), n * sizeof(cplxf), tag);
}
void Comm::recv(int src, cplxf* data, size_t n, int tag) {
  recv(src, static_cast<void*>(data), n * sizeof(cplxf), tag);
}
void Comm::sendrecv(int dest, const float* sendbuf, size_t nsend, int src,
                    float* recvbuf, size_t nrecv, int tag) {
  sendrecv(dest, static_cast<const void*>(sendbuf), nsend * sizeof(float), src,
           static_cast<void*>(recvbuf), nrecv * sizeof(float), tag);
}
void Comm::sendrecv(int dest, const cplxf* sendbuf, size_t nsend, int src,
                    cplxf* recvbuf, size_t nrecv, int tag) {
  sendrecv(dest, static_cast<const void*>(sendbuf), nsend * sizeof(cplxf), src,
           static_cast<void*>(recvbuf), nrecv * sizeof(cplxf), tag);
}
void Comm::bcast(float* data, size_t n, int root) {
  bcast(static_cast<void*>(data), n * sizeof(float), root);
}
void Comm::bcast(cplxf* data, size_t n, int root) {
  bcast(static_cast<void*>(data), n * sizeof(cplxf), root);
}

void Comm::bcast(void* data, size_t bytes, int root) {
  Timer t;
  group_->barrier();
  if (rank_ == root) group_->staged[static_cast<size_t>(rank_)] = data;
  group_->barrier();
  if (rank_ != root && bytes > 0)
    std::memcpy(data, group_->staged[static_cast<size_t>(root)], bytes);
  group_->barrier();
  stats().add("Bcast", static_cast<long long>(bytes), t.seconds());
}

namespace {
template <typename T>
void allreduce_impl(Group* g, int rank, T* data, size_t n) {
  // Deterministic reduction: every rank publishes its buffer, then sums all
  // contributions itself in communicator-rank order. The summation order is
  // therefore fixed (0, 1, ..., p-1) regardless of thread scheduling, and
  // every rank ends up with bit-identical results.
  g->staged[static_cast<size_t>(rank)] = data;
  g->barrier();
  std::vector<T> acc(n, T{});
  for (int r = 0; r < g->size(); ++r) {
    const T* src = static_cast<const T*>(g->staged[static_cast<size_t>(r)]);
    for (size_t i = 0; i < n; ++i) acc[i] += src[i];
  }
  g->barrier();  // nobody overwrites their input before everyone has read it
  // n == 0 is legal (and data may then be null; memcpy from/to null is UB
  // even for zero bytes).
  if (n > 0) std::memcpy(data, acc.data(), n * sizeof(T));
  g->barrier();
}
}  // namespace

void Comm::allreduce_sum(cplx* data, size_t n) {
  Timer t;
  allreduce_impl(group_.get(), rank_, data, n);
  stats().add("Allreduce", static_cast<long long>(n * sizeof(cplx)),
              t.seconds());
}

void Comm::allreduce_sum(real_t* data, size_t n) {
  Timer t;
  allreduce_impl(group_.get(), rank_, data, n);
  stats().add("Allreduce", static_cast<long long>(n * sizeof(real_t)),
              t.seconds());
}

void Comm::allreduce_sum(cplxf* data, size_t n) {
  Timer t;
  allreduce_impl(group_.get(), rank_, data, n);
  stats().add("Allreduce", static_cast<long long>(n * sizeof(cplxf)),
              t.seconds());
}

void Comm::allreduce_sum(float* data, size_t n) {
  Timer t;
  allreduce_impl(group_.get(), rank_, data, n);
  stats().add("Allreduce", static_cast<long long>(n * sizeof(float)),
              t.seconds());
}

namespace {
template <typename T>
void allgatherv_impl(Group* g, int rank, const T* send, T* recv,
                     const std::vector<size_t>& counts) {
  PTIM_CHECK(counts.size() == static_cast<size_t>(g->size()));
  g->staged[static_cast<size_t>(rank)] = send;
  g->barrier();
  size_t offset = 0;
  for (int r = 0; r < g->size(); ++r) {
    const size_t cnt = counts[static_cast<size_t>(r)];
    // Zero-count ranks may legitimately publish a null pointer (empty band
    // blocks); memcpy with a null source is UB even for zero bytes.
    if (cnt > 0)
      std::memcpy(recv + offset,
                  static_cast<const T*>(g->staged[static_cast<size_t>(r)]),
                  cnt * sizeof(T));
    offset += cnt;
  }
  g->barrier();
}
}  // namespace

void Comm::allgatherv(const cplx* send, size_t send_count, cplx* recv,
                      const std::vector<size_t>& counts) {
  Timer t;
  allgatherv_impl(group_.get(), rank_, send, recv, counts);
  stats().add("Allgatherv", static_cast<long long>(send_count * sizeof(cplx)),
              t.seconds());
}

void Comm::allgatherv(const real_t* send, size_t send_count, real_t* recv,
                      const std::vector<size_t>& counts) {
  Timer t;
  allgatherv_impl(group_.get(), rank_, send, recv, counts);
  stats().add("Allgatherv", static_cast<long long>(send_count * sizeof(real_t)),
              t.seconds());
}

namespace {
constexpr int kAlltoallvTag = 0x5a5a;
}

template <typename T>
void Comm::alltoallv_impl(const T* send, const std::vector<size_t>& send_counts,
                          T* recv, const std::vector<size_t>& recv_counts) {
  Timer t;
  const int p = size();
  PTIM_CHECK(send_counts.size() == static_cast<size_t>(p) &&
             recv_counts.size() == static_cast<size_t>(p));
  // Eager-push every outgoing slice (self included), then drain inbound.
  size_t send_offset = 0;
  long long bytes = 0;
  for (int r = 0; r < p; ++r) {
    const size_t cnt = send_counts[static_cast<size_t>(r)];
    world_->push(world_rank(), world_rank_of(r), group_->context, kAlltoallvTag,
                 send + send_offset, cnt * sizeof(T));
    send_offset += cnt;
    bytes += static_cast<long long>(cnt * sizeof(T));
  }
  size_t recv_offset = 0;
  for (int r = 0; r < p; ++r) {
    const size_t cnt = recv_counts[static_cast<size_t>(r)];
    world_->pop(world_rank_of(r), world_rank(), group_->context, kAlltoallvTag,
                recv + recv_offset, cnt * sizeof(T));
    recv_offset += cnt;
  }
  stats().add("Alltoallv", bytes, t.seconds());
}

void Comm::alltoallv(const cplx* send, const std::vector<size_t>& send_counts,
                     cplx* recv, const std::vector<size_t>& recv_counts) {
  alltoallv_impl(send, send_counts, recv, recv_counts);
}

void Comm::alltoallv(const cplxf* send, const std::vector<size_t>& send_counts,
                     cplxf* recv, const std::vector<size_t>& recv_counts) {
  alltoallv_impl(send, send_counts, recv, recv_counts);
}

cplx* Comm::shm_allocate(const std::string& name, size_t n) {
  group_->barrier();
  cplx* p = world_->shm(name, node(), group_->context, n);
  group_->barrier();
  return p;
}

long Comm::fetch_add(const std::string& name, long delta) {
  Timer t;
  const long prev = world_->fetch_add(name, group_->context, delta);
  stats().add("Fetch_add", static_cast<long long>(sizeof(long)), t.seconds());
  return prev;
}

void set_wire_model(double base_seconds, double seconds_per_byte) {
  g_wire_base.store(base_seconds, std::memory_order_relaxed);
  g_wire_per_byte.store(seconds_per_byte, std::memory_order_relaxed);
}

// ------------------------------------------------------------ run_ranks --

namespace {
std::vector<CommStats> g_last_stats;  // set by run_ranks
std::mutex g_last_stats_mu;
}  // namespace

void run_ranks(int nranks, int ranks_per_node,
               const std::function<void(Comm&)>& fn) {
  PTIM_CHECK(nranks >= 1 && ranks_per_node >= 1);
  World world(nranks, ranks_per_node);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks));
  threads.reserve(static_cast<size_t>(nranks));
  // The caller's OpenMP budget is split across the ranks: a new thread
  // starts from the process default, so without this p ranks would each
  // start a full team and run p times as many threads as the caller.
  const int omp_threads = std::max(1, omp_get_max_threads() / nranks);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &fn, &errors, r, omp_threads] {
      omp_set_num_threads(omp_threads);
      // Tag the rank thread so obs spans recorded anywhere below fn carry
      // the world rank.
      obs::set_thread_rank(r);
      try {
        Comm comm(&world, r);
        fn(comm);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(g_last_stats_mu);
    g_last_stats = world.take_stats();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

const std::vector<CommStats>& last_run_stats() { return g_last_stats; }

}  // namespace ptim::ptmpi
