#pragma once
// In-process MPI substitute ("ptmpi"): thread ranks with real message
// passing. The paper's system-level contributions (the exchange ring,
// asynchronous overlap, MPI-3 shared-memory windows) are coded
// against this interface exactly as they would be against MPI, so their
// correctness is testable on one machine; the netsim module supplies the
// large-scale timing model.
//
// Provided operations (mirroring the paper's Table I columns):
//   send/recv, isend/irecv/wait, sendrecv, bcast, allreduce_sum,
//   alltoallv, allgatherv, barrier, plus node-scoped shared-memory
//   windows (MPI_Win_allocate_shared stand-in).
//
// Communicators can be split (MPI_Comm_split): Comm::split(color, key)
// groups callers by color, ranks them by (key, parent rank), and returns a
// subcommunicator whose collectives and point-to-point matching are fully
// isolated from the parent (every communicator carries its own message
// context, barrier and staging area). This is what the 2-D band x grid
// process decomposition is built on: a world of pb*pg ranks splits into pb
// row (band) communicators and pg column (grid) communicators.
//
// Every call records (calls, bytes, seconds) into per-WORLD-rank CommStats
// (subcommunicator traffic is charged to the owning world rank) — the
// measured analogue of the paper's per-op communication table.

#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"

namespace ptim::ptmpi {

struct OpStats {
  long calls = 0;
  long long bytes = 0;
  double seconds = 0.0;
};

struct CommStats {
  std::map<std::string, OpStats> ops;
  // add() is thread-safe: under the 2-D layout one rank's compute stream
  // (pencil-transpose Alltoallv inside the slab FFT) and comm stream (band
  // ring transfers) record into the same per-rank stats concurrently.
  // Reading `ops` directly is only safe once the run has quiesced (benches
  // and tests read last_run_stats() after run_ranks returns); snapshot()
  // takes a locked copy and is safe at ANY time — mid-run readers (the
  // per-step metrics sampler, live dashboards) must go through it.
  void add(const std::string& op, long long bytes, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& o = ops[op];
    o.calls += 1;
    o.bytes += bytes;
    o.seconds += seconds;
  }
  CommStats snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    CommStats out;
    out.ops = ops;
    return out;
  }
  double total_seconds() const {
    double t = 0.0;
    for (const auto& [k, v] : ops) t += v.seconds;
    return t;
  }

  CommStats() = default;
  CommStats(const CommStats& other) : ops(other.snapshot().ops) {}
  CommStats& operator=(const CommStats& other) {
    ops = other.snapshot().ops;
    return *this;
  }

 private:
  mutable std::mutex mu_;
};

class World;
struct Group;  // communicator membership + context (defined in comm.cpp)

// Nonblocking request handle.
struct Request {
  enum class Kind { kNone, kSend, kRecv };
  Kind kind = Kind::kNone;
  int peer = -1;
  int tag = 0;
  void* buf = nullptr;
  size_t bytes = 0;
};

// Per-rank communicator handle. All methods move raw bytes; typed helpers
// wrap the common complex/real cases. Copyable (a Comm is a lightweight
// view of a shared Group); copies alias the same communicator.
class Comm {
 public:
  Comm(World* world, int rank);  // the world communicator

  int rank() const { return rank_; }  // rank within THIS communicator
  int size() const;
  int world_rank() const;  // underlying world rank (stats/nodes key)
  int node() const;        // node id = world rank / ranks_per_node
  int node_rank() const;   // world rank within the node
  int ranks_per_node() const;

  // MPI_Comm_split: collective over this communicator. Callers with equal
  // `color` form one subcommunicator, ranked by (key, parent rank). Every
  // split communicator has a private message context, so traffic on it can
  // never be matched by sends on the parent or on a sibling. Nested splits
  // are allowed; the returned Comm is a value (drop it to "free" it).
  Comm split(int color, int key);

  void barrier();

  // Point-to-point (blocking and nonblocking). Messages are matched by
  // (source, tag) in FIFO order; isend is buffered (copies immediately).
  // Zero-byte messages are legal everywhere (empty band blocks).
  void send(int dest, const void* data, size_t bytes, int tag = 0);
  void recv(int src, void* data, size_t bytes, int tag = 0);
  Request isend(int dest, const void* data, size_t bytes, int tag = 0);
  Request irecv(int src, void* data, size_t bytes, int tag = 0);
  void wait(Request& req);

  // Combined neighbor exchange (the ring step).
  void sendrecv(int dest, const void* sendbuf, size_t send_bytes, int src,
                void* recvbuf, size_t recv_bytes, int tag = 0);

  // Typed FP32 overloads (counts are ELEMENTS, not bytes) — the reduced
  // precision ring payloads of the FP32 exchange pipeline. Exact pointer
  // types select these; every other pointer still falls through to the
  // raw-byte signatures above.
  void send(int dest, const float* data, size_t n, int tag = 0);
  void recv(int src, float* data, size_t n, int tag = 0);
  void send(int dest, const cplxf* data, size_t n, int tag = 0);
  void recv(int src, cplxf* data, size_t n, int tag = 0);
  void sendrecv(int dest, const float* sendbuf, size_t nsend, int src,
                float* recvbuf, size_t nrecv, int tag = 0);
  void sendrecv(int dest, const cplxf* sendbuf, size_t nsend, int src,
                cplxf* recvbuf, size_t nrecv, int tag = 0);
  void bcast(float* data, size_t n, int root);
  void bcast(cplxf* data, size_t n, int root);

  // Collectives. allreduce_sum is deterministic: every rank forms the sum
  // in rank order (0, 1, ..., p-1), so the result is bit-identical on all
  // ranks and independent of thread scheduling — the property the
  // distributed PT-IM propagator relies on to reproduce the serial
  // trajectory.
  void bcast(void* data, size_t bytes, int root);
  void allreduce_sum(cplx* data, size_t n);
  void allreduce_sum(real_t* data, size_t n);
  // FP32 reductions exist for completeness/stress-testing; the distributed
  // propagator deliberately keeps its sigma/overlap Allreduces in FP64 so
  // results stay bit-identical across ranks in every precision mode.
  void allreduce_sum(cplxf* data, size_t n);
  void allreduce_sum(float* data, size_t n);
  // Each rank contributes `send_count` elements; all ranks receive the
  // concatenation ordered by rank.
  void allgatherv(const cplx* send, size_t send_count, cplx* recv,
                  const std::vector<size_t>& counts);
  void allgatherv(const real_t* send, size_t send_count, real_t* recv,
                  const std::vector<size_t>& counts);
  // counts[i]: elements this rank sends to rank i (and symmetric layout on
  // the receive side: recv_counts[i] elements arrive from rank i).
  void alltoallv(const cplx* send, const std::vector<size_t>& send_counts,
                 cplx* recv, const std::vector<size_t>& recv_counts);
  // FP32 slab overload — the reduced-precision pencil transposes of the
  // distributed slab FFT move cplxf payloads (half the Alltoallv bytes).
  void alltoallv(const cplxf* send, const std::vector<size_t>& send_counts,
                 cplxf* recv, const std::vector<size_t>& recv_counts);

  // Node-shared window: all ranks of a node receive the same buffer; the
  // buffer is zero-initialized; identified by name (collective call). The
  // window is scoped to this communicator (same name on different split
  // communicators yields distinct windows).
  cplx* shm_allocate(const std::string& name, size_t n);

  // MPI_Fetch_and_op(MPI_SUM) stand-in on a named, zero-initialized
  // communicator-scoped counter: atomically adds `delta` and returns the
  // PREVIOUS value. NOT collective — any rank may call it at any time,
  // and concurrent calls serialize in some order (each caller sees a
  // distinct previous value). This is the idle-worker job-claim primitive
  // of the ensemble campaign layer: workers fetch_add(1) on a shared
  // cursor to claim the next job index without a coordinator rank.
  long fetch_add(const std::string& name, long delta);

  CommStats& stats();

 private:
  Comm(World* world, int rank, std::shared_ptr<Group> group);

  template <typename T>
  void alltoallv_impl(const T* send, const std::vector<size_t>& send_counts,
                      T* recv, const std::vector<size_t>& recv_counts);

  int world_rank_of(int local) const;

  World* world_;
  int rank_;  // rank within group_
  std::shared_ptr<Group> group_;
};

// Synthetic wire model for overlap benches: a point-to-point message
// becomes visible to the receiver only base_seconds + bytes *
// seconds_per_byte after the send was posted; recv/wait block until then.
// (0, 0) — the default — restores instantaneous in-process delivery.
// Applies to send/isend/sendrecv/alltoallv (the mailbox path); the
// barrier-based collectives are unaffected. This is what makes the
// overlapped ring's compute/comm overlap measurable on one machine: with
// a wire time per slab, the serialized ring pays compute + wire per round
// while the pipelined ring pays max(compute, wire).
void set_wire_model(double base_seconds, double seconds_per_byte);

// Launch `nranks` std::threads, each running fn(comm). Each rank thread's
// OpenMP team is max(1, T / nranks) threads, T being the caller's
// omp_get_max_threads(), so the ranks together use the caller's budget.
// Exceptions in any rank are re-thrown on the caller thread.
void run_ranks(int nranks, int ranks_per_node,
               const std::function<void(Comm&)>& fn);

// Access statistics recorded during the last run_ranks (indexed by rank).
const std::vector<CommStats>& last_run_stats();

}  // namespace ptim::ptmpi
