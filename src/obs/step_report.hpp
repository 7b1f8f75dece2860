#pragma once
// StepReport — the machine-readable per-step metrics layer.
//
// One StepReport per committed PT-IM step (per rank, for distributed
// runs; per job, for campaigns), emitted as a single JSONL line through a
// MetricsSink. All counter fields are DELTAS across the step, computed by
// a StepSampler from counter snapshots the caller supplies — the sampler
// itself knows nothing about the layers the counters come from, so this
// header depends only on ptmpi (for the CommStats type).
//
// Byte attribution follows the bench_common convention: ring_bytes is the
// Sendrecv + Wait + Bcast total (all three circulate engines land in that
// set: sendrecv rings, isend/irecv rings whose bytes are recorded by
// Wait, and bcast), while Alltoallv (pencil transposes) and Allreduce
// are reported separately.
//
// Readers should deduplicate lines by (job_id, rank, step), keeping the
// LAST occurrence: a campaign job that is killed and resumed rewinds to
// its latest checkpoint and re-emits the replayed steps into the same
// append-mode file.

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <string>

#include "ptmpi/comm.hpp"

namespace ptim::obs {

struct StepReport {
  long job_id = -1;  // campaign job id; -1 for plain Simulation runs
  int rank = -1;     // ptmpi rank; -1 for serial runs
  long step = 0;     // 1-based committed step index
  double seconds = 0.0;  // wall seconds for the step

  // Fixed-point / propagator work (from PtImStepStats).
  int scf_iterations = 0;
  int outer_iterations = 0;
  int exchange_applications = 0;
  double residual = 0.0;
  int converged = 1;        // inner fixed point reached tol
  int outer_converged = 1;  // ACE outer loop passed its Fock-energy test

  // Counter deltas across the step.
  long ffts = 0;                 // ExchangeOperator::fft_count
  long long ring_bytes = 0;      // Sendrecv + Wait + Bcast
  long long alltoallv_bytes = 0; // pencil transposes
  long long allreduce_bytes = 0;
  double comm_seconds = 0.0;     // wall seconds inside all comm ops
  double isdf_fit_seconds = 0.0; // isdf.fit profile delta (solve + filter)
  long alloc_delta = 0;          // backend buffer allocations
};

// One-line JSON (no trailing newline) / parse of the same. from_jsonl
// returns false on a line it cannot parse; unknown keys are ignored so
// the schema can grow.
std::string to_jsonl(const StepReport& r);
bool from_jsonl(const std::string& line, StepReport* out);

// Counter values at an instant; the sampler differences two of these.
struct StepCounters {
  long ffts = 0;
  long alloc_count = 0;
  double isdf_fit_seconds = 0.0;
  ptmpi::CommStats comm;  // a quiesced CommStats::snapshot()
};

// Sum of bytes / seconds over the named ops ("Sendrecv", "Wait", ...).
long long ops_bytes(const ptmpi::CommStats& s,
                    std::initializer_list<const char*> ops);
double ops_seconds(const ptmpi::CommStats& s);

class StepSampler {
 public:
  void begin(const StepCounters& now);
  // Delta report since begin(); identity/propagator fields are left for
  // the caller to fill. Calling end() without begin() yields absolute
  // counter values (deltas against zero).
  StepReport end(const StepCounters& now) const;

 private:
  StepCounters base_;
  uint64_t t0_ns_ = 0;
};

// Append-mode JSONL writer; write() is thread-safe so distributed rank
// threads can share one sink.
class MetricsSink {
 public:
  explicit MetricsSink(const std::string& path);
  void write(const StepReport& r);

 private:
  std::mutex mu_;
  std::ofstream f_;
};

}  // namespace ptim::obs
