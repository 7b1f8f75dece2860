#pragma once
// obs — the unified tracing & metrics subsystem.
//
// Three cooperating pieces, all keyed by one process-wide name interner:
//
//  * span tracer — thread-local ring buffers of completed spans
//    {name_id, category, t_begin, t_end, rank, lane}. Recording is
//    lock-free on the hot path (the thread owns its buffer; only buffer
//    REGISTRATION takes a lock, once per thread) and cheap enough for
//    per-slab / per-round use: with tracing disabled an ObsSpan is one
//    relaxed atomic load and a branch, with it enabled one steady_clock
//    read at each end plus a ring-slot store. Buffers wrap (oldest spans
//    overwritten, counted as dropped) so a runaway trace can never grow
//    memory unboundedly.
//
//  * thread tags — every span carries the recording thread's (rank, lane).
//    ptmpi::run_ranks tags each rank thread with its rank; any other thread
//    may name its own lane (set_thread_tag / set_thread_lane), and each
//    (rank, lane) pair exports as its own timeline row.
//
//  * profile accumulation — the interned-id (count, seconds) accumulators
//    behind ptim::ProfileRegistry / ScopedTimer (common/timer.hpp keeps
//    the old string API as a thin wrapper). Accumulation is always on;
//    span recording only when tracing is enabled.
//
// Readers (snapshot / drain / profile_snapshot) require a QUIESCED tracer:
// call them only when no instrumented code is running (after worker threads
// are joined, after ptmpi barriers, after run_ranks returns).
// The per-buffer atomic head makes the quiesced read well-defined without
// a lock on the record path.
//
// Exporters live in obs/trace_export.hpp (Chrome trace JSON, rank merge
// over ptmpi) and obs/step_report.hpp (per-step JSONL metrics).

#include <atomic>
#include <climits>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ptim::obs {

// Span category, exported as the Chrome trace "cat" field. The comm /
// compute split is what scripts/trace_validate.py computes the overlap
// fraction from.
enum class Cat : uint8_t {
  kCompute = 0,  // pair-form / accumulate / apply work
  kComm,         // ptmpi transfers: ring rounds, transposes, waits
  kFft,          // batched FFT passes (kernel filter, slab FFT)
  kIo,           // checkpoint/queue/campaign lifecycle
  kStep,         // whole PT-IM steps and coarse stage timers
  kOther,
};
const char* cat_name(Cat c);

// --- name interning -------------------------------------------------------
// Stable process-wide ids; id 0 is always "main" (the default lane).
uint32_t intern(const std::string& name);
// Valid for any id returned by intern(); stable for the process lifetime.
std::string name_of(uint32_t id);
size_t interned_count();

// --- per-thread tags ------------------------------------------------------
struct ThreadTag {
  int rank = -1;     // ptmpi world rank; -1 = not a rank thread (serial)
  uint32_t lane = 0; // interned lane name; 0 = "main"
};
ThreadTag thread_tag();
void set_thread_tag(ThreadTag t);
void set_thread_rank(int rank);
void set_thread_lane(uint32_t lane_id);

// --- tracing control ------------------------------------------------------
inline std::atomic<bool>& detail_enabled_flag() {
  static std::atomic<bool> on{false};
  return on;
}
inline bool enabled() {
  return detail_enabled_flag().load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Per-thread ring capacity (spans). Applies to buffers allocated AFTER the
// call; existing buffers keep their capacity. Default 1 << 16.
void set_ring_capacity(size_t spans);
size_t ring_capacity();

// Ring buffers allocated so far (one per thread that recorded while
// tracing was enabled) — the zero-overhead-when-disabled pin: recording
// spans with tracing off must never allocate one.
size_t thread_buffer_count();
// Spans lost to ring wraparound since the last clear().
uint64_t dropped_spans();

// Nanoseconds since the process trace epoch (steady clock, shared by all
// threads — in-process ptmpi ranks merge onto one consistent timeline).
uint64_t now_ns();

// A completed span. POD: trace_export ships arrays of these over ptmpi.
struct Span {
  uint64_t t0_ns = 0;
  uint64_t t1_ns = 0;
  uint32_t name_id = 0;
  uint32_t lane = 0;
  int32_t rank = -1;
  Cat cat = Cat::kOther;
};

// Record a completed span / an instant event with the calling thread's
// tags. Safe from any thread; allocates this thread's ring on first use.
void record_span(uint32_t name_id, Cat cat, uint64_t t0_ns, uint64_t t1_ns);
void mark(uint32_t name_id, Cat cat);

// Quiesced read of all recorded spans, oldest-first per thread buffer.
// rank_filter == kAllRanks keeps everything; otherwise only spans whose
// rank tag matches (each distributed rank snapshots its own lane set).
constexpr int kAllRanks = INT_MIN;
std::vector<Span> snapshot(int rank_filter = kAllRanks);
// Drop all recorded spans (buffer storage is retained for reuse).
void clear();

// --- profile accumulation (the ProfileRegistry backend) -------------------
struct ProfileSlot {
  long count = 0;
  double seconds = 0.0;
};
void profile_add(uint32_t name_id, double seconds);
ProfileSlot profile_get(uint32_t name_id);
// (name, slot) for every id with a nonzero count.
std::vector<std::pair<std::string, ProfileSlot>> profile_snapshot();
void profile_clear();

// --- RAII span ------------------------------------------------------------
class ObsSpan {
 public:
  ObsSpan(uint32_t name_id, Cat cat) {
    if (enabled()) {
      name_id_ = name_id;
      cat_ = cat;
      t0_ = now_ns();
      live_ = true;
    }
  }
  ~ObsSpan() {
    if (live_) record_span(name_id_, cat_, t0_, now_ns());
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  uint64_t t0_ = 0;
  uint32_t name_id_ = 0;
  Cat cat_ = Cat::kOther;
  bool live_ = false;
};

#define PTIM_OBS_CONCAT_(a, b) a##b
#define PTIM_OBS_CONCAT(a, b) PTIM_OBS_CONCAT_(a, b)

// Scoped span with one-time name interning per call SITE (function-local
// static): cheap enough for per-slab / per-round hot-path use.
#define OBS_SPAN(name_str, category)                             \
  static const uint32_t PTIM_OBS_CONCAT(obs_id_, __LINE__) =     \
      ::ptim::obs::intern(name_str);                             \
  ::ptim::obs::ObsSpan PTIM_OBS_CONCAT(obs_span_, __LINE__)(     \
      PTIM_OBS_CONCAT(obs_id_, __LINE__), category)

// Instant event (zero-duration), same one-time interning.
#define OBS_MARK(name_str, category)                             \
  do {                                                           \
    if (::ptim::obs::enabled()) {                                \
      static const uint32_t obs_mark_id_ =                       \
          ::ptim::obs::intern(name_str);                         \
      ::ptim::obs::mark(obs_mark_id_, category);                 \
    }                                                            \
  } while (0)

}  // namespace ptim::obs
