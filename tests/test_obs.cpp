// The obs tracing/metrics subsystem: name interning, span nesting and
// categories, ring wraparound, the zero-overhead-when-disabled pin,
// concurrent recording from worker threads on their own lanes (the TSan CI
// job races this suite), the self-contained span wire format and the
// rank-merged Chrome trace (event-count deterministic across two golden
// 4-rank replays), and the StepReport JSONL metrics layer end to end
// through Simulation::run.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/simulation.hpp"
#include "obs/obs.hpp"
#include "obs/step_report.hpp"
#include "obs/trace_export.hpp"
#include "ptmpi/comm.hpp"

using namespace ptim;

namespace {

// RAII tracing window: a failing test must not leak the enabled flag (or
// its spans) into the suites that run after it.
struct TraceGuard {
  TraceGuard() {
    obs::clear();
    obs::set_enabled(true);
  }
  ~TraceGuard() {
    obs::set_enabled(false);
    obs::clear();
  }
};

size_t count_named(const std::vector<obs::Span>& spans,
                   const std::string& name) {
  size_t n = 0;
  for (const auto& s : spans)
    if (obs::name_of(s.name_id) == name) ++n;
  return n;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t count_substr(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

}  // namespace

// --- interning ------------------------------------------------------------

TEST(ObsInterner, IdsAreStableAndZeroIsMain) {
  EXPECT_EQ(obs::intern("main"), 0u);
  EXPECT_EQ(obs::name_of(0), "main");
  const uint32_t a = obs::intern("obs_test.alpha");
  EXPECT_EQ(obs::intern("obs_test.alpha"), a);  // same string, same id
  EXPECT_EQ(obs::name_of(a), "obs_test.alpha");
  EXPECT_NE(obs::intern("obs_test.beta"), a);
  EXPECT_GE(obs::interned_count(), 3u);
}

// --- span recording -------------------------------------------------------

TEST(ObsSpans, NestedSpansCarryTimesCategoriesAndTags) {
  TraceGuard trace;
  {
    OBS_SPAN("obs_test.outer", obs::Cat::kStep);
    {
      OBS_SPAN("obs_test.inner", obs::Cat::kComm);
    }
  }
  const std::vector<obs::Span> spans = obs::snapshot();
  const obs::Span* outer = nullptr;
  const obs::Span* inner = nullptr;
  for (const auto& s : spans) {
    if (obs::name_of(s.name_id) == "obs_test.outer") outer = &s;
    if (obs::name_of(s.name_id) == "obs_test.inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // RAII scoping: the inner span lies inside the outer one.
  EXPECT_LE(outer->t0_ns, inner->t0_ns);
  EXPECT_LE(inner->t1_ns, outer->t1_ns);
  EXPECT_LE(inner->t0_ns, inner->t1_ns);
  EXPECT_EQ(outer->cat, obs::Cat::kStep);
  EXPECT_EQ(inner->cat, obs::Cat::kComm);
  EXPECT_EQ(outer->rank, -1);  // not a ptmpi rank thread
  EXPECT_EQ(outer->lane, 0u);  // the "main" lane
  EXPECT_STREQ(obs::cat_name(obs::Cat::kComm), "comm");
  EXPECT_STREQ(obs::cat_name(obs::Cat::kCompute), "compute");
}

TEST(ObsSpans, ScopedTimerFeedsBothProfileAndTrace) {
  TraceGuard trace;
  const uint32_t id = obs::intern("obs_test.timer");
  const long before = obs::profile_get(id).count;
  { ScopedTimer t("obs_test.timer"); }
  // The legacy string API accumulates into the obs profile slots...
  EXPECT_EQ(obs::profile_get(id).count, before + 1);
  // ...and doubles as a trace span while tracing is on.
  EXPECT_EQ(count_named(obs::snapshot(), "obs_test.timer"), 1u);
}

TEST(ObsSpans, RingWrapsKeepingNewestSpans) {
  TraceGuard trace;
  const size_t cap_before = obs::ring_capacity();
  obs::set_ring_capacity(16);  // applies to buffers allocated from now on
  std::thread recorder([] {
    for (int i = 0; i < 100; ++i) {
      OBS_SPAN("obs_test.wrap", obs::Cat::kCompute);
    }
  });
  recorder.join();
  obs::set_ring_capacity(cap_before);

  const std::vector<obs::Span> spans = obs::snapshot();
  EXPECT_EQ(count_named(spans, "obs_test.wrap"), 16u);
  EXPECT_GE(obs::dropped_spans(), 84u);
  // Oldest-first within the buffer: begin times must be non-decreasing.
  uint64_t prev = 0;
  for (const auto& s : spans)
    if (obs::name_of(s.name_id) == "obs_test.wrap") {
      EXPECT_GE(s.t0_ns, prev);
      prev = s.t0_ns;
    }
}

TEST(ObsSpans, DisabledTracingAllocatesNothing) {
  obs::set_enabled(false);
  obs::clear();
  const size_t bufs = obs::thread_buffer_count();
  // A fresh thread recording with tracing off must never allocate a ring
  // (the zero-overhead pin: an ObsSpan is one relaxed load and a branch).
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      OBS_SPAN("obs_test.off", obs::Cat::kCompute);
      OBS_MARK("obs_test.off_mark", obs::Cat::kIo);
    }
  });
  recorder.join();
  EXPECT_EQ(obs::thread_buffer_count(), bufs);
  EXPECT_TRUE(obs::snapshot().empty());
}

TEST(ObsSpans, ConcurrentStreamWorkersRecordOnTheirOwnLanes) {
  TraceGuard trace;
  // 4 worker threads, each tagging its own lane, hammering their rings
  // concurrently — the TSan CI job races exactly this path.
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i)
    workers.emplace_back([i] {
      obs::ThreadTag tag;
      tag.lane = obs::intern("obs_test.stream" + std::to_string(i));
      obs::set_thread_tag(tag);
      for (int iter = 0; iter < 200; ++iter) {
        OBS_SPAN("obs_test.task", obs::Cat::kCompute);
      }
    });
  for (std::thread& w : workers) w.join();

  const std::vector<obs::Span> spans = obs::snapshot();
  EXPECT_EQ(count_named(spans, "obs_test.task"), 800u);
  // Every span carries its worker's lane: the interned lane name.
  std::set<std::string> lanes;
  for (const auto& s : spans)
    if (obs::name_of(s.name_id) == "obs_test.task")
      lanes.insert(obs::name_of(s.lane));
  EXPECT_EQ(lanes.size(), 4u);
  EXPECT_TRUE(lanes.count("obs_test.stream0"));
}

// --- wire format and rank merge -------------------------------------------

TEST(ObsExport, SerializeDeserializeRoundTrip) {
  std::vector<obs::Span> spans(2);
  spans[0].t0_ns = 100;
  spans[0].t1_ns = 250;
  spans[0].name_id = obs::intern("obs_test.ser");
  spans[0].lane = obs::intern("obs_test.ser_lane");
  spans[0].rank = 2;
  spans[0].cat = obs::Cat::kFft;
  spans[1].t0_ns = 300;
  spans[1].t1_ns = 300;
  spans[1].name_id = obs::intern("obs_test.ser_mark");
  spans[1].rank = -1;
  spans[1].cat = obs::Cat::kIo;

  std::vector<char> blob = obs::serialize_spans(spans);
  std::vector<obs::Span> out;
  obs::deserialize_spans(blob, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t0_ns, 100u);
  EXPECT_EQ(out[0].t1_ns, 250u);
  EXPECT_EQ(obs::name_of(out[0].name_id), "obs_test.ser");
  EXPECT_EQ(obs::name_of(out[0].lane), "obs_test.ser_lane");
  EXPECT_EQ(out[0].rank, 2);
  EXPECT_EQ(out[0].cat, obs::Cat::kFft);
  EXPECT_EQ(out[1].rank, -1);

  // Truncation is a loud error, not a silently short trace.
  blob.pop_back();
  EXPECT_THROW(obs::deserialize_spans(blob, &out), std::runtime_error);
}

TEST(ObsExport, GatherMergesAllRankSpansOnRankZero) {
  ptmpi::run_ranks(4, 2, [](ptmpi::Comm& c) {
    std::vector<obs::Span> local(1);
    local[0].t0_ns = 10;
    local[0].t1_ns = 20;
    local[0].name_id = obs::intern("obs_test.gather");
    local[0].rank = c.rank();
    const std::vector<obs::Span> merged = obs::gather_spans(c, local);
    if (c.rank() == 0) {
      EXPECT_EQ(merged.size(), 4u);
      std::set<int> ranks;
      for (const auto& s : merged) {
        EXPECT_EQ(obs::name_of(s.name_id), "obs_test.gather");
        ranks.insert(s.rank);
      }
      EXPECT_EQ(ranks, (std::set<int>{0, 1, 2, 3}));
    } else {
      EXPECT_TRUE(merged.empty());
    }
  });
}

TEST(ObsExport, ChromeJsonNamesRankProcessesAndLanes) {
  std::vector<obs::Span> spans(2);
  spans[0].t0_ns = 1000;
  spans[0].t1_ns = 3500;
  spans[0].name_id = obs::intern("obs_test.chrome \"quoted\"");
  spans[0].lane = obs::intern("obs_test.chrome_lane");
  spans[0].rank = 1;
  spans[0].cat = obs::Cat::kComm;
  spans[1] = spans[0];
  spans[1].rank = 0;
  spans[1].cat = obs::Cat::kCompute;

  const std::string json = obs::chrome_trace_json(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count_substr(json, "\"ph\":\"X\""), 2u);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.chrome_lane"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"cat\":\"comm\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5"), std::string::npos);  // ns -> us
}

// --- StepReport metrics ---------------------------------------------------

TEST(ObsMetrics, StepReportJsonlRoundTrips) {
  obs::StepReport r;
  r.job_id = 7;
  r.rank = 3;
  r.step = 42;
  r.seconds = 1.5;
  r.scf_iterations = 6;
  r.outer_iterations = 2;
  r.exchange_applications = 4;
  r.residual = 3.25e-8;
  r.converged = 0;
  r.outer_converged = 0;
  r.ffts = 400;
  r.ring_bytes = 123456789012LL;
  r.alltoallv_bytes = 987;
  r.allreduce_bytes = 55;
  r.comm_seconds = 0.25;
  r.isdf_fit_seconds = 0.125;
  r.alloc_delta = 17;

  const std::string line = to_jsonl(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per record
  obs::StepReport p;
  ASSERT_TRUE(obs::from_jsonl(line, &p));
  EXPECT_EQ(p.job_id, 7);
  EXPECT_EQ(p.rank, 3);
  EXPECT_EQ(p.step, 42);
  EXPECT_EQ(p.seconds, 1.5);
  EXPECT_EQ(p.scf_iterations, 6);
  EXPECT_EQ(p.outer_iterations, 2);
  EXPECT_EQ(p.exchange_applications, 4);
  EXPECT_EQ(p.residual, 3.25e-8);
  EXPECT_EQ(p.converged, 0);
  EXPECT_EQ(p.outer_converged, 0);
  EXPECT_EQ(p.ffts, 400);
  EXPECT_EQ(p.ring_bytes, 123456789012LL);
  EXPECT_EQ(p.alltoallv_bytes, 987);
  EXPECT_EQ(p.allreduce_bytes, 55);
  EXPECT_EQ(p.comm_seconds, 0.25);
  EXPECT_EQ(p.isdf_fit_seconds, 0.125);
  EXPECT_EQ(p.alloc_delta, 17);

  EXPECT_FALSE(obs::from_jsonl("not a json line", &p));
}

TEST(ObsMetrics, SamplerReportsDeltas) {
  obs::StepCounters t0;
  t0.ffts = 100;
  t0.alloc_count = 5;
  t0.comm.add("Sendrecv", 1000, 0.1);
  obs::StepCounters t1 = t0;
  t1.ffts = 160;
  t1.alloc_count = 9;
  t1.comm.add("Sendrecv", 2500, 0.3);
  t1.comm.add("Alltoallv", 700, 0.05);

  obs::StepSampler sampler;
  sampler.begin(t0);
  const obs::StepReport r = sampler.end(t1);
  EXPECT_EQ(r.ffts, 60);
  EXPECT_EQ(r.alloc_delta, 4);
  EXPECT_EQ(r.ring_bytes, 2500);  // Sendrecv delta
  EXPECT_EQ(r.alltoallv_bytes, 700);
  EXPECT_NEAR(r.comm_seconds, 0.35, 1e-12);
  EXPECT_GE(r.seconds, 0.0);
}

// --- end to end through Simulation::run -----------------------------------

TEST(ObsEndToEnd, SerialRunWritesOneReportPerStepAndATrace) {
  core::SystemSpec spec;
  spec.ecut = 1.5;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 5e-5;
  spec.scf.max_scf = 120;
  spec.scf.davidson_tol = 1e-6;
  spec.scf.max_outer_ace = 3;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = 2;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;
  cfg.tol = 1e-7;
  cfg.trace_path = "test_obs_serial_trace.json";
  cfg.metrics_path = "test_obs_serial_metrics.jsonl";
  std::remove(cfg.metrics_path.c_str());  // the sink appends
  (void)sim.run(cfg);

  std::ifstream f(cfg.metrics_path);
  ASSERT_TRUE(f.good());
  std::string line;
  long expect_step = 1;
  while (std::getline(f, line)) {
    obs::StepReport r;
    ASSERT_TRUE(obs::from_jsonl(line, &r)) << line;
    EXPECT_EQ(r.step, expect_step++);
    EXPECT_EQ(r.rank, -1);  // serial run
    EXPECT_EQ(r.job_id, -1);
    EXPECT_GT(r.ffts, 0);
    EXPECT_GT(r.scf_iterations, 0);
    EXPECT_EQ(r.converged, 1);
  }
  EXPECT_EQ(expect_step, cfg.steps + 1);

  const std::string trace = slurp(cfg.trace_path);
  EXPECT_GT(count_substr(trace, "\"ph\":\"X\""), 0u);
  EXPECT_NE(trace.find("td.ptim_step"), std::string::npos);
  // Tracing was scoped to the run: the global recorder is off and empty.
  EXPECT_FALSE(obs::enabled());
  EXPECT_TRUE(obs::snapshot().empty());
}

TEST(ObsEndToEnd, RankMergedTraceIsDeterministicAcrossGoldenReplays) {
  core::SystemSpec spec;
  spec.ecut = 1.5;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 5e-5;
  spec.scf.max_scf = 120;
  spec.scf.davidson_tol = 1e-6;
  spec.scf.max_outer_ace = 3;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = 2;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;
  cfg.tol = 1e-7;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;

  cfg.trace_path = "test_obs_dist_trace_a.json";
  (void)sim.run(cfg);
  cfg.trace_path = "test_obs_dist_trace_b.json";
  (void)sim.run(cfg);

  const std::string a = slurp("test_obs_dist_trace_a.json");
  const std::string b = slurp("test_obs_dist_trace_b.json");
  // All four ranks landed in ONE merged file...
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(a.find("\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  // ...with per-rank step spans and ring comm spans on their lanes.
  EXPECT_GT(count_substr(a, "td.ptim_step"), 0u);
  EXPECT_GT(count_substr(a, "\"cat\":\"comm\""), 0u);
  EXPECT_GT(count_substr(a, "\"cat\":\"compute\""), 0u);
  // The trajectory is bit-exact run to run, so the span COUNT of the
  // merged trace is too (timestamps of course differ).
  const size_t na = count_substr(a, "\"ph\":\"X\"");
  EXPECT_GT(na, 0u);
  EXPECT_EQ(na, count_substr(b, "\"ph\":\"X\""));
}
