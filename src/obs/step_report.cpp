#include "obs/step_report.hpp"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace ptim::obs {

namespace {

// Minimal number formatting that round-trips doubles through JSON.
void put_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

// Flat {"key":number,...} scanner — the StepReport schema has no nested
// objects or strings, so a full JSON parser is not needed.
bool scan_fields(const std::string& line,
                 const std::function<void(const std::string&, double)>& on) {
  size_t i = line.find('{');
  if (i == std::string::npos) return false;
  ++i;
  while (i < line.size()) {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == ',' || line[i] == '\t'))
      ++i;
    if (i >= line.size() || line[i] == '}') return true;
    if (line[i] != '"') return false;
    const size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) return false;
    const std::string key = line.substr(i + 1, key_end - i - 1);
    size_t j = line.find(':', key_end);
    if (j == std::string::npos) return false;
    ++j;
    while (j < line.size() && line[j] == ' ') ++j;
    char* end = nullptr;
    const double val = std::strtod(line.c_str() + j, &end);
    if (end == line.c_str() + j) return false;
    on(key, val);
    i = static_cast<size_t>(end - line.c_str());
  }
  return true;
}

}  // namespace

std::string to_jsonl(const StepReport& r) {
  std::ostringstream os;
  os << "{\"job_id\":" << r.job_id << ",\"rank\":" << r.rank
     << ",\"step\":" << r.step << ",\"seconds\":";
  put_double(os, r.seconds);
  os << ",\"scf_iterations\":" << r.scf_iterations
     << ",\"outer_iterations\":" << r.outer_iterations
     << ",\"exchange_applications\":" << r.exchange_applications
     << ",\"residual\":";
  put_double(os, r.residual);
  os << ",\"converged\":" << r.converged
     << ",\"outer_converged\":" << r.outer_converged << ",\"ffts\":" << r.ffts
     << ",\"ring_bytes\":" << r.ring_bytes
     << ",\"alltoallv_bytes\":" << r.alltoallv_bytes
     << ",\"allreduce_bytes\":" << r.allreduce_bytes << ",\"comm_seconds\":";
  put_double(os, r.comm_seconds);
  os << ",\"isdf_fit_seconds\":";
  put_double(os, r.isdf_fit_seconds);
  os << ",\"alloc_delta\":" << r.alloc_delta << "}";
  return os.str();
}

bool from_jsonl(const std::string& line, StepReport* out) {
  StepReport r;
  const bool ok = scan_fields(line, [&](const std::string& key, double v) {
    if (key == "job_id") r.job_id = static_cast<long>(v);
    else if (key == "rank") r.rank = static_cast<int>(v);
    else if (key == "step") r.step = static_cast<long>(v);
    else if (key == "seconds") r.seconds = v;
    else if (key == "scf_iterations") r.scf_iterations = static_cast<int>(v);
    else if (key == "outer_iterations")
      r.outer_iterations = static_cast<int>(v);
    else if (key == "exchange_applications")
      r.exchange_applications = static_cast<int>(v);
    else if (key == "residual") r.residual = v;
    else if (key == "converged") r.converged = static_cast<int>(v);
    else if (key == "outer_converged")
      r.outer_converged = static_cast<int>(v);
    else if (key == "ffts") r.ffts = static_cast<long>(v);
    else if (key == "ring_bytes") r.ring_bytes = static_cast<long long>(v);
    else if (key == "alltoallv_bytes")
      r.alltoallv_bytes = static_cast<long long>(v);
    else if (key == "allreduce_bytes")
      r.allreduce_bytes = static_cast<long long>(v);
    else if (key == "comm_seconds") r.comm_seconds = v;
    else if (key == "isdf_fit_seconds") r.isdf_fit_seconds = v;
    else if (key == "alloc_delta") r.alloc_delta = static_cast<long>(v);
    // Unknown keys ignored: newer writers stay readable.
  });
  if (ok) *out = r;
  return ok;
}

long long ops_bytes(const ptmpi::CommStats& s,
                    std::initializer_list<const char*> ops) {
  long long total = 0;
  for (const char* op : ops) {
    auto it = s.ops.find(op);
    if (it != s.ops.end()) total += it->second.bytes;
  }
  return total;
}

double ops_seconds(const ptmpi::CommStats& s) { return s.total_seconds(); }

void StepSampler::begin(const StepCounters& now) {
  base_ = now;
  t0_ns_ = now_ns();
}

StepReport StepSampler::end(const StepCounters& now) const {
  StepReport r;
  r.seconds = static_cast<double>(now_ns() - t0_ns_) * 1e-9;
  r.ffts = now.ffts - base_.ffts;
  r.alloc_delta = now.alloc_count - base_.alloc_count;
  r.isdf_fit_seconds = now.isdf_fit_seconds - base_.isdf_fit_seconds;
  r.ring_bytes = ops_bytes(now.comm, {"Sendrecv", "Wait", "Bcast"}) -
                 ops_bytes(base_.comm, {"Sendrecv", "Wait", "Bcast"});
  r.alltoallv_bytes =
      ops_bytes(now.comm, {"Alltoallv"}) - ops_bytes(base_.comm, {"Alltoallv"});
  r.allreduce_bytes =
      ops_bytes(now.comm, {"Allreduce"}) - ops_bytes(base_.comm, {"Allreduce"});
  r.comm_seconds = ops_seconds(now.comm) - ops_seconds(base_.comm);
  return r;
}

MetricsSink::MetricsSink(const std::string& path)
    : f_(path, std::ios::app) {
  if (!f_)
    throw std::runtime_error("obs: cannot open metrics file " + path);
}

void MetricsSink::write(const StepReport& r) {
  std::lock_guard<std::mutex> lock(mu_);
  f_ << to_jsonl(r) << "\n";
  f_.flush();
}

}  // namespace ptim::obs
