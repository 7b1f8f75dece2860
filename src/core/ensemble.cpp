#include "core/ensemble.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace ptim::core {

EnsembleDriver::EnsembleDriver(Simulation& sim, RunConfig cfg)
    : sim_(&sim), cfg_(std::move(cfg)) {
  PTIM_CHECK_MSG(cfg_.nranks == 1,
                 "EnsembleDriver batches serial trajectories; distributed "
                 "runs go through Simulation::run");
  PTIM_CHECK_MSG(cfg_.steps >= 0, "EnsembleDriver: bad step count");
}

void check_laser_or_kick(const std::string& name, bool has_laser,
                         const grid::Vec3& kick) {
  const bool kicked = kick[0] != 0.0 || kick[1] != 0.0 || kick[2] != 0.0;
  if (has_laser && kicked)
    throw Error("job '" + name +
                "' has both a laser and a delta kick: the laser's A(t) "
                "would overwrite the kick; submit them as separate jobs");
}

void EnsembleDriver::submit(EnsembleJob job) {
  check_laser_or_kick(job.name, job.laser.has_value(), job.kick);
  jobs_.push_back(std::move(job));
}

std::vector<EnsembleJobResult> EnsembleDriver::run_all(size_t batch_width) {
  const size_t width =
      batch_width == 0 ? std::max<size_t>(jobs_.size(), 1) : batch_width;
  std::vector<EnsembleJobResult> out;
  out.reserve(jobs_.size());
  // Drain per batch: jobs leave the queue only AFTER their batch finished.
  // (The old implementation moved the whole queue out up front, so an
  // exception mid-campaign destroyed every unrun job with no way to
  // retry.) On a throw, the failing batch and everything behind it stay
  // submitted — pending() reports them and a later run_all retries them.
  while (!jobs_.empty()) {
    const size_t n = std::min(width, jobs_.size());
    std::vector<EnsembleJobResult> part = run_batch(jobs_.data(), n);
    jobs_.erase(jobs_.begin(), jobs_.begin() + static_cast<ptrdiff_t>(n));
    for (auto& r : part) out.push_back(std::move(r));
  }
  return out;
}

std::vector<EnsembleJobResult> EnsembleDriver::run_batch(
    const EnsembleJob* batch, size_t n) {
  ScopedTimer timer("ensemble.batch");
  // Grow the slot pool on demand; later batches reuse the constructed
  // Hamiltonians (and, through the shared grids, the same FFT plans).
  while (pool_.size() < n) pool_.push_back(sim_->make_rank_hamiltonian());

  struct Slot {
    ham::Hamiltonian* h = nullptr;
    std::unique_ptr<td::LaserPulse> laser;
    std::unique_ptr<td::PtImPropagator> prop;
    td::TdState state;
    EnsembleJobResult res;
  };
  std::vector<Slot> slots(n);
  const td::PtImOptions popt = cfg_.ptim();
  for (size_t i = 0; i < n; ++i) {
    Slot& sl = slots[i];
    sl.h = pool_[i].get();
    if (cfg_.exchange_batch) sl.h->set_exchange_batch(*cfg_.exchange_batch);
    sl.state = batch[i].initial ? *batch[i].initial : sim_->initial_state();
    // Per-job laser, envelope placed lazily against THIS run's horizon.
    if (batch[i].laser)
      sl.laser = std::make_unique<td::LaserPulse>(
          *batch[i].laser, cfg_.horizon(sl.state.time));
    // Always (re)set A: carries the job's delta kick and clears whatever a
    // previous batch left on the pooled Hamiltonian.
    sl.h->set_vector_potential(batch[i].kick);
    // The propagator ctor applies cfg's precision/compression to its slot.
    sl.prop =
        std::make_unique<td::PtImPropagator>(*sl.h, popt, sl.laser.get());
    sl.res.name = batch[i].name;
    sl.res.measurements = proto_;
    sl.res.steps.reserve(static_cast<size_t>(cfg_.steps));
  }

  // The exchange packing rides on the ACE double loop; other variants, and
  // runs with exact exchange off, propagate unbatched (still amortizing
  // the pooled setup).
  const bool staged = n && slots[0].prop->staged();
  // Every slot's operator is configured identically, so slot 0's can apply
  // the whole dense pack (bit-identical to per-slot application). ISDF
  // shares no FFT batch between jobs, and each trajectory's held point set
  // lives on its own slot's operator, so ISDF jobs apply there.
  const ham::ExchangeOperator* xop = n ? &slots[0].h->exchange_op() : nullptr;
  const bool per_slot =
      n && xop->compression() == ham::ExchangeCompression::kIsdf;

  std::vector<td::PtImPropagator::StepSession> sess;
  std::vector<la::MatC> w(n);
  for (int step = 0; step < cfg_.steps; ++step) {
    if (staged) {
      // Lockstep staged stepping: one packed exchange application per ACE
      // round, one DiagApplyJob per trajectory still inside its loop.
      sess.clear();
      sess.reserve(n);
      for (size_t i = 0; i < n; ++i)
        sess.push_back(slots[i].prop->step_begin(slots[i].state));
      std::vector<size_t> active(n);
      for (size_t i = 0; i < n; ++i) active[i] = i;
      while (!active.empty()) {
        std::vector<ham::ExchangeOperator::DiagApplyJob> jobs;
        jobs.reserve(active.size());
        for (const size_t i : active) {
          w[i].resize(sess[i].ace_phi.rows(), sess[i].ace_phi.cols());
          if (per_slot)
            slots[i].h->exchange_op().apply_diag(
                sess[i].ace_phi, sess[i].ace_occ, sess[i].ace_phi, w[i]);
          else
            jobs.push_back({&sess[i].ace_phi, &sess[i].ace_occ,
                            &sess[i].ace_phi, &w[i]});
        }
        if (!per_slot) xop->apply_diag_packed(jobs);
        std::vector<size_t> next;
        next.reserve(active.size());
        for (const size_t i : active)
          if (slots[i].prop->step_advance(slots[i].state, sess[i], w[i]))
            next.push_back(i);
        active = std::move(next);
      }
      for (size_t i = 0; i < n; ++i)
        slots[i].res.steps.push_back(
            slots[i].prop->step_finish(slots[i].state, sess[i]));
    } else {
      for (size_t i = 0; i < n; ++i)
        slots[i].res.steps.push_back(slots[i].prop->step(slots[i].state));
    }
    for (size_t i = 0; i < n; ++i) {
      Slot& sl = slots[i];
      if (sl.res.measurements.empty()) continue;
      const std::vector<real_t> rho = sl.prop->space().density(sl.state);
      sl.res.measurements.record(
          {&rho, &sl.state.phi, &sl.state.sigma, sl.state.time, step});
    }
  }

  std::vector<EnsembleJobResult> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots[i].res.final_state = std::move(slots[i].state);
    out.push_back(std::move(slots[i].res));
  }
  return out;
}

}  // namespace ptim::core
