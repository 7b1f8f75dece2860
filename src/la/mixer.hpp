#pragma once
// Anderson (Pulay) mixing for fixed-point iterations x = T(x).
//
// Used in three places, exactly as in the paper: charge-density mixing in
// the ground-state SCF, and wavefunction + sigma mixing inside the PT-IM
// fixed-point solve (Alg. 1 line 8, "maximum Anderson dimension 20").
//
// Type-II Anderson: given the current iterate x_k and residual
// f_k = T(x_k) - x_k, solve the small least-squares problem
//   min_theta || f_k - sum_i theta_i (f_k - f_i) ||
// and return  x_{k+1} = xbar + beta * fbar  with the theta-averaged x, f.
// The least-squares problem is solved by modified Gram-Schmidt QR on the
// Tikhonov-augmented columns (kRegularization * I rows behind the data),
// which also keeps a nearly dependent history solvable.
//
// Distributed vectors: with a Reduction, the first local_dim entries of x
// and f are this rank's block and the rest is replicated, bit-identical on
// every rank (the PT-IM band block of Phi ++ sigma). Every inner product
// then sums the local block, reduces it over the ranks and adds the
// replicated tail once, so all ranks derive the same coefficients. Without
// a Reduction each inner product is one dotc over the whole vector.

#include <deque>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace ptim::la {

class AndersonMixer {
 public:
  // Sums n rank-partial values over the ranks sharing a vector, in place
  // and bit-identically on every rank (ptmpi::Comm::allreduce_sum).
  using Reduction = std::function<void(real_t* v, size_t n)>;

  static constexpr real_t kRegularization = 1e-12;

  // max_history: the paper uses 20. beta: damping on the residual step.
  AndersonMixer(size_t dim, size_t max_history = 20, real_t beta = 0.7,
                Reduction reduce = {}, size_t local_dim = 0);

  // Produce the next iterate from (x_k, f_k = T(x_k) - x_k). Also records
  // the pair in the history ring. Collective when a Reduction is set.
  std::vector<cplx> mix(const std::vector<cplx>& x, const std::vector<cplx>& f);

  void reset();
  size_t history_size() const { return hist_x_.size(); }

 private:
  // <a|b> over n entries (the augmented length).
  cplx dot(size_t n, const cplx* a, const cplx* b) const;

  size_t dim_;
  size_t max_history_;
  real_t beta_;
  Reduction reduce_;
  size_t local_dim_;
  std::deque<std::vector<cplx>> hist_x_;
  std::deque<std::vector<cplx>> hist_f_;
};

// Convenience wrapper for real vectors (density mixing).
class AndersonMixerReal {
 public:
  AndersonMixerReal(size_t dim, size_t max_history = 10, real_t beta = 0.5)
      : inner_(dim, max_history, beta) {}
  std::vector<real_t> mix(const std::vector<real_t>& x,
                          const std::vector<real_t>& f);
  void reset() { inner_.reset(); }

 private:
  AndersonMixer inner_;
};

}  // namespace ptim::la
