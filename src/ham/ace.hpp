#pragma once
// Adaptively Compressed Exchange (Lin, JCTC 12, 2242 (2016)), the paper's
// second algorithmic optimization (Sec. IV-A2).
//
// Given orbitals Phi and W = (alpha Vx) Phi, the rank-N surrogate
//   V_ACE = -xi xi^H,   xi = W L^{-H},   -Phi^H W = L L^H
// satisfies V_ACE phi_i = W_i exactly on the constructing orbitals while
// costing only two gemms per application instead of N^2 FFTs. PT-IM-ACE
// keeps two of these (at t_n and the midpoint), rebuilt in the outer SCF.

#include <vector>

#include "ham/exchange.hpp"
#include "la/matrix.hpp"

namespace ptim::ham {

class AceOperator {
 public:
  AceOperator() = default;

  // phi: npw x n orbitals; w = (alpha Vx) phi. -Phi^H W must be positive
  // definite (true whenever all occupations are > 0; a tiny ridge guards
  // the semidefinite edge).
  static AceOperator build(const la::MatC& phi, const la::MatC& w);
  // The compression step of build(): the Cholesky factor L of
  // -Phi^H W (+ ridge), given b = Phi^H W; then xi = W L^{-H}. The
  // band-distributed layer forms b from band blocks and shares this step.
  static la::MatC factor(la::MatC b);

  // One-stop builder on the exchange hot path: computes W = (alpha Vx) Phi
  // through xop.apply_diag — i.e. in blocks of ExchangeOptions::batch_size
  // through the batched FFT engine, at the operator's configured Precision
  // (the FP32 policy applies to the pair FFTs inside this build; the
  // Cholesky compression and xi stay FP64). When w_out is given it
  // receives W (callers reuse it for the Fock energy estimate).
  static AceOperator build_diag(const ExchangeOperator& xop,
                                const la::MatC& phi,
                                const std::vector<real_t>& occ,
                                la::MatC* w_out = nullptr);

  bool valid() const { return xi_.cols() > 0; }
  size_t rank() const { return xi_.cols(); }
  const la::MatC& xi() const { return xi_; }

  // out (+)= V_ACE * tgt = -xi (xi^H tgt).
  void apply(const la::MatC& tgt, la::MatC& out, bool accumulate = false) const;

  // sum_i d_i <phi_i|V_ACE|phi_i> — the ACE exchange energy estimate used
  // for the outer-SCF convergence check (Fig. 4b).
  real_t energy(const la::MatC& phi, const std::vector<real_t>& d) const;

 private:
  la::MatC xi_;  // npw x n
};

}  // namespace ptim::ham
