#pragma once
// Electron density builders for mixed states, rho(r) = 2 sum_ij sigma_ij
// phi_i(r) conj(phi_j(r)) (spin factor 2, sigma eigenvalues in [0,1]).
//
// Three algorithmically equivalent paths mirroring the paper:
//  * naive      — explicit (i,j) pair loop, the pre-optimization baseline
//                 (O(N^2 Ng) work after N transforms),
//  * gemm       — Theta = Phi*sigma then rho = 2 sum_j Re(theta_j conj(phi_j))
//                 (2N transforms + one gemm),
//  * diagonal   — rho = 2 sum_i d_i |phi'_i|^2 after sigma = Q D Q^H and
//                 phi' = Phi Q (the paper's "Diag" optimization, N transforms).
// All three agree to machine precision; tests enforce it.

#include <vector>

#include "la/matrix.hpp"
#include "pw/transforms.hpp"

namespace ptim::ham {

// Diagonal occupations d_i (pure states or post-diagonalization).
std::vector<real_t> density_diag(const la::MatC& phi_coeffs,
                                 const std::vector<real_t>& occ,
                                 const pw::SphereGridMap& map);

// Full sigma via Theta = Phi * sigma (production mixed-state path).
std::vector<real_t> density_sigma(const la::MatC& phi_coeffs,
                                  const la::MatC& sigma,
                                  const pw::SphereGridMap& map);

// The per-band accumulation of density_sigma, given theta = Phi * sigma:
// rho = 2 Re sum_b theta_b(r) conj(phi_b(r)). The band-distributed density
// runs it on a rank's block and sums the blocks afterwards.
std::vector<real_t> density_theta(const la::MatC& phi_coeffs,
                                  const la::MatC& theta,
                                  const pw::SphereGridMap& map);

// Full sigma via the explicit pair loop (baseline; benchmarking only).
std::vector<real_t> density_sigma_naive(const la::MatC& phi_coeffs,
                                        const la::MatC& sigma,
                                        const pw::SphereGridMap& map);

// integral rho dr (should equal the electron count).
real_t integrate(const std::vector<real_t>& rho, const grid::FftGrid& g);

}  // namespace ptim::ham
