#include "pseudo/ewald.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fixed_sum.hpp"

namespace ptim::pseudo {

real_t ewald_energy(const AtomList& atoms, const grid::Lattice& lattice,
                    real_t eta) {
  const size_t na = atoms.natoms();
  const real_t z = atoms.species.zval;
  const real_t omega = lattice.volume();
  const real_t qtot = z * static_cast<real_t>(na);

  if (eta <= 0.0) {
    // Balanced choice: decay lengths of both sums comparable.
    eta = kPi * std::pow(static_cast<real_t>(na) / (omega * omega), 1.0 / 3.0);
    eta = std::max(eta, 0.05);
  }
  const real_t sqrt_eta = std::sqrt(eta);

  // Real-space sum over images until erfc cuts off.
  const real_t rcut = 6.5 / sqrt_eta;
  int nimg[3];
  for (int d = 0; d < 3; ++d) {
    const real_t alen = std::sqrt(grid::norm2(lattice.avec(d)));
    nimg[d] = static_cast<int>(std::ceil(rcut / alen)) + 1;
  }
  // One partial per atom a, added in atom order (common/fixed_sum.hpp).
  const real_t e_real = fixed_sum(
      na,
      [&](size_t a) {
        real_t s = 0.0;
        for (size_t b = 0; b < na; ++b)
          for (int l0 = -nimg[0]; l0 <= nimg[0]; ++l0)
            for (int l1 = -nimg[1]; l1 <= nimg[1]; ++l1)
              for (int l2 = -nimg[2]; l2 <= nimg[2]; ++l2) {
                if (a == b && l0 == 0 && l1 == 0 && l2 == 0) continue;
                const grid::Vec3 shift =
                    static_cast<real_t>(l0) * lattice.avec(0) +
                    static_cast<real_t>(l1) * lattice.avec(1) +
                    static_cast<real_t>(l2) * lattice.avec(2);
                const grid::Vec3 d3 =
                    atoms.positions[a] - atoms.positions[b] - shift;
                const real_t r = std::sqrt(grid::norm2(d3));
                if (r > rcut) continue;
                s += 0.5 * z * z * std::erfc(sqrt_eta * r) / r;
              }
        return s;
      },
      1);

  // Reciprocal-space sum.
  const real_t gcut2 = 4.0 * eta * 6.5 * 6.5;
  int ngv[3];
  for (int d = 0; d < 3; ++d) {
    const real_t blen = std::sqrt(grid::norm2(lattice.bvec(d)));
    ngv[d] = static_cast<int>(std::ceil(std::sqrt(gcut2) / blen)) + 1;
  }
  // One partial per (f0, f1) line of frequencies, added in line order.
  const auto n1 = static_cast<size_t>(2 * ngv[1] + 1);
  const real_t e_recip = fixed_sum(
      static_cast<size_t>(2 * ngv[0] + 1) * n1,
      [&](size_t q) {
        const int f0 = static_cast<int>(q / n1) - ngv[0];
        const int f1 = static_cast<int>(q % n1) - ngv[1];
        real_t acc = 0.0;
        for (int f2 = -ngv[2]; f2 <= ngv[2]; ++f2) {
          if (f0 == 0 && f1 == 0 && f2 == 0) continue;
          const grid::Vec3 g = lattice.gvec(f0, f1, f2);
          const real_t g2 = grid::norm2(g);
          if (g2 > gcut2) continue;
          const cplx s = structure_factor(atoms, g) * z;
          acc += kTwoPi / omega * std::exp(-g2 / (4.0 * eta)) / g2 *
                 std::norm(s);
        }
        return acc;
      },
      1);

  const real_t e_self = -sqrt_eta / std::sqrt(kPi) * z * z * static_cast<real_t>(na);
  const real_t e_bg = -kPi / (2.0 * omega * eta) * qtot * qtot;
  return e_real + e_recip + e_self + e_bg;
}

}  // namespace ptim::pseudo
