// Lattice/reciprocal geometry, G-sphere construction and the sphere<->grid
// transforms whose normalization conventions everything else leans on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <type_traits>

#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "la/blas.hpp"
#include "pw/transforms.hpp"
#include "pw/wavefunction.hpp"
#include "test_helpers.hpp"

using namespace ptim;

TEST(Lattice, ReciprocalIdentity) {
  const grid::Lattice lat({10.0, 0.0, 0.0}, {1.0, 8.0, 0.0}, {0.0, 2.0, 9.0});
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      const real_t expected = (i == j) ? kTwoPi : 0.0;
      EXPECT_NEAR(grid::dot(lat.bvec(i), lat.avec(j)), expected, 1e-12);
    }
  EXPECT_NEAR(lat.volume(), 10.0 * 8.0 * 9.0, 1e-9);
}

TEST(Lattice, CubicCenter) {
  const auto lat = grid::Lattice::cubic(6.0);
  const auto c = lat.center();
  EXPECT_NEAR(c[0], 3.0, 1e-14);
  EXPECT_NEAR(c[1], 3.0, 1e-14);
  EXPECT_NEAR(c[2], 3.0, 1e-14);
}

TEST(GSphere, InversionSymmetricAndSorted) {
  const auto lat = grid::Lattice::cubic(9.0);
  const grid::GSphere s(lat, 4.0);
  ASSERT_GT(s.npw(), 10u);
  // All |G|^2/2 <= ecut, ascending.
  for (size_t i = 0; i < s.npw(); ++i) {
    EXPECT_LE(0.5 * s.g2()[i], 4.0 + 1e-12);
    if (i > 0) {
      EXPECT_GE(s.g2()[i], s.g2()[i - 1] - 1e-12);
    }
  }
  // G=0 comes first, -G present for every G.
  EXPECT_EQ(s.freqs()[0][0], 0);
  std::set<std::array<int, 3>> all(s.freqs().begin(), s.freqs().end());
  for (const auto& f : s.freqs()) {
    EXPECT_TRUE(all.count({-f[0], -f[1], -f[2]}));
  }
}

TEST(GSphere, CountScalesWithVolume) {
  // npw ~ Omega * gmax^3 / (6 pi^2): doubling the box along z roughly
  // doubles the count.
  const auto lat1 = grid::Lattice::cubic(9.0);
  const auto lat2 = grid::Lattice::orthorhombic(9.0, 9.0, 18.0);
  const grid::GSphere s1(lat1, 5.0), s2(lat2, 5.0);
  const real_t ratio = static_cast<real_t>(s2.npw()) / s1.npw();
  EXPECT_NEAR(ratio, 2.0, 0.15);
}

TEST(GSphere, MapToGridIsInjective) {
  const auto lat = grid::Lattice::cubic(9.0);
  const grid::GSphere s(lat, 4.0);
  const grid::FftGrid g(lat, s.suggest_dims(1));
  const auto map = s.map_to(g);
  std::set<size_t> unique(map.begin(), map.end());
  EXPECT_EQ(unique.size(), map.size());
  for (size_t i = 0; i < s.npw(); ++i) {
    // Grid point frequency matches the sphere frequency.
    const auto f = g.freq3(map[i]);
    EXPECT_EQ(f[0], s.freqs()[i][0]);
    EXPECT_EQ(f[1], s.freqs()[i][1]);
    EXPECT_EQ(f[2], s.freqs()[i][2]);
  }
}

TEST(FftGrid, G2TableMatchesFreq) {
  const auto lat = grid::Lattice::cubic(7.0);
  const grid::FftGrid g(lat, {6, 6, 6});
  for (size_t i = 0; i < g.size(); i += 17) {
    const auto f = g.freq3(i);
    const auto gv = lat.gvec(f[0], f[1], f[2]);
    EXPECT_NEAR(g.g2()[i], grid::norm2(gv), 1e-12);
  }
}

class TransformFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    lat_ = std::make_unique<grid::Lattice>(grid::Lattice::cubic(8.0));
    sphere_ = std::make_unique<grid::GSphere>(*lat_, 3.5);
    grid_ = std::make_unique<grid::FftGrid>(*lat_, sphere_->suggest_dims(1));
    dense_ = std::make_unique<grid::FftGrid>(*lat_, sphere_->suggest_dims(2));
    map_ = std::make_unique<pw::SphereGridMap>(*sphere_, *grid_);
    dmap_ = std::make_unique<pw::SphereGridMap>(*sphere_, *dense_);
  }
  std::unique_ptr<grid::Lattice> lat_;
  std::unique_ptr<grid::GSphere> sphere_;
  std::unique_ptr<grid::FftGrid> grid_, dense_;
  std::unique_ptr<pw::SphereGridMap> map_, dmap_;
};

TEST_F(TransformFixture, RoundTripSphereGridSphere) {
  const size_t npw = sphere_->npw();
  la::MatC c = test::random_matrix(npw, 3, 7);
  la::MatC real_space;
  map_->to_real_batch(c, real_space);
  la::MatC back;
  map_->to_sphere_batch(real_space, back);
  EXPECT_LT(la::frob_diff(c, back), 1e-10);
}

TEST_F(TransformFixture, NormalizationIsUnitary) {
  // <psi|psi> = sum |c|^2 = dvol * sum |psi(r)|^2.
  const size_t npw = sphere_->npw();
  la::MatC c = test::random_matrix(npw, 1, 8);
  real_t norm_c = 0.0;
  for (size_t i = 0; i < npw; ++i) norm_c += std::norm(c(i, 0));
  std::vector<cplx> u(grid_->size());
  map_->to_real(c.col(0), u.data());
  real_t norm_r = 0.0;
  for (const auto& v : u) norm_r += std::norm(v);
  norm_r *= grid_->dvol();
  EXPECT_NEAR(norm_r, norm_c, 1e-9 * norm_c);
}

TEST_F(TransformFixture, DenseGridRoundTripMatches) {
  // The same coefficients produce consistent values on both grids
  // (band-limited function, denser sampling).
  const size_t npw = sphere_->npw();
  la::MatC c = test::random_matrix(npw, 1, 9);
  la::MatC back;
  la::MatC real_dense;
  dmap_->to_real_batch(c, real_dense);
  dmap_->to_sphere_batch(real_dense, back);
  EXPECT_LT(la::frob_diff(c, back), 1e-10);
}

TEST_F(TransformFixture, PlaneWaveValueOnGrid) {
  // A single-G coefficient must produce e^{iG.r}/sqrt(Omega) pointwise.
  const size_t npw = sphere_->npw();
  const size_t pick = npw / 3;
  la::MatC c(npw, 1);
  c(pick, 0) = 1.0;
  std::vector<cplx> u(grid_->size());
  map_->to_real(c.col(0), u.data());
  const auto gv = sphere_->gvec(pick);
  const real_t s = 1.0 / std::sqrt(lat_->volume());
  const auto& dims = grid_->dims();
  for (size_t i2 = 0; i2 < dims[2]; i2 += 3)
    for (size_t i1 = 0; i1 < dims[1]; i1 += 3)
      for (size_t i0 = 0; i0 < dims[0]; i0 += 3) {
        const auto r = grid_->rvec(i0, i1, i2);
        const real_t ph = grid::dot(gv, r);
        const cplx expect = s * cplx{std::cos(ph), std::sin(ph)};
        EXPECT_NEAR(std::abs(u[grid_->linear(i0, i1, i2)] - expect), 0.0, 1e-10);
      }
}

// ------------------------------------------- sphere-pruned == full box --
// Every SphereGridMap transform runs only the FFT lines its sphere reaches.
// The references below run the full-box engine (every line) in the order
// the transforms used before they pruned: forward outputs must match them
// byte for byte, inverse outputs compare == (an exact zero may flip sign).

namespace {

template <typename CS>
const fft::Fft3T<typename CS::value_type>& full_fft(const grid::FftGrid& g) {
  if constexpr (std::is_same_v<CS, cplxf>)
    return g.fft_f32();
  else
    return g.fft();
}

// Inverse reference. The FP64 single-column path scales after the
// transform; the batch and FP32 paths fold the scale into the scatter.
template <typename CS>
la::Matrix<CS> full_to_real(const pw::SphereGridMap& m, const la::MatC& c,
                            bool single) {
  const size_t ng = m.grid().size();
  const bool fold = !single || std::is_same_v<CS, cplxf>;
  la::Matrix<CS> r(ng, c.cols());  // zero-filled
  for (size_t b = 0; b < c.cols(); ++b)
    for (size_t i = 0; i < m.map().size(); ++i)
      r.col(b)[m.map()[i]] = static_cast<CS>(
          fold ? c.col(b)[i] * m.scale_to_real() : c.col(b)[i]);
  const auto& f = full_fft<CS>(m.grid());
  if (single) {
    for (size_t b = 0; b < c.cols(); ++b) f.inverse(r.col(b));
  } else {
    f.inverse_batch(r.data(), c.cols());
  }
  if (!fold)
    for (size_t j = 0; j < r.size(); ++j) r.data()[j] *= m.scale_to_real();
  return r;
}

// Forward reference: every line, then the gather.
template <typename CS>
la::MatC full_to_sphere(const pw::SphereGridMap& m, la::Matrix<CS> r) {
  full_fft<CS>(m.grid()).forward_batch(r.data(), r.cols());
  la::MatC c(m.map().size(), r.cols());
  for (size_t b = 0; b < r.cols(); ++b)
    for (size_t i = 0; i < m.map().size(); ++i)
      c.col(b)[i] = static_cast<cplx>(r.col(b)[m.map()[i]]) *
                    m.scale_to_sphere();
  return c;
}

template <typename CS>
void expect_values_equal(const CS* got, const CS* want, size_t n,
                         const char* what) {
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(got[i], want[i]) << what << " i=" << i;
}

void expect_bytes_equal(const la::MatC& got, const la::MatC& want,
                        const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(cplx)),
            0)
      << what;
}

// Lines a transform must run, counted by propagating "holds a nonzero"
// through the inverse's axis order (2, 1, 0): a line runs iff it holds a
// nonzero, and afterwards all of it does.
size_t brute_force_lines(const pw::SphereGridMap& m) {
  const auto& d = m.grid().dims();
  std::vector<char> nz(m.grid().size(), 0);
  for (const size_t g : m.map()) nz[g] = 1;
  const size_t step[3] = {1, d[0], d[0] * d[1]};
  size_t lines = 0;
  for (const size_t a : {size_t{2}, size_t{1}, size_t{0}}) {
    for (size_t start = 0; start < nz.size(); ++start) {
      if ((start / step[a]) % d[a] != 0) continue;  // not a line's start
      bool any = false;
      for (size_t k = 0; k < d[a]; ++k) any = any || nz[start + k * step[a]];
      if (!any) continue;
      ++lines;
      for (size_t k = 0; k < d[a]; ++k) nz[start + k * step[a]] = 1;
    }
  }
  return lines;
}

void check_pruned_equals_full(const grid::GSphere& s, const grid::FftGrid& g,
                              unsigned seed) {
  const pw::SphereGridMap m(s, g);
  const size_t ng = g.size(), npw = s.npw(), nb = 3;
  EXPECT_EQ(m.lines_per_column(), brute_force_lines(m));

  const la::MatC c = test::random_matrix(npw, nb, seed);
  // Forward input with every grid point nonzero, not band-limited.
  const la::MatC r = test::random_matrix(ng, nb, seed + 1);
  la::MatCf rf(ng, nb);
  for (size_t i = 0; i < r.size(); ++i)
    rf.data()[i] = static_cast<cplxf>(r.data()[i]);

  {  // inverse, FP64 and FP32, single column and batch
    const la::MatC want1 = full_to_real<cplx>(m, c, true);
    const la::MatC wantb = full_to_real<cplx>(m, c, false);
    const la::MatCf wantf1 = full_to_real<cplxf>(m, c, true);
    const la::MatCf wantfb = full_to_real<cplxf>(m, c, false);
    std::vector<cplx> u(ng);
    std::vector<cplxf> uf(ng);
    for (size_t b = 0; b < nb; ++b) {
      m.to_real(c.col(b), u.data());
      expect_values_equal(u.data(), want1.col(b), ng, "to_real");
      m.to_real(c.col(b), uf.data());
      expect_values_equal(uf.data(), wantf1.col(b), ng, "to_real f32");
    }
    la::MatC ub;
    la::MatCf ufb;
    m.to_real_batch(c, ub);
    m.to_real_batch(c, ufb);
    expect_values_equal(ub.data(), wantb.data(), ub.size(), "to_real_batch");
    expect_values_equal(ufb.data(), wantfb.data(), ufb.size(),
                        "to_real_batch f32");
  }
  {  // forward, FP64 and FP32, single column, batch and in place
    const la::MatC want = full_to_sphere<cplx>(m, r);
    const la::MatC wantf = full_to_sphere<cplxf>(m, rf);
    la::MatC got(npw, nb), gotf(npw, nb);
    for (size_t b = 0; b < nb; ++b) {
      m.to_sphere(r.col(b), got.col(b));
      m.to_sphere(rf.col(b), gotf.col(b));
    }
    expect_bytes_equal(got, want, "to_sphere");
    expect_bytes_equal(gotf, wantf, "to_sphere f32");
    la::MatC batch, batchf, inplace;
    m.to_sphere_batch(r, batch);
    m.to_sphere_batch(rf, batchf);
    la::MatC work = r;
    m.to_sphere_batch_inplace(work, inplace);
    expect_bytes_equal(batch, want, "to_sphere_batch");
    expect_bytes_equal(batchf, wantf, "to_sphere_batch f32");
    expect_bytes_equal(inplace, want, "to_sphere_batch_inplace");
  }
}

size_t full_box_lines(const grid::FftGrid& g) {
  const auto& d = g.dims();
  return d[1] * d[2] + d[0] * d[2] + d[0] * d[1];
}

}  // namespace

TEST_F(TransformFixture, PrunedEqualsFullBox) {
  check_pruned_equals_full(*sphere_, *grid_, 30);
  check_pruned_equals_full(*sphere_, *dense_, 40);
  EXPECT_LT(dmap_->lines_per_column(), full_box_lines(*dense_));
}

TEST(SpherePruning, SkewedLatticeSphereWraps) {
  // A triclinic cell on boxes of different sizes per axis: the sphere's
  // negative frequencies wrap to the top of every axis, so its i0 set and
  // its columns are runs on both ends of each row, and column runs join
  // across rows.
  const grid::Lattice lat({7.0, 0.0, 0.0}, {1.5, 8.5, 0.0}, {0.5, 1.0, 6.0});
  const grid::GSphere s(lat, 3.0);
  const auto d1 = s.suggest_dims(1), d2 = s.suggest_dims(2);
  const grid::FftGrid tight(lat, d1);
  const grid::FftGrid loose(lat, {d2[0], d1[1], d2[2]});
  check_pruned_equals_full(s, tight, 50);
  check_pruned_equals_full(s, loose, 60);
  const pw::SphereGridMap m(s, loose);
  EXPECT_EQ(m.lines().x.size(), 2u);
  bool joined = false;
  for (const fft::LineRun& r : m.lines().columns)
    joined = joined || r.offset % loose.dims()[0] + r.count > loose.dims()[0];
  EXPECT_TRUE(joined);
}

TEST(SpherePruning, SphereReachingEveryLine) {
  // b = 1: the sphere is {-1, 0, 1}^3 (|G|^2/2 <= 1.5 < 2), and on a 3^3
  // box it holds every column and every i0: nothing is skipped.
  const auto lat = grid::Lattice::cubic(kTwoPi);
  const grid::GSphere s(lat, 1.75);
  ASSERT_EQ(s.npw(), 27u);
  const grid::FftGrid g(lat, {3, 3, 3});
  check_pruned_equals_full(s, g, 70);
  EXPECT_EQ(pw::SphereGridMap(s, g).lines_per_column(), full_box_lines(g));
}

TEST(SpherePruning, OneGSphere) {
  // Only G = 0: one column, one i0, so n2 axis-1 lines and all n1*n2
  // axis-0 lines.
  const auto lat = grid::Lattice::cubic(kTwoPi);
  const grid::GSphere s(lat, 0.3);
  ASSERT_EQ(s.npw(), 1u);
  const grid::FftGrid g(lat, {4, 3, 5});
  check_pruned_equals_full(s, g, 80);
  EXPECT_EQ(pw::SphereGridMap(s, g).lines_per_column(), 1u + 5u + 3u * 5u);
}

TEST(Orthonormalize, CholeskyAndLowdin) {
  la::MatC phi = test::random_matrix(60, 6, 11);
  la::MatC phi2 = phi;
  pw::orthonormalize_cholesky(phi);
  EXPECT_LT(pw::orthonormality_defect(phi), 1e-10);
  pw::orthonormalize_lowdin(phi2);
  EXPECT_LT(pw::orthonormality_defect(phi2), 1e-10);
  // Both span the same space: projector difference vanishes.
  la::MatC s(6, 6);
  la::gemm_cn(phi, phi2, s);
  // |det|-like check: S must be unitary.
  la::MatC shs(6, 6);
  la::gemm('C', 'N', 1.0, s, s, 0.0, shs);
  EXPECT_LT(la::frob_diff(shs, la::MatC::identity(6)), 1e-9);
}
