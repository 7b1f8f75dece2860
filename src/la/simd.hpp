#pragma once
// Runtime-dispatched SIMD lanes of the dense linear algebra: the loops of
// gemm_nn, gemm_nc, gemm_cn, cholesky, the triangular solves and the
// trailing update of the pivoted QR.
//
// The lanes are written once, in la/lane_kernels.hpp, as plain loops over
// independent outputs held in split planes (real parts and imaginary parts
// in separate arrays, one output per vector lane). Each ISA's translation
// unit includes that one source, is compiled with its own -m<isa> flag and
// -ffp-contract=off, and exports the resulting table below — the scheme of
// the FFT codelets (fft/simd.hpp). Every output element receives exactly
// the IEEE operations, in exactly the order, of the straight loop over
// std::complex values it replaces, whatever the vector width, so every
// ISA is bitwise-identical to the scalar table (tests/test_la.cpp pins
// each kernel against the scalar table and against a copy of the loop).
// Interleaved complex data, by contrast, lets GCC recognize complex
// products and fuse them (vfmaddsub) even under -ffp-contract=off.
//
// The ISA is the one choice of common/isa.hpp, shared with the FFT. Only
// the AVX2 unit is compiled as a vector table: the AVX-512 slot serves the
// AVX2 table (an AVX-512 build of the same source was slower on the QR
// rows of bench_kernels, README "Linear algebra lanes"), and the NEON slot
// the scalar table (no AArch64 host has checked a NEON build).
//
// Complex arrays below are interleaved (re, im) doubles, the layout of
// std::complex<double>; column strides (ld*) count complex elements. A
// kernel throws nothing and allocates nothing: its scratch comes from the
// caller (la::simd::scratch).

#include <cstddef>

#include "common/isa.hpp"

namespace ptim::la::simd {

// Lanes per tile: right-hand-side columns of a solve, rows of a right
// solve, output rows of gemm_cn, candidate columns of the QR. No output's
// bits depend on it.
inline constexpr size_t kLanes = 8;
// Output columns one gemm_cols call updates, and the rows (its lanes) it
// keeps in split planes at a time.
inline constexpr size_t kGemmCols = 4;
inline constexpr size_t kGemmRows = 256;

// Which triangular solves solve_cols runs, in this order.
inline constexpr int kSolveLower = 1;      // L X = B
inline constexpr int kSolveLowerHerm = 2;  // L^H X = B

struct Kernels {
  // gemm_nn / gemm_nc: columns 0..nc-1 (nc <= kGemmCols) of C become
  // beta*C + sum_l coef(l, j) A(:, l) for the m x k block a, the terms
  // added in ascending l and coef(l, j) == 0 skipped; coef(l, j) is
  // coef[l + j*k]. scratch: 2*kGemmRows*(kGemmCols + 1).
  void (*gemm_cols)(size_t m, size_t k, const double* a, size_t lda,
                    const double* coef, size_t nc, const double* beta,
                    double* c, size_t ldc, double* scratch);
  // gemm_cn, output rows 0..nr-1 (nr <= kLanes): C(i, j) = alpha *
  // dotc(A(:, i), B(:, j)) + (beta == 0 ? 0 : beta*C(i, j)) for the k x nr
  // block a and j < n. scratch: 2*k*kLanes.
  void (*gemm_cn_tile)(size_t k, size_t nr, const double* a, size_t lda,
                       size_t n, const double* b, size_t ldb,
                       const double* alpha, const double* beta, double* c,
                       size_t ldc, double* scratch);
  // Lower Cholesky factor of the n x n block a into l (whose upper part is
  // left alone). Returns n, or the first row j whose pivot is not positive
  // (then *pivot holds it). scratch: n*(n+1) + 2*n.
  size_t (*cholesky)(size_t n, const double* a, size_t lda, double* l,
                     size_t ldl, double* pivot, double* scratch);
  // The solves `which` (kSolveLower | kSolveLowerHerm) on columns
  // 0..nc-1 (nc <= kLanes) of b, with the n x n factor l. scratch:
  // 2*n*kLanes.
  void (*solve_cols)(size_t n, const double* l, size_t ldl, double* b,
                     size_t ldb, size_t nc, int which, double* scratch);
  // X L^H = B in place for the m x n block b; l has a real positive
  // diagonal. scratch: 2*n*kLanes.
  void (*solve_upper_right)(size_t m, size_t n, const double* l, size_t ldl,
                            double* b, size_t ldb, double* scratch);
  // QR tiles: kLanes candidate columns of m rows, planes re[i*kLanes + w],
  // im[(m + i)*kLanes + w] (the storage of kLanes columns). qr_load fills
  // one from nc <= kLanes columns of a (zero past nc) and sets norms[w] to
  // each column's norm^2.
  void (*qr_load)(size_t m, size_t nc, const double* a, size_t lda,
                  double* tile, double* norms);
  // Applies H = I - beta v v^H to rows k..m-1 of every column of the tile
  // (v interleaved, rows k..m-1 used) and downdates norms[w] by row k.
  void (*qr_update)(size_t m, size_t k, const double* v, double beta,
                    double* tile, double* norms);
};

// The table of isa::active() (the scalar table where this build has none).
const Kernels& active();

// This thread's scratch array of at least n doubles; it grows and is kept
// for the thread's lifetime, so steady-state calls allocate nothing. A la
// call holds it only while it runs.
double* scratch(size_t n);

namespace detail {
// Per-TU table getters; nullptr when the TU was compiled without its ISA.
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
}  // namespace detail

}  // namespace ptim::la::simd
