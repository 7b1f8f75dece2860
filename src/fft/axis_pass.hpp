#pragma once
// Shared per-axis pass of the batched 3-D engines: gather tiles of lines
// into element-major split planes, run the vector 1-D transform, scatter
// back. BOTH the serial Fft3T::transform_batch and the distributed
// DistFft3T call exactly this function, which is what makes the
// distributed slab transform bit-identical to the serial engine by
// construction (one implementation, not two that must not diverge). The
// per-line arithmetic is independent of the tile width, so any caller's
// line partitioning yields the same bits.
//
// This is also where the SIMD dispatch seam sits: each
// forward_many_split / inverse_unscaled_many_split call selects the active
// codelet table (fft/simd.hpp — scalar, AVX2, AVX-512F or NEON, forced via
// PTIM_SIMD or simd::force_isa) once and runs its stages through it, so
// one dispatch covers the serial and distributed engines alike. Every ISA
// is bitwise-identical to the scalar path (one codelet source, no FMA, all
// kernel TUs built with -ffp-contract=off), pinned by
// tests/test_fft_conformance.cpp.
//
// With the codelets fast, the gather and scatter are a large share of a
// 3-D transform, so a tile's line offsets are computed once and both
// copies walk rows outside and lanes inside (the planes' contiguous
// direction). All tile scratch is per-thread and lives for the whole pass
// — concurrent callers on distinct plans (or even the same plan) share no
// mutable state.

#include <algorithm>
#include <complex>
#include <vector>

#include "fft/fft.hpp"

namespace ptim::fft::detail {

// The lines of one axis pass, in the shape all three axes of both engines
// share: line q < count starts at element
// (q / run) * run_stride + (q % run) * line_step, and its n elements lie
// `stride` apart.
struct AxisLines {
  size_t count;
  size_t run;
  size_t run_stride;
  size_t line_step;
  size_t stride;
};

// The three line sets of nbatch consecutive boxes: axes 0 and 1 over slabs
// of zloc xy planes (n0*n1*zloc elements per box), axis 2 over pencils of
// pplane z lines (pplane*n2 elements per box). The serial engine is the
// zloc = n2, pplane = n0*n1 case of the distributed one.
struct BoxAxes {
  AxisLines a0, a1, a2;
};

inline BoxAxes box_axes(size_t n0, size_t n1, size_t n2, size_t zloc,
                        size_t pplane, size_t nbatch) {
  const size_t x_lines = nbatch * n1 * zloc;
  return {{x_lines, x_lines, 0, n0, 1},
          {nbatch * zloc * n0, n0, n0 * n1, 1, n0},
          {nbatch * pplane, pplane, pplane * n2, 1, pplane}};
}

// Copies the n elements of `len` lines between the data, from d_off (lines
// 2*line_step R apart, elements 2*stride apart, interleaved re/im) and the
// tile planes from lane l0 (rows v apart). The data and the planes never
// overlap; saying so (__restrict, omp simd) lets the compiler vectorize
// both the unit-step de/re-interleave and the strided copy, about twice as
// fast as the plain loops.
template <typename R, bool kToTile>
void copy_lines(R* __restrict d, size_t d_off, size_t line_step,
                size_t stride, size_t n, size_t len, R* __restrict re,
                R* __restrict im, size_t v, size_t l0) {
  const size_t ls = 2 * line_step;
  for (size_t k = 0; k < n; ++k) {
    R* __restrict line = d + d_off + 2 * k * stride;
    R* __restrict tr = re + k * v + l0;
    R* __restrict ti = im + k * v + l0;
    if (ls == 2) {
#pragma omp simd
      for (size_t l = 0; l < len; ++l) {
        if (kToTile) {
          tr[l] = line[2 * l];
          ti[l] = line[2 * l + 1];
        } else {
          line[2 * l] = tr[l];
          line[2 * l + 1] = ti[l];
        }
      }
    } else {
#pragma omp simd
      for (size_t l = 0; l < len; ++l) {
        if (kToTile) {
          tr[l] = line[l * ls];
          ti[l] = line[l * ls + 1];
        } else {
          line[l * ls] = tr[l];
          line[l * ls + 1] = ti[l];
        }
      }
    }
  }
}

// Transforms the lines in place with plan p (length p.size()).
template <typename R>
void axis_pass(const Plan1DT<R>& p, const AxisLines& lines,
               std::complex<R>* data, bool fwd) {
  constexpr size_t kTile = Plan1DT<R>::kMaxTile;
  const size_t n = p.size();
  const size_t ngroups = (lines.count + kTile - 1) / kTile;
  // std::complex<R> is layout-compatible with R[2]: element i's real part
  // is d[2i], its imaginary part d[2i + 1].
  R* d = reinterpret_cast<R*>(data);
#pragma omp parallel
  {
    std::vector<R> scratch(4 * kTile * n);
    R* in_re = scratch.data();
    R* in_im = in_re + kTile * n;
    R* out_re = in_im + kTile * n;
    R* out_im = out_re + kTile * n;
    // A tile's lines split into segments, one per run it touches: lane
    // seg_l0[s] onward, seg_len[s] lines from R offset seg_off[s].
    size_t seg_l0[kTile], seg_len[kTile], seg_off[kTile];
#pragma omp for schedule(static)
    for (size_t g = 0; g < ngroups; ++g) {
      const size_t q0 = g * kTile;
      const size_t v = std::min(kTile, lines.count - q0);
      size_t nseg = 0;
      size_t run = q0 / lines.run, i = q0 % lines.run;
      for (size_t l0 = 0; l0 < v; ++run, i = 0, ++nseg) {
        seg_l0[nseg] = l0;
        seg_len[nseg] = std::min(v - l0, lines.run - i);
        seg_off[nseg] = 2 * (run * lines.run_stride + i * lines.line_step);
        l0 += seg_len[nseg];
      }
      for (size_t s = 0; s < nseg; ++s)
        copy_lines<R, true>(d, seg_off[s], lines.line_step, lines.stride, n,
                            seg_len[s], in_re, in_im, v, seg_l0[s]);
      if (fwd)
        p.forward_many_split(in_re, in_im, out_re, out_im, v);
      else
        p.inverse_unscaled_many_split(in_re, in_im, out_re, out_im, v);
      for (size_t s = 0; s < nseg; ++s)
        copy_lines<R, false>(d, seg_off[s], lines.line_step, lines.stride, n,
                             seg_len[s], out_re, out_im, v, seg_l0[s]);
    }
  }
}

}  // namespace ptim::fft::detail
