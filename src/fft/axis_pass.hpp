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
// A pass names its lines as a run list (fft::LineRun): the same runs in
// every box of the batch. A full pass lists one run per box; a
// sphere-pruned pass (Fft3T with a fft::LineSubset) lists only the lines
// a G-sphere reaches, and the one tile walker below serves both: tiles
// take kMaxTile consecutive lines of the list whatever runs and boxes
// they cross.
//
// This is also where the SIMD dispatch seam sits: each
// forward_many_split / inverse_unscaled_many_split call selects the active
// codelet table (fft/simd.hpp — scalar, AVX2, AVX-512F or NEON, forced via
// PTIM_SIMD or isa::force) once and runs its stages through it, so
// one dispatch covers the serial and distributed engines alike. Every ISA
// is bitwise-identical to the scalar path (one codelet source, no FMA, all
// kernel TUs built with -ffp-contract=off), pinned by
// tests/test_fft_conformance.cpp.
//
// With the codelets fast, the gather and scatter are a large share of a
// 3-D transform, so a tile's line offsets are computed once and both
// copies walk rows outside and lanes inside (the planes' contiguous
// direction). Tile scratch is per thread and outlives the pass, so a pass
// allocates nothing once a thread has seen its largest line length —
// concurrent callers on distinct plans (or even the same plan) share no
// mutable state.

#include <algorithm>
#include <complex>
#include <vector>

#include "fft/fft.hpp"

namespace ptim::fft::detail {

// The lines of one axis pass: nboxes boxes box_stride elements apart,
// each holding the same non-empty runs (in line order) of lines that
// start line_step elements apart; a line's n elements lie `stride` apart.
struct AxisLines {
  const LineRun* runs;
  size_t nruns;
  size_t nboxes;
  size_t box_stride;
  size_t line_step;
  size_t stride;
};

// The three passes over nbatch consecutive boxes: axes 0 and 1 over slabs
// of zloc xy planes (n0*n1*zloc elements per box; axis 1 takes each xy
// plane as a box of its own), axis 2 over pencils of pplane z lines
// (pplane*n2 elements per box). The serial engine is the zloc = n2,
// pplane = n0*n1 case of the distributed one. With `subset` (serial boxes
// only), axes 1 and 2 run just its lines. The passes point into this
// object, so it is built in place and never copied.
struct BoxAxes {
  BoxAxes(size_t n0, size_t n1, size_t n2, size_t zloc, size_t pplane,
          size_t nbatch, const LineSubset* subset = nullptr)
      : whole{{0, n1 * zloc}, {0, n0}, {0, pplane}},
        a0{&whole[0], 1, nbatch, n0 * n1 * zloc, n0, 1},
        a1{&whole[1], 1, nbatch * zloc, n0 * n1, 1, n0},
        a2{&whole[2], 1, nbatch, pplane * n2, 1, pplane} {
    if (subset) {
      a1.runs = subset->x.data();
      a1.nruns = subset->x.size();
      a2.runs = subset->columns.data();
      a2.nruns = subset->columns.size();
    }
  }
  BoxAxes(const BoxAxes&) = delete;
  BoxAxes& operator=(const BoxAxes&) = delete;

  LineRun whole[3];  // every line of one box, per axis
  AxisLines a0, a1, a2;
};

// Copies the n elements of `len` lines between the data, from element
// d_off (lines line_step apart, elements stride apart, interleaved re/im)
// and the tile planes from lane l0 (rows v apart). The data and the planes
// never overlap; saying so (__restrict, omp simd) lets the compiler
// vectorize both the unit-step de/re-interleave and the strided copy,
// about twice as fast as the plain loops.
template <typename R, bool kToTile>
void copy_lines(R* __restrict d, size_t d_off, size_t line_step,
                size_t stride, size_t n, size_t len, R* __restrict re,
                R* __restrict im, size_t v, size_t l0) {
  const size_t ls = 2 * line_step;
  for (size_t k = 0; k < n; ++k) {
    R* __restrict line = d + 2 * (d_off + k * stride);
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

// This thread's tile planes for lines of length n: in_re, in_im, out_re,
// out_im, kMaxTile * n each.
template <typename R>
R* tile_scratch(size_t n) {
  thread_local std::vector<R> planes;
  const size_t need = 4 * Plan1DT<R>::kMaxTile * n;
  if (planes.size() < need) planes.resize(need);
  return planes.data();
}

// Transforms the lines in place with plan p (length p.size()).
template <typename R>
void axis_pass(const Plan1DT<R>& p, const AxisLines& lines,
               std::complex<R>* data, bool fwd) {
  constexpr size_t kTile = Plan1DT<R>::kMaxTile;
  const size_t n = p.size();
  size_t per_box = 0;
  for (size_t r = 0; r < lines.nruns; ++r) per_box += lines.runs[r].count;
  const size_t count = lines.nboxes * per_box;
  if (count == 0) return;
  const size_t ngroups = (count + kTile - 1) / kTile;
  // std::complex<R> is layout-compatible with R[2]: element i's real part
  // is d[2i], its imaginary part d[2i + 1].
  R* d = reinterpret_cast<R*>(data);
#pragma omp parallel
  {
    R* in_re = tile_scratch<R>(n);
    R* in_im = in_re + kTile * n;
    R* out_re = in_im + kTile * n;
    R* out_im = out_re + kTile * n;
    // A tile's lines split into segments of evenly spaced lines: lane
    // seg_l0[s] onward, seg_len[s] lines from element seg_off[s]. Runs
    // that continue each other in memory share one segment.
    size_t seg_l0[kTile], seg_len[kTile], seg_off[kTile];
#pragma omp for schedule(static)
    for (size_t g = 0; g < ngroups; ++g) {
      const size_t q0 = g * kTile;
      const size_t v = std::min(kTile, count - q0);
      // Line q0 is line i of run r of box b.
      size_t b = q0 / per_box, r = 0, i = q0 % per_box;
      while (i >= lines.runs[r].count) i -= lines.runs[r++].count;
      size_t nseg = 0;
      for (size_t l0 = 0; l0 < v;) {
        const LineRun& run = lines.runs[r];
        const size_t len = std::min(v - l0, run.count - i);
        const size_t off =
            b * lines.box_stride + run.offset + i * lines.line_step;
        if (nseg > 0 &&
            off == seg_off[nseg - 1] + seg_len[nseg - 1] * lines.line_step) {
          seg_len[nseg - 1] += len;
        } else {
          seg_l0[nseg] = l0;
          seg_len[nseg] = len;
          seg_off[nseg] = off;
          ++nseg;
        }
        l0 += len;
        i = 0;
        if (++r == lines.nruns) {
          r = 0;
          ++b;
        }
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
