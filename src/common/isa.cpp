// The SIMD ISA choice shared by the FFT codelets and the la lanes
// (common/isa.hpp): CPU feature detection and the PTIM_SIMD override.
// Which vector units this build compiled is set by CMake, from the same
// compiler-flag checks that give those units their -m<isa> flags.

#include "common/isa.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace ptim::isa {

namespace {

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::kAvx2:
    case Isa::kAvx512: return false;
#endif
#if defined(__aarch64__)
    case Isa::kNeon: return true;  // baseline on AArch64
#else
    case Isa::kNeon: return false;
#endif
  }
  return false;
}

// Parse PTIM_SIMD; returns best_available() when unset, on "native", or —
// with a one-time stderr warning — when the request is unknown or not
// available on this build/CPU ("scalar" always succeeds).
Isa from_env_or_best() {
  const char* e = std::getenv("PTIM_SIMD");
  if (e == nullptr || *e == '\0') return best_available();
  Isa req = Isa::kScalar;
  bool known = true;
  if (std::strcmp(e, "scalar") == 0)
    req = Isa::kScalar;
  else if (std::strcmp(e, "avx2") == 0)
    req = Isa::kAvx2;
  else if (std::strcmp(e, "avx512") == 0)
    req = Isa::kAvx512;
  else if (std::strcmp(e, "neon") == 0)
    req = Isa::kNeon;
  else if (std::strcmp(e, "native") == 0)
    return best_available();
  else
    known = false;
  if (known && available(req)) return req;
  const Isa fb = best_available();
  std::fprintf(stderr, "ptim: PTIM_SIMD=%s %s; falling back to %s kernels\n",
               e,
               known ? "is not available on this build/CPU" : "is not a known"
                                                              " ISA",
               name(fb));
  return fb;
}

// -1 = not forced; otherwise the forced Isa. Relaxed is enough: tests
// force/clear around synchronous kernel calls.
std::atomic<int> g_forced{-1};

}  // namespace

const char* name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kNeon: return "neon";
  }
  return "?";
}

bool compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
#if defined(PTIM_COMPILED_AVX2)
    case Isa::kAvx2: return true;
#else
    case Isa::kAvx2: return false;
#endif
#if defined(PTIM_COMPILED_AVX512)
    case Isa::kAvx512: return true;
#else
    case Isa::kAvx512: return false;
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
    case Isa::kNeon: return true;
#else
    case Isa::kNeon: return false;
#endif
  }
  return false;
}

bool available(Isa isa) { return compiled(isa) && cpu_supports(isa); }

Isa best_available() {
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon})
    if (available(isa)) return isa;
  return Isa::kScalar;
}

Isa active() {
  const int f = g_forced.load(std::memory_order_relaxed);
  if (f >= 0) return static_cast<Isa>(f);
  // The environment is parsed (and any warning printed) exactly once.
  static const Isa from_env = from_env_or_best();
  return from_env;
}

void force(Isa isa) {
  PTIM_CHECK_MSG(available(isa), "isa::force: ISA not available");
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_forced() { g_forced.store(-1, std::memory_order_relaxed); }

}  // namespace ptim::isa
