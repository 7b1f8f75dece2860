#pragma once
// The SIMD instruction set the dispatched kernels run on: the FFT codelets
// (fft/simd.hpp) and the dense linear-algebra lanes (la/simd.hpp). Each of
// those is one source compiled once per ISA (scalar baseline, AVX2,
// AVX-512F, NEON) with -ffp-contract=off, so every ISA gives the scalar
// table's bits and the choice below is a pure speed knob; one choice
// selects both.
//
// Selection order: force() (test hook) > the PTIM_SIMD environment
// variable (scalar|avx2|avx512|neon|native) > best_available(). An
// unavailable request warns once on stderr and falls back to the best
// available ISA.

namespace ptim::isa {

enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

const char* name(Isa isa);

// --- variant queries ------------------------------------------------------
bool compiled(Isa isa);   // this build compiled the ISA's kernel units
bool available(Isa isa);  // compiled AND supported by the running CPU
Isa best_available();

// --- active selection -----------------------------------------------------
Isa active();
// Test hooks: force() overrides every other selection source until
// clear_forced(); forcing an unavailable ISA throws.
void force(Isa isa);
void clear_forced();

}  // namespace ptim::isa
