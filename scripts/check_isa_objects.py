#!/usr/bin/env python3
"""Check that the vector-ISA kernel objects define nothing mergeable and
contain no fused multiply-add.

Usage:
    check_isa_objects.py BUILD_DIR

Two kernel sources are compiled once per ISA, each translation unit with
its own -m<isa> flag: the FFT codelets (src/fft/codelets.hpp, in
src/fft/simd_avx2.cpp, simd_avx512.cpp and simd_neon.cpp) and the la lanes
(src/la/lane_kernels.hpp, in src/la/simd_avx2.cpp). Each vector object is
checked twice:

- Symbols. If an object defined a weak (nm W/V), unique (u) or strong
  global symbol besides its table getters, say an inline std::complex
  accessor or std::copy instance instantiated at -O0, the linker would keep
  ONE copy of that symbol for the whole program, and it may be the AVX-512
  copy that ends up serving the scalar table on a CPU without AVX-512.
  `nm -C` must show no defined global symbol but the unit's getters.
- Fused multiply-adds. Every ISA must give the scalar table's bits, which
  holds only if no multiply and add are fused (the units are built with
  -ffp-contract=off, but GCC fuses the interleaved complex multiply-add
  into vfmaddsub231pd under -mavx512f anyway). `objdump -d` must show no
  FMA mnemonic: x86 vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, vfmaddsub*,
  vfmsubadd*; AArch64 fmla, fmls, fmadd, fmsub, fnmadd, fnmsub, fcmla and
  the SVE fmad, fmsb, fnmla, fnmls, fnmad, fnmsb.

Exit status 0 when every object is found and clean, 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

# (directory under src/, ISA) of every vector-ISA kernel object.
UNITS = (("fft", "avx2"), ("fft", "avx512"), ("fft", "neon"), ("la", "avx2"))
# nm -C line: optional address, one-letter type, demangled name.
NM_LINE = re.compile(r"^\s*([0-9a-fA-F]*)\s+(\S)\s+(.+)$")
# objdump -d --no-show-raw-insn instruction line: address, colon, mnemonic.
INSN_LINE = re.compile(r"^\s*[0-9a-fA-F]+:\s+([a-z][\w.]*)")
FMA_X86 = re.compile(r"^vfn?m(add|sub)|^vfm(addsub|subadd)")
FMA_AARCH64 = {"fmla", "fmls", "fmadd", "fmsub", "fnmadd", "fnmsub", "fcmla",
               "fmad", "fmsb", "fnmla", "fnmls", "fnmad", "fnmsb"}


def allowed_symbols(unit, isa):
    if unit == "fft":
        return {
            f"ptim::fft::simd::detail::{isa}_kernels_f64()",
            f"ptim::fft::simd::detail::{isa}_kernels_f32()",
        }
    return {f"ptim::la::simd::detail::{isa}_kernels()"}


def is_defined_global(kind):
    """nm types a linker can resolve against: strong, weak or unique."""
    if kind in ("U", "w", "v"):  # undefined (weak-undefined) references
        return False
    return kind.isupper() or kind == "u"


def offending_symbols(nm_output, unit, isa):
    """Defined global symbols of one object's `nm -C` output, minus the
    unit's table getters."""
    allowed = allowed_symbols(unit, isa)
    bad = []
    for line in nm_output.splitlines():
        m = NM_LINE.match(line)
        if m is None:
            continue
        kind, name = m.group(2), m.group(3).strip()
        if is_defined_global(kind) and name not in allowed:
            bad.append(f"{kind} {name}")
    return bad


def is_fma(mnemonic):
    return FMA_X86.match(mnemonic) is not None or mnemonic in FMA_AARCH64


def fused_instructions(objdump_output):
    """Instruction lines of `objdump -d --no-show-raw-insn` output whose
    mnemonic is an FMA."""
    bad = []
    for line in objdump_output.splitlines():
        m = INSN_LINE.match(line)
        if m is not None and is_fma(m.group(1)):
            bad.append(line.strip())
    return bad


def find_objects(build_dir):
    """{(unit, isa): path} of the kernel objects under build_dir."""
    found = {}
    for root, _dirs, files in os.walk(build_dir):
        unit = os.path.basename(root)
        for f in files:
            for u, isa in UNITS:
                if u == unit and re.fullmatch(rf"simd_{isa}\.cpp\.(o|obj)", f):
                    found[(u, isa)] = os.path.join(root, f)
    return found


def run_nm(path):
    return subprocess.run(["nm", "-C", path], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def run_objdump(path):
    return subprocess.run(["objdump", "-d", "--no-show-raw-insn", path],
                          check=True, stdout=subprocess.PIPE, text=True).stdout


def main(argv=None, nm=run_nm, objdump=run_objdump):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir")
    args = ap.parse_args(argv)

    objects = find_objects(args.build_dir)
    ok = True
    for unit, isa in UNITS:
        label = f"{unit}/{isa}"
        path = objects.get((unit, isa))
        if path is None:
            print(f"FAIL {label}: src/{unit}/simd_{isa}.cpp object not found "
                  f"under {args.build_dir}")
            ok = False
            continue
        bad = offending_symbols(nm(path), unit, isa)
        fused = fused_instructions(objdump(path))
        if bad:
            ok = False
            print(f"FAIL {label}: {path} defines {len(bad)} mergeable global "
                  f"symbol(s):")
            for b in bad:
                print(f"    {b}")
        if fused:
            ok = False
            print(f"FAIL {label}: {path} contains {len(fused)} fused "
                  f"multiply-add instruction(s):")
            for f in fused[:20]:
                print(f"    {f}")
        if not bad and not fused:
            print(f"ok   {label}: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
