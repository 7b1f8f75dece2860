#!/usr/bin/env python3
"""Check that the vector-ISA FFT kernel objects define nothing mergeable.

Usage:
    check_isa_objects.py BUILD_DIR

The FFT codelets (src/fft/codelets.hpp) are compiled once per ISA, each
translation unit with its own -m<isa> flag: simd_avx2.cpp, simd_avx512.cpp
and simd_neon.cpp. If one of those objects defined a weak (nm W/V), unique
(u) or strong global symbol besides its two table getters, say an inline
std::complex accessor or std::copy instance instantiated at -O0, the linker
would keep ONE copy of that symbol for the whole program, and it may be
the AVX-512 copy that ends up serving the scalar table on a CPU without
AVX-512. This script runs `nm` on each object found under BUILD_DIR and
fails on any defined global symbol other than
ptim::fft::simd::detail::<isa>_kernels_f64() / _f32().

Exit status 0 when all three objects are found and clean, 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

ISAS = ("avx2", "avx512", "neon")
# nm -C line: optional address, one-letter type, demangled name.
NM_LINE = re.compile(r"^\s*([0-9a-fA-F]*)\s+(\S)\s+(.+)$")


def allowed_symbols(isa):
    return {
        f"ptim::fft::simd::detail::{isa}_kernels_f64()",
        f"ptim::fft::simd::detail::{isa}_kernels_f32()",
    }


def is_defined_global(kind):
    """nm types a linker can resolve against: strong, weak or unique."""
    if kind in ("U", "w", "v"):  # undefined (weak-undefined) references
        return False
    return kind.isupper() or kind == "u"


def offending_symbols(nm_output, isa):
    """Defined global symbols of one object's `nm -C` output, minus the
    ISA's two table getters."""
    allowed = allowed_symbols(isa)
    bad = []
    for line in nm_output.splitlines():
        m = NM_LINE.match(line)
        if m is None:
            continue
        kind, name = m.group(2), m.group(3).strip()
        if is_defined_global(kind) and name not in allowed:
            bad.append(f"{kind} {name}")
    return bad


def find_objects(build_dir):
    """{isa: path} of the kernel objects under build_dir."""
    found = {}
    for root, _dirs, files in os.walk(build_dir):
        for f in files:
            for isa in ISAS:
                if re.fullmatch(rf"simd_{isa}\.cpp\.(o|obj)", f):
                    found[isa] = os.path.join(root, f)
    return found


def run_nm(path):
    return subprocess.run(["nm", "-C", path], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def main(argv=None, nm=run_nm):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir")
    args = ap.parse_args(argv)

    objects = find_objects(args.build_dir)
    ok = True
    for isa in ISAS:
        path = objects.get(isa)
        if path is None:
            print(f"FAIL {isa}: simd_{isa}.cpp object not found under "
                  f"{args.build_dir}")
            ok = False
            continue
        bad = offending_symbols(nm(path), isa)
        if bad:
            ok = False
            print(f"FAIL {isa}: {path} defines {len(bad)} mergeable global "
                  f"symbol(s):")
            for b in bad:
                print(f"    {b}")
        else:
            print(f"ok   {isa}: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
