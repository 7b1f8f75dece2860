#!/usr/bin/env python3
"""Self-tests of check_isa_objects.py on canned `nm -C` and `objdump -d`
output.

    python3 scripts/test_check_isa_objects.py

The clean symbol listing is what the kernel units define at any
optimization level; the dirty one is what the generic kernels defined at
-O0: weak std::complex accessors and std::copy instances compiled under the
unit's own -m flag. The clean disassembly multiplies and adds separately;
the fused one is GCC's interleaved complex axpy under -mavx512f.
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_isa_objects  # noqa: E402


def getters(unit, isa):
    if unit == "fft":
        return (
            f"000000000000000d T ptim::fft::simd::detail::{isa}_kernels_f32()\n"
            f"0000000000000000 T ptim::fft::simd::detail::{isa}_kernels_f64()\n"
        )
    return f"0000000000003830 T ptim::la::simd::detail::{isa}_kernels()\n"


def clean_nm(unit, isa):
    return (
        "                 U __stack_chk_fail\n" + getters(unit, isa) +
        "0000000000000000 t void ptim::fft::simd::detail::(anonymous "
        "namespace)::leaf<double, 7ul>(double const*, double const*, "
        "unsigned long, double*, double*, unsigned long)\n"
        "0000000000000000 r ptim::fft::simd::detail::(anonymous namespace)"
        "::kKernelsF64\n"
    )


def dirty_nm(unit, isa):
    return clean_nm(unit, isa) + (
        "0000000000000000 W std::complex<double>::real[abi:cxx11]() const\n"
        "0000000000000000 W double* std::__copy_move<false, true, "
        "std::random_access_iterator_tag>::__copy_m<double>(double const*, "
        "double const*, double*)\n"
    )


def clean_objdump(_unit, _isa):
    return (
        "0000000000000000 <_ZN4ptim2la4simd6detail12avx2_kernelsEv>:\n"
        "   0:\tlea    0x0(%rip),%rax        # 7 <_ZN4ptim2la4simd>\n"
        "  a0:\tvmulpd %ymm2,%ymm4,%ymm1\n"
        "  a4:\tvaddpd 0x40(%rax,%r9,4),%ymm1,%ymm1\n"
        "  ab:\tvsubpd %ymm5,%ymm1,%ymm1\n"
        "  af:\tret\n"
    )


def fused_objdump(unit, isa):
    return clean_objdump(unit, isa) + (
        "  de:\tvfmaddsub231pd %zmm2,%zmm5,%zmm0\n"
    )


class IsaObjectCheckTest(unittest.TestCase):
    def run_check(self, listing, units=check_isa_objects.UNITS,
                  disassembly=clean_objdump):
        with tempfile.TemporaryDirectory() as d:
            for unit, isa in units:
                objdir = os.path.join(d, "CMakeFiles", "ptim.dir", "src", unit)
                os.makedirs(objdir, exist_ok=True)
                open(os.path.join(objdir, f"simd_{isa}.cpp.o"), "w").close()

            def unit_isa(path):
                unit = os.path.basename(os.path.dirname(path))
                return unit, os.path.basename(path)[len("simd_"):-len(".cpp.o")]

            out = io.StringIO()
            with redirect_stdout(out):
                status = check_isa_objects.main(
                    [d], nm=lambda p: listing(*unit_isa(p)),
                    objdump=lambda p: disassembly(*unit_isa(p)))
            return status, out.getvalue()

    def test_clean_objects_pass(self):
        status, out = self.run_check(clean_nm)
        self.assertEqual(status, 0, out)

    def test_weak_symbol_fails(self):
        status, out = self.run_check(dirty_nm)
        self.assertEqual(status, 1)
        self.assertIn("std::complex<double>::real", out)

    def test_missing_object_fails(self):
        status, out = self.run_check(
            clean_nm, units=(("fft", "avx2"), ("fft", "avx512"),
                             ("la", "avx2")))
        self.assertEqual(status, 1)
        self.assertIn("fft/neon", out)

    def test_missing_la_object_fails(self):
        status, out = self.run_check(
            clean_nm, units=(("fft", "avx2"), ("fft", "avx512"),
                             ("fft", "neon")))
        self.assertEqual(status, 1)
        self.assertIn("la/avx2", out)

    def test_other_isas_getter_is_not_allowed(self):
        def cross(unit, isa):
            return clean_nm(unit, isa) + (
                "0000000000000020 T "
                "ptim::fft::simd::detail::scalar_kernels_f64()\n"
            )

        status, out = self.run_check(cross)
        self.assertEqual(status, 1)
        self.assertIn("scalar_kernels_f64", out)

    def test_undefined_references_are_ignored(self):
        def refs(unit, isa):
            return clean_nm(unit, isa) + (
                "                 U memcpy\n"
                "                 w __gmon_start__\n"
            )

        status, out = self.run_check(refs)
        self.assertEqual(status, 0, out)


    def test_fft_getter_is_not_allowed_in_la(self):
        def cross(unit, isa):
            extra = ("0000000000000020 T "
                     f"ptim::fft::simd::detail::{isa}_kernels_f64()\n")
            return clean_nm(unit, isa) + (extra if unit == "la" else "")

        status, out = self.run_check(cross)
        self.assertEqual(status, 1)
        self.assertIn("la/avx2", out)

    def test_fused_multiply_add_fails(self):
        status, out = self.run_check(clean_nm, disassembly=fused_objdump)
        self.assertEqual(status, 1)
        self.assertIn("vfmaddsub231pd", out)

    def test_separate_multiply_and_add_pass(self):
        status, out = self.run_check(clean_nm, disassembly=clean_objdump)
        self.assertEqual(status, 0, out)
        self.assertNotIn("fused", out)

    def test_aarch64_fmla_fails(self):
        def neon_fmla(unit, isa):
            return clean_objdump(unit, isa) + (
                "  34:\tfmla\tv0.2d, v1.2d, v2.2d\n" if isa == "neon" else "")

        status, out = self.run_check(clean_nm, disassembly=neon_fmla)
        self.assertEqual(status, 1)
        self.assertIn("fft/neon", out)
        self.assertIn("fmla", out)


if __name__ == "__main__":
    unittest.main()
