#!/usr/bin/env python3
"""Self-tests of check_isa_objects.py on canned `nm -C` output.

    python3 scripts/test_check_isa_objects.py

The clean listing is what the codelet units define at any optimization
level; the dirty one is what the generic kernels defined at -O0: weak
std::complex accessors and std::copy instances compiled under the unit's
own -m flag.
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_isa_objects  # noqa: E402


def clean_nm(isa):
    return (
        "                 U __stack_chk_fail\n"
        f"000000000000000d T ptim::fft::simd::detail::{isa}_kernels_f32()\n"
        f"0000000000000000 T ptim::fft::simd::detail::{isa}_kernels_f64()\n"
        "0000000000000000 t void ptim::fft::simd::detail::(anonymous "
        "namespace)::leaf<double, 7ul>(double const*, double const*, "
        "unsigned long, double*, double*, unsigned long)\n"
        "0000000000000000 r ptim::fft::simd::detail::(anonymous namespace)"
        "::kKernelsF64\n"
    )


def dirty_nm(isa):
    return clean_nm(isa) + (
        "0000000000000000 W std::complex<double>::real[abi:cxx11]() const\n"
        "0000000000000000 W double* std::__copy_move<false, true, "
        "std::random_access_iterator_tag>::__copy_m<double>(double const*, "
        "double const*, double*)\n"
    )


class IsaObjectCheckTest(unittest.TestCase):
    def run_check(self, listing, isas=check_isa_objects.ISAS):
        with tempfile.TemporaryDirectory() as d:
            objdir = os.path.join(d, "CMakeFiles", "ptim.dir", "src", "fft")
            os.makedirs(objdir)
            for isa in isas:
                open(os.path.join(objdir, f"simd_{isa}.cpp.o"), "w").close()

            def fake_nm(path):
                isa = os.path.basename(path)[len("simd_"):-len(".cpp.o")]
                return listing(isa)

            out = io.StringIO()
            with redirect_stdout(out):
                status = check_isa_objects.main([d], nm=fake_nm)
            return status, out.getvalue()

    def test_clean_objects_pass(self):
        status, out = self.run_check(clean_nm)
        self.assertEqual(status, 0, out)

    def test_weak_symbol_fails(self):
        status, out = self.run_check(dirty_nm)
        self.assertEqual(status, 1)
        self.assertIn("std::complex<double>::real", out)

    def test_missing_object_fails(self):
        status, out = self.run_check(clean_nm, isas=("avx2", "avx512"))
        self.assertEqual(status, 1)
        self.assertIn("neon", out)

    def test_other_isas_getter_is_not_allowed(self):
        def cross(isa):
            return clean_nm(isa) + (
                "0000000000000020 T "
                "ptim::fft::simd::detail::scalar_kernels_f64()\n"
            )

        status, out = self.run_check(cross)
        self.assertEqual(status, 1)
        self.assertIn("scalar_kernels_f64", out)

    def test_undefined_references_are_ignored(self):
        def refs(isa):
            return clean_nm(isa) + (
                "                 U memcpy\n"
                "                 w __gmon_start__\n"
            )

        status, out = self.run_check(refs)
        self.assertEqual(status, 0, out)


if __name__ == "__main__":
    unittest.main()
