#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The accounting and count tests feed run.py synthetic engine output. The
kill/resume test builds the engine (as run.py does) and runs its --selftest
campaign, which takes about a minute on a 4-CPU host.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Dense response of the trajectory: absorbed energy 0.1, induced dipole 0.01.
REFS = {
    "tolerance": {"sigma_trace_abs": 1e-6, "dense_energy_rel": 1e-7,
                  "dense_dipole_rel": 1e-5, "isdf_energy_rel": 5e-3,
                  "isdf_dipole_rel": 0.25},
    "ground_state": {"energy": -34.1, "dipole_x": -11.01},
    "trajectory": {"energy": -34.0, "dipole_x": -11.0},
    "campaign": {"kick_1": {"energy": -34.5, "dipole_x": -11.5}},
}


def final(name="trajectory", energy=-34.0, dipole=-11.0, done=True):
    return {"name": name, "energy": energy, "dipole_x": dipole,
            "sigma_trace": 16.0, "done": done}


def repeat(seconds, steps=12, traced=False, unconverged=0, counts=None,
           step_seconds=(), finals=None, jobs=None, traj_seconds=None):
    c = {"steps": steps, "td.scf_iters": 30 * steps, "td.xc_applies": 4 * steps,
         "fft.xc_ffts": 3200 * steps, "backend.allocs": 0}
    if jobs is not None:
        c["core.jobs_done"] = jobs
    c.update(counts or {})
    return {"traced": traced, "seconds": seconds, "counts": c,
            "traj_seconds": seconds if traj_seconds is None else traj_seconds,
            "step_seconds": list(step_seconds), "unconverged": unconverged,
            "killed": True, "threads_seen": 1, "layers": {},
            "finals": [final()] if finals is None else finals}


def raw_run(workload, repeats, setup_s=(5.0, 4.0, 6.0)):
    gs = {"gs.converged": 1, "gs.outer_iters": 10, "gs.scf_iters": 47}
    return {"workload": workload, "seed": 3, "trace": 0,
            "budget": {"ranks": 1, "omp_threads": 1, "stream_workers": 0,
                       "threads": 1, "cpus": 4, "nproc": 4},
            "cpus_allowed": 4, "omp_max_threads": 1, "nelec": 32.0, "setup_s": list(setup_s),
            "gs_busy_s": [4.9, 3.9, 5.9],
            "gs_counts": [dict(gs) for _ in setup_s],
            "ground": final("ground_state", -34.1, -11.01), "peak_rss_mb": 12.5,
            "repeats": repeats}


class StepMeanTest(unittest.TestCase):
    def test_trajectory_step_s_is_median_of_untraced_repeat_means(self):
        raw = raw_run("isdf_serial", [
            repeat(1.2, traj_seconds=1.5), repeat(3.6, traj_seconds=3.9),
            repeat(2.4, traj_seconds=2.5), repeat(99.0, traced=True)])
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["step_s"][0], 0.2)
        self.assertAlmostEqual(m["setup_s"][0], 5.0)
        # The median whole trajectory, its own set-up and gather included.
        self.assertAlmostEqual(m["traj_per_hour"][0], 3600.0 / 2.5)

    def test_campaign_step_s_averages_the_metrics_rows(self):
        raw = raw_run("campaign_kill", [
            repeat(16.0, steps=128, jobs=16, step_seconds=[0.1, 0.3]),
            repeat(32.0, steps=128, jobs=16, step_seconds=[0.3, 0.3, 0.6])])
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["step_s"][0], 0.3)  # median of 0.2 and 0.4
        # Median of 1 and 2 seconds per trajectory.
        self.assertAlmostEqual(m["traj_per_hour"][0], 3600.0 / 1.5)

    def test_trace_overhead_compares_traced_with_untraced_repeats(self):
        raw = raw_run("isdf_serial", [repeat(2.0), repeat(2.5, traced=True)])
        m = run.per_layer(raw)
        self.assertAlmostEqual(m["trace_overhead"][0], 0.25)
        self.assertAlmostEqual(m["td.scf_iters_per_step"][0], 30.0)
        self.assertAlmostEqual(m["fft.xc_ffts_per_apply"][0], 800.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_printed_metrics_are_the_declared_ones(self):
        path = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")
        with open(path) as f:
            declared = json.load(f)
        raw = raw_run("isdf_serial", [repeat(2.0), repeat(2.5, traced=True)])
        for key, metrics in (("end_to_end", run.end_to_end(raw)),
                             ("per_layer", run.per_layer(raw))):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]},
                             {k: unit for k, (_, unit) in metrics.items()})
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(run.WORKLOADS))


class FailedFracTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        ledger = run.Ledger()
        run.check_outputs(raw_run("ring_wire", [repeat(1.0)]), REFS, ledger)
        self.assertEqual(ledger.failed, 0)
        # 2 budget checks (OpenMP threads, CPUs) + 2 ground-state checks
        # + 12 steps + 1 thread check + 3 output checks.
        self.assertEqual(ledger.attempted, 20)

    def test_unconverged_steps_and_wrong_outputs_count_as_failed(self):
        bad = repeat(1.0, unconverged=2,
                     finals=[final(energy=-34.0 * (1 + 1e-6))])
        ledger = run.Ledger()
        run.check_outputs(raw_run("ring_wire", [bad]), REFS, ledger)
        self.assertEqual(ledger.failed, 3)
        self.assertAlmostEqual(ledger.failed_frac(), 3 / 20)

    def test_isdf_is_checked_within_its_envelope(self):
        # 0.3% of the absorbed energy and 20% of the induced dipole off.
        near = repeat(1.0, finals=[final(energy=-34.0003, dipole=-11.002)])
        ledger = run.Ledger()
        run.check_outputs(raw_run("isdf_serial", [near]), REFS, ledger)
        self.assertEqual(ledger.failed, 0)
        ledger = run.Ledger()
        run.check_outputs(raw_run("ring_wire", [near]), REFS, ledger)
        self.assertEqual(ledger.failed, 2)

    def test_isdf_envelope_is_relative_to_the_induced_dipole(self):
        # 3.6e-4 of the total dipole, but 40% of the induced dipole.
        far = repeat(1.0, finals=[final(dipole=-11.004)])
        ledger = run.Ledger()
        run.check_outputs(raw_run("isdf_serial", [far]), REFS, ledger)
        self.assertEqual(ledger.failed, 1)
        self.assertIn("of the response", ledger.failures[0])

    def test_running_on_other_cpus_than_the_budget_is_a_failure(self):
        raw = raw_run("ring_wire", [repeat(1.0)])
        raw["budget"]["cpus"] = 2
        ledger = run.Ledger()
        run.check_outputs(raw, REFS, ledger)
        self.assertEqual(ledger.failures, ["1 of 1 ran on 4 CPUs, budget 2"])

    def test_a_wrong_ground_state_is_a_failure(self):
        raw = raw_run("isdf_serial", [repeat(1.0)])
        raw["ground"]["dipole_x"] = -11.02
        ledger = run.Ledger()
        run.check_outputs(raw, REFS, ledger)
        self.assertEqual(ledger.failed, 1)

    def test_a_job_not_done_is_a_failure(self):
        jobs = [final("kick_1", -34.5, -11.5),
                final("kick_1", 0.0, 0.0, done=False)]
        rep = repeat(16.0, steps=16, jobs=1, finals=jobs)
        rep["killed"] = False
        ledger = run.Ledger()
        run.check_outputs(raw_run("campaign_kill", [rep]), REFS, ledger)
        self.assertEqual(ledger.failed, 2)  # the kill and the unfinished job
        self.assertEqual(len(ledger.failures), 2)


class CountEqualityTest(unittest.TestCase):
    def check(self, raw):
        ledger = run.Ledger()
        run.check_counts(raw, ledger)
        return ledger

    def test_equal_counts_pass(self):
        raw = raw_run("ring_wire", [repeat(1.0), repeat(1.1, traced=True),
                                    repeat(0.9)])
        self.assertEqual(self.check(raw).failed, 0)

    def test_a_traced_repeat_that_counts_differently_fails(self):
        raw = raw_run("isdf_serial", [
            repeat(1.0), repeat(1.1, traced=True, counts={"fft.xc_ffts": 1})])
        ledger = self.check(raw)
        self.assertEqual(ledger.failures,
                         ["1 of 1 repeat 1 counts equal repeat 0's"])

    def test_a_traced_repeat_that_ends_differently_fails(self):
        # The staged protocol must end bitwise where step() ends.
        raw = raw_run("isdf_serial", [
            repeat(1.0), repeat(1.1, traced=True,
                                finals=[final(energy=-34.0 + 1e-14)])])
        ledger = self.check(raw)
        self.assertEqual(ledger.failures,
                         ["1 of 1 repeat 1 final observables equal "
                          "repeat 0's"])

    def test_campaign_jobs_may_finish_in_any_order(self):
        jobs = [final("kick_1", -34.5, -11.5), final("kick_2", -34.4, -11.4)]
        raw = raw_run("campaign_kill", [
            repeat(16.0, finals=jobs), repeat(16.0, finals=jobs[::-1])])
        self.assertEqual(self.check(raw).failed, 0)

    def test_a_set_up_that_counts_differently_fails(self):
        raw = raw_run("ring_wire", [repeat(1.0)])
        raw["gs_counts"][2]["gs.scf_iters"] += 1
        self.assertEqual(self.check(raw).failed, 1)


class KillResumeTest(unittest.TestCase):
    def test_every_job_is_done_after_kill_and_resume(self):
        build = os.path.join(run.default_build_dir(), "perfbench")
        exe = run.build_engine(build)
        self.assertIsNotNone(exe, "engine build failed")
        with tempfile.TemporaryDirectory() as work:
            r = subprocess.run([exe, "--selftest", "--work-dir", work],
                               stdout=subprocess.PIPE, text=True,
                               timeout=run.ENGINE_TIMEOUT_S)
        print(r.stdout, end="")
        self.assertEqual(r.returncode, 0, r.stdout)


if __name__ == "__main__":
    unittest.main()
