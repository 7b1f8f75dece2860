#!/usr/bin/env python3
"""Benchmark of the ptim rt-TDDFT library: three workloads, one command.

    python3 perfbench/run.py --workload ring_wire --seed 1 --seconds 10 --trace 0

Builds the measurement engine (perfbench.cpp, linked against the library
compiled from the repository sources) under $CARGO_TARGET_DIR, default
.bench_build, runs one workload, checks its outputs against references.json
and that every set-up and repeat of the run counts and ends exactly alike,
and prints the metrics. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1. Exits nonzero
when anything failed. README.md documents every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ring_wire", "isdf_serial", "campaign_kill")
TRAJECTORIES = ("ring_wire", "isdf_serial")
ENGINE_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run the engine


def default_build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def build_engine(build_dir):
    """Configure and build the engine; returns its path, or None."""
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--parallel", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            log(r.stdout[-4000:])
            return None
    return os.path.join(build_dir, "ptim_perfbench")


def run_engine(exe, args, work_dir):
    """Raw samples of one workload run, or None if the engine failed."""
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=ENGINE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: engine timed out")
        return None
    if r.returncode != 0 or not r.stdout.strip():
        log("perfbench: engine exited with %d" % r.returncode)
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics


def ratio(num, den):
    return num / den if den else 0.0


def repeats(raw, traced):
    return [r for r in raw["repeats"] if r["traced"] == traced]


def step_mean(repeat, workload):
    """Mean wall seconds of one committed step in a repeat.

    Trajectories: rank 0's step loop over its steps. Campaign: the mean of
    the per-step metrics rows, one per step a worker group executed.
    """
    if workload in TRAJECTORIES:
        return ratio(repeat["seconds"], repeat["counts"]["steps"])
    return ratio(sum(repeat["step_seconds"]), len(repeat["step_seconds"]))


def job_seconds(repeat, workload):
    """Wall seconds per delivered trajectory of one repeat, on a prepared
    ground state: from the trajectory's first call to its gathered final
    state, or from the campaign's first submit to the end of collect()."""
    if workload in TRAJECTORIES:
        return repeat["traj_seconds"]
    return ratio(repeat["traj_seconds"], repeat["counts"]["core.jobs_done"])


def end_to_end(raw):
    w = raw["workload"]
    reps = repeats(raw, traced=False)
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "step_s": (statistics.median(step_mean(r, w) for r in reps), "s"),
        "traj_per_hour": (3600.0 / statistics.median(
            job_seconds(r, w) for r in reps), "1/h"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    """Per-layer metrics from the traced repeats of a --trace 1 run."""
    w = raw["workload"]
    reps = repeats(raw, traced=True)
    c = reps[0]["counts"]  # equal in every repeat (check_counts)
    steps = c["steps"]

    def layer(name):  # one repeat's sum, averaged over the traced repeats
        return statistics.mean(r["layers"].get(name, 0.0) for r in reps)

    def per_step(name):
        return ratio(layer(name), steps)

    def per_call(name):
        return ratio(layer(name + "_s"), layer(name + "_calls"))

    def count(name):
        return c.get(name, 0)

    def overhead():
        cost = [statistics.median(job_seconds(r, w) for r in group)
                for group in (reps, repeats(raw, traced=False))]
        return ratio(cost[0], cost[1]) - 1.0

    gs = raw["gs_counts"][0]
    prop_s = statistics.mean(r["seconds"] for r in reps)
    return {
        "gs.busy_s": (statistics.median(raw["gs_busy_s"]), "s"),
        "gs.scf_iters": (gs["gs.scf_iters"], "count"),
        "gs.outer_iters": (gs["gs.outer_iters"], "count"),
        "td.scf_iters_per_step": (ratio(count("td.scf_iters"), steps),
                                  "count/step"),
        "td.xc_applies_per_step": (ratio(count("td.xc_applies"), steps),
                                   "count/step"),
        "td.outer_iters_per_step": (ratio(count("td.outer_iters"), steps),
                                    "count/step"),
        "td.outer_capped_frac": (ratio(count("td.outer_capped"), steps),
                                 "ratio"),
        "td.advance_s_per_step": (per_step("td.advance_s"), "s/step"),
        "ham.exchange_s_per_step": (per_step("ham.exchange_s"), "s/step"),
        "ham.semilocal_s_per_iter": (per_call("ham.semilocal"), "s/iter"),
        "ham.density_s_per_iter": (per_call("ham.density"), "s/iter"),
        "la.qrcp_s_per_step": (per_step("la.qrcp_s"), "s/step"),
        "la.fit_solve_s_per_step": (per_step("la.fit_solve_s"), "s/step"),
        "la.gemm_apply_s_per_step": (per_step("la.gemm_apply_s"), "s/step"),
        "fft.xc_ffts_per_step": (ratio(count("fft.xc_ffts"), steps),
                                 "count/step"),
        "fft.xc_ffts_per_apply": (ratio(count("fft.xc_ffts"),
                                        count("td.xc_applies")),
                                  "count/apply"),
        "dist.ring_bytes_per_step": (ratio(count("dist.ring_bytes"), steps),
                                     "B/step"),
        "dist.ring_msgs_per_step": (ratio(count("dist.ring_msgs"), steps),
                                    "count/step"),
        "dist.comm_share": (ratio(layer("dist.comm_s"), prop_s), "ratio"),
        "ptmpi.wait_s_per_step": (per_step("ptmpi.wait_s"), "s/step"),
        "ptmpi.allreduce_calls_per_step": (
            ratio(count("ptmpi.allreduce_calls"), steps), "count/step"),
        "ptmpi.allreduce_s_per_step": (per_step("ptmpi.allreduce_s"),
                                       "s/step"),
        "ptmpi.alltoallv_bytes_per_step": (
            ratio(count("ptmpi.alltoallv_bytes"), steps), "B/step"),
        "ptmpi.alltoallv_s_per_step": (per_step("ptmpi.alltoallv_s"),
                                       "s/step"),
        "backend.allocs_per_step": (ratio(count("backend.allocs"), steps),
                                    "count/step"),
        "core.run_s": (layer("core.run_s"), "s"),
        "core.resume_s": (layer("core.resume_s"), "s"),
        "core.steps_replayed": (count("core.steps_replayed"), "count"),
        "io.submit_s": (layer("io.submit_s"), "s"),
        "io.collect_s": (layer("io.collect_s"), "s"),
        "io.ckpt_files": (count("io.ckpt_files"), "count"),
        "io.ckpt_bytes": (count("io.ckpt_bytes"), "B"),
        "trace_overhead": (overhead(), "ratio"),
    }


# ---------------------------------------------------------------------------
# Checks


class Ledger:
    """Operations attempted and failed: steps, jobs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append("%d of %d %s" % (failed, attempted, what))

    def check(self, ok, what):
        self.ops(1, 0 if ok else 1, what)
        return ok

    def failed_frac(self):
        return ratio(self.failed, self.attempted)


def rel_close(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


def check_final(f, ref, gs_ref, kind, tol, ledger, what):
    """Final energy and dipole_x of one trajectory. Dense runs are held to
    the reference value; ISDF to the dense response, that is to the
    absorbed energy and induced dipole (final minus ground state)."""
    for key, tol_key in (("energy", "energy"), ("dipole_x", "dipole")):
        rel = tol["%s_%s_rel" % (kind, tol_key)]
        if kind == "isdf":
            ok = rel_close(f[key] - gs_ref[key], ref[key] - gs_ref[key], rel)
            about = "response"
        else:
            ok = rel_close(f[key], ref[key], rel)
            about = "value"
        ledger.check(ok, "%s: %s %.12g vs %.12g (rel %.0e of the %s)"
                     % (what, key, f[key], ref[key], rel, about))


def check_outputs(raw, refs, ledger):
    """Convergence, thread budget, the ground state and the final
    observables of every repeat."""
    w = raw["workload"]
    budget = raw["budget"]
    tol = refs["tolerance"]
    gs_ref = refs["ground_state"]
    ledger.check(raw["omp_max_threads"] == budget["omp_threads"],
                 "OpenMP threads per rank match the budget")
    ledger.check(raw["cpus_allowed"] == budget["cpus"],
                 "ran on %d CPUs, budget %d" % (raw["cpus_allowed"],
                                                budget["cpus"]))
    check_final(raw["ground"], gs_ref, gs_ref, "dense", tol, ledger,
                "ground state")
    for i, r in enumerate(raw["repeats"]):
        ledger.ops(r["counts"]["steps"], r["unconverged"],
                   "steps of repeat %d converged" % i)
        ledger.check(r["threads_seen"] <= budget["threads"],
                     "repeat %d ran %d threads, budget %d"
                     % (i, r["threads_seen"], budget["threads"]))
        if w == "campaign_kill":
            ledger.check(r["killed"], "repeat %d: the injected kill fired" % i)
        for f in r["finals"]:
            what = "repeat %d %s final" % (i, f["name"])
            if w == "campaign_kill":
                if not ledger.check(f["done"], what + ": job done"):
                    continue
                ref = refs["campaign"][f["name"]]
            else:
                ref = refs["trajectory"]
            ledger.check(abs(f["sigma_trace"] - raw["nelec"] / 2)
                         <= tol["sigma_trace_abs"], what + ": trace(sigma)")
            check_final(f, ref, gs_ref,
                        "isdf" if w == "isdf_serial" else "dense", tol,
                        ledger, what)


def count_record(raw):
    """The exact counts of a run: the ground state's and one repeat's."""
    return {"gs": raw["gs_counts"][0], "repeat": raw["repeats"][0]["counts"]}


def check_counts(raw, ledger):
    """Every set-up and every repeat of a run count the same, and every
    repeat ends in bitwise the same final observables. A --trace 1 run
    alternates untraced and traced repeats, so this also holds the traced
    path to the untraced one (on isdf_serial: the staged protocol driven
    from outside to PtImPropagator::step)."""
    for i, g in enumerate(raw["gs_counts"]):
        ledger.check(g == raw["gs_counts"][0],
                     "set-up %d counts equal set-up 0's" % i)
    first = raw["repeats"][0]
    for i, r in enumerate(raw["repeats"]):
        ledger.check(r["counts"] == first["counts"],
                     "repeat %d counts equal repeat 0's" % i)
        ledger.check(sorted_finals(r) == sorted_finals(first),
                     "repeat %d final observables equal repeat 0's" % i)


def sorted_finals(repeat):
    return sorted(repeat["finals"], key=lambda f: f["name"])


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Report


def report(raw, metrics, ledger):
    b = raw["budget"]
    print("workload %s seed %d trace %d" % (raw["workload"], raw["seed"],
                                             raw["trace"]))
    print("threads  %d = %d ranks x (%d OpenMP + %d stream workers) on %d "
          "of %d CPUs" % (b["threads"], b["ranks"], b["omp_threads"],
                          b["stream_workers"], b["cpus"], b["nproc"]))
    print("repeats  %d (%d traced)" % (len(raw["repeats"]),
                                       len(repeats(raw, traced=True))))
    for name, (value, unit) in metrics.items():
        print("  %-32s %16.6g %s" % (name, value, unit))
    print("  %-32s %16.6g %s" % ("failed_frac", ledger.failed_frac(), "ratio"))
    print("counts   " + json.dumps(count_record(raw), sort_keys=True))
    for f in ledger.failures:
        print("FAILED   " + f)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    build_dir = default_build_dir()
    exe = build_engine(os.path.join(build_dir, "perfbench"))
    raw = exe and run_engine(exe, args, os.path.join(build_dir, "work"))
    if raw is None:
        return 1
    refs = load_json(os.path.join(HERE, "references.json"))

    ledger = Ledger()
    check_outputs(raw, refs, ledger)
    check_counts(raw, ledger)

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    report(raw, metrics, ledger)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())
