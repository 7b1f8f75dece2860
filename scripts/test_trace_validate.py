#!/usr/bin/env python3
"""Self-tests of trace_validate.py's overlap gate on synthetic traces.

    python3 scripts/test_trace_validate.py

Each trace has two ranks with one lane each, wrapped in a compute span
that encloses the step's transfers, the way ptim.ace_prepare encloses the
row transposes of a band-parallel ACE build.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_validate  # noqa: E402


def span(pid, name, cat, ts, dur):
    return {"ph": "X", "pid": pid, "tid": 0, "name": name, "cat": cat,
            "ts": ts, "dur": dur}


def serialized_step(pid):
    """A step whose transfers and applies alternate, never overlapping."""
    return [
        span(pid, "ptim.ace_prepare", "compute", 0.0, 100.0),
        span(pid, "xchg.apply_slab", "compute", 10.0, 20.0),
        span(pid, "xchg.sendrecv", "comm", 30.0, 20.0),
        span(pid, "xchg.apply_slab", "compute", 50.0, 20.0),
    ]


def posted_step(pid):
    """A posted-ring step: the in-flight window encloses the apply."""
    return [
        span(pid, "ptim.ace_prepare", "compute", 0.0, 100.0),
        span(pid, "xchg.inflight", "comm", 10.0, 40.0),
        span(pid, "xchg.apply_slab", "compute", 10.0, 20.0),
        span(pid, "xchg.wait", "comm", 35.0, 15.0),
        span(pid, "xchg.apply_slab", "compute", 50.0, 20.0),
    ]


class OverlapGateTest(unittest.TestCase):
    def run_gate(self, events):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "TRACE_test.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events}, f)
            quiet = io.StringIO()
            with redirect_stdout(quiet), redirect_stderr(quiet):
                return trace_validate.main(
                    [path, "--require-overlap", "--require-ranks", "2"]
                )

    def test_wrapper_alone_is_not_overlap(self):
        events = serialized_step(0) + serialized_step(1)
        for _, _, frac in trace_validate.overlap_by_rank(events).values():
            self.assertEqual(frac, 0.0)
        self.assertEqual(self.run_gate(events), 1)

    def test_inflight_window_is_overlap(self):
        events = posted_step(0) + posted_step(1)
        for _, _, frac in trace_validate.overlap_by_rank(events).values():
            self.assertGreater(frac, 0.0)
        self.assertEqual(self.run_gate(events), 0)


if __name__ == "__main__":
    unittest.main()
