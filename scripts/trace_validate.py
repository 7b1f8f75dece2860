#!/usr/bin/env python3
"""Validate an obs Chrome trace-event JSON file.

Usage:
    trace_validate.py TRACE.json [--require-overlap] [--require-ranks N]

Checks, in order:

  1. The file is well-formed JSON with a `traceEvents` list holding only
     "X" (complete, with ts/dur) and "M" (metadata) events.
  2. Per lane — one lane is one (pid, tid) pair, i.e. one named thread
     lane of one rank — the duration events are properly NESTED: sorted by begin
     time, every event either starts after the previous one ends or lies
     entirely inside it. RAII spans recorded on one thread can never
     partially overlap, so a violation means clock or buffer corruption.
  3. The comm/compute overlap fraction is computable: for every pid
     (rank), intersect the union of `cat == "comm"` intervals with the
     union of `cat == "compute"` intervals across that rank's lanes.
     overlap_fraction = intersected_time / min(comm_time, compute_time).
     A compute span that encloses a comm span on its own lane is a
     WRAPPER (a whole step, say) and does not count as compute: otherwise
     a step span alone would make every transfer look overlapped. The
     posted ring records each round's in-flight window as the comm span
     `xchg.inflight`, which encloses the slab apply the transfer overlaps,
     so under a wire model that makes transfers take measurable time this
     is the machine-checkable form of the paper's Fig. 5 overlap claim.

Exit status 0 when every check passes (and, with --require-overlap, the
whole-trace overlap fraction is > 0; with --require-ranks N, at least N
distinct rank pids carry duration events).
"""

import argparse
import bisect
import json
import sys
from collections import defaultdict


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("no traceEvents list")
    events = doc["traceEvents"]
    for ev in events:
        if not isinstance(ev, dict):
            raise ValueError("non-object trace event")
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            raise ValueError(f"unexpected event phase {ph!r}")
        if ph == "X":
            for key in ("pid", "tid", "ts", "dur", "name", "cat"):
                if key not in ev:
                    raise ValueError(f"X event missing {key!r}: {ev}")
            if ev["dur"] < 0:
                raise ValueError(f"negative duration: {ev}")
    return events


def check_nesting(events):
    """Verify per-lane proper nesting; return the number of lanes."""
    lanes = defaultdict(list)
    for ev in events:
        if ev["ph"] == "X":
            lanes[(ev["pid"], ev["tid"])].append(ev)
    for (pid, tid), evs in lanes.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        # Stack of open intervals: each new event must begin after the top
        # ends (sibling, pop) or end within it (child, push).
        stack = []
        for ev in evs:
            t0, t1 = ev["ts"], ev["ts"] + ev["dur"]
            while stack and t0 >= stack[-1][1]:
                stack.pop()
            if stack and t1 > stack[-1][1] + 1e-9:
                raise ValueError(
                    f"lane pid={pid} tid={tid}: event {ev['name']!r} "
                    f"[{t0}, {t1}] partially overlaps an enclosing span "
                    f"ending at {stack[-1][1]}"
                )
            stack.append((t0, t1))
    return len(lanes)


def union_intervals(intervals):
    """Merge [t0, t1) intervals; return (merged_list, total_length)."""
    merged = []
    total = 0.0
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    for t0, t1 in merged:
        total += t1 - t0
    return merged, total


def intersect_length(a, b):
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def is_wrapper(iv, lane_comm):
    """True when a comm interval of the same lane lies inside iv.

    lane_comm is that lane's comm intervals sorted by begin time.
    """
    t0, t1 = iv
    i = bisect.bisect_left(lane_comm, (t0, float("-inf")))
    while i < len(lane_comm) and lane_comm[i][0] < t1:
        if lane_comm[i][1] <= t1:
            return True
        i += 1
    return False


def overlap_by_rank(events):
    """pid -> (comm_seconds, compute_seconds, overlap_fraction).

    Compute spans that enclose a comm span on their own lane (wrappers)
    are left out of the compute union.
    """
    lane_comm = defaultdict(list)
    for ev in events:
        if ev["ph"] == "X" and ev["cat"] == "comm":
            lane_comm[(ev["pid"], ev["tid"])].append(
                (ev["ts"], ev["ts"] + ev["dur"])
            )
    for ivs in lane_comm.values():
        ivs.sort()

    comm = defaultdict(list)
    compute = defaultdict(list)
    for ev in events:
        if ev["ph"] != "X":
            continue
        iv = (ev["ts"], ev["ts"] + ev["dur"])
        if ev["cat"] == "comm":
            comm[ev["pid"]].append(iv)
        elif ev["cat"] == "compute" and not is_wrapper(
            iv, lane_comm.get((ev["pid"], ev["tid"]), [])
        ):
            compute[ev["pid"]].append(iv)
    out = {}
    for pid in sorted(set(comm) | set(compute)):
        cm, cm_len = union_intervals(comm.get(pid, []))
        cp, cp_len = union_intervals(compute.get(pid, []))
        denom = min(cm_len, cp_len)
        frac = intersect_length(cm, cp) / denom if denom > 0 else 0.0
        out[pid] = (cm_len / 1e6, cp_len / 1e6, frac)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("trace")
    ap.add_argument(
        "--require-overlap",
        action="store_true",
        help="fail unless the whole-trace comm/compute overlap fraction > 0",
    )
    ap.add_argument(
        "--require-ranks",
        type=int,
        default=0,
        help="fail unless at least N distinct rank pids carry events",
    )
    args = ap.parse_args(argv)

    try:
        events = load_events(args.trace)
        nlanes = check_nesting(events)
    except ValueError as e:
        print(f"trace_validate: {args.trace}: {e}", file=sys.stderr)
        return 1

    ndur = sum(1 for ev in events if ev["ph"] == "X")
    pids = sorted({ev["pid"] for ev in events if ev["ph"] == "X"})
    print(
        f"trace_validate: {args.trace}: {ndur} duration events, "
        f"{nlanes} lanes, {len(pids)} rank pid(s) — well-formed, nested"
    )

    per_rank = overlap_by_rank(events)
    total_frac = 0.0
    nfrac = 0
    for pid, (cm_s, cp_s, frac) in per_rank.items():
        print(
            f"  rank pid {pid}: comm {cm_s:.6f}s, compute {cp_s:.6f}s, "
            f"overlap fraction {frac:.3f}"
        )
        if cm_s > 0 and cp_s > 0:
            total_frac += frac
            nfrac += 1
    mean_frac = total_frac / nfrac if nfrac else 0.0
    print(f"trace_validate: mean overlap fraction {mean_frac:.3f}")

    if args.require_ranks and len(pids) < args.require_ranks:
        print(
            f"trace_validate: expected >= {args.require_ranks} rank pids, "
            f"got {len(pids)}",
            file=sys.stderr,
        )
        return 1
    if args.require_overlap and not mean_frac > 0.0:
        print(
            "trace_validate: comm/compute overlap fraction is zero "
            "(expected the posted ring's xchg.inflight windows to enclose "
            "slab applies under a wire model)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
