#!/usr/bin/env python3
"""Time to verdict of ``fssm`` CLI jobs on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload counter|corpus|alloc --seed N \\
        --seconds S --trace 0|1

Set-up (importing ``fssm`` and writing the workload's model documents) runs
several times and reports its median.  One round runs the workload's whole
job list through ``fssm.cli.main`` in this process, as ``fssm <argv>``
would.  The first round is a warm-up whose reports are checked against
independent references (``reference.py``); later rounds are timed, and
their output must repeat the first round's byte for byte.  Rounds repeat
until ``--seconds`` have passed; times are medians over rounds.

The machine's speed drifts: on a 2-vCPU VM a fixed pure-Python loop
varies by 15% between samples and 10% between processes.  So every time is
scaled to a nominal speed: ``calibrate`` runs right before and after each
round (and each set-up), and a round's times are divided by the mean of the
two calibrations over ``CALIBRATION_NOMINAL_S``.  The calibration is
benchmark code, so a change to ``fssm`` moves the scaled times exactly as
much as the raw ones; the raw round times and speeds are in the info line.

With ``--trace 0`` every round is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds (``tracing.py``) and the
overhead is the difference of the two medians.  Load comes from this one
process in a closed loop: one job at a time, no threads, ``--jobs`` 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload's purpose, input sizes and further detail.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module; imports fssm lazily)

SETUP_REPEATS = 3
# what ``calibrate`` takes at the speed every reported time is scaled to
CALIBRATION_NOMINAL_S = 0.030
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs above it
KINDS = ("explore", "blp", "invariant", "ni", "opacity", "allocate")
LAYERS = ("modelfile", "statespace", "policy", "noninterference", "opacity", "allocation", "cli")
COUNTS = ("statespace.states", "statespace.edges", "policy.blp_edges",
          "opacity.macro_states", "allocation.allocations")

clock = time.perf_counter


def calibrate() -> float:
    """Seconds for a fixed pure-Python task of tuples, dicts and sorting."""
    t0 = clock()
    for _ in range(60):
        m = {}
        for i in range(600):
            key = (i % 37, i * 7 % 11, str(i % 13))
            m[key] = m.get(key, 0) + 1
        sorted(m.items())
    return clock() - t0


def setup(name: str, seed: int, workdir: str):
    """Import fssm afresh and write the workload's documents; return (s, workload)."""
    for mod in [m for m in sys.modules if m == "fssm" or m.startswith("fssm.")]:
        del sys.modules[mod]
    t0 = clock()
    importlib.import_module("fssm.cli")
    wl = workloads.BUILDERS[name](seed, workdir)
    return clock() - t0, wl


def run_round(jobs, fssm_main, tracer=None, keep_output=False):
    """Run every job once; return (wall seconds, [(exit code, stdout, seconds)]).

    Unless ``keep_output``, stdout is kept as its hash, so that the texts of
    a round do not add to the process's peak memory.
    """
    results = []
    t_round = clock()
    for i, job in enumerate(jobs):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = clock()
            try:
                if tracer is None:
                    code = fssm_main(job.argv)
                else:
                    with tracer.span("cli.job", i):
                        code = fssm_main(job.argv)
            except Exception as e:  # a job that raises is a failed job, not a crash
                code = f"raised {type(e).__name__}: {e}"
            dt = clock() - t0
        text = out.getvalue()
        results.append((code, text if keep_output else hash(text), dt))
    wall = clock() - t_round
    if tracer is not None:
        tracer.run_probes()
    return wall, results


def speed(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two calibrations."""
    return (before + after) / 2 / CALIBRATION_NOMINAL_S


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(spans, speed):
    """Per-layer sums over one traced round's spans, scaled by the round's speed."""

    def dur(s):
        return (s.end - s.start) / speed

    by = {}
    counts = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    job_self = 0.0
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += dur(s)
    blp_jobs = set()
    snni_first_explore = {}
    for i, s in enumerate(spans):
        d = dur(s)
        by[s.name] = by.get(s.name, 0.0) + d
        for k, v in s.counts.items():
            key = f"{s.layer}.{k}"
            counts[key] = counts.get(key, 0) + v
        if s.name == "cli.job":
            job_self += d - child[i]
        if s.parent is not None or s.name == "cli.job":
            self_s[s.layer] += d - child[i]
        if s.name == "policy.dynamic_blp_check":
            blp_jobs.add(s.job)
        if s.name == "statespace.explore" and s.parent is not None \
                and spans[s.parent].name == "noninterference.check_snni":
            snni_first_explore.setdefault(s.parent, d)
    blp_explore = sum(
        dur(s) for s in spans
        if s.name == "statespace.explore" and s.job in blp_jobs
        and spans[s.parent].name == "cli.job"
    )
    snni_explore = sum(snni_first_explore.values())
    g = by.get
    m = {
        "modelfile.parse_model_s": g("modelfile.parse_model", 0.0),
        "modelfile.models": counts.get("modelfile.models", 0),
        "modelfile.bytes": counts.get("modelfile.bytes", 0),
        "modelfile.serialize_model_s": g("modelfile.serialize_model", 0.0),
        "statespace.explore_s": g("statespace.explore", 0.0),
        "statespace.states": counts.get("statespace.states", 0),
        "statespace.edges": counts.get("statespace.edges", 0),
        "statespace.to_dot_s": g("statespace.to_dot", 0.0),
        "policy.dynamic_blp_check_s": g("policy.dynamic_blp_check", 0.0),
        "policy.blp_edges": counts.get("policy.blp_edges", 0),
        "policy.blp_explore_s": blp_explore,
        "policy.check_invariant_s": g("policy.check_invariant", 0.0),
        "noninterference.check_snni_s": g("noninterference.check_snni", 0.0),
        "noninterference.snni_explore_s": snni_explore,
        "opacity.build_observer_s": g("opacity.build_observer", 0.0),
        "opacity.macro_states": counts.get("opacity.macro_states", 0),
        "opacity.observer_states": counts.get("opacity.observer_states", 0),
        "opacity.check_current_state_opacity_s": g("opacity.check_current_state_opacity", 0.0),
        "opacity.check_run_opacity_s": g("opacity.check_run_opacity", 0.0),
        "allocation.enumerate_valid_s": g("allocation.enumerate_valid", 0.0),
        "allocation.allocations": counts.get("allocation.allocations", 0),
        "allocation.assignments": counts.get("allocation.assignments", 0),
        "allocation.min_cost_allocation_s": g("allocation.min_cost_allocation", 0.0),
        "allocation.synthesize_net_s": g("allocation.synthesize_net", 0.0),
        "cli.render_report_s": g("cli.render_report", 0.0),
        "cli.job_self_s": job_self,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]

    def ratio(a, b):
        return m[a] / m[b] if m[b] else 0.0

    m["statespace.states_per_s"] = ratio("statespace.states", "statespace.explore_s")
    m["policy.blp_to_explore"] = ratio("policy.dynamic_blp_check_s", "policy.blp_explore_s")
    m["noninterference.ni_to_explore"] = ratio("noninterference.check_snni_s",
                                               "noninterference.snni_explore_s")
    m["opacity.macro_to_states"] = ratio("opacity.macro_states", "opacity.observer_states")
    m["allocation.valid_share"] = ratio("allocation.allocations", "allocation.assignments")
    return m


def by_job_label(jobs, spans, speed):
    """Seconds per (job label, span name) in one traced round, scaled by its speed."""
    out = {}
    for s in spans:
        row = out.setdefault(jobs[s.job].label, {})
        row[s.name] = row.get(s.name, 0.0) + (s.end - s.start) / speed
    return out


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name in COUNTS or name.endswith(("models", "bytes", "assignments", "observer_states")):
        return "count"
    return "1"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        cal = [calibrate()]
        raw_setups = []
        for _ in range(SETUP_REPEATS):
            dt, wl = setup(args.workload, args.seed, workdir)
            raw_setups.append(dt)
            cal.append(calibrate())
        setups = [dt / speed(a, b) for dt, a, b in zip(raw_setups, cal, cal[1:])]
        import fssm
        from fssm.cli import main as fssm_main

        if Path(fssm.__file__).resolve().parent != ROOT / "src" / "fssm":
            print(f"fssm imported from {fssm.__file__}, not from this checkout", file=sys.stderr)
            return 2
        import reference
        import tracing

        # warm-up round; its reports are checked against the references at the end
        _, first = run_round(wl.jobs, fssm_main, keep_output=True)
        failures = []
        attempted = len(wl.jobs)

        untraced, traced = [], []  # (speed, wall, results[, spans]) per round
        deadline = clock() + args.seconds
        wall = 0.0
        cal = [calibrate()]
        while True:
            done = len(untraced) + len(traced)
            # stop before a round that would end past the deadline
            if done >= MIN_ROUNDS * (1 + args.trace) and clock() + wall > deadline:
                break
            if args.trace and done % 2 == 1:
                tracer = tracing.Tracer()
                with tracer.installed():
                    wall, results = run_round(wl.jobs, fssm_main, tracer)
                cal.append(calibrate())
                traced.append((speed(cal[-2], cal[-1]), wall, results, tracer.spans))
            else:
                wall, results = run_round(wl.jobs, fssm_main)
                cal.append(calibrate())
                untraced.append((speed(cal[-2], cal[-1]), wall, results))
            attempted += len(wl.jobs)
            for job, (code, out, _), (code0, out0, _) in zip(wl.jobs, results, first):
                if (code, out) != (code0, hash(out0)):
                    failures.append(f"{job.label} {os.path.basename(job.model)}: output differs from the first round")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = reference.Reference()
        for job, (code, out, _) in zip(wl.jobs, first):
            why = code if isinstance(code, str) else ref.check(job, code, out)
            if why is not None:
                failures.append(f"{job.label} {os.path.basename(job.model)}: {why}")

    med = statistics.median
    walls = [w / f for f, w, _ in untraced]
    latencies = [dt / f for f, _, results in untraced for _, _, dt in results]
    tail_s, tail_pct = tail(latencies)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "why": workloads.WHY[wl.name],
        "sizes": wl.sizes,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "speeds": [round(f, 4) for f, _, _ in untraced],
        "raw_round_walls_s": [round(w, 4) for _, w, _ in untraced],
        "raw_setups_s": [round(x, 4) for x in raw_setups],
        "job_tail_percentile": round(tail_pct, 3),
        "job_count": len(latencies),
    }
    if not args.trace:
        metrics = {
            "setup_s": med(setups),
            "wall_s": med(walls),
        }
        for kind in KINDS:
            metrics[f"{kind}_s"] = med(
                sum(dt for job, (_, _, dt) in zip(wl.jobs, results) if job.kind == kind) / f
                for f, _, results in untraced
            )
        metrics["job_p50_ms"] = med(latencies) * 1e3
        metrics["job_tail_ms"] = tail_s * 1e3
        metrics["peak_rss_mb"] = rss_mb
    else:
        per_round = [layer_metrics(spans, f) for f, _, _, spans in traced]
        metrics = {k: med(r[k] for r in per_round) for k in per_round[0]}
        for k in COUNTS:
            if len({r[k] for r in per_round}) != 1:
                failures.append(f"count {k} differs between traced rounds: {[r[k] for r in per_round]}")
        untraced_wall = med(walls)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = med(w / f for f, w, _, _ in traced) - untraced_wall
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
        labels = [by_job_label(wl.jobs, spans, f) for f, _, _, spans in traced]
        info["layer_by_job"] = {
            label: {name: med(r.get(label, {}).get(name, 0.0) for r in labels) for name in names}
            for label, names in labels[0].items()
        }
    info["failed_ratio"] = len(failures) / attempted
    info["failures"] = failures[:10]
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
