#!/usr/bin/env python3
"""Run every workload for one seed and print every metric with its unit.

Usage (from the repository root):

    python3 perfbench/all.py --seed N [--seconds S] [--out FILE]

Each workload runs in its own process three times: once untraced for the
end-to-end metrics and twice traced for the per-layer metrics.  The
count-type layer metrics of the two traced runs must be equal; a
difference fails the run, as does any job whose verdict disagrees with its
reference.  The exit code is 0 only when every workload's failed ratio is 0
and every count repeats.  ``--out`` writes the whole record as JSON,
including why each workload was chosen and its input sizes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import COUNTS
from workloads import BUILDERS

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int):
    """(info, result) of one run of run.py."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in BUILDERS:
        info, e2e = run(w, args.seed, args.seconds, 0)
        _, layers1 = run(w, args.seed, args.seconds, 1)
        info2, layers2 = run(w, args.seed, args.seconds, 1)
        counts = {k: [r["metrics"][k]["value"] for r in (layers1, layers2)] for k in COUNTS}
        repeat = all(a == b for a, b in counts.values())
        attempted = sum(r["attempted"] for r in (e2e, layers1, layers2))
        failed = sum(r["failed"] for r in (e2e, layers1, layers2))
        ok = ok and repeat and failed == 0
        record["workloads"][w] = {
            "why": info["why"],
            "sizes": info["sizes"],
            "failed_ratio": failed / attempted,
            "failures": info["failures"] + info2["failures"],
            "counts_repeat": repeat,
            "job_tail_percentile": info["job_tail_percentile"],
            "job_count": info["job_count"],
            "rounds": info["rounds"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers2["metrics"],
            "layer_by_job": info2["layer_by_job"],
        }
        print(f"== {w}: {info['why']}")
        print(f"   sizes: {json.dumps(info['sizes'], sort_keys=True)}")
        print(f"   failed_ratio {failed / attempted:.6g} (1)   counts repeat: {repeat}")
        print(f"   job_tail_ms is p{info['job_tail_percentile']} of {info['job_count']} jobs")
        for name, m in list(e2e["metrics"].items()) + list(layers2["metrics"].items()):
            print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
    counter = record["workloads"]["counter"]
    record["baseline"] = {
        "graph": f"counter net, {counter['sizes']['states']} states",
        **{k: counter["per_layer"][k]["value"] for k in (
            "statespace.states_per_s", "policy.blp_to_explore", "noninterference.ni_to_explore")},
        "opacity.build_observer_s": {
            m: counter["layer_by_job"][f"opacity-{m}"]["opacity.build_observer"]
            for m in ("identity", "silent")
        },
    }
    print(f"baseline: {json.dumps(record['baseline'], sort_keys=True)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
