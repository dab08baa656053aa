#!/usr/bin/env python3
"""Benchmark reachability exploration, observers, SNNI and opacity.

The workload is a product of independent modulo counters, so the state
count is (bound+1)**counters and every state is reachable. Defaults give
110_592 states, which a laptop should clear in a few seconds. Every
counter transition is Secret, so SNNI at Public sees only silent edges and
at Secret none (the check then stops without building an observer).
Current-state opacity with the identity map keeps the secret "every
counter full", the last state in breadth-first order, so the on-demand
observer expands almost every macro-state before it finds it. Explore is
timed a second time on the same grid with every increment also reading
every counter place: there each firing changes the input contents of every
transition, so the time shows what explore pays when a transition's inputs
keep changing.

Usage: python3 scripts/bench_statespace.py [--counters N] [--bound B]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fssm import (
    ExploreLimits,
    check_current_state_opacity,
    check_snni,
    dynamic_blp_check,
    explore,
    to_dot,
)
from fssm.corpus import bench_counter_net
from fssm.noninterference import obs_from_dict
from fssm.opacity import build_observer
from fssm.policy import And, CountCmp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--counters", type=int, default=3)
    ap.add_argument("--bound", type=int, default=47)
    ap.add_argument("--max-states", type=int, default=1_000_000)
    args = ap.parse_args()

    net = bench_counter_net(args.counters, args.bound)
    expected = (args.bound + 1) ** args.counters
    print(f"counter net: {args.counters} counters mod {args.bound + 1}, "
          f"{len(net.transitions)} transitions, {expected} states expected")

    t0 = time.perf_counter()
    g = explore(net, ExploreLimits(max_states=args.max_states))
    t1 = time.perf_counter()
    rate = len(g.states) / (t1 - t0)
    print(f"explore:  {len(g.states)} states, {len(g.edges)} edges in "
          f"{t1 - t0:.2f}s ({rate:,.0f} states/s)"
          + ("  [truncated]" if g.truncated else ""))
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS after explore: "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")

    t0 = time.perf_counter()
    dot = to_dot(g, show_markings=True)
    t1 = time.perf_counter()
    print(f"dot (markings): {len(dot):,} bytes in {t1 - t0:.2f}s")
    t0 = time.perf_counter()
    rep = dynamic_blp_check(net, graph=g)
    t1 = time.perf_counter()
    print(f"dynamic BLP: {rep.verdict}, {len(rep.violations)} violation(s) in {t1 - t0:.2f}s")

    # identity observation map: worst case, every macro-state is a singleton
    ident = obs_from_dict({t.id: t.id for t in net.transitions}, net)
    t2 = time.perf_counter()
    obs_auto = build_observer(g, ident)
    t3 = time.perf_counter()
    print(f"observer: {len(obs_auto.macro_states)} macro states in {t3 - t2:.2f}s "
          f"(identity map)")

    # silent map: single macro state absorbing everything
    silent = obs_from_dict({t.id: None for t in net.transitions}, net)
    t4 = time.perf_counter()
    obs_silent = build_observer(g, silent)
    t5 = time.perf_counter()
    print(f"observer: {len(obs_silent.macro_states)} macro state(s) in {t5 - t4:.2f}s "
          f"(all silent)")

    # SNNI explores the net itself, so these times include one explore each
    for level, note in (("Public", "all silent"), ("Secret", "none silent")):
        t0 = time.perf_counter()
        v = check_snni(net, level, ExploreLimits(max_states=args.max_states))
        t1 = time.perf_counter()
        print(f"snni at {level}: {'holds' if v.holds else 'fails'} in {t1 - t0:.2f}s ({note})")

    full = And(tuple(CountCmp(f"cnt{i}", "=", args.bound) for i in range(args.counters)))
    t0 = time.perf_counter()
    v = check_current_state_opacity(g, net, ident, full)
    t1 = time.perf_counter()
    verdict = "opaque" if v.opaque else f"not opaque, witness of {len(v.witness)} symbols"
    print(f"current-state opacity: {verdict} in {t1 - t0:.2f}s "
          f"(identity map, secret: every counter full)")

    reading = bench_counter_net(args.counters, args.bound, read_counters=True)
    t6 = time.perf_counter()
    g = explore(reading, ExploreLimits(max_states=args.max_states))
    t7 = time.perf_counter()
    print(f"explore (every counter read): {len(g.states)} states, {len(g.edges)} edges in "
          f"{t7 - t6:.2f}s ({len(g.states) / (t7 - t6):,.0f} states/s)"
          + ("  [truncated]" if g.truncated else ""))


if __name__ == "__main__":
    main()
