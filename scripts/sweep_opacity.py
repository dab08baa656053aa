#!/usr/bin/env python3
"""How observer coarseness affects current-state opacity.

Samples random nets with a random state secret, then sweeps the fraction
of silenced transitions in the observation map. Coarser observers leak
less, so the opaque fraction should grow with silence. A secret that no
reachable marking satisfies is opaque vacuously; those are tallied apart.

Usage: python3 scripts/sweep_opacity.py [--instances N] [--seed S]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fssm.corpus import random_lattice, random_net, random_obs, random_state_secret
from fssm.opacity import check_current_state_opacity
from fssm.policy import state_flags

SILENCE_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = random.Random(args.seed)

    cases = []
    while len(cases) < args.instances:
        lat = random_lattice(rng)
        net, g = random_net(rng, lat, max_states=40)
        secret = random_state_secret(rng, net)
        reachable = any(state_flags(g, net, secret))
        cases.append((net, g, secret, reachable))

    n_reachable = sum(1 for *_, r in cases if r)
    print(f"{len(cases)} instances (secret reachable in {n_reachable})")
    print(f"{'p_silent':>8}  {'opaque':>6}  {'opaque|reachable':>16}")
    for p_silent in SILENCE_GRID:
        opaque = opaque_r = 0
        for net, g, secret, reachable in cases:
            obs = random_obs(rng, net, p_silent=p_silent)
            v = check_current_state_opacity(g, net, obs, secret)
            opaque += v.opaque
            opaque_r += v.opaque and reachable
        frac = opaque / len(cases)
        frac_r = opaque_r / n_reachable if n_reachable else float("nan")
        print(f"{p_silent:>8.2f}  {frac:>6.2f}  {frac_r:>16.2f}")


if __name__ == "__main__":
    main()
