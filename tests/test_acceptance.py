"""End-to-end acceptance checks.

Nine independent criteria; each test prints exactly one PASS/FAIL line
with its measured numbers (run pytest with -s to see them inline).
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import product
from pathlib import Path

import pytest

import fssm
from conftest import FIXTURES, GOLDEN, fixture_path
from fssm import (
    Allocation,
    BlpConfig,
    ExploreLimits,
    allocation_cost,
    brute_force_opacity,
    build_observer,
    check_current_state_opacity,
    check_invariant,
    check_run_opacity,
    check_snni,
    coarsen_obs,
    derive_obs,
    dynamic_blp_check,
    enumerate_valid,
    explore,
    min_cost_allocation,
    obs_from_dict,
    parse_model,
    replay_witness,
    serialize_model,
    synthesize_net,
    to_dot,
    without_transitions,
)
from fssm.cli import main
from fssm.corpus import (
    bench_counter_net,
    random_cloud_specs,
    random_lattice,
    random_monitor,
    random_net,
    random_obs,
    random_state_secret,
    random_workflow,
)
from fssm.policy import Contains
from test_cli import GOLDEN_CASES
from test_lattice import _axioms
from test_noninterference import trace_language

CONTAIN_ONLY = BlpConfig(no_read_up=False, no_write_down=False, containment=True)


def record(num: int, label: str, ok: bool, detail: str):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _load_fixture(name: str) -> str:
    with open(fixture_path(name)) as fh:
        return fh.read()


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def opacity_corpus():
    rng = random.Random(20_002)
    instances = []
    for _ in range(220):
        net, g = random_net(rng, acyclic=True)
        instances.append(
            (
                net,
                g,
                random_obs(rng, net),
                random_state_secret(rng, net),
                random_monitor(rng, net),
            )
        )
    return instances


def test_criterion_1_lattice_axioms():
    rng = random.Random(10_001)
    t0 = time.perf_counter()
    failures = 0
    n = 120
    for _ in range(n):
        lat = random_lattice(rng)
        try:
            _axioms(lat)
        except AssertionError:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    record(1, "lattice axioms", ok, f"{n} lattices, {failures} failures, {elapsed:.2f}s")


def test_criterion_2_opacity_oracle_agreement(opacity_corpus):
    t0 = time.perf_counter()
    comparisons = mismatches = 0
    for net, g, obs, secret, mon in opacity_corpus:
        depth = len(g.states) + 1
        for spec, check in (
            (secret, check_current_state_opacity),
            (mon, check_run_opacity),
        ):
            got = check(g, net, obs, spec)
            want = brute_force_opacity(g, net, obs, spec, depth)
            comparisons += 1
            if (got.opaque, got.witness, got.exposed, got.example_secret_run) != (
                want.opaque,
                want.witness,
                want.exposed,
                want.example_secret_run,
            ):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = comparisons >= 200 and mismatches == 0 and elapsed < 30.0
    record(
        2,
        "opacity oracle agreement",
        ok,
        f"{comparisons} comparisons, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_coarsening_monotonicity(opacity_corpus):
    rng = random.Random(30_003)
    coarsenings = violations = opaque_instances = 0
    for net, g, obs, secret, mon in opacity_corpus:
        syms = sorted({s for _, s in obs.entries if s is not None})
        for spec, check in (
            (secret, check_current_state_opacity),
            (mon, check_run_opacity),
        ):
            if not check(g, net, obs, spec).opaque:
                continue
            opaque_instances += 1
            for _ in range(5):
                merge = {s: rng.choice(syms + [None]) for s in syms if rng.random() < 0.6}
                coarsenings += 1
                if not check(g, net, coarsen_obs(obs, merge), spec).opaque:
                    violations += 1
    ok = opaque_instances > 0 and violations == 0
    record(
        3,
        "coarsening monotonicity",
        ok,
        f"{opaque_instances} opaque instances, {coarsenings} coarsenings, "
        f"{violations} violations",
    )


def test_criterion_4_snni_oracle_agreement(net2, net3):
    rng = random.Random(777)
    checks = mismatches = 0
    for _ in range(120):
        net, g = random_net(rng, acyclic=True)
        for level in net.lattice.levels:
            v = check_snni(net, level)
            high = [
                t.id for t in net.transitions if not net.lattice.leq(t.clearance, level)
            ]
            purged = without_transitions(net, high)
            full = trace_language(g, derive_obs(net, level))
            low = trace_language(explore(purged), derive_obs(purged, level))
            checks += 1
            if v.holds != (full == low) or (not v.holds and v.witness not in full - low):
                mismatches += 1
    fix_ok = (
        check_snni(net2, "Public").holds
        and check_snni(net3, "Public", symbols={"t_pub": "r", "t_sig": "w"}).witness
        == ("w",)
    )
    ok = mismatches == 0 and fix_ok
    record(
        4,
        "snni oracle agreement",
        ok,
        f"{checks} corpus checks, {mismatches} mismatches, fixtures {'ok' if fix_ok else 'BAD'}",
    )


def test_criterion_5_blp_witness_replay(net1, net3, net1_leak):
    kinds = lambda rep: {(v.transition, v.kind) for v in rep.violations}
    clean = dynamic_blp_check(net1, BlpConfig(), graph=explore(net1))
    fix_ok = (
        clean.verdict == "holds"
        and kinds(dynamic_blp_check(net3, BlpConfig(), graph=explore(net3)))
        == {("t_sig", "read_up")}
        and kinds(dynamic_blp_check(net1_leak, BlpConfig(), graph=explore(net1_leak)))
        == {("t_leak", "write_down"), ("t_leak", "containment")}
    )
    replayed = failed = 0
    for net in (net1, net3, net1_leak):
        for v in dynamic_blp_check(net, BlpConfig(), graph=explore(net)).violations:
            replayed += 1
            if not replay_witness(net, v):
                failed += 1
    inv = check_invariant(
        explore(net1), net1, Contains("p2", "d"), mode="never"
    ).violations
    for v in inv:
        replayed += 1
        if not replay_witness(net1, v, p=Contains("p2", "d"), mode="never"):
            failed += 1
    rng = random.Random(50_005)
    for _ in range(150):
        net, _ = random_net(rng, acyclic=bool(rng.random() < 0.5))
        for v in dynamic_blp_check(net, BlpConfig(), graph=explore(net)).violations:
            replayed += 1
            if not replay_witness(net, v):
                failed += 1
    ok = fix_ok and failed == 0 and replayed >= 50
    record(
        5,
        "blp witness replay",
        ok,
        f"{replayed} violations replayed, {failed} failed, fixtures {'ok' if fix_ok else 'BAD'}",
    )


def test_criterion_6_allocation_bridge(lat2, wf1):
    rng = random.Random(60_006)
    t0 = time.perf_counter()
    instances = synth_checked = cost_checked = mismatches = 0
    for _ in range(110):
        lat = random_lattice(rng)
        wf = random_workflow(rng, lat, max_tasks=4)
        clouds, cost = random_cloud_specs(rng, lat, wf, max_clouds=3)
        instances += 1
        allocs = enumerate_valid(wf, clouds, lat, limit=100_000)
        valid_set = {a.assignment for a in allocs}
        ids = sorted(c.id for c in clouds)
        tids = [t.id for t in wf.tasks]
        brute = []
        for combo in product(ids, repeat=len(tids)):
            a = Allocation(assignment=tuple(zip(tids, combo)))
            by_id = {c.id: c for c in clouds}
            if all(
                lat.leq(wf.touch_join(t, lat), by_id[cid].clearance)
                for t, cid in a.assignment
            ):
                brute.append(a.assignment)
            net = synthesize_net(wf, a, lat, clouds, bypass_validity=True)
            holds = dynamic_blp_check(net, CONTAIN_ONLY, graph=explore(net)).verdict == "holds"
            synth_checked += 1
            if holds != (a.assignment in valid_set):
                mismatches += 1
        if sorted(brute) != [a.assignment for a in allocs]:
            mismatches += 1
        if allocs:
            best, total = min_cost_allocation(wf, clouds, lat, cost)
            table = [
                (allocation_cost(wf, a, clouds, cost, lat), a.assignment) for a in allocs
            ]
            cost_checked += 1
            if (total, best.assignment) != min(table):
                mismatches += 1
    wf_, clouds_, cost_ = wf1
    best, total = min_cost_allocation(wf_, clouds_, lat2, cost_)
    fix_ok = total == 5 and best.mapping == {"t1": "Cpub", "t2": "Cpriv"}
    elapsed = time.perf_counter() - t0
    ok = instances >= 100 and mismatches == 0 and fix_ok
    record(
        6,
        "allocation bridge",
        ok,
        f"{instances} instances, {synth_checked} synthesized nets, "
        f"{cost_checked} cost minima, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_7_determinism(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    problems = []

    b1 = parse_model(_load_fixture("net1_leak"))
    b2 = parse_model(_load_fixture("net1_leak"))
    g1, g2 = explore(b1.net), explore(b2.net)
    if g1.edges != g2.edges or g1.states != g2.states:
        problems.append("explore differs across runs")
    if to_dot(g1, show_markings=True) != to_dot(g2, show_markings=True):
        problems.append("to_dot differs across runs")

    argv = ["check", "blp", "net1_leak.json", "--format", "json"]
    one = _run_cli(argv)[1]
    if _run_cli(argv)[1] != one:
        problems.append("report differs across in-process runs")

    # The children run from FIXTURES, where a relative PYTHONPATH entry (the
    # bare ``src`` of a checkout) names no directory; put the directory of the
    # package this process imported first, so they run the code under test.
    pkg_root = str(Path(fssm.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([pkg_root, inherited] if inherited else [pkg_root])

    def spawn(name, extra_env, extra_argv=()):
        env = dict(os.environ, PYTHONPATH=pythonpath, **extra_env)
        proc = subprocess.run(
            [sys.executable, "-m", "fssm.cli", *extra_argv, *argv],
            capture_output=True,
            text=True,
            cwd=FIXTURES,
            env=env,
        )
        # Exit code 1 is also what a crash or an import error gives, so check
        # that the child printed a "violated" report and nothing else.
        assert proc.returncode == 1, f"{name}: exit {proc.returncode}: {proc.stderr}"
        assert proc.stderr == "", f"{name}: stderr: {proc.stderr}"
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            pytest.fail(f"{name}: stdout is not a JSON report ({exc}): {proc.stdout!r}")
        assert report.get("verdict") == "violated", f"{name}: {proc.stdout}"
        return proc.stdout

    runs = {
        "seed0": spawn("seed0", {"PYTHONHASHSEED": "0"}),
        "seed1": spawn("seed1", {"PYTHONHASHSEED": "1"}),
        "jobs4": spawn("jobs4", {"PYTHONHASHSEED": "2"}, ("--jobs", "4")),
    }
    differ = [f"{name} != one" for name, out in runs.items() if out != one]
    if differ:
        problems.append(
            "report differs across hash seeds or --jobs values: " + ", ".join(differ)
        )

    record(
        7,
        "determinism",
        not problems,
        "; ".join(problems) or "explore, DOT and reports byte-identical",
    )


def test_criterion_8_desk_scale_performance():
    net = bench_counter_net()
    t0 = time.perf_counter()
    g = explore(net, ExploreLimits(max_states=200_000))
    t_explore = time.perf_counter() - t0
    obs = obs_from_dict({t.id: t.id for t in net.transitions}, net)
    t0 = time.perf_counter()
    observer = build_observer(g, obs)
    t_observer = time.perf_counter() - t0
    ok = (
        len(g.states) >= 100_000
        and not g.truncated
        and len(observer.macro_states) == len(g.states)
        and t_explore < 10.0
        and t_observer < 5.0
    )
    record(
        8,
        "desk-scale performance",
        ok,
        f"{len(g.states)} states explored in {t_explore:.2f}s, "
        f"{len(observer.macro_states)} macro-states in {t_observer:.2f}s",
    )


def test_criterion_9_cli_contract(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    mismatched = []
    codes = set()
    for name, want_code, argv in GOLDEN_CASES:
        code, out, err = _run_cli(argv)
        codes.add(code)
        if code != want_code or err or out != (GOLDEN / name).read_text():
            mismatched.append(name)
    code, out, err = _run_cli(["validate", "ghost.json"])
    codes.add(code)
    if code != 2 or out or not err.startswith("fssm: error:"):
        mismatched.append("usage-error")

    unstable = []
    for name in ("minimal", "net1", "net2", "net3", "net1_leak", "wf1"):
        text = _load_fixture(name)
        b = parse_model(text)
        s = serialize_model(b)
        if parse_model(s) != b or serialize_model(parse_model(s)) != s:
            unstable.append(name)

    ok = not mismatched and not unstable and codes == {0, 1, 2}
    record(
        9,
        "cli contract",
        ok,
        f"{len(GOLDEN_CASES)} goldens, exit codes {sorted(codes)}, "
        f"mismatches {mismatched or 'none'}, fixpoint failures {unstable or 'none'}",
    )
