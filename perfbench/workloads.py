"""Seeded workload generation: model documents on disk plus a job list.

A job is one ``fssm`` command line, run in-process through
``fssm.cli.main``.  The seed decides the contents of every document; the
sizes that set the cost of a round (states of the counter net, models per
corpus, tasks and clouds per workflow) are fixed per workload, so that
rounds of different seeds do comparable work.

``fssm`` is imported inside the builders, not at module level, so that the
set-up timing can import it afresh.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import product
from random import Random

# counter: K counters of capacity B, (B+1)**K states
COUNTER_K = 3
COUNTER_B = 11
COUNTER_WORKFLOW_TASKS = 12
COUNTER_PUBLIC_TASKS = 10  # tasks either cloud may run: 2**10 valid allocations

CORPUS_MODELS = 100
CORPUS_MAX_LEVELS = 6  # model i has 1 + i % 6 levels, so every seed runs as many ni jobs

ALLOC_MEDIUM = 24          # workflows of 12..16 tasks, in turn, so every seed has the same sizes
ALLOC_MEDIUM_TASKS = (12, 16)
ALLOC_MEDIUM_MAX_VALID = 4096  # keeps --enumerate and the brute-force reference finite
# as many workflows with exactly 2**b valid allocations for each b < 12, so every
# seed enumerates and searches spaces of the same sizes; they are built to that
# count (``_split_workflow``, two clouds), not drawn until one fits, so that
# set-up time does not depend on the seed
ALLOC_MEDIUM_BUCKETS = 12
# (tasks, clouds); small workflows are chains t0 -> t1 -> ..., so every seed's
# synthesized nets have the same interleavings
ALLOC_SMALL_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3))
ALLOC_SMALL_LEVELS = 3
ALLOC_CHECK_MAX_RUNS = 2000  # brute-force opacity enumerates every run

WHY = {
    "counter": (
        "one large product-grid counter net: per-state and per-edge costs of explore, "
        "BLP, SNNI and opacity dominate; parse and allocation cost about 0"
    ),
    "corpus": (
        "many small random acyclic models as CI checks them: per-call fixed costs "
        "(argument parsing, parse, net set-up, SNNI's second exploration) dominate"
    ),
    "alloc": (
        "the one heavy user of allocation: branch-and-bound and enumeration on 12-16 "
        "task workflows, and the synthesize-and-check bridge on small ones"
    ),
}


@dataclass
class Job:
    kind: str    # explore | blp | invariant | ni | opacity | allocate
    label: str   # job type within the workload
    argv: list
    model: str   # path of the model document the job reads
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list
    sizes: dict


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _check(*argv):
    return ["--format", "json", "check", *argv]


def _cmd(*argv):
    return ["--format", "json", *argv]


def _split_workflow(rng: Random, lows: list, highs: list, tasks: int, n_low: int):
    """Tasks and edges, as ``build_workflow`` takes them, where exactly ``n_low``
    tasks touch only levels in ``lows`` and every other task touches one in ``highs``.

    With ``lows`` the levels at or below some level L, a cloud cleared for L
    and one cleared for the top level give exactly 2**n_low valid allocations.
    """
    low = set(rng.sample(range(tasks), n_low))
    touches = {i: {(rng.choice("dkr"), rng.choice(lows))} for i in range(tasks)}
    for i in range(tasks):
        if i not in low:
            touches[i].add((rng.choice("dkr"), rng.choice(highs)))
    edges = []
    for i in range(tasks):
        for j in range(i + 1, tasks):
            if rng.random() < 0.3:
                # an edge into a low task carries low data, so the task stays low
                data = sorted(x for x in touches[i] if j not in low or x[1] in lows)
                k, lv = rng.choice(data)
                touches[j].add((k, lv))
                edges.append((f"t{i}", f"t{j}", k, lv))
    return [(f"t{i}", sorted(touches[i])) for i in range(tasks)], edges


# --------------------------------------------------------------------------
# counter


def build_counter(seed: int, workdir: str) -> Workload:
    rng = Random(seed)
    k, b = COUNTER_K, COUNTER_B
    roles = ["low", "high", "leak"] + ["low"] * (k - 3)
    rng.shuffle(roles)
    tid = {i: f"inc{i}" for i in range(k)}
    low = roles.index("low")
    high = roles.index("high")
    leak = roles.index("leak")
    doc = {
        "lattice": {"levels": ["Public", "Secret"], "covers": [["Public", "Secret"]]},
        "clouds": [{"id": "lo", "clearance": "Public"}, {"id": "hi", "clearance": "Secret"}],
        "places": [{"id": "seed", "cloud": "lo"}]
        + [
            {"id": f"cnt{i}", "cloud": "hi" if roles[i] == "high" else "lo", "capacity": b}
            for i in range(k)
        ],
        "transitions": [
            {
                "id": tid[i],
                "cloud": "lo" if roles[i] == "low" else "hi",
                "clearance": "Public" if roles[i] == "low" else "Secret",
                "floor": "Secret" if roles[i] == "leak" else "Public",
                "inputs": [{"place": "seed", "mode": "read", "class": "s"}],
                "outputs": [{"place": f"cnt{i}", "class": f"c{i}"}],
            }
            for i in range(k)
        ],
        "initial_markings": [{"seed": [{"class": "s", "level": "Public", "count": 1}]}],
        "observations": {
            "ident": {tid[i]: tid[i] for i in range(k)},
            "silent": {tid[i]: None for i in range(k)},
            "low": {"default": "by_clearance:Public"},
        },
        "secrets": {
            "hi_used": {"state": {"count": [f"cnt{high}", ">=", 1]}},
            "lo_full": {"state": {"count": [f"cnt{low}", "=", b]}},
            "leaked": {
                "monitor": {
                    "states": ["q0", "q1"],
                    "initial": "q0",
                    "accepting": ["q1"],
                    "edges": [["q0", tid[leak], "q1"]],
                }
            },
        },
        "observers": {"low": "Public", "high": "Secret"},
    }
    wf_tasks, wf_edges = _split_workflow(
        rng, ["Public"], ["Secret"], COUNTER_WORKFLOW_TASKS, COUNTER_PUBLIC_TASKS)
    doc["workflow"] = {
        "tasks": [{"id": t, "touches": [list(x) for x in ts]} for t, ts in wf_tasks],
        "edges": [list(e) for e in wf_edges],
    }
    doc["costs"] = {
        "exec": {c: {t: rng.randint(0, 5) for t, _ in wf_tasks} for c in ("hi", "lo")},
        "transfer": rng.randint(1, 3),
    }
    f = _write(workdir, "counter.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    emitted = os.path.join(workdir, "counter.emitted.json")

    states = (b + 1) ** k
    edges = k * b * (b + 1) ** (k - 1)
    per_counter = b * (b + 1) ** (k - 1)  # firings of one counter transition
    ex = dict(states=states, edges=edges)
    jobs = [
        Job("explore", "explore", _cmd("explore", f), f, ex),
        Job("explore", "explore-dot", ["explore", f, "--dot", "-", "--show-markings"], f, ex),
        Job(
            "blp",
            "blp",
            _check("blp", f),
            f,
            dict(
                violations=[
                    [tid[leak], "containment", per_counter],
                    [tid[leak], "write_down", per_counter],
                ],
                witness=[tid[leak]],
            ),
        ),
        Job(
            "invariant",
            "invariant",
            _check("invariant", f, "--pred", "lo_full", "--mode", "never"),
            f,
            dict(hits=(b + 1) ** (k - 1), witness=[tid[low]] * b),
        ),
        Job("ni", "ni-low", _check("ni", f, "--observer", "low"), f, dict(verdict="holds")),
        Job("ni", "ni-high", _check("ni", f, "--observer", "high"), f, dict(verdict="holds")),
        Job(
            "opacity",
            "opacity-identity",
            _check("opacity", f, "--secret", "hi_used", "--obs", "ident"),
            f,
            dict(verdict="not_opaque", witness=[tid[high]]),
        ),
        Job(
            "opacity",
            "opacity-silent",
            _check("opacity", f, "--secret", "hi_used", "--obs", "silent"),
            f,
            dict(verdict="opaque"),
        ),
        Job(
            "opacity",
            "opacity-run",
            _check("opacity", f, "--secret", "leaked", "--obs", "low"),
            f,
            dict(verdict="opaque"),
        ),
        Job("allocate", "allocate-emit", _cmd("allocate", f, "--min-cost", "--emit-net", emitted), f,
            dict(emitted=emitted)),
        Job("allocate", "allocate-enum", _cmd("allocate", f, "--enumerate"), f),
    ]
    sizes = dict(models=1, states=states, edges=edges, tasks=COUNTER_WORKFLOW_TASKS,
                 jobs=len(jobs), counters=k, bound=b)
    return Workload("counter", jobs, sizes)


# --------------------------------------------------------------------------
# corpus


def _net_jobs(f, levels, state_secret, run_secret, obs, mode="never"):
    """explore (DOT to a file), BLP, invariant, SNNI at every level and both opacity kinds."""
    jobs = [
        Job("explore", "explore", _cmd("explore", f, "--dot", f.removesuffix(".json") + ".dot"), f),
        Job("blp", "blp", _check("blp", f), f),
        Job("invariant", "invariant",
            _check("invariant", f, "--pred", state_secret, "--mode", mode), f),
    ]
    jobs += [Job("ni", "ni", _check("ni", f, "--observer", lv), f) for lv in levels]
    jobs.append(Job("opacity", "opacity-state",
                    _check("opacity", f, "--secret", state_secret, "--obs", obs), f))
    jobs.append(Job("opacity", "opacity-run",
                    _check("opacity", f, "--secret", run_secret, "--obs", obs), f))
    return jobs


def build_corpus(seed: int, workdir: str) -> Workload:
    from fssm.allocation import CloudSpec, CostModel
    from fssm.corpus import (
        random_lattice,
        random_monitor,
        random_net,
        random_obs,
        random_state_secret,
        random_workflow,
    )
    from fssm.modelfile import ModelBundle, serialize_model

    rng = Random(seed)
    jobs = []
    states = edges = tasks = 0
    for i in range(CORPUS_MODELS):
        while True:
            lat = random_lattice(rng, max_levels=CORPUS_MAX_LEVELS)
            if len(lat.levels) == 1 + i % CORPUS_MAX_LEVELS:
                break
        net, g = random_net(rng, lat, acyclic=True)
        wf = random_workflow(rng, lat, max_tasks=3)
        specs = tuple(
            CloudSpec(id=c.id, clearance=c.clearance, exec_cost=rng.randint(0, 5))
            for c in net.clouds
        )
        bundle = ModelBundle(
            net=net,
            obs_maps=(("obs", random_obs(rng, net)),),
            secrets=(("run", random_monitor(rng, net)), ("state", random_state_secret(rng, net))),
            workflow=wf,
            cloud_specs=specs,
            cost=CostModel(transfer_cost=rng.randint(0, 3)),
        )
        f = _write(workdir, f"corpus{i:05d}.json", serialize_model(bundle))
        states += len(g.states)
        edges += len(g.edges)
        tasks += len(wf.tasks)
        jobs.extend(_net_jobs(f, lat.levels, "state", "run", "obs", mode="always"))
        emitted = os.path.join(workdir, f"corpus{i:05d}.emitted.json")
        jobs.append(Job("allocate", "allocate-min",
                        _cmd("allocate", f, "--min-cost", "--emit-net", emitted), f,
                        dict(emitted=emitted)))
        jobs.append(Job("allocate", "allocate-enum", _cmd("allocate", f, "--enumerate"), f))
    sizes = dict(models=CORPUS_MODELS, states=states, edges=edges, tasks=tasks, jobs=len(jobs))
    return Workload("corpus", jobs, sizes)


# --------------------------------------------------------------------------
# alloc


def _alloc_doc(lat, specs, cost, wf) -> str:
    """A model document holding only the lattice, the clouds, a workflow and costs."""
    from fssm.model import Cloud, Marking, build_net
    from fssm.modelfile import ModelBundle, serialize_model

    net = build_net(lat, [Cloud(s.id, s.clearance) for s in specs], [], [], [Marking({})])
    return serialize_model(ModelBundle(net=net, workflow=wf, cloud_specs=tuple(specs), cost=cost))


def _run_count(g) -> int:
    """Firing sequences of an acyclic graph, counted over the DAG."""
    out = [[] for _ in g.states]
    for e in g.edges:
        out[e.src].append(e.dst)
    runs = [1] * len(g.states)
    for s in reversed(range(len(g.states))):  # BFS order: successors come later
        runs[s] = 1 + sum(runs[d] for d in out[s])
    return runs[0]


def _checked_net(workdir, name, lat, net, last):
    """Write ``net`` with a bottom-level observer and "task ``last`` finished" as secrets."""
    from fssm.modelfile import ModelBundle, serialize_model
    from fssm.noninterference import obs_from_dict
    from fssm.opacity import RunMonitor
    from fssm.policy import Contains

    bundle = ModelBundle(
        net=net,
        obs_maps=(("low", obs_from_dict(
            {t.id: t.id if lat.leq(t.clearance, lat.bottom) else None for t in net.transitions},
            net)),),
        secrets=(
            ("done", Contains(f"res_{last}")),
            ("mon", RunMonitor(states=("q0", "q1"), initial="q0", rules=(("q0", last, "q1"),),
                               accepting=frozenset({"q1"}))),
        ),
    )
    return _write(workdir, name, serialize_model(bundle))


def build_alloc(seed: int, workdir: str) -> Workload:
    from fssm.allocation import Allocation, CloudSpec, CostModel, build_workflow, synthesize_net
    from fssm.corpus import random_cloud_specs, random_lattice, random_workflow
    from fssm.modelfile import ModelBundle, serialize_model
    from fssm.statespace import explore

    rng = Random(seed)
    jobs = []
    tasks = models = states = edges = 0
    lo, hi = ALLOC_MEDIUM_TASKS
    medium = []
    for i in range(ALLOC_MEDIUM):
        lat = random_lattice(rng)
        while len(lat.levels) < 2:
            lat = random_lattice(rng)
        cut = rng.choice([lv for lv in lat.levels if lv != lat.top])
        lows = [lv for lv in lat.levels if lat.leq(lv, cut)]
        highs = [lv for lv in lat.levels if lv not in lows]
        n_tasks = lo + i % (hi - lo + 1)
        n_low = i * ALLOC_MEDIUM_BUCKETS // ALLOC_MEDIUM  # log2 of the valid allocations
        wf = build_workflow(*_split_workflow(rng, lows, highs, n_tasks, n_low), lat)
        specs = [
            CloudSpec(id=cid, clearance=lv, exec_cost=rng.randint(0, 5),
                      overrides=tuple((t.id, rng.randint(0, 5)) for t in wf.tasks))
            for cid, lv in (("C0", lat.top), ("C1", cut))
        ]
        medium.append((lat, specs, CostModel(transfer_cost=rng.randint(1, 3)), wf))
    for i, (lat, specs, cost, wf) in enumerate(medium):
        f = _write(workdir, f"medium{i:03d}.json", _alloc_doc(lat, specs, cost, wf))
        models += 1
        tasks += len(wf.tasks)
        jobs.append(Job("allocate", "allocate-min", _cmd("allocate", f, "--min-cost"), f))
        jobs.append(Job("allocate", "allocate-enum",
                        _cmd("allocate", f, "--enumerate", "--limit", str(ALLOC_MEDIUM_MAX_VALID)), f))

    for i, (n_tasks, n_clouds) in enumerate(ALLOC_SMALL_SHAPES):
        while True:
            lat = random_lattice(rng)
            if len(lat.levels) == ALLOC_SMALL_LEVELS:  # ni runs once per level
                break
        chain = [(f"t{k}", f"t{k + 1}") for k in range(n_tasks - 1)]
        while True:
            wf = random_workflow(rng, lat, max_tasks=n_tasks)
            if [(e.producer, e.consumer) for e in wf.edges] == chain:
                break
        while True:
            specs, cost = random_cloud_specs(rng, lat, wf, max_clouds=n_clouds)
            if len(specs) == n_clouds:
                break
        f = _write(workdir, f"small{i:03d}.json", _alloc_doc(lat, specs, cost, wf))
        emitted = os.path.join(workdir, f"small{i:03d}.emitted.json")
        models += 1
        tasks += len(wf.tasks)
        jobs.append(Job("allocate", "allocate-min-emit",
                        _cmd("allocate", f, "--min-cost", "--emit-net", emitted), f,
                        dict(emitted=emitted)))
        jobs.append(Job("allocate", "allocate-enum", _cmd("allocate", f, "--enumerate"), f))
        tids = [t.id for t in wf.tasks]
        clearance = {s.id: s.clearance for s in specs}
        for j, combo in enumerate(product(sorted(clearance), repeat=len(tids))):
            a = Allocation(assignment=tuple(zip(tids, combo)))
            net = synthesize_net(wf, a, lat, specs, bypass_validity=True)
            valid = all(
                lat.leq(lat.join_all(lv for _, lv in wf.task_by_id[t].touches), clearance[c])
                for t, c in a.assignment
            )
            g = _write(workdir, f"small{i:03d}.a{j:03d}.json", serialize_model(ModelBundle(net=net)))
            models += 1
            jobs.append(Job("blp", "bridge", _check("blp", g, "--rules", "containment"), g,
                            dict(verdict="holds" if valid else "violated")))
            if j == 0:
                # every assignment of a workflow has the same interleavings
                graph = explore(net)
                n = len(clearance) ** len(tids)
                states += n * len(graph.states)
                edges += n * len(graph.edges)
                if _run_count(graph) <= ALLOC_CHECK_MAX_RUNS:
                    # few enough for brute-force opacity: this net gets every check
                    c = _checked_net(workdir, f"small{i:03d}.check.json", lat, net, tids[-1])
                    models += 1
                    jobs.extend(_net_jobs(c, lat.levels, "done", "mon", "low"))
    sizes = dict(models=models, states=states, edges=edges, tasks=tasks, jobs=len(jobs))
    return Workload("alloc", jobs, sizes)


BUILDERS = {"counter": build_counter, "corpus": build_corpus, "alloc": build_alloc}
