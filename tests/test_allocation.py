"""Workflow allocation: validity, enumeration, cost search, synthesis."""

import random
from fractions import Fraction
from itertools import product

import pytest

from fssm import (
    Allocation,
    BlpConfig,
    CloudSpec,
    CostModel,
    DuplicateId,
    FssmError,
    InvalidAllocation,
    InvalidWorkflow,
    NoFeasibleAllocation,
    TooManyAllocations,
    UnknownLevel,
    UnknownTask,
    allocation_cost,
    allocation_of,
    build_lattice,
    build_workflow,
    dynamic_blp_check,
    enumerate_valid,
    explore,
    min_cost_allocation,
    synthesize_net,
    valid_clouds,
)
from fssm.corpus import random_cloud_specs, random_lattice, random_workflow

CONTAIN_ONLY = BlpConfig(no_read_up=False, no_write_down=False, containment=True)


def brute_force_valid(wf, clouds, lat):
    """Filter the full assignment space; ground truth for enumerate_valid."""
    ids = sorted(c.id for c in clouds)
    out = []
    task_ids = [t.id for t in wf.tasks]
    for combo in product(ids, repeat=len(task_ids)):
        a = Allocation(assignment=tuple(zip(task_ids, combo)))
        if all(
            lat.leq(wf.touch_join(t, lat), next(c.clearance for c in clouds if c.id == cid))
            for t, cid in a.assignment
        ):
            out.append(a)
    return out


# --------------------------------------------------------------------------
# workflow construction


def test_build_workflow_canonical(lat2):
    wf = build_workflow(
        [("b", [("d", "Public"), ("d", "Public")]), ("a", [("s", "Secret"), ("d", "Public")])],
        [("a", "b", "d", "Public")],
        lat2,
    )
    assert [t.id for t in wf.tasks] == ["a", "b"]
    assert wf.task_by_id["a"].touches == (("d", "Public"), ("s", "Secret"))
    assert wf.task_by_id["b"].touches == (("d", "Public"),)
    assert wf.edges[0].producer == "a"
    assert wf.touch_join("a", lat2) == "Secret"
    assert wf.touch_join("b", lat2) == "Public"


def test_build_workflow_rejections(lat2):
    with pytest.raises(DuplicateId):
        build_workflow([("a", [("d", "Public")]), ("a", [("d", "Public")])], [], lat2)
    with pytest.raises(InvalidWorkflow):
        build_workflow([("bad id", [("d", "Public")])], [], lat2)
    with pytest.raises(InvalidWorkflow):
        build_workflow([("a", [("no class", "Public")])], [], lat2)
    with pytest.raises(UnknownLevel):
        build_workflow([("a", [("d", "Ultra")])], [], lat2)
    with pytest.raises(UnknownTask):
        build_workflow([("a", [("d", "Public")])], [("a", "zz", "d", "Public")], lat2)
    with pytest.raises(InvalidWorkflow):
        # producer does not touch the edge payload
        build_workflow(
            [("a", [("d", "Public")]), ("b", [("s", "Secret")])],
            [("a", "b", "s", "Secret")],
            lat2,
        )
    with pytest.raises(InvalidWorkflow):
        build_workflow(
            [("a", [("d", "Public")]), ("b", [("d", "Public")])],
            [("a", "b", "d", "Public"), ("b", "a", "d", "Public")],
            lat2,
        )


def test_build_workflow_rejects_a_synthesized_send_id(lat2):
    # sorted edges number the send transitions: ("a", "c") is edge 0
    tasks = [("send_e1_b_c", []), ("c", [("d", "Public")]),
             ("b", [("d", "Public")]), ("a", [("d", "Public")])]
    edges = [("b", "c", "d", "Public"), ("a", "c", "d", "Public")]
    with pytest.raises(DuplicateId) as e:
        build_workflow(tasks, edges, lat2)
    assert e.value.path == "/workflow/tasks/0/id"
    # the same id is free when no edge synthesizes it
    build_workflow(tasks, edges[:1], lat2)


def test_cost_types_reject_negatives():
    with pytest.raises(FssmError):
        CloudSpec(id="C", clearance="Public", exec_cost=-1)
    with pytest.raises(FssmError):
        CloudSpec(id="C", clearance="Public", overrides=(("t", Fraction(-1, 2)),))
    with pytest.raises(FssmError):
        CostModel(transfer_cost=Fraction(-1))
    spec = CloudSpec(id="C", clearance="Public", exec_cost=2, overrides=(("t1", 7),))
    assert spec.exec_for("t1") == 7
    assert spec.exec_for("t2") == 2


def test_allocation_shape():
    a = allocation_of({"b": "C1", "a": "C2"})
    assert a.assignment == (("a", "C2"), ("b", "C1"))
    assert a.cloud_of("a") == "C2"
    with pytest.raises(InvalidAllocation):
        a.cloud_of("zz")
    with pytest.raises(InvalidAllocation):
        Allocation(assignment=(("a", "C1"), ("a", "C2")))


# --------------------------------------------------------------------------
# validity and enumeration


def test_valid_clouds_wf1(lat2, wf1):
    wf, clouds, _ = wf1
    assert valid_clouds(wf, "t2", clouds, lat2) == {"Cpriv"}
    assert valid_clouds(wf, "t1", clouds, lat2) == {"Cpub", "Cpriv"}
    with pytest.raises(UnknownTask):
        valid_clouds(wf, "nope", clouds, lat2)


def test_valid_clouds_empty_touches(lat2, wf1):
    _, clouds, _ = wf1
    wf = build_workflow([("solo", [])], [], lat2)
    assert wf.touch_join("solo", lat2) == "Public"
    assert valid_clouds(wf, "solo", clouds, lat2) == {"Cpub", "Cpriv"}


def test_enumerate_wf1(lat2, wf1):
    wf, clouds, _ = wf1
    allocs = enumerate_valid(wf, clouds, lat2, limit=10)
    assert [a.mapping for a in allocs] == [
        {"t1": "Cpriv", "t2": "Cpriv"},
        {"t1": "Cpub", "t2": "Cpriv"},
    ]
    with pytest.raises(TooManyAllocations) as exc:
        enumerate_valid(wf, clouds, lat2, limit=1)
    assert exc.value.count == 2
    with pytest.raises(FssmError):
        enumerate_valid(wf, clouds, lat2, limit=0)


def test_enumerate_infeasible_is_empty(lat2):
    wf = build_workflow([("a", [("s", "Secret")])], [], lat2)
    clouds = [CloudSpec(id="C", clearance="Public")]
    assert enumerate_valid(wf, clouds, lat2, limit=10) == []


def test_duplicate_cloud_ids_rejected(lat2, wf1):
    wf, clouds, _ = wf1
    dup = list(clouds) + [CloudSpec(id="Cpub", clearance="Secret")]
    with pytest.raises(DuplicateId):
        enumerate_valid(wf, dup, lat2, limit=10)


# --------------------------------------------------------------------------
# cost


def test_allocation_cost_wf1(lat2, wf1):
    wf, clouds, cost = wf1
    split = allocation_of({"t1": "Cpub", "t2": "Cpriv"})
    same = allocation_of({"t1": "Cpriv", "t2": "Cpriv"})
    assert allocation_cost(wf, split, clouds, cost, lat2) == 5
    assert allocation_cost(wf, same, clouds, cost, lat2) == 6
    with pytest.raises(InvalidAllocation):
        allocation_cost(wf, allocation_of({"t1": "Cpub"}), clouds, cost, lat2)
    with pytest.raises(InvalidAllocation):
        allocation_cost(
            wf, allocation_of({"t1": "Mars", "t2": "Cpriv"}), clouds, cost, lat2
        )


def test_cost_is_exact_rational(lat2):
    wf = build_workflow(
        [("a", [("d", "Public")]), ("b", [("d", "Public")])],
        [("a", "b", "d", "Public")],
        lat2,
    )
    clouds = [
        CloudSpec(id="C1", clearance="Secret", exec_cost=Fraction(1, 3)),
        CloudSpec(id="C2", clearance="Secret", exec_cost=Fraction(1, 2)),
    ]
    cost = CostModel(transfer_cost=Fraction(1, 6))
    a = allocation_of({"a": "C1", "b": "C2"})
    assert allocation_cost(wf, a, clouds, cost, lat2) == Fraction(1)


def test_min_cost_wf1(lat2, wf1):
    wf, clouds, cost = wf1
    alloc, total = min_cost_allocation(wf, clouds, lat2, cost)
    assert alloc.mapping == {"t1": "Cpub", "t2": "Cpriv"}
    assert total == 5


def test_min_cost_tie_breaks_canonically(lat2):
    wf = build_workflow([("a", [("d", "Public")])], [], lat2)
    clouds = [
        CloudSpec(id="Cz", clearance="Secret", exec_cost=1),
        CloudSpec(id="Ca", clearance="Secret", exec_cost=1),
    ]
    alloc, total = min_cost_allocation(wf, clouds, lat2, CostModel())
    assert alloc.mapping == {"a": "Ca"}
    assert total == 1


def test_min_cost_infeasible(lat2):
    wf = build_workflow([("a", [("s", "Secret")])], [], lat2)
    with pytest.raises(NoFeasibleAllocation):
        min_cost_allocation(wf, [CloudSpec(id="C", clearance="Public")], lat2, CostModel())


# --------------------------------------------------------------------------
# synthesis


def test_synthesize_wf1(lat2, wf1):
    wf, clouds, _ = wf1
    a = allocation_of({"t1": "Cpub", "t2": "Cpriv"})
    net = synthesize_net(wf, a, lat2, clouds)
    assert len(net.places) == 5
    assert len(net.transitions) == 3
    g = explore(net)
    assert (len(g.states), len(g.edges)) == (6, 7)
    report = dynamic_blp_check(net, BlpConfig(), graph=explore(net))
    assert report.verdict == "holds"


def test_synthesize_rejects_invalid_allocation(lat2, wf1):
    wf, clouds, _ = wf1
    bad = allocation_of({"t1": "Cpub", "t2": "Cpub"})
    with pytest.raises(InvalidAllocation):
        synthesize_net(wf, bad, lat2, clouds)
    with pytest.raises(InvalidAllocation):
        synthesize_net(wf, allocation_of({"t1": "Cpub"}), lat2, clouds)


def test_synthesize_bypass_shows_containment_breach(lat2, wf1):
    wf, clouds, _ = wf1
    bad = allocation_of({"t1": "Cpub", "t2": "Cpub"})
    net = synthesize_net(wf, bad, lat2, clouds, bypass_validity=True)
    report = dynamic_blp_check(net, CONTAIN_ONLY, graph=explore(net))
    assert report.verdict == "violated"
    assert {v.transition for v in report.violations if v.kind == "containment"} == {"t2"}


def test_synthesize_empty_workflow(lat2):
    wf = build_workflow([], [], lat2)
    net = synthesize_net(wf, allocation_of({}), lat2, [])
    assert net.transitions == ()
    g = explore(net)
    assert len(g.states) == 1 and len(g.edges) == 0


# --------------------------------------------------------------------------
# corpus bridges


def test_enumeration_matches_brute_force():
    rng = random.Random(88)
    for _ in range(60):
        lat = random_lattice(rng)
        wf = random_workflow(rng, lat)
        clouds, _ = random_cloud_specs(rng, lat, wf)
        got = enumerate_valid(wf, clouds, lat, limit=100_000)
        assert got == brute_force_valid(wf, clouds, lat)


def test_min_cost_is_least_over_enumeration():
    rng = random.Random(89)
    compared = 0
    for _ in range(60):
        lat = random_lattice(rng)
        wf = random_workflow(rng, lat)
        clouds, cost = random_cloud_specs(rng, lat, wf)
        allocs = enumerate_valid(wf, clouds, lat, limit=100_000)
        if not allocs:
            with pytest.raises(NoFeasibleAllocation):
                min_cost_allocation(wf, clouds, lat, cost)
            continue
        compared += 1
        best, total = min_cost_allocation(wf, clouds, lat, cost)
        table = [(allocation_cost(wf, a, clouds, cost, lat), a.assignment) for a in allocs]
        assert (total, best.assignment) == min(table)
    assert compared >= 30


def test_synthesis_containment_mirrors_validity():
    rng = random.Random(90)
    invalid_seen = 0
    for _ in range(40):
        lat = random_lattice(rng)
        wf = random_workflow(rng, lat, max_tasks=3)
        clouds, _ = random_cloud_specs(rng, lat, wf)
        ids = sorted(c.id for c in clouds)
        assignment = tuple((t.id, rng.choice(ids)) for t in wf.tasks)
        a = Allocation(assignment=assignment)
        by_id = {c.id: c for c in clouds}
        invalid = {
            t.id
            for t in wf.tasks
            if not lat.leq(wf.touch_join(t.id, lat), by_id[a.cloud_of(t.id)].clearance)
        }
        net = synthesize_net(wf, a, lat, clouds, bypass_validity=True)
        report = dynamic_blp_check(net, CONTAIN_ONLY, graph=explore(net))
        task_ids = {t.id for t in wf.tasks}
        flagged = {v.transition for v in report.violations if v.transition in task_ids}
        assert flagged == invalid
        assert (report.verdict == "holds") == (not invalid)
        if invalid:
            invalid_seen += 1
    assert invalid_seen >= 10


def test_cost_invariant_under_cloud_renaming():
    rng = random.Random(91)
    for _ in range(40):
        lat = random_lattice(rng)
        wf = random_workflow(rng, lat)
        clouds, cost = random_cloud_specs(rng, lat, wf)
        rename = {c.id: f"x_{c.id}" for c in clouds}
        renamed = [
            CloudSpec(
                id=rename[c.id],
                clearance=c.clearance,
                exec_cost=c.exec_cost,
                overrides=c.overrides,
            )
            for c in clouds
        ]
        try:
            _, total = min_cost_allocation(wf, clouds, lat, cost)
        except NoFeasibleAllocation:
            with pytest.raises(NoFeasibleAllocation):
                min_cost_allocation(wf, renamed, lat, cost)
            continue
        _, total2 = min_cost_allocation(wf, renamed, lat, cost)
        assert total2 == total
