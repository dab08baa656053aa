"""Workflow partitioning over clouds: validity, enumeration, cost search,
and synthesis of a net whose dynamic containment verdict mirrors validity.

A task may run on a cloud iff the join of the levels it touches is below
the cloud's clearance.  Costs are per-task execution plus a flat charge
per cross-cloud edge, kept as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional

from .errors import (
    DuplicateId,
    FssmError,
    InvalidAllocation,
    InvalidWorkflow,
    NoFeasibleAllocation,
    TooManyAllocations,
    UnknownTask,
)
from .lattice import SecurityLattice, is_identifier
from .model import (
    ArcIn,
    ArcOut,
    Cloud,
    FssmNet,
    Marking,
    Place,
    TaskTransition,
    build_net,
    marking_of,
)


@dataclass(frozen=True)
class WorkflowTask:
    id: str
    touches: tuple[tuple[str, str], ...]  # (data class, level), sorted


@dataclass(frozen=True)
class WorkflowEdge:
    producer: str
    consumer: str
    klass: str
    level: str


@dataclass(frozen=True)
class Workflow:
    tasks: tuple[WorkflowTask, ...]
    edges: tuple[WorkflowEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {t.id: t for t in self.tasks})

    @property
    def task_by_id(self) -> Mapping[str, WorkflowTask]:
        return self._by_id

    def incoming(self, task: str) -> list[tuple[int, WorkflowEdge]]:
        return [(i, e) for i, e in enumerate(self.edges) if e.consumer == task]

    def touch_join(self, task: str, lat: SecurityLattice) -> str:
        return lat.join_all(level for _, level in self._by_id[task].touches)


def build_workflow(
    tasks: Iterable[tuple[str, Iterable[tuple[str, str]]]],
    edges: Iterable[tuple[str, str, str, str]],
    lat: SecurityLattice,
) -> Workflow:
    """Validated workflow; tasks and edges come out canonically sorted."""
    built_tasks = []
    seen: dict[str, int] = {}  # task id -> index in ``tasks``
    for i, (tid, touches) in enumerate(tasks):
        if not is_identifier(tid):
            raise InvalidWorkflow(f"invalid task id {tid!r}")
        if tid in seen:
            raise DuplicateId(f"duplicate task id {tid!r}")
        seen[tid] = i
        canon = []
        for klass, level in touches:
            if not is_identifier(klass):
                raise InvalidWorkflow(f"task {tid!r}: bad data class {klass!r}")
            lat.check_level(level)
            canon.append((klass, level))
        built_tasks.append(WorkflowTask(id=tid, touches=tuple(sorted(set(canon)))))
    built_tasks.sort(key=lambda t: t.id)
    by_id = {t.id: t for t in built_tasks}

    built_edges = []
    for producer, consumer, klass, level in edges:
        for end in (producer, consumer):
            if end not in by_id:
                raise UnknownTask(f"edge references unknown task {end!r}")
        lat.check_level(level)
        if (klass, level) not in by_id[producer].touches:
            raise InvalidWorkflow(
                f"edge data ({klass}, {level}) not touched by producer {producer!r}"
            )
        if (klass, level) not in by_id[consumer].touches:
            raise InvalidWorkflow(
                f"edge data ({klass}, {level}) not touched by consumer {consumer!r}"
            )
        built_edges.append(WorkflowEdge(producer, consumer, klass, level))
    built_edges.sort(key=lambda e: (e.producer, e.consumer, e.klass, e.level))
    for i, e in enumerate(built_edges):
        send = f"send_e{i}_{e.producer}_{e.consumer}"  # as synthesize_net names it
        if send in seen:
            msg = f"task id {send!r} is the id of edge {i}'s synthesized send transition"
            raise DuplicateId(msg, path=f"/workflow/tasks/{seen[send]}/id")

    indeg = {t.id: 0 for t in built_tasks}
    for e in built_edges:
        indeg[e.consumer] += 1
    order = [tid for tid, d in indeg.items() if d == 0]
    k = 0
    while k < len(order):
        for e in built_edges:
            if e.producer == order[k]:
                indeg[e.consumer] -= 1
                if indeg[e.consumer] == 0:
                    order.append(e.consumer)
        k += 1
    if len(order) < len(built_tasks):
        raise InvalidWorkflow("task graph has a cycle")
    return Workflow(tasks=tuple(built_tasks), edges=tuple(built_edges))


@dataclass(frozen=True)
class CloudSpec:
    id: str
    clearance: str
    exec_cost: Fraction = Fraction(0)
    overrides: tuple[tuple[str, Fraction], ...] = ()  # per-task exec cost

    def __post_init__(self):
        if not is_identifier(self.id):
            raise FssmError(f"invalid cloud id {self.id!r}")
        object.__setattr__(self, "exec_cost", Fraction(self.exec_cost))
        object.__setattr__(
            self, "overrides", tuple(sorted((t, Fraction(c)) for t, c in self.overrides))
        )
        if self.exec_cost < 0 or any(c < 0 for _, c in self.overrides):
            raise FssmError(f"cloud {self.id!r}: costs must be non-negative")
        object.__setattr__(self, "_over", dict(self.overrides))

    def exec_for(self, task: str) -> Fraction:
        return self._over.get(task, self.exec_cost)


@dataclass(frozen=True)
class CostModel:
    transfer_cost: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "transfer_cost", Fraction(self.transfer_cost))
        if self.transfer_cost < 0:
            raise FssmError("transfer cost must be non-negative")


@dataclass(frozen=True)
class Allocation:
    assignment: tuple[tuple[str, str], ...]  # (task, cloud), sorted by task

    def __post_init__(self):
        object.__setattr__(
            self, "assignment", tuple(sorted(self.assignment))
        )
        object.__setattr__(self, "_map", dict(self.assignment))
        if len(self._map) != len(self.assignment):
            raise InvalidAllocation("a task is assigned twice")

    @property
    def mapping(self) -> Mapping[str, str]:
        return dict(self._map)

    def cloud_of(self, task: str) -> str:
        try:
            return self._map[task]
        except KeyError:
            raise InvalidAllocation(f"no cloud assigned to task {task!r}")


def allocation_of(mapping: Mapping[str, str]) -> Allocation:
    return Allocation(assignment=tuple(sorted(mapping.items())))


def _check_specs(clouds: Iterable[CloudSpec], lat: SecurityLattice) -> dict[str, CloudSpec]:
    by_id: dict[str, CloudSpec] = {}
    for c in clouds:
        lat.check_level(c.clearance)
        if c.id in by_id:
            raise DuplicateId(f"duplicate cloud id {c.id!r}")
        by_id[c.id] = c
    return by_id


def valid_clouds(
    wf: Workflow, task: str, clouds: Iterable[CloudSpec], lat: SecurityLattice
) -> set[str]:
    """Clouds cleared for the join of everything the task touches."""
    if task not in wf.task_by_id:
        raise UnknownTask(f"unknown task {task!r}")
    by_id = _check_specs(clouds, lat)
    bound = wf.touch_join(task, lat)
    return {c.id for c in by_id.values() if lat.leq(bound, c.clearance)}


def _valid_lists(wf, clouds, lat) -> list[tuple[str, list[str]]]:
    by_id = _check_specs(clouds, lat)
    out = []
    for t in wf.tasks:
        bound = wf.touch_join(t.id, lat)
        out.append(
            (t.id, sorted(c.id for c in by_id.values() if lat.leq(bound, c.clearance)))
        )
    return out


def enumerate_valid(
    wf: Workflow, clouds: Iterable[CloudSpec], lat: SecurityLattice, limit: int
) -> list[Allocation]:
    """All valid allocations in canonical order (tasks sorted, clouds sorted).

    Validity is per task, so the count is the product of the per-task
    choice counts; when it exceeds the limit nothing is materialized.
    """
    if limit < 1:
        raise FssmError("enumeration limit must be positive")
    lists = _valid_lists(wf, clouds, lat)
    count = 1
    for _, choices in lists:
        count *= len(choices)
    if count > limit:
        raise TooManyAllocations(f"{count} valid allocations exceed limit {limit}", count=count)
    if count == 0:
        return []
    task_ids = [tid for tid, _ in lists]
    return [
        Allocation(assignment=tuple(zip(task_ids, combo)))
        for combo in product(*(choices for _, choices in lists))
    ]


def allocation_cost(
    wf: Workflow,
    a: Allocation,
    clouds: Iterable[CloudSpec],
    cost: CostModel,
    lat: SecurityLattice,
) -> Fraction:
    """Execution plus cross-cloud transfer cost of a total assignment."""
    by_id = _check_specs(clouds, lat)
    total = Fraction(0)
    for t in wf.tasks:
        cid = a.cloud_of(t.id)
        if cid not in by_id:
            raise InvalidAllocation(f"task {t.id!r} assigned to unknown cloud {cid!r}")
        total += by_id[cid].exec_for(t.id)
    for e in wf.edges:
        if a.cloud_of(e.producer) != a.cloud_of(e.consumer):
            total += cost.transfer_cost
    return total


def min_cost_allocation(
    wf: Workflow,
    clouds: Iterable[CloudSpec],
    lat: SecurityLattice,
    cost: CostModel,
) -> tuple[Allocation, Fraction]:
    """Branch-and-bound over tasks in canonical order.

    The bound is the accumulated cost plus each unassigned task's cheapest
    valid execution (transfers priced at zero), which never overestimates;
    first-found wins ties, so the result is canonically least.
    """
    by_id = _check_specs(clouds, lat)
    lists = _valid_lists(wf, clouds, lat)
    for tid, choices in lists:
        if not choices:
            raise NoFeasibleAllocation(f"task {tid!r} has no valid cloud")
    n = len(lists)
    min_exec = [min(by_id[c].exec_for(tid) for c in choices) for tid, choices in lists]
    suffix = [Fraction(0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + min_exec[k]
    task_index = {tid: k for k, (tid, _) in enumerate(lists)}
    edges_before = [[] for _ in range(n)]  # edges closed when task k is assigned
    for e in wf.edges:
        i, j = task_index[e.producer], task_index[e.consumer]
        edges_before[max(i, j)].append(min(i, j))
    best_cost: Optional[Fraction] = None
    best: Optional[tuple[str, ...]] = None
    chosen: list[str] = []

    def dfs(k: int, acc: Fraction):
        nonlocal best_cost, best
        if best_cost is not None and acc + suffix[k] >= best_cost:
            return
        if k == n:
            best_cost = acc
            best = tuple(chosen)
            return
        tid, choices = lists[k]
        for cid in choices:
            add = by_id[cid].exec_for(tid)
            for lo in edges_before[k]:
                if chosen[lo] != cid:
                    add += cost.transfer_cost
            chosen.append(cid)
            dfs(k + 1, acc + add)
            chosen.pop()

    dfs(0, Fraction(0))
    if best is None:
        raise NoFeasibleAllocation("no valid allocation exists")
    alloc = Allocation(
        assignment=tuple((lists[k][0], best[k]) for k in range(n))
    )
    return alloc, best_cost


def synthesize_net(
    wf: Workflow,
    a: Allocation,
    lat: SecurityLattice,
    clouds: Iterable[CloudSpec],
    bypass_validity: bool = False,
) -> FssmNet:
    """Net whose dynamic containment verdict decides the allocation.

    Each task becomes one transition in its assigned cloud with clearance
    and floor equal to the join of its touches; it consumes one token per
    incoming edge and emits a result token into a place of its own cloud,
    so the result's level exceeds the hosting clearance exactly when the
    task's placement is invalid.  Each workflow edge gets a relay: a
    bottom-level supply token that a send transition forwards into a
    buffer in the consumer's cloud at exactly the edge's level.  Source
    tasks are gated by a one-token start place.
    """
    by_id = _check_specs(clouds, lat)
    for t in wf.tasks:
        cid = a.cloud_of(t.id)
        if cid not in by_id:
            raise InvalidAllocation(f"task {t.id!r} assigned to unknown cloud {cid!r}")
        bound = wf.touch_join(t.id, lat)
        if not bypass_validity and not lat.leq(bound, by_id[cid].clearance):
            raise InvalidAllocation(
                f"task {t.id!r} touches {bound}, above cloud {cid!r} "
                f"clearance {by_id[cid].clearance}"
            )

    used = sorted({a.cloud_of(t.id) for t in wf.tasks})
    net_clouds = [Cloud(id=cid, clearance=by_id[cid].clearance) for cid in used]
    places: list[Place] = []
    transitions: list[TaskTransition] = []
    marking: dict[str, list[tuple[str, str, int]]] = {}

    stems = [f"e{i}_{e.producer}_{e.consumer}" for i, e in enumerate(wf.edges)]
    for i, e in enumerate(wf.edges):
        stem = stems[i]
        places.append(Place(id=f"sup_{stem}", cloud=a.cloud_of(e.producer)))
        places.append(Place(id=f"buf_{stem}", cloud=a.cloud_of(e.consumer)))
        marking[f"sup_{stem}"] = [(e.klass, lat.bottom, 1)]
        transitions.append(
            TaskTransition(
                id=f"send_{stem}",
                cloud=a.cloud_of(e.producer),
                clearance=e.level,
                floor=e.level,
                inputs=(ArcIn(place=f"sup_{stem}", mode="take", pattern=e.klass),),
                outputs=(ArcOut(place=f"buf_{stem}", klass=e.klass),),
            )
        )

    for t in wf.tasks:
        cid = a.cloud_of(t.id)
        bound = wf.touch_join(t.id, lat)
        incoming = wf.incoming(t.id)
        inputs = []
        if incoming:
            for i, e in incoming:
                inputs.append(ArcIn(place=f"buf_{stems[i]}", mode="take", pattern=e.klass))
        else:
            places.append(Place(id=f"start_{t.id}", cloud=cid))
            marking[f"start_{t.id}"] = [(f"start_{t.id}", lat.bottom, 1)]
            inputs.append(
                ArcIn(place=f"start_{t.id}", mode="take", pattern=f"start_{t.id}")
            )
        places.append(Place(id=f"res_{t.id}", cloud=cid))
        transitions.append(
            TaskTransition(
                id=t.id,
                cloud=cid,
                clearance=bound,
                floor=bound,
                inputs=tuple(inputs),
                outputs=(ArcOut(place=f"res_{t.id}", klass=f"res_{t.id}"),),
            )
        )

    return build_net(
        lattice=lat,
        clouds=net_clouds,
        places=places,
        transitions=transitions,
        initials=[marking_of(marking) if marking else Marking({})],
    )
