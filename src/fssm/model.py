"""The flow-sensitive net model: clouds, places, tokens, task transitions.

A net couples a security lattice with a coloured-Petri-net-like structure
whose tokens carry a (class, level) pair and nothing else.  ``build_net``
performs all structural validation and names the element at fault by its
path in a model file; the result and all ``Marking`` values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    CapacityExceeded,
    DanglingReference,
    DuplicateId,
    EmptyTransition,
    FssmError,
    InitialContainmentViolation,
)
from .lattice import SecurityLattice, is_identifier

WILDCARD = "*"


@dataclass(frozen=True)
class Cloud:
    id: str
    clearance: str


@dataclass(frozen=True)
class Place:
    id: str
    cloud: str
    capacity: int | None = None


@dataclass(frozen=True, order=True)
class DataToken:
    klass: str
    level: str

    def __str__(self) -> str:
        return f"{self.klass}@{self.level}"


@dataclass(frozen=True)
class ArcIn:
    """Input arc; ``take`` consumes, ``read`` only tests presence."""

    place: str
    mode: str  # "take" | "read"
    pattern: str = WILDCARD  # token class, or "*" for any

    def matches(self, token: DataToken) -> bool:
        return self.pattern == WILDCARD or self.pattern == token.klass


@dataclass(frozen=True)
class ArcOut:
    place: str
    klass: str


@dataclass(frozen=True)
class TaskTransition:
    """A task: executes in ``cloud``, acts as a subject at ``clearance``.

    ``floor`` is the minimum classification of produced tokens; the firing
    rule joins it with the levels of all chosen input tokens.
    """

    id: str
    cloud: str
    clearance: str
    floor: str
    inputs: tuple[ArcIn, ...]
    outputs: tuple[ArcOut, ...]


class Marking:
    """An immutable multiset of tokens per place, kept in canonical form.

    Internally a sorted tuple of (place id, ((class, level, count), ...))
    entries; empty places are dropped.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, contents: Mapping[str, Iterable[tuple[DataToken, int]]]):
        entries = []
        for pid in sorted(contents):
            counts: dict[tuple[str, str], int] = {}
            for token, count in contents[pid]:
                if count < 0:
                    raise ValueError("negative token count")
                key = (token.klass, token.level)
                counts[key] = counts.get(key, 0) + count
            packed = tuple(
                (klass, level, c)
                for (klass, level), c in sorted(counts.items())
                if c > 0
            )
            if packed:
                entries.append((pid, packed))
        self._entries = tuple(entries)
        self._hash = hash(self._entries)

    @property
    def entries(self):
        return self._entries

    def tokens_at(self, pid: str) -> tuple[tuple[DataToken, int], ...]:
        for p, packed in self._entries:
            if p == pid:
                return tuple((DataToken(k, lv), c) for k, lv, c in packed)
        return ()

    def count(self, pid: str) -> int:
        return sum(c for _, c in self.tokens_at(pid))

    def contains(self, pid: str, klass: str | None = None) -> bool:
        return any(klass is None or t.klass == klass for t, _ in self.tokens_at(pid))

    def canonical_key(self) -> str:
        """Injective text form: ``pid:class@Level*count`` entries joined by ";"."""
        if not self._entries:
            return "∅"
        parts = []
        for pid, packed in self._entries:
            for klass, level, count in packed:
                parts.append(f"{pid}:{klass}@{level}*{count}")
        return ";".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Marking) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Marking({self.canonical_key()})"


def marking_of(contents: Mapping[str, Iterable[tuple[str, str, int]]]) -> Marking:
    """Convenience builder from {place: [(class, level, count), ...]}."""
    return Marking(
        {
            pid: [(DataToken(k, lv), c) for k, lv, c in tokens]
            for pid, tokens in contents.items()
        }
    )


@dataclass(frozen=True)
class FssmNet:
    """A fully validated net.  Immutable; lookups precomputed."""

    lattice: SecurityLattice
    clouds: tuple[Cloud, ...]
    places: tuple[Place, ...]
    transitions: tuple[TaskTransition, ...]
    initials: tuple[Marking, ...]
    cloud_by_id: Mapping[str, Cloud] = field(compare=False, repr=False)
    place_by_id: Mapping[str, Place] = field(compare=False, repr=False)
    transition_by_id: Mapping[str, TaskTransition] = field(compare=False, repr=False)

    def place_clearance(self, pid: str) -> str:
        """Clearance of the cloud hosting ``pid`` (the place's object level)."""
        return self.cloud_by_id[self.place_by_id[pid].cloud].clearance


def build_net(
    lattice: SecurityLattice,
    clouds: Iterable[Cloud],
    places: Iterable[Place],
    transitions: Iterable[TaskTransition],
    initials: Iterable[Marking],
) -> FssmNet:
    """Validate and assemble a net; the one structural validator.

    Establishes: valid, unique ids per kind, resolvable references, known
    levels, positive capacities, non-empty transitions with well-formed
    arcs, and token classes, containment and capacities on every initial
    marking.  A fault names its element by its model-file path
    (``/transitions/0/inputs/1/place``), indexed in argument order.  Entity
    collections are then sorted by id and arcs canonically, so declaration
    order never influences later analyses.
    """
    clouds, places, transitions = tuple(clouds), tuple(places), tuple(transitions)
    initials = tuple(initials)
    cloud_by_id = _index("cloud", "/clouds", clouds)
    for i, c in enumerate(clouds):
        lattice.check_level(c.clearance, f"/clouds/{i}/clearance")
    place_by_id = _index("place", "/places", places)
    for i, p in enumerate(places):
        if p.cloud not in cloud_by_id:
            raise DanglingReference(
                f"place {p.id!r} references unknown cloud {p.cloud!r}", path=f"/places/{i}/cloud"
            )
        if p.capacity is not None and p.capacity < 1:
            raise FssmError(
                f"place {p.id!r} capacity must be positive", path=f"/places/{i}/capacity"
            )
    if not initials:
        raise FssmError("at least one initial marking is required", path="/initial_markings")
    for i, m in enumerate(initials):
        _validate_marking(m, lattice, cloud_by_id, place_by_id, f"/initial_markings/{i}")
    _index("transition", "/transitions", transitions)
    transitions = [
        _validate_transition(t, lattice, cloud_by_id, place_by_id, f"/transitions/{i}")
        for i, t in enumerate(transitions)
    ]

    # ids are unique by now, so sorting the items sorts by id alone
    cloud_by_id = dict(sorted(cloud_by_id.items()))
    place_by_id = dict(sorted(place_by_id.items()))
    transition_by_id = dict(sorted((t.id, t) for t in transitions))
    return FssmNet(
        lattice=lattice,
        clouds=tuple(cloud_by_id.values()),
        places=tuple(place_by_id.values()),
        transitions=tuple(transition_by_id.values()),
        initials=initials,
        cloud_by_id=cloud_by_id,
        place_by_id=place_by_id,
        transition_by_id=transition_by_id,
    )


def _index(kind, path, items):
    by_id = {}
    for i, item in enumerate(items):
        if not is_identifier(item.id):
            raise FssmError(f"invalid {kind} id {item.id!r}", path=f"{path}/{i}/id")
        if item.id in by_id:
            raise DuplicateId(f"duplicate {kind} id {item.id!r}", path=f"{path}/{i}/id")
        by_id[item.id] = item
    return by_id


def _validate_transition(t, lattice, cloud_by_id, place_by_id, path):
    if t.cloud not in cloud_by_id:
        raise DanglingReference(
            f"transition {t.id!r} references unknown cloud {t.cloud!r}", path=f"{path}/cloud"
        )
    lattice.check_level(t.clearance, f"{path}/clearance")
    lattice.check_level(t.floor, f"{path}/floor")
    if not t.inputs and not t.outputs:
        raise EmptyTransition(f"transition {t.id!r} has no arcs", path=path)
    for i, arc in enumerate(t.inputs):
        if arc.place not in place_by_id:
            raise DanglingReference(
                f"transition {t.id!r} input references unknown place {arc.place!r}",
                path=f"{path}/inputs/{i}/place",
            )
        if arc.mode not in ("take", "read"):
            raise FssmError(
                f"transition {t.id!r}: bad arc mode {arc.mode!r}", path=f"{path}/inputs/{i}/mode"
            )
        if arc.pattern != WILDCARD and not is_identifier(arc.pattern):
            raise FssmError(
                f"transition {t.id!r}: bad class pattern {arc.pattern!r}",
                path=f"{path}/inputs/{i}/class",
            )
    for i, arc in enumerate(t.outputs):
        if arc.place not in place_by_id:
            raise DanglingReference(
                f"transition {t.id!r} output references unknown place {arc.place!r}",
                path=f"{path}/outputs/{i}/place",
            )
        if not is_identifier(arc.klass):
            raise FssmError(
                f"transition {t.id!r}: bad output class {arc.klass!r}",
                path=f"{path}/outputs/{i}/class",
            )
    # canonical arc order, duplicates (multiplicity) preserved
    inputs = tuple(sorted(t.inputs, key=lambda a: (a.mode, a.place, a.pattern)))
    outputs = tuple(sorted(t.outputs, key=lambda a: (a.place, a.klass)))
    return TaskTransition(
        id=t.id,
        cloud=t.cloud,
        clearance=t.clearance,
        floor=t.floor,
        inputs=inputs,
        outputs=outputs,
    )


def _validate_marking(m, lattice, cloud_by_id, place_by_id, path):
    for pid, packed in m.entries:
        ppath = f"{path}/{pid}"
        if pid not in place_by_id:
            raise DanglingReference(f"marking references unknown place {pid!r}", path=ppath)
        place = place_by_id[pid]
        clearance = cloud_by_id[place.cloud].clearance
        total = 0
        for klass, level, count in packed:
            if not is_identifier(klass):
                raise FssmError(f"bad token class {klass!r} in place {pid!r}", path=ppath)
            lattice.check_level(level, ppath)
            total += count
            if not lattice.leq(level, clearance):
                raise InitialContainmentViolation(
                    f"token {klass}@{level} in place {pid!r} exceeds cloud "
                    f"{place.cloud!r} clearance {clearance!r}",
                    path=ppath,
                )
        if place.capacity is not None and total > place.capacity:
            raise CapacityExceeded(
                f"initial marking puts {total} tokens in place {pid!r} "
                f"(capacity {place.capacity})",
                path=ppath,
            )


def without_transitions(net: FssmNet, drop: Iterable[str]) -> FssmNet:
    """A copy of ``net`` with the named transitions removed (revalidated)."""
    dropped = set(drop)
    for tid in dropped:
        if tid not in net.transition_by_id:
            raise DanglingReference(f"cannot remove unknown transition {tid!r}")
    return build_net(
        net.lattice,
        net.clouds,
        net.places,
        [t for t in net.transitions if t.id not in dropped],
        net.initials,
    )


def with_transitions(net: FssmNet, extra: Iterable[TaskTransition]) -> FssmNet:
    """A copy of ``net`` with additional transitions (revalidated)."""
    return build_net(
        net.lattice,
        net.clouds,
        net.places,
        list(net.transitions) + list(extra),
        net.initials,
    )
