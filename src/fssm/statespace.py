"""Operational semantics: enabledness, firing, reachability graphs, DOT.

``enabled_bindings`` and ``fire`` are the readable reference semantics over
``Marking`` values.  ``explore`` runs the same semantics through a compiled
integer representation so desk-scale graphs (1e5 states) stay fast, and the
graph keeps its states in that form, decoding a ``Marking`` only when one is
read.  Enabling is cached per transition on its saturated input contents:
the tokens its input arcs match, each count capped at its number of input
arcs on that place, fix its bindings, their output levels and their place
deltas.  So each firing plan is built once per such view, and each place
update once per (content, delta), for the length of one ``explore`` call.
Its token numbering follows ``DataToken`` order, so it enumerates bindings
in the reference order and names, for each (transition, digest) on an edge,
the very ``Binding`` the reference keeps; the tests cross-check both paths.
The edges are kept as int columns (``EdgeColumns``), which the analyses
read directly; a ``GraphEdge`` is built only when one is read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .errors import CapacityExceeded, FssmError, LimitExceeded, NotEnabled
from .model import ArcIn, DataToken, FssmNet, Marking, TaskTransition, WILDCARD

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class Binding:
    """A transition plus one chosen token per input arc (arc order)."""

    transition: str
    choices: tuple[tuple[ArcIn, DataToken], ...]

    @property
    def digest(self) -> str:
        """Stable text of the choice multiset; arc-slot permutations agree."""
        return render_digest(
            (arc.mode, arc.place, tok.klass, tok.level) for arc, tok in self.choices
        )


def render_digest(entries: Iterable[tuple[str, str, str, str]]) -> str:
    parts = sorted(f"{mode} {place}:{klass}@{level}" for mode, place, klass, level in entries)
    return "&".join(parts) if parts else "-"


@dataclass(frozen=True)
class FlowRecord:
    """What one firing did to the marking, with computed output levels."""

    consumed: tuple[tuple[str, DataToken], ...]
    read: tuple[tuple[str, DataToken], ...]
    produced: tuple[tuple[str, DataToken], ...]


class GraphEdge(NamedTuple):
    src: int
    transition: str
    binding: str
    dst: int


@dataclass(frozen=True)
class GraphStats:
    states: int
    edges: int
    depth: int


@dataclass(frozen=True)
class ReachabilityGraph:
    """Canonical finite LTS of a net: breadth-first, deterministically numbered.

    State 0 is the chosen initial marking; successors are expanded in
    (transition id, binding digest) order, so numbering, edge order, and all
    derived reports are reproducible.  ``explore`` fills ``states`` with a
    ``CompactStates``, which decodes a ``Marking`` only when one is read; a
    plain tuple of markings works too.  Likewise ``edges`` is the
    ``EdgeColumns`` that ``explore`` fills.  A graph built by hand from a
    tuple of ``GraphEdge``s, in any order, keeps that tuple as ``edges``
    and is converted once to ``columns``, which is what analyses read.
    """

    states: Sequence[Marking]
    edges: Sequence[GraphEdge]
    truncated: bool
    initial_index: int
    parent_edge: tuple[int, ...] = field(repr=False)  # discovery edge per state, -1 at root
    depths: tuple[int, ...] = field(repr=False)
    # reference Binding behind each (transition, digest) labelling an edge
    bindings: Mapping[tuple[str, str], Binding] = field(
        default_factory=dict, repr=False, compare=False
    )
    # source of each state's discovery edge, -1 at root; derived when not given
    parents: Sequence[int] | None = field(default=None, repr=False, compare=False)
    columns: EdgeColumns = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = self.edges
        if isinstance(edges, EdgeColumns):
            cols = edges
            src = cols.src
        else:
            cols = EdgeColumns.of(edges, len(self.states))
            src = lambda k: edges[k].src  # noqa: E731
        object.__setattr__(self, "columns", cols)
        if self.parents is None:
            parents = tuple(-1 if k < 0 else src(k) for k in self.parent_edge)
            object.__setattr__(self, "parents", parents)

    @property
    def stats(self) -> GraphStats:
        return GraphStats(
            states=len(self.states),
            edges=len(self.edges),
            depth=max(self.depths) if self.depths else 0,
        )

    def path_to(self, state: int) -> tuple[str, ...]:
        """Shortest transition-id path from the initial state (BFS tree)."""
        edges = self.edges
        if isinstance(edges, EdgeColumns):
            transition = edges.transition
        else:
            transition = lambda k: edges[k].transition  # noqa: E731
        path = []
        while state != 0:
            path.append(transition(self.parent_edge[state]))
            state = self.parents[state]
        return tuple(reversed(path))


@dataclass(frozen=True)
class ExploreLimits:
    max_states: int = DEFAULT_MAX_STATES
    max_depth: int | None = None
    initial: int = 0
    strict: bool = False


# --------------------------------------------------------------------------
# reference semantics


def enabled_bindings(net: FssmNet, m: Marking) -> list[Binding]:
    """All enabled bindings, duplicate-free, sorted by (transition, digest)."""
    out: list[Binding] = []
    for t in net.transitions:
        out.extend(_bindings_for(t, m))
    return out


def _bindings_for(t: TaskTransition, m: Marking) -> list[Binding]:
    cands: list[list[DataToken]] = []
    for arc in t.inputs:
        tokens = sorted(tok for tok, _ in m.tokens_at(arc.place) if arc.matches(tok))
        if not tokens:
            return []
        cands.append(tokens)
    by_digest: dict[str, Binding] = {}
    for combo in product(*cands):
        choices = tuple(zip(t.inputs, combo))
        if not _feasible(m, choices):
            continue
        b = Binding(t.id, choices)
        by_digest.setdefault(b.digest, b)
    return [by_digest[d] for d in sorted(by_digest)]


def _feasible(m: Marking, choices) -> bool:
    takes: Counter = Counter()
    reads: set = set()
    for arc, tok in choices:
        if arc.mode == "take":
            takes[(arc.place, tok)] += 1
        else:
            reads.add((arc.place, tok))
    for (pid, tok), k in takes.items():
        avail = next((c for t2, c in m.tokens_at(pid) if t2 == tok), 0)
        if (pid, tok) in reads:
            k += 1
        if avail < k:
            return False
    return True


def fire(net: FssmNet, m: Marking, b: Binding) -> tuple[Marking, FlowRecord]:
    """Fire ``b`` at ``m``: takes removed, reads untouched, outputs added
    at the levels ``flow_of`` gives.

    Raises ``NotEnabled`` when the binding does not match the marking and
    ``CapacityExceeded`` when a place would overflow.
    """
    t = net.transition_by_id.get(b.transition)
    if t is None:
        raise NotEnabled(f"unknown transition {b.transition!r}")
    if tuple(arc for arc, _ in b.choices) != t.inputs:
        raise NotEnabled(f"binding does not cover the input arcs of {t.id!r}")
    for arc, tok in b.choices:
        if not arc.matches(tok):
            raise NotEnabled(f"token {tok} does not match pattern {arc.pattern!r}")
    if not _feasible(m, b.choices):
        raise NotEnabled(f"binding {b.digest!r} is not enabled at {m.canonical_key()}")

    flow = flow_of(net, b)
    contents: dict[str, Counter] = {}
    for pid, packed in m.entries:
        contents[pid] = Counter({DataToken(k, lv): c for k, lv, c in packed})
    for pid, tok in flow.consumed:
        contents.setdefault(pid, Counter())[tok] -= 1
    for pid, tok in flow.produced:
        contents.setdefault(pid, Counter())[tok] += 1
    for pid, counter in contents.items():
        place = net.place_by_id[pid]
        if place.capacity is not None and sum(counter.values()) > place.capacity:
            raise CapacityExceeded(
                f"firing {t.id!r} overflows place {pid!r} (capacity {place.capacity})"
            )
    m2 = Marking({pid: list(counter.items()) for pid, counter in contents.items()})
    return m2, flow


def flow_of(net: FssmNet, b: Binding) -> FlowRecord:
    """What firing ``b`` consumes, reads and produces; the marking plays no part.

    Every output token is produced at join(levels of all chosen inputs)
    joined with the transition's floor.
    """
    t = net.transition_by_id[b.transition]
    lat = net.lattice
    out_level = lat.join(lat.join_all(tok.level for _, tok in b.choices), t.floor)
    return FlowRecord(
        consumed=tuple((arc.place, tok) for arc, tok in b.choices if arc.mode == "take"),
        read=tuple((arc.place, tok) for arc, tok in b.choices if arc.mode == "read"),
        produced=tuple((arc.place, DataToken(arc.klass, out_level)) for arc in t.outputs),
    )


# --------------------------------------------------------------------------
# compiled exploration


class _CompiledNet:
    """Integer-indexed view of a net for the exploration hot loop.

    Token type ``ty`` numbers every (class, level) the net can hold, in
    ``DataToken`` order, as the lattice's levels are sorted
    (``ty = class index * len(levels) + level index``):
    sorted place contents, candidate lists and their product then run in the
    reference's order.  ``tok_class`` and ``tok_level`` give a type's class
    and level index; ``tokens`` builds its ``DataToken`` on first use.
    """

    def __init__(self, net: FssmNet):
        lat = net.lattice
        self.net = net
        self.levels, self.level_idx, self.join = lat.levels, lat.level_idx, lat.join_idx
        self.place_ids = [p.id for p in net.places]
        self.place_idx = {pid: i for i, pid in enumerate(self.place_ids)}
        self.capacity = [p.capacity for p in net.places]
        classes = {k for m in net.initials for _, packed in m.entries for k, _, _ in packed}
        classes.update(a.klass for t in net.transitions for a in t.outputs)
        self.classes = sorted(classes)
        self.class_base = {k: i * len(self.levels) for i, k in enumerate(self.classes)}
        self.tokens = _TokenTable(self.classes, self.levels)
        self.tok_class = [k for k in self.classes for _ in self.levels]
        self.tok_level = list(range(len(self.levels))) * len(self.classes)
        self.digests: dict[tuple, str] = {}  # signature -> binding digest
        # (tid, in_arcs, outputs, floor); an input arc is (place index,
        # pattern, is_take, number of input arcs on its place), an output
        # carries its class's base, to which the produced level index is added
        self.trans = []
        for t in net.transitions:
            in_places = [self.place_idx[a.place] for a in t.inputs]
            in_arcs = tuple(
                (p, None if a.pattern == WILDCARD else a.pattern, a.mode == "take", in_places.count(p))
                for p, a in zip(in_places, t.inputs)
            )
            outs = tuple((self.place_idx[a.place], self.class_base[a.klass]) for a in t.outputs)
            self.trans.append((t.id, in_arcs, outs, self.level_idx[t.floor]))

    def encode(self, m: Marking):
        per_place = [()] * len(self.place_ids)
        for pid, packed in m.entries:
            per_place[self.place_idx[pid]] = tuple(
                sorted((self.class_base[k] + self.level_idx[lv], c) for k, lv, c in packed)
            )
        return tuple(per_place)

    def decode(self, compact) -> Marking:
        tokens = self.tokens
        return Marking(
            {
                self.place_ids[p]: [(tokens[ty], c) for ty, c in content]
                for p, content in enumerate(compact)
                if content
            }
        )

    def binding(self, ti: int, combo) -> Binding:
        t = self.net.transitions[ti]
        return Binding(t.id, tuple(zip(t.inputs, (self.tokens[ty] for ty in combo))))

    def _render_sig(self, sig) -> str:
        return render_digest(
            (
                "take" if is_take else "read",
                self.place_ids[p],
                self.tok_class[ty],
                self.levels[self.tok_level[ty]],
            )
            for p, is_take, ty in sig
        )


class _FiringPlans:
    """Successor generation for one ``explore`` call, which drops it on return.

    A transition's enabled signatures, their feasibility, output levels and
    place deltas depend only on its *saturated input view*: per input arc,
    the (type, count) pairs its pattern matches in its place, each count
    capped at the number of input arcs on that place (no signature needs
    more).  So each transition keeps one firing plan per view it meets,
    built by ``build`` on the first meeting: the digest-sorted (digest,
    combo, steps) of its feasible signatures.  Each step is a memo, shared
    by every plan with that delta on that place, from a place's content to
    its content after the delta, or ``None`` where that breaches the place's
    capacity.
    """

    def __init__(self, comp: _CompiledNet):
        self.comp = comp
        self.steps: dict[tuple, _Step] = {}  # (place, changes) -> step memo
        views: dict[tuple, _View] = {}  # (pattern, cap) -> content -> view
        self.trans = []  # per transition: [(place, view memo)] per arc, view -> plan
        for _, in_arcs, _, _ in comp.trans:
            specs = []
            for p, pk, _, cap in in_arcs:
                memo = views.get((pk, cap))
                if memo is None:
                    memo = views[(pk, cap)] = _View(pk, cap, comp.tok_class)
                specs.append((p, memo))
            self.trans.append((specs, {}))

    def successors(self, compact):
        """Yield (trans index, combo, digest, successor) in canonical order.

        The signature is the sorted (place, is_take, type) choice multiset;
        ``combo`` is its first arc arrangement in product order, which is the
        binding the reference keeps for that digest.  Capacity-breaching
        firings are silently not successors.
        """
        for ti, (specs, plans) in enumerate(self.trans):
            key = []
            for p, memo in specs:
                view = memo[compact[p]]
                if not view:
                    break
                key.append(view)
            else:
                key = tuple(key)
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = self.build(ti, key)
                for digest, combo, steps in plan:
                    succ = list(compact)
                    for p, step in steps:
                        content = step[compact[p]]
                        if content is None:
                            break
                        succ[p] = content
                    else:
                        yield ti, combo, digest, tuple(succ)

    def build(self, ti: int, key: tuple) -> list:
        """Transition ``ti``'s firing plan at any state whose view is ``key``."""
        comp = self.comp
        _, in_arcs, outs, floor = comp.trans[ti]
        avail = {}
        cands = []
        for (p, *_), view in zip(in_arcs, key):
            for ty, c in view:
                avail[(p, ty)] = c
            cands.append([ty for ty, _ in view])
        tok_level = comp.tok_level
        join = comp.join
        seen = set()
        plan = []
        for combo in product(*cands):
            sig = tuple(
                sorted([(in_arcs[i][0], in_arcs[i][2], ty) for i, ty in enumerate(combo)])
            )
            if sig in seen:
                continue
            seen.add(sig)
            takes: dict[tuple[int, int], int] = {}
            reads = set()
            for p, is_take, ty in sig:
                if is_take:
                    takes[(p, ty)] = takes.get((p, ty), 0) + 1
                else:
                    reads.add((p, ty))
            if not all([avail[pt] >= k + (pt in reads) for pt, k in takes.items()]):
                continue
            level = floor
            for _, _, ty in sig:
                level = join[level][tok_level[ty]]
            delta: dict[int, dict[int, int]] = {}
            for (p, ty), k in takes.items():
                delta.setdefault(p, {})[ty] = -k
            for p, base in outs:
                d = delta.setdefault(p, {})
                d[base + level] = d.get(base + level, 0) + 1
            digest = comp.digests.get(sig)
            if digest is None:
                digest = comp.digests[sig] = comp._render_sig(sig)
            steps = []
            for p, d in delta.items():
                changes = tuple(sorted(d.items()))
                step = self.steps.get((p, changes))
                if step is None:
                    step = self.steps[(p, changes)] = _Step(changes, comp.capacity[p])
                steps.append((p, step))
            plan.append((digest, combo, steps))
        plan.sort()  # digests differ, so the order is theirs
        return plan


class _View(dict):
    """Place content -> its (type, min(count, cap)) pairs of one pattern."""

    def __init__(self, pattern: str | None, cap: int, tok_class: list[str]):
        self.pattern = pattern
        self.cap = cap
        self.tok_class = tok_class

    def __missing__(self, content: tuple) -> tuple:
        pk, cap, tok_class = self.pattern, self.cap, self.tok_class
        view = self[content] = tuple(
            [(ty, c if c < cap else cap) for ty, c in content if pk is None or tok_class[ty] == pk]
        )
        return view


class _Step(dict):
    """Place content -> content after adding ``changes``, or ``None`` when
    that breaches ``capacity``."""

    def __init__(self, changes: tuple, capacity: int | None):
        self.changes = changes
        self.capacity = capacity

    def __missing__(self, content: tuple):
        counts = dict(content)
        for ty, d in self.changes:
            counts[ty] = counts.get(ty, 0) + d
        new = tuple(sorted([(ty, c) for ty, c in counts.items() if c > 0]))
        if self.capacity is not None and sum([c for _, c in new]) > self.capacity:
            new = None
        self[content] = new
        return new


class _TokenTable(dict):
    """Token type -> ``DataToken``, each built when first looked up."""

    def __init__(self, classes: list[str], levels: list[str]):
        super().__init__()
        self.classes = classes
        self.levels = levels

    def __missing__(self, ty: int) -> DataToken:
        n = len(self.levels)
        tok = self[ty] = DataToken(self.classes[ty // n], self.levels[ty % n])
        return tok


class CompactStates(Sequence):
    """A graph's states as ``explore`` keeps them: per place, a sorted tuple
    of (token type, count) in ``compiled``'s numbering.

    Indexing or iterating decodes a ``Marking`` each time; nothing is
    cached.  Analyses that only test predicates read ``compact`` through
    ``policy.state_flags`` and decode nothing.
    """

    __slots__ = ("compiled", "compact")

    def __init__(self, compiled: _CompiledNet, compact: tuple):
        self.compiled = compiled
        self.compact = compact

    def __len__(self) -> int:
        return len(self.compact)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.compiled.decode, self.compact[i]))
        return self.compiled.decode(self.compact[i])

    def __iter__(self):
        return map(self.compiled.decode, self.compact)

    def __eq__(self, other) -> bool:
        if isinstance(other, CompactStates):
            a, b = self.compiled, other.compiled
            if (a.place_ids, a.classes, a.levels) == (b.place_ids, b.classes, b.levels):
                return self.compact == other.compact  # one numbering: compare undecoded
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class EdgeColumns(Sequence):
    """A graph's edges as ``explore`` keeps them: int columns in compressed
    sparse row form.

    State ``s``'s edges are positions ``offsets[s]`` to ``offsets[s + 1]``
    of ``dst`` and ``label``, in edge order; label ``l`` names the
    (transition id, digest) ``labels[l]``, stored once however many edges
    carry it.  ``offsets`` is an int64 ``array``, so its entries are no int
    objects; the per-edge columns stay lists, which append and read
    faster.  Indexing or iterating builds a ``GraphEdge`` each time;
    nothing is cached.  Analyses read the columns and build none.
    """

    __slots__ = ("offsets", "dst", "label", "labels")

    def __init__(self, offsets: array, dst: list, label: list, labels: list):
        self.offsets = offsets
        self.dst = dst
        self.label = label
        self.labels = labels

    @classmethod
    def of(cls, edges: Iterable[GraphEdge], n_states: int) -> EdgeColumns:
        """Columns of hand-built edges: each state's in their given order."""
        rows = [[] for _ in range(n_states)]
        label_of: dict[tuple[str, str], int] = {}
        for e in edges:
            lab = label_of.setdefault((e.transition, e.binding), len(label_of))
            rows[e.src].append((e.dst, lab))
        offsets = array("q", [0])
        dst, label = [], []
        for row in rows:
            for d, lab in row:
                dst.append(d)
                label.append(lab)
            offsets.append(len(dst))
        return cls(offsets, dst, label, list(label_of))

    def src(self, k: int) -> int:
        """The source state of the edge at position ``k``."""
        return bisect_right(self.offsets, k) - 1

    def transition(self, k: int) -> str:
        return self.labels[self.label[k]][0]

    def _edge(self, src: int, k: int) -> GraphEdge:
        tid, digest = self.labels[self.label[k]]
        return GraphEdge(src, tid, digest, self.dst[k])

    def __len__(self) -> int:
        return len(self.dst)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self.dst))))
        k = i + len(self.dst) if i < 0 else i
        if not 0 <= k < len(self.dst):
            raise IndexError("edge index out of range")
        return self._edge(self.src(k), k)

    def __iter__(self):
        offsets = self.offsets
        for s in range(len(offsets) - 1):
            for k in range(offsets[s], offsets[s + 1]):
                yield self._edge(s, k)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeColumns):
            if (self.offsets, self.dst, self.label, self.labels) == (
                other.offsets, other.dst, other.label, other.labels
            ):
                return True  # same columns: compare without building edges
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def explore(net: FssmNet, limits: ExploreLimits | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the firing relation from an initial marking.

    Hitting ``max_states`` or ``max_depth`` truncates the graph and sets the
    flag (or raises ``LimitExceeded`` under ``strict``); edges into states
    beyond the limit are dropped.
    """
    limits = limits or ExploreLimits()
    if limits.max_states < 1:
        raise FssmError("max_states must be at least 1")
    if limits.max_depth is not None and limits.max_depth < 0:
        raise FssmError("max_depth must not be negative")
    if not 0 <= limits.initial < len(net.initials):
        raise FssmError(f"initial marking index {limits.initial} out of range")

    comp = _CompiledNet(net)
    successors = _FiringPlans(comp).successors
    tids = [t.id for t in net.transitions]
    root = comp.encode(net.initials[limits.initial])
    index = {root: 0}
    states = [root]
    parent_edge = [-1]
    parents = array("q", [-1])
    depths = [0]
    # the edge columns, filled state by state in breadth-first order
    offsets = array("q", [0])
    dst: list[int] = []
    label: list[int] = []
    label_of: dict[tuple[str, str], int] = {}  # (transition id, digest) -> label
    bindings: dict[tuple[str, str], Binding] = {}
    truncated = False
    max_states = limits.max_states
    max_depth = limits.max_depth

    i = 0
    while i < len(states):
        m = states[i]
        d = depths[i]
        if max_depth is not None and d >= max_depth:
            if next(successors(m), None) is not None:
                truncated = True
        else:
            for ti, combo, digest, succ in successors(m):
                j = index.get(succ)
                if j is None:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    j = len(states)
                    index[succ] = j
                    states.append(succ)
                    parent_edge.append(len(dst))
                    parents.append(i)
                    depths.append(d + 1)
                key = (tids[ti], digest)
                lab = label_of.get(key)
                if lab is None:
                    lab = label_of[key] = len(label_of)
                    bindings[key] = comp.binding(ti, combo)
                dst.append(j)
                label.append(lab)
        offsets.append(len(dst))
        i += 1

    if truncated and limits.strict:
        raise LimitExceeded(
            f"exploration exceeded limits ({len(states)} states reached)"
        )

    return ReachabilityGraph(
        states=CompactStates(comp, tuple(states)),
        edges=EdgeColumns(offsets, dst, label, list(label_of)),
        truncated=truncated,
        initial_index=limits.initial,
        parent_edge=tuple(parent_edge),
        depths=tuple(depths),
        bindings=bindings,
        parents=parents,
    )


def to_dot(g: ReachabilityGraph, show_markings: bool = False) -> str:
    """Byte-deterministic DOT rendering of a reachability graph, edges
    listed by source; ``show_markings`` adds each state's canonical key."""
    lines = ["digraph reachability {", "  rankdir=LR;"]
    if show_markings:
        lines.extend(
            f'  s{i} [label="s{i}\\n{key}"];' for i, key in enumerate(_dot_keys(g.states))
        )
    else:
        lines.extend(f'  s{i} [label="s{i}"];' for i in range(len(g.states)))
    cols = g.columns
    tids = [_dot_escape(tid) for tid, _ in cols.labels]
    offsets, dst, label = cols.offsets, cols.dst, cols.label
    for s in range(len(offsets) - 1):
        for k in range(offsets[s], offsets[s + 1]):
            lines.append(f'  s{s} -> s{dst[k]} [label="{tids[label[k]]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_keys(states: Sequence[Marking]) -> list[str]:
    """Each state's escaped ``Marking.canonical_key``.  Compact states are
    rendered place by place in place-id order, as ``Marking`` sorts them,
    from fragments memoised per (place, content); no marking is decoded."""
    if not isinstance(states, CompactStates):
        return [_dot_escape(m.canonical_key()) for m in states]
    comp = states.compiled
    order = sorted(range(len(comp.place_ids)), key=comp.place_ids.__getitem__)
    fragments = [(p, _Fragments(comp, p)) for p in order]
    return [
        ";".join([frag[compact[p]] for p, frag in fragments if compact[p]]) or "∅"
        for compact in states.compact
    ]


class _Fragments(dict):
    """Place content -> its escaped ``pid:class@Level*count`` entries."""

    def __init__(self, comp: _CompiledNet, p: int):
        self.comp = comp
        self.pid = comp.place_ids[p]

    def __missing__(self, content: tuple) -> str:
        comp, pid = self.comp, self.pid
        text = self[content] = _dot_escape(
            ";".join(
                f"{pid}:{comp.tok_class[ty]}@{comp.levels[comp.tok_level[ty]]}*{c}"
                for ty, c in content
            )
        )
        return text


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
