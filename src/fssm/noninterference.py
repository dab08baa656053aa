"""Trace-based non-interference (SNNI) over reachability graphs.

Observation maps label transitions with symbols or silence; graphs project
to one deterministic, prefix-closed ``Observer`` via silent closure and
subset construction, which opacity shares.  SNNI holds when deleting all
transitions above the observer leaves the projected language unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import FssmError, UnmappedTransition
from .lattice import is_identifier
from .model import FssmNet
from .policy import _replay_markings
from .statespace import ExploreLimits, ReachabilityGraph, explore

SILENT = None


@dataclass(frozen=True)
class ObsMap:
    """Total map from transition ids to observable symbols; None is silent."""

    entries: tuple[tuple[str, Optional[str]], ...]

    def __post_init__(self):
        for tid, sym in self.entries:
            if sym is not None and not is_identifier(sym):
                raise FssmError(f"observation symbol {sym!r} is not an identifier")
        object.__setattr__(self, "_map", dict(self.entries))

    @property
    def assignment(self) -> Mapping[str, Optional[str]]:
        return dict(self._map)

    def symbol_of(self, tid: str) -> Optional[str]:
        try:
            return self._map[tid]
        except KeyError:
            raise UnmappedTransition(f"no observation assigned to transition {tid!r}")


def obs_from_dict(
    assignment: Mapping[str, Optional[str]], net: FssmNet | None = None
) -> ObsMap:
    """Explicit map; when a net is given the map must cover its transitions."""
    if net is not None:
        for tid in assignment:
            if tid not in net.transition_by_id:
                raise UnmappedTransition(f"observation map names unknown transition {tid!r}")
        missing = [t.id for t in net.transitions if t.id not in assignment]
        if missing:
            raise UnmappedTransition(
                "observation map misses transitions: " + ", ".join(sorted(missing))
            )
    return ObsMap(entries=tuple(sorted(assignment.items())))


def derive_obs(net: FssmNet, observer_level: str) -> ObsMap:
    """Transitions at or below the observer show as their own id, rest silent."""
    lat = net.lattice
    lat.check_level(observer_level)
    entries = tuple(
        (t.id, t.id if lat.leq(t.clearance, observer_level) else SILENT)
        for t in net.transitions
    )
    return ObsMap(entries=tuple(sorted(entries)))


def coarsen_obs(obs: ObsMap, merge: Mapping[str, Optional[str]]) -> ObsMap:
    """Rename or silence output symbols; silent stays silent."""
    entries = tuple(
        (tid, SILENT if sym is None else merge.get(sym, sym)) for tid, sym in obs.entries
    )
    return ObsMap(entries=entries)


@dataclass(frozen=True)
class Observer:
    """Deterministic estimator of an observation language (subset construction).

    Macro-states are the state sets compatible with an observation, in
    breadth-first discovery order from macro-state 0; ``edges`` maps
    (macro, symbol) to macro.  Every macro-state accepts, so the language
    is prefix-closed.  ``parents[i]`` is the (macro, symbol) that first
    reached macro-state ``i`` (None for 0), for witness reconstruction.
    """

    macro_states: tuple[frozenset, ...]
    edges: Mapping[tuple[int, str], int]
    parents: tuple[Optional[tuple[int, str]], ...]

    def observation_to(self, macro: int) -> tuple[str, ...]:
        path = []
        while self.parents[macro] is not None:
            macro, sym = self.parents[macro]
            path.append(sym)
        return tuple(reversed(path))


def graph_adjacency(g: ReachabilityGraph, obs: ObsMap):
    """Per-state (symbol or None, dst, transition) lists in edge order."""
    cols = g.columns
    tids = [tid for tid, _ in cols.labels]
    syms = [obs.symbol_of(tid) for tid in tids]
    entries = [(syms[lab], d, tids[lab]) for lab, d in zip(cols.label, cols.dst)]
    return [entries[a:b] for a, b in zip(cols.offsets, cols.offsets[1:])]


def subset_construction(rows) -> Observer:
    """Observer of an adjacency like ``graph_adjacency``'s, from state 0.

    Symbols are expanded in sorted order, so numbering is deterministic.
    """

    def closure(seed):
        todo = list(seed)
        acc = set(seed)
        while todo:
            s = todo.pop()
            for sym, dst, _ in rows[s]:
                if sym is None and dst not in acc:
                    acc.add(dst)
                    todo.append(dst)
        return frozenset(acc)

    start = closure({0})
    macros = [start]
    index = {start: 0}
    parents: list[Optional[tuple[int, str]]] = [None]
    delta: dict[tuple[int, str], int] = {}
    i = 0
    while i < len(macros):
        targets: dict[str, set] = {}
        for s in macros[i]:
            for sym, dst, _ in rows[s]:
                if sym is not None:
                    targets.setdefault(sym, set()).add(dst)
        for sym in sorted(targets):
            t = closure(targets[sym])
            j = index.get(t)
            if j is None:
                j = len(macros)
                index[t] = j
                macros.append(t)
                parents.append((i, sym))
            delta[(i, sym)] = j
        i += 1
    return Observer(macro_states=tuple(macros), edges=delta, parents=tuple(parents))


def project(g: ReachabilityGraph, obs: ObsMap) -> Observer:
    """Observer of g's observation language from its initial state."""
    return subset_construction(graph_adjacency(g, obs))


def language_diff_witness(a: Observer, b: Observer) -> Optional[tuple[str, ...]]:
    """Shortest string in L(a) \\ L(b); ties broken lexicographically.

    Both automata accept everywhere, so the difference is exactly the
    strings a can read and b cannot; a breadth-first product scan with
    sorted symbols finds the least one.
    """
    a_out = [[] for _ in a.macro_states]
    for (src, sym), dst in sorted(a.edges.items()):
        a_out[src].append((sym, dst))
    start = (0, 0)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (sa, sb), path = queue.popleft()
        for sym, ta in a_out[sa]:
            tb = b.edges.get((sb, sym))
            if tb is None:
                return path + (sym,)
            nxt = (ta, tb)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (sym,)))
    return None


@dataclass(frozen=True)
class NIVerdict:
    holds: bool
    witness: Optional[tuple[str, ...]]
    bounded: bool = False


def check_snni(
    net: FssmNet,
    observer_level: str,
    limits: ExploreLimits | None = None,
    symbols: Mapping[str, Optional[str]] | None = None,
) -> NIVerdict:
    """SNNI at an observer level: purging high activity must not shrink
    the low-observable language.

    High transitions (clearance not below the observer) are always silent;
    low ones show as their own id, optionally renamed through ``symbols``
    (a None entry there is ignored, visibility comes from the lattice
    alone).  The net is explored once: since low transitions are never
    silent, the purged net's graph is the explored graph without its silent
    edges.  A truncated exploration yields a bounded verdict; there a
    candidate witness is reported only when low transitions alone cannot
    spell it from the initial marking (replayed on the net), so it is
    real, though shortest only within the explored part.
    """
    obs = derive_obs(net, observer_level)
    if symbols:
        # a visible transition's symbol is its own id
        obs = coarsen_obs(obs, {tid: s for tid, s in symbols.items() if s is not None})
    g = explore(net, limits)
    rows = graph_adjacency(g, obs)
    a = subset_construction(rows)
    b = subset_construction([[r for r in row if r[0] is not None] for row in rows])
    backwards = language_diff_witness(b, a)
    if backwards is not None:
        raise FssmError(
            "internal: purged language escapes the full language "
            f"(witness {' '.join(backwards)})"
        )
    witness = language_diff_witness(a, b)
    if witness is not None and g.truncated:
        steps = [{tid for tid, sym in obs.entries if sym == w} for w in witness]
        if _replay_markings(net, steps, g.initial_index):
            witness = None
    return NIVerdict(holds=witness is None, witness=witness, bounded=g.truncated)
