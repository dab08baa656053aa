"""Trace-based non-interference (SNNI) over reachability graphs.

Observation maps label transitions with symbols or silence; graphs project
to one deterministic, prefix-closed ``Observer``, determinised on demand by
silent closure and subset construction, which opacity shares.  SNNI holds
when deleting all transitions above the observer leaves the projected
language unchanged.
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


class Observer:
    """Deterministic estimator of an observation language, determinised on
    demand over an adjacency like ``graph_adjacency``'s.

    Macro-states are the state sets compatible with an observation, numbered
    in discovery order from macro-state 0.  ``step(i)`` expands macro-state
    ``i`` once, symbols in sorted order, and records its ``edges`` ((macro,
    symbol) -> macro) and each new macro-state's ``parents`` entry (the
    (macro, symbol) that first reached it).  Every macro-state accepts, so
    the language is prefix-closed.
    """

    def __init__(self, rows):
        self.rows = rows
        start = self._closure({0})
        self.macros = [start]  # grows as step() discovers macro-states
        self._index = {start: 0}
        self._moves: dict[int, dict[str, int]] = {}
        self.parents: list[Optional[tuple[int, str]]] = [None]
        self.edges: dict[tuple[int, str], int] = {}

    @property
    def macro_states(self) -> tuple[frozenset, ...]:
        return tuple(self.macros)

    def _closure(self, seed) -> frozenset:
        # one traversal per target set: a per-state memo is quadratic when
        # closures overlap
        rows, todo, acc = self.rows, list(seed), set(seed)
        while todo:
            for sym, dst, _ in rows[todo.pop()]:
                if sym is None and dst not in acc:
                    acc.add(dst)
                    todo.append(dst)
        return frozenset(acc)

    def step(self, i: int) -> dict[str, int]:
        """Moves symbol -> macro-state out of macro-state ``i``, sorted."""
        moves = self._moves.get(i)
        if moves is None:
            rows, targets = self.rows, {}
            for s in self.macros[i]:
                for sym, dst, _ in rows[s]:
                    if sym is not None:
                        targets.setdefault(sym, set()).add(dst)
            moves = self._moves[i] = {}
            for sym in sorted(targets):
                t = self._closure(targets[sym])
                j = self._index.get(t)
                if j is None:
                    j = self._index[t] = len(self.macros)
                    self.macros.append(t)
                    self.parents.append((i, sym))
                self.edges[(i, sym)] = moves[sym] = j
        return moves

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


def project(g: ReachabilityGraph, obs: ObsMap) -> Observer:
    """Complete observer of g's observation language from its initial state."""
    observer = Observer(graph_adjacency(g, obs))
    for i, _ in enumerate(observer.macros):  # the list grows while expanding
        observer.step(i)
    return observer


def language_diff(a: Observer, b: Observer):
    """Shortest string in L(a) \\ L(b), ties broken lexicographically, and
    the least string of L(b) \\ L(a) among the pairs searched (or None).

    Both accept everywhere, so the strings differ where one side reads a
    symbol the other cannot.  Pairs (a macro, b macro) are searched breadth
    first with sorted symbols, each side determinised only as far as the
    search reaches, up to the first string of L(a) \\ L(b).
    """
    seen = {(0, 0)}
    queue = deque([((0, 0), ())])
    escape = None
    while queue:
        (i, j), path = queue.popleft()
        moves_a, moves_b = a.step(i), b.step(j)
        if escape is None and not moves_b.keys() <= moves_a.keys():
            escape = path + (min(moves_b.keys() - moves_a.keys()),)
        for sym, ta in moves_a.items():
            tb = moves_b.get(sym)
            if tb is None:
                return path + (sym,), escape
            if (ta, tb) not in seen:
                seen.add((ta, tb))
                queue.append(((ta, tb), path + (sym,)))
    return None, escape


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
    edges (so with none, SNNI holds).  One search over (full, purged) pairs
    of macro-states stops at the first symbol the purged side cannot read;
    it also checks that the purged side reads nothing the full side cannot,
    but after an early stop only on the pairs it visited.  A truncated
    exploration yields a bounded verdict; there a candidate witness is
    reported only when low transitions alone cannot spell it from the
    initial marking (replayed on the net), so it is real, though shortest
    only within the explored part.
    """
    obs = derive_obs(net, observer_level)
    if symbols:
        # a visible transition's symbol is its own id
        obs = coarsen_obs(obs, {tid: s for tid, s in symbols.items() if s is not None})
    g = explore(net, limits)
    if all(sym is not None for _, sym in obs.entries):
        return NIVerdict(holds=True, witness=None, bounded=g.truncated)
    rows = graph_adjacency(g, obs)
    purged = Observer([[r for r in row if r[0] is not None] for row in rows])
    witness, backwards = language_diff(Observer(rows), purged)
    if backwards is not None:
        raise FssmError(
            "internal: purged language escapes the full language "
            f"(witness {' '.join(backwards)})"
        )
    if witness is not None and g.truncated:
        steps = [{tid for tid, sym in obs.entries if sym == w} for w in witness]
        if _replay_markings(net, steps, g.initial_index):
            witness = None
    return NIVerdict(holds=witness is None, witness=witness, bounded=g.truncated)
