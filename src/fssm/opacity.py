"""Opacity checking: can an observer ever be certain the secret holds?

Secrets are either marking predicates (current-state opacity) or regular
run predicates given as deterministic monitors over transition ids
(run-based opacity, via synchronous product).  A brute-force enumeration
oracle is provided for acyclic graphs; it is exact or it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import CyclicGraph, DepthTooSmall, FssmError, UnresolvedReference
from .model import FssmNet
from .noninterference import ObsMap, Observer, graph_adjacency, project
from .policy import PredicateExpr, state_flags
from .statespace import ReachabilityGraph


@dataclass(frozen=True)
class RunMonitor:
    """Deterministic automaton over transition ids; unmatched ids self-loop.

    A run is secret iff the monitor ends in an accepting state.
    """

    states: tuple[str, ...]
    initial: str
    rules: tuple[tuple[str, str, str], ...]  # (state, transition id, next state)
    accepting: frozenset[str]

    def __post_init__(self):
        known = set(self.states)
        if not known:
            raise FssmError("monitor needs at least one state")
        if self.initial not in known:
            raise FssmError(f"monitor initial state {self.initial!r} undeclared")
        delta: dict[tuple[str, str], str] = {}
        for q, tid, q2 in self.rules:
            if q not in known or q2 not in known:
                raise FssmError(f"monitor rule ({q!r}, {tid!r}, {q2!r}) uses undeclared state")
            key = (q, tid)
            if key in delta and delta[key] != q2:
                raise FssmError(f"monitor is nondeterministic on ({q!r}, {tid!r})")
            delta[key] = q2
        for q in self.accepting:
            if q not in known:
                raise FssmError(f"monitor accepting state {q!r} undeclared")
        object.__setattr__(self, "_delta", delta)

    def step(self, q: str, tid: str) -> str:
        return self._delta.get((q, tid), q)

    def accepts(self, run) -> bool:
        q = self.initial
        for tid in run:
            q = self.step(q, tid)
        return q in self.accepting

    def validate(self, net: FssmNet) -> None:
        for _, tid, _ in self.rules:
            if tid not in net.transition_by_id:
                raise UnresolvedReference(f"monitor rule names unknown transition {tid!r}")


SecretSpec = Union[PredicateExpr, RunMonitor]


@dataclass(frozen=True)
class OpacityVerdict:
    opaque: bool
    witness: Optional[tuple[str, ...]] = None
    exposed: Optional[tuple[str, ...]] = None
    example_secret_run: Optional[tuple[str, ...]] = None
    bounded: bool = False  # decided on a truncated graph


# the estimator of opacity is the SNNI projection itself
build_observer = project


def _example_run(rows, witness, targets) -> tuple[str, ...]:
    """Shortest run realizing the witness into a target state, least by its
    tuple of transition ids among the shortest.

    Layered BFS over (state, symbols read) nodes, keeping per node the least
    run of the layer that first reaches it: a least shortest run extends a
    least shortest run of its prefix's node.
    """
    goal = len(witness)
    layer = {(0, 0): ()}
    seen = set(layer)
    while layer:
        done = [run for (s, k), run in layer.items() if k == goal and s in targets]
        if done:
            return min(done)
        nxt: dict = {}
        for (s, k), run in layer.items():
            for sym, dst, tid in rows[s]:
                if sym is None:
                    node = (dst, k)
                elif k < goal and sym == witness[k]:
                    node = (dst, k + 1)
                else:
                    continue
                if node in seen:
                    continue
                run2 = run + (tid,)
                if node not in nxt or run2 < nxt[node]:
                    nxt[node] = run2
        seen.update(nxt)
        layer = nxt
    raise FssmError("internal: witness observation has no realizing run")


def _estimate(rows, secret_flags, keys, label, bounded):
    """Shared estimator core: find the first all-secret macro-state.

    Each macro-state is tested when it is discovered, and the observer is
    expanded only while every macro-state found so far is tested, so the
    search stops at the first all-secret one.  ``keys[i]`` orders node ``i``
    in ``exposed`` and ``label`` renders it.
    """
    observer = Observer(rows)
    macros = observer.macros
    tested = expanded = 0
    while tested < len(macros):
        macro = macros[tested]
        if all(secret_flags[s] for s in macro):
            witness = observer.observation_to(tested)
            return OpacityVerdict(
                opaque=False,
                witness=witness,
                exposed=tuple(label(k) for k in sorted(keys[s] for s in macro)),
                example_secret_run=_example_run(rows, witness, macro),
                bounded=bounded,
            )
        tested += 1
        while tested == len(macros) and expanded < tested:
            observer.step(expanded)
            expanded += 1
    return OpacityVerdict(opaque=True, bounded=bounded)


def check_current_state_opacity(
    g: ReachabilityGraph, net: FssmNet, obs: ObsMap, secret: PredicateExpr
) -> OpacityVerdict:
    """Opaque iff no observation pins the system inside the secret markings."""
    secret.validate(net)
    return _estimate(
        graph_adjacency(g, obs),
        state_flags(g, net, secret),
        range(len(g.states)),
        lambda s: f"s{s}",
        g.truncated,
    )


def check_run_opacity(
    g: ReachabilityGraph, net: FssmNet, obs: ObsMap, monitor: RunMonitor
) -> OpacityVerdict:
    """Opaque iff no observation proves the run so far is accepted.

    The graph is composed synchronously with the monitor (which reads
    fired transition ids); current-state opacity of the accepting
    component on the product is exactly run opacity.
    """
    monitor.validate(net)
    base = graph_adjacency(g, obs)
    start = (0, monitor.initial)
    nodes = [start]
    index = {start: 0}
    rows = []
    i = 0
    while i < len(nodes):
        s, q = nodes[i]
        row = []
        for sym, dst, tid in base[s]:
            node = (dst, monitor.step(q, tid))
            j = index.get(node)
            if j is None:
                j = len(nodes)
                index[node] = j
                nodes.append(node)
            row.append((sym, j, tid))
        rows.append(row)
        i += 1
    flags = [q in monitor.accepting for _, q in nodes]
    return _estimate(
        rows,
        flags,
        nodes,
        lambda node: f"s{node[0]}|{node[1]}",
        g.truncated,
    )


def brute_force_opacity(
    g: ReachabilityGraph,
    net: FssmNet,
    obs: ObsMap,
    secret: SecretSpec,
    depth: int,
) -> OpacityVerdict:
    """Exact oracle by exhaustive run enumeration; acyclic graphs only.

    Enumerates every firing sequence (including the empty one), groups by
    observation, and reports non-opacity iff some group is entirely
    secret.  As in the estimator, the witness is the shortest such
    observation, least by its symbols; the example run is the shortest run
    producing it, least by its transition ids; exposed lists the group's
    final states by state (then monitor state), so results compare exactly.
    """
    if depth < 1:
        raise FssmError("depth must be positive")
    n = len(g.states)
    adj = graph_adjacency(g, obs)
    indeg = [0] * n
    for dst in g.columns.dst:
        indeg[dst] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    k = 0
    while k < len(order):
        for _, dst, _ in adj[order[k]]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                order.append(dst)
        k += 1
    if len(order) < n:
        raise CyclicGraph("brute-force opacity needs an acyclic graph")
    dist = [0] * n
    for i in order:
        for _, dst, _ in adj[i]:
            dist[dst] = max(dist[dst], dist[i] + 1)
    longest = max(dist) if n else 0
    if depth < longest:
        raise DepthTooSmall(f"depth {depth} below longest path {longest}")

    by_run = isinstance(secret, RunMonitor)
    secret.validate(net)
    if not by_run:
        state_secret = state_flags(g, net, secret)

    groups: dict[tuple[str, ...], dict] = {}

    def record(run, o, s, q):
        is_secret = q in secret.accepting if by_run else state_secret[s]
        final = (s, q) if by_run else s
        grp = groups.setdefault(o, {"all": True, "runs": [], "finals": set()})
        grp["all"] = grp["all"] and is_secret
        grp["finals"].add(final)
        if is_secret:
            grp["runs"].append(run)

    def walk(s, q, run, o):
        record(run, o, s, q)
        if len(run) >= depth:
            return
        for sym, dst, tid in adj[s]:
            walk(
                dst,
                secret.step(q, tid) if by_run else q,
                run + (tid,),
                o if sym is None else o + (sym,),
            )

    walk(0, secret.initial if by_run else None, (), ())

    bad = sorted(
        (o for o, grp in groups.items() if grp["all"]), key=lambda o: (len(o), o)
    )
    if not bad:
        return OpacityVerdict(opaque=True, bounded=g.truncated)
    witness = bad[0]
    grp = groups[witness]
    run = min(grp["runs"], key=lambda r: (len(r), r))
    exposed = tuple(f"s{f[0]}|{f[1]}" if by_run else f"s{f}" for f in sorted(grp["finals"]))
    return OpacityVerdict(
        opaque=False, witness=witness, exposed=exposed, example_secret_run=run, bounded=g.truncated
    )
