"""Operational semantics and reachability, cross-checked against a naive
interpreter written from the firing rule alone."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    Binding,
    CapacityExceeded,
    Cloud,
    DataToken,
    ExploreLimits,
    FssmError,
    GraphEdge,
    LimitExceeded,
    Marking,
    NotEnabled,
    Place,
    ReachabilityGraph,
    TaskTransition,
    brute_force_opacity,
    build_lattice,
    build_net,
    enabled_bindings,
    explore,
    fire,
    marking_of,
    to_dot,
)
from fssm.corpus import (
    bench_counter_net,
    random_monitor,
    random_net,
    random_obs,
    random_state_secret,
)
from fssm.noninterference import graph_adjacency
from fssm.statespace import EdgeColumns
from conftest import explored_graphs, make_net


# --------------------------------------------------------------------------
# naive oracle: dict-of-counts markings, itertools over token choices


def _mdict(m: Marking):
    out = {}
    for pid, packed in m.entries:
        for klass, level, count in packed:
            out[(pid, klass, level)] = count
    return out


def _naive_successors(net, md):
    """Yield (tid, signature, successor dict) per distinct enabled choice."""
    lat = net.lattice
    for t in net.transitions:
        candidates = []
        for arc in t.inputs:
            cands = sorted(
                key
                for key in md
                if key[0] == arc.place and (arc.pattern == "*" or key[1] == arc.pattern)
            )
            candidates.append((arc.mode, cands))
        if any(not c for _, c in candidates):
            continue
        seen = set()
        for combo in itertools.product(*(c for _, c in candidates)):
            takes = Counter()
            reads = set()
            for (mode, _), key in zip(candidates, combo):
                if mode == "take":
                    takes[key] += 1
                else:
                    reads.add(key)
            ok = True
            for key in set(takes) | reads:
                need = takes[key] + (1 if key in reads else 0)
                if md.get(key, 0) < need:
                    ok = False
                    break
            if not ok:
                continue
            sig = tuple(
                sorted(
                    f"{mode} {key[0]}:{key[1]}@{key[2]}"
                    for (mode, _), key in zip(candidates, combo)
                )
            )
            if sig in seen:
                continue
            seen.add(sig)
            level = t.floor
            for key in combo:
                level = lat.join(level, key[2])
            succ = dict(md)
            for key, n in takes.items():
                succ[key] -= n
                if not succ[key]:
                    del succ[key]
            for arc in t.outputs:
                okey = (arc.place, arc.klass, level)
                succ[okey] = succ.get(okey, 0) + 1
            # capacity: breaching firings are not successors
            full = False
            for p in net.places:
                if p.capacity is None:
                    continue
                total = sum(n for key, n in succ.items() if key[0] == p.id)
                if total > p.capacity:
                    full = True
            if full:
                continue
            yield t.id, "&".join(sig) if sig else "-", succ


def naive_explore(net, initial=0, max_states=None, max_depth=None):
    """Numbered breadth-first search over ``_naive_successors``, expanding each
    state in (transition, digest) order: (state keys, edges, truncated)."""
    order = {t.id: i for i, t in enumerate(net.transitions)}
    start = _mdict(net.initials[initial])
    keys = [tuple(sorted(start.items()))]
    mds = [start]
    depths = [0]
    index = {keys[0]: 0}
    edges = []
    truncated = False
    for i, md in enumerate(mds):
        succs = sorted(_naive_successors(net, md), key=lambda s: (order[s[0]], s[1]))
        if max_depth is not None and depths[i] >= max_depth:
            truncated = truncated or bool(succs)
            continue
        for tid, sig, succ in succs:
            key = tuple(sorted(succ.items()))
            j = index.get(key)
            if j is None:
                if max_states is not None and len(keys) >= max_states:
                    truncated = True
                    continue
                j = index[key] = len(keys)
                keys.append(key)
                mds.append(succ)
                depths.append(depths[i] + 1)
            edges.append((i, tid, sig, j))
    return keys, edges, truncated


def _graph_as_naive(g):
    keys = [tuple(sorted(_mdict(m).items())) for m in g.states]
    return keys, [tuple(e) for e in g.edges], g.truncated


# --------------------------------------------------------------------------
# enabledness and firing


def test_net1_single_binding(net1):
    bs = enabled_bindings(net1, net1.initials[0])
    assert len(bs) == 1
    b = bs[0]
    assert b.transition == "t_up"
    assert [tok for _, tok in b.choices] == [DataToken("d", "Public")]


def test_empty_marking_nothing_enabled(net1):
    assert enabled_bindings(net1, Marking({})) == []


def test_identical_tokens_collapse(net1):
    m = marking_of({"p1": [("d", "Public", 2)]})
    bs = enabled_bindings(net1, m)
    assert len(bs) == 1


def test_wildcard_pattern(lat2):
    t = TaskTransition(
        id="t_any",
        cloud="Cpub",
        clearance="Public",
        floor="Public",
        inputs=(ArcIn("p1", "take", "*"),),
        outputs=(),
    )
    net = make_net(lat2, [t])
    m = marking_of({"p1": [("d", "Public", 1), ("e", "Public", 1)]})
    bs = [b for b in enabled_bindings(net, m) if b.transition == "t_any"]
    assert len(bs) == 2


def test_fire_net1(net1):
    (b,) = enabled_bindings(net1, net1.initials[0])
    m2, flow = fire(net1, net1.initials[0], b)
    assert m2 == marking_of({"p2": [("d", "Secret", 1)]})
    assert flow.consumed == (("p1", DataToken("d", "Public")),)
    assert flow.read == ()
    assert flow.produced == (("p2", DataToken("d", "Secret")),)


def test_fire_floor_bottom_keeps_level(lat2):
    t = TaskTransition(
        id="t_copy",
        cloud="Cpriv",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("p1", "take", "d"),),
        outputs=(ArcOut("p2", "d"),),
    )
    net = make_net(lat2, [t])
    b = next(x for x in enabled_bindings(net, net.initials[0]) if x.transition == "t_copy")
    m2, _ = fire(net, net.initials[0], b)
    assert m2.tokens_at("p2") == ((DataToken("d", "Public"), 1),)


def test_fire_diamond_join(latd):
    clouds = [Cloud("C", "H")]
    places = [Place("pa", "C"), Place("pb", "C"), Place("po", "C")]
    t = TaskTransition(
        id="t",
        cloud="C",
        clearance="H",
        floor="L",
        inputs=(ArcIn("pa", "take", "x"), ArcIn("pb", "take", "y")),
        outputs=(ArcOut("po", "z"),),
    )
    net = build_net(
        latd,
        clouds,
        places,
        [t],
        [marking_of({"pa": [("x", "A", 1)], "pb": [("y", "B", 1)]})],
    )
    (b,) = enabled_bindings(net, net.initials[0])
    m2, flow = fire(net, net.initials[0], b)
    assert m2.tokens_at("po") == ((DataToken("z", "H"), 1),)


def test_fire_not_enabled(net1):
    (b,) = enabled_bindings(net1, net1.initials[0])
    with pytest.raises(NotEnabled):
        fire(net1, Marking({}), b)


def test_fire_capacity_exceeded_names_place(lat2):
    clouds = [Cloud("C", "Secret")]
    places = [Place("src", "C"), Place("full", "C", capacity=1)]
    t = TaskTransition(
        id="t_fill",
        cloud="C",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("src", "read", "d"),),
        outputs=(ArcOut("full", "d"),),
    )
    net = build_net(
        lat2,
        clouds,
        places,
        [t],
        [marking_of({"src": [("d", "Public", 1)], "full": [("d", "Public", 1)]})],
    )
    (b,) = enabled_bindings(net, net.initials[0])
    with pytest.raises(CapacityExceeded) as exc:
        fire(net, net.initials[0], b)
    assert "full" in str(exc.value)


def test_read_cannot_share_with_take(lat2):
    # one token, one take + one read on the same class: not enabled
    t = TaskTransition(
        id="t_both",
        cloud="Cpriv",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("p1", "take", "d"), ArcIn("p1", "read", "d")),
        outputs=(ArcOut("p2", "d"),),
    )
    net = make_net(lat2, [t])
    assert [b.transition for b in enabled_bindings(net, net.initials[0])] == ["t_up"]
    # two tokens: now both arcs can be served
    m = marking_of({"p1": [("d", "Public", 2)]})
    assert any(b.transition == "t_both" for b in enabled_bindings(net, m))


def test_two_takes_need_two_tokens(lat2):
    t = TaskTransition(
        id="t_pair",
        cloud="Cpriv",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("p1", "take", "d"), ArcIn("p1", "take", "d")),
        outputs=(ArcOut("p2", "d"),),
    )
    net = make_net(lat2, [t])
    assert not any(
        b.transition == "t_pair" for b in enabled_bindings(net, net.initials[0])
    )
    m = marking_of({"p1": [("d", "Public", 2)]})
    assert any(b.transition == "t_pair" for b in enabled_bindings(net, m))


def test_reads_may_share_one_token(lat2):
    t = TaskTransition(
        id="t_rr",
        cloud="Cpriv",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("p1", "read", "d"), ArcIn("p1", "read", "d")),
        outputs=(ArcOut("p2", "d"),),
    )
    net = make_net(lat2, [t])
    assert any(b.transition == "t_rr" for b in enabled_bindings(net, net.initials[0]))


# --------------------------------------------------------------------------
# exploration


def test_explore_net1(net1):
    g = explore(net1)
    assert g.stats.states == 2
    assert g.stats.edges == 1
    assert not g.truncated
    assert g.states[0] == net1.initials[0]
    assert g.states[1] == marking_of({"p2": [("d", "Secret", 1)]})
    (e,) = g.edges
    assert (e.src, e.transition, e.dst) == (0, "t_up", 1)


def test_explore_dead_net(lat2):
    net = make_net(lat2)
    dead = build_net(
        lat2, net.clouds, net.places, net.transitions, [Marking({})]
    )
    g = explore(dead)
    assert g.stats.states == 1 and g.stats.edges == 0 and not g.truncated


def _generator_net(capacity=None):
    lat = build_lattice(["Public", "Secret"], [("Public", "Secret")])
    clouds = [Cloud("C", "Secret")]
    places = [Place("src", "C"), Place("sink", "C", capacity=capacity)]
    t = TaskTransition(
        id="t_gen",
        cloud="C",
        clearance="Secret",
        floor="Public",
        inputs=(ArcIn("src", "read", "d"),),
        outputs=(ArcOut("sink", "d"),),
    )
    return build_net(lat, clouds, places, [t], [marking_of({"src": [("d", "Public", 1)]})])


def test_generator_truncates_at_max_states():
    g = explore(_generator_net(), ExploreLimits(max_states=10))
    assert g.stats.states == 10
    assert g.truncated


def test_generator_strict_raises():
    with pytest.raises(LimitExceeded):
        explore(_generator_net(), ExploreLimits(max_states=10, strict=True))


def test_max_depth_truncation():
    g = explore(_generator_net(), ExploreLimits(max_depth=2))
    assert g.stats.states == 3
    assert g.stats.depth == 2
    assert g.truncated


def test_max_depth_not_truncated_when_exhausted(net1):
    # depth bound equals the true depth: nothing skipped with a successor
    g = explore(net1, ExploreLimits(max_depth=1))
    assert g.stats.states == 2 and not g.truncated


def test_capacity_bounds_generator():
    g = explore(_generator_net(capacity=3))
    assert g.stats.states == 4
    assert not g.truncated


def test_bad_limits(net1):
    with pytest.raises(FssmError):
        explore(net1, ExploreLimits(max_states=0))
    with pytest.raises(FssmError):
        explore(net1, ExploreLimits(initial=5))
    with pytest.raises(FssmError, match="max_depth"):
        explore(net1, ExploreLimits(max_depth=-1))


def test_initial_index(lat2):
    net = make_net(lat2)
    two = build_net(
        lat2,
        net.clouds,
        net.places,
        net.transitions,
        [net.initials[0], marking_of({"p2": [("d", "Secret", 1)]})],
    )
    g = explore(two, ExploreLimits(initial=1))
    assert g.stats.states == 1
    assert g.states[0] == two.initials[1]


def test_path_to_matches_depths(net3):
    g = explore(net3)
    for i in range(len(g.states)):
        assert len(g.path_to(i)) == g.depths[i]
    assert g.path_to(0) == ()


def test_explore_deterministic(net3):
    a = explore(net3)
    b = explore(net3)
    assert a.states == b.states
    assert a.edges == b.edges
    assert to_dot(a, True) == to_dot(b, True)


def test_oracle_equivalence_random_nets():
    rng = random.Random(99)
    for _ in range(60):
        net, g = random_net(rng)
        assert _graph_as_naive(g) == naive_explore(net)


def test_oracle_equivalence_on_fixtures(net1, net2, net3, net1_leak):
    for net in (net1, net2, net3, net1_leak):
        assert _graph_as_naive(explore(net)) == naive_explore(net)


def _with_capacities(net, rng):
    """``net`` with capacities from ``rng`` and a second initial marking that
    adds up to one token to each entry of the first; each capped place holds
    at least what either initial marking puts there."""
    first = net.initials[0]
    second = marking_of(
        {pid: [(k, lv, c + rng.randint(0, 1)) for k, lv, c in packed] for pid, packed in first.entries}
    )
    places = []
    for p in net.places:
        load = sum(c for _, c in second.tokens_at(p.id))
        cap = None if rng.random() < 0.25 else max(load, 1) + rng.randint(0, 1)
        places.append(Place(p.id, p.cloud, capacity=cap))
    return build_net(net.lattice, net.clouds, places, net.transitions, [first, second])


def test_capacity_blocked_firings_match_oracle():
    from fssm.corpus import bench_counter_net

    rng = random.Random(17)
    cap_rng = random.Random(23)
    nets = [bench_counter_net(2, 3), bench_counter_net(2, 3, read_counters=True)]
    for acyclic in (False, True):
        for _ in range(40):
            nets.append(_with_capacities(random_net(rng, acyclic=acyclic)[0], cap_rng))
    blocked = 0
    for net in nets:
        for initial in range(len(net.initials)):
            for limits in ({}, {"max_states": 3}, {"max_depth": 1}, {"max_depth": 2}):
                g = explore(net, ExploreLimits(initial=initial, **limits))
                assert _graph_as_naive(g) == naive_explore(net, initial, **limits), (net, limits)
            for m in explore(net, ExploreLimits(initial=initial)).states:
                for b in enabled_bindings(net, m):
                    try:
                        fire(net, m, b)
                    except CapacityExceeded:
                        blocked += 1
    assert blocked > 50


@pytest.mark.parametrize("read_counters", [False, True], ids=["plain", "reading"])
def test_explore_builds_one_plan_per_saturated_view(monkeypatch, read_counters):
    from fssm import statespace
    from fssm.corpus import bench_counter_net

    build = statespace._FiringPlans.build
    calls = []

    def counting(self, ti, key):
        calls.append(ti)
        return build(self, ti, key)

    monkeypatch.setattr(statespace._FiringPlans, "build", counting)
    g = explore(bench_counter_net(3, 11, read_counters=read_counters))
    assert len(g.states) == 12**3 and not g.truncated
    assert sorted(calls) == [0, 1, 2]


def test_explore_drops_its_firing_plans(monkeypatch):
    import weakref

    from fssm import statespace
    from fssm.corpus import bench_counter_net

    init = statespace._FiringPlans.__init__
    refs = []

    def recording(self, comp):
        init(self, comp)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(statespace._FiringPlans, "__init__", recording)
    g = explore(bench_counter_net(2, 3))
    assert len(g.states) == 16
    assert len(refs) == 1 and refs[0]() is None


def test_token_conservation_and_taint(net1_leak):
    rng = random.Random(5)
    nets = [net1_leak] + [random_net(rng)[0] for _ in range(20)]
    for net in nets:
        g = explore(net)
        lat = net.lattice
        for m in g.states:
            for b in enabled_bindings(net, m):
                try:
                    m2, flow = fire(net, m, b)
                except CapacityExceeded:
                    continue
                before = Counter(_mdict(m))
                after = Counter(_mdict(m2))
                for pid, tok in flow.consumed:
                    before[(pid, tok.klass, tok.level)] -= 1
                for pid, tok in flow.produced:
                    before[(pid, tok.klass, tok.level)] += 1
                assert +before == +after
                inputs = list(flow.consumed) + list(flow.read)
                t = net.transition_by_id[b.transition]
                for _, out_tok in flow.produced:
                    assert lat.leq(t.floor, out_tok.level)
                    for _, in_tok in inputs:
                        assert lat.leq(in_tok.level, out_tok.level)
                for pid, tok in flow.read:
                    assert m2.contains(pid, tok.klass)


def test_binding_occurrence_invariant():
    rng = random.Random(31)
    for _ in range(30):
        net, g = random_net(rng)
        for m in g.states:
            for b in enabled_bindings(net, m):
                takes = Counter()
                reads = set()
                for arc, tok in b.choices:
                    key = (arc.place, tok.klass, tok.level)
                    if arc.mode == "take":
                        takes[key] += 1
                    else:
                        reads.add(key)
                avail = _mdict(m)
                for key in set(takes) | reads:
                    assert avail.get(key, 0) >= takes[key] + (1 if key in reads else 0)


# --------------------------------------------------------------------------
# DOT export


def test_dot_single_node(lat2):
    net = make_net(lat2)
    dead = build_net(lat2, net.clouds, net.places, net.transitions, [Marking({})])
    text = to_dot(explore(dead))
    assert 's0 [label="s0"];' in text
    assert "->" not in text


def test_dot_net1(net1):
    g = explore(net1)
    text = to_dot(g)
    assert text == (
        "digraph reachability {\n"
        "  rankdir=LR;\n"
        '  s0 [label="s0"];\n'
        '  s1 [label="s1"];\n'
        '  s0 -> s1 [label="t_up"];\n'
        "}\n"
    )
    assert to_dot(g) == text
    assert "p1:d@Public*1" in to_dot(g, show_markings=True)


# --------------------------------------------------------------------------
# the graph names each edge's reference binding


def test_graph_bindings_match_reference():
    edges = 0
    for seed in range(3):
        for acyclic in (True, False):
            rng = random.Random(seed)
            for _ in range(300):
                net, g = random_net(rng, acyclic=acyclic)
                for e in g.edges:
                    ref = {
                        (b.transition, b.digest): b
                        for b in enabled_bindings(net, g.states[e.src])
                    }
                    key = (e.transition, e.binding)
                    assert g.bindings[key] == ref[key], (net, e)
                    edges += 1
    assert edges > 5000


def test_explore_renders_each_signature_once(monkeypatch):
    from fssm import statespace
    from fssm.corpus import bench_counter_net

    render = statespace._CompiledNet._render_sig
    calls = []

    def counting(self, sig):
        calls.append(sig)
        return render(self, sig)

    monkeypatch.setattr(statespace._CompiledNet, "_render_sig", counting)
    g = explore(bench_counter_net(counters=2, bound=5))
    assert len(g.edges) == 60
    assert 0 < len(calls) == len(set(calls)) <= len(g.bindings)


# --------------------------------------------------------------------------
# the edges are int columns, read through a lazy sequence of GraphEdges


def _reference_edges(net, g, limits):
    """Each state's edges rebuilt on the reference semantics: every enabled
    binding fired, kept when the graph has its successor.  States at the
    depth limit keep none."""
    index = {m: i for i, m in enumerate(g.states)}
    max_depth = limits.max_depth if limits else None
    out = []
    for i, m in enumerate(g.states):
        if max_depth is not None and g.depths[i] >= max_depth:
            continue
        for b in enabled_bindings(net, m):
            try:
                m2, _ = fire(net, m, b)
            except CapacityExceeded:
                continue
            if m2 in index:
                out.append(GraphEdge(i, b.transition, b.digest, index[m2]))
    return tuple(out)


def _edge_cases(net3, seed):
    """(net, limits, graph): fixtures, the counter grid, and random nets
    whole, truncated by states or depth, and from a second initial."""
    rng = random.Random(seed)
    counter = bench_counter_net(counters=2, bound=4)
    cases = [(net3, None, explore(net3)), (counter, None, explore(counter))]
    cases.append((counter, ExploreLimits(max_states=7), explore(counter, ExploreLimits(max_states=7))))
    cases += explored_graphs(rng, 40)
    assert any(limits and limits.initial == 1 for _, limits, _ in cases)
    assert sum(g.truncated for _, _, g in cases) > 10
    return cases


def test_lazy_edges_keep_the_sequence_contract(net3):
    for net, limits, g in _edge_cases(net3, 4711):
        ref = _reference_edges(net, g, limits)
        edges = g.edges
        n = len(ref)
        assert isinstance(edges, EdgeColumns) and edges is g.columns
        assert len(edges) == n == g.stats.edges
        assert tuple(edges) == ref and list(edges) == list(ref)
        assert all(type(e) is GraphEdge for e in edges)
        assert [edges[k] for k in range(n)] == list(ref)
        assert [edges[-k] for k in range(1, n + 1)] == [ref[-k] for k in range(1, n + 1)]
        assert edges[1:3] == ref[1:3] and edges[::-1] == ref[::-1] and edges[1::2] == ref[1::2]
        with pytest.raises(IndexError):
            edges[n]
        with pytest.raises(IndexError):
            edges[-n - 1]
        if n:
            assert edges[0]._replace(dst=-1) == ref[0]._replace(dst=-1)
        # equal to the tuple, both ways, and to views of the same edges
        assert edges == ref and ref == edges and hash(edges) == hash(ref)
        assert edges != list(ref)
        if n > 1:
            assert edges != ref[:-1] and edges != ref[::-1]
        again = explore(net, limits)
        assert again.edges == edges and again.edges is not edges and again == g
        padded = EdgeColumns.of(ref, len(g.states) + 2)  # two edgeless states more
        assert padded == edges and edges == padded
        assert dataclasses.replace(g, edges=ref) == g


def test_path_to_follows_the_discovery_edges(net3):
    for net, limits, g in _edge_cases(net3, 4712):
        ref = _reference_edges(net, g, limits)
        assert g.parent_edge[0] == g.parents[0] == -1 and g.path_to(0) == ()
        for i in range(1, len(g.states)):
            path, s = [], i
            while s != 0:
                e = ref[g.parent_edge[s]]
                assert e.dst == s and e.src == g.parents[s]
                path.append(e.transition)
                s = e.src
            assert g.path_to(i) == tuple(reversed(path))
            assert len(path) == g.depths[i]


def _adjacency_of(edges, n, obs):
    """Oracle: adjacency rows read edge by edge from a tuple."""
    rows = [[] for _ in range(n)]
    for e in edges:
        rows[e.src].append((obs.symbol_of(e.transition), e.dst, e.transition))
    return rows


def _sorted_exposed(v, rename=lambda s: s):
    """``v`` with each exposed node's state renamed and the nodes sorted."""
    if v.exposed is None:
        return v

    def one(node):
        s, sep, q = node[1:].partition("|")
        return f"s{rename(int(s))}{sep}{q}"

    return dataclasses.replace(v, exposed=tuple(sorted(map(one, v.exposed))))


def test_hand_built_graphs_read_like_their_edge_tuple():
    """Graphs built from a tuple of edges keep it, in any order, and read
    like it: the shape of ``test_state_numbering_invariance`` (states
    renumbered, so edges are not grouped by source) and that of the
    perfbench reference (no digests, no discovery tree)."""
    rng = random.Random(5150)
    ungrouped = verdicts = 0
    for _ in range(60):
        net, g = random_net(rng, acyclic=True, max_states=20)
        n = len(g.states)
        ref = tuple(g.edges)
        perm = [0] + rng.sample(range(1, n), n - 1)
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        numbered = ReachabilityGraph(
            states=tuple(g.states[inv[i]] for i in range(n)),
            edges=tuple(e._replace(src=perm[e.src], dst=perm[e.dst]) for e in ref),
            truncated=g.truncated,
            initial_index=0,
            parent_edge=tuple(g.parent_edge[inv[i]] for i in range(n)),
            depths=tuple(g.depths[inv[i]] for i in range(n)),
        )
        reference = ReachabilityGraph(
            states=tuple(g.states),
            edges=tuple(GraphEdge(e.src, e.transition, "", e.dst) for e in rng.sample(ref, len(ref))),
            truncated=False, initial_index=0, parent_edge=(), depths=(),
        )
        srcs = [e.src for e in numbered.edges]
        ungrouped += srcs != sorted(srcs)
        obs = random_obs(rng, net)
        for h in (numbered, reference):
            assert type(h.edges) is tuple and len(h.columns) == len(ref)
            assert graph_adjacency(h, obs) == _adjacency_of(h.edges, n, obs)
        assert [numbered.path_to(perm[i]) for i in range(n)] == [g.path_to(i) for i in range(n)]
        for secret in (random_state_secret(rng, net), random_monitor(rng, net)):
            want = brute_force_opacity(g, net, obs, secret, n + 1)
            assert brute_force_opacity(reference, net, obs, secret, n + 1) == want
            got = brute_force_opacity(numbered, net, obs, secret, n + 1)
            assert _sorted_exposed(got) == _sorted_exposed(want, perm.__getitem__)
            verdicts += not want.opaque
    assert ungrouped > 10 and verdicts > 10
