"""SNNI checking, observation maps, and projection automata."""

import itertools
import random

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    Cloud,
    ExploreLimits,
    FssmError,
    NIVerdict,
    Observer,
    Place,
    TaskTransition,
    UnknownLevel,
    UnmappedTransition,
    build_lattice,
    build_net,
    check_snni,
    coarsen_obs,
    derive_obs,
    explore,
    language_diff,
    marking_of,
    obs_from_dict,
    project,
    without_transitions,
)
from fssm.corpus import random_net, random_obs
from fssm.noninterference import graph_adjacency
from fssm.policy import _replay_markings


def automaton_language(a, max_len):
    """All accepted strings up to max_len; every state accepts."""
    lang = set()
    frontier = [(0, ())]
    while frontier:
        state, word = frontier.pop()
        lang.add(word)
        if len(word) == max_len:
            continue
        for (s, sym), dst in a.edges.items():
            if s == state:
                frontier.append((dst, word + (sym,)))
    return lang


def trace_language(g, obs, max_len=None):
    """Observation sequences of firing sequences, by graph walk."""
    out = [[] for _ in g.states]
    for e in g.edges:
        out[e.src].append(e)
    lang = set()
    # acyclic graphs only (finitely many runs) unless max_len bounds the walk
    def walk(state, word):
        lang.add(word)
        if max_len is not None and len(word) >= max_len + 4:
            return
        for e in out[state]:
            sym = obs.symbol_of(e.transition)
            nxt = word if sym is None else word + (sym,)
            walk(e.dst, nxt)
    walk(g.initial_index, ())
    if max_len is not None:
        lang = {w for w in lang if len(w) <= max_len}
    return lang


# --------------------------------------------------------------------------
# observation maps


def test_obs_requires_totality(net2):
    with pytest.raises(UnmappedTransition):
        obs_from_dict({"t_up": "u"}, net2)


def test_obs_unknown_transition(net1):
    with pytest.raises(FssmError):
        obs_from_dict({"t_up": "u", "ghost": "g"}, net1)


def test_obs_symbol_must_be_identifier(net1):
    with pytest.raises(FssmError):
        obs_from_dict({"t_up": "not a symbol"}, net1)


def test_symbol_of_unmapped(net1):
    obs = obs_from_dict({"t_up": "u"}, net1)
    with pytest.raises(UnmappedTransition):
        obs.symbol_of("ghost")


def test_derive_obs(net3):
    obs = derive_obs(net3, "Public")
    assert obs.symbol_of("t_up") is None
    assert obs.symbol_of("t_pub") == "t_pub"
    assert obs.symbol_of("t_sig") == "t_sig"
    top = derive_obs(net3, "Secret")
    assert top.symbol_of("t_up") == "t_up"


def test_coarsen_obs(net3):
    obs = obs_from_dict({"t_up": None, "t_pub": "r", "t_sig": "w"}, net3)
    merged = coarsen_obs(obs, {"r": "x", "w": "x"})
    assert merged.symbol_of("t_pub") == merged.symbol_of("t_sig") == "x"
    silenced = coarsen_obs(obs, {"w": None})
    assert silenced.symbol_of("t_sig") is None
    assert silenced.symbol_of("t_pub") == "r"


# --------------------------------------------------------------------------
# projection


def test_project_silent_edge(net1):
    g = explore(net1)
    a = project(g, obs_from_dict({"t_up": None}, net1))
    assert automaton_language(a, 3) == {()}


def test_project_visible_edge(net1):
    g = explore(net1)
    a = project(g, obs_from_dict({"t_up": "u"}, net1))
    assert automaton_language(a, 3) == {(), ("u",)}


def test_project_net2_r_star(net2):
    g = explore(net2)
    a = project(g, obs_from_dict({"t_up": None, "t_pub": "r"}, net2))
    want = {("r",) * n for n in range(5)}
    assert {w for w in automaton_language(a, 4)} == want
    # matches direct trace enumeration
    obs = obs_from_dict({"t_up": None, "t_pub": "r"}, net2)
    assert trace_language(g, obs, max_len=4) == want


def test_project_requires_total_map(net2):
    g = explore(net2)
    with pytest.raises(UnmappedTransition):
        project(g, obs_from_dict({"t_up": "u"}, net2, ))


def test_project_matches_traces_on_corpus():
    rng = random.Random(606)
    for _ in range(40):
        net, g = random_net(rng, acyclic=True)
        obs = random_obs(rng, net)
        a = project(g, obs)
        assert automaton_language(a, 8) == trace_language(g, obs)


# --------------------------------------------------------------------------
# language difference


def test_language_diff_witness_shortest_lex_least(net3):
    g = explore(net3)
    full = project(g, obs_from_dict({"t_up": None, "t_pub": "r", "t_sig": "w"}, net3))
    purged_net = without_transitions(net3, ["t_up"])
    g2 = explore(purged_net)
    purged = project(g2, obs_from_dict({"t_pub": "r", "t_sig": "w"}, purged_net))
    assert language_diff(full, purged)[0] == ("w",)
    assert language_diff(purged, full)[0] is None


# --------------------------------------------------------------------------
# SNNI


def test_snni_net2_holds(net2):
    v = check_snni(net2, "Public")
    assert v.holds
    assert v.witness is None
    assert not v.bounded


def test_snni_net3_witness_w(net3):
    v = check_snni(net3, "Public", symbols={"t_pub": "r", "t_sig": "w"})
    assert not v.holds
    assert v.witness == ("w",)


def test_snni_net3_default_symbols(net3):
    v = check_snni(net3, "Public")
    assert not v.holds
    assert v.witness == ("t_sig",)


def test_snni_observer_top_always_holds():
    rng = random.Random(11)
    for _ in range(25):
        net, _ = random_net(rng)
        assert check_snni(net, net.lattice.top).holds


def test_snni_unknown_level(net1):
    with pytest.raises(UnknownLevel):
        check_snni(net1, "Ultra")


def test_snni_none_symbol_entries_ignored(net3):
    # a None entry must not hide a low transition from the derived map
    v = check_snni(net3, "Public", symbols={"t_up": None, "t_pub": "r", "t_sig": "w"})
    assert not v.holds and v.witness == ("w",)


def test_snni_bounded_verdict():
    from test_statespace import _generator_net

    net = _generator_net()
    v = check_snni(net, "Secret", limits=ExploreLimits(max_states=4))
    assert v.bounded


def test_snni_lex_least_witness():
    lat = build_lattice(["Public", "Secret"], [("Public", "Secret")])
    net = build_net(
        lattice=lat,
        clouds=[Cloud("C", "Secret")],
        places=[Place("p0", "C"), Place("p1", "C")],
        transitions=[
            TaskTransition(
                "t_h", "C", "Secret", "Public",
                (ArcIn("p0", "take", "x"),), (ArcOut("p1", "x"),),
            ),
            TaskTransition("t_lb", "C", "Public", "Public", (ArcIn("p1", "read", "x"),), ()),
            TaskTransition("t_la", "C", "Public", "Public", (ArcIn("p1", "read", "x"),), ()),
        ],
        initials=[marking_of({"p0": [("x", "Public", 1)]})],
    )
    v = check_snni(net, "Public", symbols={"t_la": "a", "t_lb": "b"})
    # both "a" and "b" witness the leak at length 1; ties break lexically
    assert v.witness == ("a",)


def test_snni_matches_trace_comparison_on_corpus():
    rng = random.Random(777)
    checked_violations = 0
    for _ in range(120):
        net, g = random_net(rng, acyclic=True)
        for level in net.lattice.levels:
            v = check_snni(net, level)
            high = [
                t.id for t in net.transitions if not net.lattice.leq(t.clearance, level)
            ]
            purged = without_transitions(net, high)
            g2 = explore(purged)
            full = trace_language(g, derive_obs(net, level))
            low = trace_language(g2, derive_obs(purged, level))
            assert low <= full
            assert v.holds == (full == low)
            if not v.holds:
                checked_violations += 1
                assert v.witness in full - low
                assert v.witness == min(full - low, key=lambda w: (len(w), w))
    assert checked_violations >= 3


def test_snni_bijective_renaming():
    rng = random.Random(4711)
    renamed_witnesses = 0
    for _ in range(60):
        net, _ = random_net(rng, acyclic=True)
        for level in net.lattice.levels:
            low = [t.id for t in net.transitions if net.lattice.leq(t.clearance, level)]
            base = check_snni(net, level)
            rename = {tid: f"s{i}_{tid}" for i, tid in enumerate(sorted(low))}
            renamed = check_snni(net, level, symbols=rename)
            assert base.holds == renamed.holds
            if not base.holds:
                renamed_witnesses += 1
                assert renamed.witness == tuple(rename[s] for s in base.witness)
    assert renamed_witnesses >= 2


def _accepts(a, word):
    state = 0
    for sym in word:
        state = a.edges.get((state, sym))
        if state is None:
            return False
    return True


def test_snni_truncated_never_raises_or_invents_a_leak():
    # a truncated graph can lose purged states the full exploration would
    # reach; a reported witness must still be a real leak
    rng = random.Random(5)
    checks = violations = 0
    for _ in range(400):
        net, g = random_net(rng, acyclic=False)
        if len(g.states) < 4:
            continue
        for level in net.lattice.levels:
            full = check_snni(net, level)
            high = [t.id for t in net.transitions if not net.lattice.leq(t.clearance, level)]
            purged = without_transitions(net, high)
            lang_full = project(g, derive_obs(net, level))
            lang_purged = project(explore(purged), derive_obs(purged, level))
            for max_states in range(1, len(g.states)):
                v = check_snni(net, level, limits=ExploreLimits(max_states=max_states))
                checks += 1
                assert v.bounded
                if not v.holds:
                    violations += 1
                    assert not full.holds
                    assert _accepts(lang_full, v.witness)
                    assert not _accepts(lang_purged, v.witness)
    assert checks >= 1000 and violations >= 10


def test_snni_explores_once(net3, monkeypatch):
    import fssm.noninterference as ni

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(ni, "explore", counting)
    assert not check_snni(net3, "Public").holds
    assert len(calls) == 1


def test_snni_without_silent_transitions_builds_no_observer(net3, monkeypatch):
    import fssm.noninterference as ni
    from test_statespace import _generator_net

    def no_observer(rows):
        raise AssertionError("an Observer was built")

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(ni, "Observer", no_observer)
    monkeypatch.setattr(ni, "explore", counting)
    assert check_snni(net3, "Secret") == NIVerdict(holds=True, witness=None, bounded=False)
    assert len(calls) == 1
    net = _generator_net()
    v = check_snni(net, "Secret", limits=ExploreLimits(max_states=4))
    assert v == NIVerdict(holds=True, witness=None, bounded=True)
    assert len(calls) == 2


def _complete(rows):
    a = Observer(rows)
    for i, _ in enumerate(a.macros):
        a.step(i)
    return a


def _product_witness(a, b):
    """Shortest, lexicographically least string in L(a) \\ L(b), by a
    breadth-first scan of the product of two complete observers."""
    a_out = [[] for _ in a.macros]
    for (src, sym), dst in sorted(a.edges.items()):
        a_out[src].append((sym, dst))
    seen = {(0, 0)}
    queue = [((0, 0), ())]
    for (sa, sb), path in queue:
        for sym, ta in a_out[sa]:
            tb = b.edges.get((sb, sym))
            if tb is None:
                return path + (sym,)
            if (ta, tb) not in seen:
                seen.add((ta, tb))
                queue.append(((ta, tb), path + (sym,)))
    return None


def _reference_snni(net, level, limits):
    """SNNI from two complete observers of one graph and their product."""
    g = explore(net, limits)
    obs = derive_obs(net, level)
    rows = graph_adjacency(g, obs)
    full = project(g, obs)
    purged = _complete([[r for r in row if r[0] is not None] for row in rows])
    assert _product_witness(purged, full) is None
    witness = _product_witness(full, purged)
    if witness is not None and g.truncated:
        steps = [{tid for tid, sym in obs.entries if sym == w} for w in witness]
        if _replay_markings(net, steps, g.initial_index):
            witness = None
    return NIVerdict(holds=witness is None, witness=witness, bounded=g.truncated)


def test_snni_matches_complete_observers_on_cyclic_nets():
    # every cap from 1 to one past the state count: truncated and complete
    rng = random.Random(2024)
    checks = violations = bounded_violations = 0
    for _ in range(200):
        net, g = random_net(rng, acyclic=False, max_states=16)
        for level in net.lattice.levels:
            for max_states in range(1, len(g.states) + 2):
                limits = ExploreLimits(max_states=max_states)
                v = check_snni(net, level, limits=limits)
                assert v == _reference_snni(net, level, limits)
                checks += 1
                violations += not v.holds
                bounded_violations += v.bounded and not v.holds
    assert checks >= 2500 and violations >= 50 and bounded_violations >= 10
