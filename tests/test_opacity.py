"""Opacity: the state estimator, run monitors, and the enumeration oracle."""

import random

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    Cloud,
    CyclicGraph,
    DepthTooSmall,
    ExploreLimits,
    FssmError,
    Place,
    RunMonitor,
    TaskTransition,
    UnresolvedReference,
    brute_force_opacity,
    build_lattice,
    build_net,
    build_observer,
    check_current_state_opacity,
    check_run_opacity,
    coarsen_obs,
    explore,
    marking_of,
    obs_from_dict,
)
from fssm.corpus import random_monitor, random_net, random_obs, random_state_secret
from fssm.policy import Contains
from fssm.statespace import ReachabilityGraph

MON_UP = RunMonitor(
    states=("q0", "q1"), initial="q0", rules=(("q0", "t_up", "q1"),), accepting=frozenset({"q1"})
)


def observation_of(obs, run):
    return tuple(s for s in (obs.symbol_of(t) for t in run) if s is not None)


def run_end_states(g, run):
    """States reachable from the root by firing exactly this id sequence."""
    cur = {0}
    for tid in run:
        cur = {e.dst for e in g.edges if e.src in cur and e.transition == tid}
        if not cur:
            break
    return cur


@pytest.fixture(scope="module")
def chain3():
    """p1 -> p2 -> p3 by two takes; reachability graph is a 3-state path."""
    lat = build_lattice(["Public", "Secret"], [("Public", "Secret")])
    net = build_net(
        lattice=lat,
        clouds=[Cloud("C", "Secret")],
        places=[Place("p1", "C"), Place("p2", "C"), Place("p3", "C")],
        transitions=[
            TaskTransition(
                "a", "C", "Secret", "Public", (ArcIn("p1", "take", "x"),), (ArcOut("p2", "x"),)
            ),
            TaskTransition(
                "b", "C", "Secret", "Public", (ArcIn("p2", "take", "x"),), (ArcOut("p3", "x"),)
            ),
        ],
        initials=[marking_of({"p1": [("x", "Public", 1)]})],
    )
    return net, explore(net)


# --------------------------------------------------------------------------
# monitors


def test_monitor_rejects_bad_shapes():
    with pytest.raises(FssmError):
        RunMonitor(states=(), initial="q0", rules=(), accepting=frozenset())
    with pytest.raises(FssmError):
        RunMonitor(states=("q0",), initial="q9", rules=(), accepting=frozenset())
    with pytest.raises(FssmError):
        RunMonitor(
            states=("q0",), initial="q0", rules=(("q0", "t", "qx"),), accepting=frozenset()
        )
    with pytest.raises(FssmError):
        RunMonitor(
            states=("q0", "q1"),
            initial="q0",
            rules=(("q0", "t", "q0"), ("q0", "t", "q1")),
            accepting=frozenset(),
        )
    with pytest.raises(FssmError):
        RunMonitor(states=("q0",), initial="q0", rules=(), accepting=frozenset({"qz"}))


def test_monitor_validate_checks_transition_ids(net1):
    bad = RunMonitor(
        states=("q0",), initial="q0", rules=(("q0", "ghost", "q0"),), accepting=frozenset()
    )
    with pytest.raises(UnresolvedReference):
        bad.validate(net1)


def test_monitor_step_and_accepts():
    assert MON_UP.step("q0", "t_up") == "q1"
    # unmatched ids self-loop
    assert MON_UP.step("q0", "other") == "q0"
    assert MON_UP.step("q1", "t_up") == "q1"
    assert MON_UP.accepts(("t_up",))
    assert MON_UP.accepts(("other", "t_up", "other"))
    assert not MON_UP.accepts(())


# --------------------------------------------------------------------------
# observer construction


def test_observer_all_silent_is_one_macro(net2):
    g = explore(net2)
    a = build_observer(g, obs_from_dict({"t_up": None, "t_pub": None}, net2))
    assert len(a.macro_states) == 1
    assert a.macro_states[0] == frozenset(range(len(g.states)))
    assert a.edges == {}
    assert a.observation_to(0) == ()


def test_observer_injective_map_gives_singletons(net2):
    g = explore(net2)
    a = build_observer(g, obs_from_dict({"t_up": "u", "t_pub": "r"}, net2))
    assert all(len(m) == 1 for m in a.macro_states)
    assert a.macro_states[0] == frozenset({0})
    assert a.edges[(0, "r")] == 0
    idx = a.edges[(0, "u")]
    assert a.macro_states[idx] == frozenset({1})
    assert a.observation_to(idx) == ("u",)


def test_observer_net1_silent(net1):
    g = explore(net1)
    a = build_observer(g, obs_from_dict({"t_up": None}, net1))
    assert a.macro_states == (frozenset({0, 1}),)
    assert a.edges == {}


# --------------------------------------------------------------------------
# current-state opacity


def test_cso_exposed_state(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    v = check_current_state_opacity(g, net1, obs, Contains("p2", "d"))
    assert not v.opaque
    assert v.witness == ("u",)
    assert v.exposed == ("s1",)
    assert v.example_secret_run == ("t_up",)


def test_cso_silent_map_is_opaque(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": None}, net1)
    v = check_current_state_opacity(g, net1, obs, Contains("p2", "d"))
    assert v.opaque
    assert v.witness is None and v.exposed is None and v.example_secret_run is None


def test_cso_unreachable_secret_is_opaque(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    v = check_current_state_opacity(g, net1, obs, Contains("p2", "z"))
    assert v.opaque


def test_cso_initial_state_secret(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    v = check_current_state_opacity(g, net1, obs, Contains("p1", "d"))
    assert not v.opaque
    # the empty observation already exposes the initial marking
    assert v.witness == ()
    assert v.exposed == ("s0",)
    assert v.example_secret_run == ()


def test_cso_stops_at_first_all_secret_macro_state(net1, monkeypatch):
    import fssm.noninterference as ni

    steps = []
    step = ni.Observer.step
    monkeypatch.setattr(ni.Observer, "step", lambda self, i: steps.append(i) or step(self, i))
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    # the initial macro-state {s0} is all secret: nothing is expanded
    assert not check_current_state_opacity(g, net1, obs, Contains("p1", "d")).opaque
    assert steps == []
    # {s1} is found by expanding macro-state 0 and is tested there
    assert not check_current_state_opacity(g, net1, obs, Contains("p2", "d")).opaque
    assert steps == [0]


def test_cso_validates_secret(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    with pytest.raises(UnresolvedReference):
        check_current_state_opacity(g, net1, obs, Contains("nowhere", "d"))


# --------------------------------------------------------------------------
# run-based opacity


def test_run_opacity_exposed(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    v = check_run_opacity(g, net1, obs, MON_UP)
    assert not v.opaque
    assert v.witness == ("u",)
    assert v.exposed == ("s1|q1",)
    assert v.example_secret_run == ("t_up",)


def test_run_opacity_empty_accepting(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    mon = RunMonitor(
        states=("q0", "q1"),
        initial="q0",
        rules=(("q0", "t_up", "q1"),),
        accepting=frozenset(),
    )
    assert check_run_opacity(g, net1, obs, mon).opaque


def test_run_opacity_all_accepting_witness_is_empty(net1):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    mon = RunMonitor(
        states=("q0",), initial="q0", rules=(), accepting=frozenset({"q0"})
    )
    v = check_run_opacity(g, net1, obs, mon)
    assert not v.opaque
    assert v.witness == ()
    assert v.example_secret_run == ()
    assert v.exposed == ("s0|q0",)


def test_run_opacity_silent_monitor_hit(net1):
    # the accepting product state is indistinguishable from the start
    g = explore(net1)
    obs = obs_from_dict({"t_up": None}, net1)
    v = check_run_opacity(g, net1, obs, MON_UP)
    assert v.opaque


def test_opacity_on_truncated_graph_is_bounded(net1):
    # both secrets are exposed by firing t_up, one step past a one-state bound
    obs = obs_from_dict({"t_up": "u"}, net1)
    for limits, truncated in ((ExploreLimits(max_states=1), True), (None, False)):
        g = explore(net1, limits)
        assert g.truncated is truncated
        for check, secret in (
            (check_current_state_opacity, Contains("p2", "d")),
            (check_run_opacity, MON_UP),
        ):
            for v in (
                check(g, net1, obs, secret),
                brute_force_opacity(g, net1, obs, secret, depth=2),
            ):
                assert (v.opaque, v.bounded) == (truncated, truncated), (check, limits)


# --------------------------------------------------------------------------
# brute force oracle


def test_brute_rejects_cycles(net2, net1_leak):
    for net in (net2, net1_leak):
        g = explore(net)
        obs = obs_from_dict({t.id: t.id for t in net.transitions}, net)
        with pytest.raises(CyclicGraph):
            brute_force_opacity(g, net, obs, Contains("p1", "d"), depth=10)


def test_brute_rejects_small_depth(chain3):
    net, g = chain3
    obs = obs_from_dict({"a": "a", "b": "b"}, net)
    with pytest.raises(DepthTooSmall):
        brute_force_opacity(g, net, obs, Contains("p3", "x"), depth=1)
    with pytest.raises(FssmError):
        brute_force_opacity(g, net, obs, Contains("p3", "x"), depth=0)


def test_brute_matches_examples(net1, chain3):
    g = explore(net1)
    obs = obs_from_dict({"t_up": "u"}, net1)
    v = brute_force_opacity(g, net1, obs, Contains("p2", "d"), depth=3)
    assert (v.opaque, v.witness, v.exposed, v.example_secret_run) == (
        False,
        ("u",),
        ("s1",),
        ("t_up",),
    )
    assert brute_force_opacity(
        g, net1, obs_from_dict({"t_up": None}, net1), Contains("p2", "d"), depth=3
    ).opaque
    v2 = brute_force_opacity(g, net1, obs, MON_UP, depth=3)
    assert v2.witness == ("u",) and v2.exposed == ("s1|q1",)


# --------------------------------------------------------------------------
# properties


def _verdict_tuple(v):
    return (v.opaque, v.witness, v.exposed, v.example_secret_run)


def test_estimator_matches_brute_force():
    # seed 126 draws ties on the example run's order and run-opacity
    # exposed sets whose product-node order is not (state, monitor state)
    for seed in (909, 126):
        rng = random.Random(seed)
        opaque = 0
        for _ in range(150):
            net, g = random_net(rng, acyclic=True)
            obs = random_obs(rng, net)
            depth = len(g.states) + 1
            secret = random_state_secret(rng, net)
            got = check_current_state_opacity(g, net, obs, secret)
            want = brute_force_opacity(g, net, obs, secret, depth)
            assert _verdict_tuple(got) == _verdict_tuple(want)
            mon = random_monitor(rng, net)
            got_r = check_run_opacity(g, net, obs, mon)
            want_r = brute_force_opacity(g, net, obs, mon, depth)
            assert _verdict_tuple(got_r) == _verdict_tuple(want_r)
            opaque += got.opaque + got_r.opaque
        assert 0 < opaque < 300  # both verdicts exercised


def test_witness_and_run_agree_on_corpus():
    rng = random.Random(2718)
    hits = 0
    for _ in range(120):
        net, g = random_net(rng, acyclic=True)
        obs = random_obs(rng, net)
        secret = random_state_secret(rng, net)
        v = check_current_state_opacity(g, net, obs, secret)
        if v.opaque:
            continue
        hits += 1
        assert observation_of(obs, v.example_secret_run) == v.witness
        ends = run_end_states(g, v.example_secret_run)
        assert ends, "example run must be fireable"
        assert any(secret.eval(net, g.states[s]) for s in ends)
        assert all(lbl.startswith("s") for lbl in v.exposed)
    assert hits >= 10


def test_monitor_witness_runs_are_secret():
    rng = random.Random(3141)
    hits = 0
    for _ in range(120):
        net, g = random_net(rng, acyclic=True)
        obs = random_obs(rng, net)
        mon = random_monitor(rng, net)
        v = check_run_opacity(g, net, obs, mon)
        if v.opaque:
            continue
        hits += 1
        assert mon.accepts(v.example_secret_run)
        assert observation_of(obs, v.example_secret_run) == v.witness
        assert run_end_states(g, v.example_secret_run)
    assert hits >= 10


def test_coarsening_preserves_opacity():
    rng = random.Random(1615)
    checked = 0
    for _ in range(120):
        net, g = random_net(rng, acyclic=True)
        obs = random_obs(rng, net)
        secret = random_state_secret(rng, net)
        if not check_current_state_opacity(g, net, obs, secret).opaque:
            continue
        syms = sorted({s for _, s in obs.entries if s is not None})
        if not syms:
            continue
        checked += 1
        for _ in range(5):
            merge = {s: rng.choice(syms + [None]) for s in syms if rng.random() < 0.6}
            coarse = coarsen_obs(obs, merge)
            assert check_current_state_opacity(g, net, coarse, secret).opaque
    assert checked >= 20


def test_state_numbering_invariance():
    rng = random.Random(512)
    for _ in range(40):
        net, g = random_net(rng, acyclic=True)
        n = len(g.states)
        if n < 3:
            continue
        perm = list(range(1, n))
        rng.shuffle(perm)
        perm = [0] + perm  # estimator treats index 0 as the root
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        g2 = ReachabilityGraph(
            states=tuple(g.states[inv[i]] for i in range(n)),
            edges=tuple(
                e._replace(src=perm[e.src], dst=perm[e.dst]) for e in g.edges
            ),
            truncated=g.truncated,
            initial_index=0,
            parent_edge=tuple(g.parent_edge[inv[i]] for i in range(n)),
            depths=tuple(g.depths[inv[i]] for i in range(n)),
        )
        obs = random_obs(rng, net)
        secret = random_state_secret(rng, net)
        a = check_current_state_opacity(g, net, obs, secret)
        b = check_current_state_opacity(g2, net, obs, secret)
        assert a.opaque == b.opaque
        if not a.opaque:
            assert b.witness == a.witness
            assert b.example_secret_run == a.example_secret_run
            relabeled = sorted(f"s{perm[int(lbl[1:])]}" for lbl in a.exposed)
            assert sorted(b.exposed) == relabeled
