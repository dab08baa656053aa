"""BLP rules, predicate invariants, and witness machinery."""

import dataclasses
import itertools
import random

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    BlpConfig,
    Cloud,
    ExploreLimits,
    FssmError,
    Place,
    PolicyReport,
    TaskTransition,
    UnresolvedReference,
    Violation,
    build_net,
    check_invariant,
    dynamic_blp_check,
    enabled_bindings,
    eval_predicate,
    explore,
    fire,
    marking_of,
    parse_predicate,
    predicate_to_obj,
    replay_witness,
    static_blp_check,
)
from fssm.corpus import random_net, random_state_secret
from fssm.statespace import flow_of
from fssm.policy import And, Const, Contains, CountCmp, ExistsTokenGeq, Not, _flow_violations


def by_kind(report):
    return {(v.transition, v.kind): v for v in report.violations}


# --------------------------------------------------------------------------
# predicates


def test_eval_contains(net1):
    p = parse_predicate({"contains": ["p2", "d"]}, net1)
    m0 = net1.initials[0]
    m1 = marking_of({"p2": [("d", "Secret", 1)]})
    assert not eval_predicate(p, net1, m0)
    assert eval_predicate(p, net1, m1)


def test_eval_combinators(net1):
    m0 = net1.initials[0]
    p = parse_predicate(
        {"and": [{"not": {"contains": ["p2", "d"]}}, {"count": ["p1", ">=", 1]}]},
        net1,
    )
    assert eval_predicate(p, net1, m0)


def test_eval_exists_token_geq(net1):
    p = parse_predicate({"exists_token_geq": ["Cpriv", "Secret"]}, net1)
    assert not eval_predicate(p, net1, net1.initials[0])
    assert eval_predicate(p, net1, marking_of({"p2": [("d", "Secret", 1)]}))
    # token in the other cloud does not count
    assert not eval_predicate(p, net1, marking_of({"p1": [("d", "Public", 1)]}))


def test_eval_const_and_or(net1):
    p = parse_predicate({"or": [False, True]}, net1)
    assert eval_predicate(p, net1, net1.initials[0])


def test_count_ops(net1):
    m = marking_of({"p1": [("d", "Public", 2)]})
    for op, n, want in [("<", 3, True), ("<=", 2, True), ("=", 2, True),
                        (">=", 3, False), (">", 1, True), ("=", 1, False)]:
        p = parse_predicate({"count": ["p1", op, n]}, net1)
        assert eval_predicate(p, net1, m) is want


def test_unresolved_place(net1):
    with pytest.raises(UnresolvedReference):
        parse_predicate({"contains": ["p9_never", "d"]}, net1)


def test_unresolved_cloud_and_level(net1):
    with pytest.raises(UnresolvedReference):
        parse_predicate({"exists_token_geq": ["Cmars", "Secret"]}, net1)
    with pytest.raises(UnresolvedReference):
        parse_predicate({"exists_token_geq": ["Cpriv", "Ultra"]}, net1)


def test_malformed_forms(net1):
    for bad in [
        {"contains": []},
        {"count": ["p1", "!!", 1]},
        {"count": ["p1", "<", "x"]},
        {"nope": True},
        {"and": True},
        {"not": [1, 2]},
        12,
    ]:
        with pytest.raises(UnresolvedReference):
            parse_predicate(bad, net1)


def test_predicate_json_round_trip(net1):
    rng = random.Random(88)
    for _ in range(50):
        net, _ = random_net(rng)
        p = random_state_secret(rng, net)
        obj = predicate_to_obj(p)
        again = parse_predicate(obj, net)
        assert predicate_to_obj(again) == obj
        assert again.render() == p.render()


def test_render_shapes():
    p = And((Not(Contains("p1", None)), CountCmp("p2", ">=", 1), Const(True)))
    text = p.render()
    assert "contains" in text and "count" in text


# --------------------------------------------------------------------------
# static BLP


def test_static_net1_clean(net1):
    rep = static_blp_check(net1)
    assert rep.verdict == "holds"
    assert rep.violations == ()


def test_static_net3_flags_t_sig(net3):
    rep = static_blp_check(net3)
    assert rep.verdict == "violated"
    assert set(by_kind(rep)) == {("t_sig", "read_up")}


def test_static_top_writer_clean(latd):
    from conftest import make_net  # local import keeps fixture wiring obvious
    from fssm import ArcIn, ArcOut, Cloud, Place, TaskTransition, build_net

    clouds = [Cloud("C", "H")]
    places = [Place("p", "C")]
    t = TaskTransition(
        id="t",
        cloud="C",
        clearance="H",
        floor="H",
        inputs=(ArcIn("p", "take", "*"),),
        outputs=(ArcOut("p", "d"),),
    )
    net = build_net(latd, clouds, places, [t], [marking_of({"p": [("d", "L", 1)]})])
    assert static_blp_check(net).verdict == "holds"


def test_static_rule_toggles(net1_leak):
    only_ru = static_blp_check(net1_leak, BlpConfig(True, False, False))
    assert all(v.kind == "read_up" for v in only_ru.violations)
    only_wd = static_blp_check(net1_leak, BlpConfig(False, True, False))
    assert {v.kind for v in only_wd.violations} == {"write_down"}


def test_config_needs_one_rule():
    with pytest.raises(FssmError):
        BlpConfig(False, False, False)


# --------------------------------------------------------------------------
# dynamic BLP


def test_dynamic_net1_holds(net1):
    rep = dynamic_blp_check(net1, graph=explore(net1))
    assert rep.verdict == "holds"
    assert not rep.truncated
    assert rep.explored.states == 2


def test_dynamic_net3_read_up(net3):
    rep = dynamic_blp_check(net3, graph=explore(net3))
    assert rep.verdict == "violated"
    vmap = by_kind(rep)
    assert set(vmap) == {("t_sig", "read_up")}
    assert vmap[("t_sig", "read_up")].witness == ("t_up", "t_sig")


def test_dynamic_leak_both_kinds(net1_leak):
    rep = dynamic_blp_check(net1_leak, graph=explore(net1_leak))
    vmap = by_kind(rep)
    assert set(vmap) == {("t_leak", "write_down"), ("t_leak", "containment")}
    for v in vmap.values():
        assert v.witness == ("t_up", "t_leak")


def test_dynamic_dedup_counts(net1_leak):
    # t_leak cycles: t_up/t_leak alternate, so the pair recurs; counts
    # grow while the violation list stays deduplicated
    rep = dynamic_blp_check(net1_leak, graph=explore(net1_leak))
    assert len(rep.violations) == 2
    # cyclic graph: each edge evaluated once, count per (transition, kind) is 1 here
    assert all(v.count >= 1 for v in rep.violations)


def test_dynamic_monotone_config():
    rng = random.Random(17)
    full = BlpConfig(True, True, True)
    for _ in range(25):
        net, g = random_net(rng)
        rep_full = dynamic_blp_check(net, full, graph=g)
        pairs_full = set(by_kind(rep_full))
        for cfg, kind in [
            (BlpConfig(True, False, False), "read_up"),
            (BlpConfig(False, True, False), "write_down"),
            (BlpConfig(False, False, True), "containment"),
        ]:
            rep_one = dynamic_blp_check(net, cfg, graph=g)
            pairs_one = set(by_kind(rep_one))
            assert pairs_one == {p for p in pairs_full if p[1] == kind}


def test_dynamic_truncated_verdict():
    from test_statespace import _generator_net

    net = _generator_net()
    rep = dynamic_blp_check(net, graph=explore(net, ExploreLimits(max_states=5)))
    assert rep.truncated
    assert rep.verdict in ("holds_up_to_bound", "violated")


def test_static_soundness_under_containment():
    # when containment holds dynamically, every dynamic hit is predicted
    rng = random.Random(4242)
    checked = 0
    for _ in range(120):
        net, g = random_net(rng)
        dyn = dynamic_blp_check(net, graph=g)
        if any(v.kind == "containment" for v in dyn.violations):
            continue
        static_pairs = set(by_kind(static_blp_check(net)))
        for v in dyn.violations:
            checked += 1
            assert (v.transition, v.kind) in static_pairs
    assert checked > 0


def _declared_blp_pairs(net, cfg):
    """Oracle: the rules read off the declared clearances alone."""
    lat = net.lattice
    pairs = []
    for t in net.transitions:
        ins = [net.place_clearance(a.place) for a in t.inputs]
        outs = [net.place_clearance(a.place) for a in t.outputs]
        bound = lat.join(lat.join_all(ins), t.floor)
        if cfg.no_read_up and any(not lat.leq(c, t.clearance) for c in ins):
            pairs.append((t.id, "read_up"))
        if cfg.no_write_down and any(not lat.leq(t.clearance, c) for c in outs):
            pairs.append((t.id, "write_down"))
        if cfg.containment and any(not lat.leq(bound, c) for c in outs):
            pairs.append((t.id, "containment"))
    return pairs


def test_static_is_declaration_reading(lat2, net3):
    """Static checking, the dynamic rules on each transition's worst case,
    flags what the declarations alone predict, in the same order."""
    cfgs = [BlpConfig(*on) for on in itertools.product((True, False), repeat=3) if any(on)]
    flagged = 0
    for seed in range(3):
        for acyclic in (True, False):
            rng = random.Random(seed)
            for _ in range(300):
                net, _ = random_net(rng, acyclic=acyclic)
                for cfg in cfgs:
                    rep = static_blp_check(net, cfg)
                    got = [(v.transition, v.kind) for v in rep.violations]
                    assert got == _declared_blp_pairs(net, cfg), (net, cfg)
                    flagged += bool(got)
    assert flagged > 1000

    (static,) = static_blp_check(net3).violations
    (dynamic,) = dynamic_blp_check(net3, graph=explore(net3)).violations
    assert static.detail == dynamic.detail

    net = build_net(
        lat2,
        [Cloud("Cpriv", "Secret")],
        [Place("p", "Cpriv")],
        [
            TaskTransition(
                "t", cloud="Cpriv", clearance="Public", floor="Public",
                inputs=(ArcIn("p", "read", "*"),), outputs=(),
            )
        ],
        [marking_of({})],
    )
    (v,) = static_blp_check(net).violations
    assert v.detail == "input *@Secret at p above clearance Public"


# --------------------------------------------------------------------------
# invariants


def test_invariant_never_violated(net1):
    g = explore(net1)
    p = parse_predicate({"contains": ["p2", "d"]}, net1)
    rep = check_invariant(g, net1, p, mode="never")
    assert rep.verdict == "violated"
    (v,) = rep.violations
    assert v.kind == "invariant"
    assert v.witness == ("t_up",)
    assert v.transition is None


def test_invariant_always_holds(net1):
    g = explore(net1)
    p = parse_predicate({"count": ["p1", "<=", 1]}, net1)
    assert check_invariant(g, net1, p, mode="always").verdict == "holds"


def test_invariant_always_true(net3):
    g = explore(net3)
    p = parse_predicate(True, net3)
    assert check_invariant(g, net3, p).verdict == "holds"


def test_invariant_bad_mode(net1):
    g = explore(net1)
    p = parse_predicate(True, net1)
    with pytest.raises(FssmError):
        check_invariant(g, net1, p, mode="sometimes")


def test_invariant_counts_all_offenders(net1_leak):
    g = explore(net1_leak)
    p = parse_predicate({"contains": ["p1", "d"]}, net1_leak)
    rep = check_invariant(g, net1_leak, p, mode="always")
    # p1 is empty in exactly one state (after t_up, before t_leak)
    assert rep.verdict == "violated"
    assert rep.violations[0].count == 1


# --------------------------------------------------------------------------
# witness replay


def test_replay_fixture_witnesses(net3, net1_leak):
    for net in (net3, net1_leak):
        rep = dynamic_blp_check(net, graph=explore(net))
        for v in rep.violations:
            assert replay_witness(net, v)


def test_replay_invariant_witness(net1):
    g = explore(net1)
    p = parse_predicate({"contains": ["p2", "d"]}, net1)
    rep = check_invariant(g, net1, p, mode="never")
    for v in rep.violations:
        assert replay_witness(net1, v, p=p, mode="never")


def test_replay_rejects_tampered_witness(net3):
    rep = dynamic_blp_check(net3, graph=explore(net3))
    (v,) = rep.violations
    import dataclasses

    fake = dataclasses.replace(v, witness=("t_pub", "t_pub"))
    assert not replay_witness(net3, fake)


def test_replay_on_corpus():
    rng = random.Random(909)
    replayed = 0
    for _ in range(60):
        net, g = random_net(rng)
        rep = dynamic_blp_check(net, graph=g)
        for v in rep.violations:
            assert replay_witness(net, v), (net, v)
            replayed += 1
    assert replayed > 10


class _Unread(tuple):
    """A states tuple whose markings cannot be read, only counted."""

    def __getitem__(self, i):
        raise AssertionError("a marking was read")

    def __iter__(self):
        raise AssertionError("the markings were read")


def _fired_blp_report(net, g, cfg):
    """Oracle: fire every edge from its source marking on the reference semantics."""
    found = {}
    for e in g.edges:
        m = g.states[e.src]
        (b,) = [
            b
            for b in enabled_bindings(net, m)
            if (b.transition, b.digest) == (e.transition, e.binding)
        ]
        _, flow = fire(net, m, b)
        for kind, detail in _flow_violations(net, cfg, e.transition, flow):
            v = found.get((e.transition, kind))
            found[(e.transition, kind)] = (
                Violation(kind, e.transition, e.dst, g.path_to(e.src) + (e.transition,), detail)
                if v is None
                else dataclasses.replace(v, count=v.count + 1)
            )
    violations = tuple(found[k] for k in sorted(found))
    verdict = "violated" if violations else "holds_up_to_bound" if g.truncated else "holds"
    return PolicyReport(verdict, violations, g.stats, g.truncated)


def test_dynamic_blp_fires_once_per_binding(monkeypatch, net3, net1_leak):
    """BLP fires nothing and reads no marking: each edge's flow comes from the
    binding the graph names, and the report equals firing every edge."""
    import fssm.policy as policy
    from fssm.corpus import bench_counter_net

    def refuse(*args):
        raise AssertionError("BLP fired or enumerated bindings")

    monkeypatch.setattr(policy, "fire", refuse)
    monkeypatch.setattr(policy, "enabled_bindings", refuse)
    rng = random.Random(909)
    nets = [net3, net1_leak, bench_counter_net(counters=2, bound=5)]
    nets += [random_net(rng)[0] for _ in range(60)]
    cfgs = [BlpConfig(), BlpConfig(no_read_up=False), BlpConfig(containment=False)]
    violated = 0
    for net in nets:
        for limits in (None, ExploreLimits(max_states=3)):
            g = explore(net, limits)
            blind = dataclasses.replace(g, states=_Unread(g.states))
            for cfg in cfgs:
                rep = dynamic_blp_check(net, cfg, graph=blind)
                assert rep == _fired_blp_report(net, g, cfg), (net, limits, cfg)
                violated += rep.verdict == "violated"
    assert violated > 50


def _edgewise_blp_report(net, g, cfg):
    """Oracle: the BLP rules on every edge in turn, from its named binding."""
    found = {}
    for e in g.edges:
        flow = flow_of(net, g.bindings[(e.transition, e.binding)])
        for kind, detail in _flow_violations(net, cfg, e.transition, flow):
            v = found.get((e.transition, kind))
            found[(e.transition, kind)] = (
                Violation(kind, e.transition, e.dst, g.path_to(e.src) + (e.transition,), detail)
                if v is None
                else dataclasses.replace(v, count=v.count + 1)
            )
    violations = tuple(found[k] for k in sorted(found))
    verdict = "violated" if violations else "holds_up_to_bound" if g.truncated else "holds"
    return PolicyReport(verdict, violations, g.stats, g.truncated)


def test_dynamic_blp_runs_the_rules_once_per_label(monkeypatch):
    """The rules run once per distinct (transition, digest) label, and the
    violations, counts and witnesses equal the edge-by-edge evaluation."""
    import fssm.policy as policy

    calls = []

    def counting(net, cfg, t_id, flow):
        calls.append(t_id)
        return _flow_violations(net, cfg, t_id, flow)

    rng = random.Random(3131)
    cfgs = [BlpConfig(), BlpConfig(no_read_up=False), BlpConfig(containment=False)]
    repeated = counted = 0
    for _ in range(80):
        net, _ = random_net(rng, max_states=30)
        for limits in (None, ExploreLimits(max_states=5), ExploreLimits(max_depth=2)):
            g = explore(net, limits)
            labels = {(e.transition, e.binding) for e in g.edges}
            repeated += len(labels) < len(g.edges)
            for cfg in cfgs:
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(policy, "_flow_violations", counting)
                    rep = dynamic_blp_check(net, cfg, graph=g)
                assert len(calls) == len(labels), (net, limits)
                assert rep == _edgewise_blp_report(net, g, cfg), (net, limits, cfg)
                counted += any(v.count > 1 for v in rep.violations)
    assert repeated > 50 and counted > 50


def test_blp_detail_follows_reference_arrangement(lat2):
    """Arcs "*" and "a" on one place holding a and b: the reference binding
    gives b to the "*" arc, since a is the "a" arc's only candidate."""
    net = build_net(
        lat2,
        [Cloud("Cpriv", "Secret")],
        [Place("p", "Cpriv"), Place("q", "Cpriv")],
        [
            TaskTransition(
                "t", cloud="Cpriv", clearance="Public", floor="Public",
                inputs=(ArcIn("p", "take", "*"), ArcIn("p", "take", "a")),
                outputs=(ArcOut("q", "c"),),
            )
        ],
        [marking_of({"p": [("a", "Secret", 1), ("b", "Secret", 1)]})],
    )
    g = explore(net)
    (e,) = g.edges
    (ref,) = enabled_bindings(net, net.initials[0])
    assert g.bindings[(e.transition, e.binding)] == ref
    assert [str(tok) for _, tok in ref.choices] == ["b@Secret", "a@Secret"]
    (v,) = dynamic_blp_check(net, graph=g).violations
    assert (v.kind, v.detail) == ("read_up", "input b@Secret at p above clearance Public")
