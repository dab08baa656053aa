"""The explored graph keeps its compact states and its edge columns:
markings decode and edges are built only when read, predicates test the
compact form with the same answers as ``eval`` on the decoded marking, and
DOT renders markings from the compact form."""

import dataclasses
import random

import pytest

import fssm.statespace as statespace
from fssm import (
    ArcIn,
    ArcOut,
    ExploreLimits,
    Marking,
    TaskTransition,
    brute_force_opacity,
    build_net,
    check_current_state_opacity,
    check_invariant,
    check_run_opacity,
    check_snni,
    dynamic_blp_check,
    explore,
    fire,
    to_dot,
    with_transitions,
)
from fssm.corpus import (
    bench_counter_net,
    random_monitor,
    random_net,
    random_obs,
    random_state_secret,
)
from fssm.policy import (
    And,
    Const,
    Contains,
    CountCmp,
    ExistsTokenGeq,
    Not,
    Or,
    state_flags,
)
from fssm.statespace import CompactStates, EdgeColumns
from conftest import explored_graphs


def _fired_states(net, g):
    """Each state's marking rebuilt on the reference semantics: the initial
    marking, then every state fired from its parent along its discovery edge."""
    ms = [net.initials[g.initial_index]]
    for i in range(1, len(g.parent_edge)):
        e = g.edges[g.parent_edge[i]]
        m, _ = fire(net, ms[e.src], g.bindings[(e.transition, e.binding)])
        ms.append(m)
    return ms


@pytest.fixture
def decodes(monkeypatch):
    """Count calls of ``_CompiledNet.decode``."""
    calls = []
    orig = statespace._CompiledNet.decode

    def counting(self, compact):
        calls.append(1)
        return orig(self, compact)

    monkeypatch.setattr(statespace._CompiledNet, "decode", counting)
    return calls


@pytest.fixture
def edge_builds(monkeypatch):
    """Count the ``GraphEdge``s that ``EdgeColumns`` builds."""
    calls = []
    orig = EdgeColumns._edge

    def counting(self, src, k):
        calls.append(1)
        return orig(self, src, k)

    monkeypatch.setattr(EdgeColumns, "_edge", counting)
    return calls


def test_analyses_decode_no_state(decodes, edge_builds):
    """Every analysis, and DOT in both modes, reads the compact states and
    the edge columns: no marking is decoded and no edge is built."""
    rng = random.Random(1709)
    nets = [bench_counter_net(counters=2, bound=6)] + [random_net(rng)[0] for _ in range(12)]
    witnesses = 0
    for net in nets:
        g = explore(net)
        obs = random_obs(rng, net)
        witnesses += len(dynamic_blp_check(net, graph=g).violations)
        for level in net.lattice.levels:
            check_snni(net, level)
        check_run_opacity(g, net, obs, random_monitor(rng, net))
        secret = random_state_secret(rng, net)
        witnesses += len(check_invariant(g, net, secret).violations)
        check_current_state_opacity(g, net, obs, secret)
        to_dot(g)
        to_dot(g, show_markings=True)
        assert decodes == [] and edge_builds == [], net
    assert witnesses > 5  # path_to ran too
    g.states[-1]
    g.edges[-1]
    assert len(decodes) == len(edge_builds) == 1


def _dot_by_decoding(g):
    """Oracle: ``to_dot(g, show_markings=True)`` from decoded markings and
    built edges."""
    def esc(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph reachability {", "  rankdir=LR;"]
    for i, m in enumerate(g.states):
        lines.append(f'  s{i} [label="s{i}\\n{esc(m.canonical_key())}"];')
    for e in g.edges:
        lines.append(f'  s{e.src} -> s{e.dst} [label="{esc(e.transition)}"];')
    return "\n".join(lines + ["}"]) + "\n"


def _renamed_places(net, names):
    """``net`` with place ``p{i}`` renamed ``names[i]``."""
    def ren(pid):
        return names[int(pid[1:])]

    return build_net(
        net.lattice,
        net.clouds,
        [dataclasses.replace(p, id=ren(p.id)) for p in net.places],
        [
            dataclasses.replace(
                t,
                inputs=tuple(dataclasses.replace(a, place=ren(a.place)) for a in t.inputs),
                outputs=tuple(dataclasses.replace(a, place=ren(a.place)) for a in t.outputs),
            )
            for t in net.transitions
        ],
        [Marking({ren(pid): m.tokens_at(pid) for pid, _ in m.entries}) for m in net.initials],
    )


def test_dot_markings_match_decoded_markings():
    """Markings rendered from compact states equal the decoded markings'
    canonical keys, also where a place holds several classes and levels and
    where sorting the place ids reorders the places ("A1" < "b" < "p10" <
    "p2")."""
    rng = random.Random(2610)
    names = ["p10", "p2", "b", "q", "A1", "p1"]
    mixed = 0
    for _ in range(80):
        net, _ = random_net(rng, max_states=40)
        net = _renamed_places(net, rng.sample(names, len(names)))
        for limits in (None, ExploreLimits(max_states=7)):
            g = explore(net, limits)
            assert to_dot(g, show_markings=True) == _dot_by_decoding(g), net
            mixed += any(len(content) > 1 for c in g.states.compact for content in c)
    net = bench_counter_net(counters=2, bound=6)
    g = explore(net)
    assert to_dot(g, show_markings=True) == _dot_by_decoding(g)
    assert mixed > 20


def test_tokens_are_built_on_first_use(net3):
    comp = statespace._CompiledNet(net3)
    assert len(comp.tok_class) == 2 and not comp.tokens
    m = net3.initials[0]
    assert comp.decode(comp.encode(m)) == m
    assert list(comp.tokens.values()) == [tok for tok, _ in m.tokens_at("p1")]


def _atoms(net, levels, absent_class):
    classes = sorted({a.klass for t in net.transitions for a in t.outputs}
                     | {k for m in net.initials for _, packed in m.entries for k, _, _ in packed})
    for p in net.places:
        yield Contains(p.id)
        for k in classes + [absent_class]:
            yield Contains(p.id, k)
        for op in ("<", "<=", "=", ">=", ">"):
            for n in range(3):
                yield CountCmp(p.id, op, n)
    for c in net.clouds:
        for lv in levels:
            yield ExistsTokenGeq(c.id, lv)
    yield Const(True)
    yield Const(False)


def test_compiled_predicates_match_eval():
    rng = random.Random(4242)
    checked = 0
    for net, _, g in explored_graphs(rng, 40):
        markings = list(g.states)
        atoms = list(_atoms(net, net.lattice.levels, "zz_absent"))
        nested = [Not(a) for a in atoms]
        for _ in range(30):
            a, b, c = rng.sample(atoms, 3)
            nested.append(And((a, Or((Not(b), c)))))
            nested.append(Or((Not(And((a, b))), Const(False), c)))
            nested.append(Not(Or((a, And((b, Const(True)))))))
        for p in atoms + nested:
            p.validate(net)
            assert state_flags(g, net, p) == [p.eval(net, m) for m in markings], p
            checked += 1
    assert checked > 10_000


def test_lazy_states_keep_the_sequence_contract(net3):
    rng = random.Random(77)
    for net, limits, g in [(net3, None, explore(net3))] + explored_graphs(rng, 30):
        assert isinstance(g.states, CompactStates)
        ms = _fired_states(net, g)
        n = len(ms)
        assert len(g.states) == n
        assert all(g.states[i] == ms[i] for i in range(n))
        assert g.states[-1] == ms[-1] and g.states[-n] == ms[0]
        assert g.states[1:3] == tuple(ms[1:3]) and g.states[::-1] == tuple(reversed(ms))
        assert list(g.states) == ms
        assert g.states == tuple(ms) and tuple(ms) == g.states
        assert g.states != tuple(ms[:-1]) and g.states != ms
        with pytest.raises(IndexError):
            g.states[n]
        again = explore(net, limits)
        assert again.states == g.states and again == g


def test_equal_states_under_different_encodings(net3):
    """A dead transition adds a token class, so the compact numbering
    differs while the reachable markings do not."""
    dead = TaskTransition(
        "t_dead", cloud="Cpriv", clearance="Secret", floor="Secret",
        inputs=(ArcIn("p2", "take", "nothing"),), outputs=(ArcOut("p2", "a_extra"),),
    )
    a = explore(net3).states
    b = explore(with_transitions(net3, [dead])).states
    assert a.compiled.classes != b.compiled.classes
    assert a == b and a.compact != b.compact


def test_plain_marking_graphs_still_work():
    """A graph built from a tuple of markings is evaluated marking by
    marking, with the verdicts of its compact twin."""
    rng = random.Random(3301)
    checked = 0
    for _ in range(40):
        net, g = random_net(rng, acyclic=True)
        plain = dataclasses.replace(g, states=tuple(g.states))
        assert not isinstance(plain.states, CompactStates) and plain == g
        obs = random_obs(rng, net)
        secret = random_state_secret(rng, net)
        depth = len(g.states) + 1
        for mode in ("always", "never"):
            assert check_invariant(plain, net, secret, mode) == check_invariant(g, net, secret, mode)
        assert check_current_state_opacity(plain, net, obs, secret) == (
            check_current_state_opacity(g, net, obs, secret)
        )
        assert brute_force_opacity(plain, net, obs, secret, depth) == (
            brute_force_opacity(g, net, obs, secret, depth)
        )
        checked += 1
    assert checked == 40
