"""Net assembly, marking canonical form, and structural validation."""

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    CapacityExceeded,
    Cloud,
    DanglingReference,
    DataToken,
    DuplicateId,
    EmptyTransition,
    FssmError,
    InitialContainmentViolation,
    Marking,
    Place,
    TaskTransition,
    UnknownLevel,
    build_net,
    marking_of,
    with_transitions,
    without_transitions,
)
from conftest import T_PUB, T_SIG, make_net


def test_marking_merges_duplicate_entries():
    m = Marking({"p": [(DataToken("d", "Public"), 1), (DataToken("d", "Public"), 2)]})
    assert m.tokens_at("p") == ((DataToken("d", "Public"), 3),)
    assert m.count("p") == 3


def test_marking_drops_empty_places():
    m = Marking({"p": [(DataToken("d", "Public"), 0)], "q": []})
    assert m == Marking({})
    assert m.canonical_key() == "∅"


def test_marking_canonical_key_sorted():
    m = marking_of({"b": [("y", "Secret", 1)], "a": [("x", "Public", 2)]})
    assert m.canonical_key() == "a:x@Public*2;b:y@Secret*1"


def test_marking_negative_count_rejected():
    with pytest.raises(ValueError):
        Marking({"p": [(DataToken("d", "Public"), -1)]})


def test_marking_equality_and_hash():
    a = marking_of({"p": [("d", "Public", 2)]})
    b = Marking({"p": [(DataToken("d", "Public"), 1), (DataToken("d", "Public"), 1)]})
    assert a == b
    assert hash(a) == hash(b)
    assert a != marking_of({"p": [("d", "Public", 3)]})


def test_contains_filters_class():
    m = marking_of({"p": [("d", "Public", 1)]})
    assert m.contains("p")
    assert m.contains("p", "d")
    assert not m.contains("p", "e")
    assert not m.contains("q")


def test_build_net_sorts_entities(lat2):
    net = make_net(lat2, [T_SIG, T_PUB])
    assert [t.id for t in net.transitions] == ["t_pub", "t_sig", "t_up"]
    assert [c.id for c in net.clouds] == ["Cpriv", "Cpub"]
    assert [p.id for p in net.places] == ["p1", "p2"]


def test_build_net_sorts_arcs(lat2):
    t = TaskTransition(
        id="t",
        cloud="Cpub",
        clearance="Public",
        floor="Public",
        inputs=(ArcIn("p1", "take", "d"), ArcIn("p1", "read", "d")),
        outputs=(ArcOut("p2", "z"), ArcOut("p1", "a")),
    )
    net = make_net(lat2, [t])
    built = net.transition_by_id["t"]
    assert [a.mode for a in built.inputs] == ["read", "take"]
    assert [(a.place, a.klass) for a in built.outputs] == [("p1", "a"), ("p2", "z")]


def test_duplicate_ids_rejected(lat2):
    clouds = [Cloud("C", "Public"), Cloud("C", "Secret")]
    with pytest.raises(DuplicateId):
        build_net(lat2, clouds, [], [], [Marking({})])


def test_dangling_place_cloud(lat2):
    with pytest.raises(DanglingReference):
        build_net(lat2, [], [Place("p", "nowhere")], [], [Marking({})])


def test_dangling_arc_targets(lat2):
    t = TaskTransition(
        id="t",
        cloud="Cpub",
        clearance="Public",
        floor="Public",
        inputs=(ArcIn("ghost", "take", "*"),),
        outputs=(),
    )
    with pytest.raises(DanglingReference):
        make_net(lat2, [t])


def test_empty_transition_rejected(lat2):
    t = TaskTransition(
        id="t", cloud="Cpub", clearance="Public", floor="Public", inputs=(), outputs=()
    )
    with pytest.raises(EmptyTransition):
        make_net(lat2, [t])


def test_unknown_clearance_level(lat2):
    with pytest.raises(UnknownLevel):
        build_net(lat2, [Cloud("C", "TopSecret")], [], [], [Marking({})])


def test_bad_arc_mode(lat2):
    t = TaskTransition(
        id="t",
        cloud="Cpub",
        clearance="Public",
        floor="Public",
        inputs=(ArcIn("p1", "peek", "d"),),
        outputs=(),
    )
    with pytest.raises(FssmError):
        make_net(lat2, [t])


def test_initial_containment_enforced(lat2):
    clouds = [Cloud("Cpub", "Public")]
    places = [Place("p1", "Cpub")]
    bad = marking_of({"p1": [("d", "Secret", 1)]})
    with pytest.raises(InitialContainmentViolation):
        build_net(lat2, clouds, places, [], [bad])


def test_initial_capacity_enforced(lat2):
    clouds = [Cloud("Cpub", "Public")]
    places = [Place("p1", "Cpub", capacity=1)]
    toomany = marking_of({"p1": [("d", "Public", 2)]})
    with pytest.raises(CapacityExceeded):
        build_net(lat2, clouds, places, [], [toomany])


def test_capacity_must_be_positive(lat2):
    with pytest.raises(FssmError):
        build_net(lat2, [Cloud("C", "Public")], [Place("p", "C", capacity=0)], [], [Marking({})])


def test_at_least_one_initial_marking(lat2):
    with pytest.raises(FssmError) as exc:
        build_net(lat2, [], [], [], [])
    assert str(exc.value) == "/initial_markings: at least one initial marking is required"


def test_without_transitions(net3):
    smaller = without_transitions(net3, ["t_sig"])
    assert sorted(smaller.transition_by_id) == ["t_pub", "t_up"]
    with pytest.raises(DanglingReference):
        without_transitions(net3, ["nope"])


def test_with_transitions(net1):
    bigger = with_transitions(net1, [T_PUB])
    assert sorted(bigger.transition_by_id) == ["t_pub", "t_up"]
    with pytest.raises(DuplicateId):
        with_transitions(net1, [net1.transitions[0]])


def test_place_clearance_helper(net1):
    assert net1.place_clearance("p1") == "Public"
    assert net1.place_clearance("p2") == "Secret"


# -- canonical form properties ------------------------------------------------

from hypothesis import given, strategies as st

_TOKEN = st.tuples(
    st.sampled_from(["d", "e", "f"]),
    st.sampled_from(["Public", "Secret"]),
    st.integers(min_value=1, max_value=5),
)
_CONTENTS = st.dictionaries(
    st.sampled_from(["p1", "p2", "p3"]),
    st.lists(_TOKEN, max_size=4),
    max_size=3,
)


@given(_CONTENTS, st.randoms(use_true_random=False))
def test_marking_canonical_under_presentation(contents, rnd):
    """Splitting counts and shuffling entry order never changes the marking."""
    base = marking_of(contents)
    alt = {}
    for pid, toks in contents.items():
        split = []
        for klass, level, count in toks:
            while count > 1 and rnd.random() < 0.5:
                cut = rnd.randint(1, count - 1)
                split.append((klass, level, cut))
                count -= cut
            split.append((klass, level, count))
        rnd.shuffle(split)
        alt[pid] = split
    other = marking_of(alt)
    assert other == base
    assert hash(other) == hash(base)
    assert other.canonical_key() == base.canonical_key()


@given(_CONTENTS, _CONTENTS)
def test_canonical_key_separates_markings(left, right):
    ml, mr = marking_of(left), marking_of(right)
    assert (ml == mr) == (ml.canonical_key() == mr.canonical_key())
