"""Model files: strict schemas, document-path errors, canonical output."""

import copy
import json
import random
from fractions import Fraction

import pytest

from conftest import GOLDEN, fixture_path
from fssm import (
    ArcIn,
    ArcOut,
    CapacityExceeded,
    Cloud,
    DanglingReference,
    DuplicateId,
    EmptyTransition,
    FssmError,
    InitialContainmentViolation,
    ModelSyntaxError,
    Place,
    RunMonitor,
    SchemaError,
    TaskTransition,
    UnknownLevel,
    UnresolvedReference,
    build_lattice,
    build_net,
    marking_of,
    parse_model,
    serialize_model,
)
from fssm.modelfile import parse_fraction, render_fraction

FIXTURE_NAMES = ["minimal", "net1", "net2", "net3", "net1_leak", "wf1"]


def load(name: str) -> str:
    with open(fixture_path(name)) as fh:
        return fh.read()


def doc_of(name: str) -> dict:
    return json.loads(load(name))


def reparse(doc: dict):
    return parse_model(json.dumps(doc))


def set_in(doc, *path_and_value):
    *path, value = path_and_value
    obj = doc
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = value


# --------------------------------------------------------------------------
# parsing


def test_minimal_document():
    b = parse_model(load("minimal"))
    assert [p.id for p in b.net.places] == ["p1"]
    assert b.net.transitions == ()
    assert b.obs_maps == () and b.secrets == () and b.observers == ()
    assert b.workflow is None and b.cost is None and b.cloud_specs == ()


def test_missing_lattice():
    with pytest.raises(SchemaError) as exc:
        parse_model("{}")
    assert exc.value.path == "/lattice"
    assert str(exc.value).startswith("/lattice:")


def test_top_level_must_be_object():
    with pytest.raises(SchemaError) as exc:
        parse_model("[1, 2]")
    assert exc.value.path == "/"


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model('{\n  "lattice": }')
    assert exc.value.line == 2
    assert isinstance(exc.value.column, int)
    assert str(exc.value).startswith("line 2, column")


def test_semantic_error_is_annotated_with_path():
    doc = doc_of("net1")
    doc["places"][0]["cloud"] = "nowhere"
    with pytest.raises(DanglingReference) as exc:
        reparse(doc)
    assert exc.value.path == "/places/0/cloud"
    assert str(exc.value) == "/places/0/cloud: place 'p1' references unknown cloud 'nowhere'"


def _net_args(doc: dict):
    """``build_net``'s arguments for a model document, read field by field."""
    lat = build_lattice(doc["lattice"]["levels"], [tuple(c) for c in doc["lattice"]["covers"]])
    transitions = [
        TaskTransition(
            id=t["id"],
            cloud=t["cloud"],
            clearance=t["clearance"],
            floor=t.get("floor", lat.bottom),
            inputs=tuple(ArcIn(a["place"], a["mode"], a.get("class", "*")) for a in t["inputs"]),
            outputs=tuple(ArcOut(a["place"], a["class"]) for a in t["outputs"]),
        )
        for t in doc["transitions"]
    ]
    initials = [
        marking_of({
            pid: [(tok["class"], tok["level"], tok["count"]) for tok in tokens]
            for pid, tokens in m.items()
        })
        for m in doc["initial_markings"]
    ]
    return (
        lat,
        [Cloud(**c) for c in doc["clouds"]],
        [Place(**p) for p in doc["places"]],
        transitions,
        initials,
    )


def _net_faults():
    def f(mutate, error, path, message):
        ident = error.__name__ + path.replace("/", "-")
        return pytest.param(mutate, error, path, message, id=ident)

    token = {"class": "d", "level": "Public", "count": 1}
    t_up = "transition 't_up'"
    return [
        f(lambda d: set_in(d, "clouds", 1, "id", "Cpub"),
          DuplicateId, "/clouds/1/id", "duplicate cloud id 'Cpub'"),
        f(lambda d: set_in(d, "places", 1, "id", "p1"),
          DuplicateId, "/places/1/id", "duplicate place id 'p1'"),
        f(lambda d: d["transitions"].append(copy.deepcopy(d["transitions"][0])),
          DuplicateId, "/transitions/1/id", "duplicate transition id 't_up'"),
        f(lambda d: set_in(d, "places", 0, "id", "p 1"),
          FssmError, "/places/0/id", "invalid place id 'p 1'"),
        f(lambda d: set_in(d, "clouds", 0, "clearance", "Zed"),
          UnknownLevel, "/clouds/0/clearance", "unknown security level 'Zed'"),
        f(lambda d: set_in(d, "places", 1, "capacity", 0),
          FssmError, "/places/1/capacity", "place 'p2' capacity must be positive"),
        f(lambda d: set_in(d, "transitions", 0, "cloud", "nowhere"),
          DanglingReference, "/transitions/0/cloud",
          f"{t_up} references unknown cloud 'nowhere'"),
        f(lambda d: set_in(d, "transitions", 0, "clearance", "Zed"),
          UnknownLevel, "/transitions/0/clearance", "unknown security level 'Zed'"),
        f(lambda d: set_in(d, "transitions", 0, "floor", "Zed"),
          UnknownLevel, "/transitions/0/floor", "unknown security level 'Zed'"),
        f(lambda d: d["transitions"][0].update(inputs=[], outputs=[]),
          EmptyTransition, "/transitions/0", f"{t_up} has no arcs"),
        f(lambda d: set_in(d, "transitions", 0, "inputs", 0, "place", "zz"),
          DanglingReference, "/transitions/0/inputs/0/place",
          f"{t_up} input references unknown place 'zz'"),
        f(lambda d: set_in(d, "transitions", 0, "inputs", 0, "mode", "peek"),
          FssmError, "/transitions/0/inputs/0/mode", f"{t_up}: bad arc mode 'peek'"),
        f(lambda d: set_in(d, "transitions", 0, "inputs", 0, "class", "a-b"),
          FssmError, "/transitions/0/inputs/0/class", f"{t_up}: bad class pattern 'a-b'"),
        f(lambda d: set_in(d, "transitions", 0, "outputs", 0, "place", "zz"),
          DanglingReference, "/transitions/0/outputs/0/place",
          f"{t_up} output references unknown place 'zz'"),
        f(lambda d: set_in(d, "transitions", 0, "outputs", 0, "class", "a-b"),
          FssmError, "/transitions/0/outputs/0/class", f"{t_up}: bad output class 'a-b'"),
        f(lambda d: set_in(d, "initial_markings", 0, {"zz": [token]}),
          DanglingReference, "/initial_markings/0/zz", "marking references unknown place 'zz'"),
        f(lambda d: set_in(d, "initial_markings", 0, "p1", 0, "class", "a-b"),
          FssmError, "/initial_markings/0/p1", "bad token class 'a-b' in place 'p1'"),
        f(lambda d: set_in(d, "initial_markings", 0, "p1", 0, "level", "Secret"),
          InitialContainmentViolation, "/initial_markings/0/p1",
          "token d@Secret in place 'p1' exceeds cloud 'Cpub' clearance 'Public'"),
        f(lambda d: (set_in(d, "places", 0, "capacity", 1),
                     set_in(d, "initial_markings", 0, "p1", 0, "count", 2)),
          CapacityExceeded, "/initial_markings/0/p1",
          "initial marking puts 2 tokens in place 'p1' (capacity 1)"),
    ]


@pytest.mark.parametrize("mutate,error,path,message", _net_faults())
def test_net_fault_names_its_element(mutate, error, path, message):
    doc = copy.deepcopy(doc_of("net1"))
    mutate(doc)
    for build in (lambda: reparse(doc), lambda: build_net(*_net_args(doc))):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


def test_schema_fault_is_reported_before_a_semantic_one():
    doc = doc_of("net1")
    doc["clouds"][0]["clearance"] = "Zed"
    doc["transitions"][0]["inputs"][0]["mode"] = 7
    with pytest.raises(SchemaError) as exc:
        reparse(doc)
    assert exc.value.path == "/transitions/0/inputs/0/mode"


def test_top_level_keys_are_checked_before_any_section_is_read():
    doc = doc_of("net1")
    doc["lattice"]["levels"] = ["Public", "Public"]
    doc["clouds"] = {}
    with pytest.raises(SchemaError) as exc:
        reparse(doc)
    assert exc.value.path == "/clouds"


# Parser fuzz: seeded single mutations of the fixtures.  Injected keys hold
# no "/" or "~", so every document path stays a plain key sequence.
_FUZZ_VALUES = [None, True, 0, -1, 2, 1.5, "", "x", "*", [], ["x"], {}, {"x": 1}]
_FUZZ_KEYS = ["id", "class", "level", "count", "floor", "x", "state", "costs", "workflow"]


def _slots(obj, out: list) -> list:
    """Append every (container, key) under ``obj`` to ``out``, parents first."""
    for key in list(obj) if isinstance(obj, dict) else range(len(obj)):
        out.append((obj, key))
        if isinstance(obj[key], (dict, list)):
            _slots(obj[key], out)
    return out


def _mutate(doc: dict, rng) -> None:
    """Replace, delete, duplicate or inject one value of ``doc`` in place."""
    slots = _slots(doc, [])
    kind = rng.choice(("replace", "delete", "duplicate", "inject"))
    if kind == "inject":
        objs = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        rng.choice(objs)[rng.choice(_FUZZ_KEYS)] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
        return
    obj, key = rng.choice([(c, k) for c, k in slots if kind != "duplicate" or isinstance(c, list)])
    if kind == "replace":
        # the document's own values make dangling and duplicate references
        leaves = [c[k] for c, k in slots if not isinstance(c[k], (dict, list))]
        obj[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES + leaves))
    elif kind == "delete":
        del obj[key]
    else:
        obj.insert(key, copy.deepcopy(obj[key]))


def _resolves(doc, path: str) -> bool:
    obj = doc
    for key in filter(None, path.split("/")):
        if isinstance(obj, list) and key.isdigit() and int(key) < len(obj):
            obj = obj[int(key)]
        elif isinstance(obj, dict) and key in obj:
            obj = obj[key]
        else:
            return False
    return True


def test_mutated_fixtures_fail_only_with_a_path_into_the_document():
    rng = random.Random(20261020)
    docs = [doc_of(name) for name in FIXTURE_NAMES]
    accepted = 0
    for _ in range(2000):
        doc = copy.deepcopy(rng.choice(docs))
        _mutate(doc, rng)
        try:
            parse_model(json.dumps(doc))
            accepted += 1
        except FssmError as e:
            where = e.path
            if str(e).endswith(": missing required key"):
                where = where.rpartition("/")[0]
            assert where is not None and _resolves(doc, where), (str(e), doc)
    assert 0 < accepted < 2000


@pytest.mark.parametrize(
    "state,message",
    [
        ({"contains": ["p1", 5]}, "contains expects [place] or [place, class]"),
        ({"contains": [5]}, "contains expects [place] or [place, class]"),
        ({"exists_token_geq": ["Cpub", 1]}, "exists_token_geq expects [cloud, level]"),
        ({"count": [1, ">=", 1]}, "count expects [place, op, n]"),
        ({"count": ["p1", ">=", True]}, "count bound must be a non-negative integer, got True"),
    ],
    ids=["contains-class", "contains-place", "exists-level", "count-place", "count-bool"],
)
def test_state_secret_operands_are_typed(state, message):
    doc = doc_of("net1")
    doc["secrets"] = {"bad": {"state": state}}
    with pytest.raises(UnresolvedReference) as exc:
        reparse(doc)
    assert str(exc.value) == f"/secrets/bad/state: {message}"


def test_observer_unknown_level():
    doc = doc_of("net2")
    doc["observers"]["low"] = "Ultra"
    with pytest.raises(UnknownLevel) as exc:
        reparse(doc)
    assert exc.value.path == "/observers/low"


@pytest.mark.parametrize(
    "path",
    [
        "/clouds/0/clearance",
        "/transitions/0/clearance",
        "/transitions/0/floor",
        "/initial_markings/0/p1/0/level",
    ],
)
def test_unknown_level_error_names_its_field(path):
    doc = doc_of("net1")
    *parents, field = [int(k) if k.isdigit() else k for k in path[1:].split("/")]
    obj = doc
    for k in parents:
        obj = obj[k]
    obj[field] = "Zed"
    with pytest.raises(UnknownLevel) as exc:
        reparse(doc)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: unknown security level 'Zed'"


def test_initial_marking_names_unknown_place_with_no_tokens():
    doc = doc_of("net1")
    doc["initial_markings"] = [{"zz": []}]
    with pytest.raises(DanglingReference) as exc:
        reparse(doc)
    assert exc.value.path == "/initial_markings/0/zz"
    assert str(exc.value) == "/initial_markings/0/zz: marking references unknown place 'zz'"


def test_nonpositive_capacity_names_its_field():
    doc = doc_of("net1")
    doc["places"][1]["capacity"] = 0
    with pytest.raises(FssmError) as exc:
        reparse(doc)
    assert str(exc.value) == "/places/1/capacity: place 'p2' capacity must be positive"


def test_overfull_initial_marking_names_its_place():
    doc = doc_of("net1")
    doc["places"][0]["capacity"] = 1
    doc["initial_markings"].append({"p1": [{"class": "d", "level": "Public", "count": 2}]})
    with pytest.raises(CapacityExceeded) as exc:
        reparse(doc)
    assert str(exc.value) == (
        "/initial_markings/1/p1: initial marking puts 2 tokens in place 'p1' (capacity 1)"
    )


def test_obs_map_must_cover_net():
    doc = doc_of("net2")
    doc["observations"]["partial"] = {"t_up": "u"}
    with pytest.raises(FssmError) as exc:
        reparse(doc)
    assert exc.value.path == "/observations/partial"


def _mutations():
    def m(name, fn, path):
        return pytest.param(name, fn, path, id=path.strip("/").replace("/", "-"))

    return [
        m("net1", lambda d: set_in(d, "extra", 1), "/extra"),
        m("net1", lambda d: set_in(d, "lattice", "covers", [["Public"]]),
          "/lattice/covers/0"),
        m("net1", lambda d: set_in(d, "lattice", "covers", [["Public", 3]]),
          "/lattice/covers/0"),
        m("net1", lambda d: set_in(d, "lattice", "levels", ["Public", 2]),
          "/lattice/levels"),
        m("net1", lambda d: set_in(d, "clouds", 0, "region", "eu"),
          "/clouds/0/region"),
        m("net1", lambda d: set_in(d, "places", 0, "capacity", True),
          "/places/0/capacity"),
        m("net1", lambda d: set_in(d, "transitions", 0, "inputs", 0, "mode", 7),
          "/transitions/0/inputs/0/mode"),
        m("net1", lambda d: set_in(d, "transitions", 0, "outputs", 0, "klass", "d"),
          "/transitions/0/outputs/0/klass"),
        m("net1", lambda d: set_in(d, "initial_markings", 0, "p1", 0, "count", 0),
          "/initial_markings/0/p1/0/count"),
        m("net1", lambda d: set_in(d, "initial_markings", 0, "p1", 0, "count", True),
          "/initial_markings/0/p1/0/count"),
        m("net1", lambda d: set_in(d, "initial_markings", 0, "p1", "zzz"),
          "/initial_markings/0/p1"),
        m("net1", lambda d: set_in(d, "initial_markings", []), "/initial_markings"),
        m("net1", lambda d: set_in(d, "observations", "u_map", "t_up", 4),
          "/observations/u_map/t_up"),
        m("net1", lambda d: set_in(d, "observations", "u_map", "default", "by_rank:Public"),
          "/observations/u_map/default"),
        m("net1", lambda d: set_in(d, "secrets", "both", {"state": {"const": True}, "monitor": {}}),
          "/secrets/both"),
        m("net1", lambda d: set_in(d, "secrets", "mon_up", "monitor", "edges",
                                        [["q0", "t_up"]]),
          "/secrets/mon_up/monitor/edges/0"),
        m("net1", lambda d: set_in(d, "secrets", "mon_up", "monitor", "speed", 3),
          "/secrets/mon_up/monitor/speed"),
        m("net1", lambda d: set_in(d, "observers", {"low": 5}), "/observers/low"),
        m("net1", lambda d: set_in(d, "costs", {"transfer": 1}), "/costs"),
        m("wf1", lambda d: set_in(d, "costs", "exec", "Mars", 1),
          "/costs/exec/Mars"),
        m("wf1", lambda d: set_in(d, "costs", "exec", "Cpub", {"zz": 1}),
          "/costs/exec/Cpub/zz"),
        m("wf1", lambda d: set_in(d, "costs", "transfer", "x/y"),
          "/costs/transfer"),
        m("wf1", lambda d: set_in(d, "workflow", "tasks", 0, "deadline", 9),
          "/workflow/tasks/0/deadline"),
        m("wf1", lambda d: set_in(d, "workflow", "tasks", 0, "touches", 0, ["d"]),
          "/workflow/tasks/0/touches/0"),
        m("wf1", lambda d: set_in(d, "workflow", "edges", 0, ["t1", "t2"]),
          "/workflow/edges/0"),
    ]


@pytest.mark.parametrize("name,mutate,path", _mutations())
def test_schema_error_paths(name, mutate, path):
    doc = copy.deepcopy(doc_of(name))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        reparse(doc)
    assert exc.value.path == path


def test_workflow_cycle_path():
    doc = doc_of("wf1")
    doc["workflow"]["edges"].append(["t2", "t1", "d", "Public"])
    doc["workflow"]["tasks"][0]["touches"].append(["d", "Public"])
    with pytest.raises(FssmError) as exc:
        reparse(doc)
    assert exc.value.path == "/workflow"


# --------------------------------------------------------------------------
# fractions


def test_parse_fraction_forms():
    assert parse_fraction(2, "/x") == Fraction(2)
    assert parse_fraction(0.5, "/x") == Fraction(1, 2)
    assert parse_fraction("3/4", "/x") == Fraction(3, 4)
    assert parse_fraction("2", "/x") == Fraction(2)
    for bad in (True, "x", None, "1/0", [1]):
        with pytest.raises(SchemaError):
            parse_fraction(bad, "/x")


def test_render_fraction():
    assert render_fraction(Fraction(4, 2)) == 2
    assert render_fraction(Fraction(1, 3)) == "1/3"


# --------------------------------------------------------------------------
# derived observation maps


def test_by_clearance_expansion():
    doc = doc_of("net3")
    doc["observations"]["auto"] = {"default": "by_clearance:Public"}
    doc["observations"]["mixed"] = {
        "default": "by_clearance:Public",
        "t_pub": "x",
        "t_up": "u",
    }
    b = reparse(doc)
    auto = b.obs_map("auto")
    assert auto.symbol_of("t_up") is None
    assert auto.symbol_of("t_pub") == "t_pub"
    assert auto.symbol_of("t_sig") == "t_sig"
    mixed = b.obs_map("mixed")
    assert mixed.symbol_of("t_up") == "u"
    assert mixed.symbol_of("t_pub") == "x"
    assert mixed.symbol_of("t_sig") == "t_sig"


def test_bundle_lookups(net2):
    b = parse_model(load("net2"))
    assert b.observer_level("low") == "Public"
    assert b.observer_level("Secret") == "Secret"
    with pytest.raises(UnknownLevel):
        b.observer_level("boss")
    with pytest.raises(FssmError):
        b.obs_map("nope")
    with pytest.raises(FssmError):
        b.secret("nope")


def test_secret_kinds():
    b = parse_model(load("net1"))
    assert isinstance(b.secret("mon_up"), RunMonitor)
    assert not isinstance(b.secret("sec_p2"), RunMonitor)


def test_costs_shapes():
    doc = doc_of("wf1")
    doc["costs"] = {"exec": {"Cpub": {"t1": 5}}, "transfer": "1/2"}
    b = reparse(doc)
    specs = {s.id: s for s in b.cloud_specs}
    assert set(specs) == {"Cpub", "Cpriv"}  # specs cover every net cloud
    assert specs["Cpub"].exec_for("t1") == 5
    assert specs["Cpub"].exec_for("t2") == 0
    assert specs["Cpriv"].exec_for("t1") == 0
    assert b.cost.transfer_cost == Fraction(1, 2)
    doc["costs"] = {}
    b2 = reparse(doc)
    assert b2.cost.transfer_cost == 0


def test_initial_markings_default_to_empty():
    doc = doc_of("minimal")
    del doc["initial_markings"]
    b = reparse(doc)
    assert len(b.net.initials) == 1
    assert b.net.initials[0].entries == ()


# --------------------------------------------------------------------------
# canonical serialization


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_parse_fixpoint(name):
    b1 = parse_model(load(name))
    s1 = serialize_model(b1)
    b2 = parse_model(s1)
    assert b2 == b1
    assert serialize_model(b2) == s1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_canonical_form_is_sorted_json(name):
    s = serialize_model(parse_model(load(name)))
    assert s == json.dumps(json.loads(s), indent=2, sort_keys=True) + "\n"


def test_golden_canonical_net1():
    s = serialize_model(parse_model(load("net1")))
    assert s == (GOLDEN / "net1.canonical.json").read_text()


def test_serialize_reduces_covers_to_hasse():
    doc = {
        "lattice": {
            "levels": ["a", "b", "c"],
            "covers": [["a", "b"], ["b", "c"], ["a", "c"]],
        },
        "clouds": [{"id": "C", "clearance": "c"}],
        "places": [{"id": "p", "cloud": "C"}],
    }
    out = json.loads(serialize_model(reparse(doc)))
    assert out["lattice"]["covers"] == [["a", "b"], ["b", "c"]]


def test_serialize_expands_derived_obs():
    doc = doc_of("net3")
    doc["observations"] = {"auto": {"default": "by_clearance:Public"}}
    out = json.loads(serialize_model(reparse(doc)))
    assert out["observations"]["auto"] == {
        "t_pub": "t_pub",
        "t_sig": "t_sig",
        "t_up": None,
    }


from hypothesis import given, strategies as st


@given(st.fractions(min_value=0, max_denominator=10**6))
def test_fraction_render_parse_round_trip(f):
    assert parse_fraction(render_fraction(f), "/x") == f
