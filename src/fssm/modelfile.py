"""JSON model files: parsing, validation with document paths, canonical
serialization.

Parsing is strict: one walker checks each object's keys against its spec
(no unknown key, each key present with its type) before any of its values
is read; the builders check the rest.  ``build_net`` names the net element
at fault by its document path; other builders' errors get their section's.
Serialization is canonical and byte-deterministic: sorted keys, entities
in canonical order, covers reduced to the Hasse relation, fractions as
integers or "a/b" strings.  parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .allocation import CloudSpec, CostModel, Workflow, build_workflow
from .errors import DanglingReference, FssmError, ModelSyntaxError, SchemaError
from .lattice import SecurityLattice, build_lattice
from .model import (
    ArcIn,
    ArcOut,
    Cloud,
    FssmNet,
    Marking,
    Place,
    TaskTransition,
    WILDCARD,
    build_net,
    marking_of,
)
from .noninterference import ObsMap, derive_obs, obs_from_dict
from .opacity import RunMonitor, SecretSpec
from .policy import PredicateExpr, parse_predicate, predicate_to_obj


@dataclass(frozen=True)
class ModelBundle:
    """Everything a model file declares, resolved and validated."""

    net: FssmNet
    obs_maps: tuple[tuple[str, ObsMap], ...] = ()
    secrets: tuple[tuple[str, SecretSpec], ...] = ()
    observers: tuple[tuple[str, str], ...] = ()  # name -> lattice level
    workflow: Optional[Workflow] = None
    cloud_specs: tuple[CloudSpec, ...] = ()
    cost: Optional[CostModel] = None

    def __post_init__(self):
        object.__setattr__(self, "_obs", dict(self.obs_maps))
        object.__setattr__(self, "_secrets", dict(self.secrets))
        object.__setattr__(self, "_observers", dict(self.observers))

    def obs_map(self, name: str) -> ObsMap:
        if name not in self._obs:
            raise FssmError(f"model defines no observation map named {name!r}")
        return self._obs[name]

    def secret(self, name: str) -> SecretSpec:
        if name not in self._secrets:
            raise FssmError(f"model defines no secret named {name!r}")
        return self._secrets[name]

    def observer_level(self, name: str) -> str:
        """Resolve an observer alias, falling back to a literal level."""
        if name in self._observers:
            return self._observers[name]
        self.net.lattice.check_level(name)
        return name


@contextmanager
def _at(path: str):
    """Attach a document path to semantic errors raised inside."""
    try:
        yield
    except FssmError as e:
        if getattr(e, "path", None) is None:
            e.path = path
        raise


_REQUIRED = object()  # the default of a key that must be present


def _spec(*entries):
    """A walker spec: its (key, type, default) entries in check order, and their key set."""
    return entries, frozenset(key for key, _, _ in entries)


# One spec per kind of object.  They are module constants so that each
# object's unknown-key test reads a key set built once.
_TOP = _spec(
    ("lattice", dict, _REQUIRED), ("clouds", list, ()), ("places", list, ()),
    ("transitions", list, ()), ("initial_markings", list, ({},)),
    ("observations", dict, {}), ("secrets", dict, {}), ("observers", dict, {}),
    ("workflow", dict, None), ("costs", dict, {}),
)
_LATTICE = _spec(("levels", list, _REQUIRED), ("covers", list, ()))
_CLOUD = _spec(("id", str, _REQUIRED), ("clearance", str, _REQUIRED))
_PLACE = _spec(("id", str, _REQUIRED), ("cloud", str, _REQUIRED), ("capacity", int, None))
_TRANSITION = _spec(
    ("id", str, _REQUIRED), ("cloud", str, _REQUIRED), ("clearance", str, _REQUIRED),
    ("floor", str, None), ("inputs", list, ()), ("outputs", list, ()),
)
_ARC_IN = _spec(("place", str, _REQUIRED), ("mode", str, _REQUIRED), ("class", str, WILDCARD))
_ARC_OUT = _spec(("place", str, _REQUIRED), ("class", str, _REQUIRED))
_TOKEN = _spec(("count", int, _REQUIRED), ("class", str, _REQUIRED), ("level", str, _REQUIRED))
_MONITOR = _spec(
    ("states", list, _REQUIRED), ("initial", str, _REQUIRED),
    ("accepting", list, ()), ("edges", list, ()),
)
_WORKFLOW = _spec(("tasks", list, _REQUIRED), ("edges", list, ()))
_TASK = _spec(("id", str, _REQUIRED), ("touches", list, ()))
_COSTS = _spec(("exec", dict, {}), ("transfer", None, 0))


def _fields(obj, path: str, what: str, spec) -> list:
    """The values of ``obj``'s keys in ``spec`` order, defaults filled in.

    Raises ``SchemaError``, first fault first: ``obj`` is not an object; a
    key outside the spec; then, in spec order, a missing required key or a
    present value of the wrong type (``None`` accepts any type).
    """
    entries, keys = spec
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object", path=path)
    if not keys.issuperset(obj):
        key = next(k for k in obj if k not in keys)
        raise SchemaError(f"unknown key {key!r}", path=f"{path}/{key}")
    values = []
    for key, kind, default in entries:
        if key not in obj:
            if default is _REQUIRED:
                raise SchemaError("missing required key", path=f"{path}/{key}")
            values.append(default)
            continue
        val = obj[key]
        if kind is not None and not isinstance(val, kind):
            raise SchemaError("wrong type for key", path=f"{path}/{key}")
        values.append(val)
    return values


def _str_list(val, path: str, n=None, message="expected a list of strings") -> list[str]:
    """A list of strings, of length ``n`` when one is given (or a spec's ``()`` default)."""
    strings = isinstance(val, (list, tuple)) and all(isinstance(x, str) for x in val)
    if not strings or n not in (None, len(val)):
        raise SchemaError(message, path=path)
    return val


def parse_fraction(val, path: str) -> Fraction:
    """Rates: integers, decimal floats, or "a/b" strings."""
    try:
        if isinstance(val, bool):
            raise ValueError
        if isinstance(val, int):
            return Fraction(val)
        if isinstance(val, float):
            return Fraction(str(val))
        if isinstance(val, str):
            return Fraction(val)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"bad rational {val!r}", path=path)


def render_fraction(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_model(text: str) -> ModelBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelSyntaxError(e.msg, line=e.lineno, column=e.colno)
    except RecursionError:
        raise SchemaError("document nested too deeply", path="/")
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", path="/")
    if "costs" in doc and "workflow" not in doc:
        raise SchemaError("costs given without a workflow", path="/costs")
    (
        lattice_doc, cloud_docs, place_docs, transition_docs, initial_docs,
        obs_docs, secret_docs, observer_docs, workflow_doc, costs_doc,
    ) = _fields(doc, "", "top level", _TOP)

    lat = _parse_lattice(lattice_doc)
    clouds = [
        Cloud(*_fields(c, f"/clouds/{i}", "cloud", _CLOUD))
        for i, c in enumerate(cloud_docs)
    ]
    places = [_parse_place(p, f"/places/{i}") for i, p in enumerate(place_docs)]
    transitions = [
        _parse_transition(t, lat, f"/transitions/{i}")
        for i, t in enumerate(transition_docs)
    ]
    if not initial_docs:
        raise SchemaError("at least one initial marking is required", path="/initial_markings")
    place_ids = {p.id for p in places}
    initials = [
        _parse_marking(m, lat, place_ids, f"/initial_markings/{i}")
        for i, m in enumerate(initial_docs)
    ]
    net = build_net(
        lattice=lat,
        clouds=clouds,
        places=places,
        transitions=transitions,
        initials=initials,
    )

    obs_maps = []
    for name, spec in sorted(obs_docs.items()):
        obs_maps.append((name, _parse_obs(spec, net, f"/observations/{name}")))
    secrets = []
    for name, spec in sorted(secret_docs.items()):
        secrets.append((name, _parse_secret(spec, net, f"/secrets/{name}")))
    observers = []
    for name, level in sorted(observer_docs.items()):
        if not isinstance(level, str):
            raise SchemaError("observer alias must be a level name", path=f"/observers/{name}")
        lat.check_level(level, f"/observers/{name}")
        observers.append((name, level))

    workflow, cloud_specs, cost = None, (), None
    if workflow_doc is not None:
        workflow = _parse_workflow(workflow_doc, lat)
        cloud_specs, cost = _parse_costs(costs_doc, net, workflow)

    return ModelBundle(
        net=net,
        obs_maps=tuple(obs_maps),
        secrets=tuple(secrets),
        observers=tuple(observers),
        workflow=workflow,
        cloud_specs=cloud_specs,
        cost=cost,
    )


def _parse_lattice(obj) -> SecurityLattice:
    levels, cover_docs = _fields(obj, "/lattice", "lattice", _LATTICE)
    _str_list(levels, "/lattice/levels")
    covers = []
    for i, pair in enumerate(cover_docs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("cover must be [lo, hi]", path=f"/lattice/covers/{i}")
        lo, hi = pair
        if not isinstance(lo, str) or not isinstance(hi, str):
            raise SchemaError("cover must name two levels", path=f"/lattice/covers/{i}")
        covers.append((lo, hi))
    with _at("/lattice"):
        return build_lattice(levels, covers)


def _parse_place(obj, path: str) -> Place:
    pid, cloud, capacity = _fields(obj, path, "place", _PLACE)
    if isinstance(capacity, bool):
        raise SchemaError("wrong type for key", path=f"{path}/capacity")
    return Place(id=pid, cloud=cloud, capacity=capacity)


def _parse_transition(obj, lat: SecurityLattice, path: str) -> TaskTransition:
    tid, cloud, clearance, floor, in_docs, out_docs = _fields(obj, path, "transition", _TRANSITION)
    # loops, not comprehensions: arc lists are short, and a comprehension
    # costs a call of its own before Python 3.12
    inputs = []
    for i, arc in enumerate(in_docs):
        inputs.append(ArcIn(*_fields(arc, f"{path}/inputs/{i}", "input arc", _ARC_IN)))
    outputs = []
    for i, arc in enumerate(out_docs):
        outputs.append(ArcOut(*_fields(arc, f"{path}/outputs/{i}", "output arc", _ARC_OUT)))
    return TaskTransition(
        id=tid,
        cloud=cloud,
        clearance=clearance,
        floor=lat.bottom if floor is None else floor,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )


def _parse_marking(obj, lat: SecurityLattice, place_ids: set, path: str) -> Marking:
    if not isinstance(obj, dict):
        raise SchemaError("marking must be an object", path=path)
    contents: dict[str, list[tuple[str, str, int]]] = {}
    for pid, tokens in obj.items():
        if not isinstance(tokens, list):
            raise SchemaError("expected a token list", path=f"{path}/{pid}")
        # checked here: ``Marking`` drops a place whose token list is empty,
        # so ``build_net`` never sees it
        if not tokens and pid not in place_ids:
            raise DanglingReference(
                f"marking references unknown place {pid!r}", path=f"{path}/{pid}"
            )
        entries = []
        for i, tok in enumerate(tokens):
            tpath = f"{path}/{pid}/{i}"
            count, klass, level = _fields(tok, tpath, "token", _TOKEN)
            if isinstance(count, bool) or count < 1:
                raise SchemaError("count must be a positive integer", path=f"{tpath}/count")
            # checked here: the canonical ``Marking`` forgets the token's index
            lat.check_level(level, f"{tpath}/level")
            entries.append((klass, level, count))
        contents[pid] = entries
    return marking_of(contents)


_BY_CLEARANCE = "by_clearance:"


def _parse_obs(spec, net: FssmNet, path: str) -> ObsMap:
    if not isinstance(spec, dict):
        raise SchemaError("observation map must be an object", path=path)
    fallback_level = None
    assignment: dict[str, Optional[str]] = {}
    for tid, sym in spec.items():
        if tid == "default":
            if not isinstance(sym, str) or not sym.startswith(_BY_CLEARANCE):
                raise SchemaError('default must be "by_clearance:<level>"', path=f"{path}/default")
            fallback_level = sym[len(_BY_CLEARANCE):]
            net.lattice.check_level(fallback_level, f"{path}/default")
            continue
        if sym is not None and not isinstance(sym, str):
            raise SchemaError("symbol must be a string or null", path=f"{path}/{tid}")
        assignment[tid] = sym
    if fallback_level is not None:
        for tid, sym in derive_obs(net, fallback_level).entries:
            assignment.setdefault(tid, sym)
    with _at(path):
        return obs_from_dict(assignment, net)


def _parse_secret(spec, net: FssmNet, path: str) -> SecretSpec:
    if not isinstance(spec, dict) or len(spec) != 1 or spec.keys() - {"state", "monitor"}:
        raise SchemaError('secret must be {"state": ...} or {"monitor": ...}', path=path)
    if "state" in spec:
        with _at(f"{path}/state"):
            return parse_predicate(spec["state"], net)
    mpath = f"{path}/monitor"
    states, initial, accepting, edges = _fields(spec["monitor"], mpath, "monitor", _MONITOR)
    _str_list(states, f"{mpath}/states")
    _str_list(accepting, f"{mpath}/accepting")
    msg = "monitor edge must be [src, transition, dst]"
    rules = [tuple(_str_list(e, f"{mpath}/edges/{i}", 3, msg)) for i, e in enumerate(edges)]
    with _at(mpath):
        monitor = RunMonitor(
            states=tuple(states),
            initial=initial,
            rules=tuple(sorted(rules)),
            accepting=frozenset(accepting),
        )
        monitor.validate(net)
    return monitor


def _parse_workflow(obj, lat: SecurityLattice) -> Workflow:
    task_docs, edge_docs = _fields(obj, "/workflow", "workflow", _WORKFLOW)
    tasks = []
    for i, t in enumerate(task_docs):
        tpath = f"/workflow/tasks/{i}"
        tid, touch_docs = _fields(t, tpath, "task", _TASK)
        touches = []
        for j, pair in enumerate(touch_docs):
            msg = "touch must be [class, level]"
            touches.append(tuple(_str_list(pair, f"{tpath}/touches/{j}", 2, msg)))
        tasks.append((tid, touches))
    msg = "edge must be [producer, consumer, class, level]"
    edges = [
        tuple(_str_list(e, f"/workflow/edges/{i}", 4, msg)) for i, e in enumerate(edge_docs)
    ]
    with _at("/workflow"):
        return build_workflow(tasks, edges, lat)


def _parse_costs(obj, net: FssmNet, wf: Workflow):
    exec_spec, transfer = _fields(obj, "/costs", "costs", _COSTS)
    by_cloud: dict[str, tuple[Fraction, tuple]] = {}
    for cid, val in exec_spec.items():
        cpath = f"/costs/exec/{cid}"
        if cid not in net.cloud_by_id:
            raise SchemaError(f"unknown cloud {cid!r}", path=cpath)
        if isinstance(val, dict):
            overrides = []
            for tid, rate in val.items():
                if tid not in wf.task_by_id:
                    raise SchemaError(f"unknown task {tid!r}", path=f"{cpath}/{tid}")
                overrides.append((tid, parse_fraction(rate, f"{cpath}/{tid}")))
            by_cloud[cid] = (Fraction(0), tuple(sorted(overrides)))
        else:
            by_cloud[cid] = (parse_fraction(val, cpath), ())
    specs = []
    for c in net.clouds:
        default, overrides = by_cloud.get(c.id, (Fraction(0), ()))
        with _at(f"/costs/exec/{c.id}"):
            specs.append(CloudSpec(c.id, c.clearance, exec_cost=default, overrides=overrides))
    transfer = parse_fraction(transfer, "/costs/transfer")
    with _at("/costs/transfer"):
        cost = CostModel(transfer_cost=transfer)
    return tuple(specs), cost


# --------------------------------------------------------------------------
# serialization


def _hasse(lat: SecurityLattice) -> list[list[str]]:
    covers = []
    for a in lat.levels:
        for b in lat.levels:
            if a == b or not lat.leq(a, b):
                continue
            if any(
                c not in (a, b) and lat.leq(a, c) and lat.leq(c, b) for c in lat.levels
            ):
                continue
            covers.append([a, b])
    return sorted(covers)


def serialize_model(bundle: ModelBundle) -> str:
    net = bundle.net
    doc: dict = {
        "lattice": {"levels": list(net.lattice.levels), "covers": _hasse(net.lattice)},
        "clouds": [{"id": c.id, "clearance": c.clearance} for c in net.clouds],
        "places": [
            {"id": p.id, "cloud": p.cloud, **({"capacity": p.capacity} if p.capacity is not None else {})}
            for p in net.places
        ],
        "transitions": [_transition_obj(t) for t in net.transitions],
        "initial_markings": [_marking_obj(m) for m in net.initials],
    }
    if bundle.obs_maps:
        doc["observations"] = {
            name: {tid: sym for tid, sym in obs.entries}
            for name, obs in bundle.obs_maps
        }
    if bundle.secrets:
        doc["secrets"] = {
            name: _secret_obj(spec) for name, spec in bundle.secrets
        }
    if bundle.observers:
        doc["observers"] = dict(bundle.observers)
    if bundle.workflow is not None:
        doc["workflow"] = {
            "tasks": [
                {"id": t.id, "touches": [[k, lv] for k, lv in t.touches]}
                for t in bundle.workflow.tasks
            ],
            "edges": [
                [e.producer, e.consumer, e.klass, e.level]
                for e in bundle.workflow.edges
            ],
        }
        exec_obj: dict = {}
        for spec in bundle.cloud_specs:
            if spec.overrides:
                exec_obj[spec.id] = {
                    tid: render_fraction(rate) for tid, rate in spec.overrides
                }
            elif spec.exec_cost != 0:
                exec_obj[spec.id] = render_fraction(spec.exec_cost)
        transfer = bundle.cost.transfer_cost if bundle.cost else Fraction(0)
        doc["costs"] = {"exec": exec_obj, "transfer": render_fraction(transfer)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _transition_obj(t: TaskTransition) -> dict:
    inputs = []
    for a in t.inputs:
        arc = {"place": a.place, "mode": a.mode}
        if a.pattern != WILDCARD:
            arc["class"] = a.pattern
        inputs.append(arc)
    return {
        "id": t.id,
        "cloud": t.cloud,
        "clearance": t.clearance,
        "floor": t.floor,
        "inputs": inputs,
        "outputs": [{"place": a.place, "class": a.klass} for a in t.outputs],
    }


def _marking_obj(m: Marking) -> dict:
    return {
        pid: [
            {"class": klass, "level": level, "count": count}
            for klass, level, count in packed
        ]
        for pid, packed in m.entries
    }


def _secret_obj(spec: SecretSpec) -> dict:
    if isinstance(spec, RunMonitor):
        return {
            "monitor": {
                "states": list(spec.states),
                "initial": spec.initial,
                "accepting": sorted(spec.accepting),
                "edges": [list(r) for r in spec.rules],
            }
        }
    return {"state": predicate_to_obj(spec)}
