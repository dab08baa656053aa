"""Seeded random instance generators for property tests and benchmarks.

Everything is driven by a caller-supplied random.Random, so corpora are
reproducible from seeds.  Generators retry until structural validators
accept the instance; acyclic nets are built layered (every transition
takes from below and emits strictly above), which makes their graphs
finite and cycle-free by construction.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .allocation import CloudSpec, CostModel, Workflow, build_workflow
from .errors import FssmError
from .lattice import SecurityLattice, build_lattice
from .model import ArcIn, ArcOut, Cloud, FssmNet, Place, TaskTransition, build_net, marking_of
from .noninterference import ObsMap, obs_from_dict
from .opacity import RunMonitor
from .policy import And, Contains, CountCmp, ExistsTokenGeq, Not, Or, PredicateExpr
from .statespace import ExploreLimits, ReachabilityGraph, explore

_LEVEL_POOL = ["Base", "Lv1", "Lv2", "Lv3", "Mid", "Alt", "Peak", "Top2"]
_CLASS_POOL = ["d", "k", "r"]
_SYMBOL_POOL = ["a", "b", "c"]


def random_lattice(rng: Random, max_levels: int = 6) -> SecurityLattice:
    """A valid random lattice with at most max_levels levels."""
    for _ in range(60):
        n = rng.randint(1, max_levels)
        names = rng.sample(_LEVEL_POOL, n)
        shape = rng.randrange(4)
        if shape == 0 or n <= 2:
            covers = list(zip(names, names[1:]))
        elif shape == 1 and n >= 3:
            bottom, top, mids = names[0], names[-1], names[1:-1]
            covers = [(bottom, m) for m in mids] + [(m, top) for m in mids]
        else:
            covers = list(zip(names, names[1:]))
            for _ in range(rng.randint(1, 3)):
                i, j = sorted(rng.sample(range(n), 2))
                covers.append((names[i], names[j]))
        try:
            return build_lattice(names, covers)
        except FssmError:
            continue
    return build_lattice(["Base", "Peak"], [("Base", "Peak")])


def _pick_level(rng: Random, lat: SecurityLattice) -> str:
    return rng.choice(lat.levels)


def random_net(
    rng: Random,
    lat: SecurityLattice | None = None,
    acyclic: bool = False,
    max_places: int = 6,
    max_transitions: int = 5,
    max_states: int = 8,
) -> tuple[FssmNet, ReachabilityGraph]:
    """A small net with at most max_states reachable markings (with graph)."""
    for attempt in range(400):
        lat_i = lat or random_lattice(rng)
        n_clouds = rng.randint(1, 2)
        clouds = [Cloud(id=f"c{i}", clearance=_pick_level(rng, lat_i)) for i in range(n_clouds)]
        n_places = rng.randint(1, max_places)
        layers = {f"p{i}": (i * 3) // n_places if acyclic else 0 for i in range(n_places)}
        places = [
            Place(id=f"p{i}", cloud=rng.choice(clouds).id) for i in range(n_places)
        ]
        cloud_clear = {c.id: c.clearance for c in clouds}
        place_cloud = {p.id: p.cloud for p in places}
        tokens: dict[str, list[tuple[str, str, int]]] = {}
        marked: list[tuple[str, str]] = []  # (place, class) actually present
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(places)
            fits = [
                lv for lv in lat_i.levels if lat_i.leq(lv, cloud_clear[place_cloud[p.id]])
            ]
            klass = rng.choice(_CLASS_POOL)
            tokens.setdefault(p.id, []).append((klass, rng.choice(fits), 1))
            marked.append((p.id, klass))
        n_trans = rng.randint(1, max_transitions)
        transitions = []
        for j in range(n_trans):
            # bias toward arcs servable from the initial marking
            if marked and rng.random() < 0.75:
                pid, klass = rng.choice(marked)
                first = next(p for p in places if p.id == pid)
                pattern = "*" if rng.random() < 0.4 else klass
            else:
                first = rng.choice(places)
                pattern = "*" if rng.random() < 0.5 else rng.choice(_CLASS_POOL)
            # acyclic mode needs a consuming first arc: reads alone would
            # self-loop (or generate unboundedly), making the graph cyclic
            first_mode = "take" if acyclic or rng.random() < 0.7 else "read"
            inputs = [ArcIn(place=first.id, mode=first_mode, pattern=pattern)]
            if rng.random() < 0.4:
                if acyclic:
                    pool = [p for p in places if layers[p.id] <= layers[first.id]]
                else:
                    pool = places
                extra = rng.choice(pool)
                inputs.append(
                    ArcIn(
                        place=extra.id,
                        mode=rng.choice(["take", "read"]),
                        pattern="*" if rng.random() < 0.5 else rng.choice(_CLASS_POOL),
                    )
                )
            if acyclic:
                top = max(layers[a.place] for a in inputs)
                out_pool = [p for p in places if layers[p.id] > top]
            else:
                out_pool = places
            outputs = []
            if out_pool:
                for _ in range(rng.randint(0, 2)):
                    outputs.append(
                        ArcOut(place=rng.choice(out_pool).id, klass=rng.choice(_CLASS_POOL))
                    )
            transitions.append(
                TaskTransition(
                    id=f"t{j}",
                    cloud=rng.choice(clouds).id,
                    clearance=_pick_level(rng, lat_i),
                    floor=_pick_level(rng, lat_i),
                    inputs=tuple(inputs),
                    outputs=tuple(outputs),
                )
            )
        try:
            net = build_net(
                lattice=lat_i,
                clouds=clouds,
                places=places,
                transitions=transitions,
                initials=[marking_of(tokens)],
            )
            g = explore(net, ExploreLimits(max_states=max_states + 1))
        except FssmError:
            continue
        if g.truncated or len(g.states) > max_states:
            continue
        # keep the corpus mostly live; a few dead nets stay as edge cases
        if len(g.edges) == 0 and attempt < 300 and rng.random() < 0.9:
            continue
        return net, g
    raise FssmError("corpus generator failed to produce a net")


def random_obs(rng: Random, net: FssmNet, p_silent: float = 0.3) -> ObsMap:
    """Random map with silence and symbol collisions."""
    assignment = {}
    for t in net.transitions:
        if rng.random() < p_silent:
            assignment[t.id] = None
        else:
            assignment[t.id] = rng.choice(_SYMBOL_POOL + [t.id])
    return obs_from_dict(assignment, net)


def random_state_secret(rng: Random, net: FssmNet) -> PredicateExpr:
    def atom() -> PredicateExpr:
        kind = rng.randrange(3)
        if kind == 0:
            place = rng.choice(net.places).id
            klass = rng.choice([None, rng.choice(_CLASS_POOL)])
            return Contains(place, klass)
        if kind == 1:
            return CountCmp(
                rng.choice(net.places).id,
                rng.choice(["<", "<=", "=", ">=", ">"]),
                rng.randint(0, 2),
            )
        return ExistsTokenGeq(
            rng.choice(net.clouds).id, rng.choice(net.lattice.levels)
        )

    roll = rng.random()
    if roll < 0.5:
        p = atom()
    elif roll < 0.7:
        p = Not(atom())
    elif roll < 0.85:
        p = And((atom(), atom()))
    else:
        p = Or((atom(), atom()))
    p.validate(net)
    return p


def random_monitor(rng: Random, net: FssmNet) -> RunMonitor:
    k = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(k))
    tids = [t.id for t in net.transitions]
    rules = []
    seen = set()
    for _ in range(rng.randint(0, 6)):
        q = rng.choice(states)
        tid = rng.choice(tids)
        if (q, tid) in seen:
            continue
        seen.add((q, tid))
        rules.append((q, tid, rng.choice(states)))
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return RunMonitor(
        states=states, initial="q0", rules=tuple(sorted(rules)), accepting=accepting
    )


def random_workflow(rng: Random, lat: SecurityLattice, max_tasks: int = 4) -> Workflow:
    n = rng.randint(1, max_tasks)
    touches = {
        f"t{i}": {
            (rng.choice(_CLASS_POOL), _pick_level(rng, lat))
            for _ in range(rng.randint(1, 2))
        }
        for i in range(n)
    }
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                k, lv = rng.choice(sorted(touches[f"t{i}"]))
                touches[f"t{j}"].add((k, lv))
                edges.append((f"t{i}", f"t{j}", k, lv))
    return build_workflow(
        [(tid, sorted(ts)) for tid, ts in sorted(touches.items())], edges, lat
    )


def random_cloud_specs(
    rng: Random, lat: SecurityLattice, wf: Workflow | None = None, max_clouds: int = 3
) -> tuple[list[CloudSpec], CostModel]:
    n = rng.randint(1, max_clouds)
    specs = []
    for i in range(n):
        exec_cost = Fraction(1, 2) if rng.random() < 0.2 else Fraction(rng.randint(0, 5))
        overrides = ()
        if wf is not None and wf.tasks and rng.random() < 0.3:
            t = rng.choice(wf.tasks).id
            overrides = ((t, Fraction(rng.randint(0, 5))),)
        specs.append(
            CloudSpec(
                id=f"C{i}",
                clearance=_pick_level(rng, lat),
                exec_cost=exec_cost,
                overrides=overrides,
            )
        )
    return specs, CostModel(transfer_cost=Fraction(rng.randint(0, 3)))


def bench_counter_net(counters: int = 3, bound: int = 47, read_counters: bool = False) -> FssmNet:
    """Independent bounded counters: (bound+1)**counters reachable markings.

    Each counter transition reads the shared seed token and drops one
    token into its capped place, so the graph is the full product grid.
    With ``read_counters`` each transition also reads every counter place,
    which then starts with one token and holds up to bound+1: the same grid,
    but every firing changes the input contents of every transition.
    """
    lat = build_lattice(["Public", "Secret"], [("Public", "Secret")])
    clouds = [Cloud(id="core", clearance="Secret")]
    places = [Place(id="seed", cloud="core")]
    tokens = {"seed": [("s", "Public", 1)]}
    reads = []
    for i in range(counters):
        if read_counters:
            tokens[f"cnt{i}"] = [(f"c{i}", "Public", 1)]
            reads.append(ArcIn(place=f"cnt{i}", mode="read", pattern=f"c{i}"))
        places.append(Place(id=f"cnt{i}", cloud="core", capacity=bound + 1 if read_counters else bound))
    transitions = [
        TaskTransition(
            id=f"inc{i}",
            cloud="core",
            clearance="Secret",
            floor="Public",
            inputs=(ArcIn(place="seed", mode="read", pattern="s"), *reads),
            outputs=(ArcOut(place=f"cnt{i}", klass=f"c{i}"),),
        )
        for i in range(counters)
    ]
    return build_net(
        lattice=lat,
        clouds=clouds,
        places=places,
        transitions=transitions,
        initials=[marking_of(tokens)],
    )
