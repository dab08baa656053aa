"""Shared fixtures: the small nets used throughout, built programmatically
so tests do not depend on the file format (test_modelfile covers that)."""

from pathlib import Path

import pytest

from fssm import (
    ArcIn,
    ArcOut,
    Cloud,
    CloudSpec,
    CostModel,
    ExploreLimits,
    FssmError,
    Marking,
    Place,
    TaskTransition,
    build_lattice,
    build_net,
    build_workflow,
    explore,
    marking_of,
)
from fssm.corpus import random_net

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


@pytest.fixture(scope="session")
def lat2():
    return build_lattice(["Public", "Secret"], [("Public", "Secret")])


@pytest.fixture(scope="session")
def latd():
    return build_lattice(
        ["L", "A", "B", "H"], [("L", "A"), ("L", "B"), ("A", "H"), ("B", "H")]
    )


def _base_parts():
    clouds = [Cloud("Cpub", "Public"), Cloud("Cpriv", "Secret")]
    places = [Place("p1", "Cpub"), Place("p2", "Cpriv")]
    t_up = TaskTransition(
        id="t_up",
        cloud="Cpriv",
        clearance="Secret",
        floor="Secret",
        inputs=(ArcIn("p1", "take", "d"),),
        outputs=(ArcOut("p2", "d"),),
    )
    initial = marking_of({"p1": [("d", "Public", 1)]})
    return clouds, places, t_up, initial


T_PUB = TaskTransition(
    id="t_pub",
    cloud="Cpub",
    clearance="Public",
    floor="Public",
    inputs=(ArcIn("p1", "read", "d"),),
    outputs=(),
)

T_SIG = TaskTransition(
    id="t_sig",
    cloud="Cpub",
    clearance="Public",
    floor="Public",
    inputs=(ArcIn("p2", "read", "d"),),
    outputs=(),
)

T_LEAK = TaskTransition(
    id="t_leak",
    cloud="Cpub",
    clearance="Secret",
    floor="Public",
    inputs=(ArcIn("p2", "take", "d"),),
    outputs=(ArcOut("p1", "d"),),
)


def make_net(lat, extra=()):
    clouds, places, t_up, initial = _base_parts()
    return build_net(
        lattice=lat,
        clouds=clouds,
        places=places,
        transitions=[t_up, *extra],
        initials=[initial],
    )


@pytest.fixture(scope="session")
def net1(lat2):
    return make_net(lat2)


@pytest.fixture(scope="session")
def net2(lat2):
    return make_net(lat2, [T_PUB])


@pytest.fixture(scope="session")
def net3(lat2):
    return make_net(lat2, [T_PUB, T_SIG])


@pytest.fixture(scope="session")
def net1_leak(lat2):
    return make_net(lat2, [T_LEAK])


@pytest.fixture(scope="session")
def wf1(lat2):
    wf = build_workflow(
        tasks=[("t1", [("d", "Public")]), ("t2", [("d", "Public"), ("s", "Secret")])],
        edges=[("t1", "t2", "d", "Public")],
        lat=lat2,
    )
    clouds = (
        CloudSpec("Cpub", "Public", exec_cost=1),
        CloudSpec("Cpriv", "Secret", exec_cost=3),
    )
    return wf, clouds, CostModel(transfer_cost=1)


def _with_second_initial(net, g):
    """``net`` with a second initial marking, its last reachable state, or
    None when that marking breaks containment and cannot be an initial one."""
    try:
        return build_net(
            net.lattice, net.clouds, net.places, net.transitions,
            [net.initials[0], g.states[-1]],
        )
    except FssmError:
        return None


def explored_graphs(rng, count):
    """(net, limits, graph) from random nets: whole, truncated by states or
    depth, and explored from a second initial marking."""
    out = []
    while len(out) < count:
        net, g = random_net(rng, max_states=30)
        runs = [(net, ExploreLimits()),
                (net, ExploreLimits(max_states=max(1, len(g.states) // 2))),
                (net, ExploreLimits(max_depth=1))]
        two = _with_second_initial(net, g)
        if two is not None:
            runs.append((two, ExploreLimits(initial=1)))
        out.extend((n, limits, explore(n, limits)) for n, limits in runs)
    return out
