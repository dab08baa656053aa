"""Lattice construction and order algebra, cross-checked against a
brute-force poset oracle that never touches the join/meet tables."""

import random

import pytest

from fssm import (
    DuplicateLevel,
    NotALattice,
    OrderCycle,
    SecurityLattice,
    UnknownLevel,
    build_lattice,
)
from fssm.corpus import random_lattice


class PosetOracle:
    """Reachability over covers by plain DFS; lub/glb by scanning."""

    def __init__(self, levels, covers):
        self.levels = list(levels)
        succ = {a: set() for a in levels}
        for lo, hi in covers:
            succ[lo].add(hi)
        self.reach = {}
        for a in levels:
            seen = {a}
            stack = [a]
            while stack:
                for b in succ[stack.pop()]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            self.reach[a] = seen

    def leq(self, a, b):
        return b in self.reach[a]

    def lub(self, a, b):
        ubs = [c for c in self.levels if self.leq(a, c) and self.leq(b, c)]
        least = [c for c in ubs if all(self.leq(c, d) for d in ubs)]
        return least[0] if len(least) == 1 else None

    def glb(self, a, b):
        lbs = [c for c in self.levels if self.leq(c, a) and self.leq(c, b)]
        greatest = [c for c in lbs if all(self.leq(d, c) for d in lbs)]
        return greatest[0] if len(greatest) == 1 else None


def test_two_chain():
    lat = build_lattice(["Public", "Secret"], [("Public", "Secret")])
    assert lat.top == "Secret"
    assert lat.bottom == "Public"
    assert lat.leq("Public", "Secret")
    assert not lat.leq("Secret", "Public")
    assert lat.join("Public", "Secret") == "Secret"
    assert lat.meet("Public", "Secret") == "Public"


def test_diamond(latd):
    assert latd.top == "H"
    assert latd.bottom == "L"
    assert latd.join("A", "B") == "H"
    assert latd.meet("A", "B") == "L"
    assert not latd.leq("A", "B")
    assert not latd.leq("B", "A")


def test_single_level():
    lat = build_lattice(["only"], [])
    assert lat.top == lat.bottom == "only"
    assert lat.join("only", "only") == "only"


def test_not_a_lattice_witness():
    with pytest.raises(NotALattice) as exc:
        build_lattice(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_two_maximal_elements_rejected():
    # no unique top
    with pytest.raises(NotALattice):
        build_lattice(["x", "y", "z"], [("x", "y"), ("x", "z")])


def test_duplicate_level():
    with pytest.raises(DuplicateLevel):
        build_lattice(["a", "a"], [])


def test_unknown_level_in_cover():
    with pytest.raises(UnknownLevel):
        build_lattice(["a", "b"], [("a", "zz")])


def test_order_cycle():
    with pytest.raises(OrderCycle):
        build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_empty_rejected():
    with pytest.raises(Exception):
        build_lattice([], [])


def test_bad_identifier():
    with pytest.raises(Exception):
        build_lattice(["ok", "not ok"], [("ok", "not ok")])


def test_leq_unknown_level(latd):
    with pytest.raises(UnknownLevel):
        latd.leq("L", "nope")


def test_join_all_empty_is_bottom(latd):
    assert latd.join_all([]) == "L"
    assert latd.join_all(["A", "B"]) == "H"


def _axioms(lat: SecurityLattice):
    ls = lat.levels
    for a in ls:
        assert lat.join(a, a) == a and lat.meet(a, a) == a
        for b in ls:
            assert lat.join(a, b) == lat.join(b, a)
            assert lat.meet(a, b) == lat.meet(b, a)
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a
            assert lat.leq(a, b) == (lat.join(a, b) == b) == (lat.meet(a, b) == a)
            for c in ls:
                assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)
                assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)


def test_axioms_on_fixed_lattices(lat2, latd):
    _axioms(lat2)
    _axioms(latd)


def test_tables_match_poset_oracle():
    rng = random.Random(42)
    for _ in range(40):
        lat = random_lattice(rng)
        # rebuild the oracle from the order relation's covers: use all pairs
        covers = [(a, b) for (a, b) in lat.order if a != b]
        oracle = PosetOracle(lat.levels, covers)
        assert list(lat.levels) == sorted(lat.levels)
        assert [lat.level_idx[a] for a in lat.levels] == list(range(len(lat.levels)))
        for a in lat.levels:
            for b in lat.levels:
                assert lat.leq(a, b) == oracle.leq(a, b)
                assert lat.join(a, b) == oracle.lub(a, b)
                join = lat.join_idx[lat.level_idx[a]][lat.level_idx[b]]
                assert lat.levels[join] == oracle.lub(a, b)
                assert lat.meet(a, b) == oracle.glb(a, b)
        assert all(oracle.leq(lat.bottom, x) for x in lat.levels)
        assert all(oracle.leq(x, lat.top) for x in lat.levels)


def test_random_lattices_are_lattices():
    rng = random.Random(7)
    for _ in range(25):
        _axioms(random_lattice(rng))


# -- builder against the definitional search -----------------------------------


def reference_build(level_names, covers):
    """Lattice tables by the definitions: a boolean closure matrix, and for
    each ordered pair a scan of its common bounds for one that all others
    dominate.  Returns (order, joins, meets, top, bottom) or raises as
    ``build_lattice`` does once the names and covers are well formed."""
    levels = tuple(sorted(set(level_names)))
    index = {name: i for i, name in enumerate(levels)}
    n = len(levels)
    below = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        below[index[lo]][index[hi]] = True
    for k in range(n):
        for i in range(n):
            if below[i][k]:
                for j in range(n):
                    if below[k][j]:
                        below[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if below[i][j] and below[j][i]:
                raise OrderCycle(f"levels {levels[i]!r} and {levels[j]!r} order each other")

    def unique_bound(i, j, upper):
        if upper:
            bounds = [c for c in range(n) if below[i][c] and below[j][c]]
            dominated = lambda c, d: below[c][d]
        else:
            bounds = [c for c in range(n) if below[c][i] and below[c][j]]
            dominated = lambda c, d: below[d][c]
        for c in bounds:
            if all(dominated(c, d) for d in bounds):
                return c
        return None

    joins, meets = {}, {}
    for i in range(n):
        for j in range(n):
            for upper, table, what in (
                (True, joins, "least upper bound"),
                (False, meets, "greatest lower bound"),
            ):
                c = unique_bound(i, j, upper)
                if c is None:
                    raise NotALattice(
                        f"levels {levels[i]!r} and {levels[j]!r} have no unique {what}",
                        witness=(levels[i], levels[j]),
                    )
                table[(levels[i], levels[j])] = levels[c]
    top = bottom = levels[0]
    for name in levels[1:]:
        top, bottom = joins[(top, name)], meets[(bottom, name)]
    order = frozenset(
        (levels[i], levels[j]) for i in range(n) for j in range(n) if below[i][j]
    )
    return order, joins, meets, top, bottom


def _outcome(build, names, covers):
    try:
        lat = build(names, covers)
    except (NotALattice, OrderCycle) as e:
        return type(e), str(e), getattr(e, "witness", None)
    if isinstance(lat, SecurityLattice):
        return lat.order, lat.joins, lat.meets, lat.top, lat.bottom
    return lat


def test_builder_matches_reference_on_random_lattice_draws(monkeypatch):
    import fssm.corpus as corpus

    calls = []

    def both(names, covers):
        want = _outcome(reference_build, names, covers)
        assert _outcome(build_lattice, names, covers) == want, (names, covers)
        calls.append(names)
        return build_lattice(names, covers)

    monkeypatch.setattr(corpus, "build_lattice", both)
    for seed in range(200):
        corpus.random_lattice(random.Random(seed), max_levels=8)
    assert len(calls) >= 200
    assert max(len(names) for names in calls) == 8


_M3_NO_TOP = (["a", "b", "bot", "c"], [("bot", "a"), ("bot", "b"), ("bot", "c")])
_M3_NO_BOTTOM = (["a", "b", "c", "top"], [("a", "top"), ("b", "top"), ("c", "top")])


def test_builder_matches_reference_on_random_relations():
    # arbitrary cover relations: most are not lattices, some have cycles
    rng = random.Random(2024)
    kinds = set()
    for _ in range(400):
        names = rng.sample(["a", "b", "c", "d", "e", "f", "g"], rng.randint(1, 7))
        covers = []
        if len(names) > 1:
            covers = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 8))]
        want = _outcome(reference_build, names, covers)
        assert _outcome(build_lattice, names, covers) == want, (names, covers)
        kinds.add(want[0] if isinstance(want[0], type) else SecurityLattice)
    assert kinds == {NotALattice, OrderCycle, SecurityLattice}


@pytest.mark.parametrize(
    "names,covers,kind,witness",
    [
        # y and z have no upper bound
        (["x", "y", "z"], [("x", "y"), ("x", "z")], NotALattice, ("y", "z")),
        (*_M3_NO_TOP, NotALattice, ("a", "b")),
        (*_M3_NO_BOTTOM, NotALattice, ("a", "b")),
        # c and d are both minimal upper bounds of a and b
        (["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
         NotALattice, ("a", "b")),
        (["p", "q"], [("p", "q"), ("q", "p")], OrderCycle, None),
    ],
    ids=["two_maximal", "m3_no_top", "m3_no_bottom", "bowtie", "two_cycle"],
)
def test_non_lattices_match_reference(names, covers, kind, witness):
    got = _outcome(build_lattice, names, covers)
    assert got == _outcome(reference_build, names, covers)
    assert got[0] is kind and got[2] == witness


# -- property tests -----------------------------------------------------------

import re

from hypothesis import given, strategies as st

from fssm.lattice import is_identifier

_NAME = st.text(alphabet="abcdxyz_019", min_size=1, max_size=5)


@given(st.lists(_NAME, min_size=1, max_size=6, unique=True), st.data())
def test_chain_join_meet_positional(names, data):
    """On a chain, join picks the later element and meet the earlier one."""
    lat = build_lattice(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])
    pos = {n: i for i, n in enumerate(names)}
    a = data.draw(st.sampled_from(names))
    b = data.draw(st.sampled_from(names))
    assert lat.leq(a, b) == (pos[a] <= pos[b])
    assert lat.join(a, b) == names[max(pos[a], pos[b])]
    assert lat.meet(a, b) == names[min(pos[a], pos[b])]
    assert lat.bottom == names[0]
    assert lat.top == names[-1]


@given(st.text(max_size=12))
def test_is_identifier_reference(s):
    assert is_identifier(s) == bool(re.fullmatch(r"[A-Za-z0-9_]+", s))
