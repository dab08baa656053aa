"""Finite security lattices.

Levels are plain strings.  A lattice is built from its covering (Hasse)
relation; the reflexive-transitive closure, lattice laws, and the join/meet
tables are computed and validated once at construction time.  Instances are
immutable and safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DuplicateLevel, NotALattice, OrderCycle, UnknownLevel

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


def is_identifier(name: str) -> bool:
    """Names accepted for levels, ids, and token classes."""
    return isinstance(name, str) and bool(_IDENT.match(name))


@dataclass(frozen=True)
class SecurityLattice:
    """A finite lattice of classification levels.

    ``levels`` are sorted and ``level_idx`` numbers them.  ``order`` holds
    the full reflexive-transitive <= relation as pairs; ``joins`` and
    ``meets`` are total binary tables over ``levels``, and ``join_idx[i][j]``
    is the index of the join of levels ``i`` and ``j``.
    """

    levels: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    top: str
    bottom: str
    joins: dict[tuple[str, str], str] = field(repr=False)
    meets: dict[tuple[str, str], str] = field(repr=False)
    level_idx: dict[str, int] = field(repr=False)
    join_idx: tuple[tuple[int, ...], ...] = field(repr=False)

    def check_level(self, a: str, path: str | None = None) -> None:
        """Raise ``UnknownLevel``, located at document ``path``, unless ``a`` is a level."""
        if a not in self.level_idx:
            raise UnknownLevel(f"unknown security level {a!r}", path=path)

    def leq(self, a: str, b: str) -> bool:
        """True iff information at ``a`` may flow to ``b``."""
        self.check_level(a)
        self.check_level(b)
        return (a, b) in self.order

    def join(self, a: str, b: str) -> str:
        self.check_level(a)
        self.check_level(b)
        return self.joins[(a, b)]

    def meet(self, a: str, b: str) -> str:
        self.check_level(a)
        self.check_level(b)
        return self.meets[(a, b)]

    def join_all(self, items: Iterable[str]) -> str:
        """Fold of ``join``; the empty fold yields ``bottom``."""
        acc = self.bottom
        for x in items:
            acc = self.join(acc, x)
        return acc


def build_lattice(level_names: list[str], covers: list[tuple[str, str]]) -> SecurityLattice:
    """Build a validated lattice from level names and covering pairs.

    ``covers`` lists (lower, upper) pairs of the Hasse diagram; the full
    order is their reflexive-transitive closure.  Raises ``DuplicateLevel``,
    ``UnknownLevel``, ``OrderCycle``, or ``NotALattice`` (with a witness
    pair) when the input is not a well-formed lattice.
    """
    if not level_names:
        raise NotALattice("a lattice needs at least one level")
    seen: set[str] = set()
    for name in level_names:
        if not is_identifier(name):
            raise UnknownLevel(f"invalid level name {name!r}")
        if name in seen:
            raise DuplicateLevel(f"level {name!r} declared twice")
        seen.add(name)
    for lo, hi in covers:
        for name in (lo, hi):
            if name not in seen:
                raise UnknownLevel(f"cover references undeclared level {name!r}")

    levels = tuple(sorted(seen))
    index = {name: i for i, name in enumerate(levels)}
    n = len(levels)

    # reflexive-transitive closure of the covers, one bitmask per level:
    # bit c of up[i] is set iff levels[i] <= levels[c] (Warshall over ints)
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        up[index[lo]] |= 1 << index[hi]
    for k in range(n):
        bit, uk = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= uk
    down = [sum(1 << i for i in range(n) if up[i] >> c & 1) for c in range(n)]

    for i in range(n):
        for j in range(i + 1, n):
            if up[i] == up[j]:  # each is above the other
                raise OrderCycle(f"levels {levels[i]!r} and {levels[j]!r} order each other")

    # the join of i and j is the level whose up-set is exactly their common
    # up-set, the meet likewise with down-sets; no such level, no unique bound
    by_up = {u: c for c, u in enumerate(up)}
    by_down = {d: c for c, d in enumerate(down)}
    joins: dict[tuple[str, str], str] = {}
    meets: dict[tuple[str, str], str] = {}
    join_idx = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = levels[i], levels[j]
            lub = by_up.get(up[i] & up[j])
            glb = by_down.get(down[i] & down[j])
            if lub is None or glb is None:
                what = "least upper bound" if lub is None else "greatest lower bound"
                raise NotALattice(f"levels {a!r} and {b!r} have no unique {what}", witness=(a, b))
            join_idx[i][j] = join_idx[j][i] = lub
            joins[(a, b)] = joins[(b, a)] = levels[lub]
            meets[(a, b)] = meets[(b, a)] = levels[glb]

    everything = (1 << n) - 1
    top, bottom = levels[by_down[everything]], levels[by_up[everything]]
    order = frozenset(
        (levels[i], levels[j]) for i in range(n) for j in range(n) if up[i] >> j & 1
    )
    return SecurityLattice(
        levels=levels, order=order, top=top, bottom=bottom, joins=joins, meets=meets,
        level_idx=index, join_idx=tuple(map(tuple, join_idx)),
    )

